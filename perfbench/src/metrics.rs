//! The metric tables and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run of every workload.
/// What the "operation" of each workload is: see `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_wall_ms", "ms"),
    ("op_cpu_ms", "ms"),
    ("sim_ms", "ms"),
    ("recall", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run of every workload.
/// Counts are per operation. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // dataset: the batched distance kernel, timed by the `Timed` decorator.
    ("kernel.calls", "count"),
    ("kernel.pairs", "count"),
    ("kernel.busy_s", "s"),
    ("kernel.ns_per_pair", "ns"),
    ("kernel.batch_width", "pairs/call"),
    ("kernel.share", "ratio"),
    // nnd: the neighbor heap.
    ("heap.insert_ns", "ns"),
    ("heap.accept_ratio", "ratio"),
    // ygm: traffic counts.
    ("ygm.msgs", "count"),
    ("ygm.bytes", "B"),
    ("ygm.remote_msgs", "count"),
    ("ygm.remote_bytes", "B"),
    ("ygm.barriers", "count"),
    ("ygm.msgs.init", "count"),
    ("ygm.msgs.rev", "count"),
    ("ygm.msgs.type1", "count"),
    ("ygm.msgs.type2plus", "count"),
    ("ygm.msgs.type3", "count"),
    ("ygm.msgs.opt", "count"),
    // ygm: unit costs from the microbenches, and what they add up to.
    ("ygm.self_send_ns", "ns"),
    ("ygm.remote_send_ns", "ns"),
    ("ygm.barrier_us", "us"),
    ("codec.type2plus_ns", "ns"),
    ("codec.type3_ns", "ns"),
    ("codec.est_s", "s"),
    ("ygm.outside_kernel_s", "s"),
    // core: the construction engine and the modeled clock.
    ("engine.iterations", "count"),
    ("engine.evals", "count"),
    ("engine.updates", "count"),
    ("engine.sim_compute_share", "ratio"),
    ("engine.sim_comm_share", "ratio"),
    ("engine.sim_barrier_share", "ratio"),
    ("engine.wall_over_sim", "ratio"),
    ("baseline.dnnd_over_nnd", "ratio"),
    ("baseline.1r_over_2r", "ratio"),
    // core: the distributed query engine, per query (`ygm.barriers` is
    // the barriers per batch on query-2r).
    ("query.rounds", "count"),
    ("query.expansions", "count"),
    ("query.evals", "count"),
    ("query.tail_ratio", "ratio"),
    // metall / vdb: where a churn cycle's wall time goes, and store I/O.
    ("vdb.create_share", "ratio"),
    ("vdb.save_share", "ratio"),
    ("vdb.serve_share", "ratio"),
    ("vdb.reopen_share", "ratio"),
    ("store.objects", "count"),
    ("store.live_bytes", "B"),
    ("store.wchar_bytes", "B"),
    ("store.syscw", "count"),
    ("store.write_amp", "ratio"),
    // serve: exact counts of the vdb serving session.
    ("serve.answered", "count"),
    ("serve.cache_hits", "count"),
    ("serve.shed", "count"),
    ("serve.short", "count"),
    ("vdb.filtered", "count"),
    ("vdb.inserts", "count"),
    ("vdb.deletes", "count"),
    ("vdb.compactions", "count"),
    // obs and the run itself.
    ("trace.overhead", "ratio"),
    ("error_rate", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The run's result: the benchmark's last line of standard output.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: builds, queries, store and vdb calls, served
    /// arrivals.
    pub attempted: u64,
    /// Attempted operations that failed or were refused, plus failed
    /// correctness checks.
    pub failed: u64,
    /// One line per failure, for standard error.
    pub problems: Vec<String>,
    pub values: Values,
}

impl Outcome {
    /// Count one failure with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Count `n` attempted operations of which `bad` failed.
    pub fn tally(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.problems.push(format!("{bad} of {n} {what} failed"));
        }
    }

    /// Record an end-to-end or per-layer value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every attempted operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The JSON result line over `table`'s metrics. A per-layer metric
    /// the workload left unset reads 0; an unset end-to-end metric, or a
    /// value that is not finite, is an error in the benchmark itself.
    pub fn json_line(&self, table: &[(&str, &str)], zero_fill: bool) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(self.failed).max(1),
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(&v) => v,
                None if zero_fill => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// Read one metric's value back out of a result line (the steadiness mode
/// parses its children's output with this).
pub fn parse_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find(',')?;
    rest[..end].trim().parse().ok()
}

/// Read the `correct` flag back out of a result line.
pub fn parse_correct(line: &str) -> Option<bool> {
    let rest = &line[line.find("\"correct\": ")? + "\"correct\": ".len()..];
    Some(rest.starts_with("true"))
}
