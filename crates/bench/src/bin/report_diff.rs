//! `dnnd-report-diff` — the RunReport regression gate.
//!
//! Compares a candidate report against a baseline metric-by-metric with
//! the per-metric relative thresholds each report section declares in
//! `obs` (`RunReport::metric_groups`), prints an aligned delta table, and
//! exits nonzero when any gated metric regressed:
//!
//! ```text
//! dnnd-report-diff baseline.json candidate.json [--threshold 0.05] [--out results/]
//! ```
//!
//! Exit codes: `0` within thresholds, `1` regression detected, `2` usage
//! or I/O error. Virtual-clock metrics are gated (they are deterministic
//! under `--sim-seed`); `wall_secs` is reported but never gated because
//! real time depends on the host. `--threshold` overrides every gated
//! metric's threshold at once (tightening or loosening the whole gate).

use bench::{Args, Table};
use obs::MetricValue::{Exact, Num};
use obs::{Direction, Gate, Metric, Presence, RunReport};
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct MetricRow {
    name: String,
    base: f64,
    cand: f64,
    gate: Gate,
}

impl MetricRow {
    /// Signed relative delta `(cand - base) / base`; `None` when the
    /// baseline is zero and the candidate moved (infinite relative change).
    fn rel_delta(&self) -> Option<f64> {
        match (self.base, self.cand) {
            (b, c) if b != 0.0 => Some((c - b) / b),
            (_, c) => (c == 0.0).then_some(0.0),
        }
    }

    fn regressed(&self) -> bool {
        let t = self.gate.tolerance;
        match (self.gate.direction, self.rel_delta()) {
            (Direction::Info, _) => false,
            // From a zero baseline the relative change is infinite: only
            // growth of a higher-is-worse metric regresses.
            (Direction::HigherIsWorse, None) => self.cand > self.base,
            (Direction::LowerIsWorse, None) => false,
            (Direction::HigherIsWorse, Some(d)) => d > t,
            (Direction::LowerIsWorse, Some(d)) => -d > t,
        }
    }
}

/// The outcome of comparing two reports group by group.
#[derive(Debug, Default)]
struct Diff {
    rows: Vec<MetricRow>,
    /// Required baseline sections the candidate dropped: a hard failure,
    /// not "nothing to compare".
    missing: Vec<&'static str>,
    /// Exact values (digests) that differ: `(path, baseline, candidate)`.
    drifted: Vec<(String, u64, u64)>,
}

/// Compare every metric group of two reports under the groups' declared
/// presence rules. `thr` overrides every gated metric's tolerance.
fn diff(base: &RunReport, cand: &RunReport, thr: Option<f64>) -> Diff {
    let mut d = Diff::default();
    for (bg, cg) in base.metric_groups().into_iter().zip(cand.metric_groups()) {
        debug_assert_eq!(bg.name, cg.name, "every report yields the same groups");
        let (b, c) = (bg.metrics.as_deref(), cg.metrics.as_deref());
        let named = |m: &&str| bg.name.starts_with(&format!("{m}."));
        if bg.required && b.is_some() && c.is_none() && !d.missing.iter().any(named) {
            d.missing.push(bg.name);
        }
        let rows = match bg.presence {
            Presence::Either => b.or(c),
            Presence::Baseline | Presence::Both => b,
        };
        for m in rows.unwrap_or_default() {
            let side = |ms: Option<&[Metric]>| Some(ms?.iter().find(|x| x.path == m.path)?.value);
            let num = |v| if let Some(Num(x, _)) = v { x } else { 0.0 };
            match (m.value, side(b), side(c)) {
                (Exact(_), Some(Exact(x)), Some(Exact(y))) if x != y => {
                    d.drifted.push((m.path.clone(), x, y))
                }
                // A digest compares only when both sides carry it.
                (Exact(_), ..) => {}
                (_, _, None) if bg.presence == Presence::Both => {}
                (Num(_, mut gate), bv, cv) => {
                    if gate.direction != Direction::Info {
                        gate.tolerance = thr.unwrap_or(gate.tolerance);
                    }
                    d.rows.push(MetricRow {
                        name: m.path.clone(),
                        base: num(bv),
                        cand: num(cv),
                        gate,
                    });
                }
            }
        }
    }
    d
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

fn fmt_delta(r: &MetricRow) -> String {
    match r.rel_delta() {
        None => "+inf%".into(),
        Some(d) => format!("{:+.2}%", d * 100.0),
    }
}

fn status(r: &MetricRow) -> &'static str {
    match (r.gate.direction, r.regressed()) {
        (Direction::Info, _) => "info",
        (_, true) => "REGRESSION",
        _ => "ok",
    }
}

fn run() -> Result<bool, String> {
    let args = Args::parse();
    let [base_path, cand_path, ..] = args.positional() else {
        return Err("usage: dnnd-report-diff <baseline.json> <candidate.json> \
             [--threshold <rel>] [--out <dir>]"
            .into());
    };
    let thr: Option<f64> = args.opt("threshold");
    if let Some(t) = thr {
        if !(t.is_finite() && t >= 0.0) {
            return Err(format!("--threshold must be a nonnegative number, got {t}"));
        }
    }

    let load = |path: &str| -> Result<RunReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        RunReport::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    let base = load(base_path)?;
    let cand = load(cand_path)?;

    if base.n_ranks != cand.n_ranks {
        eprintln!(
            "note: rank counts differ (baseline {} vs candidate {}); \
             traffic metrics are not directly comparable",
            base.n_ranks, cand.n_ranks
        );
    }

    let out = diff(&base, &cand, thr);
    let mut table = Table::new(
        &format!("report diff: {base_path} -> {cand_path}"),
        &[
            "metric",
            "baseline",
            "candidate",
            "delta",
            "threshold",
            "status",
        ],
    );
    for r in &out.rows {
        let (b, c, d) = (fmt_value(r.base), fmt_value(r.cand), fmt_delta(r));
        let t = match r.gate.direction {
            Direction::Info => "-".to_string(),
            _ => format!("{:.0}%", r.gate.tolerance * 100.0),
        };
        table.row(&[&r.name, &b, &c, &d, &t, &status(r)]);
    }
    table.print();
    if args.opt::<String>("out").is_some() {
        let path = table
            .write_csv(&args.out_dir(), "report_diff")
            .map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }

    let regressed: Vec<&MetricRow> = out.rows.iter().filter(|r| r.regressed()).collect();
    if !out.missing.is_empty() {
        println!(
            "\nFAIL: candidate report is missing section(s) present in the baseline: {}",
            out.missing.join(", ")
        );
    }
    for (path, b, c) in &out.drifted {
        println!(
            "\nFAIL: {path} drifted: {b:016x} -> {c:016x} \
             (the section is seed-deterministic; any drift means its \
             records changed)"
        );
    }
    if !regressed.is_empty() {
        println!("\nFAIL: {} metric(s) regressed:", regressed.len());
        for r in &regressed {
            println!(
                "  {}: {} -> {} ({}, threshold {:.0}%)",
                r.name,
                fmt_value(r.base),
                fmt_value(r.cand),
                fmt_delta(r),
                r.gate.tolerance * 100.0
            );
        }
    }
    if out.missing.is_empty() && regressed.is_empty() && out.drifted.is_empty() {
        println!("\nPASS: all gated metrics within thresholds");
        Ok(true)
    } else {
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(sim_secs: f64, evals: u64) -> RunReport {
        let mut r = RunReport::new("test");
        r.n_ranks = 2;
        r.iterations = 5;
        r.distance_evals = evals;
        r.sim_secs = sim_secs;
        r.compute_secs = sim_secs * 0.7;
        r.comm_secs = sim_secs * 0.2;
        r.barrier_secs = sim_secs * 0.1;
        r.total_count = 1_000;
        r.total_bytes = 64_000;
        r.total_remote_count = 750;
        r.total_remote_bytes = 48_000;
        r
    }

    fn diff_rows(base: &RunReport, cand: &RunReport, thr: Option<f64>) -> Vec<MetricRow> {
        diff(base, cand, thr).rows
    }

    fn missing_groups(base: &RunReport, cand: &RunReport) -> Vec<&'static str> {
        diff(base, cand, None).missing
    }

    fn digest_drift(base: &RunReport, cand: &RunReport) -> Option<(u64, u64)> {
        let drifted = diff(base, cand, None).drifted;
        drifted.first().map(|(_, b, c)| (*b, *c))
    }

    fn row_named<'a>(rows: &'a [MetricRow], name: &str) -> &'a MetricRow {
        rows.iter().find(|r| r.name == name).unwrap()
    }

    #[test]
    fn identical_reports_pass_every_gate() {
        let r = report(1.5, 100_000);
        let rows = diff_rows(&r, &r, None);
        assert!(rows.iter().all(|m| !m.regressed()));
        assert!(rows.iter().any(|m| m.name == "wall_secs"));
    }

    #[test]
    fn slowdown_beyond_threshold_regresses() {
        let base = report(1.0, 100_000);
        let cand = report(1.5, 100_000); // +50% sim time vs 10% gate
        let rows = diff_rows(&base, &cand, None);
        assert!(row_named(&rows, "sim_secs").regressed());
        assert!(!row_named(&rows, "distance_evals").regressed());
    }

    #[test]
    fn improvement_never_regresses_higher_is_worse() {
        let base = report(2.0, 100_000);
        let cand = report(1.0, 50_000);
        let rows = diff_rows(&base, &cand, None);
        assert!(rows.iter().all(|m| !m.regressed()));
    }

    #[test]
    fn recall_gates_downward_only() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.recall = Some(0.95);
        cand.recall = Some(0.90); // -5.3% vs 2% gate
        let rows = diff_rows(&base, &cand, None);
        assert!(row_named(&rows, "recall").regressed());
        // Upward recall is fine.
        let rows = diff_rows(&cand, &base, None);
        assert!(!row_named(&rows, "recall").regressed());
    }

    #[test]
    fn growth_from_zero_is_a_regression() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.faults = Some(obs::FaultSection::default());
        cand.faults = Some(obs::FaultSection {
            retransmits: 7,
            ..Default::default()
        });
        let rows = diff_rows(&base, &cand, None);
        let r = row_named(&rows, "faults.retransmits");
        assert_eq!(r.rel_delta(), None);
        assert!(r.regressed());
    }

    #[test]
    fn lower_is_worse_growth_from_zero_is_not_a_regression() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        cand.recall = Some(0.95);
        base.serving = Some(obs::ServingSection::default());
        cand.serving = Some(obs::ServingSection {
            offered: 90,
            admitted: 90,
            answered: 90,
            ..Default::default()
        });
        let rows = diff_rows(&base, &cand, None);
        for name in ["recall", "serving.answered"] {
            let r = row_named(&rows, name);
            assert_eq!(r.rel_delta(), None, "{name}");
            assert!(!r.regressed(), "{name} grew from zero");
            assert_eq!(status(r), "ok", "{name}");
        }
        // Higher-is-worse growth from zero still regresses.
        assert!(row_named(&rows, "serving.offered").regressed());
    }

    #[test]
    fn serving_counters_gate_exactly_and_answered_gates_downward() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.serving = Some(obs::ServingSection {
            offered: 100,
            answered: 90,
            shed_overload: 0,
            p99_ns: 4_000_000,
            ..Default::default()
        });
        cand.serving = Some(obs::ServingSection {
            offered: 100,
            answered: 80, // fewer answered: regression
            shed_overload: 5,
            p99_ns: 4_100_000, // +2.5%, inside the 10% latency gate
            ..Default::default()
        });
        let rows = diff_rows(&base, &cand, None);
        assert!(row_named(&rows, "serving.answered").regressed());
        assert!(row_named(&rows, "serving.shed_overload").regressed());
        assert!(!row_named(&rows, "serving.p99_ns").regressed());
        // The reverse direction (more answered, less shedding) is fine.
        let rows = diff_rows(&cand, &base, None);
        assert!(rows
            .iter()
            .filter(|r| r.name.starts_with("serving."))
            .all(|r| !r.regressed()));
    }

    fn tenant(name: &str, shed_overload: u64, answered: u64) -> obs::TenantSloSection {
        obs::TenantSloSection {
            name: name.into(),
            share_pct: 50,
            offered: 100,
            admitted: answered,
            answered,
            shed_overload,
            slo_attainment: answered as f64 / 100.0,
            p50_ns: 500_000,
            p99_ns: 2_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn tenant_counters_gate_exactly_by_class_name() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.serving = Some(obs::ServingSection {
            offered: 200,
            tenants: vec![tenant("gold", 0, 98), tenant("free", 10, 80)],
            ..Default::default()
        });
        // Identical per-tenant counters: every row inside the gate.
        cand.serving = base.serving.clone();
        let rows = diff_rows(&base, &cand, None);
        assert!(rows
            .iter()
            .filter(|r| r.name.starts_with("serving.tenant."))
            .all(|r| !r.regressed()));
        // One extra shed + one fewer answered in `free` gates both ways;
        // `gold` stays clean.
        cand.serving = Some(obs::ServingSection {
            offered: 200,
            tenants: vec![tenant("gold", 0, 98), tenant("free", 11, 79)],
            ..Default::default()
        });
        let rows = diff_rows(&base, &cand, None);
        assert!(row_named(&rows, "serving.tenant.free.shed_overload").regressed());
        assert!(row_named(&rows, "serving.tenant.free.answered").regressed());
        assert!(row_named(&rows, "serving.tenant.free.slo_attainment").regressed());
        assert!(!row_named(&rows, "serving.tenant.gold.shed_overload").regressed());
        // A candidate that dropped the breakdown entirely hard-fails.
        cand.serving = Some(obs::ServingSection {
            offered: 200,
            ..Default::default()
        });
        assert_eq!(missing_groups(&base, &cand), vec!["serving.tenants"]);
        // A tenant-less baseline gates nothing tenant-shaped (schema
        // growth when the candidate adds classes).
        let rows = diff_rows(&cand, &base, None);
        assert!(!rows.iter().any(|r| r.name.starts_with("serving.tenant.")));
        assert!(missing_groups(&cand, &base).is_empty());
    }

    #[test]
    fn vdb_counters_gate_exactly_and_baseline_only() {
        let section = |live: u64, filtered: u64, suppressed: u64| obs::VdbSection {
            namespaces: vec![obs::VdbNamespaceSection {
                name: "prod".into(),
                points: 1_000,
                live,
                tombstones: 1_000 - live,
                dead: 0,
                epoch: 2,
                inserts: 5,
                deletes: 1_000 - live,
                compactions: 1,
            }],
            filtered_queries: filtered,
            cache_suppressed_ids: suppressed,
            selectivity_hist: vec![(3, filtered)],
        };
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        // v7-shaped baseline vs v8 candidate: schema growth, no rows.
        cand.vdb = Some(section(950, 40, 0));
        let rows = diff_rows(&base, &cand, None);
        assert!(!rows.iter().any(|r| r.name.starts_with("vdb.")));
        assert!(missing_groups(&base, &cand).is_empty());
        // Candidate dropped the section: hard failure.
        base.vdb = Some(section(950, 40, 0));
        cand.vdb = None;
        assert_eq!(missing_groups(&base, &cand), vec!["vdb"]);
        // Exact gates: fewer live points / filtered queries regress, and
        // cache-suppression growth regresses; identical sections pass.
        cand.vdb = Some(section(940, 30, 3));
        let rows = diff_rows(&base, &cand, None);
        assert!(row_named(&rows, "vdb.live").regressed());
        assert!(row_named(&rows, "vdb.filtered_queries").regressed());
        assert!(row_named(&rows, "vdb.cache_suppressed_ids").regressed());
        cand.vdb = base.vdb.clone();
        let rows = diff_rows(&base, &cand, None);
        assert!(rows
            .iter()
            .filter(|r| r.name.starts_with("vdb."))
            .all(|r| !r.regressed()));
    }

    #[test]
    fn client_latency_gates_only_when_baseline_measured_it() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        // v6-shaped baseline (no client histogram) vs v7 candidate:
        // schema growth, not growth-from-zero.
        base.serving = Some(obs::ServingSection::default());
        cand.serving = Some(obs::ServingSection {
            client_p50_ns: 500_000,
            client_p99_ns: 4_000_000,
            client_hist: vec![(2, 10)],
            ..Default::default()
        });
        let rows = diff_rows(&base, &cand, None);
        assert!(!rows.iter().any(|r| r.name.starts_with("serving.client_")));
        // Both measured: +20% client p99 trips the 10% latency gate.
        base.serving = Some(obs::ServingSection {
            client_p50_ns: 500_000,
            client_p99_ns: 4_000_000,
            client_hist: vec![(2, 10)],
            ..Default::default()
        });
        cand.serving = Some(obs::ServingSection {
            client_p50_ns: 500_000,
            client_p99_ns: 4_800_000,
            client_hist: vec![(2, 10)],
            ..Default::default()
        });
        let rows = diff_rows(&base, &cand, None);
        assert!(!row_named(&rows, "serving.client_p50_ns").regressed());
        assert!(row_named(&rows, "serving.client_p99_ns").regressed());
    }

    #[test]
    fn rnn_counters_gate_exactly() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        let section = |pruned: u64, evals: u64| obs::RnnSection {
            t1: 2,
            t2: 5,
            k0: 10,
            r: 30,
            rounds: vec![obs::RnnRoundReport {
                outer: 0,
                inner: 0,
                pairs: evals,
                pruned,
                added: 12,
            }],
            reverse_added: vec![100],
            dist_evals: evals,
            repaired: 1,
        };
        base.rnn = Some(section(40, 5_000));
        cand.rnn = Some(section(40, 5_000));
        let rows = diff_rows(&base, &cand, None);
        assert!(rows
            .iter()
            .filter(|r| r.name.starts_with("rnn."))
            .all(|r| !r.regressed()));
        // Any drift in the deterministic counters gates (threshold 0).
        cand.rnn = Some(section(41, 5_001));
        let rows = diff_rows(&base, &cand, None);
        assert!(row_named(&rows, "rnn.pruned_total").regressed());
        assert!(row_named(&rows, "rnn.dist_evals").regressed());
        // A candidate that silently dropped the section hard-fails.
        cand.rnn = None;
        assert_eq!(missing_groups(&base, &cand), vec!["rnn"]);
    }

    #[test]
    fn forensics_counters_gate_exactly_and_digest_drift_hard_fails() {
        let section = |retained: u64, digest: u64| obs::QueryForensicsSection {
            window_slots: 8,
            slow_n: 4,
            considered: 150,
            retained,
            retained_slow: retained,
            digest,
            ..Default::default()
        };
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.query_forensics = Some(section(12, 0xAB));
        cand.query_forensics = Some(section(12, 0xAB));
        let rows = diff_rows(&base, &cand, None);
        assert!(rows
            .iter()
            .filter(|r| r.name.starts_with("query_forensics."))
            .all(|r| !r.regressed()));
        assert!(digest_drift(&base, &cand).is_none());
        // Lost sampler coverage gates (threshold 0, downward).
        cand.query_forensics = Some(section(11, 0xAB));
        let rows = diff_rows(&base, &cand, None);
        assert!(row_named(&rows, "query_forensics.retained").regressed());
        // Digest drift is a hard failure even when every counter agrees.
        cand.query_forensics = Some(section(12, 0xCD));
        let rows = diff_rows(&base, &cand, None);
        assert!(rows
            .iter()
            .filter(|r| r.name.starts_with("query_forensics."))
            .all(|r| !r.regressed()));
        assert_eq!(digest_drift(&base, &cand), Some((0xAB, 0xCD)));
        // A candidate that silently dropped the section hard-fails.
        cand.query_forensics = None;
        assert_eq!(missing_groups(&base, &cand), vec!["query_forensics"]);
        assert!(digest_drift(&base, &cand).is_none());
    }

    #[test]
    fn forensics_free_pair_has_no_forensics_rows() {
        let r = report(1.0, 1);
        let rows = diff_rows(&r, &r, None);
        assert!(!rows.iter().any(|m| m.name.starts_with("query_forensics.")));
    }

    #[test]
    fn rnn_free_pair_has_no_rnn_rows() {
        let r = report(1.0, 1);
        let rows = diff_rows(&r, &r, None);
        assert!(!rows.iter().any(|m| m.name.starts_with("rnn.")));
    }

    #[test]
    fn serving_free_pair_has_no_serving_rows() {
        let r = report(1.0, 1);
        let rows = diff_rows(&r, &r, None);
        assert!(!rows.iter().any(|m| m.name.starts_with("serving.")));
    }

    #[test]
    fn fault_free_pair_has_no_fault_rows() {
        let r = report(1.0, 1);
        let rows = diff_rows(&r, &r, None);
        assert!(!rows.iter().any(|m| m.name.starts_with("faults.")));
    }

    #[test]
    fn missing_baseline_sections_are_named() {
        let mut base = report(1.0, 1);
        let cand = report(1.0, 1);
        assert!(missing_groups(&base, &cand).is_empty());
        base.faults = Some(obs::FaultSection::default());
        base.critical_path = Some(obs::CriticalPathSection::default());
        let missing = missing_groups(&base, &cand);
        assert_eq!(missing, vec!["faults", "critical_path"]);
        // A candidate-only section is growth, not loss: nothing missing.
        assert!(missing_groups(&cand, &base).is_empty());
    }

    #[test]
    fn critical_path_metrics_gate_with_their_own_thresholds() {
        let section = |path_ns: u64, stall_ns: u64, score: f64| obs::CriticalPathSection {
            critical_path_ns: path_ns,
            compute_ns: path_ns - stall_ns,
            stall_ns,
            straggler_score: score,
            ..Default::default()
        };
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.critical_path = Some(section(1_000_000_000, 100_000_000, 0.10));
        // +15% path length trips the 10% gate; +20% stall stays inside its
        // 25% slack; the score needs >15% growth to trip.
        cand.critical_path = Some(section(1_150_000_000, 120_000_000, 0.11));
        let rows = diff_rows(&base, &cand, None);
        assert!(row_named(&rows, "critical_path.critical_path_ns").regressed());
        assert!(!row_named(&rows, "critical_path.stall_ns").regressed());
        assert!(!row_named(&rows, "critical_path.straggler_score").regressed());
        let mut worse = report(1.0, 1);
        worse.critical_path = Some(section(1_000_000_000, 100_000_000, 0.20));
        let rows = diff_rows(&base, &worse, None);
        assert!(row_named(&rows, "critical_path.straggler_score").regressed());
    }

    #[test]
    fn threshold_override_loosens_the_gate() {
        let base = report(1.0, 100_000);
        let cand = report(1.5, 100_000);
        let rows = diff_rows(&base, &cand, Some(0.6));
        assert!(rows.iter().all(|m| !m.regressed()));
        // ... and tightens it.
        let cand = report(1.01, 100_000);
        let rows = diff_rows(&base, &cand, Some(0.001));
        assert!(row_named(&rows, "sim_secs").regressed());
    }

    #[test]
    fn wall_clock_is_informational_even_when_wild() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.wall_secs = 0.1;
        cand.wall_secs = 99.0;
        let rows = diff_rows(&base, &cand, None);
        assert!(!row_named(&rows, "wall_secs").regressed());
        assert_eq!(status(row_named(&rows, "wall_secs")), "info");
    }
}
