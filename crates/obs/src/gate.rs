//! The metric registry types. [`crate::RunReport::metric_groups`], beside
//! the section structs, declares once which numbers of each report section
//! gate a regression, in which direction and at what relative tolerance;
//! `dnnd-report-diff` iterates the groups of two reports and knows no
//! metric by name.

/// Which way a metric's movement counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Growth beyond the tolerance regresses (times, counts, sheds).
    HigherIsWorse,
    /// Shrinkage beyond the tolerance regresses (recall, answered, coverage).
    LowerIsWorse,
    /// Reported for context, never gated (wall clock, free-form extras).
    Info,
}

/// A metric's direction and relative tolerance (0.05 = 5% movement allowed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    pub direction: Direction,
    pub tolerance: f64,
}

impl Gate {
    /// Any growth regresses: counters of a deterministic run.
    pub(crate) const GROWTH: Gate = Gate::new(Direction::HigherIsWorse, 0.0);
    /// Any shrinkage regresses: served work and sampler coverage.
    pub(crate) const SHRINK: Gate = Gate::new(Direction::LowerIsWorse, 0.0);
    /// Virtual times and latency percentiles: 10% slack for cost tweaks.
    pub(crate) const TIME: Gate = Gate::new(Direction::HigherIsWorse, 0.10);
    pub(crate) const INFO: Gate = Gate::new(Direction::Info, 0.0);

    pub(crate) const fn new(direction: Direction, tolerance: f64) -> Gate {
        Gate {
            direction,
            tolerance,
        }
    }
}

/// What a metric holds and how it is compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Compared by relative delta under its gate.
    Num(f64, Gate),
    /// A digest that must match verbatim. Compared as the original `u64`:
    /// a relative delta would round through `f64` and could miss drift in
    /// the low bits.
    Exact(u64),
}

/// One registry entry: a dotted path (`serving.p99_ns`) and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub path: String,
    pub value: MetricValue,
}

/// `prefix.key` metrics from `(key, value, gate)` triples; an empty prefix
/// is the top level.
pub(crate) fn metrics(prefix: &str, items: &[(&str, f64, Gate)]) -> Vec<Metric> {
    let dot = if prefix.is_empty() { "" } else { "." };
    let metric = |&(key, v, gate): &(&str, f64, Gate)| Metric {
        path: format!("{prefix}{dot}{key}"),
        value: MetricValue::Num(v, gate),
    };
    items.iter().map(metric).collect()
}

/// [`metrics`] over a section's numeric fields, each run of fields sharing
/// the gate before it; `key = expr` declares a derived value:
/// `gated!(s, "rnn"; Gate::GROWTH => dist_evals, rounds = s.rounds.len())`.
macro_rules! gated {
    ($s:expr, $prefix:expr; $($gate:expr => $($key:ident $(= $v:expr)?),+);+ $(;)?) => {
        $crate::gate::metrics($prefix, &[$($(
            (stringify!($key), gated!(@v $s, $key $(, $v)?), $gate)
        ),+),+])
    };
    (@v $s:expr, $key:ident) => { $s.$key as f64 };
    (@v $s:expr, $key:ident, $v:expr) => { $v as f64 };
}
pub(crate) use gated;

/// When a group is compared, and how a side lacking a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// Compared when either report carries it; the side lacking it reads
    /// as zeros, so new activity in the candidate gates as growth.
    Either,
    /// Compared only when the baseline carries it: a candidate-only group
    /// or metric is schema growth, not a regression. A candidate lacking a
    /// baseline metric reads as zero.
    Baseline,
    /// Only metrics both sides carry are compared (wall clock, free-form
    /// extras).
    Both,
}

/// One report section's metrics. Every report yields the same groups in
/// the same order, so two reports pair up group by group.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricGroup {
    /// Section name (`""` for the top level).
    pub name: &'static str,
    pub presence: Presence,
    /// A baseline section the candidate dropped is a hard failure naming
    /// it, unless the enclosing section (`serving` for `serving.tenants`)
    /// is already named.
    pub required: bool,
    /// `None` when the report does not carry the section.
    pub metrics: Option<Vec<Metric>>,
}
