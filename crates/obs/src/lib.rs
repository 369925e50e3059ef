//! Observability for the DNND simulation: span tracing, histogram metrics,
//! Chrome-trace export, and unified JSON run reports.
//!
//! The crate is dependency-free and knows nothing about `ygm` or the engine;
//! callers push events keyed to *both* clocks (wall time measured here,
//! virtual simulation time passed in) and feed already-aggregated runtime
//! statistics into [`report::RunReport`].
//!
//! Hot-path design: each simulated rank runs on its own OS thread and owns a
//! single-producer lock-free ring buffer ([`ring::RankBuffer`]); recording a
//! span boundary is one slot write plus one atomic store. Histograms are
//! arrays of relaxed atomic counters. Everything is aggregated only at
//! export time, after `World::run` has joined the rank threads.
//!
//! Zero-cost when disabled: instrumented code holds an
//! `Option<Arc<Tracer>>` (or `Option<&Tracer>`) and skips all of this with
//! one branch when tracing is off.

pub mod chrome;
pub mod critical_path;
pub mod dashboard;
pub mod gate;
pub mod hist;
pub mod json;
pub mod report;
pub mod ring;
pub mod timeseries;
pub mod tracer;

pub use critical_path::{CriticalPathSection, PhaseAttribution, PhaseCost};
pub use gate::{Direction, Gate, Metric, MetricGroup, MetricValue, Presence};
pub use hist::{Histogram, HistogramSnapshot};
pub use json::JsonValue;
pub use report::{
    ConvergencePoint, FaultSection, MatrixSection, MatrixTagReport, PhaseReport, QueryExemplar,
    QueryForensicsSection, RnnRoundReport, RnnSection, RunReport, ServingSection, TagReport,
    TenantSloSection, VdbNamespaceSection, VdbSection,
};
pub use ring::{EventKind, TraceEvent};
pub use timeseries::{SeriesPoint, SeriesSnapshot, TimeSeriesSet};
pub use tracer::Tracer;
