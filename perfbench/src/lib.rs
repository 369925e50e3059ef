//! # perfbench — the repository's benchmark
//!
//! One program runs a named workload with a seed, checks that the DNND
//! stack's outputs are correct, and prints every metric by name with its
//! unit. Untraced runs (`--trace 0`) print the end-to-end metrics; a
//! separate traced run (`--trace 1`) prints the per-layer ledger. Every
//! layer is measured from outside, by timing calls into its public
//! functions; the benchmark changes no program code.
//!
//! See `README.md` beside this crate for the workloads, the layer →
//! end-to-end map and the baseline numbers.

pub mod cli;
pub mod metrics;
mod micro;
mod stats;
mod sys;
pub mod timed;
pub mod workloads;
