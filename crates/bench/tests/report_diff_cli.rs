//! End-to-end tests for the `dnnd-report-diff` regression gate: a report
//! diffed against itself passes, and a clean run diffed against a stormy
//! (fault-injected) run of the same workload fails with a readable delta
//! table.

use dataset::{synth, L2};
use dnnd::obs_report::{report_from_build, write_report};
use dnnd::{build, CommOpts, DnndConfig};
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use testutil::TmpDir;
use ygm::{FaultPlan, FaultProfile, World};

/// Build once (optionally under a fault plan) and write its RunReport.
fn write_run(path: &Path, plan: Option<FaultPlan>) {
    let set = Arc::new(synth::uniform(300, 8, 7));
    let mut world = World::new(4);
    if let Some(p) = plan {
        world = world.fault_plan(p);
    }
    let out = build(
        &world,
        &set,
        &L2,
        DnndConfig::new(6)
            .seed(11)
            .comm_opts(CommOpts::unoptimized())
            .max_iters(3),
    );
    let rr = report_from_build("e2e", &out.report);
    write_report(path, &rr).unwrap();
}

fn diff(base: &Path, cand: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dnnd-report-diff"))
        .args([base.to_str().unwrap(), cand.to_str().unwrap()])
        .output()
        .expect("spawn dnnd-report-diff");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn self_diff_passes_and_storm_diff_fails_readably() {
    let dir = TmpDir::new("report-diff-gate");
    let clean = dir.join("clean.json");
    let stormy = dir.join("stormy.json");
    write_run(&clean, None);
    write_run(
        &stormy,
        Some(FaultPlan::new(FaultProfile::by_name("stormy").unwrap(), 1)),
    );

    // A report is always within threshold of itself.
    let (code, stdout) = diff(&clean, &clean);
    assert_eq!(code, Some(0), "self-diff must exit 0:\n{stdout}");
    assert!(stdout.contains("PASS"), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");

    // The stormy run retransmits (virtual time up, fault counters up from
    // zero): the gate must trip, exit 1, and name the offenders in an
    // aligned table.
    let (code, stdout) = diff(&clean, &stormy);
    assert_eq!(code, Some(1), "storm diff must exit 1:\n{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(
        stdout.contains("faults.retransmits"),
        "fault counters must appear in the delta table:\n{stdout}"
    );
    // Table header + per-metric rows are present and readable.
    for col in [
        "metric",
        "baseline",
        "candidate",
        "delta",
        "threshold",
        "status",
    ] {
        assert!(stdout.contains(col), "missing column {col:?}:\n{stdout}");
    }
}

#[test]
fn flags_before_the_report_paths_are_not_taken_as_paths() {
    let dir = TmpDir::new("report-diff-flags-first");
    let report = dir.join("r.json");
    write_run(&report, None);
    let deltas = dir.join("deltas");
    let out = Command::new(env!("CARGO_BIN_EXE_dnnd-report-diff"))
        .args(["--threshold", "0.1", "--out", deltas.to_str().unwrap()])
        .args([&report, &report])
        .output()
        .expect("spawn dnnd-report-diff");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("PASS"), "{stdout}");
    // --threshold applies to every gated metric.
    assert!(stdout.contains(" 10% "), "{stdout}");
    assert!(deltas.join("report_diff.csv").is_file());
}

#[test]
fn usage_error_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_dnnd-report-diff"))
        .output()
        .expect("spawn dnnd-report-diff");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}
