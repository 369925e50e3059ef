//! Every workload runs at smoke size, traced and untraced, passes its
//! checks and prints every metric; the command line and `BENCHMARK.json`
//! agree with the metric tables.

use perfbench::metrics::{parse_correct, parse_value, END_TO_END, PER_LAYER};
use perfbench::timed::Spans;
use perfbench::workloads::{run, Opts, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;

fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test work dir");
    dir
}

fn opts(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 5,
        seconds: 0.01,
        trace,
        smoke: true,
        work_dir: work_dir(&format!("{}-{trace}", workload.name())),
    }
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let o = opts(w, trace);
            let spans = Spans::new(trace);
            let out = run(&o, &spans);
            let _ = std::fs::remove_dir_all(&o.work_dir);
            assert!(
                out.correct(),
                "{} trace={trace}: {:?}",
                w.name(),
                out.problems
            );
            let (table, zero_fill) = if trace {
                (PER_LAYER, true)
            } else {
                (END_TO_END, false)
            };
            let line = out
                .json_line(table, zero_fill)
                .expect("every metric measured");
            for (name, _) in table {
                let v = parse_value(&line, name).unwrap_or_else(|| panic!("{name} missing"));
                if !trace {
                    assert!(v > 0.0, "{}: end-to-end {name} is {v}", w.name());
                }
            }
            if trace {
                assert!(
                    out.values["kernel.pairs"] > 0.0,
                    "{}: kernel never timed",
                    w.name()
                );
                assert!(!spans.spans().is_empty());
                assert!(spans.self_times().iter().all(|t| t.self_ns <= t.total_ns));
            }
        }
    }
}

#[test]
fn the_binary_prints_one_result_line_and_writes_its_spans() {
    let dir = work_dir("cli");
    let trace_out = dir.join("spans.json");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "vdb-churn",
            "--seed",
            "3",
            "--seconds",
            "0.01",
            "--trace",
            "1",
            "--smoke",
        ])
        .arg("--work-dir")
        .arg(dir.join("work"))
        .arg("--trace-out")
        .arg(&trace_out)
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    assert_eq!(parse_correct(line), Some(true), "{line}");
    assert!(parse_value(line, "store.write_amp").expect("per-layer metric") > 1.0);
    let spans = std::fs::read_to_string(&trace_out).expect("span file");
    assert!(spans.contains("\"name\": \"serve::run_serve_vdb\""));
    assert!(!dir.join("work").exists(), "the run removes its work dir");
    let _ = std::fs::remove_dir_all(&dir);

    let bad = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}

#[test]
fn benchmark_json_lists_the_workloads_and_metric_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("closing quote")])
        .collect();
    let want: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n))
        .collect();
    assert_eq!(names, want);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} should have unit {unit}"
        );
    }
}
