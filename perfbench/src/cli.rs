//! Command line: one run, or the steadiness mode.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--work-dir <dir>] [--trace-out <file>]
//! perfbench --steady <runs> --workload <name> --seed <first> --seconds <s>
//! ```
//!
//! A run prints diagnostics on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics untraced, the per-layer ones
//! traced. It exits 0 when every check passed and 1 when one failed.
//!
//! `--steady N` runs the workload N times in child processes with seeds
//! `seed, seed+1, ...` and prints each metric's median, quartiles and
//! spread (interquartile range over median).

use crate::metrics::{parse_correct, parse_value, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::timed::Spans;
use crate::workloads::{run, Opts, Workload};
use std::path::PathBuf;
use std::process::Command;

/// Parsed flags.
struct Flags {
    opts: Opts,
    steady: usize,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut smoke = false;
    let mut steady = 0;
    let mut work_dir = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("want one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("want an unsigned integer"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("want a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            "--steady" => steady = value.parse().map_err(|_| bad("want a run count"))?,
            "--work-dir" => work_dir = PathBuf::from(value),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Flags {
        opts: Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            smoke,
            work_dir,
        },
        steady,
        trace_out,
    })
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let flags = match parse(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if flags.steady > 0 {
        return steady(args, &flags);
    }
    let opts = &flags.opts;
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        return 2;
    }
    let spans = Spans::new(opts.trace);
    let out = run(opts, &spans);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    if let Some(parent) = opts.work_dir.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }

    for p in out.problems.iter().take(20) {
        eprintln!("check failed: {p}");
    }
    if opts.trace {
        eprintln!(
            "{:<32} {:>7} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for t in spans.self_times() {
            eprintln!(
                "{:<32} {:>7} {:>12.6} {:>12.6}",
                t.name,
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            );
        }
        let path = flags.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(".perfbench_out").join(format!(
                "trace-{}-{}.json",
                opts.workload.name(),
                opts.seed
            ))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans.chrome_json()));
        match written {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let (table, zero_fill) = if opts.trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    match out.json_line(table, zero_fill) {
        Ok(line) => {
            println!("{line}");
            if out.correct() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            if !out.correct() {
                eprintln!(
                    "perfbench: {} of {} operations failed",
                    out.failed, out.attempted
                );
            }
            1
        }
    }
}

/// The steadiness mode: run the workload `flags.steady` times in child
/// processes, one seed each, and print per-metric medians and spreads.
fn steady(args: &[String], flags: &Flags) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return 2;
        }
    };
    // The child arguments: everything but --steady and --seed.
    let mut base: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--steady" | "--seed" => {
                it.next();
            }
            _ => base.push(a.clone()),
        }
    }
    let table = if flags.opts.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); table.len()];
    let mut all_correct = true;
    for i in 0..flags.steady as u64 {
        let seed = flags.opts.seed + i;
        let child = Command::new(&exe)
            .args(&base)
            .args(["--seed", &seed.to_string()])
            .output();
        let line = match &child {
            Ok(o) => String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .unwrap_or("")
                .to_string(),
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", exe.display());
                return 2;
            }
        };
        let correct = parse_correct(&line) == Some(true);
        all_correct &= correct;
        eprintln!("seed {seed}: {line}");
        for (j, (name, _)) in table.iter().enumerate() {
            if let Some(v) = parse_value(&line, name) {
                values[j].push(v);
            }
        }
    }
    println!(
        "{:<28} {:>6} {:>14} {:>14} {:>14} {:>8}",
        "metric", "runs", "q1", "median", "q3", "spread"
    );
    for ((name, unit), v) in table.iter().zip(&values) {
        if v.len() < 2 {
            println!("{name:<28} {:>6} (too few values)", v.len());
            continue;
        }
        let (q1, m, q3) = quartiles(v);
        let spread = if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
        println!(
            "{:<28} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>8.4}  {unit}",
            name,
            v.len(),
            q1,
            m,
            q3,
            spread
        );
    }
    if all_correct {
        0
    } else {
        1
    }
}
