//! The timing decorator must be invisible to the program: wrapping `L2`
//! leaves the bit-deterministic (unoptimized, pinned-iteration) build's
//! graph and evaluation count unchanged, and counts every evaluation.

use dataset::{presets, L2};
use dnnd::{CommOpts, DnndConfig};
use perfbench::timed::{KernelLedger, Timed};
use std::sync::Arc;
use ygm::World;

#[test]
fn wrapping_l2_leaves_the_unoptimized_build_bit_identical() {
    let set = Arc::new(presets::deep1b_like(600, 17));
    let cfg = DnndConfig::new(8)
        .seed(17)
        .comm_opts(CommOpts::unoptimized())
        .max_iters(5);
    for ranks in [1, 2] {
        let plain = dnnd::build(&World::new(ranks), &set, &L2, cfg);
        let ledger = KernelLedger::new();
        let timed = dnnd::build(
            &World::new(ranks),
            &set,
            &Timed::new(L2, Arc::clone(&ledger)),
            cfg,
        );

        assert_eq!(
            plain.report.distance_evals, timed.report.distance_evals,
            "{ranks} ranks"
        );
        assert_eq!(
            plain.report.iterations, timed.report.iterations,
            "{ranks} ranks"
        );
        for v in 0..set.len() as u32 {
            let bits = |g: &nnd::KnnGraph| -> Vec<(u32, u32)> {
                g.neighbors(v)
                    .iter()
                    .map(|&(u, d)| (u, d.to_bits()))
                    .collect()
            };
            assert_eq!(
                bits(&plain.graph),
                bits(&timed.graph),
                "row {v} at {ranks} ranks"
            );
        }

        let t = ledger.totals();
        assert_eq!(
            t.pairs, timed.report.distance_evals,
            "every evaluation is counted once"
        );
        assert!(t.calls > 0 && t.calls <= t.pairs);
        assert!(t.busy_ns > 0);
        assert_eq!(t.threads, ranks, "one counter set per rank thread");
    }
}
