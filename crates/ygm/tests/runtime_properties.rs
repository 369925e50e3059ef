//! Property tests of the simulated runtime: codec round-trips under
//! arbitrary values, message conservation under random traffic patterns,
//! and partition-independent collective results.

use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use ygm::codec::{decode_from_bytes, encode_to_bytes};
use ygm::{Comm, CostModel, Wire, World, WorldReport, FRAME_HEADER_BYTES, MAX_TAGS};

type Composite = (u32, f32, Vec<u64>, Vec<(u32, bool)>, Option<i64>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trips_arbitrary_composites(
        a in any::<u32>(),
        b in any::<f32>().prop_filter("NaN breaks Eq only", |x| !x.is_nan()),
        v in prop::collection::vec(any::<u64>(), 0..20),
        s in prop::collection::vec((any::<u32>(), any::<bool>()), 0..10),
        o in prop::option::of(any::<i64>()),
    ) {
        let value = (a, b, v, s, o);
        let enc = encode_to_bytes(&value);
        prop_assert_eq!(enc.len(), ygm::Wire::wire_size(&value));
        let back: Composite = decode_from_bytes(enc);
        prop_assert_eq!(back, value);
    }
}

proptest! {
    // World spins up threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every message sent is processed exactly once, no matter the traffic
    /// pattern, rank count, or flush threshold.
    #[test]
    fn message_conservation(
        ranks in 1usize..6,
        sends in prop::collection::vec((0usize..6, any::<u32>()), 0..60),
        flush in prop::sample::select(vec![32usize, 1024, 64 * 1024]),
    ) {
        const TAG: u16 = 0;
        let sends = Arc::new(sends);
        let report = World::new(ranks).flush_threshold(flush).run(|comm| {
            let got = Rc::new(RefCell::new(0u64));
            let g = Rc::clone(&got);
            comm.register::<u32, _>(TAG, move |_, _| *g.borrow_mut() += 1);
            // Rank 0 issues the scripted sends (destinations mod ranks).
            if comm.rank() == 0 {
                for &(dest, payload) in sends.iter() {
                    comm.async_send(dest % comm.n_ranks(), TAG, &payload);
                }
            }
            comm.barrier();
            let n = *got.borrow();
            n
        });
        let delivered: u64 = report.results.iter().sum();
        prop_assert_eq!(delivered, sends.len() as u64);
        prop_assert_eq!(report.total.count, sends.len() as u64);
    }

    /// All-reduce results are identical on every rank and independent of
    /// the rank count.
    #[test]
    fn all_reduce_is_rank_count_invariant(
        values in prop::collection::vec(1u64..1000, 1..5),
    ) {
        let total: u64 = values.iter().sum();
        for ranks in [1usize, 2, 4] {
            let values = values.clone();
            let report = World::new(ranks).run(move |comm| {
                // Spread the addends over ranks round-robin.
                let mine: u64 = values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % comm.n_ranks() == comm.rank())
                    .map(|(_, v)| *v)
                    .sum();
                comm.all_reduce_sum_u64(mine)
            });
            for r in &report.results {
                prop_assert_eq!(*r, total);
            }
        }
    }

    /// The virtual clock is monotone in added work.
    #[test]
    fn clock_monotone_in_compute(work in 0u64..10_000_000) {
        let base = World::new(2)
            .run(|comm| comm.barrier())
            .sim_secs;
        let loaded = World::new(2)
            .run(move |comm| {
                comm.charge_compute(work);
                comm.barrier();
            })
            .sim_secs;
        prop_assert!(loaded >= base);
    }
}

#[test]
fn rank_panic_propagates_to_caller() {
    // A panic on any rank must surface from World::run, not hang the
    // barrier. Catch it at the test boundary.
    let result = std::panic::catch_unwind(|| {
        World::new(2).run(|comm| {
            if comm.rank() == 1 {
                panic!("rank 1 exploded");
            }
            // Rank 0 must not deadlock waiting for rank 1's barrier; it
            // ends its SPMD body immediately and the implicit final
            // barrier would wait forever if the panic were swallowed.
        })
    });
    assert!(result.is_err(), "panic must propagate");
}

#[test]
fn empty_world_rejected() {
    let result = std::panic::catch_unwind(|| World::new(0));
    assert!(result.is_err());
}

#[test]
fn sequential_worlds_are_independent() {
    // Worlds must not leak state (tags, counters) into each other.
    for seed in 0..3u64 {
        let report = World::new(2).run(move |comm| {
            let tag = 5u16;
            comm.register::<u64, _>(tag, |_, _| {});
            comm.async_send(0, tag, &seed);
            comm.barrier();
        });
        assert_eq!(
            report.total.count, 2,
            "world for seed {seed} saw foreign traffic"
        );
    }
}

/// One application send as the program saw it: `(phase, tag, src, dest,
/// frame bytes)`, where `phase` is the sender's completed-barrier count.
type SendRecord = (u64, u16, usize, usize, u64);

const CHAIN: u16 = 3;
const BLOB: u16 = 7;

/// Send `msg` and append the send to `log`.
fn logged_send<M: Wire>(c: &Comm, log: &Mutex<Vec<SendRecord>>, dest: usize, tag: u16, msg: &M) {
    let bytes = (FRAME_HEADER_BYTES + msg.wire_size()) as u64;
    log.lock()
        .unwrap()
        .push((c.phase_index(), tag, c.rank(), dest, bytes));
    c.async_send(dest, tag, msg);
}

/// A 3-rank program whose sends are logged as they are made:
///
/// * phase 0: each rank starts a CHAIN that handlers forward rank to rank
///   (some hops are self-sends) while the barrier drains, plus a BLOB of
///   rank-dependent size;
/// * phase 1: BLOBs before and after an `all_reduce`, inside one phase;
/// * phase 2: no sends at all;
/// * phase 3: the implicit final barrier, after a last BLOB.
fn logged_program(cost: CostModel) -> (WorldReport<()>, Vec<SendRecord>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let report = World::new(3).cost_model(cost).run(|comm| {
        let l = Arc::clone(&log);
        comm.register::<(u32, Vec<u8>), _>(CHAIN, move |c, (hops, pad)| {
            if hops > 0 {
                // Every third hop stays on the rank (matrix diagonal).
                let dest = if hops % 3 == 0 {
                    c.rank()
                } else {
                    (c.rank() + 1) % c.n_ranks()
                };
                logged_send(c, &l, dest, CHAIN, &(hops - 1, pad));
            }
        });
        comm.register::<Vec<f32>, _>(BLOB, |_, _| {});
        let r = comm.rank();
        let pad = vec![r as u8; 3 * r + 1];
        logged_send(comm, &log, (r + 1) % 3, CHAIN, &(5 + r as u32, pad));
        logged_send(comm, &log, (r + 2) % 3, BLOB, &vec![1.0f32; r + 2]);
        comm.barrier();

        logged_send(comm, &log, 0, BLOB, &vec![0.5f32; 2 * r]);
        let sum = comm.all_reduce_sum_u64(r as u64);
        assert_eq!(sum, 3);
        logged_send(comm, &log, 2 - r, BLOB, &vec![0.25f32; r]);
        comm.barrier();

        comm.barrier();

        logged_send(comm, &log, r, BLOB, &Vec::<f32>::new());
    });
    let log = log.lock().unwrap().clone();
    (report, log)
}

/// Per-rank remote `(msgs_out, bytes_out, msgs_in, bytes_in)` of `phase`
/// predicted from the send log.
fn predicted_phase(log: &[SendRecord], phase: u64) -> Vec<[u64; 4]> {
    let mut out = vec![[0u64; 4]; 3];
    for &(p, _, src, dest, bytes) in log {
        if p == phase && src != dest {
            out[src][0] += 1;
            out[src][1] += bytes;
            out[dest][2] += 1;
            out[dest][3] += bytes;
        }
    }
    out
}

/// Per-phase, per-tag and per-cell traffic accounting is exact: with sends
/// logged rank-locally and folded at barriers, every `PhaseRecord`, every
/// tag total and every matrix cell equals what the explicit send log
/// predicts — through barrier-drain chains, sends on both sides of an
/// all-reduce, and an empty phase.
#[test]
fn phase_tag_and_matrix_accounting_match_an_explicit_send_log() {
    // Two cost models turn the per-rank link costs back into exact counts:
    // one charges 1 ns per message and nothing per byte, the other 1 ns
    // per byte and nothing per message.
    let per_msg = CostModel {
        alpha_ns: 1.0,
        bytes_per_ns: f64::INFINITY,
        ..CostModel::free_network()
    };
    let per_byte = CostModel {
        alpha_ns: 0.0,
        bytes_per_ns: 1.0,
        ..CostModel::free_network()
    };
    let (by_msg, log) = logged_program(per_msg);
    let (by_byte, log2) = logged_program(per_byte);
    let sorted = |mut l: Vec<SendRecord>| {
        l.sort_unstable();
        l
    };
    let log = sorted(log);
    assert_eq!(log, sorted(log2), "the program's sends are deterministic");
    // 3 chains of 6, 7 and 8 messages, plus the BLOBs.
    assert_eq!(log.iter().filter(|s| s.1 == CHAIN).count(), 6 + 7 + 8);

    assert_eq!(
        by_msg.phases.len(),
        4,
        "three explicit barriers + the final one"
    );
    for (phase, (pm, pb)) in by_msg.phases.iter().zip(&by_byte.phases).enumerate() {
        let want = predicted_phase(&log, phase as u64);
        for (rank, w) in want.iter().enumerate() {
            let got = [
                pm.rank_send_ns[rank] as u64,
                pb.rank_send_ns[rank] as u64,
                pm.rank_recv_ns[rank] as u64,
                pb.rank_recv_ns[rank] as u64,
            ];
            assert_eq!(
                &got, w,
                "phase {phase} rank {rank}: [msgs/bytes out, msgs/bytes in]"
            );
        }
        let (msgs, bytes) = want.iter().fold((0, 0), |a, w| (a.0 + w[0], a.1 + w[1]));
        assert_eq!((pm.msgs, pm.bytes), (msgs, bytes), "phase {phase} totals");
        assert_eq!((pb.msgs, pb.bytes), (msgs, bytes), "phase {phase} totals");
    }
    let empty = predicted_phase(&log, 2);
    assert!(empty.iter().all(|w| *w == [0; 4]), "phase 2 sends nothing");

    for report in [&by_msg, &by_byte] {
        for tag in [CHAIN, BLOB] {
            let of_tag: Vec<&SendRecord> = log.iter().filter(|s| s.1 == tag).collect();
            let t = report.tag(tag).expect("tag used");
            assert_eq!(t.count, of_tag.len() as u64);
            assert_eq!(t.bytes, of_tag.iter().map(|s| s.4).sum::<u64>());
            let remote: Vec<_> = of_tag.iter().filter(|s| s.2 != s.3).collect();
            assert_eq!(t.remote_count, remote.len() as u64);
            assert_eq!(t.remote_bytes, remote.iter().map(|s| s.4).sum::<u64>());
        }
        assert_eq!(report.total.count, log.len() as u64);
        let mut cells: BTreeMap<(u16, usize), (u64, u64)> = BTreeMap::new();
        for &(_, tag, src, dest, bytes) in &log {
            let c = cells.entry((tag, src * 3 + dest)).or_default();
            c.0 += 1;
            c.1 += bytes;
        }
        assert_eq!(report.matrix.n_ranks, 3);
        assert_eq!(report.matrix.tags.len(), 2);
        for m in &report.matrix.tags {
            for cell in 0..9 {
                let want = cells.get(&(m.tag, cell)).copied().unwrap_or_default();
                assert_eq!(
                    (m.counts[cell], m.bytes[cell]),
                    want,
                    "tag {} cell {cell}",
                    m.tag
                );
            }
        }
    }
}

/// An out-of-range tag is refused by the send itself, not later at the
/// barrier that would fold its accounting.
#[test]
fn out_of_range_tag_panics_at_the_send() {
    let report = World::new(1).run(|comm| {
        let send = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            comm.async_send(0, MAX_TAGS as u16, &1u32)
        }));
        let msg = send
            .expect_err("async_send must panic on an out-of-range tag")
            .downcast::<String>()
            .map(|m| *m)
            .unwrap_or_default();
        comm.barrier();
        msg
    });
    assert!(
        report.results[0].contains("out of range"),
        "unexpected panic: {:?}",
        report.results[0]
    );
    assert_eq!(report.total.count, 0);
}
