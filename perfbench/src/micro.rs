//! Unit-cost microbenches for the traced run: the codec per message type,
//! self-send vs remote-send round trips and barriers through small
//! `World::run` programs, and `NeighborHeap::checked_insert`.
//!
//! Each returns a median over a few repetitions; the repetition sizes are
//! fixed, so the numbers are comparable between commits.

use crate::stats::median;
use crate::timed::Spans;
use dataset::set::PointId;
use dnnd::msgs::{Type1, Type2Plus, Type3};
use nnd::NeighborHeap;
use std::hint::black_box;
use std::time::Instant;
use ygm::codec::{decode_from_bytes, encode_to_bytes};
use ygm::{Wire, World};

/// Vector width of the DEEP-like inputs every workload uses.
pub const DIM: usize = 96;
/// Partners per join row in the codec and send microbenches.
const ROW: usize = 8;
const REPS: usize = 5;
/// A tag no protocol of the program registers.
const TAG_PING: u16 = 60;

/// SplitMix64: a tiny seeded generator for microbench inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// The unit costs, in nanoseconds (barrier in microseconds).
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    pub heap_insert_ns: f64,
    pub type2plus_ns: f64,
    pub type3_ns: f64,
    pub self_send_ns: f64,
    pub remote_send_ns: f64,
    pub barrier_us: f64,
}

/// Run every microbench, each inside a span under `parent`; the barrier
/// is timed at `ranks` ranks.
pub fn unit_costs(ranks: usize, seed: u64, spans: &Spans, parent: u64) -> UnitCosts {
    UnitCosts {
        heap_insert_ns: spans.run("NeighborHeap::checked_insert", parent, |_| {
            heap_insert_ns(seed)
        }),
        type2plus_ns: spans.run("ygm::codec", parent, |_| codec_ns(&type2plus(seed))),
        type3_ns: spans.run("ygm::codec", parent, |_| codec_ns(&type3(seed))),
        self_send_ns: spans.run("ygm::World::run", parent, |_| send_ns(1, 0)),
        remote_send_ns: spans.run("ygm::World::run", parent, |_| send_ns(2, 1)),
        barrier_us: spans.run("ygm::World::run", parent, |_| barrier_us(ranks)),
    }
}

fn row(rng: &mut SplitMix) -> Vec<PointId> {
    (0..ROW)
        .map(|_| (rng.next_u64() % 20_000) as PointId)
        .collect()
}

/// A Type 2+ message as the optimized protocol sends it: one head, a row
/// of partners, the pruning bound and the head's vector.
fn type2plus(seed: u64) -> Type2Plus<Vec<f32>> {
    let mut rng = SplitMix(seed);
    Type2Plus {
        u1: 7,
        u2s: row(&mut rng),
        bound: 0.5,
        vec: (0..DIM).map(|_| rng.unit()).collect(),
    }
}

/// A Type 3 distance return for one answered row.
fn type3(seed: u64) -> Type3 {
    let mut rng = SplitMix(seed);
    let ids = row(&mut rng);
    (7, ids.into_iter().map(|u| (u, rng.unit())).collect())
}

/// Encode + decode of one message, ns.
fn codec_ns<T: Wire + PartialEq + std::fmt::Debug>(msg: &T) -> f64 {
    const N: usize = 200_000;
    let back: T = decode_from_bytes(encode_to_bytes(msg));
    assert_eq!(&back, msg, "codec round trip changed the message");
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..N {
                let bytes = encode_to_bytes(black_box(msg));
                black_box(decode_from_bytes::<T>(bytes));
            }
            t.elapsed().as_nanos() as f64 / N as f64
        })
        .collect();
    median(&runs)
}

/// One Type 1 row from rank 0 to `dest` in a `ranks`-rank world, through
/// encode, channel, decode and an empty handler, ns per message. Rank 0
/// times from its first send to the end of the barrier that delivers the
/// last one.
fn send_ns(ranks: usize, dest: usize) -> f64 {
    const N: usize = 100_000;
    let msg: Type1 = (3, (0..ROW as PointId).collect());
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let report = World::new(ranks).run(|c| {
                c.register::<Type1, _>(TAG_PING, |_, m| {
                    black_box(m);
                });
                c.barrier();
                let t = Instant::now();
                if c.rank() == 0 {
                    for _ in 0..N {
                        c.async_send(dest, TAG_PING, &msg);
                    }
                }
                c.barrier();
                t.elapsed().as_nanos() as f64 / N as f64
            });
            report.results[0]
        })
        .collect();
    median(&runs)
}

/// One barrier at `ranks` ranks, µs.
fn barrier_us(ranks: usize) -> f64 {
    const N: usize = 2_000;
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let report = World::new(ranks).run(|c| {
                c.barrier();
                let t = Instant::now();
                for _ in 0..N {
                    c.barrier();
                }
                t.elapsed().as_nanos() as f64 / N as f64 / 1e3
            });
            report.results[0]
        })
        .collect();
    median(&runs)
}

/// `NeighborHeap::checked_insert` at k = 10 on a stream of random
/// candidates spread over 1000 heaps, ns per insert.
fn heap_insert_ns(seed: u64) -> f64 {
    const HEAPS: usize = 1_000;
    const N: usize = 1_000_000;
    let mut rng = SplitMix(seed);
    let stream: Vec<(PointId, f32)> = (0..N)
        .map(|_| ((rng.next_u64() % 20_000) as PointId, rng.unit()))
        .collect();
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut heaps: Vec<NeighborHeap> = (0..HEAPS).map(|_| NeighborHeap::new(10)).collect();
            let t = Instant::now();
            for (i, &(id, d)) in stream.iter().enumerate() {
                black_box(heaps[i % HEAPS].checked_insert(id, d, true));
            }
            let ns = t.elapsed().as_nanos() as f64 / N as f64;
            black_box(&heaps);
            ns
        })
        .collect();
    median(&runs)
}
