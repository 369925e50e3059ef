//! The three workloads: set-up, the timed operation loop, correctness
//! checks, and the end-to-end and per-layer values.
//!
//! Each workload's *operation* is the unit the end-to-end times describe:
//!
//! | workload    | operation                                             |
//! |-------------|-------------------------------------------------------|
//! | `build-2r`  | one `dnnd::build` on 2 ranks                          |
//! | `query-2r`  | one closed-loop batch of 8 queries on 2 ranks         |
//! | `vdb-churn` | one create → serve-with-churn cycle on 1 rank         |
//!
//! Per-layer counts are per operation. Traced runs alternate each traced
//! operation with an untraced one on the same seed, for `trace.overhead`;
//! the traced `build-2r` run adds an untraced 1-rank build on each seed,
//! for `baseline.1r_over_2r`.
//! The traced `vdb-churn` run adds one persistence round trip (save →
//! `run_serve_vdb` → reopen).

use crate::metrics::Outcome;
use crate::micro::{unit_costs, SplitMix, UnitCosts, DIM};
use crate::stats::{median, tail};
use crate::sys::{peak_rss_mb, process_cpu_secs, reset_peak_rss, Io};
use crate::timed::{KernelLedger, KernelTotals, Spans, Timed};
use dataset::metric::Metric;
use dataset::synth::split_queries;
use dataset::{
    brute_force_queries, presets, recall_single, BatchMetric, GroundTruth, PointId, PointSet, L2,
};
use dnnd::msgs::*;
use dnnd::{DistSearchParams, DnndConfig, QueryProfile, SearchEngine};
use nnd::{KnnGraph, NnDescentParams};
use serve::workload::FILTER_BUCKETS;
use serve::{run_serve_vdb, ServeOutcome, ServeParams, ServingStats, VdbServeConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use vdb::{Collection, MetaRecord, Value};
use ygm::{ClockBreakdown, TagStats, World};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Build2r,
    Query2r,
    VdbChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Build2r, Workload::Query2r, Workload::VdbChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Build2r => "build-2r",
            Workload::Query2r => "query-2r",
            Workload::VdbChurn => "vdb-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Rank threads the workload runs (also the barrier microbench's).
    /// `vdb-churn` serves on 1 rank: its session ends every 1 ms slot in
    /// barriers (≈12 000 per cycle), and on 2 ranks its wall time tracked
    /// the host's steal, 1.7 to 3.7 s per cycle from run to run.
    fn ranks(self) -> usize {
        match self {
            Workload::VdbChurn => 1,
            _ => 2,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// How long the operation loop runs (it always completes at least
    /// the workload's minimum number of operations).
    pub seconds: f64,
    /// Traced run: per-layer instrumentation on.
    pub trace: bool,
    /// Smoke sizes, for the benchmark's own tests.
    pub smoke: bool,
    /// Scratch directory for the vdb store; the caller creates and removes it.
    pub work_dir: PathBuf,
}

/// Input sizes. The full sizes are the benchmark; smoke sizes only check
/// that every path runs.
struct Sizes {
    /// Points in the build and query inputs.
    n: usize,
    /// Vertices whose graph rows are scored against brute force.
    recall_sample: usize,
    /// Distinct queries the closed loop cycles through.
    query_pool: usize,
    vdb_n: usize,
    vdb_pool: usize,
    arrivals: usize,
    /// Fewest set-ups per run (cheap ones repeat for a second);
    /// `setup_s` is their median.
    setup_reps: usize,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                n: 1_500,
                recall_sample: 100,
                query_pool: 64,
                vdb_n: 200,
                vdb_pool: 16,
                arrivals: 100,
                setup_reps: 2,
            }
        } else {
            Sizes {
                n: 10_000,
                recall_sample: 200,
                query_pool: 512,
                vdb_n: 1_000,
                vdb_pool: 32,
                arrivals: 400,
                setup_reps: 3,
            }
        }
    }
}

const K: usize = 10;
const GRAPH_M: f64 = 1.5;
const QUERY_L: usize = 20;
const BATCH: usize = 8;
/// Random entry points per query. The DEEP-like inputs are well separated
/// clusters (one per 256 points) with no k-NNG edges between them, so the
/// beam reaches the right cluster only if an entry point lands in it.
const ENTRY: usize = 512;
const VDB_K: usize = 8;
const NAMESPACE: &str = "bench";
/// Share of the collection tombstoned before serving: these ids must
/// never appear in a served answer.
const VICTIM_SHARE: f64 = 0.05;
/// The BENCH_10 mutating scenario.
const CHURN_SPEC: &str = "filter:pct=50,sel=0.3;mutate:ins=10,del=7";
const COMPACT_WATERMARK: f64 = 0.005;

/// Recall floors; a run below one fails its correctness check.
const BUILD_RECALL_FLOOR: f64 = 0.85;
const QUERY_RECALL_FLOOR: f64 = 0.85;
const VDB_RECALL_FLOOR: f64 = 0.80;

/// Run one workload and collect its outcome.
pub fn run(opts: &Opts, spans: &Spans) -> Outcome {
    let sz = Sizes::new(opts.smoke);
    let mut out = Outcome::default();
    // Traced runs price the layers first, so the workload can turn its
    // message counts into an estimated codec time.
    let costs = opts.trace.then(|| {
        let costs = spans.run("microbench", 0, |id| {
            unit_costs(opts.workload.ranks(), opts.seed, spans, id)
        });
        set_unit_costs(&mut out, &costs);
        costs
    });
    let costs = costs.as_ref();
    match opts.workload {
        Workload::Build2r => build(opts, &sz, costs, spans, &mut out),
        Workload::Query2r => query(opts, &sz, costs, spans, &mut out),
        Workload::VdbChurn => churn(opts, &sz, costs, spans, &mut out),
    }
    if out.attempted == 0 {
        out.fail("no operation ran".into());
    }
    out.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out
}

/// Run `f` from scratch at least `reps` times and until a second has
/// passed, keep the last result and record the median time as `setup_s`.
fn setup<T>(reps: usize, spans: &Spans, out: &mut Outcome, mut f: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < reps || start.elapsed().as_secs_f64() < 1.0 {
        drop(last.take()); // free the previous copy before making the next
        let t = Instant::now();
        last = Some(spans.run("setup", 0, |_| f()));
        times.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&times));
    last.expect("at least one set-up")
}

/// Call `op` at least `min_ops` times, and then for as long as another
/// call, as long as the slowest so far, still ends within `seconds`: a run
/// lasts about `seconds`, not up to one operation more.
fn repeat(seconds: f64, min_ops: usize, mut op: impl FnMut()) {
    let t = Instant::now();
    let (mut n, mut slowest) = (0, 0.0f64);
    while n < min_ops || t.elapsed().as_secs_f64() + slowest < seconds {
        let t_op = Instant::now();
        op();
        slowest = slowest.max(t_op.elapsed().as_secs_f64());
        n += 1;
    }
}

/// Time `f`, returning its result and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Run `f` and return its result with the process CPU seconds it took.
fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let c = || process_cpu_secs().expect("the benchmark runs on Linux with /proc mounted");
    let c0 = c();
    let v = f();
    (v, c() - c0)
}

/// Run `f` and return its result with the peak RSS (MiB) reached while
/// it ran. A failed read yields NaN, which the result line rejects.
fn with_peak<T>(f: impl FnOnce() -> T) -> (T, f64) {
    reset_peak_rss();
    let v = f();
    (v, peak_rss_mb().unwrap_or(f64::NAN))
}

/// Traffic and modeled clock, summed over the worlds of `ops` operations.
#[derive(Default)]
struct Traffic {
    tags: Vec<(u16, TagStats)>,
    total: TagStats,
    barriers: usize,
    breakdown: ClockBreakdown,
    sim_secs: f64,
    ops: usize,
}

fn plus(a: TagStats, b: TagStats) -> TagStats {
    TagStats {
        count: a.count + b.count,
        bytes: a.bytes + b.bytes,
        remote_count: a.remote_count + b.remote_count,
        remote_bytes: a.remote_bytes + b.remote_bytes,
    }
}

impl Traffic {
    /// Add one world's counters (`phases` = its barrier phases).
    fn add(
        &mut self,
        tags: &[(u16, String, TagStats)],
        total: TagStats,
        phases: usize,
        b: ClockBreakdown,
        sim_secs: f64,
        ops: usize,
    ) {
        for &(tag, _, s) in tags {
            match self.tags.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, acc)) => *acc = plus(*acc, s),
                None => self.tags.push((tag, s)),
            }
        }
        self.total = plus(self.total, total);
        self.barriers += phases;
        self.breakdown = ClockBreakdown {
            compute_secs: self.breakdown.compute_secs + b.compute_secs,
            comm_secs: self.breakdown.comm_secs + b.comm_secs,
            barrier_secs: self.breakdown.barrier_secs + b.barrier_secs,
        };
        self.sim_secs += sim_secs;
        self.ops += ops;
    }

    /// Add another `Traffic`'s counters.
    fn absorb(&mut self, o: &Traffic) {
        let tags: Vec<_> = o.tags.iter().map(|&(t, s)| (t, String::new(), s)).collect();
        self.add(&tags, o.total, o.barriers, o.breakdown, o.sim_secs, o.ops);
    }

    fn of_world<T>(r: &ygm::WorldReport<T>, ops: usize) -> Traffic {
        let mut t = Traffic::default();
        t.add(
            &r.tags,
            r.total,
            r.phases.len(),
            r.breakdown,
            r.sim_secs,
            ops,
        );
        t
    }
}

/// The kernel, ygm, codec and engine per-layer values: traffic from `w`,
/// kernel totals over `ops` operations taking `wall` seconds in all on
/// `ranks` ranks.
fn set_world_layers(
    out: &mut Outcome,
    w: &Traffic,
    kernel: KernelTotals,
    wall: f64,
    ops: usize,
    ranks: usize,
    costs: &UnitCosts,
) {
    let per = |x: u64| x as f64 / w.ops as f64;
    let tag = |ts: &[u16]| -> u64 {
        w.tags
            .iter()
            .filter(|(t, _)| ts.contains(t))
            .map(|(_, s)| s.count)
            .sum()
    };
    out.set("ygm.msgs", per(w.total.count));
    out.set("ygm.bytes", per(w.total.bytes));
    out.set("ygm.remote_msgs", per(w.total.remote_count));
    out.set("ygm.remote_bytes", per(w.total.remote_bytes));
    out.set("ygm.barriers", per(w.barriers as u64));
    out.set("ygm.msgs.init", per(tag(&[TAG_INIT_REQ, TAG_INIT_RESP])));
    out.set("ygm.msgs.rev", per(tag(&[TAG_REV_NEW, TAG_REV_OLD])));
    out.set("ygm.msgs.type1", per(tag(&[TAG_TYPE1])));
    out.set("ygm.msgs.type2plus", per(tag(&[TAG_TYPE2_PLUS])));
    out.set("ygm.msgs.type3", per(tag(&[TAG_TYPE3])));
    out.set("ygm.msgs.opt", per(tag(&[TAG_OPT_EDGE])));
    out.set(
        "codec.est_s",
        codec_estimate_s(&w.tags, costs) / w.ops as f64,
    );

    let busy = kernel.busy_ns as f64 / 1e9;
    out.set("kernel.calls", kernel.calls as f64 / ops as f64);
    out.set("kernel.pairs", kernel.pairs as f64 / ops as f64);
    out.set("kernel.busy_s", busy / ops as f64);
    out.set(
        "kernel.ns_per_pair",
        kernel.busy_ns as f64 / kernel.pairs.max(1) as f64,
    );
    out.set(
        "kernel.batch_width",
        kernel.pairs as f64 / kernel.calls.max(1) as f64,
    );
    out.set("kernel.share", busy / (wall * ranks as f64));
    // Mean time per rank thread outside the kernel.
    out.set(
        "ygm.outside_kernel_s",
        (wall - busy / ranks as f64) / ops as f64,
    );

    let b = &w.breakdown;
    let sim_total = b.total_secs().max(f64::MIN_POSITIVE);
    out.set("engine.sim_compute_share", b.compute_secs / sim_total);
    out.set("engine.sim_comm_share", b.comm_secs / sim_total);
    out.set("engine.sim_barrier_share", b.barrier_secs / sim_total);
    out.set(
        "engine.wall_over_sim",
        wall / ops as f64 / (w.sim_secs / w.ops as f64),
    );
}

/// Encode + decode time the workload's messages would cost at the
/// microbenched unit prices: vector-carrying tags (mean size at least one
/// f32 vector) at the Type 2+ price, the rest at the Type 3 price.
fn codec_estimate_s(tags: &[(u16, TagStats)], costs: &UnitCosts) -> f64 {
    let ns: f64 = tags
        .iter()
        .map(|(_, s)| {
            let mean_bytes = s.bytes as f64 / s.count.max(1) as f64;
            let unit = if mean_bytes >= (4 * DIM) as f64 {
                costs.type2plus_ns
            } else {
                costs.type3_ns
            };
            s.count as f64 * unit
        })
        .sum();
    ns / 1e9
}

fn set_unit_costs(out: &mut Outcome, c: &UnitCosts) {
    out.set("heap.insert_ns", c.heap_insert_ns);
    out.set("codec.type2plus_ns", c.type2plus_ns);
    out.set("codec.type3_ns", c.type3_ns);
    out.set("ygm.self_send_ns", c.self_send_ns);
    out.set("ygm.remote_send_ns", c.remote_send_ns);
    out.set("ygm.barrier_us", c.barrier_us);
}

/// Deterministic sample of `count` ids below `n` (repeats allowed).
fn sample_ids(n: usize, count: usize, seed: u64) -> Vec<PointId> {
    let mut rng = SplitMix(seed);
    (0..count)
        .map(|_| (rng.next_u64() % n as u64) as PointId)
        .collect()
}

/// Deterministic sample of `count` distinct ids below `n`, `count <= n`.
fn distinct_ids(n: usize, count: usize, seed: u64) -> Vec<PointId> {
    let mut rng = SplitMix(seed);
    let mut seen = std::collections::HashSet::new();
    while seen.len() < count {
        seen.insert((rng.next_u64() % n as u64) as PointId);
    }
    seen.into_iter().collect()
}

// ---------------------------------------------------------------- build

struct BuildInput {
    set: Arc<PointSet<Vec<f32>>>,
    /// Sampled vertices and their exact `K` nearest other points.
    sample: Vec<PointId>,
    truth: Vec<Vec<PointId>>,
}

fn build_input(n: usize, sample_n: usize, seed: u64) -> BuildInput {
    let set = presets::deep1b_like(n, seed);
    let sample = sample_ids(n, sample_n, seed ^ 0x5A3F);
    let queries = PointSet::new(sample.iter().map(|&v| set.point(v).clone()).collect());
    let gt = brute_force_queries(&set, &queries, &L2, K + 1);
    let truth = sample
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            gt.neighbors(i)
                .iter()
                .copied()
                .filter(|&u| u != v)
                .take(K)
                .collect()
        })
        .collect();
    BuildInput {
        set: Arc::new(set),
        sample,
        truth,
    }
}

/// Recall@K of the graph rows of the sampled vertices.
fn graph_recall(graph: &KnnGraph, input: &BuildInput) -> f64 {
    let sum: f64 = input
        .sample
        .iter()
        .zip(&input.truth)
        .map(|(&v, truth)| {
            let row: Vec<PointId> = graph.neighbors(v).iter().take(K).map(|&(u, _)| u).collect();
            recall_single(&row, truth)
        })
        .sum();
    sum / input.sample.len() as f64
}

struct BuildRun {
    wall: f64,
    cpu: f64,
    peak: f64,
    recall: f64,
    report: dnnd::BuildReport,
}

/// One timed `dnnd::build`, checked: every vertex has a row and the
/// sampled recall meets the floor.
fn build_once<M: BatchMetric<Vec<f32>>>(
    input: &BuildInput,
    ranks: usize,
    metric: &M,
    seed: u64,
    spans: &Spans,
    parent: u64,
    out: &mut Outcome,
) -> BuildRun {
    let cfg = DnndConfig::new(K).graph_opt(GRAPH_M).seed(seed);
    let world = World::new(ranks);
    let (((built, wall), cpu), peak) = with_peak(|| {
        cpu_timed(|| {
            timed(|| {
                spans.run("dnnd::build", parent, |_| {
                    dnnd::build(&world, &input.set, metric, cfg)
                })
            })
        })
    });
    let recall = graph_recall(&built.graph, input);
    out.attempted += 1;
    if built.graph.len() != input.set.len() {
        out.fail(format!(
            "graph has {} rows for {} points",
            built.graph.len(),
            input.set.len()
        ));
    } else if recall < BUILD_RECALL_FLOOR {
        out.fail(format!(
            "build recall@{K} {recall:.4} below floor {BUILD_RECALL_FLOOR}"
        ));
    }
    BuildRun {
        wall,
        cpu,
        peak,
        recall,
        report: built.report,
    }
}

fn build(opts: &Opts, sz: &Sizes, costs: Option<&UnitCosts>, spans: &Spans, out: &mut Outcome) {
    let ranks = opts.workload.ranks();
    let input = setup(sz.setup_reps, spans, out, || {
        build_input(sz.n, sz.recall_sample, opts.seed)
    });
    let ledger = KernelLedger::new();
    let timed_l2 = Timed::new(L2, Arc::clone(&ledger));
    let untraced = Spans::new(false);

    // Each build draws its random initial graph from its own seed, so the
    // run's medians cover several starting points. A traced run precedes
    // each traced build with an untraced one and an untraced 1-rank one
    // on the same seed.
    let mut runs: Vec<BuildRun> = Vec::new();
    let mut reference: Vec<f64> = Vec::new();
    let mut one_rank: Vec<f64> = Vec::new();
    repeat(opts.seconds, if opts.trace { 1 } else { 3 }, || {
        let seed = opts.seed + 1 + runs.len() as u64;
        if opts.trace {
            reference.push(build_once(&input, ranks, &L2, seed, &untraced, 0, out).wall);
            one_rank.push(build_once(&input, 1, &L2, seed, &untraced, 0, out).wall);
        }
        let run = spans.run("op", 0, |id| {
            if opts.trace {
                build_once(&input, ranks, &timed_l2, seed, spans, id, out)
            } else {
                build_once(&input, ranks, &L2, seed, spans, id, out)
            }
        });
        runs.push(run);
    });
    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let recalls: Vec<f64> = runs.iter().map(|r| r.recall).collect();
    let cpus: Vec<f64> = runs.iter().map(|r| r.cpu).collect();
    out.set("op_wall_ms", median(&walls) * 1e3);
    out.set("op_cpu_ms", median(&cpus) * 1e3);
    let sims: Vec<f64> = runs.iter().map(|r| r.report.sim_secs).collect();
    let peaks: Vec<f64> = runs.iter().map(|r| r.peak).collect();
    out.set("peak_rss_mb", median(&peaks));
    out.set("sim_ms", median(&sims) * 1e3);
    out.set("recall", median(&recalls));

    if let Some(costs) = costs {
        let reference = median(&reference);
        let nnd_wall = spans.run("nnd::build", 0, |_| {
            let t = Instant::now();
            std::hint::black_box(nnd::build(
                &*input.set,
                &L2,
                NnDescentParams::new(K).seed(opts.seed),
            ));
            t.elapsed().as_secs_f64()
        });
        out.set("baseline.dnnd_over_nnd", reference / nnd_wall);
        out.set("baseline.1r_over_2r", median(&one_rank) / reference);
        out.set("trace.overhead", median(&walls) / reference);

        let last = &runs.last().expect("at least one build").report;
        let mut view = Traffic::default();
        let phases = last.phases.len();
        view.add(
            &last.tags,
            last.total,
            phases,
            last.breakdown,
            last.sim_secs,
            1,
        );
        // Traffic is the last build's; kernel totals and wall time cover
        // every traced build. Both read per build.
        set_world_layers(
            out,
            &view,
            ledger.totals(),
            walls.iter().sum(),
            runs.len(),
            ranks,
            costs,
        );
        let updates: u64 = last.updates_per_iter.iter().sum();
        out.set("engine.iterations", last.iterations as f64);
        out.set("engine.evals", last.distance_evals as f64);
        out.set("engine.updates", updates as f64);
        out.set(
            "heap.accept_ratio",
            updates as f64 / last.distance_evals.max(1) as f64,
        );
    }
}

// ---------------------------------------------------------------- query

struct QueryInput {
    base: Arc<PointSet<Vec<f32>>>,
    graph: Arc<KnnGraph>,
    queries: Arc<PointSet<Vec<f32>>>,
    truth: GroundTruth,
}

fn query_input(n: usize, pool: usize, seed: u64) -> QueryInput {
    let (base, queries) = split_queries(presets::deep1b_like(n + pool, seed), pool);
    let (graph, _) = nnd::build(&base, &L2, NnDescentParams::new(K).seed(seed));
    let truth = brute_force_queries(&base, &queries, &L2, K);
    QueryInput {
        base: Arc::new(base),
        graph: Arc::new(graph.optimize(K, GRAPH_M)),
        queries: Arc::new(queries),
        truth,
    }
}

/// What rank 0 saw of one closed-loop session.
#[derive(Default)]
struct Session {
    /// Wall and modeled seconds per batch.
    lat: Vec<f64>,
    sim: Vec<f64>,
    /// `(pool index, answer)` per query, in issue order.
    answers: Vec<(usize, Vec<PointId>)>,
    profiles: Vec<QueryProfile>,
}

#[derive(Default)]
struct SessionRun {
    s: Session,
    wall: f64,
    /// Peak RSS of each world the session ran.
    peaks: Vec<f64>,
    /// Process CPU seconds per batch, per world.
    cpu_per_batch: Vec<f64>,
    traffic: Traffic,
}

impl SessionRun {
    /// Append a later part of the session.
    fn absorb(&mut self, o: SessionRun) {
        self.s.lat.extend(o.s.lat);
        self.s.sim.extend(o.s.sim);
        self.s.answers.extend(o.s.answers);
        self.s.profiles.extend(o.s.profiles);
        self.wall += o.wall;
        self.peaks.extend(o.peaks);
        self.cpu_per_batch.extend(o.cpu_per_batch);
        self.traffic.absorb(&o.traffic);
    }
}

/// Batches per world. Every world keeps a record per barrier phase (≈24
/// per batch), so one world for a whole run would grow memory with the
/// number of batches, and with it `peak_rss_mb` with the machine's speed.
const CHUNK: usize = 250;

/// One closed-loop client on rank 0: it issues the next batch only after
/// `SearchEngine::run_batch_profiled` returns the previous one, for
/// `seconds` and at least `min_batches` batches, in worlds of up to
/// `CHUNK` batches. Batch `b` asks the pool's queries from `(offset + b) *
/// BATCH` on. Rank 0 decides when to stop and tells rank 1 through an
/// all-reduce outside the timed region.
#[allow(clippy::too_many_arguments)]
fn query_session<M: BatchMetric<Vec<f32>>>(
    input: &QueryInput,
    metric: &M,
    seconds: f64,
    min_batches: usize,
    offset: usize,
    seed: u64,
    spans: &Spans,
    parent: u64,
) -> SessionRun {
    let pool = input.queries.len();
    let start = Instant::now();
    let mut run = SessionRun::default();
    while run.s.lat.len() < min_batches || start.elapsed().as_secs_f64() < seconds {
        let done = run.s.lat.len();
        let world_start = Instant::now();
        let ((mut report, cpu), peak) = with_peak(|| {
            cpu_timed(|| {
                spans.run("ygm::World::run", parent, |world_span| {
                    World::new(2).run(|comm| {
                        let engine = SearchEngine::new(
                            comm,
                            Arc::clone(&input.base),
                            Arc::clone(&input.graph),
                            metric.clone(),
                        );
                        let params = DistSearchParams::new(QUERY_L)
                            .entry_candidates(ENTRY)
                            .seed(seed);
                        let home = comm.rank() == 0;
                        let mut s = Session::default();
                        loop {
                            let total = done + s.lat.len();
                            let go = home
                                && s.lat.len() < CHUNK
                                && (total < min_batches || start.elapsed().as_secs_f64() < seconds);
                            if comm.all_reduce_sum_u64(go as u64) == 0 {
                                break;
                            }
                            let first = (offset + total) * BATCH;
                            let requests: Vec<(u64, Vec<f32>)> = if home {
                                (first..first + BATCH)
                                    .map(|a| {
                                        (
                                            a as u64,
                                            input.queries.point((a % pool) as PointId).clone(),
                                        )
                                    })
                                    .collect()
                            } else {
                                Vec::new()
                            };
                            let sim0 = comm.now_ns();
                            let t = Instant::now();
                            let (ids, profiles) = if home {
                                spans.run("SearchEngine::run_batch_profiled", world_span, |_| {
                                    engine.run_batch_profiled(comm, &requests, params)
                                })
                            } else {
                                engine.run_batch_profiled(comm, &requests, params)
                            };
                            if home {
                                s.lat.push(t.elapsed().as_secs_f64());
                                s.sim.push((comm.now_ns() - sim0) as f64 / 1e9);
                                s.answers.extend(
                                    ids.into_iter()
                                        .enumerate()
                                        .map(|(i, a)| ((first + i) % pool, a)),
                                );
                                s.profiles.extend(profiles);
                            }
                        }
                        s
                    })
                })
            })
        });
        let s = std::mem::take(&mut report.results[0]);
        let batches = s.lat.len();
        run.absorb(SessionRun {
            cpu_per_batch: vec![cpu / batches.max(1) as f64],
            peaks: vec![peak],
            traffic: Traffic::of_world(&report, batches),
            wall: world_start.elapsed().as_secs_f64(),
            s,
        });
    }
    run
}

/// Count the session's queries and check each answer: at least `K` ids,
/// and the mean recall@K over all of them meets the floor.
fn check_answers(run: &SessionRun, input: &QueryInput, out: &mut Outcome) -> f64 {
    let short = run.s.answers.iter().filter(|(_, a)| a.len() < K).count();
    out.tally(
        run.s.answers.len() as u64,
        short as u64,
        "queries (short answer)",
    );
    let sum: f64 = run
        .s
        .answers
        .iter()
        .map(|(q, a)| recall_single(&a[..a.len().min(K)], input.truth.neighbors(*q)))
        .sum();
    let recall = sum / run.s.answers.len().max(1) as f64;
    if recall < QUERY_RECALL_FLOOR {
        out.fail(format!(
            "query recall@{K} {recall:.4} below floor {QUERY_RECALL_FLOOR}"
        ));
    }
    recall
}

fn query(opts: &Opts, sz: &Sizes, costs: Option<&UnitCosts>, spans: &Spans, out: &mut Outcome) {
    let input = setup(sz.setup_reps, spans, out, || {
        query_input(sz.n, sz.query_pool, opts.seed)
    });
    let min_batches = if opts.smoke { 10 } else { 100 };
    let Some(costs) = costs else {
        let run = spans.run("op", 0, |id| {
            query_session(
                &input,
                &L2,
                opts.seconds,
                min_batches,
                0,
                opts.seed,
                spans,
                id,
            )
        });
        let recall = check_answers(&run, &input, out);
        out.set("op_wall_ms", median(&run.s.lat) * 1e3);
        out.set("op_cpu_ms", median(&run.cpu_per_batch) * 1e3);
        out.set("peak_rss_mb", median(&run.peaks));
        out.set("sim_ms", median(&run.s.sim) * 1e3);
        out.set("recall", recall);
        return;
    };

    // Traced: untraced and traced worlds of `min_batches` batches
    // alternate on the same queries, for twice the run's seconds so the
    // traced half has enough batches for a p99.
    let untraced = Spans::new(false);
    let ledger = KernelLedger::new();
    let timed_l2 = Timed::new(L2, Arc::clone(&ledger));
    let (mut reference, mut run) = (SessionRun::default(), SessionRun::default());
    repeat(2.0 * opts.seconds, 1, || {
        let offset = run.s.lat.len();
        let part = query_session(
            &input,
            &L2,
            0.0,
            min_batches,
            offset,
            opts.seed,
            &untraced,
            0,
        );
        reference.absorb(part);
        let part = spans.run("op", 0, |id| {
            query_session(
                &input,
                &timed_l2,
                0.0,
                min_batches,
                offset,
                opts.seed,
                spans,
                id,
            )
        });
        run.absorb(part);
    });
    check_answers(&reference, &input, out);
    let recall = check_answers(&run, &input, out);
    out.set("recall", recall);
    out.set(
        "trace.overhead",
        median(&run.s.lat) / median(&reference.s.lat),
    );

    set_world_layers(
        out,
        &run.traffic,
        ledger.totals(),
        run.wall,
        run.s.lat.len(),
        2,
        costs,
    );
    let queries = run.s.profiles.len().max(1) as f64;
    let mean =
        |f: fn(&QueryProfile) -> u64| run.s.profiles.iter().map(f).sum::<u64>() as f64 / queries;
    out.set("query.rounds", mean(|p| p.rounds));
    out.set("query.expansions", mean(|p| p.expansions));
    out.set("query.evals", mean(|p| p.dist_evals));
    out.set("query.tail_ratio", tail(&run.s.lat) / median(&run.s.lat));
}

// ---------------------------------------------------------------- vdb

struct VdbInput {
    base: PointSet<Vec<f32>>,
    pool: Arc<PointSet<Vec<f32>>>,
    meta: Vec<MetaRecord>,
    /// Tombstoned before serving, sorted.
    victims: Vec<PointId>,
    /// Arrivals per serving session.
    arrivals: usize,
}

fn vdb_input(n: usize, pool: usize, arrivals: usize, seed: u64) -> VdbInput {
    let (base, pool) = split_queries(presets::deep1b_like(n + pool, seed), pool);
    let meta = (0..n as u64)
        .map(|id| MetaRecord::bucket_record(seed, id))
        .collect();
    let mut victims = distinct_ids(n, (n as f64 * VICTIM_SHARE).ceil() as usize, seed ^ 0x7D1E);
    victims.sort_unstable();
    VdbInput {
        base,
        pool: Arc::new(pool),
        meta,
        victims,
        arrivals,
    }
}

fn serve_params(seed: u64, arrivals: usize) -> ServeParams {
    // The BENCH_10 serving point at k = 8.
    let batch = 4;
    let slot_ns = 1_000_000;
    ServeParams::new(VDB_K)
        .serve_seed(seed)
        .slot_ns(slot_ns)
        .offered_qps(batch as f64 * 1e9 / slot_ns as f64)
        .n_arrivals(arrivals)
        .hot_set(0.3, 8)
        .batch(batch)
        .flush_age_slots(2)
        .deadline_slots(6)
        .watermarks(8, 20)
        .cache(16, 1e-3)
        .workload_str(CHURN_SPEC)
}

fn serve_config() -> VdbServeConfig {
    VdbServeConfig {
        compact_watermark: COMPACT_WATERMARK,
        ..VdbServeConfig::default()
    }
}

/// Create the collection and tombstone the victims.
fn create_collection(opts: &Opts, input: &VdbInput) -> Result<Collection, String> {
    let mut c = Collection::create(
        NAMESPACE,
        input.base.clone(),
        input.meta.clone(),
        "l2",
        VDB_K,
        opts.seed,
    )?;
    c.delete(&input.victims)?;
    Ok(c)
}

/// Check one serving session: the offered arrivals partition into
/// answered, cache hits and shed; every answer is non-empty and holds only
/// known, never-tombstoned ids, and a filtered query's only ids inside its
/// predicate's bucket range (`meta` is the collection after serving,
/// inserted points included). Two documented behaviours return fewer than
/// `VDB_K` ids: a mask that admits fewer reachable ids
/// (`run_batch_masked`), and a cache hit whose ids a later delete stripped
/// (`cache_suppressed`). So unfiltered answers may miss at most as many
/// ids in all as were suppressed. Shed arrivals and bad answers count as
/// failed. `victims` is sorted. Returns the number of short answers.
fn check_served(
    outcome: &ServeOutcome,
    params: &ServeParams,
    victims: &[PointId],
    meta: &[MetaRecord],
    out: &mut Outcome,
) -> u64 {
    let s = &outcome.stats;
    let shed = s.shed_deadline + s.shed_overload;
    if s.offered != s.answered + s.cache_hits + shed {
        out.fail(format!(
            "offered {} != answered {} + cache hits {} + shed {shed}",
            s.offered, s.answered, s.cache_hits
        ));
    }
    if outcome.answers.len() as u64 != s.total_answered() {
        out.fail(format!(
            "{} answers for {} answered queries",
            outcome.answers.len(),
            s.total_answered()
        ));
    }
    let width = params.workload.filter.map_or(FILTER_BUCKETS, |f| f.width());
    let bucket = |v: PointId| match meta.get(v as usize).and_then(|m| m.get("bucket")) {
        Some(Value::Int(b)) => Some(*b as u64),
        _ => None,
    };
    let (mut bad, mut short, mut missing_unfiltered) = (0u64, 0u64, 0usize);
    for (idx, _, ids) in &outcome.answers {
        let range = params
            .workload
            .filter_bucket_of(params.serve_seed, *idx)
            .map(|lo| lo..lo + width);
        let outside = range.as_ref().and_then(|r| {
            ids.iter()
                .find(|&&v| !bucket(v).is_some_and(|b| r.contains(&b)))
        });
        let problem = if ids.is_empty() {
            Some("an empty answer".to_string())
        } else if let Some(v) = ids
            .iter()
            .find(|&&v| victims.binary_search(&v).is_ok() || v as usize >= meta.len())
        {
            Some(format!("tombstoned or unknown id {v}"))
        } else {
            outside.map(|v| format!("id {v} outside its filter"))
        };
        if let Some(p) = problem {
            bad += 1;
            out.problems.push(format!("arrival {idx}: {p}"));
        } else if ids.len() < VDB_K {
            short += 1;
            if range.is_none() {
                missing_unfiltered += VDB_K - ids.len();
            }
        }
    }
    out.tally(
        s.offered,
        bad + shed,
        &format!("served arrivals ({shed} shed)"),
    );
    let suppressed = s.vdb.as_ref().map_or(0, |v| v.cache_suppressed);
    if missing_unfiltered as u64 > suppressed {
        out.fail(format!("unfiltered answers miss {missing_unfiltered} ids, only {suppressed} were stripped from cache hits"));
    }
    short
}

/// One timed churn cycle, in memory: create the collection, then serve
/// the churn scenario on 1 rank through `serve_vdb_on_comm` with
/// `serve_seed` drawing the arrival, filter and mutation schedule.
struct Cycle {
    create: f64,
    serve: f64,
    cpu: f64,
    recall: f64,
    peak: f64,
    stats: ServingStats,
    short: u64,
    traffic: Traffic,
}

fn churn_cycle<M: BatchMetric<Vec<f32>>>(
    opts: &Opts,
    input: &VdbInput,
    serve_seed: u64,
    metric: &M,
    spans: &Spans,
    parent: u64,
    out: &mut Outcome,
) -> Result<Cycle, String> {
    out.attempted += 1;
    let cpu0 = process_cpu_secs()?;
    let (collection, create) = timed(|| {
        spans.run("vdb::Collection::create", parent, |_| {
            create_collection(opts, input)
        })
    });
    let collection = collection?;
    let (params, cfg) = (serve_params(serve_seed, input.arrivals), serve_config());
    let ((mut report, serve), peak) = with_peak(|| {
        timed(|| {
            spans.run("serve::serve_vdb_on_comm", parent, |_| {
                World::new(opts.workload.ranks()).run(|comm| {
                    serve::serve_vdb_on_comm(
                        comm,
                        collection.clone(),
                        &input.pool,
                        metric,
                        &params,
                        &cfg,
                    )
                })
            })
        })
    });
    let cpu = process_cpu_secs()? - cpu0;
    let (outcome, after) = report.results.swap_remove(0);
    let short = check_served(&outcome, &params, &input.victims, &after.meta, out);
    let recall = live_recall(&after, opts.seed);
    if recall < VDB_RECALL_FLOOR {
        out.fail(format!(
            "churned graph recall@{VDB_K} {recall:.4} below floor {VDB_RECALL_FLOOR}"
        ));
    }
    Ok(Cycle {
        create,
        serve,
        cpu,
        recall,
        peak,
        stats: outcome.stats,
        short,
        traffic: Traffic::of_world(&report, 1),
    })
}

/// The persistence round trip of the traced run: create, save into a
/// fresh store, `run_serve_vdb` (rank 0 saves the churned collection
/// back), reopen. Store write traffic is read from `/proc/self/io`.
/// Checks that the reopened collection's stat equals the served one.
fn persist_round_trip(
    opts: &Opts,
    input: &VdbInput,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = opts.work_dir.join("vdb-store");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    spans.run("persist", 0, |parent| {
        out.attempted += 4;
        let io0 = Io::now()?;
        let (c, create) = timed(|| {
            spans.run("vdb::Collection::create", parent, |_| {
                create_collection(opts, input)
            })
        });
        let c = c?;
        let (store, save) = timed(|| {
            spans.run("vdb::Collection::save", parent, |_| {
                let mut store =
                    metall::Store::create(&dir).map_err(|e| format!("create store: {e}"))?;
                c.save(&mut store)?;
                Ok::<_, String>(store)
            })
        });
        let store = store?;
        let save_io = Io::now()?.since(io0);
        let (objects, live_bytes) = (store.len(), store.total_bytes());
        drop(store);
        let (params, cfg) = (serve_params(opts.seed, input.arrivals), serve_config());
        let (served, serve) = timed(|| {
            spans.run("serve::run_serve_vdb", parent, |_| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_serve_vdb(
                        &World::new(opts.workload.ranks()),
                        &dir,
                        NAMESPACE,
                        &input.pool,
                        &L2,
                        &params,
                        &cfg,
                    )
                }))
            })
        });
        let (outcome, stat, _) = served.map_err(|_| "run_serve_vdb panicked".to_string())?;
        let (reopened, reopen) = timed(|| {
            spans.run("vdb::Collection::open", parent, |_| {
                let store = metall::Store::open(&dir).map_err(|e| format!("open store: {e}"))?;
                Collection::open(&store, NAMESPACE)
            })
        });
        let reopened = reopened?;
        let all_io = Io::now()?.since(io0);
        let _ = std::fs::remove_dir_all(&dir);

        if reopened.stat() != stat {
            out.fail(format!(
                "reopened stat {:?} differs from the served {:?}",
                reopened.stat(),
                stat
            ));
        }
        check_served(&outcome, &params, &input.victims, &reopened.meta, out);
        let wall = create + save + serve + reopen;
        out.set("vdb.create_share", create / wall);
        out.set("vdb.save_share", save / wall);
        out.set("vdb.serve_share", serve / wall);
        out.set("vdb.reopen_share", reopen / wall);
        out.set("store.objects", objects as f64);
        out.set("store.live_bytes", live_bytes as f64);
        out.set("store.wchar_bytes", all_io.wchar as f64);
        out.set("store.syscw", all_io.syscw as f64);
        out.set(
            "store.write_amp",
            save_io.wchar as f64 / live_bytes.max(1) as f64,
        );
        Ok(())
    })
}

/// Recall@`VDB_K` of the collection's graph over live points: for a
/// sample of live vertices, the first live ids of each row against the
/// exact nearest live neighbors.
fn live_recall(c: &Collection, seed: u64) -> f64 {
    let live: Vec<PointId> = (0..c.base.len() as PointId)
        .filter(|&id| c.is_live(id))
        .collect();
    let sample = sample_ids(live.len(), 100, seed ^ 0x11FE);
    let sum: f64 = sample
        .iter()
        .map(|&i| {
            let v = live[i as usize];
            let q = c.base.point(v);
            let mut exact: Vec<(f32, PointId)> = live
                .iter()
                .filter(|&&u| u != v)
                .map(|&u| (L2.distance(q, c.base.point(u)), u))
                .collect();
            exact.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let truth: Vec<PointId> = exact.iter().take(VDB_K).map(|&(_, u)| u).collect();
            let row: Vec<PointId> = c
                .graph
                .neighbors(v)
                .iter()
                .map(|&(u, _)| u)
                .filter(|&u| c.is_live(u))
                .take(VDB_K)
                .collect();
            recall_single(&row, &truth)
        })
        .sum();
    sum / sample.len() as f64
}

fn churn(opts: &Opts, sz: &Sizes, costs: Option<&UnitCosts>, spans: &Spans, out: &mut Outcome) {
    let input = setup(sz.setup_reps, spans, out, || {
        vdb_input(sz.vdb_n, sz.vdb_pool, sz.arrivals, opts.seed)
    });
    let untraced = Spans::new(false);
    let ledger = KernelLedger::new();
    let timed_l2 = Timed::new(L2, Arc::clone(&ledger));
    // Each cycle serves its own schedule, so the run's medians cover
    // several arrival, filter and mutation sequences. A traced run
    // precedes each traced cycle with an untraced one on the same schedule.
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut reference: Vec<f64> = Vec::new();
    let mut tried = 0u64;
    repeat(opts.seconds, if opts.trace { 1 } else { 3 }, || {
        tried += 1;
        let serve_seed = opts.seed + tried;
        if opts.trace {
            match churn_cycle(opts, &input, serve_seed, &L2, &untraced, 0, out) {
                Ok(c) => reference.push(c.create + c.serve),
                Err(e) => out.fail(e),
            }
        }
        let cycle = spans.run("op", 0, |id| {
            if opts.trace {
                churn_cycle(opts, &input, serve_seed, &timed_l2, spans, id, out)
            } else {
                churn_cycle(opts, &input, serve_seed, &L2, spans, id, out)
            }
        });
        match cycle {
            Ok(c) => cycles.push(c),
            Err(e) => out.fail(e),
        }
    });
    if cycles.is_empty() {
        return; // every cycle failed; the result line reports it
    }
    let walls: Vec<f64> = cycles.iter().map(|c| c.create + c.serve).collect();
    let sims: Vec<f64> = cycles.iter().map(|c| c.traffic.sim_secs).collect();
    let recalls: Vec<f64> = cycles.iter().map(|c| c.recall).collect();
    let peaks: Vec<f64> = cycles.iter().map(|c| c.peak).collect();
    let cpus: Vec<f64> = cycles.iter().map(|c| c.cpu).collect();
    out.set("op_wall_ms", median(&walls) * 1e3);
    out.set("op_cpu_ms", median(&cpus) * 1e3);
    out.set("peak_rss_mb", median(&peaks));
    out.set("sim_ms", median(&sims) * 1e3);
    out.set("recall", median(&recalls));

    let Some(costs) = costs.filter(|_| !reference.is_empty()) else {
        return;
    };
    out.set("trace.overhead", median(&walls) / median(&reference));
    let c = cycles.last().expect("at least one cycle");
    let s = &c.stats;
    out.set("serve.answered", s.answered as f64);
    out.set("serve.cache_hits", s.cache_hits as f64);
    out.set("serve.shed", (s.shed_deadline + s.shed_overload) as f64);
    out.set("serve.short", c.short as f64);
    if let Some(v) = &s.vdb {
        out.set("vdb.filtered", v.filtered as f64);
        out.set("vdb.inserts", v.inserts as f64);
        out.set("vdb.deletes", v.deletes as f64);
        out.set("vdb.compactions", v.compactions as f64);
    }
    // Kernel time is all in the serving sessions; compare it with their wall.
    let serve_wall: f64 = cycles.iter().map(|c| c.serve).sum();
    set_world_layers(
        out,
        &c.traffic,
        ledger.totals(),
        serve_wall,
        cycles.len(),
        opts.workload.ranks(),
        costs,
    );
    if let Err(e) = persist_round_trip(opts, &input, spans, out) {
        out.fail(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke-size serving session: its input, outcome, parameters and
    /// the collection after serving.
    fn served() -> (VdbInput, ServeOutcome, ServeParams, Collection) {
        let sz = Sizes::new(true);
        let opts = Opts {
            workload: Workload::VdbChurn,
            seed: 9,
            seconds: 0.0,
            trace: false,
            smoke: true,
            work_dir: PathBuf::new(),
        };
        let input = vdb_input(sz.vdb_n, sz.vdb_pool, sz.arrivals, opts.seed);
        let c = create_collection(&opts, &input).expect("create the collection");
        let (params, cfg) = (serve_params(opts.seed, input.arrivals), serve_config());
        let mut report = World::new(2)
            .run(|comm| serve::serve_vdb_on_comm(comm, c.clone(), &input.pool, &L2, &params, &cfg));
        let (outcome, after) = report.results.swap_remove(0);
        (input, outcome, params, after)
    }

    #[test]
    fn check_served_fails_leaked_unknown_and_unfiltered_ids_and_lost_arrivals() {
        let (input, outcome, params, after) = served();
        let failed = |o: &ServeOutcome| {
            let mut out = Outcome::default();
            check_served(o, &params, &input.victims, &after.meta, &mut out);
            out.failed
        };
        assert_eq!(input.victims.len(), 10, "5% of the smoke collection");
        assert_eq!(failed(&outcome), 0, "the real session passes");

        let mut leaked = outcome.clone();
        leaked.answers[0].2[0] = input.victims[input.victims.len() / 2];
        assert_eq!(failed(&leaked), 1, "a tombstoned id in an answer");

        let mut unknown = outcome.clone();
        unknown.answers[0].2[0] = after.meta.len() as PointId;
        assert_eq!(failed(&unknown), 1, "an id past the collection");

        // A live id from another bucket in a filtered answer.
        let width = params
            .workload
            .filter
            .expect("the churn spec filters")
            .width();
        let (i, lo) = outcome
            .answers
            .iter()
            .enumerate()
            .find_map(|(i, a)| Some((i, params.workload.filter_bucket_of(params.serve_seed, a.0)?)))
            .expect("a filtered answer");
        let stray = (0..after.meta.len() as PointId)
            .find(|&v| {
                after.is_live(v)
                    && matches!(after.meta[v as usize].get("bucket"),
                        Some(Value::Int(b)) if !(lo..lo + width).contains(&(*b as u64)))
            })
            .expect("a live id outside the filter");
        let mut escaped = outcome.clone();
        escaped.answers[i].2[0] = stray;
        assert_eq!(failed(&escaped), 1, "an id outside its filter");

        let mut lost = outcome.clone();
        lost.stats.offered += 1;
        assert!(failed(&lost) > 0, "an offered arrival nobody accounts for");
    }
}
