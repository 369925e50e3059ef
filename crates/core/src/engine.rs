//! The distributed NN-Descent engine.
//!
//! One SPMD `rank_main` runs per simulated rank inside a [`ygm::World`].
//! Phases, mirroring Section 4:
//!
//! 1. **Initialization** — every rank seeds its owned vertices' heaps with
//!    `K` random candidates; distances to remote candidates are computed by
//!    shipping the vector to the candidate's owner and receiving the
//!    distance back (the Section 4.1 example RPC chain).
//! 2. **Descent iterations** — local old/new sampling, the reverse-neighbor
//!    exchange with shuffled destinations (4.2), then the neighbor checks
//!    under either the unoptimized (Figure 1a) or optimized (Figure 1b:
//!    Type 1 / Type 2+ / Type 3) protocol (4.3), issued in globally
//!    coordinated batches separated by barriers (4.4). Termination when the
//!    all-reduced update count drops below `delta * K * N`.
//!
//! Since the batched distance-kernel rework, checks travel as **join rows**
//! — `(head, [partners...])` — instead of single pairs: each rank groups a
//! head's partners by destination rank, ships the head's vector once per
//! destination, and the receiver evaluates the whole row with one batched
//! [`BatchMetric::distance_one_to_many`] call against its cached norms.
//! Because the batched kernels are bit-identical to the scalar reference
//! per element, the delivered pair multiset (and therefore the final graph
//! under the unoptimized protocol) is unchanged by the batching.
//! 3. **Graph optimization** (optional, 4.5) — reverse edges are shipped to
//!    their endpoint's owner, merged, deduplicated, and pruned to
//!    `ceil(K * m)` neighbors.

use crate::config::DnndConfig;
use crate::msgs::*;
use crate::partition::Partitioner;
use crate::rnn_dist::{register_rnn_handlers, run_rnn_rounds, RnnDistState};
use dataset::batch::{BatchMetric, NormCache};
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use nnd::graph::{Edge, KnnGraph};
use nnd::heap::NeighborHeap;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use ygm::{ClockBreakdown, Comm, PhaseRecord, TagStats, TrafficMatrix, World};

/// Everything `build` reports besides the graph itself.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Ranks the world simulated.
    pub n_ranks: usize,
    /// Descent iterations executed.
    pub iterations: usize,
    /// Global update count (`c`) per iteration: the number of neighbor-heap
    /// members added during the iteration that survived to its end. Counting
    /// survivors (end-of-iteration set difference) instead of transient
    /// insert successes makes the value — and therefore the `delta * K * N`
    /// termination decision — independent of message-arrival order, so runs
    /// under the unoptimized protocol replay bit-identically.
    pub updates_per_iter: Vec<u64>,
    /// Total distance evaluations across all ranks.
    pub distance_evals: u64,
    /// Virtual (simulated cluster) construction time, seconds.
    pub sim_secs: f64,
    /// Virtual construction time in exact nanoseconds (final clock reading);
    /// the critical-path analyzer attributes collective time from this.
    pub sim_ns: u64,
    /// Compute / communication / barrier decomposition of `sim_secs` — the
    /// profiling view the paper's Section 7 asks for.
    pub breakdown: ClockBreakdown,
    /// Per-phase (barrier-to-barrier) virtual-time records.
    pub phases: Vec<PhaseRecord>,
    /// Real wall-clock time of the whole simulated run, seconds.
    pub wall_secs: f64,
    /// Per-tag message statistics (Figure 4's raw data).
    pub tags: Vec<(u16, String, TagStats)>,
    /// Totals over all tags.
    pub total: TagStats,
    /// Rank×rank×tag traffic matrix (diagonal = rank-local sends).
    pub matrix: TrafficMatrix,
    /// Injected-fault / reliable-delivery counters when the world ran under
    /// a [`ygm::FaultPlan`]; `None` on fault-free runs.
    pub faults: Option<ygm::FaultReport>,
    /// Per-round RNN-Descent counters when the build ran with
    /// [`crate::config::DnndConfig::rnn_opt`]; global (all-reduced) values,
    /// bit-identical across rank counts.
    pub rnn: Option<nnd::rnn::RnnStats>,
}

impl BuildReport {
    /// Stats for one tag (zero if unused).
    pub fn tag(&self, tag: u16) -> TagStats {
        self.tags
            .iter()
            .find(|(t, _, _)| *t == tag)
            .map(|(_, _, s)| *s)
            .unwrap_or_default()
    }

    /// Combined count/bytes of the neighbor-check messages only (Type 1, 2,
    /// 2+, 3) — the paper's Figure 4 scope.
    pub fn check_traffic(&self) -> TagStats {
        let mut out = TagStats::default();
        for t in [TAG_TYPE1, TAG_TYPE2, TAG_TYPE2_PLUS, TAG_TYPE3] {
            let s = self.tag(t);
            out.count += s.count;
            out.bytes += s.bytes;
            out.remote_count += s.remote_count;
            out.remote_bytes += s.remote_bytes;
        }
        out
    }
}

/// The result of a distributed construction.
#[derive(Debug, Clone)]
pub struct DnndOutput {
    /// The assembled k-NNG (optimized if `graph_opt_m` was set).
    pub graph: KnnGraph,
    /// Run metrics.
    pub report: BuildReport,
}

/// Dense numbering of one rank's owned vertices: `owned[i]` has local
/// offset `i`. The partition is a pure function of the id, so the table is
/// built once from `owned` and every per-vertex array below is a `Vec`
/// indexed by offset instead of a map keyed by id.
struct LocalIndex {
    /// Offset by global id; [`LocalIndex::NOT_OWNED`] for other ranks' ids.
    offset: Vec<u32>,
}

impl LocalIndex {
    const NOT_OWNED: u32 = u32::MAX;

    fn new(owned: &[PointId], n: usize) -> Self {
        let mut offset = vec![Self::NOT_OWNED; n];
        for (i, &v) in owned.iter().enumerate() {
            offset[v as usize] = i as u32;
        }
        LocalIndex { offset }
    }

    /// The local offset of `v`, if this rank owns it.
    #[inline]
    fn get(&self, v: PointId) -> Option<usize> {
        match self.offset.get(v as usize) {
            Some(&o) if o != Self::NOT_OWNED => Some(o as usize),
            _ => None,
        }
    }

    /// The local offset of `v`, which this rank must own.
    #[inline]
    fn at(&self, v: PointId) -> usize {
        self.get(v)
            .unwrap_or_else(|| panic!("vertex {v} is not owned by this rank"))
    }
}

/// Per-rank mutable state shared between the SPMD main loop and the
/// message handlers (single-threaded within a rank, hence `Rc<RefCell>`).
/// Every per-vertex `Vec` is indexed by [`LocalIndex`] offset.
struct State {
    index: LocalIndex,
    heaps: Vec<NeighborHeap>,
    /// Reverse neighbors received this iteration, sampled-new and old.
    rev_new: Vec<Vec<PointId>>,
    rev_old: Vec<Vec<PointId>>,
    /// Reverse edges received during the graph-optimization phase.
    opt_extra: Vec<Vec<Edge>>,
    /// Heap-insert attempts this iteration (denominator of the accept
    /// rate histogram).
    attempts: u64,
    /// Distance evaluations performed on this rank.
    dist_evals: u64,
    /// Batched kernel invocations on this rank (each covering one or more
    /// distance evaluations); `dist_evals / kernel_batches` is the mean
    /// batch width the telemetry gauge reports.
    kernel_batches: u64,
    /// Distance evaluations attributed per owned vertex; counted only
    /// when the world has a tracer attached.
    dist_by_vertex: Vec<u64>,
}

impl State {
    fn new(owned: &[PointId], n: usize, k: usize) -> Self {
        let m = owned.len();
        State {
            index: LocalIndex::new(owned, n),
            heaps: (0..m).map(|_| NeighborHeap::new(k)).collect(),
            rev_new: vec![Vec::new(); m],
            rev_old: vec![Vec::new(); m],
            opt_extra: vec![Vec::new(); m],
            attempts: 0,
            dist_evals: 0,
            kernel_batches: 0,
            dist_by_vertex: vec![0; m],
        }
    }

    /// The heap of `v`, if this rank owns it.
    #[inline]
    fn heap_mut(&mut self, v: PointId) -> Option<&mut NeighborHeap> {
        self.index.get(v).map(|i| &mut self.heaps[i])
    }

    /// The heap of `v`, which this rank must own.
    #[inline]
    fn heap(&self, v: PointId) -> &NeighborHeap {
        &self.heaps[self.index.at(v)]
    }

    /// Count one distance evaluation for `v`'s benefit (tracing only).
    fn trace_dist(&mut self, traced: bool, v: PointId) {
        if traced {
            if let Some(i) = self.index.get(v) {
                self.dist_by_vertex[i] += 1;
            }
        }
    }

    /// Account one batched kernel call covering `n` evaluations.
    fn record_batch(&mut self, n: usize) {
        self.dist_evals += n as u64;
        self.kernel_batches += 1;
    }
}

/// Charge the virtual compute cost of `n` distance evaluations at once.
pub(crate) fn charge_batch(comm: &Comm, dim: usize, n: usize) {
    comm.charge_compute(comm.cost().distance_cost_ns(dim) * n as u64);
}

/// Split candidate ids into (locally owned, per-remote-rank groups in
/// first-seen destination order) — one message per remote group.
pub(crate) fn group_by_owner(
    part: Partitioner,
    my_rank: usize,
    ids: &[PointId],
) -> (Vec<PointId>, Vec<(usize, Vec<PointId>)>) {
    let mut local = Vec::new();
    let mut remote: Vec<(usize, Vec<PointId>)> = Vec::new();
    for &u in ids {
        let dest = part.owner(u);
        if dest == my_rank {
            local.push(u);
        } else {
            match remote.iter_mut().find(|(r, _)| *r == dest) {
                Some((_, g)) => g.push(u),
                None => remote.push((dest, vec![u])),
            }
        }
    }
    (local, remote)
}

/// Build a k-NNG over `set` using `world.n_ranks()` simulated ranks.
///
/// `set` is shared read-only with every rank (in a real deployment each
/// rank holds only its partition; handlers here only ever read vectors the
/// owning rank would hold or that arrived inside a message).
pub fn build<P, M>(world: &World, set: &Arc<PointSet<P>>, metric: &M, cfg: DnndConfig) -> DnndOutput
where
    P: Point,
    M: BatchMetric<P>,
{
    assert!(set.len() >= 2, "need at least two points");
    assert!(cfg.k >= 1 && cfg.k < set.len(), "require 1 <= k < N");
    let report = world.run(|comm| rank_main(comm, Arc::clone(set), metric.clone(), cfg));

    // Assemble the distributed rows into one graph (driver-side; the paper
    // would instead leave the graph partitioned in Metall).
    let mut rows: Vec<Vec<Edge>> = vec![Vec::new(); set.len()];
    let mut iterations = 0;
    let mut updates_per_iter = Vec::new();
    let mut distance_evals = 0;
    let mut rnn = None;
    for (rank_rows, metrics) in &report.results {
        for (v, edges) in rank_rows {
            rows[*v as usize] = edges.clone();
        }
        iterations = metrics.iterations;
        updates_per_iter.clone_from(&metrics.updates_per_iter);
        distance_evals += metrics.dist_evals;
        // Global stats are identical on every rank; any copy will do.
        rnn = metrics.rnn.clone().or(rnn);
    }
    // RNN mode: connectivity repair on the assembled rows (pure function
    // of the capped graph — same step the standalone passes run).
    if let (Some(rp), Some(stats)) = (cfg.rnn_opt, rnn.as_mut()) {
        stats.repaired = nnd::rnn::repair_connectivity(&mut rows, rp.k0);
    }
    DnndOutput {
        graph: KnnGraph::from_rows(rows),
        report: BuildReport {
            n_ranks: world.n_ranks(),
            iterations,
            updates_per_iter,
            distance_evals,
            sim_secs: report.sim_secs,
            sim_ns: report.sim_ns,
            breakdown: report.breakdown,
            phases: report.phases,
            wall_secs: report.wall_secs,
            tags: report.tags,
            total: report.total,
            matrix: report.matrix,
            faults: report.faults,
            rnn,
        },
    }
}

/// Per-rank return payload.
#[derive(Debug, Clone)]
struct RankMetrics {
    iterations: usize,
    updates_per_iter: Vec<u64>,
    dist_evals: u64,
    rnn: Option<nnd::rnn::RnnStats>,
}

type RankRows = Vec<(PointId, Vec<Edge>)>;

fn rank_main<P, M>(
    comm: &Comm,
    set: Arc<PointSet<P>>,
    metric: M,
    cfg: DnndConfig,
) -> (RankRows, RankMetrics)
where
    P: Point,
    M: BatchMetric<P>,
{
    let part = Partitioner::new(comm.n_ranks());
    let n = set.len();
    let dim = set.dim().max(1);
    let owned = part.owned_ids(n, comm.rank());
    let st = Rc::new(RefCell::new(State::new(&owned, n, cfg.k)));
    // Per-set norm cache (Section "cached-norm preprocessing"): each rank
    // computes the squared norms once up front so every dot-form distance
    // afterwards skips both norm recomputations. A real deployment would
    // compute only its partition; the virtual clock charges accordingly.
    let cache = Arc::new(metric.preprocess(&set));
    charge_batch(comm, dim, owned.len());
    register_handlers(comm, &st, &set, &metric, &cache, part, cfg, dim);
    // RNN-Descent optimization state (phase 3); handlers share the world
    // with the descent's (tags 19-23 vs 10-18).
    let rnn_st = Rc::new(RefCell::new(RnnDistState::new()));
    if cfg.rnn_opt.is_some() {
        register_rnn_handlers(comm, &rnn_st, &set, &metric, &cache, part, dim);
    }
    let traced = comm.tracer().is_some();

    // ---- Phase 1: random initialization ------------------------------------
    comm.trace_begin("init");
    let quota = (cfg.batch_size / comm.n_ranks() as u64).max(1) as usize;
    batched(comm, owned.len(), quota.max(1), |i| {
        let v = owned[i];
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ (u64::from(v) << 20));
        let mut chosen: Vec<PointId> = Vec::with_capacity(cfg.k);
        let mut guard = 0;
        while chosen.len() < cfg.k && guard < 100 * cfg.k {
            let u: PointId = rng.gen_range(0..n as PointId);
            if u != v && !chosen.contains(&u) {
                chosen.push(u);
            }
            guard += 1;
        }
        let (local, remote) = group_by_owner(part, comm.rank(), &chosen);
        if !local.is_empty() {
            // Local candidates: one batched 1xN evaluation.
            let mut dbuf = Vec::with_capacity(local.len());
            metric.distance_one_to_many(set.point(v), &set, &cache, &local, &mut dbuf);
            charge_batch(comm, dim, local.len());
            comm.trace_hist("kernel_batch_len", local.len() as u64);
            let mut s = st.borrow_mut();
            s.record_batch(local.len());
            for (&u, &d) in local.iter().zip(&dbuf) {
                s.trace_dist(traced, v);
                s.attempts += 1;
                if let Some(h) = s.heap_mut(v) {
                    h.checked_insert(u, d, true);
                }
            }
        }
        for (dest, us) in remote {
            comm.async_send(
                dest,
                TAG_INIT_REQ,
                &InitReq {
                    v,
                    us,
                    vec: set.point(v).clone(),
                },
            );
        }
    });
    comm.trace_end("init");

    // ---- Phase 2: descent iterations ----------------------------------------
    let max_sample = ((cfg.rho * cfg.k as f64).round() as usize).max(1);
    let threshold = ((cfg.delta * cfg.k as f64 * n as f64) as u64).max(1);
    let mut iterations = 0;
    let mut updates_per_iter = Vec::new();

    for iter in 0..cfg.max_iters {
        comm.trace_begin_arg("iteration", iter as u64);
        // Snapshot each owned heap's membership: the iteration's update
        // count `c` is the number of ids present at iteration end but not
        // here. Unlike counting `checked_insert` successes (which tallies
        // transient entrants that a later, closer candidate evicts), the
        // set difference is a pure function of the delivered message
        // multiset — message-arrival order cannot flip the termination
        // decision. This and the per-vertex lists below are indexed by
        // local offset, like `State`'s.
        let start_ids: Vec<Vec<PointId>> = {
            let mut s = st.borrow_mut();
            s.attempts = 0;
            s.rev_new.iter_mut().for_each(Vec::clear);
            s.rev_old.iter_mut().for_each(Vec::clear);
            s.heaps
                .iter()
                .map(|heap| {
                    let mut ids: Vec<PointId> = heap.iter().map(|n| n.id).collect();
                    ids.sort_unstable();
                    ids
                })
                .collect()
        };

        // 2a. Local sampling: split each owned vertex's heap into old ids
        // and a rho*K sample of new ids (flipped to old).
        comm.trace_begin("sample");
        let mut fwd_old: Vec<Vec<PointId>> = Vec::with_capacity(owned.len());
        let mut fwd_new: Vec<Vec<PointId>> = Vec::with_capacity(owned.len());
        {
            let mut s = st.borrow_mut();
            for (&v, heap) in owned.iter().zip(s.heaps.iter_mut()) {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    cfg.seed ^ 0xA11CE ^ (u64::from(v) << 18) ^ (iter as u64),
                );
                // The heap's array layout depends on the order updates
                // arrived, which is scheduling-dependent; sort both id
                // lists so the sample below is deterministic in seed.
                let mut old = heap.flagged_ids(false);
                old.sort_unstable();
                let mut candidates = heap.flagged_ids(true);
                candidates.sort_unstable();
                candidates.shuffle(&mut rng);
                candidates.truncate(max_sample);
                for &u in &candidates {
                    heap.mark_old(u);
                }
                fwd_old.push(old);
                fwd_new.push(candidates);
            }
        }

        comm.trace_end("sample");

        // 2b. Reverse-neighbor exchange (Section 4.2): ship (u, v) to
        // owner(u). Destination order is shuffled to spread load.
        comm.trace_begin("reverse_exchange");
        // Shuffling offsets permutes exactly as shuffling the ids would.
        let mut order: Vec<usize> = (0..owned.len()).collect();
        if cfg.shuffle_reverse {
            let mut rng = ChaCha8Rng::seed_from_u64(
                cfg.seed ^ 0x5F0F ^ (iter as u64) ^ ((comm.rank() as u64) << 32),
            );
            order.shuffle(&mut rng);
        }
        batched(comm, order.len(), quota, |i| {
            let (o, v) = (order[i], owned[order[i]]);
            for &u in &fwd_new[o] {
                comm.async_send(part.owner(u), TAG_REV_NEW, &(u, v));
            }
            for &u in &fwd_old[o] {
                comm.async_send(part.owner(u), TAG_REV_OLD, &(u, v));
            }
        });

        comm.trace_end("reverse_exchange");

        // 2c. Sample rho*K of each received reverse list and union into the
        // forward lists (Algorithm 1 lines 15-16).
        comm.trace_begin("union_sample");
        {
            let s = &mut *st.borrow_mut();
            for (o, &v) in owned.iter().enumerate() {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    cfg.seed ^ 0xBEE ^ (u64::from(v) << 18) ^ (iter as u64),
                );
                let mut union_sample = |fwd: &mut Vec<PointId>, rev: &mut Vec<PointId>| {
                    // The reverse lists arrive in scheduling-dependent order;
                    // canonicalize so the sample is deterministic in seed.
                    rev.sort_unstable();
                    rev.shuffle(&mut rng);
                    rev.truncate(max_sample);
                    for &u in rev.iter() {
                        if u != v && !fwd.contains(&u) {
                            fwd.push(u);
                        }
                    }
                };
                union_sample(&mut fwd_new[o], &mut s.rev_new[o]);
                union_sample(&mut fwd_old[o], &mut s.rev_old[o]);
            }
        }

        comm.trace_end("union_sample");

        // 2d. Generate the neighbor-check join rows for this rank's
        // vertices: one forward row `(u1, [u2...])` per sampled-new head,
        // plus (two-sided protocol only) the mirror rows `(u2, [u1...])`
        // grouped per mirror head in first-seen order. A row is the unit
        // of batched evaluation at the receiver.
        comm.trace_begin("gen_pairs");
        let mut joins: Vec<Type1> = Vec::new();
        let mut n_pairs: u64 = 0;
        for (news, olds) in fwd_new.iter().zip(&fwd_old) {
            let fwd_start = joins.len();
            for (i, &u1) in news.iter().enumerate() {
                let tails: Vec<PointId> = news[i + 1..]
                    .iter()
                    .chain(olds.iter())
                    .copied()
                    .filter(|&u2| u2 != u1)
                    .collect();
                if !tails.is_empty() {
                    n_pairs += tails.len() as u64;
                    joins.push((u1, tails));
                }
            }
            if !cfg.opts.one_sided {
                let mut mirrors: Vec<Type1> = Vec::new();
                for (u1, tails) in &joins[fwd_start..] {
                    for &u2 in tails {
                        match mirrors.iter_mut().find(|(h, _)| *h == u2) {
                            Some((_, g)) => g.push(*u1),
                            None => mirrors.push((u2, vec![*u1])),
                        }
                    }
                }
                joins.extend(mirrors);
            }
        }

        comm.trace_end("gen_pairs");
        comm.trace_hist("check_pairs_per_iter", n_pairs);

        // 2e. Issue checks in globally coordinated batches (Section 4.4).
        // Batching is weighted by row width so every rank advances through
        // roughly `quota` *pairs* (not rows) per barrier window, matching
        // the per-pair batching the protocol used before rows existed.
        comm.trace_begin("neighbor_check");
        let weights: Vec<usize> = joins.iter().map(|(_, tails)| tails.len()).collect();
        batched_weighted(comm, &weights, quota, |i| {
            comm.async_send(part.owner(joins[i].0), TAG_TYPE1, &joins[i]);
        });

        comm.trace_end("neighbor_check");

        // 2f. Convergence test on the all-reduced update count.
        let (c_local, attempts) = {
            let s = st.borrow();
            let c: u64 = s
                .heaps
                .iter()
                .zip(&start_ids)
                .map(|(heap, start)| {
                    heap.iter()
                        .filter(|n| start.binary_search(&n.id).is_err())
                        .count() as u64
                })
                .sum();
            (c, s.attempts)
        };
        if let Some(pct) = (c_local * 100).checked_div(attempts) {
            comm.trace_hist("heap_accept_pct", pct);
        }
        let c_global = comm.all_reduce_sum_u64(c_local);
        iterations = iter + 1;
        updates_per_iter.push(c_global);
        comm.trace_instant("iter_updates", c_global);
        // Per-iteration telemetry gauges: the surviving-update rate and the
        // cumulative distance-eval count per rank, plus the global
        // termination counter on rank 0 (it is identical on every rank, so
        // one track suffices).
        comm.gauge("heap_updates", c_local as f64);
        {
            let s = st.borrow();
            comm.gauge("dist_evals", s.dist_evals as f64);
            comm.gauge(
                "dist_evals_per_batch",
                s.dist_evals as f64 / s.kernel_batches.max(1) as f64,
            );
        }
        if comm.rank() == 0 {
            comm.gauge("termination_c", c_global as f64);
        }
        comm.trace_end("iteration");
        if c_global < threshold {
            break;
        }
    }

    // ---- Phase 3: optional distributed graph optimization -------------------
    let mut rnn_stats = None;
    let rows: RankRows = if let Some(rp) = cfg.rnn_opt {
        comm.trace_begin("rnn_optimize");
        {
            let s = st.borrow();
            rnn_st.borrow_mut().seed(
                owned.iter().zip(&s.heaps).map(|(&v, heap)| {
                    let edges: Vec<Edge> =
                        heap.sorted().iter().map(|nb| (nb.id, nb.dist)).collect();
                    (v, edges)
                }),
                rp.r,
            );
        }
        let (rows, stats) = run_rnn_rounds(comm, &rnn_st, &owned, part, rp, quota);
        comm.trace_end("rnn_optimize");
        rnn_stats = Some(stats);
        rows
    } else if let Some(m) = cfg.graph_opt_m {
        comm.trace_begin("graph_optimize");
        let rows = optimize_distributed(comm, &st, &owned, part, cfg, m, quota);
        comm.trace_end("graph_optimize");
        rows
    } else {
        let s = st.borrow();
        owned
            .iter()
            .zip(&s.heaps)
            .map(|(&v, heap)| {
                let edges = heap.sorted().iter().map(|nb| (nb.id, nb.dist)).collect();
                (v, edges)
            })
            .collect()
    };

    let s = st.borrow();
    if traced {
        for &evals in &s.dist_by_vertex {
            comm.trace_hist("dist_evals_per_item", evals);
        }
    }
    let dist_evals = s.dist_evals + rnn_st.borrow().dist_evals;
    (
        rows,
        RankMetrics {
            iterations,
            updates_per_iter,
            dist_evals,
            rnn: rnn_stats,
        },
    )
}

/// Section 4.5 as a distributed pass: ship every edge `v -> u` to
/// `owner(u)` as a reverse edge, merge + dedup + prune to `ceil(k * m)`.
fn optimize_distributed(
    comm: &Comm,
    st: &Rc<RefCell<State>>,
    owned: &[PointId],
    part: Partitioner,
    cfg: DnndConfig,
    m: f64,
    quota: usize,
) -> RankRows {
    assert!(m >= 1.0, "paper requires m >= 1");
    batched(comm, owned.len(), quota, |i| {
        let v = owned[i];
        let edges: Vec<Edge> = st.borrow().heaps[i]
            .sorted()
            .iter()
            .map(|nb| (nb.id, nb.dist))
            .collect();
        for (u, d) in edges {
            comm.async_send(part.owner(u), TAG_OPT_EDGE, &(u, v, d));
        }
    });
    let limit = ((cfg.k as f64) * m).ceil() as usize;
    let s = &mut *st.borrow_mut();
    owned
        .iter()
        .zip(s.heaps.iter().zip(s.opt_extra.iter_mut()))
        .map(|(&v, (heap, extra))| {
            let mut edges: Vec<Edge> = heap.sorted().iter().map(|nb| (nb.id, nb.dist)).collect();
            edges.append(extra);
            edges.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            edges.dedup_by_key(|e| e.0);
            edges.truncate(limit);
            (v, edges)
        })
        .collect()
}

/// Process local work items `0..total` in chunks of `quota`, with a global
/// barrier after each chunk, looping until *every* rank is out of work —
/// the Section 4.4 batched-communication pattern.
pub(crate) fn batched<F: FnMut(usize)>(comm: &Comm, total: usize, quota: usize, mut f: F) {
    let mut idx = 0;
    loop {
        let end = (idx + quota).min(total);
        if end > idx {
            comm.trace_hist("batch_size", (end - idx) as u64);
        }
        for i in idx..end {
            f(i);
        }
        idx = end;
        comm.barrier();
        let remaining = comm.all_reduce_sum_u64((total - idx) as u64);
        if remaining == 0 {
            return;
        }
    }
}

/// Like [`batched`], but each item `i` costs `weights[i]` units against the
/// per-window quota (a window always admits at least one item). Used for
/// join rows, whose cost is their pair count.
pub(crate) fn batched_weighted<F: FnMut(usize)>(
    comm: &Comm,
    weights: &[usize],
    quota: usize,
    mut f: F,
) {
    let mut idx = 0;
    loop {
        let mut used = 0usize;
        while idx < weights.len() && (used == 0 || used + weights[idx] <= quota) {
            used += weights[idx];
            f(idx);
            idx += 1;
        }
        if used > 0 {
            comm.trace_hist("batch_size", used as u64);
        }
        comm.barrier();
        let left: u64 = weights[idx..].iter().map(|&w| w as u64).sum();
        if comm.all_reduce_sum_u64(left) == 0 {
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn register_handlers<P, M>(
    comm: &Comm,
    st: &Rc<RefCell<State>>,
    set: &Arc<PointSet<P>>,
    metric: &M,
    cache: &Arc<NormCache>,
    part: Partitioner,
    cfg: DnndConfig,
    dim: usize,
) where
    P: Point,
    M: BatchMetric<P>,
{
    let traced = comm.tracer().is_some();

    // Init: compute theta(v, u) for every u we own (one batched call),
    // reply once to owner(v).
    {
        let st = Rc::clone(st);
        let set = Arc::clone(set);
        let metric = metric.clone();
        let cache = Arc::clone(cache);
        comm.register_named::<InitReq<P>, _>(
            TAG_INIT_REQ,
            tag_display(TAG_INIT_REQ),
            move |c, msg| {
                let mut dbuf = Vec::with_capacity(msg.us.len());
                metric.distance_one_to_many(&msg.vec, &set, &cache, &msg.us, &mut dbuf);
                charge_batch(c, dim, msg.us.len());
                c.trace_hist("kernel_batch_len", msg.us.len() as u64);
                let mut s = st.borrow_mut();
                s.record_batch(msg.us.len());
                for &u in &msg.us {
                    s.trace_dist(traced, u);
                }
                drop(s);
                let reply: Vec<(PointId, f32)> =
                    msg.us.iter().copied().zip(dbuf.iter().copied()).collect();
                c.async_send(part.owner(msg.v), TAG_INIT_RESP, &(msg.v, reply));
            },
        );
    }
    {
        let st = Rc::clone(st);
        comm.register_named::<InitResp, _>(
            TAG_INIT_RESP,
            tag_display(TAG_INIT_RESP),
            move |_, (v, pairs)| {
                let mut s = st.borrow_mut();
                for (u, d) in pairs {
                    s.attempts += 1;
                    if let Some(h) = s.heap_mut(v) {
                        h.checked_insert(u, d, true);
                    }
                }
            },
        );
    }

    // Reverse-neighbor exchange accumulators.
    {
        let st = Rc::clone(st);
        comm.register_named::<RevEntry, _>(
            TAG_REV_NEW,
            tag_display(TAG_REV_NEW),
            move |_, (u, v)| {
                let s = &mut *st.borrow_mut();
                if let Some(o) = s.index.get(u) {
                    s.rev_new[o].push(v);
                }
            },
        );
    }
    {
        let st = Rc::clone(st);
        comm.register_named::<RevEntry, _>(
            TAG_REV_OLD,
            tag_display(TAG_REV_OLD),
            move |_, (u, v)| {
                let s = &mut *st.borrow_mut();
                if let Some(o) = s.index.get(u) {
                    s.rev_old[o].push(v);
                }
            },
        );
    }

    // Type 1: this rank owns u1. Filter the row against u1's current heap,
    // read the pruning bound once, then forward one Type 2 / Type 2+ per
    // destination rank — shipping u1's vector once per destination instead
    // of once per pair.
    {
        let st = Rc::clone(st);
        let set = Arc::clone(set);
        comm.register_named::<Type1, _>(TAG_TYPE1, tag_display(TAG_TYPE1), move |c, (u1, u2s)| {
            let (tails, bound) = {
                let s = st.borrow();
                let heap = s.heap(u1);
                let tails: Vec<PointId> = if cfg.opts.skip_redundant {
                    // Redundant-check reduction (4.3.2) on the forward path.
                    u2s.into_iter().filter(|&u2| !heap.contains(u2)).collect()
                } else {
                    u2s
                };
                let bound = if cfg.opts.prune_distance {
                    heap.max_dist()
                } else {
                    f32::INFINITY
                };
                (tails, bound)
            };
            if tails.is_empty() {
                return;
            }
            // Group by destination (usize::MAX: nothing matches "local", so
            // rank-local endpoints still travel as ordinary self-sends and
            // keep showing up on the traffic matrix diagonal, as before).
            let (_, groups) = group_by_owner(part, usize::MAX, &tails);
            for (dest, u2s) in groups {
                if cfg.opts.one_sided {
                    c.async_send(
                        dest,
                        TAG_TYPE2_PLUS,
                        &Type2Plus {
                            u1,
                            u2s,
                            bound,
                            vec: set.point(u1).clone(),
                        },
                    );
                } else {
                    c.async_send(
                        dest,
                        TAG_TYPE2,
                        &Type2 {
                            u1,
                            u2s,
                            vec: set.point(u1).clone(),
                        },
                    );
                }
            }
        });
    }

    // Type 2 (unoptimized): one batched evaluation, update only our side.
    {
        let st = Rc::clone(st);
        let set = Arc::clone(set);
        let metric = metric.clone();
        let cache = Arc::clone(cache);
        comm.register_named::<Type2<P>, _>(TAG_TYPE2, tag_display(TAG_TYPE2), move |c, msg| {
            let mut dbuf = Vec::with_capacity(msg.u2s.len());
            metric.distance_one_to_many(&msg.vec, &set, &cache, &msg.u2s, &mut dbuf);
            charge_batch(c, dim, msg.u2s.len());
            c.trace_hist("kernel_batch_len", msg.u2s.len() as u64);
            let mut s = st.borrow_mut();
            s.record_batch(msg.u2s.len());
            for (&u2, &d) in msg.u2s.iter().zip(&dbuf) {
                s.trace_dist(traced, u2);
                s.attempts += 1;
                if let Some(h) = s.heap_mut(u2) {
                    h.checked_insert(msg.u1, d, true);
                }
            }
        });
    }

    // Type 2+ (optimized): update our side, Type 3 back unless pruned.
    {
        let st = Rc::clone(st);
        let set = Arc::clone(set);
        let metric = metric.clone();
        let cache = Arc::clone(cache);
        comm.register_named::<Type2Plus<P>, _>(
            TAG_TYPE2_PLUS,
            tag_display(TAG_TYPE2_PLUS),
            move |c, msg| {
                // Redundant-check reduction on the return path (4.3.2): if
                // u1 is already a neighbor of u2 this pair was checked
                // before — drop it from the row before evaluating.
                let u2s: Vec<PointId> = if cfg.opts.skip_redundant {
                    let s = st.borrow();
                    msg.u2s
                        .iter()
                        .copied()
                        .filter(|&u2| !s.heap(u2).contains(msg.u1))
                        .collect()
                } else {
                    msg.u2s.clone()
                };
                if u2s.is_empty() {
                    return;
                }
                let mut dbuf = Vec::with_capacity(u2s.len());
                metric.distance_one_to_many(&msg.vec, &set, &cache, &u2s, &mut dbuf);
                charge_batch(c, dim, u2s.len());
                c.trace_hist("kernel_batch_len", u2s.len() as u64);
                let mut replies: Vec<(PointId, f32)> = Vec::new();
                {
                    let mut s = st.borrow_mut();
                    s.record_batch(u2s.len());
                    for (&u2, &d) in u2s.iter().zip(&dbuf) {
                        s.trace_dist(traced, u2);
                        s.attempts += 1;
                        if let Some(h) = s.heap_mut(u2) {
                            h.checked_insert(msg.u1, d, true);
                        }
                        // Long-distance pruning (4.3.3): only answer if the
                        // distance can possibly improve u1's heap.
                        if d < msg.bound {
                            replies.push((u2, d));
                        }
                    }
                }
                if !replies.is_empty() {
                    c.async_send(part.owner(msg.u1), TAG_TYPE3, &(msg.u1, replies));
                }
            },
        );
    }

    // Type 3: the returned distances update u1's heap.
    {
        let st = Rc::clone(st);
        comm.register_named::<Type3, _>(
            TAG_TYPE3,
            tag_display(TAG_TYPE3),
            move |_, (u1, pairs)| {
                let mut s = st.borrow_mut();
                for (u2, d) in pairs {
                    s.attempts += 1;
                    if let Some(h) = s.heap_mut(u1) {
                        h.checked_insert(u2, d, true);
                    }
                }
            },
        );
    }

    // Graph-optimization reverse edges.
    {
        let st = Rc::clone(st);
        comm.register_named::<OptEdge, _>(
            TAG_OPT_EDGE,
            tag_display(TAG_OPT_EDGE),
            move |_, (u, v, d)| {
                let s = &mut *st.borrow_mut();
                if let Some(o) = s.index.get(u) {
                    s.opt_extra[o].push((v, d));
                }
            },
        );
    }
}
