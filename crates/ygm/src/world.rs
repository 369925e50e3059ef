//! World construction and the SPMD launcher.
//!
//! A [`World`] describes a simulated multi-rank job: rank count, flush
//! threshold, and cost model. [`World::run`] spawns one OS thread per rank,
//! hands each a [`Comm`], executes the supplied SPMD closure, performs a
//! final implicit barrier (so no message is ever dropped), and returns the
//! per-rank results together with timing and traffic summaries.

use crate::comm::{Comm, Packet};
use crate::cost::{ClockBreakdown, CostModel, PhaseRecord, VirtualClock};
use crate::fault::{FaultCounters, FaultPlan, FaultReport};
use crate::stats::{Stats, TagStats, TrafficMatrix};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use obs::Tracer;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default per-destination buffer size before an automatic flush (bytes).
/// YGM uses aggregation buffers of comparable magnitude.
pub const DEFAULT_FLUSH_THRESHOLD: usize = 64 * 1024;

/// A reusable barrier that can be *poisoned*: when any rank panics, the
/// world aborts instead of deadlocking the surviving ranks inside their
/// barrier waits — the in-process analogue of `MPI_Abort`.
pub(crate) struct PoisonBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

struct BarrierState {
    count: usize,
    generation: u64,
    poisoned: bool,
}

/// Panic payload used when a rank aborts *because a peer panicked* (the
/// poisoned-barrier path). Distinguishable from application panics so
/// [`World::run`] can re-raise the peer's original payload instead of this
/// secondary one.
pub(crate) struct WorldAborted;

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        PoisonBarrier {
            n,
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
                poisoned: false,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Block until all ranks arrive. Returns `true` on exactly one rank
    /// per generation (the "leader"). Panics on all ranks if the barrier
    /// is poisoned.
    pub(crate) fn wait(&self) -> bool {
        let mut st = self.state.lock();
        if st.poisoned {
            std::panic::panic_any(WorldAborted);
        }
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cvar.notify_all();
            return true;
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            self.cvar.wait(&mut st);
        }
        if st.poisoned {
            std::panic::panic_any(WorldAborted);
        }
        false
    }

    fn poison(&self) {
        let mut st = self.state.lock();
        st.poisoned = true;
        self.cvar.notify_all();
    }
}

/// Receive-side reliable-delivery state for one directed edge
/// `(src -> dest)`. Mutated only by the destination rank; senders read the
/// watermark and set to learn which frames are acknowledged (shared-memory
/// acks — the simulation's stand-in for ack messages on the wire).
pub(crate) struct EdgeRecvState {
    /// All frame sequence numbers `< watermark` have been delivered.
    pub(crate) watermark: AtomicU64,
    /// Delivered frames at or above the watermark (out-of-order arrivals).
    pub(crate) out_of_order: Mutex<BTreeSet<u64>>,
}

impl EdgeRecvState {
    fn new() -> Self {
        EdgeRecvState {
            watermark: AtomicU64::new(0),
            out_of_order: Mutex::new(BTreeSet::new()),
        }
    }

    /// Has frame `seq` on this edge been delivered to a handler?
    pub(crate) fn is_delivered(&self, seq: u64) -> bool {
        seq < self.watermark.load(Ordering::Acquire) || self.out_of_order.lock().contains(&seq)
    }

    /// Record frame `seq` as delivered, advancing the contiguous watermark
    /// past any out-of-order frames it now absorbs.
    pub(crate) fn mark_delivered(&self, seq: u64) {
        let mut ooo = self.out_of_order.lock();
        let mut mark = self.watermark.load(Ordering::Acquire);
        if seq != mark {
            ooo.insert(seq);
            return;
        }
        mark += 1;
        while ooo.remove(&mark) {
            mark += 1;
        }
        self.watermark.store(mark, Ordering::Release);
    }
}

/// World-wide fault-injection state: the plan, the counters, and the
/// shared-memory ack table (one [`EdgeRecvState`] per directed edge,
/// indexed `dest * n_ranks + src`).
pub(crate) struct FaultShared {
    pub(crate) plan: FaultPlan,
    pub(crate) counters: FaultCounters,
    recv: Box<[EdgeRecvState]>,
}

impl FaultShared {
    fn new(plan: FaultPlan, n_ranks: usize) -> Self {
        FaultShared {
            plan,
            counters: FaultCounters::default(),
            recv: (0..n_ranks * n_ranks)
                .map(|_| EdgeRecvState::new())
                .collect(),
        }
    }

    /// Receive state for frames flowing `src -> dest`.
    pub(crate) fn edge(&self, src: usize, dest: usize, n_ranks: usize) -> &EdgeRecvState {
        &self.recv[dest * n_ranks + src]
    }
}

pub(crate) struct Shared {
    pub n_ranks: usize,
    pub barrier: PoisonBarrier,
    pub senders: Vec<Sender<Packet>>,
    /// Termination counters: messages sent and dispatched world-wide, as
    /// of each rank's last barrier-entry fold (`Comm::fold_counters`).
    pub sent: AtomicU64,
    pub processed: AtomicU64,
    pub stats: Stats,
    pub clock: VirtualClock,
    pub cost: CostModel,
    pub flush_threshold: usize,
    pub reduce_u64: AtomicU64,
    pub reduce_f64: Mutex<f64>,
    pub bcast: Mutex<Option<Bytes>>,
    /// Optional span/metric collector; `None` keeps the hot path at a
    /// single branch per instrumentation site.
    pub tracer: Option<Arc<Tracer>>,
    /// Fault-injection plan + reliable-delivery state; `None` runs the
    /// original direct transport unchanged.
    pub fault: Option<FaultShared>,
}

/// Configuration for a simulated multi-rank run.
#[derive(Clone)]
pub struct World {
    n_ranks: usize,
    flush_threshold: usize,
    cost: CostModel,
    tracer: Option<Arc<Tracer>>,
    fault: Option<FaultPlan>,
}

/// The outcome of a [`World::run`].
#[derive(Debug)]
pub struct WorldReport<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Virtual (simulated) elapsed time, seconds.
    pub sim_secs: f64,
    /// Virtual elapsed time in exact nanoseconds — the final clock reading.
    /// The critical-path analyzer needs this exact (not `sim_secs * 1e9`)
    /// to attribute collective time with zero rounding error.
    pub sim_ns: u64,
    /// Decomposition of the virtual time into compute / communication /
    /// barrier components.
    pub breakdown: ClockBreakdown,
    /// Per-phase (barrier-to-barrier) profile records.
    pub phases: Vec<PhaseRecord>,
    /// Real wall-clock elapsed time, seconds.
    pub wall_secs: f64,
    /// Cumulative per-tag traffic: `(tag, name, stats)` for used tags.
    pub tags: Vec<(u16, String, TagStats)>,
    /// Sum over all tags.
    pub total: TagStats,
    /// Rank×rank×tag traffic matrix (diagonal = rank-local sends); each
    /// tag's cells sum to its entry in `tags`.
    pub matrix: TrafficMatrix,
    /// Injected-fault and reliable-delivery counters; `None` when the world
    /// ran without a [`FaultPlan`].
    pub faults: Option<FaultReport>,
}

impl World {
    /// A world with `n_ranks` simulated ranks and default settings.
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks >= 1, "a world needs at least one rank");
        World {
            n_ranks,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            cost: CostModel::default(),
            tracer: None,
            fault: None,
        }
    }

    /// Run this world under seeded fault injection (see [`crate::fault`]):
    /// frames are dropped / duplicated / delayed per `plan`, and the
    /// reliable-delivery layer (sequence numbers, acks, retransmission,
    /// dedup) keeps every message exactly-once so barriers still terminate.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Override the per-destination buffer flush threshold (bytes).
    pub fn flush_threshold(mut self, bytes: usize) -> Self {
        assert!(bytes > 0);
        self.flush_threshold = bytes;
        self
    }

    /// Override the virtual cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Attach a tracer; runtime spans (barriers, dispatch, collectives),
    /// flush metrics, and any application spans recorded through
    /// [`Comm`]'s `trace_*` helpers land in it. The tracer must have been
    /// created for the same rank count.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        assert_eq!(
            tracer.n_ranks(),
            self.n_ranks,
            "tracer rank count must match the world"
        );
        self.tracer = Some(tracer);
        self
    }

    /// Number of ranks this world will launch.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Launch the SPMD program `f` on every rank and wait for completion.
    ///
    /// `f` runs once per rank with that rank's [`Comm`]. After `f` returns on
    /// a rank, an implicit final barrier drains any in-flight messages, so
    /// handlers may still fire after `f` returns. Panics in any rank
    /// propagate.
    pub fn run<T, F>(&self, f: F) -> WorldReport<T>
    where
        F: Fn(&Comm) -> T + Send + Sync,
        T: Send,
    {
        let n = self.n_ranks;
        let (senders, receivers): (Vec<Sender<Packet>>, Vec<Receiver<Packet>>) =
            (0..n).map(|_| unbounded()).unzip();
        let shared = Arc::new(Shared {
            n_ranks: n,
            barrier: PoisonBarrier::new(n),
            senders,
            sent: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            stats: Stats::new(n),
            clock: VirtualClock::new(),
            cost: self.cost,
            flush_threshold: self.flush_threshold,
            reduce_u64: AtomicU64::new(0),
            reduce_f64: Mutex::new(0.0),
            bcast: Mutex::new(None),
            tracer: self.tracer.clone(),
            fault: self.fault.map(|plan| FaultShared::new(plan, n)),
        });

        let start = Instant::now();
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (rank, rx) in receivers.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                let f = &f;
                handles.push(scope.spawn(move || {
                    let barrier = Arc::clone(&shared);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let comm = Comm::new(rank, shared, rx);
                        let out = f(&comm);
                        // Final drain: a rank may still owe handler
                        // executions to messages sent by other ranks at
                        // the tail of `f`.
                        comm.barrier();
                        out
                    }));
                    match result {
                        Ok(out) => out,
                        Err(payload) => {
                            // Abort the world so no rank deadlocks in a
                            // barrier waiting for us, then re-raise.
                            barrier.barrier.poison();
                            std::panic::resume_unwind(payload);
                        }
                    }
                }));
            }
            // Join *all* ranks before re-raising: the first rank in join
            // order is often one that aborted secondarily via the poisoned
            // barrier ([`WorldAborted`]); re-raise the peer's original
            // panic payload so the caller sees the real failure, not
            // "another rank panicked".
            let mut original: Option<Box<dyn std::any::Any + Send>> = None;
            let mut secondary: Option<Box<dyn std::any::Any + Send>> = None;
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(v) => results[rank] = Some(v),
                    Err(e) if e.downcast_ref::<WorldAborted>().is_some() => {
                        secondary.get_or_insert(e);
                    }
                    Err(e) => {
                        original.get_or_insert(e);
                    }
                }
            }
            if let Some(payload) = original.or(secondary) {
                std::panic::resume_unwind(payload);
            }
        });
        let wall_secs = start.elapsed().as_secs_f64();

        WorldReport {
            results: results.into_iter().map(Option::unwrap).collect(),
            sim_secs: shared.clock.now_secs(),
            sim_ns: shared.clock.now_ns(),
            breakdown: shared.clock.breakdown(),
            phases: shared.clock.phases(),
            wall_secs,
            tags: shared.stats.nonzero_tags(),
            total: shared.stats.total(),
            matrix: shared.stats.matrix(),
            faults: shared.fault.as_ref().map(|f| f.counters.report(&f.plan)),
        }
    }
}

impl<T> WorldReport<T> {
    /// Stats for one tag, if any message used it.
    pub fn tag(&self, tag: u16) -> Option<TagStats> {
        self.tags
            .iter()
            .find(|(t, _, _)| *t == tag)
            .map(|(_, _, s)| *s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const PING: u16 = 0;
    const PONG: u16 = 1;

    #[test]
    fn single_rank_world_runs() {
        let report = World::new(1).run(|comm| comm.rank());
        assert_eq!(report.results, vec![0]);
        assert_eq!(report.total.count, 0);
    }

    #[test]
    fn ranks_see_distinct_ids() {
        let report = World::new(4).run(|comm| (comm.rank(), comm.n_ranks()));
        assert_eq!(
            report.results,
            vec![(0usize, 4usize), (1, 4), (2, 4), (3, 4)]
        );
    }

    #[test]
    fn async_send_delivers_to_handler() {
        let report = World::new(3).run(|comm| {
            let received = Rc::new(RefCell::new(Vec::<u64>::new()));
            let r2 = Rc::clone(&received);
            comm.register::<u64, _>(PING, move |_, v| r2.borrow_mut().push(v));
            // Every rank sends its id to rank 0.
            comm.async_send(0, PING, &(comm.rank() as u64));
            comm.barrier();
            let mut got = received.borrow().clone();
            got.sort_unstable();
            got
        });
        assert_eq!(report.results[0], vec![0, 1, 2]);
        assert!(report.results[1].is_empty());
        assert_eq!(report.total.count, 3);
    }

    #[test]
    fn handler_chains_complete_before_barrier_returns() {
        // Rank r sends PING to r+1; the PING handler replies PONG to 0;
        // the barrier must retire the whole cascade.
        let report = World::new(4).run(|comm| {
            let pongs = Rc::new(RefCell::new(0u32));
            let p2 = Rc::clone(&pongs);
            comm.register::<u32, _>(PING, move |c, v| {
                c.async_send(0, PONG, &(v + 1));
            });
            comm.register::<u32, _>(PONG, move |_, _| *p2.borrow_mut() += 1);
            let next = (comm.rank() + 1) % comm.n_ranks();
            comm.async_send(next, PING, &7u32);
            comm.barrier();
            let n = *pongs.borrow();
            n
        });
        assert_eq!(report.results[0], 4);
        assert_eq!(report.results[1], 0);
    }

    #[test]
    fn self_sends_are_delivered() {
        let report = World::new(2).run(|comm| {
            let hits = Rc::new(RefCell::new(0u32));
            let h = Rc::clone(&hits);
            comm.register::<u32, _>(PING, move |_, _| *h.borrow_mut() += 1);
            for _ in 0..10 {
                comm.async_send(comm.rank(), PING, &1u32);
            }
            comm.barrier();
            let n = *hits.borrow();
            n
        });
        assert_eq!(report.results, vec![10, 10]);
        // Self-sends count in totals but not remote traffic.
        assert_eq!(report.total.count, 20);
        assert_eq!(report.total.remote_count, 0);
    }

    #[test]
    fn poll_processes_without_global_sync() {
        let report = World::new(2).run(|comm| {
            let hits = Rc::new(RefCell::new(0u32));
            let h = Rc::clone(&hits);
            comm.register::<u32, _>(PING, move |_, _| *h.borrow_mut() += 1);
            comm.async_send(comm.rank(), PING, &1u32);
            // Self-send is locally buffered; poll must flush + handle it.
            comm.poll();
            let seen = *hits.borrow();
            comm.barrier();
            seen
        });
        assert_eq!(report.results, vec![1, 1]);
    }

    #[test]
    fn all_reduce_sums_and_maxes() {
        let report = World::new(4).run(|comm| {
            let sum = comm.all_reduce_sum_u64(comm.rank() as u64 + 1);
            let max = comm.all_reduce_max_u64(comm.rank() as u64);
            let fsum = comm.all_reduce_sum_f64(0.5);
            (sum, max, fsum)
        });
        for r in &report.results {
            assert_eq!(r.0, 10);
            assert_eq!(r.1, 3);
            assert!((r.2 - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn consecutive_reduces_do_not_bleed() {
        let report = World::new(3).run(|comm| {
            let a = comm.all_reduce_sum_u64(1);
            let b = comm.all_reduce_sum_u64(2);
            (a, b)
        });
        for r in &report.results {
            assert_eq!(*r, (3, 6));
        }
    }

    #[test]
    fn broadcast_distributes_roots_value() {
        let report = World::new(3).run(|comm| {
            let v: u64 = comm.broadcast(1, (comm.rank() == 1).then_some(&42u64));
            v
        });
        assert_eq!(report.results, vec![42, 42, 42]);
    }

    #[test]
    fn large_fanout_is_fully_counted() {
        let n = 4;
        let per_rank = 1000u64;
        let report = World::new(n).run(move |comm| {
            let count = Rc::new(RefCell::new(0u64));
            let c2 = Rc::clone(&count);
            comm.register::<u64, _>(PING, move |_, _| *c2.borrow_mut() += 1);
            for i in 0..per_rank {
                comm.async_send((i as usize) % comm.n_ranks(), PING, &i);
            }
            comm.barrier();
            let n = *count.borrow();
            n
        });
        let total: u64 = report.results.iter().sum();
        assert_eq!(total, per_rank * n as u64);
        assert_eq!(report.total.count, per_rank * n as u64);
    }

    #[test]
    fn virtual_clock_advances_with_charged_compute() {
        let report = World::new(2).run(|comm| {
            comm.charge_compute(1_000_000); // 1 ms per rank
            comm.barrier();
            comm.now_ns()
        });
        assert!(report.sim_secs >= 1e-3);
        assert!(report.results.iter().all(|&t| t >= 1_000_000));
    }

    #[test]
    fn flush_threshold_triggers_early_delivery() {
        // With a tiny threshold messages flush long before the barrier; the
        // destination still only handles them on its own poll/barrier.
        let report = World::new(2).flush_threshold(16).run(|comm| {
            let hits = Rc::new(RefCell::new(0u32));
            let h = Rc::clone(&hits);
            comm.register::<u64, _>(PING, move |_, _| *h.borrow_mut() += 1);
            if comm.rank() == 0 {
                for i in 0..100u64 {
                    comm.async_send(1, PING, &i);
                }
            }
            comm.barrier();
            let n = *hits.borrow();
            n
        });
        assert_eq!(report.results[1], 100);
    }

    #[test]
    fn wire_bytes_match_frame_accounting() {
        let report = World::new(2).run(|comm| {
            comm.register::<u64, _>(PING, |_, _| {});
            if comm.rank() == 0 {
                comm.async_send(1, PING, &1u64);
            }
            comm.barrier();
        });
        let t = report.tag(PING).unwrap();
        assert_eq!(t.count, 1);
        assert_eq!(t.bytes, (crate::comm::FRAME_HEADER_BYTES + 8) as u64);
    }

    #[test]
    fn processed_equals_sent_after_run() {
        // The final implicit barrier must retire everything.
        let report = World::new(3).run(|comm| {
            comm.register::<u32, _>(PING, |_, _| {});
            // Fire at the very end of f, with no explicit barrier.
            comm.async_send((comm.rank() + 1) % comm.n_ranks(), PING, &1u32);
        });
        assert_eq!(report.total.count, 3);
    }

    #[test]
    fn sim_time_shrinks_with_more_ranks_for_fixed_total_work() {
        let run = |ranks: usize| {
            let total_work = 64_000_000u64; // 64 ms of virtual compute
            World::new(ranks)
                .run(move |comm| {
                    comm.charge_compute(total_work / comm.n_ranks() as u64);
                    comm.barrier();
                })
                .sim_secs
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(
            t4 < t1 / 2.0,
            "virtual clock must show strong scaling: t1={t1} t4={t4}"
        );
    }

    #[test]
    fn counters_are_consistent_under_atomic_ordering() {
        // Regression guard for the termination-detection invariant:
        // sent == processed implies empty channels.
        let report = World::new(4).run(|comm| {
            comm.register::<u32, _>(PING, |c, v| {
                if v > 0 {
                    let next = (c.rank() + 1) % c.n_ranks();
                    c.async_send(next, PING, &(v - 1));
                }
            });
            comm.async_send((comm.rank() + 1) % comm.n_ranks(), PING, &25u32);
            comm.barrier();
            comm.now_ns()
        });
        // 4 chains x 26 messages each.
        assert_eq!(report.total.count, 4 * 26);
    }
}
