//! Per-rank communicator: asynchronous fire-and-forget RPC, buffered sends,
//! polling dispatch, and barrier with global termination detection.
//!
//! Semantics follow YGM:
//!
//! * [`Comm::async_send`] enqueues a message for a destination rank and
//!   returns immediately. Messages are buffered per destination and flushed
//!   when the buffer exceeds the world's flush threshold (or at a barrier).
//! * The registered handler for the message's tag runs on the destination
//!   rank at an unspecified later time — during one of its [`Comm::poll`] or
//!   [`Comm::barrier`] calls. Handlers may themselves send messages
//!   (fire-and-forget RPC chains, e.g. the paper's Type 1 -> Type 2+ -> Type 3
//!   neighbor-check cascade).
//! * [`Comm::barrier`] returns only when **all** ranks have reached it and
//!   every message in the world — including messages sent by handlers while
//!   draining — has been processed (termination detection via global
//!   sent/processed counters).
//!
//! Sends and dispatches are counted rank-locally (a `SendLog` and a plain
//! `processed` count). Each rank folds them into the world's
//! [`crate::Stats`] and the `sent`/`processed` termination counters at
//! barrier entry, after its last poll of the round and before the first
//! wait, so the counters are exact at every quiescence check and every
//! phase record, and the send path touches no cache line another rank
//! writes.
//!
//! The execution model is SPMD: every rank must execute the same sequence of
//! collective operations (`barrier`, `all_reduce_*`, `broadcast_*`).
//! Handlers must not call `poll`, `barrier`, or `register` (enforced by a
//! `RefCell` borrow panic in debug and release).

use crate::codec::{TraceCtx, Wire};
use crate::cost::CostModel;
use crate::fault::FaultCounters;
use crate::stats::SendLog;
use crate::world::Shared;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::Receiver;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Frame header: `u16` tag + `u32` payload length. Every message on the
/// wire is accounted as header + payload bytes.
pub const FRAME_HEADER_BYTES: usize = 6;

/// Non-quiescent barrier rounds tolerated under fault injection before the
/// world aborts with the offending sim seed. Converts a termination-
/// detection hang (the worst possible test outcome) into a diagnosable,
/// replayable failure.
const STORM_ROUNDS: u64 = 10_000;

/// One flushed aggregation buffer in flight. `seq` numbers frames per
/// directed edge `(src -> dest)`; under fault injection the reliable-
/// delivery layer uses it for acks and receive-side dedup. The fault-free
/// transport sends `seq = 0` and ignores it.
#[derive(Debug, Clone)]
pub(crate) struct Packet {
    pub(crate) src: usize,
    pub(crate) seq: u64,
    pub(crate) attempt: u32,
    /// Causal context minted when the frame was flushed. Every retransmit
    /// and injected duplicate carries the *same* context, so redelivery can
    /// never forge a new causal edge.
    pub(crate) ctx: TraceCtx,
    pub(crate) bytes: Bytes,
}

/// A sent-but-unacknowledged frame retained for retransmission.
struct UnackedFrame {
    bytes: Bytes,
    /// Original causal context, reused verbatim on every retransmission.
    ctx: TraceCtx,
    attempt: u32,
    /// Epoch at which the frame is retransmitted if still unacked.
    next_retry: u64,
    /// Whether the attempt cap was reached (frame now delivered fault-free).
    forced: bool,
}

/// Stable identity shared by the `ph:"s"` and `ph:"f"` halves of one
/// cross-rank flow arrow: tag, origin, destination, and the origin-edge
/// flush sequence packed into one u64. Both sides compute it independently
/// from the frame's [`TraceCtx`], so pairing needs no extra wire traffic.
fn flow_id(tag: u16, ctx: TraceCtx, dest: usize) -> u64 {
    ((tag as u64) << 48)
        | ((ctx.origin as u64 & 0xFF) << 40)
        | ((dest as u64 & 0xFF) << 32)
        | (ctx.send_seq & 0xFFFF_FFFF)
}

/// Iterate the set bits of a per-destination tag bitset as tag ids.
fn tag_bits(mut mask: u64) -> impl Iterator<Item = u16> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let t = mask.trailing_zeros() as u16;
            mask &= mask - 1;
            Some(t)
        }
    })
}

/// Per-rank reliable-delivery state. Only exists under a fault plan; all
/// fields are indexed by destination rank where applicable.
struct FaultLocal {
    /// Next frame sequence number per destination edge.
    next_seq: Vec<u64>,
    /// Unacked frames per destination, by sequence number.
    unacked: Vec<BTreeMap<u64, UnackedFrame>>,
    /// Received frames held back by delay injection: `(release_epoch,
    /// packet)`.
    inbox: Vec<(u64, Packet)>,
    /// Sends per destination edge (drives flush-jitter decisions).
    send_count: Vec<u64>,
    /// Current sync epoch. Advanced once per non-quiescent barrier round;
    /// lock-step across ranks because rounds are collectively synchronized.
    epoch: u64,
    /// Epoch whose stall has already been counted (counters + virtual
    /// time), so repeated polls in one epoch charge once.
    stall_counted: Option<u64>,
}

impl FaultLocal {
    fn new(n: usize) -> Self {
        FaultLocal {
            next_seq: vec![0; n],
            unacked: (0..n).map(|_| BTreeMap::new()).collect(),
            inbox: Vec::new(),
            send_count: vec![0; n],
            epoch: 0,
            stall_counted: None,
        }
    }
}

type Handler = Box<dyn FnMut(&Comm, Bytes)>;

/// A rank's handle to the world. Not `Send`: each rank owns exactly one,
/// created by [`crate::World::run`].
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
    rx: Receiver<Packet>,
    out: RefCell<Vec<BytesMut>>,
    handlers: RefCell<Vec<Option<Handler>>>,
    fault: Option<RefCell<FaultLocal>>,
    /// Completed-barrier count: the parent span id stamped into every
    /// [`TraceCtx`] this rank mints. SPMD makes it identical across ranks
    /// at any collective point, and deterministic run to run.
    phase_idx: Cell<u64>,
    /// Next logical flush sequence per destination edge (flow identity;
    /// independent of the reliable-delivery `seq`, which restarts
    /// numbering games under retransmission).
    flow_seq: RefCell<Vec<u64>>,
    /// Bitset of tags buffered per destination since its last flush, so
    /// one flow arrow is drawn per (frame, tag) rather than per message.
    pending_tags: RefCell<Vec<u64>>,
    /// Application sends since the last fold into the world's counters.
    sends: RefCell<SendLog>,
    /// Messages dispatched to handlers since the last fold.
    processed: Cell<u64>,
}

impl Comm {
    pub(crate) fn new(rank: usize, shared: Arc<Shared>, rx: Receiver<Packet>) -> Self {
        let n = shared.n_ranks;
        let fault = shared
            .fault
            .as_ref()
            .map(|_| RefCell::new(FaultLocal::new(n)));
        Comm {
            rank,
            shared,
            rx,
            out: RefCell::new((0..n).map(|_| BytesMut::new()).collect()),
            handlers: RefCell::new((0..crate::stats::MAX_TAGS).map(|_| None).collect()),
            fault,
            phase_idx: Cell::new(0),
            flow_seq: RefCell::new(vec![0; n]),
            pending_tags: RefCell::new(vec![0; n]),
            sends: RefCell::new(SendLog::new(n)),
            processed: Cell::new(0),
        }
    }

    /// This rank's id in `0..n_ranks`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn n_ranks(&self) -> usize {
        self.shared.n_ranks
    }

    /// Register the handler invoked on this rank for messages sent with
    /// `tag`. Must be called before any message with that tag can arrive
    /// (i.e. before the first barrier that delivers one), and never from
    /// inside a handler. Replaces any previous handler for the tag.
    pub fn register<M, F>(&self, tag: u16, mut f: F)
    where
        M: Wire,
        F: FnMut(&Comm, M) + 'static,
    {
        // Registration is where an out-of-range tag first becomes an
        // error; `mark_tag_used` rejects it with a real panic (not just a
        // debug assertion) before any message can be sent.
        self.shared.stats.mark_tag_used(tag);
        let shim: Handler = Box::new(move |comm, bytes| {
            let mut b = bytes;
            let msg = M::decode(&mut b);
            debug_assert!(b.is_empty(), "handler for tag did not consume payload");
            f(comm, msg);
        });
        self.handlers.borrow_mut()[tag as usize] = Some(shim);
    }

    /// [`Self::register`] plus a human-readable tag name in one step, so
    /// every handler registration site self-documents in reports and
    /// traces.
    pub fn register_named<M, F>(&self, tag: u16, name: &str, f: F)
    where
        M: Wire,
        F: FnMut(&Comm, M) + 'static,
    {
        self.name_tag(tag, name);
        self.register(tag, f);
    }

    /// Attach a display name to `tag` in the world statistics (any rank may
    /// call; last write wins). Also names the tag's flow arrows in trace
    /// exports.
    pub fn name_tag(&self, tag: u16, name: &str) {
        self.shared.stats.name_tag(tag, name);
        if let Some(t) = self.tracer() {
            t.name_tag(tag as u64, name);
        }
    }

    // ---- Tracing ---------------------------------------------------------
    //
    // All helpers are single-branch no-ops when the world has no tracer.
    // Span timestamps pair the wall clock (measured by the tracer) with the
    // virtual simulation clock sampled here.

    /// The world's tracer, if one was attached.
    #[inline]
    pub fn tracer(&self) -> Option<&obs::Tracer> {
        self.shared.tracer.as_deref()
    }

    /// Open a span named `name` on this rank's track.
    #[inline]
    pub fn trace_begin(&self, name: &'static str) {
        if let Some(t) = self.tracer() {
            t.begin(self.rank, name, self.now_ns());
        }
    }

    /// Open a span carrying a numeric payload (iteration index, batch id).
    #[inline]
    pub fn trace_begin_arg(&self, name: &'static str, arg: u64) {
        if let Some(t) = self.tracer() {
            t.begin_arg(self.rank, name, self.now_ns(), arg);
        }
    }

    /// Close the most recent unmatched span named `name` on this rank.
    #[inline]
    pub fn trace_end(&self, name: &'static str) {
        if let Some(t) = self.tracer() {
            t.end(self.rank, name, self.now_ns());
        }
    }

    /// Record a zero-duration point event on this rank's track.
    #[inline]
    pub fn trace_instant(&self, name: &'static str, arg: u64) {
        if let Some(t) = self.tracer() {
            t.instant(self.rank, name, self.now_ns(), arg);
        }
    }

    /// RAII span: opens now, closes when the guard drops.
    #[inline]
    pub fn trace_span(&self, name: &'static str) -> TraceSpan<'_> {
        self.trace_begin(name);
        TraceSpan { comm: self, name }
    }

    /// Record the origin half (`ph:"s"`) of a causal flow arrow on this
    /// rank's track. `id` pairs it with a later [`Self::trace_flow_recv`]
    /// carrying the same id; `tag` labels the arrow. No-op when untraced
    /// or when flow recording is disabled (`--trace-flows=off`).
    #[inline]
    pub fn trace_flow_send(&self, name: &'static str, id: u64, tag: u64) {
        if let Some(t) = self.tracer() {
            if t.flows_enabled() {
                t.flow_send(self.rank, name, self.now_ns(), id, tag);
            }
        }
    }

    /// Record the terminating half (`ph:"f"`) of a causal flow arrow on
    /// this rank's track.
    #[inline]
    pub fn trace_flow_recv(&self, name: &'static str, id: u64, tag: u64) {
        if let Some(t) = self.tracer() {
            if t.flows_enabled() {
                t.flow_recv(self.rank, name, self.now_ns(), id, tag);
            }
        }
    }

    /// Open an async (nestable) span (`ph:"b"`) on this rank's track. `id`
    /// pairs it with the matching [`Self::trace_async_end`]; overlapping
    /// spans are fine. Gated with flow recording — async spans share the
    /// per-query id namespace with flow arrows and roughly double serving
    /// trace volume the same way.
    #[inline]
    pub fn trace_async_begin(&self, name: &'static str, id: u64) {
        if let Some(t) = self.tracer() {
            if t.flows_enabled() {
                t.async_begin(self.rank, name, self.now_ns(), id);
            }
        }
    }

    /// Close the async span opened with the same `(name, id)` (`ph:"e"`).
    #[inline]
    pub fn trace_async_end(&self, name: &'static str, id: u64) {
        if let Some(t) = self.tracer() {
            if t.flows_enabled() {
                t.async_end(self.rank, name, self.now_ns(), id);
            }
        }
    }

    /// Completed-barrier count on this rank — the parent span id stamped
    /// into outgoing trace contexts. Identical across ranks at any
    /// collective point (SPMD).
    #[inline]
    pub fn phase_index(&self) -> u64 {
        self.phase_idx.get()
    }

    /// Record one sample into the named histogram (no-op untraced).
    #[inline]
    pub fn trace_hist(&self, name: &str, value: u64) {
        if let Some(t) = self.tracer() {
            t.hist(name).record(value);
        }
    }

    /// Record one point of the named continuous-telemetry gauge on this
    /// rank's track, stamped with the current virtual time (no-op
    /// untraced). Event-driven probes (per-iteration heap updates, the
    /// termination counter) call this directly; runtime gauges are
    /// sampled automatically at barrier entry, paced by the tracer's
    /// virtual-time interval.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(t) = self.tracer() {
            t.series().record(self.rank, name, self.now_ns(), value);
        }
    }

    /// Paced runtime-gauge sampling: send-buffer occupancy (total and per
    /// destination) and, under a fault plan, the reliable-delivery
    /// windows. Runs at barrier entry — the one point where this rank's
    /// buffers still hold the phase's residual messages and the virtual
    /// timestamp is stable (identical run-to-run), so the sampled series
    /// are deterministic under a fixed seed.
    fn sample_gauges(&self) {
        let Some(t) = self.tracer() else { return };
        let now = self.now_ns();
        if !t.series().should_sample(self.rank, now) {
            return;
        }
        let series = t.series();
        let total: u64 = {
            let out = self.out.borrow();
            for (dest, buf) in out.iter().enumerate() {
                series.record(
                    self.rank,
                    &format!("send_buf_bytes.d{dest}"),
                    now,
                    buf.len() as f64,
                );
            }
            out.iter().map(|b| b.len() as u64).sum()
        };
        series.record(self.rank, "send_buf_bytes", now, total as f64);
        if let Some(fl) = &self.fault {
            let fl = fl.borrow();
            let unacked: usize = fl.unacked.iter().map(BTreeMap::len).sum();
            series.record(self.rank, "unacked_frames", now, unacked as f64);
            series.record(self.rank, "delay_inbox_frames", now, fl.inbox.len() as f64);
        }
    }

    /// Fire-and-forget: enqueue `msg` for `dest`'s handler registered under
    /// `tag`. Returns immediately. Self-sends are legal and are delivered
    /// through the same queue (handled at the next poll/barrier).
    pub fn async_send<M: Wire>(&self, dest: usize, tag: u16, msg: &M) {
        debug_assert!(dest < self.n_ranks(), "destination rank out of range");
        let sz = msg.wire_size();
        self.sends
            .borrow_mut()
            .record(tag, FRAME_HEADER_BYTES + sz, dest);
        let mut flush_now = {
            let mut out = self.out.borrow_mut();
            let buf = &mut out[dest];
            buf.reserve(FRAME_HEADER_BYTES + sz);
            buf.put_u16_le(tag);
            buf.put_u32_le(sz as u32);
            let before = buf.len();
            msg.encode(buf);
            debug_assert_eq!(buf.len() - before, sz, "wire_size mismatch for tag {tag}");
            buf.len() >= self.shared.flush_threshold
        };
        self.pending_tags.borrow_mut()[dest] |= 1u64 << (tag as u32 & 63);
        if let (Some(fs), Some(fl)) = (&self.shared.fault, &self.fault) {
            // Flush jitter: randomly force an early flush, perturbing frame
            // boundaries and therefore handler-batch interleavings.
            let nth = {
                let mut fl = fl.borrow_mut();
                let nth = fl.send_count[dest];
                fl.send_count[dest] += 1;
                nth
            };
            // Counted whenever the decision fires, even if the threshold
            // flushes this send anyway: whether the buffer is full here
            // depends on when the last poll flushed it, so counting only
            // the early flushes made the count schedule-dependent.
            if fs.plan.jitter_flush(self.rank, dest, nth) {
                FaultCounters::bump(&fs.counters.jittered_flushes);
                flush_now = true;
            }
        }
        if flush_now {
            self.flush(dest);
        }
    }

    /// Flush one destination buffer into its channel. This is the one
    /// place a [`TraceCtx`] is minted: retransmits and duplicates reuse
    /// the context frozen here.
    fn flush(&self, dest: usize) {
        let (frame, tags) = {
            let mut out = self.out.borrow_mut();
            if out[dest].is_empty() {
                return;
            }
            let tags = std::mem::take(&mut self.pending_tags.borrow_mut()[dest]);
            (out[dest].split().freeze(), tags)
        };
        let ctx = {
            let mut seqs = self.flow_seq.borrow_mut();
            let ctx = TraceCtx {
                origin: self.rank as u32,
                parent_span: self.phase_idx.get(),
                send_seq: seqs[dest],
            };
            seqs[dest] += 1;
            ctx
        };
        if let Some(t) = self.tracer() {
            let now = self.now_ns();
            t.instant(self.rank, "flush", now, frame.len() as u64);
            t.hist("flush_bytes").record(frame.len() as u64);
            if t.flows_enabled() {
                // One origin event per distinct tag in the frame; the
                // receiver recomputes the same ids from the carried ctx.
                for tag in tag_bits(tags) {
                    t.flow_send(self.rank, "flow", now, flow_id(tag, ctx, dest), tag as u64);
                }
            }
        }
        match &self.fault {
            None => {
                // Channel is unbounded; send only fails if the world is
                // shutting down, which cannot happen while any Comm is alive.
                self.shared.senders[dest]
                    .send(Packet {
                        src: self.rank,
                        seq: 0,
                        attempt: 0,
                        ctx,
                        bytes: frame,
                    })
                    .expect("world channel closed while rank alive");
            }
            Some(fl) => {
                // Reliable delivery: number the frame on this edge and
                // retain it until the destination's delivered-state (the
                // shared-memory ack) covers it.
                let seq = {
                    let mut fl = fl.borrow_mut();
                    let seq = fl.next_seq[dest];
                    fl.next_seq[dest] += 1;
                    // Grace of two epochs: a fault-free frame flushed at
                    // epoch e is dispatched by the receiver in round e+1
                    // and its ack is visible to the pump at e+2, so a
                    // clean run never retransmits spuriously.
                    let next_retry = fl.epoch + 2;
                    fl.unacked[dest].insert(
                        seq,
                        UnackedFrame {
                            bytes: frame.clone(),
                            ctx,
                            attempt: 0,
                            next_retry,
                            forced: false,
                        },
                    );
                    seq
                };
                self.transmit(dest, seq, frame, ctx, 0);
            }
        }
    }

    /// Put one delivery attempt of frame `(self.rank -> dest, seq)` on the
    /// wire, applying drop and duplication faults. Fault mode only. `ctx`
    /// is the frame's original mint-time context, whatever the attempt.
    fn transmit(&self, dest: usize, seq: u64, bytes: Bytes, ctx: TraceCtx, attempt: u32) {
        let fs = self.shared.fault.as_ref().expect("transmit without faults");
        if fs.plan.drop_frame(self.rank, dest, seq, attempt) {
            FaultCounters::bump(&fs.counters.dropped);
            return; // the retransmit pump will try again next epoch
        }
        let pkt = Packet {
            src: self.rank,
            seq,
            attempt,
            ctx,
            bytes,
        };
        if fs.plan.duplicate_frame(self.rank, dest, seq, attempt) {
            FaultCounters::bump(&fs.counters.duplicated);
            // The duplicate consumes real link capacity: charge transport-
            // level (phase) counters without touching application per-tag
            // stats.
            self.shared
                .stats
                .record_transport(self.rank, dest, pkt.bytes.len());
            self.shared.senders[dest]
                .send(pkt.clone())
                .expect("world channel closed while rank alive");
        }
        self.shared.senders[dest]
            .send(pkt)
            .expect("world channel closed while rank alive");
    }

    /// Handle one received packet. Fault mode: dedup against the edge's
    /// delivered-state, possibly park it in the delay inbox; otherwise
    /// dispatch. Returns messages handled.
    fn receive_packet(&self, pkt: Packet) -> usize {
        let Some(fs) = &self.shared.fault else {
            let ctx = pkt.ctx;
            return self.dispatch_block(pkt.bytes, Some(ctx));
        };
        let edge = fs.edge(pkt.src, self.rank, self.n_ranks());
        if edge.is_delivered(pkt.seq) {
            // Injected duplicate or a retransmit that raced its ack. Without
            // this check the frame's messages would be handled twice AND
            // `processed` would overrun `sent`, wedging termination
            // detection (see the regression test in tests/fault_injection.rs).
            FaultCounters::bump(&fs.counters.dedup_discards);
            return 0;
        }
        let delay = fs
            .plan
            .delay_epochs(pkt.src, self.rank, pkt.seq, pkt.attempt);
        if delay > 0 {
            FaultCounters::bump(&fs.counters.delayed);
            // The frame sits on the (virtual) wire for `delay` epochs;
            // charge the receiving rank so sim-time reflects the fault.
            self.shared
                .stats
                .charge_fault(self.rank, self.shared.cost.delay_cost_ns(delay));
            let fl = self.fault.as_ref().unwrap();
            let mut fl = fl.borrow_mut();
            let release = fl.epoch + delay as u64;
            fl.inbox.push((release, pkt));
            return 0;
        }
        self.deliver_packet(pkt)
    }

    /// Mark a packet delivered on its edge and dispatch its messages.
    /// This is the exactly-once point under faults — dedup upstream
    /// guarantees one delivery per `(edge, seq)`, so the flow-recv events
    /// emitted by the dispatch pair 1:1 with mint-time flow-send events.
    fn deliver_packet(&self, pkt: Packet) -> usize {
        let fs = self.shared.fault.as_ref().expect("deliver without faults");
        fs.edge(pkt.src, self.rank, self.n_ranks())
            .mark_delivered(pkt.seq);
        let ctx = pkt.ctx;
        self.dispatch_block(pkt.bytes, Some(ctx))
    }

    /// Drive the reliable-delivery layer one step: release matured delayed
    /// frames, drop acked frames from the retransmit window, and retransmit
    /// overdue ones with capped exponential backoff (in epochs). Returns
    /// messages handled. Fault mode only; no-op otherwise.
    fn pump_transport(&self) -> usize {
        let (Some(fs), Some(fl_cell)) = (&self.shared.fault, &self.fault) else {
            return 0;
        };
        let n = self.n_ranks();
        let epoch = fl_cell.borrow().epoch;
        let mut handled = 0;

        // Release delayed frames whose epoch has come (re-checking dedup:
        // a retransmit may have been delivered while this copy was parked).
        loop {
            let pkt = {
                let mut fl = fl_cell.borrow_mut();
                match fl.inbox.iter().position(|(release, _)| *release <= epoch) {
                    Some(i) => fl.inbox.swap_remove(i).1,
                    None => break,
                }
            };
            if fs.edge(pkt.src, self.rank, n).is_delivered(pkt.seq) {
                FaultCounters::bump(&fs.counters.dedup_discards);
            } else {
                handled += self.deliver_packet(pkt);
            }
        }

        // Ack scan + retransmission. Retransmits reuse the stored
        // mint-time TraceCtx — never a fresh one.
        let mut resend: Vec<(usize, u64, Bytes, TraceCtx, u32)> = Vec::new();
        {
            let mut fl = fl_cell.borrow_mut();
            for dest in 0..n {
                let edge = fs.edge(self.rank, dest, n);
                fl.unacked[dest].retain(|seq, _| !edge.is_delivered(*seq));
                for (seq, frame) in fl.unacked[dest].iter_mut() {
                    if frame.next_retry > epoch {
                        continue;
                    }
                    frame.attempt += 1;
                    if frame.attempt >= fs.plan.profile.max_faulty_attempts && !frame.forced {
                        frame.forced = true;
                        FaultCounters::bump(&fs.counters.forced_deliveries);
                    }
                    // Backoff 2, 4, 8, 8, ... epochs (same two-epoch floor
                    // as the initial send, so in-flight attempts are not
                    // re-sent before their ack can possibly arrive).
                    frame.next_retry = epoch + (1u64 << frame.attempt.min(3)).max(2);
                    resend.push((dest, *seq, frame.bytes.clone(), frame.ctx, frame.attempt));
                }
            }
        }
        for (dest, seq, bytes, ctx, attempt) in resend {
            FaultCounters::bump(&fs.counters.retransmits);
            self.shared
                .stats
                .record_transport(self.rank, dest, bytes.len());
            self.transmit(dest, seq, bytes, ctx, attempt);
        }
        handled
    }

    /// Whether stall injection sidelines this rank for the current epoch
    /// (it flushes its own sends but dispatches nothing). Charged once per
    /// stalled epoch.
    fn stalled_this_epoch(&self) -> bool {
        let (Some(fs), Some(fl_cell)) = (&self.shared.fault, &self.fault) else {
            return false;
        };
        let mut fl = fl_cell.borrow_mut();
        let epoch = fl.epoch;
        if !fs.plan.stall(self.rank, epoch) {
            return false;
        }
        if fl.stall_counted != Some(epoch) {
            fl.stall_counted = Some(epoch);
            FaultCounters::bump(&fs.counters.stalls);
            self.shared
                .stats
                .charge_fault(self.rank, self.shared.cost.delay_cost_ns(1));
        }
        true
    }

    /// Advance this rank's sync epoch by one. Called once per non-quiescent
    /// barrier round; rounds are collectively synchronized, so every rank's
    /// epoch agrees without shared state.
    fn bump_epoch(&self) {
        if let Some(fl) = &self.fault {
            fl.borrow_mut().epoch += 1;
        }
    }

    /// Flush all destination buffers.
    pub fn flush_all(&self) {
        for dest in 0..self.n_ranks() {
            self.flush(dest);
        }
    }

    /// Decode and dispatch every frame in `block`, returning frames handled.
    /// `ctx` is the block's carried causal context (None only for blocks
    /// that never crossed the transport); flow-recv events are emitted per
    /// distinct tag, inside the dispatch span, exactly once per delivery.
    fn dispatch_block(&self, mut block: Bytes, ctx: Option<TraceCtx>) -> usize {
        let traced = self.tracer().is_some();
        if traced {
            self.trace_begin_arg("dispatch", block.remaining() as u64);
        }
        let mut n = 0;
        let mut tags_seen: u64 = 0;
        while block.has_remaining() {
            let tag = block.get_u16_le();
            tags_seen |= 1u64 << (tag as u32 & 63);
            let len = block.get_u32_le() as usize;
            let payload = block.split_to(len);
            {
                let mut handlers = self.handlers.borrow_mut();
                let slot = handlers[tag as usize]
                    .as_mut()
                    .unwrap_or_else(|| panic!("no handler registered for tag {tag}"));
                // SAFETY-free re-entrancy note: the handler receives `&Comm`
                // and may async_send (touches `out`, not `handlers`). A
                // handler calling poll/barrier/register would re-borrow
                // `handlers` and panic, which is the documented contract.
                slot(self, payload);
            }
            n += 1;
        }
        self.processed.set(self.processed.get() + n as u64);
        if traced {
            if let (Some(t), Some(ctx)) = (self.tracer(), ctx) {
                if t.flows_enabled() {
                    let now = self.now_ns();
                    for tag in tag_bits(tags_seen) {
                        t.flow_recv(
                            self.rank,
                            "flow",
                            now,
                            flow_id(tag, ctx, self.rank),
                            tag as u64,
                        );
                    }
                }
            }
            self.trace_end("dispatch");
        }
        n
    }

    /// Process every message currently queued for this rank (including
    /// messages generated by handlers during this call). Returns the number
    /// of messages handled. Never blocks.
    pub fn poll(&self) -> usize {
        if self.stalled_this_epoch() {
            // A stalled rank still flushes its own buffered sends (so peers
            // are not starved) but dispatches nothing this epoch.
            self.flush_all();
            return 0;
        }
        let mut total = 0;
        loop {
            self.flush_all();
            let mut got = self.pump_transport();
            while let Ok(pkt) = self.rx.try_recv() {
                got += self.receive_packet(pkt);
            }
            total += got;
            if got == 0 {
                return total;
            }
        }
    }

    /// Global barrier with termination detection: returns once all ranks
    /// have entered the barrier and no message is buffered, in flight, or
    /// being handled anywhere in the world. Advances the virtual clock by
    /// the completed phase's makespan.
    pub fn barrier(&self) {
        self.sample_gauges();
        self.trace_begin("barrier");
        let mut rounds: u64 = 0;
        loop {
            self.poll();
            self.fold_counters();
            self.shared.barrier.wait();
            // Between the two waits no rank sends or processes, so the
            // counters are stable and every rank reads the same values.
            let quiescent = self.shared.sent.load(Ordering::SeqCst)
                == self.shared.processed.load(Ordering::SeqCst);
            let leader = self.shared.barrier.wait();
            if quiescent {
                if leader {
                    self.shared.clock.advance_phase(
                        &self.shared.stats,
                        &self.shared.cost,
                        self.shared.n_ranks,
                    );
                    self.shared.stats.reset_phase();
                }
                self.shared.barrier.wait();
                // The leader advanced the clock, so this span's virtual
                // duration is exactly the completed phase's makespan.
                self.trace_end("barrier");
                self.phase_idx.set(self.phase_idx.get() + 1);
                return;
            }
            // Non-quiescent round: messages are still parked in delay
            // inboxes or retransmit windows. Advance the sync epoch (lock-
            // step on every rank — all ranks observed the same counters)
            // so delays mature and backoffs fire, then go around again.
            rounds += 1;
            self.bump_epoch();
            if let Some(fs) = &self.shared.fault {
                if rounds >= STORM_ROUNDS {
                    panic!(
                        "fault-sim storm: barrier failed to quiesce after {rounds} rounds; \
                         replay with --sim-seed {}",
                        fs.plan.sim_seed
                    );
                }
            }
        }
    }

    /// Publish this rank's sends and dispatches since the last fold into
    /// the world's [`crate::Stats`] and termination counters. Runs at
    /// barrier entry, after the round's poll and before its first wait, so
    /// every rank's deltas are in before the quiescence check and before
    /// the leader closes the phase.
    fn fold_counters(&self) {
        let sent = self
            .shared
            .stats
            .fold(self.rank, &mut self.sends.borrow_mut());
        if sent > 0 {
            self.shared.sent.fetch_add(sent, Ordering::SeqCst);
        }
        let processed = self.processed.replace(0);
        if processed > 0 {
            self.shared.processed.fetch_add(processed, Ordering::SeqCst);
        }
    }

    /// Charge `ns` nanoseconds of virtual compute time to this rank's
    /// current phase.
    #[inline]
    pub fn charge_compute(&self, ns: u64) {
        self.shared.stats.charge_compute(self.rank, ns);
    }

    /// Charge the virtual cost of one distance evaluation over `dim`-element
    /// vectors.
    #[inline]
    pub fn charge_distance(&self, dim: usize) {
        self.charge_compute(self.shared.cost.distance_cost_ns(dim));
    }

    /// The world's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.shared.cost
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.shared.clock.now_ns()
    }

    /// Running count of reliable-delivery retransmits world-wide; always 0
    /// without a fault plan. Stable (and identical on every rank) when read
    /// right after a barrier, so SPMD code may branch on it — the serving
    /// layer uses the per-window delta to charge retransmit recovery
    /// against query latency.
    pub fn fault_retransmits(&self) -> u64 {
        self.shared
            .fault
            .as_ref()
            .map_or(0, |f| f.counters.retransmits.load(Ordering::SeqCst))
    }

    /// Whether this world runs under a fault plan with a hostile profile.
    pub fn fault_active(&self) -> bool {
        self.shared
            .fault
            .as_ref()
            .is_some_and(|f| f.plan.profile.is_hostile())
    }

    // ---- Collectives -----------------------------------------------------
    //
    // Small fixed-size collectives use shared-memory scratch cells rather
    // than the message path (a real MPI implementation would use optimized
    // collectives too). They charge the virtual clock a log2(P) latency.
    // SPMD: all ranks must call the same collective at the same point.
    //
    // The leader's scratch reset and clock advance happen *between* the
    // last two waits, so by the time any rank returns the clock is stable:
    // virtual timestamps sampled anywhere outside a collective are
    // identical run to run (required for deterministic trace export).

    /// Sum `v` across all ranks; every rank receives the total.
    pub fn all_reduce_sum_u64(&self, v: u64) -> u64 {
        let s = &self.shared;
        self.trace_begin("all_reduce");
        s.barrier.wait(); // entry
        s.reduce_u64.fetch_add(v, Ordering::SeqCst);
        s.barrier.wait(); // all contributions in
        let r = s.reduce_u64.load(Ordering::SeqCst);
        let leader = s.barrier.wait(); // all reads done
        if leader {
            s.reduce_u64.store(0, Ordering::SeqCst);
            s.clock.advance_collective(&s.cost, s.n_ranks);
        }
        s.barrier.wait(); // retire: reset + clock advance visible everywhere
        self.trace_end("all_reduce");
        r
    }

    /// Max of `v` across all ranks.
    pub fn all_reduce_max_u64(&self, v: u64) -> u64 {
        let s = &self.shared;
        self.trace_begin("all_reduce");
        s.barrier.wait();
        s.reduce_u64.fetch_max(v, Ordering::SeqCst);
        s.barrier.wait();
        let r = s.reduce_u64.load(Ordering::SeqCst);
        let leader = s.barrier.wait();
        if leader {
            s.reduce_u64.store(0, Ordering::SeqCst);
            s.clock.advance_collective(&s.cost, s.n_ranks);
        }
        s.barrier.wait();
        self.trace_end("all_reduce");
        r
    }

    /// Sum `v` (f64) across all ranks.
    pub fn all_reduce_sum_f64(&self, v: f64) -> f64 {
        let s = &self.shared;
        self.trace_begin("all_reduce");
        s.barrier.wait();
        *s.reduce_f64.lock() += v;
        s.barrier.wait();
        let r = *s.reduce_f64.lock();
        let leader = s.barrier.wait();
        if leader {
            *s.reduce_f64.lock() = 0.0;
            s.clock.advance_collective(&s.cost, s.n_ranks);
        }
        s.barrier.wait();
        self.trace_end("all_reduce");
        r
    }

    /// Broadcast `data` from `root` to all ranks.
    pub fn broadcast_bytes(&self, root: usize, data: Option<Bytes>) -> Bytes {
        let s = &self.shared;
        self.trace_begin("broadcast");
        s.barrier.wait();
        if self.rank == root {
            *s.bcast.lock() = Some(data.expect("root must supply broadcast payload"));
        }
        s.barrier.wait();
        let r = s.bcast.lock().clone().expect("broadcast payload missing");
        let leader = s.barrier.wait();
        if leader {
            *s.bcast.lock() = None;
            s.clock.advance_collective(&s.cost, s.n_ranks);
        }
        s.barrier.wait();
        self.trace_end("broadcast");
        r
    }

    /// Broadcast a `Wire` value from `root`.
    pub fn broadcast<M: Wire>(&self, root: usize, value: Option<&M>) -> M {
        let payload = value.map(crate::codec::encode_to_bytes);
        let bytes = self.broadcast_bytes(root, payload);
        crate::codec::decode_from_bytes(bytes)
    }
}

/// RAII guard returned by [`Comm::trace_span`]; closes the span (with the
/// virtual clock sampled at drop time) when it goes out of scope.
pub struct TraceSpan<'a> {
    comm: &'a Comm,
    name: &'static str,
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        self.comm.trace_end(self.name);
    }
}
