//! Communication statistics.
//!
//! Two families of counters are maintained:
//!
//! * **Cumulative per-tag counters** — message count and byte volume per
//!   message tag, for the whole run. These are the quantities reported in the
//!   paper's Figure 4 (Type 1 / Type 2 / Type 2+ / Type 3 messages during the
//!   neighbor-check phase).
//! * **Per-rank phase counters** — compute nanoseconds charged and
//!   remote traffic (messages/bytes in and out) since the last barrier.
//!   The virtual clock consumes these at every barrier to advance simulated
//!   time by the phase makespan (see [`crate::cost`]).
//!
//! "Remote" traffic means `source != destination`; rank-local messages are
//! counted in the per-tag totals (they are real work for the handler) but do
//! not contribute network cost, mirroring shared-memory delivery inside one
//! node.
//!
//! A send touches no shared memory: it bumps its rank's private
//! `SendLog`, and the rank folds the log into [`Stats`] at barrier entry
//! (`Stats::fold`). Between barriers the shared per-tag, matrix and
//! phase-traffic counters therefore lag the truth; at every barrier (and
//! so in every [`crate::PhaseRecord`] and [`crate::WorldReport`]) they are
//! exact.

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of distinct message tags a world supports.
pub const MAX_TAGS: usize = 64;

/// One tag's rank×rank traffic counts, row-major (`[src * n_ranks + dest]`).
///
/// The diagonal (rank-local sends) is included, so each tag's cells sum to
/// that tag's cumulative [`TagStats::count`] / [`TagStats::bytes`] — the
/// invariant the report layer asserts. Transport-level retransmits and
/// duplicates are *not* in the matrix, matching their exclusion from the
/// per-tag totals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TagMatrix {
    pub tag: u16,
    pub name: String,
    pub counts: Vec<u64>,
    pub bytes: Vec<u64>,
}

/// The full rank×rank×tag traffic matrix of a run; tags with no traffic
/// are omitted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrafficMatrix {
    pub n_ranks: usize,
    pub tags: Vec<TagMatrix>,
}

/// A snapshot of the cumulative counters for one message tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagStats {
    /// Total messages sent with this tag (local + remote).
    pub count: u64,
    /// Total payload + frame header bytes sent with this tag.
    pub bytes: u64,
    /// Messages sent to a different rank.
    pub remote_count: u64,
    /// Bytes sent to a different rank.
    pub remote_bytes: u64,
}

/// Per-rank counters accumulated between two barriers.
#[derive(Debug, Default)]
pub(crate) struct PhaseCounters {
    pub compute_ns: AtomicU64,
    pub msgs_out: AtomicU64,
    pub bytes_out: AtomicU64,
    pub msgs_in: AtomicU64,
    pub bytes_in: AtomicU64,
    /// Transport-level traffic (retransmits, duplicates) kept separate from
    /// the application counters so the critical-path analyzer can attribute
    /// retransmit time distinctly. The clock sums app + transport, so the
    /// split never changes phase totals.
    pub tr_msgs_out: AtomicU64,
    pub tr_bytes_out: AtomicU64,
    pub tr_msgs_in: AtomicU64,
    pub tr_bytes_in: AtomicU64,
    /// Virtual nanoseconds this rank lost to injected faults (frame delays,
    /// stalls) since the last barrier. Folded into the phase makespan's
    /// communication share so sim-time stays meaningful under fault runs.
    pub fault_ns: AtomicU64,
}

impl PhaseCounters {
    fn reset(&self) {
        self.compute_ns.store(0, Ordering::Relaxed);
        self.msgs_out.store(0, Ordering::Relaxed);
        self.bytes_out.store(0, Ordering::Relaxed);
        self.msgs_in.store(0, Ordering::Relaxed);
        self.bytes_in.store(0, Ordering::Relaxed);
        self.tr_msgs_out.store(0, Ordering::Relaxed);
        self.tr_bytes_out.store(0, Ordering::Relaxed);
        self.tr_msgs_in.store(0, Ordering::Relaxed);
        self.tr_bytes_in.store(0, Ordering::Relaxed);
        self.fault_ns.store(0, Ordering::Relaxed);
    }
}

/// Panic unless `tag` indexes the world's tag table.
#[inline]
pub(crate) fn check_tag(tag: u16) {
    assert!(
        (tag as usize) < MAX_TAGS,
        "message tag {tag} out of range (MAX_TAGS = {MAX_TAGS})"
    );
}

/// One rank's application sends since its last fold: messages and bytes
/// (frame header included) per `(tag, destination)`. Plain integers owned
/// by the sending rank, so [`crate::Comm::async_send`] costs no atomic and
/// no shared cache line; [`Stats::fold`] moves them into the world's
/// counters at barrier entry.
pub(crate) struct SendLog {
    n_ranks: usize,
    /// `tag * n_ranks + dest`.
    count: Box<[u64]>,
    bytes: Box<[u64]>,
    /// One past the highest tag logged since the last fold.
    high_water: usize,
}

impl SendLog {
    pub(crate) fn new(n_ranks: usize) -> Self {
        SendLog {
            n_ranks,
            count: vec![0; MAX_TAGS * n_ranks].into_boxed_slice(),
            bytes: vec![0; MAX_TAGS * n_ranks].into_boxed_slice(),
            high_water: 0,
        }
    }

    /// Log one sent message. `bytes` includes the frame header. Panics on
    /// an out-of-range tag, at the send that used it.
    #[inline]
    pub(crate) fn record(&mut self, tag: u16, bytes: usize, dest: usize) {
        check_tag(tag);
        let t = tag as usize;
        let cell = t * self.n_ranks + dest;
        self.count[cell] += 1;
        self.bytes[cell] += bytes as u64;
        self.high_water = self.high_water.max(t + 1);
    }
}

/// Shared statistics block for a world. Sends reach it only through
/// `Stats::fold`, once per rank per barrier round, so its counters are
/// exact at barriers and stale in between; phase compute charges and
/// transport-level traffic are still added as they happen.
pub struct Stats {
    n_ranks: usize,
    /// Per-tag totals. Unpadded, like every counter a send reaches: they
    /// are written once per rank per barrier round, by the fold.
    tag_count: Box<[AtomicU64]>,
    tag_bytes: Box<[AtomicU64]>,
    tag_remote_count: Box<[AtomicU64]>,
    tag_remote_bytes: Box<[AtomicU64]>,
    /// Rank×rank×tag traffic cells, `(tag * n + src) * n + dest`.
    matrix_count: Box<[AtomicU64]>,
    matrix_bytes: Box<[AtomicU64]>,
    tag_names: Mutex<HashMap<u16, String>>,
    /// One past the highest tag index ever used (sent, registered, or
    /// named). Lets full-table scans stop at the tags actually in play
    /// instead of walking all `MAX_TAGS` slots.
    tag_high_water: AtomicU64,
    /// Padded per rank: each rank charges its own `compute_ns` as it
    /// evaluates distances.
    pub(crate) phase: Box<[CachePadded<PhaseCounters>]>,
}

fn atomic_array(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl Stats {
    pub(crate) fn new(n_ranks: usize) -> Self {
        let cells = MAX_TAGS * n_ranks * n_ranks;
        Stats {
            n_ranks,
            tag_count: atomic_array(MAX_TAGS),
            tag_bytes: atomic_array(MAX_TAGS),
            tag_remote_count: atomic_array(MAX_TAGS),
            tag_remote_bytes: atomic_array(MAX_TAGS),
            matrix_count: atomic_array(cells),
            matrix_bytes: atomic_array(cells),
            tag_names: Mutex::new(HashMap::new()),
            tag_high_water: AtomicU64::new(0),
            phase: (0..n_ranks)
                .map(|_| CachePadded::new(PhaseCounters::default()))
                .collect(),
        }
    }

    /// Record that `tag` is in play, bumping the high-water mark. Called at
    /// handler registration and tag naming; sends raise it at their fold.
    pub(crate) fn mark_tag_used(&self, tag: u16) {
        check_tag(tag);
        self.tag_high_water
            .fetch_max(tag as u64 + 1, Ordering::Relaxed);
    }

    /// One past the highest tag index in use.
    fn high_water(&self) -> usize {
        self.tag_high_water.load(Ordering::Relaxed) as usize
    }

    /// Move rank `src`'s logged sends into the per-tag totals, the traffic
    /// matrix and the current phase's traffic counters, leaving `log`
    /// empty. Returns the number of messages folded.
    ///
    /// Called by each rank at barrier entry, after its last poll of the
    /// round and before the barrier's first wait. The adds are `Relaxed`:
    /// the wait orders them before every read — the quiescence check, the
    /// leader's [`crate::VirtualClock::advance_phase`] and the final
    /// report.
    pub(crate) fn fold(&self, src: usize, log: &mut SendLog) -> u64 {
        let n = self.n_ranks;
        let mut folded = 0;
        let (mut out_msgs, mut out_bytes) = (0, 0);
        for t in 0..log.high_water {
            let (mut count, mut bytes, mut remote_count, mut remote_bytes) = (0, 0, 0, 0);
            for dest in 0..n {
                let cell = t * n + dest;
                let (c, b) = (log.count[cell], log.bytes[cell]);
                if c == 0 {
                    continue;
                }
                log.count[cell] = 0;
                log.bytes[cell] = 0;
                count += c;
                bytes += b;
                let m = (t * n + src) * n + dest;
                self.matrix_count[m].fetch_add(c, Ordering::Relaxed);
                self.matrix_bytes[m].fetch_add(b, Ordering::Relaxed);
                if dest != src {
                    remote_count += c;
                    remote_bytes += b;
                    let pd = &self.phase[dest];
                    pd.msgs_in.fetch_add(c, Ordering::Relaxed);
                    pd.bytes_in.fetch_add(b, Ordering::Relaxed);
                }
            }
            if count == 0 {
                continue;
            }
            folded += count;
            self.tag_count[t].fetch_add(count, Ordering::Relaxed);
            self.tag_bytes[t].fetch_add(bytes, Ordering::Relaxed);
            self.tag_remote_count[t].fetch_add(remote_count, Ordering::Relaxed);
            self.tag_remote_bytes[t].fetch_add(remote_bytes, Ordering::Relaxed);
            out_msgs += remote_count;
            out_bytes += remote_bytes;
        }
        if log.high_water > 0 {
            self.tag_high_water
                .fetch_max(log.high_water as u64, Ordering::Relaxed);
            log.high_water = 0;
        }
        let ps = &self.phase[src];
        ps.msgs_out.fetch_add(out_msgs, Ordering::Relaxed);
        ps.bytes_out.fetch_add(out_bytes, Ordering::Relaxed);
        folded
    }

    /// Charge `ns` nanoseconds of (virtual) compute time to `rank`.
    #[inline]
    pub(crate) fn charge_compute(&self, rank: usize, ns: u64) {
        self.phase[rank].compute_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record transport-level traffic (a retransmitted or duplicated frame)
    /// in the transport phase counters only: it consumes link capacity and so
    /// must charge virtual time, but it is not application traffic and must
    /// not distort the per-tag message statistics. The clock folds these into
    /// the same makespan as application traffic; keeping them in their own
    /// cells lets the critical-path analyzer attribute retransmit time.
    #[inline]
    pub(crate) fn record_transport(&self, src: usize, dest: usize, bytes: usize) {
        if src == dest {
            return;
        }
        let ps = &self.phase[src];
        ps.tr_msgs_out.fetch_add(1, Ordering::Relaxed);
        ps.tr_bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
        let pd = &self.phase[dest];
        pd.tr_msgs_in.fetch_add(1, Ordering::Relaxed);
        pd.tr_bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Charge `ns` nanoseconds of injected-fault time (delay, stall) to
    /// `rank`'s current phase.
    #[inline]
    pub(crate) fn charge_fault(&self, rank: usize, ns: u64) {
        self.phase[rank].fault_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn reset_phase(&self) {
        for p in self.phase.iter() {
            p.reset();
        }
    }

    /// Give a human-readable name to a tag for reports.
    pub fn name_tag(&self, tag: u16, name: &str) {
        self.mark_tag_used(tag);
        self.tag_names.lock().insert(tag, name.to_owned());
    }

    /// The registered name of `tag`, or `"tag<N>"`.
    pub fn tag_name(&self, tag: u16) -> String {
        self.tag_names
            .lock()
            .get(&tag)
            .cloned()
            .unwrap_or_else(|| format!("tag{tag}"))
    }

    /// Cumulative counters for one tag.
    pub fn tag(&self, tag: u16) -> TagStats {
        let t = tag as usize;
        TagStats {
            count: self.tag_count[t].load(Ordering::Relaxed),
            bytes: self.tag_bytes[t].load(Ordering::Relaxed),
            remote_count: self.tag_remote_count[t].load(Ordering::Relaxed),
            remote_bytes: self.tag_remote_bytes[t].load(Ordering::Relaxed),
        }
    }

    /// Sum of all per-tag counters.
    pub fn total(&self) -> TagStats {
        let mut out = TagStats::default();
        for t in 0..self.high_water() as u16 {
            let s = self.tag(t);
            out.count += s.count;
            out.bytes += s.bytes;
            out.remote_count += s.remote_count;
            out.remote_bytes += s.remote_bytes;
        }
        out
    }

    /// All tags that have recorded at least one message, with names.
    pub fn nonzero_tags(&self) -> Vec<(u16, String, TagStats)> {
        (0..self.high_water() as u16)
            .filter_map(|t| {
                let s = self.tag(t);
                (s.count > 0).then(|| (t, self.tag_name(t), s))
            })
            .collect()
    }

    /// Snapshot the rank×rank traffic matrix for every tag that has sent
    /// at least one message.
    pub fn matrix(&self) -> TrafficMatrix {
        let n = self.n_ranks;
        let mut tags = Vec::new();
        for t in 0..self.high_water() {
            if self.tag_count[t].load(Ordering::Relaxed) == 0 {
                continue;
            }
            let base = t * n * n;
            let load = |cells: &[AtomicU64]| -> Vec<u64> {
                cells[base..base + n * n]
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect()
            };
            tags.push(TagMatrix {
                tag: t as u16,
                name: self.tag_name(t as u16),
                counts: load(&self.matrix_count),
                bytes: load(&self.matrix_bytes),
            });
        }
        TrafficMatrix { n_ranks: n, tags }
    }
}

#[cfg(test)]
impl Stats {
    /// Log one send from `src` and fold it straight away, as a barrier
    /// would.
    pub(crate) fn fold_one(&self, tag: u16, bytes: usize, src: usize, dest: usize) {
        let mut log = SendLog::new(self.n_ranks);
        log.record(tag, bytes, dest);
        assert_eq!(self.fold(src, &mut log), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_accumulates_per_tag() {
        let s = Stats::new(4);
        s.fold_one(3, 100, 0, 1);
        s.fold_one(3, 50, 1, 1); // local: no remote accounting
        s.fold_one(5, 10, 2, 3);
        let t3 = s.tag(3);
        assert_eq!(t3.count, 2);
        assert_eq!(t3.bytes, 150);
        assert_eq!(t3.remote_count, 1);
        assert_eq!(t3.remote_bytes, 100);
        let total = s.total();
        assert_eq!(total.count, 3);
        assert_eq!(total.bytes, 160);
    }

    #[test]
    fn phase_counters_track_in_and_out() {
        let s = Stats::new(2);
        s.fold_one(0, 64, 0, 1);
        assert_eq!(s.phase[0].msgs_out.load(Ordering::Relaxed), 1);
        assert_eq!(s.phase[0].bytes_out.load(Ordering::Relaxed), 64);
        assert_eq!(s.phase[1].msgs_in.load(Ordering::Relaxed), 1);
        assert_eq!(s.phase[1].bytes_in.load(Ordering::Relaxed), 64);
        s.reset_phase();
        assert_eq!(s.phase[0].msgs_out.load(Ordering::Relaxed), 0);
        assert_eq!(s.phase[1].bytes_in.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn transport_traffic_lands_in_its_own_cells() {
        let s = Stats::new(2);
        s.fold_one(0, 64, 0, 1);
        s.record_transport(0, 1, 100); // retransmit of the same frame
        s.record_transport(1, 1, 999); // local: ignored entirely
        assert_eq!(s.phase[0].msgs_out.load(Ordering::Relaxed), 1);
        assert_eq!(s.phase[0].bytes_out.load(Ordering::Relaxed), 64);
        assert_eq!(s.phase[0].tr_msgs_out.load(Ordering::Relaxed), 1);
        assert_eq!(s.phase[0].tr_bytes_out.load(Ordering::Relaxed), 100);
        assert_eq!(s.phase[1].tr_msgs_in.load(Ordering::Relaxed), 1);
        assert_eq!(s.phase[1].tr_bytes_in.load(Ordering::Relaxed), 100);
        s.reset_phase();
        assert_eq!(s.phase[0].tr_msgs_out.load(Ordering::Relaxed), 0);
        assert_eq!(s.phase[1].tr_bytes_in.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn tag_names_default_and_custom() {
        let s = Stats::new(1);
        assert_eq!(s.tag_name(7), "tag7");
        s.name_tag(7, "type1_check");
        assert_eq!(s.tag_name(7), "type1_check");
    }

    #[test]
    fn nonzero_tags_lists_only_used() {
        let s = Stats::new(2);
        s.fold_one(1, 8, 0, 1);
        s.fold_one(4, 8, 0, 1);
        let tags: Vec<u16> = s.nonzero_tags().into_iter().map(|(t, _, _)| t).collect();
        assert_eq!(tags, vec![1, 4]);
    }

    #[test]
    fn high_water_bounds_scans() {
        let s = Stats::new(2);
        assert_eq!(s.high_water(), 0);
        s.fold_one(5, 8, 0, 1);
        assert_eq!(s.high_water(), 6);
        s.name_tag(9, "late"); // naming alone also raises the mark
        assert_eq!(s.high_water(), 10);
        s.fold_one(2, 8, 0, 1);
        assert_eq!(s.high_water(), 10); // monotone
        assert_eq!(s.total().count, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tag_is_a_hard_error() {
        SendLog::new(1).record(MAX_TAGS as u16, 8, 0);
    }

    #[test]
    fn fold_moves_a_whole_log_and_empties_it() {
        let s = Stats::new(3);
        let mut log = SendLog::new(3);
        log.record(2, 10, 0);
        log.record(2, 20, 1);
        log.record(2, 30, 1);
        log.record(5, 7, 2);
        assert_eq!(s.total().count, 0, "sends stay rank-local until a fold");
        assert_eq!(s.fold(0, &mut log), 4);
        assert_eq!(s.fold(0, &mut log), 0, "a folded log is empty");
        let t2 = s.tag(2);
        assert_eq!((t2.count, t2.bytes), (3, 60));
        assert_eq!((t2.remote_count, t2.remote_bytes), (2, 50));
        assert_eq!(s.matrix().tags[0].counts, vec![1, 2, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(s.phase[0].msgs_out.load(Ordering::Relaxed), 3);
        assert_eq!(s.phase[0].bytes_out.load(Ordering::Relaxed), 57);
        assert_eq!(s.phase[1].msgs_in.load(Ordering::Relaxed), 2);
        assert_eq!(s.phase[2].bytes_in.load(Ordering::Relaxed), 7);
        assert_eq!(s.high_water(), 6);
    }

    #[test]
    fn matrix_cells_track_edges_including_diagonal() {
        let s = Stats::new(3);
        s.fold_one(2, 100, 0, 1);
        s.fold_one(2, 40, 0, 1);
        s.fold_one(2, 7, 1, 1); // local send lands on the diagonal
        s.fold_one(4, 9, 2, 0);
        let m = s.matrix();
        assert_eq!(m.n_ranks, 3);
        assert_eq!(m.tags.len(), 2);
        let t2 = &m.tags[0];
        assert_eq!(t2.tag, 2);
        assert_eq!(t2.counts, vec![0, 2, 0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(t2.bytes, vec![0, 140, 0, 0, 7, 0, 0, 0, 0]);
        assert_eq!(m.tags[1].counts[2 * 3], 1); // tag 4: (src 2, dest 0)
    }

    #[test]
    fn matrix_sums_equal_tag_totals() {
        // The invariant the report layer relies on: per-tag cell sums equal
        // the cumulative tag counters, and transport traffic stays out.
        let s = Stats::new(2);
        s.fold_one(1, 100, 0, 1);
        s.fold_one(1, 50, 1, 0);
        s.fold_one(1, 25, 0, 0);
        s.record_transport(0, 1, 999); // retransmit: phase counters only
        let m = s.matrix();
        let t1 = &m.tags[0];
        assert_eq!(t1.counts.iter().sum::<u64>(), s.tag(1).count);
        assert_eq!(t1.bytes.iter().sum::<u64>(), s.tag(1).bytes);
        assert_eq!(t1.bytes.iter().sum::<u64>(), 175);
        // Off-diagonal cells sum to the remote counters.
        let remote_bytes: u64 = (0..2)
            .flat_map(|s_| (0..2).map(move |d| (s_, d)))
            .filter(|(s_, d)| s_ != d)
            .map(|(s_, d)| t1.bytes[s_ * 2 + d])
            .sum();
        assert_eq!(remote_bytes, s.tag(1).remote_bytes);
    }

    #[test]
    fn compute_charge_accumulates() {
        let s = Stats::new(2);
        s.charge_compute(1, 500);
        s.charge_compute(1, 250);
        assert_eq!(s.phase[1].compute_ns.load(Ordering::Relaxed), 750);
    }
}
