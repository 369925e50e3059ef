//! The unified run report: one JSON document per run consolidating message
//! statistics, phase records, convergence trajectory, histograms, and
//! (for query runs) recall.
//!
//! All field types are local to `obs` so the crate stays dependency-free;
//! the binaries translate from `ygm`/engine types when filling one in.

use crate::critical_path::{CriticalPathSection, PhaseAttribution};
use crate::gate::{gated, metrics, Direction, Gate, Metric, MetricGroup, MetricValue, Presence};
use crate::hist::HistogramSnapshot;
use crate::json::JsonValue as J;
use crate::timeseries::{SeriesPoint, SeriesSnapshot};

/// Report schema version; bump on breaking layout changes.
///
/// v1: aggregates only (tags, totals, phases, convergence, histograms).
/// v2: adds continuous telemetry — per-rank `series` sampled on the
///     virtual clock and the rank×rank×tag traffic `matrix`.
/// v3: adds the optional `serving` section — online-serving SLO counters,
///     exact latency histogram, and the result digest (omitted for
///     non-serving runs, which keeps those documents v2-shaped).
/// v4: adds the optional `critical_path` section (happens-before
///     critical-path length, compute/comm/stall/retransmit attribution,
///     per-rank slack, straggler score) and the `dropped_spans` counter
///     (span-ring overflow). Older documents parse with both absent.
/// v5: adds the optional `rnn` section — RNN-Descent optimization-mode
///     parameters and per-round prune/add counters (omitted for runs that
///     did not use `--opt-mode rnn`). Older documents parse with it absent.
/// v6: adds the optional `query_forensics` section — per-query lifecycle
///     exemplars from the serving layer's deterministic tail-based
///     sampler, per-stage latency histograms, sampler counters, and the
///     section digest — plus `dropped_spans_per_rank` (per-rank ring
///     overflow, complementing the v4 total). Older documents parse with
///     the section absent and the per-rank vector empty.
/// v7: the serving section grows client-perceived latency
///     (`client_p50_ns`/`client_p99_ns`/`client_hist` — measured from each
///     query's *first* issue, so closed-loop retry time counts) and the
///     optional per-tenant SLO array `tenants` (omitted when the workload
///     declares no tenant classes); query-forensics exemplars gain a
///     `tenant` field. Older documents parse with zeros / empty vectors.
/// v8: adds the optional `vdb` section — vector-DB product-layer counters
///     from a namespaced serving run (per-namespace point/live/tombstone/
///     dead/epoch counters, online insert/delete/compaction totals, and
///     the filtered-query selectivity histogram). Omitted for runs without
///     a `--namespace`; older documents parse with it absent.
pub const SCHEMA_VERSION: u64 = 8;

/// Oldest schema this parser still accepts. v1 documents parse with empty
/// `series` and no `matrix`; v1/v2 documents parse with no `serving`.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// Per-message-tag traffic totals (mirrors `ygm`'s `TagStats` plus identity).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TagReport {
    pub tag: u64,
    pub name: String,
    pub count: u64,
    pub bytes: u64,
    pub remote_count: u64,
    pub remote_bytes: u64,
}

/// One barrier-to-barrier phase of virtual time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseReport {
    pub index: u64,
    pub compute_secs: f64,
    pub comm_secs: f64,
    pub barrier_secs: f64,
    pub msgs: u64,
    pub bytes: u64,
}

/// One NN-Descent iteration's convergence sample.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergencePoint {
    pub iteration: u64,
    /// Successful heap updates (the paper's `c` termination counter).
    pub updates: u64,
}

/// Summary statistics of one named histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistReport {
    pub name: String,
    pub count: u64,
    pub mean: f64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistReport {
    pub fn from_snapshot(name: &str, s: &HistogramSnapshot) -> Self {
        HistReport {
            name: name.to_string(),
            count: s.count,
            mean: s.mean(),
            min: s.min,
            max: s.max,
            p50: s.p50(),
            p95: s.p95(),
            p99: s.p99(),
        }
    }
}

/// Injected-fault and reliable-delivery counters from a simulation-tested
/// run (mirrors `ygm`'s `FaultReport`). Present only when the producing
/// world ran under a fault plan; the JSON key is omitted otherwise, which
/// keeps fault-free reports byte-identical to schema v1 documents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSection {
    /// Seed that replays this run's fault schedule (`--sim-seed`).
    pub sim_seed: u64,
    /// Fault profile name (`clean` / `lossy` / `stormy` / `custom`).
    pub profile: String,
    pub dropped: u64,
    pub duplicated: u64,
    pub delayed: u64,
    pub stalls: u64,
    pub jittered_flushes: u64,
    pub retransmits: u64,
    pub dedup_discards: u64,
    pub forced_deliveries: u64,
}

/// Online query-serving SLO telemetry (schema v3). Produced by the serving
/// engine; every counter and bucket is deterministic in the serve seed and
/// independent of the rank count, so the section doubles as the replay
/// fingerprint of a serving run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServingSection {
    /// Seed that replays this run's workload and every serving decision
    /// (`--serve-seed`).
    pub serve_seed: u64,
    /// Virtual duration of one serving slot, nanoseconds.
    pub slot_ns: u64,
    /// Serving slots executed (including the drain tail past the last
    /// arrival).
    pub slots: u64,
    /// Queries generated by the open-loop arrival process.
    pub offered: u64,
    /// Queries admitted to a frontend queue (offered − shed_overload
    /// − cache_hits, before deadline shedding).
    pub admitted: u64,
    /// Queries answered with search results (excludes cache hits).
    pub answered: u64,
    /// Queries answered straight from the result cache.
    pub cache_hits: u64,
    /// Cache entries evicted by the LRU policy.
    pub cache_evictions: u64,
    /// Queries dropped because their deadline expired while queued.
    pub shed_deadline: u64,
    /// Queries dropped by the queue-depth high watermark.
    pub shed_overload: u64,
    /// Queries answered at a degraded search level (shrunk epsilon/beam).
    pub degraded: u64,
    /// High-water mark of the logical queue depth.
    pub max_queue_depth: u64,
    /// Answered-query latency percentiles, virtual nanoseconds.
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// Mean answered-query latency, virtual nanoseconds.
    pub mean_latency_ns: f64,
    /// Exact latency histogram: `(latency_slots, count)` sorted by
    /// latency. Bit-identical across reruns and rank counts.
    pub latency_hist: Vec<(u64, u64)>,
    /// Client-perceived latency percentiles (schema v7): measured from
    /// each query's *first* issue slot, so closed-loop shed-and-retry
    /// time accumulates. Equal to the answered percentiles for open
    /// loops; the divergence under saturation is coordinated omission
    /// made visible. Zero in pre-v7 documents.
    pub client_p50_ns: u64,
    pub client_p99_ns: u64,
    /// Exact client-perceived latency histogram (schema v7); empty in
    /// pre-v7 documents.
    pub client_hist: Vec<(u64, u64)>,
    /// Per-tenant-class SLO attainment (schema v7), in declaration
    /// (priority) order. Empty — and omitted from the JSON — when the
    /// workload declares no tenant classes, which keeps single-tenant
    /// documents shaped like v3.
    pub tenants: Vec<TenantSloSection>,
    /// FNV-1a digest over every answered query's `(query_id, result ids)`
    /// in query-id order — the bit-identity fingerprint of the answers.
    pub result_digest: u64,
}

/// One tenant class's slice of the serving SLO accounting (schema v7).
/// Deterministic in the serve seed and independent of the rank count,
/// like every other serving field.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantSloSection {
    /// Class name from the workload spec (e.g. `gold`).
    pub name: String,
    /// Declared traffic share, integer percent.
    pub share_pct: u64,
    pub offered: u64,
    pub admitted: u64,
    pub answered: u64,
    pub cache_hits: u64,
    pub shed_overload: u64,
    pub shed_deadline: u64,
    pub degraded: u64,
    /// Fraction of offered queries answered (search + cache); 0 when the
    /// class offered nothing.
    pub slo_attainment: f64,
    /// Answered-latency percentiles of this class, virtual nanoseconds.
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Exact per-class latency histogram `(latency_slots, count)`.
    pub latency_hist: Vec<(u64, u64)>,
}

/// One RNN-Descent inner round's global counters (schema v5). Every value
/// is all-reduced and deterministic, so the section doubles as the replay
/// fingerprint of an RNN optimization pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RnnRoundReport {
    /// Outer-round index (`0..t1`).
    pub outer: u64,
    /// Inner-round index within the outer round (`0..t2`).
    pub inner: u64,
    /// Flagged pairs checked this round == distance evaluations.
    pub pairs: u64,
    /// Edges removed by the occlusion rule.
    pub pruned: u64,
    /// Redirected edges that survived the canonical apply step.
    pub added: u64,
}

/// RNN-Descent optimization telemetry (schema v5): the T1/T2/K0/R knobs,
/// per-round counters, reverse-edge merge sizes, and the pass's distance
/// evaluations. Bit-identical across reruns and rank counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RnnSection {
    /// Outer rounds (`T1`).
    pub t1: u64,
    /// Max inner rounds per outer round (`T2`).
    pub t2: u64,
    /// Final out-degree cap (`K0`).
    pub k0: u64,
    /// Working-row capacity (`R >= K0`).
    pub r: u64,
    /// Inner rounds actually executed (early exit on convergence).
    pub rounds: Vec<RnnRoundReport>,
    /// Surviving inserts of each reverse-edge exchange; index 0 is the
    /// seed merge, later entries the outer-round boundaries.
    pub reverse_added: Vec<u64>,
    /// Distance evaluations of the RNN pass alone.
    pub dist_evals: u64,
    /// Zero-in-degree vertices reconnected by the post-cap connectivity
    /// repair.
    pub repaired: u64,
}

/// One sampled per-query lifecycle record (schema v6). Every field is a
/// pure function of the serve seed and parameters — slot-clock times,
/// replicated verdicts, and search-cost counters — so records are
/// bit-identical across reruns *and* rank counts. (The executing home rank
/// is intentionally absent here: it is `pool_id % n_ranks`, which depends
/// on the rank count; the JSONL slow-query log derives it per run.)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryExemplar {
    /// Arrival index of the query within the workload.
    pub idx: u64,
    /// Query-pool id (the vector served).
    pub pool_id: u64,
    /// Tenant class index (schema v7; 0 when the workload declares no
    /// classes and in pre-v7 documents).
    pub tenant: u64,
    /// Final verdict: `answered` / `cache_hit` / `shed_overload` /
    /// `shed_deadline`.
    pub verdict: String,
    /// Why the sampler retained this record: `|`-joined subset of
    /// `slow`, `shed`, `degraded`, `deadline_miss`.
    pub why: String,
    /// Degrade level the query was answered at (0 = full quality).
    pub degrade_level: u64,
    /// FNV-1a hash of the quantized cache key (hex in JSON).
    pub cache_key_hash: u64,
    /// Slot the query arrived in / slot its lifecycle ended in.
    pub arrived_slot: u64,
    pub done_slot: u64,
    /// Per-stage virtual-time breakdown in slots. The invariant the CI
    /// asserts: these five always sum exactly to `latency_slots`.
    pub admission_slots: u64,
    pub batch_wait_slots: u64,
    pub dispatch_slots: u64,
    pub search_slots: u64,
    pub response_slots: u64,
    /// End-to-end latency in slots (0 for cache hits and overload sheds).
    pub latency_slots: u64,
    /// Search cost: beam expansions, distance evaluations, greedy rounds
    /// (all zero for cache hits and shed queries).
    pub expansions: u64,
    pub dist_evals: u64,
    pub rounds: u64,
    /// Whether the query missed its deadline (shed stale, or answered past
    /// `deadline_slots` due to fault penalties).
    pub deadline_miss: bool,
}

impl QueryExemplar {
    /// Sum of the five per-stage slot counts; must equal
    /// [`Self::latency_slots`] (asserted by the producer and CI).
    pub fn stage_sum(&self) -> u64 {
        self.admission_slots
            + self.batch_wait_slots
            + self.dispatch_slots
            + self.search_slots
            + self.response_slots
    }
}

/// Per-query forensics from the serving layer (schema v6): stage-latency
/// histograms over every offered query, the tail sampler's exemplar
/// records, sampler counters, and a digest pinning the whole section.
/// Bit-identical across reruns and rank counts (the sampler is a pure PRF
/// of the serve seed; nothing here derives from scheduling).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryForensicsSection {
    /// Tail-sampling window length in slots.
    pub window_slots: u64,
    /// Slowest-N retained per window.
    pub slow_n: u64,
    /// Lifecycle records considered (== offered queries).
    pub considered: u64,
    /// Records retained in `exemplars` (slow ∪ exemplar classes).
    pub retained: u64,
    /// Records retained for being among their window's slowest-N.
    pub retained_slow: u64,
    /// Records retained unconditionally (shed / degraded / deadline-miss).
    pub retained_exemplar: u64,
    /// Per-stage latency histograms over *all* queries (not just sampled):
    /// `(stage name, [(slots, count)...])`, buckets sorted by slots.
    pub stage_hists: Vec<(String, Vec<(u64, u64)>)>,
    /// Sampled records, sorted by arrival index.
    pub exemplars: Vec<QueryExemplar>,
    /// FNV-1a digest over counters, histograms, and every exemplar field —
    /// the bit-identity fingerprint of the section (hex in JSON).
    pub digest: u64,
}

/// One namespace's vector-DB counters (schema v8): how many points the
/// collection holds, how many are masked by tombstones, how many were
/// folded into the dead set by compaction, and the online-mutation totals
/// from the serving run that produced this report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VdbNamespaceSection {
    /// Namespace (collection) name.
    pub name: String,
    /// Total point slots ever allocated (live + tombstoned + dead).
    pub points: u64,
    /// Points visible to search (`points - tombstones - dead`).
    pub live: u64,
    /// Deleted but not yet compacted — masked out of every result.
    pub tombstones: u64,
    /// Deleted and folded away by compaction.
    pub dead: u64,
    /// Versioned graph epoch; bumped by ingest and compaction, which
    /// invalidates result-cache entries keyed on the previous epoch.
    pub epoch: u64,
    /// Online inserts applied during the serving run.
    pub inserts: u64,
    /// Online deletes (tombstones placed) during the serving run.
    pub deletes: u64,
    /// Background compaction passes executed during the serving run.
    pub compactions: u64,
}

/// Vector-DB product-layer telemetry (schema v8): per-namespace counters
/// plus filtered-query accounting. `None` for runs without a namespace.
/// Bit-identical across reruns and rank counts (mutation and compaction
/// schedules are pure PRFs of the serve seed).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VdbSection {
    /// Per-namespace counters, sorted by name.
    pub namespaces: Vec<VdbNamespaceSection>,
    /// Dispatched queries that carried a metadata predicate.
    pub filtered_queries: u64,
    /// Result ids suppressed from cache hits because a tombstone landed
    /// after the entry was cached (deletes do not bump the epoch).
    pub cache_suppressed_ids: u64,
    /// Decile histogram of filtered-query selectivity: `hist[d]` counts
    /// dispatched filtered queries whose mask allowed `[d*10%, (d+1)*10%)`
    /// of the collection (the last bucket is closed at 100%).
    pub selectivity_hist: Vec<(u64, u64)>,
}

/// One tag's rank×rank traffic counts (mirrors `ygm`'s traffic matrix).
///
/// `counts[src * n_ranks + dest]` / `bytes[...]` hold message and byte
/// totals for this tag on the (src → dest) edge, *including* the diagonal
/// (rank-local sends), so each tag's matrix sums to the corresponding
/// [`TagReport::count`] / [`TagReport::bytes`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixTagReport {
    pub tag: u64,
    pub name: String,
    /// Row-major `n_ranks × n_ranks` message counts.
    pub counts: Vec<u64>,
    /// Row-major `n_ranks × n_ranks` byte totals.
    pub bytes: Vec<u64>,
}

/// The full rank×rank×tag traffic matrix of a run (schema v2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixSection {
    pub n_ranks: u64,
    /// Per-tag matrices, sorted by tag; tags with no traffic are omitted.
    pub tags: Vec<MatrixTagReport>,
}

impl MatrixSection {
    /// Message counts summed over tags, row-major `n_ranks × n_ranks`.
    pub fn total_counts(&self) -> Vec<u64> {
        self.sum_over_tags(|t| &t.counts)
    }

    /// Byte totals summed over tags, row-major `n_ranks × n_ranks`.
    pub fn total_bytes(&self) -> Vec<u64> {
        self.sum_over_tags(|t| &t.bytes)
    }

    fn sum_over_tags(&self, f: impl Fn(&MatrixTagReport) -> &Vec<u64>) -> Vec<u64> {
        let n = (self.n_ranks * self.n_ranks) as usize;
        let mut out = vec![0u64; n];
        for t in &self.tags {
            for (acc, v) in out.iter_mut().zip(f(t)) {
                *acc += v;
            }
        }
        out
    }
}

/// The consolidated per-run report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Producing binary or driver (e.g. `dnnd-construct`).
    pub binary: String,
    /// Free-form string parameters (dataset path, metric, seed, ...).
    pub params: Vec<(String, String)>,
    pub n_ranks: u64,
    /// Descent iterations executed (0 for pure query runs).
    pub iterations: u64,
    pub distance_evals: u64,
    /// Virtual (simulated cluster) time, seconds.
    pub sim_secs: f64,
    /// Real wall-clock time, seconds.
    pub wall_secs: f64,
    pub compute_secs: f64,
    pub comm_secs: f64,
    pub barrier_secs: f64,
    /// Per-tag traffic, sorted by tag.
    pub tags: Vec<TagReport>,
    /// Traffic totals over all tags.
    pub total_count: u64,
    pub total_bytes: u64,
    pub total_remote_count: u64,
    pub total_remote_bytes: u64,
    pub phases: Vec<PhaseReport>,
    pub convergence: Vec<ConvergencePoint>,
    /// Recall@k against ground truth, when measured.
    pub recall: Option<f64>,
    pub histograms: Vec<HistReport>,
    /// Free-form numeric metrics (e.g. `queries_per_sec`).
    pub extra: Vec<(String, f64)>,
    /// Fault-injection counters; `None` for fault-free runs.
    pub faults: Option<FaultSection>,
    /// Per-rank gauge series sampled on the virtual clock (schema v2);
    /// empty when the run was not traced or predates v2.
    pub series: Vec<SeriesSnapshot>,
    /// Rank×rank×tag traffic matrix (schema v2); `None` when the producer
    /// did not record one (v1 documents, single-report tools).
    pub matrix: Option<MatrixSection>,
    /// Online-serving SLO telemetry (schema v3); `None` for non-serving
    /// runs and pre-v3 documents.
    pub serving: Option<ServingSection>,
    /// Critical-path analysis over the happens-before DAG (schema v4);
    /// `None` for untraced runs and pre-v4 documents.
    pub critical_path: Option<CriticalPathSection>,
    /// RNN-Descent optimization counters (schema v5); `None` for runs that
    /// did not use the RNN optimization mode and pre-v5 documents.
    pub rnn: Option<RnnSection>,
    /// Per-query forensics from the serving layer (schema v6); `None` for
    /// non-serving runs and pre-v6 documents.
    pub query_forensics: Option<QueryForensicsSection>,
    /// Vector-DB product-layer counters (schema v8); `None` for runs
    /// without a namespace and pre-v8 documents.
    pub vdb: Option<VdbSection>,
    /// Trace events lost to span-ring overflow (schema v4; 0 in older
    /// documents). Nonzero means the trace — and any flow-pairing or
    /// critical-path post-processing of it — is incomplete.
    pub dropped_spans: u64,
    /// Per-rank split of `dropped_spans` (schema v6; empty in older
    /// documents and untraced runs). Index = rank.
    pub dropped_spans_per_rank: Vec<u64>,
}

impl RunReport {
    pub fn new(binary: impl Into<String>) -> Self {
        RunReport {
            binary: binary.into(),
            ..Default::default()
        }
    }

    pub fn param(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    pub fn metric(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.extra.push((key.into(), value));
        self
    }

    /// Record the span-ring overflow count, warning on stderr when nonzero:
    /// a lossy trace cannot support exact flow pairing or critical-path
    /// post-processing, so the reader deserves to know up front.
    pub fn set_dropped_spans(&mut self, dropped: u64) -> &mut Self {
        self.dropped_spans = dropped;
        if dropped > 0 {
            eprintln!(
                "warning: {dropped} trace events lost to span-ring overflow; \
                 the exported trace is incomplete (raise the ring capacity)"
            );
        }
        self
    }

    /// Record the per-rank span-ring overflow split (schema v6). The total
    /// goes through [`Self::set_dropped_spans`] so the stderr warning
    /// fires once.
    pub fn set_dropped_spans_per_rank(&mut self, per_rank: Vec<u64>) -> &mut Self {
        let total = per_rank.iter().sum();
        self.dropped_spans_per_rank = per_rank;
        self.set_dropped_spans(total)
    }

    /// Append histogram summaries from tracer snapshots.
    pub fn add_histograms(&mut self, snaps: &[(String, HistogramSnapshot)]) -> &mut Self {
        for (name, s) in snaps {
            self.histograms.push(HistReport::from_snapshot(name, s));
        }
        self
    }

    /// Every gated metric, one group per section, in the same order for
    /// every report. This is the one place a metric's gate is declared:
    /// its direction and relative tolerance.
    pub fn metric_groups(&self) -> Vec<MetricGroup> {
        use Presence::{Baseline, Both, Either};
        let (grow, shrink, time) = (Gate::GROWTH, Gate::SHRINK, Gate::TIME);
        let slack = |t| Gate::new(Direction::HigherIsWorse, t);
        let g = |name, presence, metrics| MetricGroup {
            name,
            presence,
            required: true,
            metrics,
        };
        let optional = |name, presence, metrics| MetricGroup {
            required: false,
            ..g(name, presence, metrics)
        };
        // Deterministic counters gate tightly, virtual times at 10% (cost-
        // model tweaks shift them slightly), recall downward at 2%. Wall
        // time depends on the host, so it is reported but never gated.
        let top = gated!(self, ""; grow => iterations; slack(0.05) => distance_evals;
            time => sim_secs, compute_secs, comm_secs, barrier_secs;
            slack(0.05) => total_count, total_bytes, total_remote_count, total_remote_bytes);
        let recall_gate = Gate::new(Direction::LowerIsWorse, 0.02);
        let recall = |r| gated!(self, ""; recall_gate => recall = r);
        let wall = gated!(self, ""; Gate::INFO => wall_secs);
        let faults = self.faults.as_ref().map(|f| {
            gated!(f, "faults"; grow => dropped, duplicated, delayed, stalls, jittered_flushes,
                retransmits, dedup_discards, forced_deliveries)
        });
        // Serving control-plane counters are seed-deterministic and gate
        // exactly, per tenant class too; answered/cache-hit shrinkage is
        // the regression side; latency percentiles get 10%. Client-perceived
        // percentiles (v7) carry shed-retry time.
        let serving = self.serving.as_ref();
        let serving_metrics = serving.map(|s| {
            gated!(s, "serving"; grow => offered, admitted; shrink => answered, cache_hits;
                grow => cache_evictions, shed_deadline, shed_overload, degraded, max_queue_depth;
                time => p50_ns, p95_ns, p99_ns)
        });
        let client = serving
            .filter(|s| s.client_p99_ns > 0 || !s.client_hist.is_empty())
            .map(|s| gated!(s, "serving"; time => client_p50_ns, client_p99_ns));
        let tenant = |t: &TenantSloSection| {
            gated!(t, &format!("serving.tenant.{}", t.name); grow => offered;
                shrink => admitted, answered, cache_hits;
                grow => shed_overload, shed_deadline, degraded;
                time => p50_ns, p99_ns; shrink => slo_attainment)
        };
        let tenants = serving
            .filter(|s| !s.tenants.is_empty())
            .map(|s| s.tenants.iter().flat_map(tenant).collect());
        // Forensics is a pure function of the serve seed: fewer retained
        // records means lost coverage, and the digest pins the records.
        let forensics = self.query_forensics.as_ref().map(|q| {
            let mut m = gated!(q, "query_forensics";
                shrink => considered, retained, retained_slow, retained_exemplar;
                grow => window_slots, slow_n);
            let value = MetricValue::Exact(q.digest);
            m.push(Metric {
                path: "query_forensics.digest".into(),
                value,
            });
            m
        });
        // The RNN pass is bit-identical across reruns and rank counts, so
        // any drift means the occlusion rule or round schedule changed.
        let rnn = self.rnn.as_ref().map(|r| {
            let sum = |f: fn(&RnnRoundReport) -> u64| r.rounds.iter().map(f).sum::<u64>();
            gated!(r, "rnn"; grow => rounds = r.rounds.len(), pruned_total = sum(|x| x.pruned),
                added_total = sum(|x| x.added),
                reverse_added_total = r.reverse_added.iter().sum::<u64>(), dist_evals, repaired)
        });
        // Vector-DB mutations and filters are pure PRFs of the serve seed;
        // counters sum over namespaces, the epoch is the maximum.
        let vdb = self.vdb.as_ref().map(|v| {
            let ns = &v.namespaces;
            let sum = |f: fn(&VdbNamespaceSection) -> u64| ns.iter().map(f).sum::<u64>();
            gated!(v, "vdb"; grow => points = sum(|n| n.points); shrink => live = sum(|n| n.live);
                grow => tombstones = sum(|n| n.tombstones), dead = sum(|n| n.dead),
                    epoch = ns.iter().map(|n| n.epoch).max().unwrap_or(0),
                    inserts = sum(|n| n.inserts), deletes = sum(|n| n.deletes),
                    compactions = sum(|n| n.compactions);
                shrink => filtered_queries; grow => cache_suppressed_ids)
        });
        // Critical-path buckets follow the virtual-time gate; the small
        // noisy buckets and the imbalance score get extra slack.
        let critical_path = self.critical_path.as_ref().map(|c| {
            gated!(c, "critical_path"; time => critical_path_ns, collective_ns, compute_ns, comm_ns;
                slack(0.25) => stall_ns, retransmit_ns; slack(0.15) => straggler_score)
        });
        let extra: Vec<_> = self
            .extra
            .iter()
            .map(|(k, v)| (k.as_str(), *v, Gate::INFO))
            .collect();
        vec![
            g("", Either, Some(top)),
            optional("recall", Either, self.recall.map(recall)),
            g("wall", Both, Some(wall)),
            g("faults", Either, faults),
            g("serving", Either, serving_metrics),
            optional("serving.client", Baseline, client),
            g("serving.tenants", Baseline, tenants),
            g("query_forensics", Either, forensics),
            g("rnn", Either, rnn),
            g("vdb", Baseline, vdb),
            g("critical_path", Baseline, critical_path),
            g("matrix", Baseline, self.matrix.as_ref().map(|_| Vec::new())),
            g("extra", Both, Some(metrics("extra", &extra))),
        ]
    }

    pub fn to_json(&self) -> J {
        let mut fields = vec![
            ("schema_version".into(), J::uint(SCHEMA_VERSION)),
            ("binary".into(), J::str(&self.binary)),
            (
                "params".into(),
                J::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), J::str(v)))
                        .collect(),
                ),
            ),
            ("n_ranks".into(), J::uint(self.n_ranks)),
            ("iterations".into(), J::uint(self.iterations)),
            ("distance_evals".into(), J::uint(self.distance_evals)),
            ("sim_secs".into(), J::Num(self.sim_secs)),
            ("wall_secs".into(), J::Num(self.wall_secs)),
            (
                "breakdown".into(),
                J::Obj(vec![
                    ("compute_secs".into(), J::Num(self.compute_secs)),
                    ("comm_secs".into(), J::Num(self.comm_secs)),
                    ("barrier_secs".into(), J::Num(self.barrier_secs)),
                ]),
            ),
            (
                "tags".into(),
                J::Arr(
                    self.tags
                        .iter()
                        .map(|t| {
                            J::Obj(vec![
                                ("tag".into(), J::uint(t.tag)),
                                ("name".into(), J::str(&t.name)),
                                ("count".into(), J::uint(t.count)),
                                ("bytes".into(), J::uint(t.bytes)),
                                ("remote_count".into(), J::uint(t.remote_count)),
                                ("remote_bytes".into(), J::uint(t.remote_bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "total".into(),
                J::Obj(vec![
                    ("count".into(), J::uint(self.total_count)),
                    ("bytes".into(), J::uint(self.total_bytes)),
                    ("remote_count".into(), J::uint(self.total_remote_count)),
                    ("remote_bytes".into(), J::uint(self.total_remote_bytes)),
                ]),
            ),
            (
                "phases".into(),
                J::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            J::Obj(vec![
                                ("index".into(), J::uint(p.index)),
                                ("compute_secs".into(), J::Num(p.compute_secs)),
                                ("comm_secs".into(), J::Num(p.comm_secs)),
                                ("barrier_secs".into(), J::Num(p.barrier_secs)),
                                ("msgs".into(), J::uint(p.msgs)),
                                ("bytes".into(), J::uint(p.bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "convergence".into(),
                J::Arr(
                    self.convergence
                        .iter()
                        .map(|c| {
                            J::Obj(vec![
                                ("iteration".into(), J::uint(c.iteration)),
                                ("updates".into(), J::uint(c.updates)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("recall".into(), self.recall.map(J::Num).unwrap_or(J::Null)),
            (
                "histograms".into(),
                J::Arr(
                    self.histograms
                        .iter()
                        .map(|h| {
                            J::Obj(vec![
                                ("name".into(), J::str(&h.name)),
                                ("count".into(), J::uint(h.count)),
                                ("mean".into(), J::Num(h.mean)),
                                ("min".into(), J::uint(h.min)),
                                ("max".into(), J::uint(h.max)),
                                ("p50".into(), J::uint(h.p50)),
                                ("p95".into(), J::uint(h.p95)),
                                ("p99".into(), J::uint(h.p99)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "extra".into(),
                J::Obj(
                    self.extra
                        .iter()
                        .map(|(k, v)| (k.clone(), J::Num(*v)))
                        .collect(),
                ),
            ),
            ("dropped_spans".into(), J::uint(self.dropped_spans)),
        ];
        if !self.dropped_spans_per_rank.is_empty() {
            fields.push((
                "dropped_spans_per_rank".into(),
                J::Arr(
                    self.dropped_spans_per_rank
                        .iter()
                        .map(|&d| J::uint(d))
                        .collect(),
                ),
            ));
        }
        fields.push((
            "series".into(),
            J::Arr(
                self.series
                    .iter()
                    .map(|s| {
                        J::Obj(vec![
                            ("name".into(), J::str(&s.name)),
                            ("rank".into(), J::uint(s.rank)),
                            (
                                "points".into(),
                                J::Arr(
                                    s.points
                                        .iter()
                                        .map(|p| {
                                            J::Obj(vec![
                                                ("t_ns".into(), J::uint(p.t_ns)),
                                                ("value".into(), J::Num(p.value)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
        if let Some(m) = &self.matrix {
            fields.push((
                "matrix".into(),
                J::Obj(vec![
                    ("n_ranks".into(), J::uint(m.n_ranks)),
                    (
                        "tags".into(),
                        J::Arr(
                            m.tags
                                .iter()
                                .map(|t| {
                                    J::Obj(vec![
                                        ("tag".into(), J::uint(t.tag)),
                                        ("name".into(), J::str(&t.name)),
                                        (
                                            "counts".into(),
                                            J::Arr(t.counts.iter().map(|&c| J::uint(c)).collect()),
                                        ),
                                        (
                                            "bytes".into(),
                                            J::Arr(t.bytes.iter().map(|&b| J::uint(b)).collect()),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(s) = &self.serving {
            let hist_json = |hist: &[(u64, u64)]| {
                J::Arr(
                    hist.iter()
                        .map(|&(slots, count)| {
                            J::Obj(vec![
                                ("slots".into(), J::uint(slots)),
                                ("count".into(), J::uint(count)),
                            ])
                        })
                        .collect(),
                )
            };
            let mut sv = vec![
                ("serve_seed".into(), J::uint(s.serve_seed)),
                ("slot_ns".into(), J::uint(s.slot_ns)),
                ("slots".into(), J::uint(s.slots)),
                ("offered".into(), J::uint(s.offered)),
                ("admitted".into(), J::uint(s.admitted)),
                ("answered".into(), J::uint(s.answered)),
                ("cache_hits".into(), J::uint(s.cache_hits)),
                ("cache_evictions".into(), J::uint(s.cache_evictions)),
                ("shed_deadline".into(), J::uint(s.shed_deadline)),
                ("shed_overload".into(), J::uint(s.shed_overload)),
                ("degraded".into(), J::uint(s.degraded)),
                ("max_queue_depth".into(), J::uint(s.max_queue_depth)),
                ("p50_ns".into(), J::uint(s.p50_ns)),
                ("p95_ns".into(), J::uint(s.p95_ns)),
                ("p99_ns".into(), J::uint(s.p99_ns)),
                ("mean_latency_ns".into(), J::Num(s.mean_latency_ns)),
                ("latency_hist".into(), hist_json(&s.latency_hist)),
                ("client_p50_ns".into(), J::uint(s.client_p50_ns)),
                ("client_p99_ns".into(), J::uint(s.client_p99_ns)),
                ("client_hist".into(), hist_json(&s.client_hist)),
            ];
            // Tenant-less runs keep the v3-shaped document: the key is
            // omitted entirely, not written as an empty array.
            if !s.tenants.is_empty() {
                sv.push((
                    "tenants".into(),
                    J::Arr(
                        s.tenants
                            .iter()
                            .map(|t| {
                                J::Obj(vec![
                                    ("name".into(), J::str(t.name.clone())),
                                    ("share_pct".into(), J::uint(t.share_pct)),
                                    ("offered".into(), J::uint(t.offered)),
                                    ("admitted".into(), J::uint(t.admitted)),
                                    ("answered".into(), J::uint(t.answered)),
                                    ("cache_hits".into(), J::uint(t.cache_hits)),
                                    ("shed_overload".into(), J::uint(t.shed_overload)),
                                    ("shed_deadline".into(), J::uint(t.shed_deadline)),
                                    ("degraded".into(), J::uint(t.degraded)),
                                    ("slo_attainment".into(), J::Num(t.slo_attainment)),
                                    ("p50_ns".into(), J::uint(t.p50_ns)),
                                    ("p99_ns".into(), J::uint(t.p99_ns)),
                                    ("latency_hist".into(), hist_json(&t.latency_hist)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            // Hex string: JSON numbers are f64 and would round a
            // full-range 64-bit digest.
            sv.push((
                "result_digest".into(),
                J::str(format!("{:016x}", s.result_digest)),
            ));
            fields.push(("serving".into(), J::Obj(sv)));
        }
        if let Some(c) = &self.critical_path {
            fields.push((
                "critical_path".into(),
                J::Obj(vec![
                    ("n_ranks".into(), J::uint(c.n_ranks)),
                    ("phases".into(), J::uint(c.phases)),
                    ("critical_path_ns".into(), J::uint(c.critical_path_ns)),
                    ("collective_ns".into(), J::uint(c.collective_ns)),
                    ("compute_ns".into(), J::uint(c.compute_ns)),
                    ("comm_ns".into(), J::uint(c.comm_ns)),
                    ("stall_ns".into(), J::uint(c.stall_ns)),
                    ("retransmit_ns".into(), J::uint(c.retransmit_ns)),
                    (
                        "rank_slack_ns".into(),
                        J::Arr(c.rank_slack_ns.iter().map(|&s| J::Num(s)).collect()),
                    ),
                    (
                        "rank_critical_phases".into(),
                        J::Arr(c.rank_critical_phases.iter().map(|&n| J::uint(n)).collect()),
                    ),
                    ("straggler_score".into(), J::Num(c.straggler_score)),
                    (
                        "phase_attribution".into(),
                        J::Arr(
                            c.phase_attribution
                                .iter()
                                .map(|p| {
                                    J::Obj(vec![
                                        ("index".into(), J::uint(p.index)),
                                        ("total_ns".into(), J::uint(p.total_ns)),
                                        ("compute_ns".into(), J::uint(p.compute_ns)),
                                        ("comm_ns".into(), J::uint(p.comm_ns)),
                                        ("stall_ns".into(), J::uint(p.stall_ns)),
                                        ("retransmit_ns".into(), J::uint(p.retransmit_ns)),
                                        ("critical_rank".into(), J::uint(p.critical_rank)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(r) = &self.rnn {
            fields.push((
                "rnn".into(),
                J::Obj(vec![
                    ("t1".into(), J::uint(r.t1)),
                    ("t2".into(), J::uint(r.t2)),
                    ("k0".into(), J::uint(r.k0)),
                    ("r".into(), J::uint(r.r)),
                    (
                        "rounds".into(),
                        J::Arr(
                            r.rounds
                                .iter()
                                .map(|rd| {
                                    J::Obj(vec![
                                        ("outer".into(), J::uint(rd.outer)),
                                        ("inner".into(), J::uint(rd.inner)),
                                        ("pairs".into(), J::uint(rd.pairs)),
                                        ("pruned".into(), J::uint(rd.pruned)),
                                        ("added".into(), J::uint(rd.added)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "reverse_added".into(),
                        J::Arr(r.reverse_added.iter().map(|&a| J::uint(a)).collect()),
                    ),
                    ("dist_evals".into(), J::uint(r.dist_evals)),
                    ("repaired".into(), J::uint(r.repaired)),
                ]),
            ));
        }
        if let Some(q) = &self.query_forensics {
            let hist_arr = |buckets: &[(u64, u64)]| {
                J::Arr(
                    buckets
                        .iter()
                        .map(|&(slots, count)| {
                            J::Obj(vec![
                                ("slots".into(), J::uint(slots)),
                                ("count".into(), J::uint(count)),
                            ])
                        })
                        .collect(),
                )
            };
            fields.push((
                "query_forensics".into(),
                J::Obj(vec![
                    ("window_slots".into(), J::uint(q.window_slots)),
                    ("slow_n".into(), J::uint(q.slow_n)),
                    ("considered".into(), J::uint(q.considered)),
                    ("retained".into(), J::uint(q.retained)),
                    ("retained_slow".into(), J::uint(q.retained_slow)),
                    ("retained_exemplar".into(), J::uint(q.retained_exemplar)),
                    (
                        "stage_hists".into(),
                        J::Arr(
                            q.stage_hists
                                .iter()
                                .map(|(name, buckets)| {
                                    J::Obj(vec![
                                        ("stage".into(), J::str(name)),
                                        ("buckets".into(), hist_arr(buckets)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "exemplars".into(),
                        J::Arr(
                            q.exemplars
                                .iter()
                                .map(|e| {
                                    J::Obj(vec![
                                        ("idx".into(), J::uint(e.idx)),
                                        ("pool_id".into(), J::uint(e.pool_id)),
                                        ("tenant".into(), J::uint(e.tenant)),
                                        ("verdict".into(), J::str(&e.verdict)),
                                        ("why".into(), J::str(&e.why)),
                                        ("degrade_level".into(), J::uint(e.degrade_level)),
                                        (
                                            "cache_key_hash".into(),
                                            J::str(format!("{:016x}", e.cache_key_hash)),
                                        ),
                                        ("arrived_slot".into(), J::uint(e.arrived_slot)),
                                        ("done_slot".into(), J::uint(e.done_slot)),
                                        ("admission_slots".into(), J::uint(e.admission_slots)),
                                        ("batch_wait_slots".into(), J::uint(e.batch_wait_slots)),
                                        ("dispatch_slots".into(), J::uint(e.dispatch_slots)),
                                        ("search_slots".into(), J::uint(e.search_slots)),
                                        ("response_slots".into(), J::uint(e.response_slots)),
                                        ("latency_slots".into(), J::uint(e.latency_slots)),
                                        ("expansions".into(), J::uint(e.expansions)),
                                        ("dist_evals".into(), J::uint(e.dist_evals)),
                                        ("rounds".into(), J::uint(e.rounds)),
                                        ("deadline_miss".into(), J::Bool(e.deadline_miss)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    // Hex string: full-range 64-bit digest must not round
                    // through a JSON double.
                    ("digest".into(), J::str(format!("{:016x}", q.digest))),
                ]),
            ));
        }
        if let Some(vd) = &self.vdb {
            fields.push((
                "vdb".into(),
                J::Obj(vec![
                    (
                        "namespaces".into(),
                        J::Arr(
                            vd.namespaces
                                .iter()
                                .map(|ns| {
                                    J::Obj(vec![
                                        ("name".into(), J::str(&ns.name)),
                                        ("points".into(), J::uint(ns.points)),
                                        ("live".into(), J::uint(ns.live)),
                                        ("tombstones".into(), J::uint(ns.tombstones)),
                                        ("dead".into(), J::uint(ns.dead)),
                                        ("epoch".into(), J::uint(ns.epoch)),
                                        ("inserts".into(), J::uint(ns.inserts)),
                                        ("deletes".into(), J::uint(ns.deletes)),
                                        ("compactions".into(), J::uint(ns.compactions)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("filtered_queries".into(), J::uint(vd.filtered_queries)),
                    (
                        "cache_suppressed_ids".into(),
                        J::uint(vd.cache_suppressed_ids),
                    ),
                    (
                        "selectivity_hist".into(),
                        J::Arr(
                            vd.selectivity_hist
                                .iter()
                                .map(|&(decile, count)| {
                                    J::Obj(vec![
                                        ("decile".into(), J::uint(decile)),
                                        ("count".into(), J::uint(count)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(f) = &self.faults {
            fields.push((
                "faults".into(),
                J::Obj(vec![
                    ("sim_seed".into(), J::uint(f.sim_seed)),
                    ("profile".into(), J::str(&f.profile)),
                    ("dropped".into(), J::uint(f.dropped)),
                    ("duplicated".into(), J::uint(f.duplicated)),
                    ("delayed".into(), J::uint(f.delayed)),
                    ("stalls".into(), J::uint(f.stalls)),
                    ("jittered_flushes".into(), J::uint(f.jittered_flushes)),
                    ("retransmits".into(), J::uint(f.retransmits)),
                    ("dedup_discards".into(), J::uint(f.dedup_discards)),
                    ("forced_deliveries".into(), J::uint(f.forced_deliveries)),
                ]),
            ));
        }
        J::Obj(fields)
    }

    /// Pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Rebuild a report from its JSON form (inverse of [`Self::to_json`]).
    pub fn from_json(v: &J) -> Result<RunReport, String> {
        fn f64_field(v: &J, key: &str) -> Result<f64, String> {
            v.get(key)
                .and_then(J::as_f64)
                .ok_or_else(|| format!("missing number field '{key}'"))
        }
        fn u64_field(v: &J, key: &str) -> Result<u64, String> {
            v.get(key)
                .and_then(J::as_u64)
                .ok_or_else(|| format!("missing integer field '{key}'"))
        }
        fn str_field(v: &J, key: &str) -> Result<String, String> {
            v.get(key)
                .and_then(J::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}'"))
        }
        fn arr_field<'a>(v: &'a J, key: &str) -> Result<&'a [J], String> {
            v.get(key)
                .and_then(J::as_arr)
                .ok_or_else(|| format!("missing array field '{key}'"))
        }

        let version = u64_field(v, "schema_version")?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported schema_version {version} \
                 (this build reads v{MIN_SCHEMA_VERSION} through v{SCHEMA_VERSION})"
            ));
        }

        let mut report = RunReport::new(str_field(v, "binary")?);

        if let Some(J::Obj(fields)) = v.get("params") {
            for (k, val) in fields {
                report
                    .params
                    .push((k.clone(), val.as_str().unwrap_or_default().to_string()));
            }
        }

        report.n_ranks = u64_field(v, "n_ranks")?;
        report.iterations = u64_field(v, "iterations")?;
        report.distance_evals = u64_field(v, "distance_evals")?;
        report.sim_secs = f64_field(v, "sim_secs")?;
        report.wall_secs = f64_field(v, "wall_secs")?;

        let breakdown = v.get("breakdown").ok_or("missing 'breakdown'")?;
        report.compute_secs = f64_field(breakdown, "compute_secs")?;
        report.comm_secs = f64_field(breakdown, "comm_secs")?;
        report.barrier_secs = f64_field(breakdown, "barrier_secs")?;

        for t in arr_field(v, "tags")? {
            report.tags.push(TagReport {
                tag: u64_field(t, "tag")?,
                name: str_field(t, "name")?,
                count: u64_field(t, "count")?,
                bytes: u64_field(t, "bytes")?,
                remote_count: u64_field(t, "remote_count")?,
                remote_bytes: u64_field(t, "remote_bytes")?,
            });
        }

        let total = v.get("total").ok_or("missing 'total'")?;
        report.total_count = u64_field(total, "count")?;
        report.total_bytes = u64_field(total, "bytes")?;
        report.total_remote_count = u64_field(total, "remote_count")?;
        report.total_remote_bytes = u64_field(total, "remote_bytes")?;

        for p in arr_field(v, "phases")? {
            report.phases.push(PhaseReport {
                index: u64_field(p, "index")?,
                compute_secs: f64_field(p, "compute_secs")?,
                comm_secs: f64_field(p, "comm_secs")?,
                barrier_secs: f64_field(p, "barrier_secs")?,
                msgs: u64_field(p, "msgs")?,
                bytes: u64_field(p, "bytes")?,
            });
        }

        for c in arr_field(v, "convergence")? {
            report.convergence.push(ConvergencePoint {
                iteration: u64_field(c, "iteration")?,
                updates: u64_field(c, "updates")?,
            });
        }

        report.recall = v.get("recall").and_then(J::as_f64);

        for h in arr_field(v, "histograms")? {
            report.histograms.push(HistReport {
                name: str_field(h, "name")?,
                count: u64_field(h, "count")?,
                mean: f64_field(h, "mean")?,
                min: u64_field(h, "min")?,
                max: u64_field(h, "max")?,
                p50: u64_field(h, "p50")?,
                p95: u64_field(h, "p95")?,
                p99: u64_field(h, "p99")?,
            });
        }

        if let Some(J::Obj(fields)) = v.get("extra") {
            for (k, val) in fields {
                report.extra.push((k.clone(), val.as_f64().unwrap_or(0.0)));
            }
        }

        // Schema v2 sections; v1 documents simply lack the keys.
        if let Some(series) = v.get("series").and_then(J::as_arr) {
            for s in series {
                let mut snap = SeriesSnapshot {
                    name: str_field(s, "name")?,
                    rank: u64_field(s, "rank")?,
                    points: Vec::new(),
                };
                for p in arr_field(s, "points")? {
                    snap.points.push(SeriesPoint {
                        t_ns: u64_field(p, "t_ns")?,
                        value: f64_field(p, "value")?,
                    });
                }
                report.series.push(snap);
            }
        }

        if let Some(m) = v.get("matrix") {
            let n_ranks = u64_field(m, "n_ranks")?;
            let cells = (n_ranks * n_ranks) as usize;
            let mut tags = Vec::new();
            for t in arr_field(m, "tags")? {
                let uints = |key: &str| -> Result<Vec<u64>, String> {
                    let arr = arr_field(t, key)?;
                    if arr.len() != cells {
                        return Err(format!(
                            "matrix '{key}' has {} cells (expected {cells})",
                            arr.len()
                        ));
                    }
                    arr.iter()
                        .map(|x| x.as_u64().ok_or_else(|| format!("bad cell in '{key}'")))
                        .collect()
                };
                tags.push(MatrixTagReport {
                    tag: u64_field(t, "tag")?,
                    name: str_field(t, "name")?,
                    counts: uints("counts")?,
                    bytes: uints("bytes")?,
                });
            }
            report.matrix = Some(MatrixSection { n_ranks, tags });
        }

        // Schema v3 section; absent in non-serving reports and older docs.
        if let Some(s) = v.get("serving") {
            let mut latency_hist = Vec::new();
            for b in arr_field(s, "latency_hist")? {
                latency_hist.push((u64_field(b, "slots")?, u64_field(b, "count")?));
            }
            // v7 additions parse optionally so v3..v6 documents still load.
            let opt_hist = |key: &str| -> Result<Vec<(u64, u64)>, String> {
                let mut hist = Vec::new();
                if let Some(J::Arr(items)) = s.get(key) {
                    for b in items {
                        hist.push((u64_field(b, "slots")?, u64_field(b, "count")?));
                    }
                }
                Ok(hist)
            };
            let client_hist = opt_hist("client_hist")?;
            let mut tenants = Vec::new();
            if let Some(J::Arr(items)) = s.get("tenants") {
                for t in items {
                    tenants.push(TenantSloSection {
                        name: str_field(t, "name")?,
                        share_pct: u64_field(t, "share_pct")?,
                        offered: u64_field(t, "offered")?,
                        admitted: u64_field(t, "admitted")?,
                        answered: u64_field(t, "answered")?,
                        cache_hits: u64_field(t, "cache_hits")?,
                        shed_overload: u64_field(t, "shed_overload")?,
                        shed_deadline: u64_field(t, "shed_deadline")?,
                        degraded: u64_field(t, "degraded")?,
                        slo_attainment: f64_field(t, "slo_attainment")?,
                        p50_ns: u64_field(t, "p50_ns")?,
                        p99_ns: u64_field(t, "p99_ns")?,
                        latency_hist: {
                            let mut hist = Vec::new();
                            for b in arr_field(t, "latency_hist")? {
                                hist.push((u64_field(b, "slots")?, u64_field(b, "count")?));
                            }
                            hist
                        },
                    });
                }
            }
            report.serving = Some(ServingSection {
                serve_seed: u64_field(s, "serve_seed")?,
                slot_ns: u64_field(s, "slot_ns")?,
                slots: u64_field(s, "slots")?,
                offered: u64_field(s, "offered")?,
                admitted: u64_field(s, "admitted")?,
                answered: u64_field(s, "answered")?,
                cache_hits: u64_field(s, "cache_hits")?,
                cache_evictions: u64_field(s, "cache_evictions")?,
                shed_deadline: u64_field(s, "shed_deadline")?,
                shed_overload: u64_field(s, "shed_overload")?,
                degraded: u64_field(s, "degraded")?,
                max_queue_depth: u64_field(s, "max_queue_depth")?,
                p50_ns: u64_field(s, "p50_ns")?,
                p95_ns: u64_field(s, "p95_ns")?,
                p99_ns: u64_field(s, "p99_ns")?,
                mean_latency_ns: f64_field(s, "mean_latency_ns")?,
                latency_hist,
                client_p50_ns: s.get("client_p50_ns").and_then(J::as_u64).unwrap_or(0),
                client_p99_ns: s.get("client_p99_ns").and_then(J::as_u64).unwrap_or(0),
                client_hist,
                tenants,
                result_digest: u64::from_str_radix(&str_field(s, "result_digest")?, 16)
                    .map_err(|e| format!("bad result_digest: {e}"))?,
            });
        }

        // Schema v4 additions; absent in older documents.
        report.dropped_spans = v.get("dropped_spans").and_then(J::as_u64).unwrap_or(0);

        if let Some(c) = v.get("critical_path") {
            let f64s = |key: &str| -> Result<Vec<f64>, String> {
                arr_field(c, key)?
                    .iter()
                    .map(|x| x.as_f64().ok_or_else(|| format!("bad entry in '{key}'")))
                    .collect()
            };
            let u64s = |key: &str| -> Result<Vec<u64>, String> {
                arr_field(c, key)?
                    .iter()
                    .map(|x| x.as_u64().ok_or_else(|| format!("bad entry in '{key}'")))
                    .collect()
            };
            let mut phase_attribution = Vec::new();
            for p in arr_field(c, "phase_attribution")? {
                phase_attribution.push(PhaseAttribution {
                    index: u64_field(p, "index")?,
                    total_ns: u64_field(p, "total_ns")?,
                    compute_ns: u64_field(p, "compute_ns")?,
                    comm_ns: u64_field(p, "comm_ns")?,
                    stall_ns: u64_field(p, "stall_ns")?,
                    retransmit_ns: u64_field(p, "retransmit_ns")?,
                    critical_rank: u64_field(p, "critical_rank")?,
                });
            }
            report.critical_path = Some(CriticalPathSection {
                n_ranks: u64_field(c, "n_ranks")?,
                phases: u64_field(c, "phases")?,
                critical_path_ns: u64_field(c, "critical_path_ns")?,
                collective_ns: u64_field(c, "collective_ns")?,
                compute_ns: u64_field(c, "compute_ns")?,
                comm_ns: u64_field(c, "comm_ns")?,
                stall_ns: u64_field(c, "stall_ns")?,
                retransmit_ns: u64_field(c, "retransmit_ns")?,
                rank_slack_ns: f64s("rank_slack_ns")?,
                rank_critical_phases: u64s("rank_critical_phases")?,
                straggler_score: f64_field(c, "straggler_score")?,
                phase_attribution,
            });
        }

        // Schema v5 section; absent for non-RNN runs and older documents.
        if let Some(r) = v.get("rnn") {
            let mut rounds = Vec::new();
            for rd in arr_field(r, "rounds")? {
                rounds.push(RnnRoundReport {
                    outer: u64_field(rd, "outer")?,
                    inner: u64_field(rd, "inner")?,
                    pairs: u64_field(rd, "pairs")?,
                    pruned: u64_field(rd, "pruned")?,
                    added: u64_field(rd, "added")?,
                });
            }
            let reverse_added = arr_field(r, "reverse_added")?
                .iter()
                .map(|x| x.as_u64().ok_or("bad entry in 'reverse_added'".to_string()))
                .collect::<Result<Vec<u64>, String>>()?;
            report.rnn = Some(RnnSection {
                t1: u64_field(r, "t1")?,
                t2: u64_field(r, "t2")?,
                k0: u64_field(r, "k0")?,
                r: u64_field(r, "r")?,
                rounds,
                reverse_added,
                dist_evals: u64_field(r, "dist_evals")?,
                repaired: u64_field(r, "repaired")?,
            });
        }

        // Schema v6 additions; absent in older documents.
        if let Some(per_rank) = v.get("dropped_spans_per_rank").and_then(J::as_arr) {
            report.dropped_spans_per_rank = per_rank
                .iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or("bad entry in 'dropped_spans_per_rank'".to_string())
                })
                .collect::<Result<Vec<u64>, String>>()?;
        }

        if let Some(q) = v.get("query_forensics") {
            let mut stage_hists = Vec::new();
            for h in arr_field(q, "stage_hists")? {
                let mut buckets = Vec::new();
                for b in arr_field(h, "buckets")? {
                    buckets.push((u64_field(b, "slots")?, u64_field(b, "count")?));
                }
                stage_hists.push((str_field(h, "stage")?, buckets));
            }
            let mut exemplars = Vec::new();
            for e in arr_field(q, "exemplars")? {
                exemplars.push(QueryExemplar {
                    idx: u64_field(e, "idx")?,
                    pool_id: u64_field(e, "pool_id")?,
                    // v7; v6 exemplars carry no tenant.
                    tenant: e.get("tenant").and_then(J::as_u64).unwrap_or(0),
                    verdict: str_field(e, "verdict")?,
                    why: str_field(e, "why")?,
                    degrade_level: u64_field(e, "degrade_level")?,
                    cache_key_hash: u64::from_str_radix(&str_field(e, "cache_key_hash")?, 16)
                        .map_err(|err| format!("bad cache_key_hash: {err}"))?,
                    arrived_slot: u64_field(e, "arrived_slot")?,
                    done_slot: u64_field(e, "done_slot")?,
                    admission_slots: u64_field(e, "admission_slots")?,
                    batch_wait_slots: u64_field(e, "batch_wait_slots")?,
                    dispatch_slots: u64_field(e, "dispatch_slots")?,
                    search_slots: u64_field(e, "search_slots")?,
                    response_slots: u64_field(e, "response_slots")?,
                    latency_slots: u64_field(e, "latency_slots")?,
                    expansions: u64_field(e, "expansions")?,
                    dist_evals: u64_field(e, "dist_evals")?,
                    rounds: u64_field(e, "rounds")?,
                    deadline_miss: e
                        .get("deadline_miss")
                        .and_then(J::as_bool)
                        .ok_or("missing bool field 'deadline_miss'")?,
                });
            }
            report.query_forensics = Some(QueryForensicsSection {
                window_slots: u64_field(q, "window_slots")?,
                slow_n: u64_field(q, "slow_n")?,
                considered: u64_field(q, "considered")?,
                retained: u64_field(q, "retained")?,
                retained_slow: u64_field(q, "retained_slow")?,
                retained_exemplar: u64_field(q, "retained_exemplar")?,
                stage_hists,
                exemplars,
                digest: u64::from_str_radix(&str_field(q, "digest")?, 16)
                    .map_err(|err| format!("bad forensics digest: {err}"))?,
            });
        }

        // Schema v8 section; absent for namespace-less runs and older
        // documents.
        if let Some(vd) = v.get("vdb") {
            let mut namespaces = Vec::new();
            for ns in arr_field(vd, "namespaces")? {
                namespaces.push(VdbNamespaceSection {
                    name: str_field(ns, "name")?,
                    points: u64_field(ns, "points")?,
                    live: u64_field(ns, "live")?,
                    tombstones: u64_field(ns, "tombstones")?,
                    dead: u64_field(ns, "dead")?,
                    epoch: u64_field(ns, "epoch")?,
                    inserts: u64_field(ns, "inserts")?,
                    deletes: u64_field(ns, "deletes")?,
                    compactions: u64_field(ns, "compactions")?,
                });
            }
            let mut selectivity_hist = Vec::new();
            for b in arr_field(vd, "selectivity_hist")? {
                selectivity_hist.push((u64_field(b, "decile")?, u64_field(b, "count")?));
            }
            report.vdb = Some(VdbSection {
                namespaces,
                filtered_queries: u64_field(vd, "filtered_queries")?,
                cache_suppressed_ids: u64_field(vd, "cache_suppressed_ids")?,
                selectivity_hist,
            });
        }

        // Optional: absent in fault-free reports (pre-fault documents too).
        if let Some(f) = v.get("faults") {
            report.faults = Some(FaultSection {
                sim_seed: u64_field(f, "sim_seed")?,
                profile: str_field(f, "profile")?,
                dropped: u64_field(f, "dropped")?,
                duplicated: u64_field(f, "duplicated")?,
                delayed: u64_field(f, "delayed")?,
                stalls: u64_field(f, "stalls")?,
                jittered_flushes: u64_field(f, "jittered_flushes")?,
                retransmits: u64_field(f, "retransmits")?,
                dedup_discards: u64_field(f, "dedup_discards")?,
                forced_deliveries: u64_field(f, "forced_deliveries")?,
            });
        }

        Ok(report)
    }

    /// Parse a report from JSON text.
    pub fn parse(text: &str) -> Result<RunReport, String> {
        RunReport::from_json(&J::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample_report() -> RunReport {
        let mut r = RunReport::new("dnnd-construct");
        r.param("input", "preset:blobs,n=1000")
            .param("seed", 42)
            .param("metric", "l2");
        r.n_ranks = 4;
        r.iterations = 6;
        r.distance_evals = 123_456;
        r.sim_secs = 1.5;
        r.wall_secs = 0.25;
        r.compute_secs = 0.9;
        r.comm_secs = 0.4;
        r.barrier_secs = 0.2;
        r.tags = vec![TagReport {
            tag: 14,
            name: "Type 1".into(),
            count: 100,
            bytes: 6_400,
            remote_count: 75,
            remote_bytes: 4_800,
        }];
        r.total_count = 100;
        r.total_bytes = 6_400;
        r.total_remote_count = 75;
        r.total_remote_bytes = 4_800;
        r.phases = vec![PhaseReport {
            index: 0,
            compute_secs: 0.1,
            comm_secs: 0.05,
            barrier_secs: 0.01,
            msgs: 10,
            bytes: 640,
        }];
        r.convergence = vec![
            ConvergencePoint {
                iteration: 0,
                updates: 500,
            },
            ConvergencePoint {
                iteration: 1,
                updates: 17,
            },
        ];
        r.recall = Some(0.97);
        let h = Histogram::new();
        for i in 1..=100 {
            h.record(i);
        }
        r.add_histograms(&[("flush_bytes".into(), h.snapshot())]);
        r.metric("queries_per_sec", 1234.5);
        r.series = vec![
            SeriesSnapshot {
                name: "send_buf_bytes".into(),
                rank: 0,
                points: vec![
                    SeriesPoint {
                        t_ns: 10_000,
                        value: 128.0,
                    },
                    SeriesPoint {
                        t_ns: 20_000,
                        value: 96.5,
                    },
                ],
            },
            SeriesSnapshot {
                name: "send_buf_bytes".into(),
                rank: 3,
                points: vec![SeriesPoint {
                    t_ns: 10_000,
                    value: 64.0,
                }],
            },
        ];
        r.matrix = Some(MatrixSection {
            n_ranks: 2,
            tags: vec![MatrixTagReport {
                tag: 14,
                name: "Type 1".into(),
                counts: vec![10, 20, 30, 40],
                bytes: vec![100, 200, 300, 6_400 - 600],
            }],
        });
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sample_report();
        let text = r.to_json_string();
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn compact_round_trip_too() {
        let r = sample_report();
        let back = RunReport::parse(&r.to_json().to_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn none_recall_round_trips() {
        let mut r = sample_report();
        r.recall = None;
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back.recall, None);
    }

    #[test]
    fn fault_section_round_trips() {
        let mut r = sample_report();
        r.faults = Some(FaultSection {
            sim_seed: 424242,
            profile: "stormy".into(),
            dropped: 12,
            duplicated: 3,
            delayed: 9,
            stalls: 2,
            jittered_flushes: 40,
            retransmits: 15,
            dedup_discards: 5,
            forced_deliveries: 1,
        });
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.faults.as_ref().unwrap().sim_seed, 424242);
    }

    #[test]
    fn missing_fault_section_parses_as_none() {
        // Fault-free documents (including pre-fault schema v1 reports)
        // simply lack the key.
        let r = sample_report();
        let text = r.to_json_string();
        assert!(!text.contains("\"faults\""));
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.faults, None);
    }

    fn sample_vdb() -> VdbSection {
        VdbSection {
            namespaces: vec![VdbNamespaceSection {
                name: "prod".into(),
                points: 1_000,
                live: 930,
                tombstones: 20,
                dead: 50,
                epoch: 3,
                inserts: 12,
                deletes: 70,
                compactions: 2,
            }],
            filtered_queries: 44,
            cache_suppressed_ids: 5,
            selectivity_hist: vec![(1, 10), (4, 30), (9, 4)],
        }
    }

    #[test]
    fn vdb_section_round_trips() {
        let mut r = sample_report();
        r.vdb = Some(sample_vdb());
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        let ns = &back.vdb.as_ref().unwrap().namespaces[0];
        assert_eq!(ns.live + ns.tombstones + ns.dead, ns.points);
    }

    #[test]
    fn missing_vdb_section_parses_as_none() {
        let r = sample_report();
        let text = r.to_json_string();
        assert!(!text.contains("\"vdb\""));
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.vdb, None);
    }

    #[test]
    fn rejects_future_schema_version_naming_both() {
        let text = sample_report()
            .to_json_string()
            .replace("\"schema_version\": 8", "\"schema_version\": 999");
        let err = RunReport::parse(&text).unwrap_err();
        assert!(
            err.contains("999"),
            "error must name the found version: {err}"
        );
        assert!(
            err.contains("v1") && err.contains("v8"),
            "error must name the supported range: {err}"
        );
        // v0 is below the supported range too.
        let text = sample_report()
            .to_json_string()
            .replace("\"schema_version\": 8", "\"schema_version\": 0");
        assert!(RunReport::parse(&text).is_err());
    }

    fn sample_serving() -> ServingSection {
        ServingSection {
            serve_seed: 777,
            slot_ns: 250_000,
            slots: 64,
            offered: 500,
            admitted: 430,
            answered: 400,
            cache_hits: 50,
            cache_evictions: 7,
            shed_deadline: 20,
            shed_overload: 20,
            degraded: 35,
            max_queue_depth: 48,
            p50_ns: 500_000,
            p95_ns: 1_750_000,
            p99_ns: 2_500_000,
            mean_latency_ns: 612_500.25,
            latency_hist: vec![(1, 300), (2, 80), (7, 15), (10, 5)],
            client_p50_ns: 750_000,
            client_p99_ns: 3_250_000,
            client_hist: vec![(1, 280), (3, 100), (13, 20)],
            tenants: vec![
                TenantSloSection {
                    name: "gold".into(),
                    share_pct: 50,
                    offered: 250,
                    admitted: 235,
                    answered: 215,
                    cache_hits: 30,
                    shed_overload: 5,
                    shed_deadline: 10,
                    degraded: 12,
                    slo_attainment: 0.98,
                    p50_ns: 500_000,
                    p99_ns: 2_000_000,
                    latency_hist: vec![(1, 180), (2, 35)],
                },
                TenantSloSection {
                    name: "free".into(),
                    share_pct: 50,
                    offered: 250,
                    admitted: 195,
                    answered: 185,
                    cache_hits: 20,
                    shed_overload: 15,
                    shed_deadline: 10,
                    degraded: 23,
                    slo_attainment: 0.82,
                    p50_ns: 650_000,
                    p99_ns: 2_500_000,
                    latency_hist: vec![(1, 120), (2, 45), (7, 15), (10, 5)],
                },
            ],
            result_digest: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[test]
    fn serving_section_round_trips() {
        let mut r = sample_report();
        r.serving = Some(sample_serving());
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        let s = back.serving.unwrap();
        assert_eq!(s.latency_hist, vec![(1, 300), (2, 80), (7, 15), (10, 5)]);
        assert_eq!(s.result_digest, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(s.client_hist, vec![(1, 280), (3, 100), (13, 20)]);
        assert_eq!(s.tenants.len(), 2);
        assert_eq!(s.tenants[0].name, "gold");
        assert_eq!(s.tenants[1].latency_hist.len(), 4);
    }

    #[test]
    fn tenantless_serving_omits_the_tenants_key() {
        let mut r = sample_report();
        let mut s = sample_serving();
        s.tenants.clear();
        r.serving = Some(s);
        let text = r.to_json_string();
        assert!(!text.contains("\"tenants\""));
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back, r);
        assert!(back.serving.unwrap().tenants.is_empty());
    }

    #[test]
    fn accepts_v6_serving_without_client_or_tenant_fields() {
        // A v6 serving section lacks the client-perceived fields and the
        // tenants array — it must parse with zeros / empty vectors.
        let mut r = sample_report();
        r.serving = Some(sample_serving());
        let mut v = r.to_json();
        if let J::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "schema_version" {
                    *val = J::uint(6);
                }
                if k == "serving" {
                    if let J::Obj(sv) = val {
                        sv.retain(|(sk, _)| {
                            sk != "client_p50_ns"
                                && sk != "client_p99_ns"
                                && sk != "client_hist"
                                && sk != "tenants"
                        });
                    }
                }
            }
        }
        let back = RunReport::parse(&v.pretty()).unwrap();
        let s = back.serving.unwrap();
        assert_eq!(s.client_p50_ns, 0);
        assert_eq!(s.client_p99_ns, 0);
        assert!(s.client_hist.is_empty());
        assert!(s.tenants.is_empty());
        // The pre-v7 fields still read in full.
        assert_eq!(s.latency_hist, vec![(1, 300), (2, 80), (7, 15), (10, 5)]);
        assert_eq!(s.result_digest, 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn missing_serving_section_parses_as_none() {
        // Non-serving documents (including every pre-v3 report) simply
        // lack the key.
        let r = sample_report();
        let text = r.to_json_string();
        assert!(!text.contains("\"serving\""));
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.serving, None);
    }

    #[test]
    fn accepts_schema_v2_documents() {
        // A v2 document lacks serving/critical_path sections and carries
        // the old version stamp — it must still parse in full.
        let r = sample_report();
        let text = r
            .to_json_string()
            .replace("\"schema_version\": 8", "\"schema_version\": 2");
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.serving, None);
        assert_eq!(back.series, r.series);
        assert_eq!(back.matrix, r.matrix);
        assert_eq!(back.tags, r.tags);
    }

    #[test]
    fn accepts_schema_v3_documents() {
        // A v3 document has serving but no critical_path/dropped_spans keys
        // and the old version stamp — it must parse with both defaulted.
        let mut r = sample_report();
        r.serving = Some(sample_serving());
        let mut v = r.to_json();
        if let J::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "dropped_spans" && k != "critical_path");
            for (k, val) in fields.iter_mut() {
                if k == "schema_version" {
                    *val = J::uint(3);
                }
            }
        }
        let back = RunReport::parse(&v.pretty()).unwrap();
        assert_eq!(back.critical_path, None);
        assert_eq!(back.dropped_spans, 0);
        assert_eq!(back.serving, r.serving);
        assert_eq!(back.tags, r.tags);
    }

    #[test]
    fn accepts_schema_v1_documents() {
        // A v1 document is a v2 document minus the series/matrix keys with
        // the old version stamp — it must parse with empty telemetry.
        let mut r = sample_report();
        r.series.clear();
        r.matrix = None;
        let mut v = r.to_json();
        if let J::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "series" && k != "dropped_spans");
            for (k, val) in fields.iter_mut() {
                if k == "schema_version" {
                    *val = J::uint(1);
                }
            }
        }
        let text = v.pretty();
        assert!(text.contains("\"schema_version\": 1"));
        assert!(!text.contains("\"series\""));
        let back = RunReport::parse(&text).unwrap();
        assert!(back.series.is_empty());
        assert_eq!(back.matrix, None);
        assert_eq!(back.tags, r.tags); // aggregates still read
    }

    #[test]
    fn critical_path_section_and_dropped_spans_round_trip() {
        let mut r = sample_report();
        r.dropped_spans = 17;
        r.critical_path = Some(CriticalPathSection {
            n_ranks: 2,
            phases: 2,
            critical_path_ns: 12_000,
            collective_ns: 1_220,
            compute_ns: 7_000,
            comm_ns: 2_780,
            stall_ns: 600,
            retransmit_ns: 400,
            rank_slack_ns: vec![0.0, 5_644.5],
            rank_critical_phases: vec![2, 0],
            straggler_score: 0.25,
            phase_attribution: vec![PhaseAttribution {
                index: 0,
                total_ns: 10_003,
                compute_ns: 7_000,
                comm_ns: 2_003,
                stall_ns: 600,
                retransmit_ns: 400,
                critical_rank: 0,
            }],
        });
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        let c = back.critical_path.unwrap();
        assert_eq!(c.attribution_sum_ns(), c.critical_path_ns);
        assert_eq!(back.dropped_spans, 17);
    }

    fn sample_rnn() -> RnnSection {
        RnnSection {
            t1: 3,
            t2: 8,
            k0: 10,
            r: 30,
            rounds: vec![
                RnnRoundReport {
                    outer: 0,
                    inner: 0,
                    pairs: 4_200,
                    pruned: 310,
                    added: 295,
                },
                RnnRoundReport {
                    outer: 0,
                    inner: 1,
                    pairs: 900,
                    pruned: 40,
                    added: 12,
                },
            ],
            reverse_added: vec![1_800, 120, 7],
            dist_evals: 5_100,
            repaired: 2,
        }
    }

    #[test]
    fn rnn_section_round_trips() {
        let mut r = sample_report();
        r.rnn = Some(sample_rnn());
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        let s = back.rnn.unwrap();
        assert_eq!(s.rounds.len(), 2);
        assert_eq!(s.reverse_added, vec![1_800, 120, 7]);
        assert_eq!(s.dist_evals, 5_100);
        assert_eq!(s.repaired, 2);
    }

    #[test]
    fn missing_rnn_section_parses_as_none() {
        // Non-RNN documents (including every pre-v5 report) simply lack
        // the key.
        let r = sample_report();
        let text = r.to_json_string();
        assert!(!text.contains("\"rnn\""));
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.rnn, None);
    }

    #[test]
    fn accepts_schema_v4_documents() {
        // A v4 document has critical_path/dropped_spans but no rnn key and
        // the old version stamp — it must parse with rnn defaulted.
        let r = sample_report();
        let text = r
            .to_json_string()
            .replace("\"schema_version\": 8", "\"schema_version\": 4");
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.rnn, None);
        assert_eq!(back.tags, r.tags);
        assert_eq!(back.matrix, r.matrix);
    }

    #[test]
    fn accepts_schema_v5_documents() {
        // A v5 document has rnn but no query_forensics /
        // dropped_spans_per_rank keys and the old version stamp — it must
        // parse with both defaulted.
        let mut r = sample_report();
        r.rnn = Some(sample_rnn());
        let text = r
            .to_json_string()
            .replace("\"schema_version\": 8", "\"schema_version\": 5");
        assert!(!text.contains("\"query_forensics\""));
        assert!(!text.contains("\"dropped_spans_per_rank\""));
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.query_forensics, None);
        assert!(back.dropped_spans_per_rank.is_empty());
        assert_eq!(back.rnn, r.rnn);
        assert_eq!(back.tags, r.tags);
    }

    fn sample_forensics() -> QueryForensicsSection {
        QueryForensicsSection {
            window_slots: 8,
            slow_n: 4,
            considered: 150,
            retained: 2,
            retained_slow: 1,
            retained_exemplar: 1,
            stage_hists: vec![
                ("admission".into(), vec![(0, 150)]),
                ("batch_wait".into(), vec![(0, 100), (2, 50)]),
                ("dispatch".into(), vec![(0, 140), (4, 10)]),
                ("search".into(), vec![(1, 150)]),
                ("response".into(), vec![(0, 150)]),
            ],
            exemplars: vec![
                QueryExemplar {
                    idx: 17,
                    pool_id: 41,
                    tenant: 1,
                    verdict: "answered".into(),
                    why: "slow|deadline_miss".into(),
                    degrade_level: 1,
                    cache_key_hash: 0xABCD_EF01_2345_6789,
                    arrived_slot: 10,
                    done_slot: 17,
                    admission_slots: 0,
                    batch_wait_slots: 2,
                    dispatch_slots: 4,
                    search_slots: 1,
                    response_slots: 0,
                    latency_slots: 7,
                    expansions: 12,
                    dist_evals: 340,
                    rounds: 13,
                    deadline_miss: true,
                },
                QueryExemplar {
                    idx: 3,
                    pool_id: 9,
                    tenant: 0,
                    verdict: "shed_overload".into(),
                    why: "shed".into(),
                    degrade_level: 0,
                    cache_key_hash: 0x0000_0000_0000_0001,
                    arrived_slot: 2,
                    done_slot: 2,
                    admission_slots: 0,
                    batch_wait_slots: 0,
                    dispatch_slots: 0,
                    search_slots: 0,
                    response_slots: 0,
                    latency_slots: 0,
                    expansions: 0,
                    dist_evals: 0,
                    rounds: 0,
                    deadline_miss: false,
                },
            ],
            digest: 0xFEED_FACE_0123_4567,
        }
    }

    #[test]
    fn query_forensics_section_round_trips() {
        let mut r = sample_report();
        r.query_forensics = Some(sample_forensics());
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        let q = back.query_forensics.unwrap();
        assert_eq!(q.exemplars.len(), 2);
        // Hex-string fields survive the trip without double rounding.
        assert_eq!(q.exemplars[0].cache_key_hash, 0xABCD_EF01_2345_6789);
        assert_eq!(q.digest, 0xFEED_FACE_0123_4567);
        assert!(q.exemplars[0].deadline_miss);
        assert_eq!(q.exemplars[0].tenant, 1);
        assert_eq!(q.exemplars[1].tenant, 0);
        // The waterfall invariant holds for every exemplar.
        for e in &q.exemplars {
            assert_eq!(e.stage_sum(), e.latency_slots);
        }
    }

    #[test]
    fn missing_query_forensics_parses_as_none() {
        let text = sample_report().to_json_string();
        assert!(!text.contains("\"query_forensics\""));
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.query_forensics, None);
    }

    #[test]
    fn dropped_spans_per_rank_round_trips_and_sums() {
        let mut r = sample_report();
        r.set_dropped_spans_per_rank(vec![0, 12, 0, 5]);
        assert_eq!(r.dropped_spans, 17);
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back.dropped_spans_per_rank, vec![0, 12, 0, 5]);
        assert_eq!(back.dropped_spans, 17);
        assert_eq!(back, r);
    }

    #[test]
    fn missing_critical_path_section_parses_as_none() {
        let text = sample_report().to_json_string();
        assert!(!text.contains("\"critical_path\""));
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.critical_path, None);
    }

    #[test]
    fn series_and_matrix_round_trip() {
        let r = sample_report();
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back.series, r.series);
        assert_eq!(back.matrix, r.matrix);
        let m = back.matrix.unwrap();
        assert_eq!(m.total_counts(), vec![10, 20, 30, 40]);
        assert_eq!(m.total_counts().iter().sum::<u64>(), 100); // == tag count
        assert_eq!(m.total_bytes().iter().sum::<u64>(), 6_400); // == tag bytes
    }

    #[test]
    fn rejects_malformed_matrix_cells() {
        // Cell-count mismatch with n_ranks² must be a parse error, not a
        // silently truncated matrix.
        let mut r = sample_report();
        r.matrix.as_mut().unwrap().tags[0].counts.pop();
        let err = RunReport::parse(&r.to_json_string()).unwrap_err();
        assert!(err.contains("cells"), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Schema v2 serialize→parse is the identity on arbitrary series
        /// and matrix payloads (satellite: round-trip property test).
        #[test]
        fn v2_round_trip_property(
            n_ranks in 1u64..5,
            point_vals in proptest::collection::vec(0u64..1_000_000, 0..20),
            cell_seed in 0u64..1_000,
        ) {
            use proptest::prelude::*;
            let mut r = RunReport::new("prop");
            r.n_ranks = n_ranks;
            r.series = vec![SeriesSnapshot {
                name: "g".into(),
                rank: n_ranks - 1,
                points: point_vals
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| SeriesPoint {
                        t_ns: i as u64 * 10_000,
                        value: v as f64 / 16.0,
                    })
                    .collect(),
            }];
            let cells = (n_ranks * n_ranks) as usize;
            r.matrix = Some(MatrixSection {
                n_ranks,
                tags: vec![MatrixTagReport {
                    tag: 3,
                    name: "t".into(),
                    counts: (0..cells as u64).map(|i| i * cell_seed).collect(),
                    bytes: (0..cells as u64).map(|i| i + cell_seed).collect(),
                }],
            });
            let back = RunReport::parse(&r.to_json_string()).unwrap();
            prop_assert_eq!(back, r);
        }

        /// Schema v3 serialize→parse is the identity on arbitrary serving
        /// sections (counters, histogram buckets, digest).
        #[test]
        fn v3_serving_round_trip_property(
            // Seeds ride the JSON number channel (f64), so stay in the
            // exactly-representable range; the digest is hex-encoded and
            // covers the full 64 bits.
            seed in 0u64..(1 << 50),
            counts in proptest::collection::vec(0u64..10_000, 0..16),
            digest in proptest::prelude::any::<u64>(),
        ) {
            use proptest::prelude::*;
            let mut r = RunReport::new("prop-serve");
            r.serving = Some(ServingSection {
                serve_seed: seed,
                slot_ns: 1 + seed % 1_000_000,
                offered: counts.iter().sum(),
                latency_hist: counts
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (i as u64 + 1, c))
                    .collect(),
                result_digest: digest,
                ..Default::default()
            });
            let back = RunReport::parse(&r.to_json_string()).unwrap();
            prop_assert_eq!(back, r);
        }
    }

    #[test]
    fn histogram_summary_fields() {
        let r = sample_report();
        let h = &r.histograms[0];
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert!(h.p50 >= 45 && h.p50 <= 50);
    }

    #[test]
    fn metric_registry_paths_are_unique_and_gates_sane() {
        let mut r = sample_report();
        r.faults = Some(FaultSection {
            retransmits: 3,
            ..Default::default()
        });
        r.serving = Some(sample_serving());
        r.query_forensics = Some(sample_forensics());
        r.rnn = Some(sample_rnn());
        r.vdb = Some(sample_vdb());
        r.critical_path = Some(CriticalPathSection::default());
        let groups = r.metric_groups();
        assert!(groups.iter().all(|g| g.metrics.is_some()));
        let all: Vec<&Metric> = groups
            .iter()
            .flat_map(|g| g.metrics.iter().flatten())
            .collect();
        let mut paths: Vec<&str> = all.iter().map(|m| m.path.as_str()).collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), all.len(), "duplicate metric path");
        for m in &all {
            if let MetricValue::Num(_, gate) = m.value {
                assert!(
                    gate.tolerance.is_finite() && gate.tolerance >= 0.0,
                    "{}",
                    m.path
                );
                let info = m.path == "wall_secs" || m.path.starts_with("extra.");
                assert_eq!(gate.direction == Direction::Info, info, "{}", m.path);
            }
        }
        let digests = all
            .iter()
            .filter(|m| matches!(m.value, MetricValue::Exact(_)));
        assert_eq!(digests.count(), 1, "the forensics digest");
    }
}
