//! Instrumentation for the traced run: a timing [`BatchMetric`] decorator
//! and a wall-clock span log with parent ids.
//!
//! Both live on the benchmark side of each public call. The decorator
//! aggregates calls, pairs and busy nanoseconds per thread (one span per
//! kernel call would be millions of spans per build); the span log records
//! one span around each call into a layer and is written out when the run
//! ends.

use dataset::batch::{BatchMetric, NormCache};
use dataset::metric::Metric;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One thread's kernel counters. Only the owning thread writes them, so
/// the `Relaxed` adds are uncontended; they publish no other data.
#[derive(Default)]
struct Counters {
    calls: AtomicU64,
    pairs: AtomicU64,
    busy_ns: AtomicU64,
}

/// Per-thread kernel counters of one [`Timed`] metric and its clones.
pub struct KernelLedger {
    id: usize,
    threads: Mutex<Vec<Arc<Counters>>>,
}

/// Sums over every thread that called the kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTotals {
    pub calls: u64,
    pub pairs: u64,
    pub busy_ns: u64,
    /// Threads that made at least one call.
    pub threads: usize,
}

static NEXT_LEDGER: AtomicUsize = AtomicUsize::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's counters, one entry per ledger it has recorded into.
    static LOCAL: RefCell<Vec<(usize, Arc<Counters>)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl KernelLedger {
    pub fn new() -> Arc<KernelLedger> {
        Arc::new(KernelLedger {
            id: NEXT_LEDGER.fetch_add(1, Ordering::Relaxed),
            threads: Mutex::new(Vec::new()),
        })
    }

    fn record(&self, pairs: usize, busy_ns: u64) {
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let counters = match local.iter().find(|(id, _)| *id == self.id) {
                Some((_, c)) => Arc::clone(c),
                None => {
                    let c = Arc::new(Counters::default());
                    self.threads
                        .lock()
                        .expect("kernel ledger lock poisoned by a panicking thread")
                        .push(Arc::clone(&c));
                    local.push((self.id, Arc::clone(&c)));
                    c
                }
            };
            counters.calls.fetch_add(1, Ordering::Relaxed);
            counters.pairs.fetch_add(pairs as u64, Ordering::Relaxed);
            counters.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        });
    }

    /// Totals so far. Read after the measured calls have returned (a
    /// `World::run` joins its rank threads before returning).
    pub fn totals(&self) -> KernelTotals {
        let threads = self
            .threads
            .lock()
            .expect("kernel ledger lock poisoned by a panicking thread");
        threads.iter().fold(
            KernelTotals {
                threads: threads.len(),
                ..KernelTotals::default()
            },
            |t, c| KernelTotals {
                calls: t.calls + c.calls.load(Ordering::Relaxed),
                pairs: t.pairs + c.pairs.load(Ordering::Relaxed),
                busy_ns: t.busy_ns + c.busy_ns.load(Ordering::Relaxed),
                threads: t.threads,
            },
        )
    }
}

/// A [`BatchMetric`] that times every batched call of the metric it wraps
/// and adds it to a [`KernelLedger`]. Distances are the inner metric's,
/// bit for bit; the scalar [`Metric::distance`] is passed through untimed
/// (the engines evaluate through the batched entry points).
#[derive(Clone)]
pub struct Timed<M> {
    inner: M,
    ledger: Arc<KernelLedger>,
}

impl<M> Timed<M> {
    pub fn new(inner: M, ledger: Arc<KernelLedger>) -> Timed<M> {
        Timed { inner, ledger }
    }
}

impl<P, M: Metric<P>> Metric<P> for Timed<M> {
    fn distance(&self, a: &P, b: &P) -> f32 {
        self.inner.distance(a, b)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<P: Point, M: BatchMetric<P>> BatchMetric<P> for Timed<M> {
    fn preprocess(&self, set: &PointSet<P>) -> NormCache {
        self.inner.preprocess(set)
    }

    fn distance_one_to_many(
        &self,
        q: &P,
        set: &PointSet<P>,
        cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        let t = Instant::now();
        self.inner.distance_one_to_many(q, set, cache, cands, out);
        self.ledger
            .record(cands.len(), t.elapsed().as_nanos() as u64);
    }

    fn distance_many_to_many(
        &self,
        qs: &[P],
        set: &PointSet<P>,
        cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        let t = Instant::now();
        self.inner.distance_many_to_many(qs, set, cache, cands, out);
        self.ledger
            .record(qs.len() * cands.len(), t.elapsed().as_nanos() as u64);
    }
}

/// One finished span. `parent` is 0 for a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Small per-process thread number (the Chrome trace's `tid`).
    pub thread: u64,
}

/// Wall-clock spans kept in memory until the run ends. A disabled log
/// runs the closures and records nothing, so traced and untraced runs
/// share one code path.
pub struct Spans {
    enabled: bool,
    t0: Instant,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

/// Per span name: count, total and self time (duration minus the part
/// its child spans cover).
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` under `parent` (0 = root). `f`
    /// receives the new span's id to pass to its children.
    pub fn run<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let thread = THREAD.with(|t| *t);
        self.done
            .lock()
            .expect("span log lock poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                thread,
            });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .done
            .lock()
            .expect("span log lock poisoned by a panicking thread")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Self time per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let spans = self.spans();
        let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for s in &spans {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for s in &spans {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            match out.iter_mut().find(|t| t.name == s.name) {
                Some(t) => {
                    t.count += 1;
                    t.total_ns += total;
                    t.self_ns += own;
                }
                None => out.push(SelfTime {
                    name: s.name,
                    count: 1,
                    total_ns: total,
                    self_ns: own,
                }),
            }
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span with its id and parent in `args`.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\": [");
        for (i, sp) in self.spans().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                sp.name,
                sp.thread,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.id,
                sp.parent
            );
        }
        s.push_str("\n]}\n");
        s
    }
}
