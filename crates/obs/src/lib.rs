//! `ar-obs` — observability for the measurement pipeline.
//!
//! One [`Obs`] handle carries three instruments through every layer of a
//! study run:
//!
//! * a **metrics registry** — named [`Counter`]s, [`Gauge`]s and log₂-bucket
//!   [`Histogram`]s backed by atomics, so the parallel orchestrator's tasks
//!   can publish without contending on a shared lock;
//! * **phase spans** — nested wall-clock timers (`study`, `study/crawl[0]`,
//!   `study/atlas/detect`, …) aggregated per path, recording how often each
//!   span ran, the summed per-thread work time, and the longest single run;
//! * an **event log** — discrete notable events ([`EventKind`]: retry fired,
//!   checkpoint resumed, feed day bridged, AS blackout entered/exited,
//!   panic-guard degraded a phase), each carrying a count so high-volume
//!   occurrences aggregate into one record.
//!
//! [`Obs::report`] snapshots everything into a [`RunReport`] (sorted maps,
//! events in a canonical order) which the CLI writes as JSON via
//! `--metrics-out` ([`RunReport::to_json`], through the one [`json`]
//! writer) and [`RunReport::render_md`] summarizes.
//!
//! For *live* services the cumulative registry is complemented by a
//! windowed layer: [`WindowRing`] aggregates per-window metric deltas
//! over a deterministic logical clock of query-ordinal ticks, and
//! [`TraceSampler`] keeps a seeded, order-independent sample of
//! [`TraceRecord`]s — both pure functions of the tick stream, never of
//! wall time.
//!
//! ## Determinism contract
//!
//! Instrumentation must never perturb study output: an [`Obs::disabled`]
//! handle turns every operation into a no-op, and an enabled one only
//! *observes* — it draws no randomness and feeds nothing back. Counters,
//! histograms and events commute, and the snapshot canonicalizes order, so
//! every non-timing [`RunReport`] field is identical across thread counts.

mod event;
pub mod json;
mod report;
mod trace;
mod window;

pub use event::{Event, EventKind};
pub use report::{BucketCount, HistogramSnapshot, PhaseHealth, RunReport, SpanSnapshot};
pub use trace::{TraceRecord, TraceSampler};
pub use window::{Window, WindowHistogram, WindowRing};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Number of histogram buckets: one for zero, 32 log₂ buckets covering
/// `[2^(i-1), 2^i)`, and one open-ended overflow bucket for `>= 2^32`.
pub const HISTOGRAM_BUCKETS: usize = 34;

/// Bucket a value falls into: `0 -> 0`, otherwise `[2^(i-1), 2^i) -> i`,
/// clamped to the open overflow bucket. Pure and stable — the bucket
/// boundaries are part of the report format.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// `(lo, hi)` bounds of a bucket; `hi = None` marks the open overflow
/// bucket. `lo` is inclusive, `hi` exclusive; bucket 0 holds exactly zero.
pub fn bucket_bounds(i: usize) -> (u64, Option<u64>) {
    match i {
        0 => (0, Some(1)),
        _ if i < HISTOGRAM_BUCKETS - 1 => (1 << (i - 1), Some(1 << i)),
        _ => (1 << (HISTOGRAM_BUCKETS - 2), None),
    }
}

struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    // Writers use AcqRel and the snapshot reader Acquire (R6): snapshots
    // feed serialized artifacts, so worker-thread increments must be
    // visible to whichever thread renders the report.
    fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::AcqRel);
        self.sum.fetch_add(v, Ordering::AcqRel);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::AcqRel);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Acquire);
                (count > 0).then(|| {
                    let (lo, hi) = bucket_bounds(i);
                    BucketCount { lo, hi, count }
                })
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Acquire),
            sum: self.sum.load(Ordering::Acquire),
            buckets,
        }
    }
}

#[derive(Clone, Copy, Default)]
struct SpanAgg {
    count: u64,
    total_secs: f64,
    max_secs: f64,
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    spans: Mutex<BTreeMap<String, SpanAgg>>,
    events: Mutex<Vec<Event>>,
    health: Mutex<BTreeMap<String, PhaseHealth>>,
}

/// A named monotonic counter. Cheap to clone; hold the handle across a hot
/// loop instead of re-looking it up by name. A handle from a disabled
/// [`Obs`] is a no-op.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::AcqRel);
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Acquire))
    }
}

/// A named last-write gauge. Writers must be unique per name (or ordered by
/// the caller) for the value to be deterministic.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Release);
        }
    }

    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Acquire))
    }
}

/// A named fixed-bucket log₂ histogram (see [`bucket_index`]).
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.observe(v);
        }
    }
}

/// RAII timer for one span run: records the elapsed wall time under its
/// path on drop. Obtain via [`Obs::span`].
pub struct SpanGuard {
    obs: Obs,
    path: String,
    start: Instant,
}

impl SpanGuard {
    /// Stop the timer now (dropping does the same; this just names it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        self.obs.record_span(&self.path, secs);
    }
}

/// Shared observability handle. Clone freely — all clones publish into the
/// same registry. [`Obs::disabled`] (also the `Default`) makes every
/// operation a no-op so instrumented code needs no `if` at call sites.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// A live registry.
    pub fn new() -> Self {
        Obs {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A no-op handle: every instrument it hands out discards its input.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get-or-create the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .counters
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        }))
    }

    /// Add `n` to the counter `name` (one-shot; prefer [`Obs::counter`] in
    /// loops).
    pub fn add(&self, name: &str, n: u64) {
        if self.enabled() {
            self.counter(name).add(n);
        }
    }

    /// Get-or-create the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .gauges
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicI64::new(0))),
            )
        }))
    }

    pub fn set_gauge(&self, name: &str, v: i64) {
        if self.enabled() {
            self.gauge(name).set(v);
        }
    }

    /// Get-or-create the histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .histograms
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCore::new())),
            )
        }))
    }

    pub fn observe(&self, name: &str, v: u64) {
        if self.enabled() {
            self.histogram(name).observe(v);
        }
    }

    /// Start a timer for the span `path`; stops when the guard drops.
    pub fn span(&self, path: &str) -> SpanGuard {
        SpanGuard {
            obs: self.clone(),
            path: path.to_string(),
            start: Instant::now(),
        }
    }

    /// Record one completed run of `path` taking `secs`.
    pub fn record_span(&self, path: &str, secs: f64) {
        if let Some(inner) = &self.inner {
            let mut spans = inner.spans.lock().unwrap_or_else(PoisonError::into_inner);
            let agg = spans.entry(path.to_string()).or_default();
            agg.count += 1;
            agg.total_secs += secs;
            agg.max_secs = agg.max_secs.max(secs);
        }
    }

    /// Log a discrete event. `time` is in deterministic sim-time seconds
    /// where the event has one; `count` aggregates repeats (e.g. all ping
    /// retries of one crawl period in a single record).
    pub fn event(
        &self,
        phase: &str,
        kind: EventKind,
        time: Option<u64>,
        count: u64,
        detail: impl Into<String>,
    ) {
        if let Some(inner) = &self.inner {
            inner
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Event {
                    phase: phase.to_string(),
                    kind,
                    time,
                    count,
                    detail: detail.into(),
                });
        }
    }

    /// Record the terminal health verdict of a phase, with the triggering
    /// message when it degraded or failed.
    pub fn set_phase_health(&self, phase: &str, status: &str, reason: &str) {
        if let Some(inner) = &self.inner {
            inner
                .health
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(
                    phase.to_string(),
                    PhaseHealth {
                        status: status.to_string(),
                        reason: reason.to_string(),
                    },
                );
        }
    }

    /// Snapshot everything into a canonical [`RunReport`]: maps are sorted
    /// by name, spans by path, events by (phase, kind, time, detail), so
    /// the report is independent of publication order.
    pub fn report(&self) -> RunReport {
        let Some(inner) = &self.inner else {
            return RunReport::default();
        };
        let counters = inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Acquire)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Acquire)))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let spans = inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(path, agg)| SpanSnapshot {
                path: path.clone(),
                count: agg.count,
                total_secs: agg.total_secs,
                max_secs: agg.max_secs,
            })
            .collect();
        let mut events: Vec<Event> = inner
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        events.sort_by(|a, b| {
            (&a.phase, a.kind, a.time, &a.detail, a.count)
                .cmp(&(&b.phase, b.kind, b.time, &b.detail, b.count))
        });
        let mut event_counts: BTreeMap<String, u64> = BTreeMap::new();
        for e in &events {
            *event_counts.entry(e.kind.name().to_string()).or_default() += e.count;
        }
        let health = inner
            .health
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        RunReport {
            counters,
            gauges,
            histograms,
            spans,
            events,
            event_counts,
            health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let obs = Obs::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let handle = obs.counter("test.hits");
                let obs = obs.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        if i % 2 == 0 {
                            handle.inc();
                        } else {
                            // Exercise the by-name path under contention too.
                            obs.add("test.hits", 1);
                        }
                    }
                });
            }
        });
        assert_eq!(obs.report().counters["test.hits"], threads * per_thread);
    }

    /// A thread that panics while holding the counter registry's lock
    /// poisons it; every later metric write and the report must still
    /// work and keep what was recorded before.
    #[test]
    fn a_poisoned_registry_keeps_recording() {
        let obs = Obs::new();
        obs.add("test.before", 3);
        let inner = Arc::clone(obs.inner.as_ref().expect("enabled"));
        let panicked = std::thread::spawn(move || {
            let _held = inner
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            panic!("metric writer died holding the registry");
        })
        .join();
        assert!(panicked.is_err());
        assert!(obs.inner.as_ref().expect("enabled").counters.is_poisoned());

        obs.add("test.before", 1);
        obs.counter("test.after").add(2);
        let report = obs.report();
        assert_eq!(report.counters["test.before"], 4);
        assert_eq!(report.counters["test.after"], 2);
    }

    #[test]
    fn histogram_bucket_boundaries_are_stable() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for k in 1..32 {
            assert_eq!(bucket_index(1 << k), k + 1, "2^{k} opens bucket {}", k + 1);
            assert_eq!(bucket_index((1 << k) - 1), k, "2^{k}-1 closes bucket {k}");
        }
        assert_eq!(bucket_index(1 << 32), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Bounds agree with the index function on every edge.
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            if let Some(hi) = hi {
                assert_eq!(bucket_index(hi - 1), i);
                assert_eq!(bucket_index(hi), i + 1);
            }
        }
    }

    #[test]
    fn histogram_snapshot_counts_and_sums() {
        let obs = Obs::new();
        let h = obs.histogram("test.sizes");
        for v in [0, 1, 1, 3, 100] {
            h.observe(v);
        }
        let snap = &obs.report().histograms["test.sizes"];
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 105);
        let total: u64 = snap.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 5);
        assert_eq!(
            snap.buckets[0],
            BucketCount {
                lo: 0,
                hi: Some(1),
                count: 1
            }
        );
        assert_eq!(
            snap.buckets[1],
            BucketCount {
                lo: 1,
                hi: Some(2),
                count: 2
            }
        );
    }

    #[test]
    fn spans_aggregate_per_path() {
        let obs = Obs::new();
        obs.record_span("study/crawl[0]", 1.5);
        obs.record_span("study/crawl[0]", 0.5);
        obs.record_span("study", 2.0);
        let report = obs.report();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[0].path, "study");
        let crawl = &report.spans[1];
        assert_eq!(crawl.count, 2);
        assert!((crawl.total_secs - 2.0).abs() < 1e-9);
        assert!((crawl.max_secs - 1.5).abs() < 1e-9);
    }

    #[test]
    fn events_snapshot_in_canonical_order_with_kind_totals() {
        let obs = Obs::new();
        obs.event("crawl[1]", EventKind::RetryFired, None, 7, "loss burst");
        obs.event(
            "blocklists",
            EventKind::FeedDayMissed,
            Some(86_400),
            3,
            "feed 2",
        );
        obs.event("crawl[0]", EventKind::RetryFired, None, 2, "loss burst");
        let report = obs.report();
        let phases: Vec<&str> = report.events.iter().map(|e| e.phase.as_str()).collect();
        assert_eq!(phases, ["blocklists", "crawl[0]", "crawl[1]"]);
        assert_eq!(report.event_counts["retry_fired"], 9);
        assert_eq!(report.event_counts["feed_day_missed"], 3);
    }

    #[test]
    fn disabled_obs_is_a_noop() {
        let obs = Obs::disabled();
        obs.add("x", 5);
        obs.counter("x").inc();
        obs.observe("h", 1);
        obs.set_gauge("g", 9);
        obs.event("p", EventKind::RetryFired, None, 1, "");
        obs.set_phase_health("p", "ok", "");
        obs.record_span("s", 1.0);
        obs.span("s2").finish();
        assert!(!obs.enabled());
        assert_eq!(obs.report(), RunReport::default());
    }
}
