//! The live telemetry plane: windowed metrics, deterministic query
//! tracing, and SLO burn-rate tracking for [`crate::ReputationServer`].
//!
//! The cumulative `ar-obs` registry answers "what did this run do" at
//! exit; this module answers "what is the service doing *now*". It is
//! strictly observation-only — the verdict stream is byte-identical with
//! telemetry on or off, which the determinism suite pins — and it runs
//! on a **logical clock**: the tick is the cumulative count of query
//! ordinals admitted, never wall time (ar-lint R2). Everything here is
//! a pure function of the tick stream, so two same-seed runs produce
//! identical window sequences, trace logs and [`StatsFrame`]s at
//! matching ticks.
//!
//! Three instruments:
//!
//! * a [`WindowRing`] of per-window metric deltas (queries, sheds,
//!   verdict classes, a batch-size log₂ histogram);
//! * a [`TraceSampler`] capturing admission→shard→verdict
//!   [`TraceRecord`]s by stride and seeded bottom-k reservoir;
//! * an SLO tracker evaluating two error budgets (shed rate and
//!   consecutive degraded windows) at every window close, emitting
//!   `slo_breach` / `slo_recovered` events and annotating the health
//!   machine's reason string.
//!
//! The whole plane is exported over the wire as [`crate::wire::OP_STATS`]
//! and scraped live by `bench_chaos`.

use crate::health::{HealthCell, HealthState};
use ar_obs::{EventKind, Obs, TraceRecord, TraceSampler, Window, WindowRing};
use ar_simnet::fnv::FnvHasher;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Phase name shared with [`crate::server::PHASE`] (duplicated to keep
/// this module free of a circular import).
const PHASE: &str = "serve";

/// Window counter names (also the per-window keys in OP_STATS frames).
const W_QUERIES: &str = "queries";
const W_SHED: &str = "shed";
const W_BATCHES: &str = "batches";
const W_BLOCK: &str = "block";
const W_GREYLIST: &str = "greylist";
const W_UNLISTED: &str = "unlisted";
/// Batch-size histogram name inside each window.
const H_BATCH: &str = "batch_len";

/// Shed budget, evaluated at every window close: breach when
/// `1000 * shed / (queries + shed)` inside a closed window exceeds this.
const SHED_BUDGET_PERMILLE: u32 = 50;
/// Degraded-time budget: breach after this many *consecutive* closed
/// windows with the health machine in `Degraded`.
const DEGRADED_BUDGET_WINDOWS: u32 = 2;

/// Telemetry-plane tuning. Defaults keep every instrument on; the SLO
/// budgets are loose enough that a healthy workload never breaches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch; off turns every hook into a no-op (OP_STATS still
    /// answers, with an empty frame).
    pub enabled: bool,
    /// Logical ticks (query ordinals) per window.
    pub ticks_per_window: u64,
    /// Closed windows retained in the ring.
    pub window_capacity: usize,
    /// Trace stride: capture every Nth ordinal (0 = off).
    pub trace_every: u64,
    /// Bottom-k trace reservoir capacity (0 = off).
    pub trace_reservoir: usize,
    /// Seed for the reservoir priorities.
    pub trace_seed: u64,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            enabled: true,
            ticks_per_window: 1024,
            window_capacity: 8,
            trace_every: 128,
            trace_reservoir: 32,
            trace_seed: 0xA11CE,
        }
    }
}

impl TelemetryConfig {
    /// Everything off: no windows, no traces, no SLO evaluation.
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        }
    }
}

/// Where a batch came from, for the trace record. The in-process batch
/// API has no queue or connection; the TCP path fills everything in.
#[derive(Debug, Clone)]
pub(crate) struct BatchOrigin {
    pub(crate) shard: u32,
    pub(crate) queue_depth: u64,
    /// Chaos-plan annotation scheduled for this frame, if any.
    pub(crate) fault: Option<String>,
}

impl BatchOrigin {
    pub(crate) fn in_process() -> BatchOrigin {
        BatchOrigin {
            shard: 0,
            queue_depth: 0,
            fault: None,
        }
    }
}

/// Running SLO state (the wire-visible half lives in [`SloState`]).
#[derive(Debug, Default)]
struct SloTracker {
    breached: bool,
    breaches: u64,
    recoveries: u64,
    windows_evaluated: u64,
    last_shed_permille: u32,
    consecutive_degraded: u32,
}

/// Wire-visible SLO summary inside a [`StatsFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloState {
    pub breached: bool,
    pub breaches: u64,
    pub recoveries: u64,
    pub windows_evaluated: u64,
    /// Shed permille measured in the last evaluated window.
    pub last_shed_permille: u32,
    /// The configured shed budget, echoed so scrapers can render
    /// burn rate without knowing the server's config.
    pub shed_budget_permille: u32,
}

impl SloState {
    /// Zero state for a server with telemetry off.
    pub fn idle() -> SloState {
        SloState {
            breached: false,
            breaches: 0,
            recoveries: 0,
            windows_evaluated: 0,
            last_shed_permille: 0,
            shed_budget_permille: 0,
        }
    }
}

/// One retained window as exported over the wire: its index, counters,
/// and the batch-size histogram delta folded to (count, sum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSummary {
    pub index: u64,
    pub counters: BTreeMap<String, u64>,
    pub batch_count: u64,
    pub batch_sum: u64,
}

impl WindowSummary {
    fn from_window(w: &Window) -> WindowSummary {
        let (batch_count, batch_sum) = w
            .histograms
            .get(H_BATCH)
            .map(|h| (h.count, h.sum))
            .unwrap_or((0, 0));
        WindowSummary {
            index: w.index,
            counters: w.counters.clone(),
            batch_count,
            batch_sum,
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// One live telemetry scrape: the payload of an `OP_STATS` answer.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsFrame {
    /// Logical clock at scrape time (cumulative query ordinals).
    pub tick: u64,
    /// Generation new queries answer from.
    pub generation: u64,
    pub health_state: HealthState,
    /// Per-shard admission-queue depths at scrape time.
    pub queue_depths: Vec<u64>,
    /// Cumulative `serve.*` counters; `serve.frames_rejected` is
    /// *derived* (sum of the per-reason counters), so the aggregate can
    /// never drift from its parts.
    pub counters: BTreeMap<String, u64>,
    /// Retained windows oldest first, the open window last.
    pub windows: Vec<WindowSummary>,
    pub slo: SloState,
    /// Canonical trace-log length.
    pub trace_count: u64,
    /// FNV-1a digest of the canonical trace-log encoding.
    pub trace_digest: u64,
}

impl StatsFrame {
    /// Cumulative counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// One-line rendering for the CLI watch loop and smoke logs.
    pub fn render(&self) -> String {
        let depths: Vec<String> = self.queue_depths.iter().map(|d| d.to_string()).collect();
        let last = self.windows.last();
        format!(
            "tick {} gen {} {} | q=[{}] | window {}: {} queries, {} shed | slo {} ({} breaches, {} windows) | {} traces (digest {:016x})",
            self.tick,
            self.generation,
            self.health_state,
            depths.join(","),
            last.map_or(0, |w| w.index),
            last.map_or(0, |w| w.counter(W_QUERIES)),
            last.map_or(0, |w| w.counter(W_SHED)),
            if self.slo.breached { "BREACHED" } else { "ok" },
            self.slo.breaches,
            self.slo.windows_evaluated,
            self.trace_count,
            self.trace_digest,
        )
    }
}

/// The server-side telemetry plane. All hooks are cheap no-ops when the
/// config is disabled; enabled, every mutation happens under one short
/// mutex keyed by the ring so tick assignment and window accounting stay
/// atomic with respect to each other.
pub(crate) struct Telemetry {
    config: TelemetryConfig,
    /// Mirror of the ring's tick for lock-free reads.
    tick: AtomicU64,
    ring: Mutex<WindowRing>,
    tracer: Mutex<TraceSampler>,
    slo: Mutex<SloTracker>,
    queue_depths: Vec<AtomicU64>,
}

impl Telemetry {
    pub(crate) fn new(config: TelemetryConfig, shards: usize) -> Telemetry {
        Telemetry {
            config,
            tick: AtomicU64::new(0),
            ring: Mutex::new(WindowRing::new(
                config.ticks_per_window,
                config.window_capacity,
            )),
            tracer: Mutex::new(TraceSampler::new(
                config.trace_every,
                config.trace_reservoir,
                config.trace_seed,
            )),
            slo: Mutex::new(SloTracker::default()),
            queue_depths: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Current logical tick (cumulative query ordinals).
    #[cfg(test)]
    pub(crate) fn tick(&self) -> u64 {
        self.tick.load(Ordering::Acquire)
    }

    /// A connection entered a shard's admission queue.
    pub(crate) fn queue_entered(&self, shard: usize) {
        if !self.config.enabled {
            return;
        }
        if let Some(depth) = self.queue_depths.get(shard) {
            // AcqRel pairs with the Acquire loads in stats_frame (R6):
            // OP_STATS serializes these depths from another thread.
            depth.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// A worker picked a connection out of its queue; returns the depth
    /// observed *including* the departing entry.
    pub(crate) fn queue_left(&self, shard: usize) -> u64 {
        if !self.config.enabled {
            return 0;
        }
        match self.queue_depths.get(shard) {
            Some(depth) => {
                // Saturate at zero: a shed path may have raced the undo.
                let seen = depth.load(Ordering::Acquire);
                if seen > 0 {
                    depth.fetch_sub(1, Ordering::AcqRel);
                }
                seen
            }
            None => 0,
        }
    }

    /// Record one answered batch: advance the logical clock by the batch
    /// length, account the window deltas, offer a trace record, and
    /// evaluate the SLO budgets if a window closed. `verdict_classes`
    /// counts the batch's block, greylist and unlisted verdicts, so they
    /// sum to its length.
    pub(crate) fn on_batch(
        &self,
        obs: &Obs,
        health: &HealthCell,
        origin: &BatchOrigin,
        verdict_classes: (u64, u64, u64),
        generation: u64,
    ) {
        let (block, greylist, unlisted) = verdict_classes;
        let batch_len = block + greylist + unlisted;
        if !self.config.enabled || batch_len == 0 {
            return;
        }
        let (tick, closed) = {
            let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
            let tick = ring.tick() + batch_len;
            ring.add(W_QUERIES, batch_len);
            ring.add(W_BATCHES, 1);
            if block > 0 {
                ring.add(W_BLOCK, block);
            }
            if greylist > 0 {
                ring.add(W_GREYLIST, greylist);
            }
            if unlisted > 0 {
                ring.add(W_UNLISTED, unlisted);
            }
            ring.observe(H_BATCH, batch_len);
            let closed = ring.advance(tick);
            self.tick.store(tick, Ordering::Release);
            (tick, closed)
        };
        self.trace(
            obs,
            TraceRecord {
                // Ordinal of the batch's first query: stable under any
                // batch split because ticks count queries, not batches.
                ordinal: tick - batch_len,
                shard: origin.shard,
                generation,
                queue_depth: origin.queue_depth,
                batch_len: batch_len.min(u64::from(u32::MAX)) as u32,
                outcome: "served".to_string(),
                fault: origin.fault.clone(),
            },
        );
        if let Some(window) = closed {
            self.evaluate_slo(obs, health, &window);
        }
    }

    /// Record one shed admission: a shed consumes one ordinal so the
    /// window sees it, and is traced with outcome `shed`.
    pub(crate) fn on_shed(&self, obs: &Obs, health: &HealthCell, shard: u32) {
        if !self.config.enabled {
            return;
        }
        let (tick, closed) = {
            let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
            let tick = ring.tick() + 1;
            ring.add(W_SHED, 1);
            let closed = ring.advance(tick);
            self.tick.store(tick, Ordering::Release);
            (tick, closed)
        };
        self.trace(
            obs,
            TraceRecord {
                ordinal: tick - 1,
                shard,
                generation: 0,
                queue_depth: self
                    .queue_depths
                    .get(shard as usize)
                    .map_or(0, |d| d.load(Ordering::Acquire)),
                batch_len: 0,
                outcome: "shed".to_string(),
                fault: None,
            },
        );
        if let Some(window) = closed {
            self.evaluate_slo(obs, health, &window);
        }
    }

    fn trace(&self, obs: &Obs, record: TraceRecord) {
        let captured = self
            .tracer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .offer(record);
        if captured {
            obs.add("serve.traces_sampled", 1);
            obs.event(PHASE, EventKind::TraceSampled, None, 1, "trace captured");
        }
    }

    /// Evaluate every budget against one closed window.
    fn evaluate_slo(&self, obs: &Obs, health: &HealthCell, window: &Window) {
        let queries = window.counter(W_QUERIES);
        let shed = window.counter(W_SHED);
        let admitted = queries + shed;
        let shed_permille = shed.saturating_mul(1000).checked_div(admitted).unwrap_or(0) as u32;

        let mut slo = self.slo.lock().unwrap_or_else(PoisonError::into_inner);
        slo.windows_evaluated += 1;
        slo.last_shed_permille = shed_permille;
        if health.state() == HealthState::Degraded {
            slo.consecutive_degraded += 1;
        } else {
            slo.consecutive_degraded = 0;
        }

        let mut burns: Vec<String> = Vec::new();
        if shed_permille > SHED_BUDGET_PERMILLE {
            burns.push(format!(
                "shed {shed_permille}‰ > budget {SHED_BUDGET_PERMILLE}‰"
            ));
        }
        if slo.consecutive_degraded > DEGRADED_BUDGET_WINDOWS {
            burns.push(format!(
                "degraded for {} windows > budget {DEGRADED_BUDGET_WINDOWS}",
                slo.consecutive_degraded
            ));
        }

        let breach_now = !burns.is_empty();
        if breach_now && !slo.breached {
            slo.breached = true;
            slo.breaches += 1;
            let detail = format!("window {}: {}", window.index, burns.join("; "));
            obs.add("serve.slo_breaches", 1);
            obs.event(PHASE, EventKind::SloBreach, None, 1, detail.clone());
            annotate_health(obs, health, &format!("breach: {detail}"));
        } else if !breach_now && slo.breached {
            slo.breached = false;
            slo.recoveries += 1;
            let detail = format!("window {}: budgets back under control", window.index);
            obs.add("serve.slo_recoveries", 1);
            obs.event(PHASE, EventKind::SloRecovered, None, 1, detail.clone());
            annotate_health(obs, health, &format!("recovered: {detail}"));
        }
    }

    fn slo_state(&self) -> SloState {
        let slo = self.slo.lock().unwrap_or_else(PoisonError::into_inner);
        SloState {
            breached: slo.breached,
            breaches: slo.breaches,
            recoveries: slo.recoveries,
            windows_evaluated: slo.windows_evaluated,
            last_shed_permille: slo.last_shed_permille,
            shed_budget_permille: SHED_BUDGET_PERMILLE,
        }
    }

    /// Assemble a scrape. `counters` must already carry the cumulative
    /// registry view (with the derived reject aggregate) — the caller
    /// owns the `Obs`, this module owns the windows/traces/SLO.
    pub(crate) fn stats_frame(
        &self,
        generation: u64,
        health_state: HealthState,
        counters: BTreeMap<String, u64>,
    ) -> StatsFrame {
        if !self.config.enabled {
            return StatsFrame {
                tick: 0,
                generation,
                health_state,
                queue_depths: vec![0; self.queue_depths.len()],
                counters,
                windows: Vec::new(),
                slo: SloState::idle(),
                trace_count: 0,
                trace_digest: 0,
            };
        }
        let (tick, windows) = {
            let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
            let windows = ring
                .windows()
                .into_iter()
                .map(WindowSummary::from_window)
                .collect();
            (ring.tick(), windows)
        };
        let (trace_count, trace_digest) = {
            let log = self
                .tracer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .canonical_log();
            (log.len() as u64, trace_log_digest(&log))
        };
        StatsFrame {
            tick,
            generation,
            health_state,
            queue_depths: self
                .queue_depths
                .iter()
                .map(|d| d.load(Ordering::Acquire))
                .collect(),
            counters,
            windows,
            slo: self.slo_state(),
            trace_count,
            trace_digest,
        }
    }

    /// The canonical trace log (sorted by ordinal, deduplicated).
    pub(crate) fn trace_log(&self) -> Vec<TraceRecord> {
        if !self.config.enabled {
            return Vec::new();
        }
        self.tracer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .canonical_log()
    }
}

/// Append an SLO note to the health reason without changing state or
/// discarding the primary cause (e.g. `snapshot rejected: …`). Any
/// previous SLO note is replaced, so the reason never grows unboundedly.
/// The budgets *observe* degradation, they never cause it — a same-state
/// transition only refreshes the reason and emits no event.
fn annotate_health(obs: &Obs, health: &HealthCell, note: &str) {
    let reason = health.reason();
    let base = reason.split(" [slo ").next().unwrap_or("").trim_end();
    let annotated = if base.is_empty() {
        format!("[slo {note}]")
    } else {
        format!("{base} [slo {note}]")
    };
    health.transition(obs, health.state(), &annotated);
}

/// FNV-1a digest of a trace log's canonical binary encoding. Computed
/// here (not in `ar-obs`) so the workspace keeps exactly one FNV
/// implementation — `ar-obs` stays dependency-free.
pub fn trace_log_digest(log: &[TraceRecord]) -> u64 {
    let mut h = FnvHasher::new();
    let mut buf = Vec::new();
    for r in log {
        buf.clear();
        encode_trace_record(&mut buf, r);
        h.update(&buf);
    }
    h.finish()
}

/// Canonical binary encoding of one trace record (digest input only —
/// trace records never cross the wire whole, just their digest).
fn encode_trace_record(out: &mut Vec<u8>, r: &TraceRecord) {
    out.extend_from_slice(&r.ordinal.to_be_bytes());
    out.extend_from_slice(&r.shard.to_be_bytes());
    out.extend_from_slice(&r.generation.to_be_bytes());
    out.extend_from_slice(&r.queue_depth.to_be_bytes());
    out.extend_from_slice(&r.batch_len.to_be_bytes());
    out.extend_from_slice(&(r.outcome.len() as u16).to_be_bytes());
    out.extend_from_slice(r.outcome.as_bytes());
    match &r.fault {
        None => out.push(0),
        Some(fault) => {
            out.push(1);
            out.extend_from_slice(&(fault.len() as u16).to_be_bytes());
            out.extend_from_slice(fault.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry(ticks_per_window: u64) -> (Telemetry, Obs, HealthCell) {
        let config = TelemetryConfig {
            ticks_per_window,
            window_capacity: 4,
            trace_every: 4,
            trace_reservoir: 8,
            ..TelemetryConfig::default()
        };
        (
            Telemetry::new(config, 2),
            Obs::new(),
            HealthCell::starting(1),
        )
    }

    fn served(t: &Telemetry, obs: &Obs, health: &HealthCell, batch: u64) {
        t.on_batch(obs, health, &BatchOrigin::in_process(), (batch, 0, 0), 1);
    }

    #[test]
    fn ticks_count_queries_and_windows_accumulate() {
        let (t, obs, health) = telemetry(10);
        for _ in 0..5 {
            served(&t, &obs, &health, 4);
        }
        assert_eq!(t.tick(), 20);
        let frame = t.stats_frame(1, HealthState::Serving, BTreeMap::new());
        assert_eq!(frame.tick, 20);
        let total: u64 = frame.windows.iter().map(|w| w.counter(W_QUERIES)).sum();
        assert_eq!(total, 20);
        assert_eq!(frame.windows.iter().map(|w| w.batch_count).sum::<u64>(), 5);
    }

    #[test]
    fn shed_storm_breaches_and_recovery_follows() {
        let (t, obs, health) = telemetry(10);
        // Window of sheds only: 1000‰ shed rate blows the 50‰ budget.
        for _ in 0..10 {
            t.on_shed(&obs, &health, 0);
        }
        let frame = t.stats_frame(1, HealthState::Serving, BTreeMap::new());
        assert!(frame.slo.breached, "{frame:?}");
        assert_eq!(frame.slo.breaches, 1);
        // A clean window recovers.
        for _ in 0..10 {
            served(&t, &obs, &health, 1);
        }
        let frame = t.stats_frame(1, HealthState::Serving, BTreeMap::new());
        assert!(!frame.slo.breached);
        assert_eq!(frame.slo.recoveries, 1);
        let report = obs.report();
        assert_eq!(report.event_counts["slo_breach"], 1);
        assert_eq!(report.event_counts["slo_recovered"], 1);
        assert_eq!(report.counters["serve.slo_breaches"], 1);
        // The health machine carries the annotation without changing state.
        assert_eq!(health.state(), HealthState::Starting);
        assert!(
            health.reason().contains("slo recovered"),
            "{}",
            health.reason()
        );
    }

    #[test]
    fn degraded_windows_burn_their_own_budget() {
        let (t, obs, health) = telemetry(5);
        health.transition(&obs, HealthState::Degraded, "pinned");
        // Budget is 2 consecutive degraded windows; the third breaches.
        for _ in 0..3 {
            for _ in 0..5 {
                served(&t, &obs, &health, 1);
            }
        }
        let frame = t.stats_frame(1, HealthState::Degraded, BTreeMap::new());
        assert!(frame.slo.breached, "{frame:?}");
        assert!(health.reason().contains("degraded for 3 windows"));
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = Telemetry::new(TelemetryConfig::disabled(), 2);
        let obs = Obs::new();
        let health = HealthCell::starting(1);
        served(&t, &obs, &health, 100);
        t.on_shed(&obs, &health, 0);
        assert_eq!(t.tick(), 0);
        let frame = t.stats_frame(3, HealthState::Serving, BTreeMap::new());
        assert_eq!(frame.tick, 0);
        assert!(frame.windows.is_empty());
        assert_eq!(frame.trace_count, 0);
        assert!(!obs.report().counters.contains_key("serve.traces_sampled"));
    }

    #[test]
    fn trace_digest_is_stable_and_order_independent_inputs() {
        let record = |ordinal| TraceRecord {
            ordinal,
            shard: 1,
            generation: 2,
            queue_depth: 3,
            batch_len: 4,
            outcome: "served".to_string(),
            fault: if ordinal % 2 == 0 {
                Some("latency spike 5ms".to_string())
            } else {
                None
            },
        };
        let log: Vec<TraceRecord> = (0..10).map(record).collect();
        assert_eq!(trace_log_digest(&log), trace_log_digest(&log.clone()));
        assert_ne!(trace_log_digest(&log), trace_log_digest(&log[1..]));
        assert_eq!(trace_log_digest(&[]), ar_simnet::fnv::FNV_BASIS);
    }

    /// Satellite check: the consolidated FNV module produces the exact
    /// digests the four pre-refactor copies did, across crates.
    #[test]
    fn fnv_consolidation_is_byte_identical_across_crates() {
        assert_eq!(crate::snapshot::fnv1a64(b"abc"), 0xe71f_a219_0541_574b);
        assert_eq!(
            crate::snapshot::fnv1a64(b"address-reuse"),
            ar_index::fnv::fnv1a64(b"address-reuse")
        );
        assert_eq!(
            ar_simnet::fnv::fnv1a64(b""),
            crate::snapshot::checksum_verdicts(&[])
        );
    }
}
