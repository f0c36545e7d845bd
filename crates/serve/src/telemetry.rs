//! The live telemetry plane: windowed metrics, deterministic query
//! tracing, and SLO burn-rate tracking for [`crate::ReputationServer`].
//!
//! The cumulative `ar-obs` registry answers "what did this run do" at
//! exit; this module answers "what is the service doing *now*". It is
//! strictly observation-only — no verdict byte depends on it, which the
//! determinism suite pins — and it runs on a **logical clock**: the tick
//! is the cumulative count of query ordinals admitted, never wall time
//! (ar-lint R2). Everything here is a pure function of the tick stream,
//! so two same-seed runs produce identical window sequences, trace logs
//! and [`StatsFrame`]s at matching ticks.
//!
//! Three instruments with one fixed shape, all behind one lock:
//!
//! * a ring of per-window counts — queries, sheds, batches and the three
//!   verdict classes — over windows of 1024 ticks, keeping the 8 most
//!   recent closed windows and the open one;
//! * a [`TraceSampler`] capturing admission→shard→verdict
//!   [`TraceRecord`]s: every 128th ordinal, plus a bottom-k reservoir of
//!   32 under a fixed seed;
//! * an SLO tracker evaluating two error budgets (shed rate and
//!   consecutive degraded windows) at every window close, emitting
//!   `slo_breach` / `slo_recovered` events and annotating the health
//!   machine's reason string.
//!
//! The whole plane is exported over the wire as [`crate::wire::OP_STATS`]
//! and scraped live by `bench_chaos`.

use crate::health::{HealthCell, HealthState};
use ar_obs::{EventKind, Obs, TraceRecord, TraceSampler};
use ar_simnet::fnv::FnvHasher;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Phase name shared with [`crate::server::PHASE`] (duplicated to keep
/// this module free of a circular import).
const PHASE: &str = "serve";

/// Logical ticks (query ordinals) per window.
const TICKS_PER_WINDOW: u64 = 1024;
/// Closed windows retained in the ring.
const WINDOW_CAPACITY: usize = 8;
/// Trace stride: capture every ordinal divisible by this.
const TRACE_EVERY: u64 = 128;
/// Bottom-k trace reservoir capacity.
const TRACE_RESERVOIR: usize = 32;
/// Seed for the reservoir priorities.
const TRACE_SEED: u64 = 0xA11CE;

/// Shed budget, evaluated at every window close: breach when
/// `1000 * shed / (queries + shed)` inside a closed window exceeds this.
const SHED_BUDGET_PERMILLE: u32 = 50;
/// Degraded-time budget: breach after this many *consecutive* closed
/// windows with the health machine in `Degraded`.
const DEGRADED_BUDGET_WINDOWS: u32 = 2;

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

/// One window of counts: everything admitted while the logical clock was
/// inside `[index * TICKS_PER_WINDOW, (index + 1) * TICKS_PER_WINDOW)`.
/// A batch counts whole in the window its first ordinal falls in.
#[derive(Debug, Clone, Copy, Default)]
struct WindowCounts {
    /// Window ordinal: `tick / TICKS_PER_WINDOW`. Idle spans produce no
    /// window at all, so indices can skip.
    index: u64,
    queries: u64,
    shed: u64,
    batches: u64,
    block: u64,
    greylist: u64,
    unlisted: u64,
}

impl WindowCounts {
    /// The wire form. The counter map lists exactly the nonzero counts.
    /// Every batch adds its length to `queries` and one to `batches`, so
    /// those two are also the window's batch-size count and sum.
    fn summary(&self) -> WindowSummary {
        let counters = [
            ("batches", self.batches),
            ("block", self.block),
            ("greylist", self.greylist),
            ("queries", self.queries),
            ("shed", self.shed),
            ("unlisted", self.unlisted),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(name, n)| (name.to_string(), n))
        .collect();
        WindowSummary {
            index: self.index,
            counters,
            batch_count: self.batches,
            batch_sum: self.queries,
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

impl SloTracker {
    /// Evaluate every budget against one closed window.
    fn evaluate(&mut self, obs: &Obs, health: &HealthCell, window: &WindowCounts) {
        let admitted = window.queries + window.shed;
        let shed_permille = window
            .shed
            .saturating_mul(1000)
            .checked_div(admitted)
            .unwrap_or(0) as u32;
        self.windows_evaluated += 1;
        self.last_shed_permille = shed_permille;
        if health.state() == HealthState::Degraded {
            self.consecutive_degraded += 1;
        } else {
            self.consecutive_degraded = 0;
        }

        let mut burns: Vec<String> = Vec::new();
        if shed_permille > SHED_BUDGET_PERMILLE {
            burns.push(format!(
                "shed {shed_permille}‰ > budget {SHED_BUDGET_PERMILLE}‰"
            ));
        }
        if self.consecutive_degraded > DEGRADED_BUDGET_WINDOWS {
            burns.push(format!(
                "degraded for {} windows > budget {DEGRADED_BUDGET_WINDOWS}",
                self.consecutive_degraded
            ));
        }

        let breach_now = !burns.is_empty();
        if breach_now && !self.breached {
            self.breached = true;
            self.breaches += 1;
            let detail = format!("window {}: {}", window.index, burns.join("; "));
            obs.add("serve.slo_breaches", 1);
            obs.event(PHASE, EventKind::SloBreach, None, 1, detail.clone());
            annotate_health(obs, health, &format!("breach: {detail}"));
        } else if !breach_now && self.breached {
            self.breached = false;
            self.recoveries += 1;
            let detail = format!("window {}: budgets back under control", window.index);
            obs.add("serve.slo_recoveries", 1);
            obs.event(PHASE, EventKind::SloRecovered, None, 1, detail.clone());
            annotate_health(obs, health, &format!("recovered: {detail}"));
        }
    }

    fn state(&self) -> SloState {
        SloState {
            breached: self.breached,
            breaches: self.breaches,
            recoveries: self.recoveries,
            windows_evaluated: self.windows_evaluated,
            last_shed_permille: self.last_shed_permille,
            shed_budget_permille: SHED_BUDGET_PERMILLE,
        }
    }
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
    /// The shed budget, echoed so scrapers can render burn rate without
    /// knowing the server's constants.
    pub shed_budget_permille: u32,
}

/// One retained window as exported over the wire: its index, its nonzero
/// counters, and its batch count and summed batch length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSummary {
    pub index: u64,
    pub counters: BTreeMap<String, u64>,
    pub batch_count: u64,
    pub batch_sum: u64,
}

impl WindowSummary {
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

    /// One-line rendering for the CLI watch loop and smoke logs. It shows
    /// the newest closed window, which holds a whole window's counts; the
    /// open window holds only what arrived since it opened, so it is shown
    /// only while no window has closed.
    pub fn render(&self) -> String {
        let depths: Vec<String> = self.queue_depths.iter().map(|d| d.to_string()).collect();
        let last = match self.windows.as_slice() {
            [.., newest_closed, _open] => Some(newest_closed),
            [open] => Some(open),
            [] => None,
        };
        format!(
            "tick {} gen {} {} | q=[{}] | window {}: {} queries, {} shed | slo {} ({} breaches, {} windows) | {} traces (digest {:016x})",
            self.tick,
            self.generation,
            self.health_state,
            depths.join(","),
            last.map_or(0, |w| w.index),
            last.map_or(0, |w| w.counter("queries")),
            last.map_or(0, |w| w.counter("shed")),
            if self.slo.breached { "BREACHED" } else { "ok" },
            self.slo.breaches,
            self.slo.windows_evaluated,
            self.trace_count,
            self.trace_digest,
        )
    }
}

/// Everything the telemetry hooks mutate, behind [`Telemetry`]'s one lock
/// so tick assignment, window accounting, trace offers and SLO
/// evaluation happen in tick order.
struct Plane {
    /// Logical clock: every answered query and every shed admission takes
    /// one ordinal.
    tick: u64,
    open: WindowCounts,
    /// Closed windows, oldest first; never longer than `WINDOW_CAPACITY`.
    closed: VecDeque<WindowCounts>,
    tracer: TraceSampler,
    slo: SloTracker,
}

impl Plane {
    /// Move the clock `ticks` ordinals forward. Crossing a window
    /// boundary closes the open window, evicting the oldest closed one
    /// beyond capacity, and returns it: the SLO evaluation edge.
    fn advance(&mut self, ticks: u64) -> Option<WindowCounts> {
        self.tick += ticks;
        let index = self.tick / TICKS_PER_WINDOW;
        if index == self.open.index {
            return None;
        }
        let closed = std::mem::replace(
            &mut self.open,
            WindowCounts {
                index,
                ..WindowCounts::default()
            },
        );
        if self.closed.len() == WINDOW_CAPACITY {
            self.closed.pop_front();
        }
        self.closed.push_back(closed);
        Some(closed)
    }
}

/// The server-side telemetry plane: the ring, the trace sampler and the
/// SLO tracker under one mutex, plus lock-free per-shard queue depths
/// that the acceptor and the workers update outside it.
pub(crate) struct Telemetry {
    plane: Mutex<Plane>,
    queue_depths: Vec<AtomicU64>,
}

impl Telemetry {
    pub(crate) fn new(shards: usize) -> Telemetry {
        Telemetry {
            plane: Mutex::new(Plane {
                tick: 0,
                open: WindowCounts::default(),
                closed: VecDeque::new(),
                tracer: TraceSampler::new(TRACE_EVERY, TRACE_RESERVOIR, TRACE_SEED),
                slo: SloTracker::default(),
            }),
            queue_depths: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A connection entered a shard's admission queue.
    pub(crate) fn queue_entered(&self, shard: usize) {
        if let Some(depth) = self.queue_depths.get(shard) {
            // AcqRel pairs with the Acquire loads in stats_frame (R6):
            // OP_STATS serializes these depths from another thread.
            depth.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// A worker picked a connection out of its queue; returns the depth
    /// observed *including* the departing entry.
    pub(crate) fn queue_left(&self, shard: usize) -> u64 {
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
    /// length, count it in the open window, offer a trace record, and
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
        if batch_len == 0 {
            return;
        }
        self.admit(
            obs,
            health,
            batch_len,
            |w| {
                w.queries += batch_len;
                w.batches += 1;
                w.block += block;
                w.greylist += greylist;
                w.unlisted += unlisted;
            },
            |ordinal| TraceRecord {
                ordinal,
                shard: origin.shard,
                generation,
                queue_depth: origin.queue_depth,
                batch_len: batch_len.min(u64::from(u32::MAX)) as u32,
                outcome: "served".to_string(),
                fault: origin.fault.clone(),
            },
        );
    }

    /// Record one shed admission: a shed consumes one ordinal so the
    /// window sees it, and is traced with outcome `shed`.
    pub(crate) fn on_shed(&self, obs: &Obs, health: &HealthCell, shard: u32) {
        self.admit(
            obs,
            health,
            1,
            |w| w.shed += 1,
            |ordinal| TraceRecord {
                ordinal,
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
    }

    /// Admit `ticks` ordinals under the plane lock: `count` adds them to
    /// the open window, the clock advances, `record` builds the trace
    /// offer from the admission's first ordinal (stable under any batch
    /// split, because ticks count queries, not batches), and a window
    /// the advance closed is evaluated against the SLO budgets.
    fn admit(
        &self,
        obs: &Obs,
        health: &HealthCell,
        ticks: u64,
        count: impl FnOnce(&mut WindowCounts),
        record: impl FnOnce(u64) -> TraceRecord,
    ) {
        let mut plane = self.plane.lock().unwrap_or_else(PoisonError::into_inner);
        let ordinal = plane.tick;
        count(&mut plane.open);
        let closed = plane.advance(ticks);
        if plane.tracer.offer(record(ordinal)) {
            obs.add("serve.traces_sampled", 1);
        }
        if let Some(window) = closed {
            plane.slo.evaluate(obs, health, &window);
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
        let plane = self.plane.lock().unwrap_or_else(PoisonError::into_inner);
        let log = plane.tracer.canonical_log();
        StatsFrame {
            tick: plane.tick,
            generation,
            health_state,
            queue_depths: self
                .queue_depths
                .iter()
                .map(|d| d.load(Ordering::Acquire))
                .collect(),
            counters,
            windows: plane
                .closed
                .iter()
                .chain([&plane.open])
                .map(WindowCounts::summary)
                .collect(),
            slo: plane.slo.state(),
            trace_count: log.len() as u64,
            trace_digest: trace_log_digest(&log),
        }
    }

    /// The canonical trace log (sorted by ordinal, deduplicated).
    pub(crate) fn trace_log(&self) -> Vec<TraceRecord> {
        self.plane
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .tracer
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
    use ar_simnet::prop::{check, vec, Rng, SmallRng, CASES};

    fn telemetry() -> (Telemetry, Obs, HealthCell) {
        (Telemetry::new(2), Obs::new(), HealthCell::starting(1))
    }

    fn served(t: &Telemetry, obs: &Obs, health: &HealthCell, batch: u64) {
        t.on_batch(obs, health, &BatchOrigin::in_process(), (batch, 0, 0), 1);
    }

    fn frame(t: &Telemetry) -> StatsFrame {
        t.stats_frame(1, HealthState::Serving, BTreeMap::new())
    }

    #[test]
    fn ticks_count_queries_and_windows_accumulate() {
        let (t, obs, health) = telemetry();
        for _ in 0..5 {
            served(&t, &obs, &health, 1000);
        }
        let stats = frame(&t);
        assert_eq!(stats.tick, 5000);
        let total: u64 = stats.windows.iter().map(|w| w.counter("queries")).sum();
        assert_eq!(total, 5000);
        assert_eq!(stats.windows.iter().map(|w| w.batch_count).sum::<u64>(), 5);
    }

    #[test]
    fn windows_close_on_boundary_and_keep_indices() {
        let (t, obs, health) = telemetry();
        let indices =
            |t: &Telemetry| -> Vec<u64> { frame(t).windows.iter().map(|w| w.index).collect() };
        served(&t, &obs, &health, 1000);
        assert_eq!(indices(&t), [0], "still inside window 0");
        served(&t, &obs, &health, 100);
        assert_eq!(indices(&t), [0, 1]);
        // A batch counts whole in the window it started in.
        assert_eq!(frame(&t).windows[0].counter("queries"), 1100);
        // A batch spanning idle windows opens the right one, no filler.
        served(&t, &obs, &health, 8 * TICKS_PER_WINDOW);
        assert_eq!(indices(&t), [0, 1, 9]);
        assert_eq!(frame(&t).windows[1].batch_sum, 8 * TICKS_PER_WINDOW);
    }

    #[test]
    fn render_shows_the_newest_closed_window() {
        let (t, obs, health) = telemetry();
        let shown = |t: &Telemetry| {
            let line = frame(t).render();
            let start = line.find("| window ").expect("window field");
            let end = line.find(" | slo ").expect("slo field");
            line[start + 2..end].to_string()
        };
        // No window has closed yet: the open one is all there is.
        served(&t, &obs, &health, 1000);
        assert_eq!(shown(&t), "window 0: 1000 queries, 0 shed");
        // The selftest's shape: the second batch counts whole in window 0
        // and closes it, leaving window 1 open and empty.
        served(&t, &obs, &health, 1000);
        assert_eq!(shown(&t), "window 0: 2000 queries, 0 shed");
        t.on_shed(&obs, &health, 0);
        assert_eq!(shown(&t), "window 0: 2000 queries, 0 shed");
        served(&t, &obs, &health, 100);
        assert_eq!(shown(&t), "window 1: 100 queries, 1 shed");
    }

    #[test]
    fn shed_storm_breaches_and_recovery_follows() {
        let (t, obs, health) = telemetry();
        // A window of sheds only: 1000‰ shed rate blows the 50‰ budget.
        for _ in 0..TICKS_PER_WINDOW {
            t.on_shed(&obs, &health, 0);
        }
        let stats = frame(&t);
        assert!(stats.slo.breached, "{stats:?}");
        assert_eq!(stats.slo.breaches, 1);
        // A clean window recovers.
        served(&t, &obs, &health, TICKS_PER_WINDOW);
        let stats = frame(&t);
        assert!(!stats.slo.breached);
        assert_eq!(stats.slo.recoveries, 1);
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
        let (t, obs, health) = telemetry();
        health.transition(&obs, HealthState::Degraded, "pinned");
        // Budget is 2 consecutive degraded windows; the third breaches.
        for _ in 0..3 {
            served(&t, &obs, &health, TICKS_PER_WINDOW);
        }
        let stats = t.stats_frame(1, HealthState::Degraded, BTreeMap::new());
        assert!(stats.slo.breached, "{stats:?}");
        assert!(health.reason().contains("degraded for 3 windows"));
    }

    /// One scripted admission for the ring properties.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// An answered batch: its block, greylist and unlisted verdicts.
        Batch(u64, u64, u64),
        Shed,
    }

    fn arb_op(rng: &mut SmallRng) -> Op {
        // Mostly batches well inside a window, some spanning several.
        let max = [1u64, 64, 1500][rng.gen_range(0..3)];
        match rng.gen_range(0..4) {
            0 => Op::Shed,
            _ => Op::Batch(
                rng.gen_range(0..max),
                rng.gen_range(0..max),
                rng.gen_range(0..max),
            ),
        }
    }

    fn window(index: u64) -> WindowSummary {
        WindowSummary {
            index,
            counters: BTreeMap::new(),
            batch_count: 0,
            batch_sum: 0,
        }
    }

    /// The ring's oracle: every window's deltas, accumulated from the
    /// admissions the test fed, never from state the ring keeps.
    #[derive(Default)]
    struct Fed {
        tick: u64,
        windows: BTreeMap<u64, WindowSummary>,
    }

    impl Fed {
        fn feed(&mut self, op: Op) {
            let (ticks, counts) = match op {
                Op::Batch(b, g, u) => (
                    b + g + u,
                    vec![
                        ("queries", b + g + u),
                        ("batches", 1),
                        ("block", b),
                        ("greylist", g),
                        ("unlisted", u),
                    ],
                ),
                Op::Shed => (1, vec![("shed", 1)]),
            };
            if ticks == 0 {
                return;
            }
            // The whole admission counts in the window of its first ordinal.
            let index = self.tick / TICKS_PER_WINDOW;
            let w = self.windows.entry(index).or_insert_with(|| window(index));
            for (name, n) in counts.into_iter().filter(|&(_, n)| n > 0) {
                *w.counters.entry(name.to_string()).or_default() += n;
            }
            if let Op::Batch(..) = op {
                w.batch_count += 1;
                w.batch_sum += ticks;
            }
            self.tick += ticks;
        }

        /// The newest `WINDOW_CAPACITY` closed windows, oldest first,
        /// then the open one.
        fn retained(&self) -> Vec<WindowSummary> {
            let open = self.tick / TICKS_PER_WINDOW;
            let closed: Vec<&WindowSummary> = self.windows.range(..open).map(|(_, w)| w).collect();
            closed[closed.len().saturating_sub(WINDOW_CAPACITY)..]
                .iter()
                .map(|&w| w.clone())
                .chain([self.windows.get(&open).cloned().unwrap_or(window(open))])
                .collect()
        }
    }

    /// At every step, through any wraparound, the exported windows are
    /// exactly the retained windows of the deltas fed: the same indices,
    /// every nonzero count and no other, and each window's batch count
    /// and summed batch length.
    #[test]
    fn retained_windows_hold_exactly_the_deltas_fed() {
        check(
            "retained_windows_hold_exactly_the_deltas_fed",
            CASES,
            |rng| {
                let (t, health) = (Telemetry::new(2), HealthCell::starting(1));
                let obs = Obs::disabled();
                let mut fed = Fed::default();
                for op in vec(rng, 1..200, arb_op) {
                    match op {
                        Op::Batch(b, g, u) => {
                            t.on_batch(&obs, &health, &BatchOrigin::in_process(), (b, g, u), 1)
                        }
                        Op::Shed => t.on_shed(&obs, &health, 0),
                    }
                    fed.feed(op);
                    let stats = frame(&t);
                    assert_eq!(stats.tick, fed.tick);
                    assert_eq!(stats.windows, fed.retained(), "after {op:?}");
                }
            },
        );
    }

    /// No batch is lost or counted twice across window closes and
    /// evictions: scraped after every batch, the windows ever exported
    /// hold every nonempty batch fed, once, with its whole length.
    #[test]
    fn batch_count_and_sum_are_the_batches_fed() {
        check("batch_count_and_sum_are_the_batches_fed", CASES, |rng| {
            let (t, obs, health) = telemetry();
            let lens = vec(rng, 1..100, |r| r.gen_range(0..4 * TICKS_PER_WINDOW));
            let mut exported: BTreeMap<u64, WindowSummary> = BTreeMap::new();
            for &len in &lens {
                served(&t, &obs, &health, len);
                exported.extend(frame(&t).windows.into_iter().map(|w| (w.index, w)));
            }
            let batches = lens.iter().filter(|&&len| len > 0).count() as u64;
            let count: u64 = exported.values().map(|w| w.batch_count).sum();
            let sum: u64 = exported.values().map(|w| w.batch_sum).sum();
            assert_eq!(count, batches);
            assert_eq!(sum, lens.iter().sum::<u64>());
        });
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
