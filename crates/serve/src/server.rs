//! The sharded server: N supervised worker threads answering from one
//! atomically hot-swappable [`ReputationSnapshot`].
//!
//! Two entry points share every code path below the transport:
//!
//! * the **in-process batch API** ([`ReputationServer::verdict`] /
//!   [`ReputationServer::verdict_batch`]) — a batch is answered in input
//!   order on the caller's thread;
//! * the **TCP front end** ([`ReputationServer::serve`]) — an acceptor
//!   admits connections round-robin into bounded per-shard queues drained
//!   by persistent, supervised shard workers speaking the [`crate::wire`]
//!   frame protocol. The shard count sizes this worker pool only, so the
//!   verdict stream is byte-identical at any shard count.
//!
//! Resilience mechanisms, each paired with a fault class in
//! [`ar_faults::ServeFaultPlan`]:
//!
//! * **shard supervision** — a worker panic is caught, recorded
//!   (`worker_panicked`) and the worker restarted (`worker_restarted`);
//!   only the connection being serviced is lost, other shards' verdict
//!   streams are untouched;
//! * **admission control** — the per-shard queue is bounded
//!   ([`ServeOptions::queue_cap`]) and carries a deadline budget
//!   ([`QUEUE_DEADLINE`]); excess or expired admissions are
//!   shed with an explicit `Overloaded` wire reply instead of unbounded
//!   latency;
//! * **validated hot swap** ([`ReputationServer::offer_swap`]) — an
//!   offered snapshot must pass the FNV content checksum, the structural
//!   invariants and generation monotonicity; a failing offer is refused
//!   (`snapshot_rejected`) and the server keeps answering from the pinned
//!   last-good snapshot in a visible `Degraded` health state;
//! * **slow-loris defense** — a partial frame must complete within
//!   [`ServeOptions::stall_timeout`] or the connection is cut off.
//!
//! A swap replaces the whole `Arc` under a short write lock; queries in
//! flight keep the snapshot they started with, new frames see the new
//! generation. Malformed frames are answered with an error frame and the
//! connection is closed — the worker, the other connections and the
//! server survive (R3 scope: no panics on any request path; injected
//! chaos panics live in [`crate::chaos`], outside that scope).

use crate::chaos::{ChaosEvent, FaultInjector};
use crate::health::{HealthCell, HealthProbe, HealthState, ServeHealthReport};
use crate::snapshot::{ReputationSnapshot, SnapshotDefect, Verdict};
use crate::telemetry::{BatchOrigin, StatsFrame, Telemetry};
use crate::wire::{
    self, encode_error_response, encode_generation_response, encode_health_response,
    encode_overloaded_response, encode_query_response, encode_stats_response, Request, WireError,
};
use ar_faults::ServeFaultPlan;
use ar_obs::{EventKind, Obs};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Phase name under which the server reports metrics and events.
pub const PHASE: &str = "serve";

/// How long an admitted connection may wait in its shard queue before the
/// worker sheds it instead of servicing it.
pub const QUEUE_DEADLINE: Duration = Duration::from_secs(5);

/// Tuning knobs for the TCP front end. The defaults are loose enough
/// that a well-behaved workload never notices them; the chaos suite
/// tightens them to force the shedding paths.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Bounded per-shard admission queue depth (clamped to ≥ 1); a full
    /// queue sheds new connections with an `Overloaded` reply.
    pub queue_cap: usize,
    /// How long a started frame may dribble in before the connection is
    /// cut off (slow-loris defense).
    pub stall_timeout: Duration,
    /// Serving-path fault plan (`None` or zero intensity = no injection).
    pub faults: Option<ServeFaultPlan>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            queue_cap: 256,
            stall_timeout: Duration::from_secs(30),
            faults: None,
        }
    }
}

/// One connection admitted into a shard queue.
struct Admitted {
    stream: TcpStream,
    /// Per-shard admission ordinal (keys the fault plan's coins).
    ordinal: u64,
    admitted_at: Instant,
}

/// The service: an immutable snapshot behind a swap lock, plus the shard
/// plan, the health cell, the fault injector and the observability handle.
pub struct ReputationServer {
    current: RwLock<Arc<ReputationSnapshot>>,
    obs: Obs,
    shards: usize,
    options: ServeOptions,
    health: HealthCell,
    chaos: FaultInjector,
    telemetry: Telemetry,
}

impl ReputationServer {
    /// `shards = 0` is clamped to 1. The snapshot-generation, shard and
    /// health gauges are published immediately.
    pub fn new(snapshot: ReputationSnapshot, shards: usize, obs: Obs) -> Arc<ReputationServer> {
        ReputationServer::with_options(snapshot, shards, obs, ServeOptions::default())
    }

    /// [`ReputationServer::new`] with explicit [`ServeOptions`].
    pub fn with_options(
        snapshot: ReputationSnapshot,
        shards: usize,
        obs: Obs,
        options: ServeOptions,
    ) -> Arc<ReputationServer> {
        let shards = shards.max(1);
        let generation = snapshot.generation();
        obs.set_gauge("serve.generation", generation as i64);
        obs.set_gauge("serve.last_good_generation", generation as i64);
        obs.set_gauge("serve.shards", shards as i64);
        obs.set_gauge("serve.health", i64::from(HealthState::Starting.code()));
        let chaos = FaultInjector::new(options.faults);
        let telemetry = Telemetry::new(shards);
        Arc::new(ReputationServer {
            current: RwLock::new(Arc::new(snapshot)),
            obs,
            shards,
            options,
            health: HealthCell::starting(generation),
            chaos,
            telemetry,
        })
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The snapshot new queries answer from.
    pub fn snapshot(&self) -> Arc<ReputationSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Where the server is in its lifecycle, with the pinned last-good
    /// generation and the reason for the current state.
    pub fn health_probe(&self) -> HealthProbe {
        HealthProbe {
            state: self.health.state(),
            generation: self.snapshot().generation(),
            last_good_generation: self.health.last_good_generation(),
            reason: self.health.reason(),
        }
    }

    /// `StudyHealth`-style rollup: the live probe plus the resilience
    /// counters out of this server's obs.
    pub fn health_report(&self) -> ServeHealthReport {
        ServeHealthReport::from_parts(&self.health_probe(), &self.obs.counters())
    }

    /// Canonically sorted log of every fault injected so far (empty
    /// without a plan). Identical seeds and workload shapes produce
    /// identical logs.
    pub fn chaos_log(&self) -> Vec<ChaosEvent> {
        self.chaos.log_snapshot()
    }

    /// Atomically install `next` without validation; in-flight queries
    /// keep their snapshot. Returns the retired generation. This is the
    /// trusted path (tests, in-process rebuild loops) — deployment-style
    /// callers should prefer [`ReputationServer::offer_swap`], which
    /// validates before installing.
    pub fn swap(&self, next: ReputationSnapshot) -> u64 {
        let next_gen = next.generation();
        let next = Arc::new(next);
        let old_gen = {
            let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
            let old = slot.generation();
            *slot = next;
            old
        };
        self.health.pin_last_good(next_gen);
        self.obs.set_gauge("serve.generation", next_gen as i64);
        self.obs
            .set_gauge("serve.last_good_generation", next_gen as i64);
        self.obs.event(
            PHASE,
            EventKind::SnapshotSwapped,
            None,
            1,
            format!("generation {old_gen} -> {next_gen}"),
        );
        old_gen
    }

    /// Validated hot swap: `next` must pass the content checksum and
    /// structural invariants of [`ReputationSnapshot::validate`] and be
    /// strictly newer than the serving generation. A failing offer is
    /// refused — `snapshot_rejected` is emitted, the health state drops
    /// to `Degraded`, and the server keeps answering from the pinned
    /// last-good snapshot. The next valid offer recovers to `Serving`.
    /// Returns the retired generation on success.
    ///
    /// Offers are expected from one deployer loop; concurrent offers are
    /// safe but may interleave their monotonicity checks.
    pub fn offer_swap(&self, next: ReputationSnapshot) -> Result<u64, SnapshotDefect> {
        let serving = self.snapshot().generation();
        let offered = next.generation();
        let defect = if offered <= serving {
            Some(SnapshotDefect::GenerationRegression { offered, serving })
        } else {
            next.validate().err()
        };
        if let Some(defect) = defect {
            self.obs.add("serve.snapshots_rejected", 1);
            self.obs.event(
                PHASE,
                EventKind::SnapshotRejected,
                None,
                1,
                format!("offered generation {offered} refused: {defect}"),
            );
            self.health.transition(
                &self.obs,
                HealthState::Degraded,
                &format!(
                    "snapshot rejected: {defect}; serving pinned last-good generation {}",
                    self.health.last_good_generation()
                ),
            );
            return Err(defect);
        }
        let old = self.swap(next);
        match self.health.state() {
            HealthState::Degraded => self.health.transition(
                &self.obs,
                HealthState::Serving,
                &format!("recovered at generation {offered}"),
            ),
            // Refresh the reason so the report names the generation it
            // serves; same-state transitions emit no event.
            HealthState::Serving => self.health.transition(
                &self.obs,
                HealthState::Serving,
                &format!("serving generation {offered}"),
            ),
            HealthState::Starting | HealthState::Draining => {}
        }
        Ok(old)
    }

    /// Answer one address.
    pub fn verdict(&self, ip: u32) -> Verdict {
        let start = Instant::now();
        let snapshot = self.snapshot();
        let v = snapshot.verdict(ip);
        self.record_answers(
            std::slice::from_ref(&v),
            start.elapsed(),
            snapshot.generation(),
            &BatchOrigin::in_process(),
        );
        v
    }

    /// Answer a batch in input order on the caller's thread. One snapshot
    /// serves the whole batch, so a concurrent swap never splits a batch
    /// across generations.
    pub fn verdict_batch(&self, ips: &[u32]) -> Vec<Verdict> {
        let start = Instant::now();
        let snapshot = self.snapshot();
        let verdicts: Vec<Verdict> = ips.iter().map(|&ip| snapshot.verdict(ip)).collect();
        self.record_answers(
            &verdicts,
            start.elapsed(),
            snapshot.generation(),
            &BatchOrigin::in_process(),
        );
        verdicts
    }

    fn record_answers(
        &self,
        verdicts: &[Verdict],
        took: Duration,
        generation: u64,
        origin: &BatchOrigin,
    ) {
        if verdicts.is_empty() {
            return;
        }
        let mut classes = (0u64, 0u64, 0u64);
        for v in verdicts {
            match v.class.name() {
                "block" => classes.0 += 1,
                "greylist" => classes.1 += 1,
                _ => classes.2 += 1,
            }
        }
        // The telemetry clock advances whether or not the cumulative
        // registry is on: ticks are the wire-visible time base.
        self.telemetry
            .on_batch(&self.obs, &self.health, origin, classes, generation);
        if !self.obs.enabled() {
            return;
        }
        self.obs.add("serve.queries", verdicts.len() as u64);
        for (name, n) in [
            ("serve.verdict.block", classes.0),
            ("serve.verdict.greylist", classes.1),
            ("serve.verdict.unlisted", classes.2),
        ] {
            if n > 0 {
                self.obs.add(name, n);
            }
        }
        self.obs
            .observe("serve.batch_micros", took.as_micros() as u64);
    }

    /// Assemble one live telemetry scrape (what `OP_STATS` answers): the
    /// logical tick, per-shard queue depths, cumulative `serve.*`
    /// counters, retained windows, SLO state and the trace digest. The
    /// aggregate `serve.frames_rejected` is *derived* here as the sum of
    /// the per-reason `serve.frames_rejected.<reason>` counters.
    pub fn stats_frame(&self) -> StatsFrame {
        let mut counters = self.obs.counters();
        counters.retain(|name, _| name.starts_with("serve."));
        let rejected: u64 = REJECT_REASON_COUNTERS
            .iter()
            .filter_map(|name| counters.get(*name))
            .sum();
        if rejected > 0 {
            counters.insert("serve.frames_rejected".to_string(), rejected);
        }
        self.telemetry
            .stats_frame(self.snapshot().generation(), self.health.state(), counters)
    }

    /// The canonical deterministic trace sample captured so far.
    pub fn trace_log(&self) -> Vec<ar_obs::TraceRecord> {
        self.telemetry.trace_log()
    }

    /// Start the TCP front end on `listener`: one acceptor thread plus
    /// one persistent, supervised worker per shard. Returns a handle
    /// owning the threads; dropping it (or calling
    /// [`ServerHandle::shutdown`]) moves health to `Draining`, stops the
    /// acceptor, drains the workers and joins everything.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        self.health
            .transition(&self.obs, HealthState::Serving, "accepting connections");

        let mut senders = Vec::with_capacity(self.shards);
        let mut workers = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let (tx, rx) = sync_channel::<Admitted>(self.options.queue_cap.max(1));
            senders.push(tx);
            // The receiver lives behind a mutex so it survives worker
            // panics: each supervisor restart re-borrows the same queue
            // and no admitted connection is lost with the incarnation.
            let rx: Arc<Mutex<Receiver<Admitted>>> = Arc::new(Mutex::new(rx));
            let server = Arc::clone(self);
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                server.obs.event(
                    PHASE,
                    EventKind::ShardStarted,
                    None,
                    1,
                    format!("shard {shard} accepting connections"),
                );
                // Supervisor loop: a panicked incarnation is recorded and
                // replaced; the worker only retires when the acceptor has
                // closed the queue and every admission is drained.
                loop {
                    let outcome = catch_unwind(AssertUnwindSafe(|| loop {
                        let admitted =
                            match rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
                                Ok(admitted) => admitted,
                                Err(_) => return,
                            };
                        server.service(admitted, shard as u64, &stop);
                    }));
                    match outcome {
                        Ok(()) => return,
                        Err(payload) => {
                            let reason = panic_reason(payload.as_ref());
                            server.obs.add("serve.worker_panics", 1);
                            server.obs.event(
                                PHASE,
                                EventKind::WorkerPanicked,
                                None,
                                1,
                                format!("shard {shard} worker panicked: {reason}"),
                            );
                            server.obs.add("serve.worker_restarts", 1);
                            server.obs.event(
                                PHASE,
                                EventKind::WorkerRestarted,
                                None,
                                1,
                                format!("shard {shard} worker restarted"),
                            );
                        }
                    }
                }
            }));
        }

        let acceptor = {
            let server = Arc::clone(self);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut next = 0usize;
                let mut ordinals = vec![0u64; senders.len().max(1)];
                loop {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Replies leave at once, shed or served: with
                            // Nagle on, a reply written while the previous
                            // one is unacknowledged (a pipelining peer)
                            // waits for the peer's delayed ACK.
                            let _ = stream.set_nodelay(true);
                            // Round-robin connection placement across the
                            // shard queues; a full queue sheds instead of
                            // blocking the acceptor.
                            let shard = next % senders.len().max(1);
                            next = next.wrapping_add(1);
                            let (Some(tx), Some(ordinal)) =
                                (senders.get(shard), ordinals.get_mut(shard))
                            else {
                                continue;
                            };
                            let admitted = Admitted {
                                stream,
                                ordinal: *ordinal,
                                admitted_at: Instant::now(),
                            };
                            *ordinal += 1;
                            match tx.try_send(admitted) {
                                Ok(()) => server.telemetry.queue_entered(shard),
                                Err(TrySendError::Full(mut shed)) => {
                                    server.shed(
                                        &mut shed.stream,
                                        shard as u64,
                                        &format!("shard {shard} queue full"),
                                    );
                                }
                                Err(TrySendError::Disconnected(_)) => return,
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => {
                            server.obs.add("serve.accept_errors", 1);
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
            })
        };

        Ok(ServerHandle {
            addr,
            stop,
            acceptor: Some(acceptor),
            workers,
            server: Arc::clone(self),
        })
    }

    /// Take up one admitted connection on the worker thread: enforce the
    /// queue deadline, run the connection-level fault hooks (which may
    /// stall or panic — the supervisor catches the latter), then serve.
    fn service(&self, admitted: Admitted, shard: u64, stop: &AtomicBool) {
        let Admitted {
            mut stream,
            ordinal,
            admitted_at,
        } = admitted;
        // Depth observed as this connection leaves its queue — it rides
        // along into the trace records of the connection's batches.
        let queue_depth = self.telemetry.queue_left(shard as usize);
        if admitted_at.elapsed() > QUEUE_DEADLINE {
            self.shed(
                &mut stream,
                shard,
                &format!("shard {shard} queue deadline exceeded"),
            );
            return;
        }
        self.chaos.on_connection(&self.obs, shard, ordinal);
        self.handle_connection(stream, shard, ordinal, queue_depth, stop);
    }

    /// Shed one connection with an explicit `Overloaded` reply so the
    /// peer can back off and retry instead of timing out blind.
    fn shed(&self, stream: &mut TcpStream, shard: u64, reason: &str) {
        self.telemetry
            .on_shed(&self.obs, &self.health, shard as u32);
        self.obs.add("serve.overloaded", 1);
        self.reject_frame(stream, &WireError::Overloaded(reason.to_owned()));
    }

    /// Serve one connection until it closes, sends garbage, stalls past
    /// the frame budget, or the server shuts down. Reads run against a
    /// short timeout with an incremental frame buffer — partial frames
    /// survive a timeout intact, and the worker polls `stop` between
    /// reads so a blocked connection can never deadlock
    /// [`ServerHandle::shutdown`]. Every malformed frame is answered
    /// with an error frame and counted; the worker then drops the
    /// connection and moves on.
    fn handle_connection(
        &self,
        mut stream: TcpStream,
        shard: u64,
        conn: u64,
        queue_depth: u64,
        stop: &AtomicBool,
    ) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut frame_index: u64 = 0;
        let mut frame_started: Option<Instant> = None;
        loop {
            // Drain every complete frame currently buffered.
            loop {
                if buf.len() < 4 {
                    break;
                }
                let declared = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
                if declared > wire::MAX_FRAME {
                    self.reject_frame(&mut stream, &WireError::TooLarge(declared));
                    return;
                }
                let total = 4 + declared as usize;
                if buf.len() < total {
                    break;
                }
                let payload: Vec<u8> = buf[4..total].to_vec();
                buf.drain(..total);
                self.chaos.before_frame(&self.obs, shard, conn, frame_index);
                let frame = frame_index;
                frame_index += 1;
                if !self.answer_frame(&mut stream, &payload, shard, conn, frame, queue_depth) {
                    return;
                }
            }
            // Slow-loris defense: a started frame must complete within
            // the stall budget, however steadily it trickles.
            if buf.is_empty() {
                frame_started = None;
            } else {
                match frame_started {
                    None => frame_started = Some(Instant::now()),
                    Some(started) if started.elapsed() > self.options.stall_timeout => {
                        self.reject_frame(
                            &mut stream,
                            &WireError::Truncated("frame stalled past budget"),
                        );
                        return;
                    }
                    Some(_) => {}
                }
            }
            if stop.load(Ordering::Relaxed) {
                return;
            }
            match stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed; bytes left in the buffer are a frame
                    // that was promised but never completed.
                    if !buf.is_empty() {
                        self.reject_frame(
                            &mut stream,
                            &WireError::Truncated("connection closed mid-frame"),
                        );
                    }
                    return;
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    // Idle tick: loop around and re-check the stop flag.
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.obs.add("serve.connection_drops", 1);
                    return;
                }
            }
        }
    }

    /// Decode and answer one frame payload. Returns `false` when the
    /// connection should be dropped.
    fn answer_frame(
        &self,
        stream: &mut TcpStream,
        payload: &[u8],
        shard: u64,
        conn: u64,
        frame: u64,
        queue_depth: u64,
    ) -> bool {
        let start = Instant::now();
        match wire::decode_request(payload) {
            Ok(Request::Query(ips)) => {
                // The worker thread is the shard: each connection's
                // frames are answered serially on one snapshot each.
                let snapshot = self.snapshot();
                let verdicts: Vec<Verdict> = ips.iter().map(|&ip| snapshot.verdict(ip)).collect();
                // Trace annotation: did the chaos plan schedule a fault
                // for this exact frame? Stateless probe, no coin burned.
                let fault = self
                    .chaos
                    .plan()
                    .and_then(|p| p.query_delay(shard, conn, frame))
                    .map(|d| format!("query_delay {}us", d.as_micros()));
                let origin = BatchOrigin {
                    shard: shard as u32,
                    queue_depth,
                    fault,
                };
                self.record_answers(&verdicts, start.elapsed(), snapshot.generation(), &origin);
                self.obs
                    .observe("serve.frame_micros", start.elapsed().as_micros() as u64);
                if wire::write_frame(stream, &encode_query_response(&verdicts)).is_err() {
                    self.obs.add("serve.connection_drops", 1);
                    return false;
                }
                true
            }
            Ok(Request::Generation) => {
                let generation = self.snapshot().generation();
                if wire::write_frame(stream, &encode_generation_response(generation)).is_err() {
                    self.obs.add("serve.connection_drops", 1);
                    return false;
                }
                true
            }
            Ok(Request::Health) => {
                let probe = self.health_probe();
                if wire::write_frame(stream, &encode_health_response(&probe)).is_err() {
                    self.obs.add("serve.connection_drops", 1);
                    return false;
                }
                true
            }
            Ok(Request::Stats) => {
                let stats = self.stats_frame();
                self.obs.add("serve.stats_served", 1);
                self.obs.event(
                    PHASE,
                    EventKind::StatsServed,
                    None,
                    1,
                    format!("stats scraped at tick {}", stats.tick),
                );
                if wire::write_frame(stream, &encode_stats_response(&stats)).is_err() {
                    self.obs.add("serve.connection_drops", 1);
                    return false;
                }
                true
            }
            Err(e) => {
                self.reject_frame(stream, &e);
                false
            }
        }
    }

    fn reject_frame(&self, stream: &mut TcpStream, error: &WireError) {
        self.obs.add(reject_reason_counter(error), 1);
        self.obs.event(
            PHASE,
            EventKind::FrameRejected,
            None,
            1,
            format!("refused frame: {error}"),
        );
        // Best effort: the peer may already be gone. An overload shed
        // answers with status 2 so the peer knows it may retry.
        let response = match error {
            WireError::Overloaded(msg) => encode_overloaded_response(msg),
            other => encode_error_response(&other.to_string()),
        };
        let _ = wire::write_frame(stream, &response);
    }
}

/// Every per-reason reject counter. Only the reasons are counted at the
/// reject site; the aggregate `serve.frames_rejected` is *derived* as
/// their sum wherever it is reported (stats frames, health reports), so
/// it can never drift from its parts.
pub(crate) const REJECT_REASON_COUNTERS: [&str; 4] = [
    "serve.frames_rejected.malformed",
    "serve.frames_rejected.oversized",
    "serve.frames_rejected.truncated",
    "serve.frames_rejected.overloaded",
];

/// Per-reason reject counter, so chaos runs are diagnosable from the
/// RunReport alone (the aggregate `serve.frames_rejected` is derived as
/// the sum of these).
fn reject_reason_counter(error: &WireError) -> &'static str {
    match error {
        WireError::TooLarge(_) => "serve.frames_rejected.oversized",
        WireError::Truncated(_) | WireError::Closed => "serve.frames_rejected.truncated",
        WireError::Overloaded(_) => "serve.frames_rejected.overloaded",
        _ => "serve.frames_rejected.malformed",
    }
}

/// Human-readable panic payload (same shape as the study supervisor's).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Owns the acceptor and shard worker threads of one TCP front end.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    server: Arc<ReputationServer>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port 0 bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the workers, join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if !self.stop.swap(true, Ordering::Relaxed) {
            self.server.health.transition(
                &self.server.obs,
                HealthState::Draining,
                "shutdown requested",
            );
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The acceptor owned the work senders; its exit closes the
        // queues and the workers drain out.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// NaN-safe latency/throughput summary of one serve histogram: with zero
/// queries served every field renders as `0` or `n/a`, never `NaN`.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_micros: f64,
    /// Log₂-bucket upper bound of the median, when any query was served.
    pub p50_micros: Option<u64>,
    /// Log₂-bucket upper bound of the 99th percentile, likewise.
    pub p99_micros: Option<u64>,
}

impl LatencySummary {
    /// Summarise `histogram` out of `report`; a missing histogram (the
    /// server never answered anything) summarises as zero, not NaN.
    pub fn from_report(report: &ar_obs::RunReport, histogram: &str) -> LatencySummary {
        match report.histograms.get(histogram) {
            Some(h) => LatencySummary {
                count: h.count,
                mean_micros: h.mean(),
                p50_micros: h.quantile(0.5),
                p99_micros: h.quantile(0.99),
            },
            None => LatencySummary {
                count: 0,
                mean_micros: 0.0,
                p50_micros: None,
                p99_micros: None,
            },
        }
    }

    /// `"<count> obs, mean <µs>, p50 <µs|n/a>, p99 <µs|n/a>"`.
    pub fn render(&self) -> String {
        let quant = |q: Option<u64>| match q {
            Some(v) => format!("{v}µs"),
            None => "n/a".into(),
        };
        format!(
            "{} obs, mean {:.1}µs, p50 {}, p99 {}",
            self.count,
            self.mean_micros,
            quant(self.p50_micros),
            quant(self.p99_micros)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotInput;
    use ar_blocklists::policy::GreylistPolicy;
    use ar_blocklists::{build_catalog, ListId};

    fn small_snapshot(generation: u64) -> ReputationSnapshot {
        let input = SnapshotInput {
            memberships: (0..200u32)
                .map(|ip| (ip * 7, ListId((ip % 151) as u16)))
                .collect(),
            nat_evidence: (0..40u32).map(|ip| (ip * 14, 2 + ip % 9)).collect(),
            dynamic_prefixes: ar_index::PrefixSet::from_raw(vec![0, 3]),
            dynamic_addresses: ar_index::IpSet::new(),
        };
        ReputationSnapshot::build(
            generation,
            build_catalog(),
            GreylistPolicy::default(),
            input,
        )
    }

    #[test]
    fn swap_is_atomic_and_observable() {
        let obs = Obs::new();
        let server = ReputationServer::new(small_snapshot(1), 2, obs);
        assert_eq!(server.snapshot().generation(), 1);
        let old = server.swap(small_snapshot(2));
        assert_eq!(old, 1);
        assert_eq!(server.snapshot().generation(), 2);
        let report = server.obs().report();
        assert_eq!(report.gauges["serve.generation"], 2);
        assert_eq!(report.gauges["serve.last_good_generation"], 2);
        assert_eq!(report.event_counts["snapshot_swapped"], 1);
    }

    #[test]
    fn offer_swap_rejects_damage_and_pins_last_good() {
        use ar_faults::SnapshotFault;
        let server = ReputationServer::new(small_snapshot(1), 2, Obs::new());
        let corrupt = small_snapshot(2).sabotaged(SnapshotFault::CorruptPostings);
        let defect = match server.offer_swap(corrupt) {
            Err(defect) => defect,
            Ok(gen) => panic!("corrupt offer installed over generation {gen}"),
        };
        assert!(matches!(defect, SnapshotDefect::ChecksumMismatch { .. }));
        // Still serving the pinned last-good snapshot, visibly degraded.
        let probe = server.health_probe();
        assert_eq!(probe.state, HealthState::Degraded);
        assert_eq!(probe.generation, 1);
        assert_eq!(probe.last_good_generation, 1);
        assert!(probe.reason.contains("snapshot rejected"), "{probe:?}");
        assert_eq!(server.verdict_batch(&[0, 7, 14]).len(), 3);
        let report = server.obs().report();
        assert_eq!(report.counters["serve.snapshots_rejected"], 1);
        assert_eq!(report.event_counts["snapshot_rejected"], 1);
        assert_eq!(report.gauges["serve.health"], 2);
        // A valid offer recovers.
        assert_eq!(server.offer_swap(small_snapshot(3)), Ok(1));
        let probe = server.health_probe();
        assert_eq!(probe.state, HealthState::Serving);
        assert_eq!(probe.generation, 3);
        assert_eq!(probe.last_good_generation, 3);
    }

    #[test]
    fn offer_swap_rejects_generation_regression() {
        let server = ReputationServer::new(small_snapshot(5), 1, Obs::new());
        match server.offer_swap(small_snapshot(5)) {
            Err(SnapshotDefect::GenerationRegression { offered, serving }) => {
                assert_eq!((offered, serving), (5, 5));
            }
            other => panic!("expected regression rejection, got {other:?}"),
        }
        assert_eq!(server.snapshot().generation(), 5);
        // The raw swap stays available for trusted callers that need to
        // move backwards (tests do).
        server.swap(small_snapshot(2));
        assert_eq!(server.snapshot().generation(), 2);
    }

    #[test]
    fn verdict_classes_are_counted() {
        let server = ReputationServer::new(small_snapshot(1), 1, Obs::new());
        let ips: Vec<u32> = (0..500u32).collect();
        let verdicts = server.verdict_batch(&ips);
        assert_eq!(verdicts.len(), 500);
        let report = server.obs().report();
        assert_eq!(report.counters["serve.queries"], 500);
        let classed = report.counters.get("serve.verdict.block").unwrap_or(&0)
            + report.counters.get("serve.verdict.greylist").unwrap_or(&0)
            + report.counters.get("serve.verdict.unlisted").unwrap_or(&0);
        assert_eq!(classed, 500);
    }

    /// Answered traffic is counted, not logged: ten times the batches
    /// leave the event log exactly as long.
    #[test]
    fn serve_event_log_is_bounded() {
        let events_after = |batches: u32| {
            let server = ReputationServer::new(small_snapshot(1), 2, Obs::new());
            for i in 0..batches {
                server.verdict_batch(&[i * 7, i * 14, i]);
            }
            assert_eq!(
                server.obs().report().counters["serve.queries"],
                u64::from(batches) * 3
            );
            server.obs().report().events.len()
        };
        assert_eq!(events_after(200), events_after(2000));
    }

    /// No reply waits on a delayed ACK. With the length prefix and the
    /// payload in two writes, Nagle's algorithm held every payload until
    /// the peer's delayed ACK, so each sequential query took about 90 ms.
    /// Without `TCP_NODELAY` on the accepted stream, a pipelining peer's
    /// second reply waited for the peer's delayed ACK of the first. Either
    /// stall puts its loop far past the 2 s budget.
    #[test]
    fn loopback_replies_never_wait_for_a_delayed_ack() {
        use std::io::Write;
        let server = ReputationServer::new(small_snapshot(1), 2, Obs::new());
        let handle = server
            .serve(TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .expect("serve");
        let budget = Duration::from_secs(2);
        let ips: Vec<u32> = (0..200u32).map(|i| i * 7).collect();

        // Part one: 200 sequential queries from the plain client.
        let mut client = crate::Client::connect(handle.addr()).expect("connect");
        let started = Instant::now();
        for &ip in &ips {
            let answer = client.query(&[ip]).expect("query");
            assert_eq!(answer, [server.verdict(ip)], "ip {ip}");
        }
        let sequential = started.elapsed();
        drop(client);
        assert!(
            sequential < budget,
            "200 sequential queries took {sequential:?}"
        );

        // Part two: 100 rounds of two single-address frames written
        // together, as a pipelining load generator writes them.
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let started = Instant::now();
        for pair in ips.chunks(2) {
            let mut frames = Vec::new();
            for &ip in pair {
                wire::write_frame(&mut frames, &wire::encode_query(&[ip])).expect("frame");
            }
            stream.write_all(&frames).expect("write both frames");
            for &ip in pair {
                let reply = wire::read_frame(&mut stream).expect("reply");
                let answer = wire::decode_query_response(&reply).expect("decode");
                assert_eq!(answer, [server.verdict(ip)], "ip {ip}");
            }
        }
        let pipelined = started.elapsed();
        assert!(
            pipelined < budget,
            "100 rounds of two pipelined frames took {pipelined:?}"
        );
        handle.shutdown();
    }

    #[test]
    fn zero_query_latency_summary_is_nan_free() {
        let server = ReputationServer::new(small_snapshot(1), 4, Obs::new());
        let report = server.obs().report();
        let summary = LatencySummary::from_report(&report, "serve.batch_micros");
        assert_eq!(summary.count, 0);
        assert_eq!(summary.mean_micros, 0.0);
        assert_eq!(summary.p50_micros, None);
        assert_eq!(summary.p99_micros, None);
        let rendered = summary.render();
        assert!(
            rendered.contains("p50 n/a") && rendered.contains("p99 n/a"),
            "{rendered}"
        );
        assert!(!rendered.contains("NaN"), "{rendered}");
        // And once queries flow, the quantiles appear.
        server.verdict_batch(&[1, 2, 3]);
        let summary = LatencySummary::from_report(&server.obs().report(), "serve.batch_micros");
        assert_eq!(summary.count, 1);
        assert!(summary.p50_micros.is_some() && summary.p99_micros.is_some());
        assert!(!summary.render().contains("NaN"));
    }
}
