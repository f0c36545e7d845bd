//! `bench_chaos` — the serving-path chaos soak.
//!
//! Builds one reputation snapshot from the `quick_test` study, then runs
//! a seeded chaos soak against a live TCP server at every intensity in
//! {0.0, 0.25, 0.5, 1.0} × shard counts {1, 2}: client sessions whose
//! behavior (honest query, slow-loris, truncated frame, connection
//! churn) is drawn from the [`ar_faults::ServeFaultPlan`], periodic hot
//! swap offers sabotaged per the same plan, and server-side worker
//! panics / stalls / latency spikes injected by the plan's hooks.
//!
//! The soak asserts the robustness contract at every point:
//!
//! * every admitted honest query answers the exact verdict-stream
//!   checksum of the generation serving at that moment — across shard
//!   counts, supervisor restarts and rejected swaps;
//! * every caught worker panic is matched by a restart;
//! * every sabotaged snapshot offer is refused and the server keeps
//!   serving pinned last-good; a clean offer recovers to `Serving`;
//! * the final health report is clean, and the full-intensity point's
//!   chaos log replays bit-identically when re-run with the same seed;
//! * the telemetry plane answers `OP_STATS` over the wire mid-soak (the
//!   frame decodes while faults are in flight) and again at the end,
//!   where the frame's cumulative counters must agree with the
//!   in-process run report and the derived `frames_rejected` sum.
//!
//! Writes `BENCH_chaos.json` at the repository root (hand-rendered JSON).
//! It takes no arguments: the seed (2020), the session count (60) and the
//! full sweep are the ones the committed golden pins.

use address_reuse::{reputation_snapshot, GreylistPolicy, Study, StudyConfig};
use ar_faults::{ClientMisbehavior, ServeFaultPlan, SnapshotFault};
use ar_obs::Obs;
use ar_serve::wire::encode_query;
use ar_serve::{
    checksum_verdicts, fnv1a64, misbehave, Client, HealthState, ReputationServer, RetryPolicy,
    ServeOptions,
};
use ar_simnet::rng::{mix64, Seed, GOLDEN_GAMMA};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const INTENSITIES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
const SHARD_COUNTS: [usize; 2] = [1, 2];
/// The study and soak seed the committed `BENCH_chaos.json` pins.
const SEED: Seed = Seed(2020);
/// Client sessions per sweep point.
const SESSIONS: u64 = 60;
/// Sessions between consecutive hot-swap offers.
const SWAP_EVERY: u64 = 5;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// The per-session query batch: a seeded 80/20 hot/uniform mix over the
/// snapshot's listed addresses.
fn query_log(study: &Study, seed: Seed, n: usize) -> Vec<u32> {
    let snapshot = reputation_snapshot(study, 1, GreylistPolicy::default());
    let listed = snapshot.listed_addresses().as_raw();
    let hot_len = (listed.len() / 8).clamp(1, 4096).min(listed.len().max(1));
    let mut state = seed.fork("chaos-load").0;
    (0..n)
        .map(|_| {
            let w = splitmix(&mut state);
            if w % 10 < 8 && !listed.is_empty() {
                listed[(w >> 8) as usize % hot_len]
            } else {
                (w >> 16) as u32
            }
        })
        .collect()
}

/// The verdict-stream checksum generation `gen` must answer for `ips`
/// (snapshot builds are deterministic, so an identically rebuilt
/// snapshot is byte-identical to the one offered to the live server).
fn expected_checksum(study: &Study, generation: u64, ips: &[u32]) -> u64 {
    let probe = ReputationServer::new(
        reputation_snapshot(study, generation, GreylistPolicy::default()),
        1,
        Obs::disabled(),
    );
    checksum_verdicts(&probe.verdict_batch(ips))
}

struct Point {
    intensity: f64,
    shards: usize,
    honest: u64,
    hostile: u64,
    shed_after_retries: u64,
    swaps_offered: u64,
    swaps_accepted: u64,
    swaps_rejected: u64,
    worker_panics: u64,
    worker_restarts: u64,
    overloaded: u64,
    frames_rejected: u64,
    chaos_events: usize,
    chaos_log_checksum: u64,
    final_state: HealthState,
    /// Logical tick of the final OP_STATS scrape (cumulative query
    /// ordinals — the telemetry plane's clock, not wall time).
    stats_tick: u64,
    /// Windows (evicted-fold + ring + open) the final frame carried.
    stats_windows: usize,
    slo_breaches: u64,
    traces_sampled: u64,
    secs: f64,
}

impl Point {
    fn json(&self) -> String {
        format!(
            "    {{\"intensity\": {}, \"shards\": {}, \"sessions\": {}, \"honest\": {}, \
             \"hostile\": {}, \"shed_after_retries\": {}, \"swaps\": {{\"offered\": {}, \
             \"accepted\": {}, \"rejected\": {}}}, \"worker_panics\": {}, \
             \"worker_restarts\": {}, \"overloaded\": {}, \"frames_rejected\": {}, \
             \"chaos_events\": {}, \"chaos_log_checksum\": \"{:#018x}\", \
             \"final_state\": \"{}\", \"telemetry\": {{\"tick\": {}, \"windows\": {}, \
             \"slo_breaches\": {}, \"traces_sampled\": {}}}, \"wall_secs\": {:.4}}}",
            self.intensity,
            self.shards,
            SESSIONS,
            self.honest,
            self.hostile,
            self.shed_after_retries,
            self.swaps_offered,
            self.swaps_accepted,
            self.swaps_rejected,
            self.worker_panics,
            self.worker_restarts,
            self.overloaded,
            self.frames_rejected,
            self.chaos_events,
            self.chaos_log_checksum,
            self.final_state,
            self.stats_tick,
            self.stats_windows,
            self.slo_breaches,
            self.traces_sampled,
            self.secs,
        )
    }
}

/// One soak point: a live server under the plan, [`SESSIONS`] seeded
/// client sessions, a hot-swap offer every [`SWAP_EVERY`] sessions.
fn run_point(study: &Study, intensity: f64, shards: usize, ips: &[u32]) -> Point {
    let plan = ServeFaultPlan::new(SEED.fork("serve-chaos"), intensity);
    let server = ReputationServer::with_options(
        reputation_snapshot(study, 1, GreylistPolicy::default()),
        shards,
        Obs::new(),
        ServeOptions {
            // Tight stall budget so injected slow-loris sessions are cut
            // off in bench time rather than the production 30 s.
            stall_timeout: Duration::from_millis(250),
            faults: Some(plan),
            ..ServeOptions::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = server.serve(listener).expect("serve");

    let mut expected = expected_checksum(study, 1, ips);
    let mut next_generation = 2u64;
    let (mut honest, mut hostile, mut shed) = (0u64, 0u64, 0u64);
    let (mut offered, mut accepted, mut rejected) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for session in 0..SESSIONS {
        if session % SWAP_EVERY == SWAP_EVERY - 1 {
            let ordinal = session / SWAP_EVERY;
            offered += 1;
            match plan.snapshot_fault(ordinal) {
                None => {
                    let generation = next_generation;
                    next_generation += 1;
                    server
                        .offer_swap(reputation_snapshot(
                            study,
                            generation,
                            GreylistPolicy::default(),
                        ))
                        .expect("clean offer accepted");
                    expected = expected_checksum(study, generation, ips);
                    accepted += 1;
                }
                Some(SnapshotFault::GenerationRegression) => {
                    // Re-offer the serving generation: not newer, refused.
                    let stale = server.snapshot().generation();
                    server
                        .offer_swap(reputation_snapshot(study, stale, GreylistPolicy::default()))
                        .expect_err("regressing offer refused");
                    rejected += 1;
                }
                Some(kind) => {
                    let generation = next_generation;
                    next_generation += 1;
                    let bad = reputation_snapshot(study, generation, GreylistPolicy::default())
                        .sabotaged(kind);
                    server.offer_swap(bad).expect_err("sabotaged offer refused");
                    rejected += 1;
                }
            }
        }
        if session == SESSIONS / 2 {
            // Mid-soak OP_STATS scrape: the frame must decode while chaos
            // is in flight, and the logical clock must cover every batch
            // served so far (each answered batch advances it by the batch
            // length; each shed connection by one).
            match Client::connect_with(
                handle.addr(),
                RetryPolicy::resilient(Seed(SEED.0 ^ 0x57A7_5000)),
            )
            .and_then(|mut c| c.stats())
            {
                Ok(frame) => assert!(
                    frame.tick >= (honest - shed) * ips.len() as u64,
                    "mid-run stats tick {} fell behind the {} batches already answered",
                    frame.tick,
                    honest - shed
                ),
                // Admission control may shed the scrape under full-bore
                // chaos; that is the backpressure contract working.
                Err(ar_serve::WireError::Overloaded(_)) => {}
                Err(other) => panic!("mid-run stats scrape failed: {other}"),
            }
        }
        match plan.client_misbehavior(session, 0) {
            ClientMisbehavior::None => {
                honest += 1;
                let mut client = Client::connect_with(
                    handle.addr(),
                    RetryPolicy::resilient(Seed(SEED.0 ^ (0xC11E_4700 + session))),
                )
                .expect("connect");
                match client.query(ips) {
                    Ok(verdicts) => assert_eq!(
                        checksum_verdicts(&verdicts),
                        expected,
                        "session {session}: verdict stream diverged from the serving generation"
                    ),
                    Err(ar_serve::WireError::Overloaded(_)) => shed += 1,
                    Err(other) => panic!("session {session}: query failed after retries: {other}"),
                }
            }
            behavior => {
                hostile += 1;
                misbehave(handle.addr(), behavior, &encode_query(ips));
            }
        }
    }

    // A final clean offer must recover (or keep) Serving, over the wire.
    // The probe's connection can draw a scheduled worker panic like any
    // other, so it retries like every honest session.
    let generation = next_generation;
    server
        .offer_swap(reputation_snapshot(
            study,
            generation,
            GreylistPolicy::default(),
        ))
        .expect("final clean offer accepted");
    let mut client = Client::connect_with(
        handle.addr(),
        RetryPolicy::resilient(Seed(SEED.0 ^ 0x4EA1_7400)),
    )
    .expect("connect");
    let probe = client.health().expect("health probe");
    assert_eq!(probe.state, HealthState::Serving, "must end Serving");
    assert_eq!(probe.generation, generation);
    assert_eq!(probe.last_good_generation, generation);
    // The final OP_STATS frame: cumulative wire counters must agree with
    // the in-process run report (the soak is quiescent at this point).
    let stats = client.stats().expect("final OP_STATS scrape");

    let report = server.health_report();
    assert!(
        report.is_clean(),
        "health report must be clean at the end of the soak:\n{}",
        report.render()
    );
    let secs = start.elapsed().as_secs_f64();
    handle.shutdown();

    let obs = server.obs().report();
    let counter = |name: &str| obs.counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        stats.counter("serve.queries"),
        counter("serve.queries"),
        "OP_STATS query counter must match the run report"
    );
    assert_eq!(
        stats.counter("serve.overloaded"),
        counter("serve.overloaded"),
        "OP_STATS shed counter must match the run report"
    );
    let frame_reasons: u64 = ["malformed", "oversized", "truncated", "overloaded"]
        .iter()
        .map(|r| stats.counter(&format!("serve.frames_rejected.{r}")))
        .sum();
    assert_eq!(
        report.frames_rejected, frame_reasons,
        "derived frames_rejected must equal the frame's per-reason sum"
    );
    let log = server.chaos_log();
    let point = Point {
        intensity,
        shards,
        honest,
        hostile,
        shed_after_retries: shed,
        swaps_offered: offered,
        swaps_accepted: accepted,
        swaps_rejected: rejected,
        worker_panics: counter("serve.worker_panics"),
        worker_restarts: counter("serve.worker_restarts"),
        overloaded: counter("serve.overloaded"),
        // Derived: the sum of the four per-reason counters (the raw
        // aggregate is never written at the reject site any more).
        frames_rejected: report.frames_rejected,
        chaos_events: log.len(),
        chaos_log_checksum: fnv1a64(format!("{log:?}").as_bytes()),
        final_state: server.health_probe().state,
        stats_tick: stats.tick,
        stats_windows: stats.windows.len(),
        slo_breaches: stats.slo.breaches,
        traces_sampled: stats.counter("serve.traces_sampled"),
        secs,
    };
    assert_eq!(
        point.worker_panics, point.worker_restarts,
        "every caught panic must be matched by a restart"
    );
    assert_eq!(counter("serve.snapshots_rejected"), rejected);
    if intensity == 0.0 {
        assert_eq!(point.chaos_events, 0, "zero intensity must inject nothing");
        assert_eq!(point.worker_panics, 0);
        assert_eq!(point.swaps_rejected, 0);
    }
    point
}

/// Keep injected worker panics (caught by the shard supervisor) from
/// spraying backtraces over the soak output; real panics still print.
fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.starts_with("injected fault:"))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("bench_chaos takes no arguments (got {arg:?})");
        std::process::exit(2);
    }
    silence_injected_panics();
    eprintln!(
        "[bench_chaos] building snapshot from quick study (seed {})…",
        SEED.0
    );
    let study = Study::run(StudyConfig::quick_test(SEED));
    let ips = query_log(&study, SEED, 300);

    let mut points = Vec::new();
    for &intensity in &INTENSITIES {
        for &shards in &SHARD_COUNTS {
            eprintln!(
                "[bench_chaos] soak @ intensity {intensity}, {shards} shard(s), {SESSIONS} sessions…"
            );
            let point = run_point(&study, intensity, shards, &ips);
            eprintln!(
                "[bench_chaos]   {} honest / {} hostile sessions, {} panics (all restarted), \
                 {} swaps rejected, {} chaos events, {:.2}s",
                point.honest,
                point.hostile,
                point.worker_panics,
                point.swaps_rejected,
                point.chaos_events,
                point.secs
            );
            points.push(point);
        }
    }

    // The full-intensity point must replay its chaos log bit-identically.
    if let Some(reference) = points
        .iter()
        .find(|p| p.intensity == 1.0 && p.shards == 2)
        .map(|p| p.chaos_log_checksum)
    {
        eprintln!("[bench_chaos] replaying intensity 1.0 @ 2 shards for determinism…");
        let replay = run_point(&study, 1.0, 2, &ips);
        assert_eq!(
            replay.chaos_log_checksum, reference,
            "identical seeds must produce identical chaos logs"
        );
    }

    let rendered: Vec<String> = points.iter().map(Point::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"seed\": {},\n  \"config\": \"quick_test snapshot, \
         seeded chaos soak, swap every {} sessions\",\n  \"sessions_per_point\": {},\n  \
         \"sweep\": [\n{}\n  ]\n}}\n",
        SEED.0,
        SWAP_EVERY,
        SESSIONS,
        rendered.join(",\n")
    );

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_chaos.json");
    std::fs::write(&out, &json).expect("write BENCH_chaos.json");
    println!("{json}");
    eprintln!("[bench_chaos] wrote {}", out.display());
}
