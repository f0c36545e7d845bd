//! The telemetry plane's own determinism contract:
//!
//! * the server's verdicts are byte-identical to the bare snapshot's —
//!   telemetry and trace sampling observe, never interfere;
//! * the encoded `OP_STATS` frames and the trace log of a fixed seeded
//!   run are pinned;
//! * two same-seed runs produce identical canonical trace logs and
//!   byte-identical encoded `OP_STATS` frames at matching ticks, at any
//!   shard count — the logical clock counts query ordinals, so nothing
//!   in a frame depends on wall time or thread interleaving.

use ar_blocklists::policy::GreylistPolicy;
use ar_blocklists::{build_catalog, ListId};
use ar_faults::SnapshotFault;
use ar_index::{IpSet, PrefixSet};
use ar_obs::Obs;
use ar_serve::telemetry::trace_log_digest;
use ar_serve::wire::encode_stats_response;
use ar_serve::{
    checksum_verdicts, encode_verdicts, ReputationServer, ReputationSnapshot, SnapshotInput,
    StatsFrame,
};
use ar_simnet::fnv::FnvHasher;
use ar_simnet::rng::{mix64, Seed, GOLDEN_GAMMA};

fn mix_stream(seed: Seed, label: &str, n: usize) -> Vec<u64> {
    let mut state = seed.fork(label).0;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(GOLDEN_GAMMA);
            mix64(state)
        })
        .collect()
}

fn test_snapshot(generation: u64) -> ReputationSnapshot {
    let words = mix_stream(Seed(9), "telemetry-snapshot", 2000);
    let input = SnapshotInput {
        memberships: words
            .iter()
            .take(1200)
            .map(|&w| ((w >> 16) as u32 % 50_000, ListId((w % 151) as u16)))
            .collect(),
        nat_evidence: words
            .iter()
            .skip(1200)
            .take(400)
            .map(|&w| ((w >> 16) as u32 % 50_000, 2 + (w % 30) as u32))
            .collect(),
        dynamic_prefixes: PrefixSet::from_raw(
            words
                .iter()
                .skip(1600)
                .map(|&w| (w as u32 % 50_000) >> 8)
                .collect(),
        ),
        dynamic_addresses: IpSet::new(),
    };
    ReputationSnapshot::build(
        generation,
        build_catalog(),
        GreylistPolicy::default(),
        input,
    )
}

fn query_log(n: usize) -> Vec<u32> {
    mix_stream(Seed(9), "telemetry-queries", n)
        .into_iter()
        .map(|w| (w >> 16) as u32 % 60_000)
        .collect()
}

#[test]
fn telemetry_on_or_off_leaves_the_verdict_stream_byte_identical() {
    // Enough batches to close and evict windows and fill both trace
    // policies; the bare snapshot answers with no telemetry at all.
    let queries = query_log(12_000);
    let server = ReputationServer::new(test_snapshot(1), 2, Obs::new());
    let served: Vec<_> = queries
        .chunks(97)
        .flat_map(|batch| server.verdict_batch(batch))
        .collect();
    let bare = test_snapshot(1);
    let direct: Vec<_> = queries.iter().map(|&ip| bare.verdict(ip)).collect();
    assert!(!server.trace_log().is_empty(), "tracing ran");
    assert!(server.stats_frame().windows.len() > 8, "windows closed");
    assert_eq!(encode_verdicts(&served), encode_verdicts(&direct));
}

#[test]
fn same_seed_runs_produce_identical_traces_and_stats_frames() {
    // Long enough to wrap the window ring.
    let queries = query_log(12_000);

    // One run: feed the query log in deterministic batches, capturing an
    // OP_STATS frame at fixed batch checkpoints.
    let run = |shards: usize| {
        let server = ReputationServer::new(test_snapshot(1), shards, Obs::new());
        let mut checkpoints = Vec::new();
        let mut checksum = Vec::new();
        for (i, batch) in queries.chunks(97).enumerate() {
            let verdicts = server.verdict_batch(batch);
            checksum.push(checksum_verdicts(&verdicts));
            if i % 10 == 9 {
                checkpoints.push(server.stats_frame());
            }
        }
        (checksum, server.trace_log(), checkpoints)
    };

    let (baseline_checksums, baseline_traces, baseline_frames) = run(1);
    assert!(
        !baseline_traces.is_empty(),
        "the run must actually capture traces"
    );
    assert!(!baseline_frames.is_empty());

    for shards in [1usize, 2, 4] {
        // Same seed, same shard count: frames are byte-identical on the
        // wire at matching ticks.
        let (checksums, traces, frames) = run(shards);
        let (checksums2, traces2, frames2) = run(shards);
        assert_eq!(checksums, checksums2, "{shards} shards: rerun verdicts");
        assert_eq!(traces, traces2, "{shards} shards: rerun trace log");
        let encode =
            |fs: &[StatsFrame]| -> Vec<Vec<u8>> { fs.iter().map(encode_stats_response).collect() };
        assert_eq!(
            encode(&frames),
            encode(&frames2),
            "{shards} shards: rerun OP_STATS bytes"
        );

        // Across shard counts: verdicts, traces and everything in the
        // frame except the per-shard queue-depth vector (whose length is
        // the shard count by construction) are invariant.
        assert_eq!(checksums, baseline_checksums, "{shards} shards: verdicts");
        assert_eq!(traces, baseline_traces, "{shards} shards: trace log");
        let flatten = |fs: &[StatsFrame]| -> Vec<StatsFrame> {
            fs.iter()
                .map(|f| {
                    let mut f = f.clone();
                    assert!(f.queue_depths.iter().all(|&d| d == 0), "in-process run");
                    f.queue_depths.clear();
                    f
                })
                .collect()
        };
        assert_eq!(
            flatten(&frames),
            flatten(&baseline_frames),
            "{shards} shards: OP_STATS frames at matching ticks"
        );
    }
}

/// The wire bytes of the telemetry plane, pinned: a default server
/// answers a fixed seeded query log long enough to wrap the window ring,
/// drops to `Degraded` on a rejected swap offer long enough to breach the
/// degraded-time budget, recovers on a valid offer, and is scraped at
/// fixed batch checkpoints. One FNV-1a over every encoded `OP_STATS`
/// frame, then the trace-log digest, must never move.
#[test]
fn op_stats_frames_and_trace_log_are_pinned() {
    let queries = query_log(12_000);
    let server = ReputationServer::new(test_snapshot(1), 2, Obs::new());
    let mut hasher = FnvHasher::new();
    for (i, batch) in queries.chunks(97).enumerate() {
        match i {
            30 => assert!(server
                .offer_swap(test_snapshot(2).sabotaged(SnapshotFault::CorruptPostings))
                .is_err()),
            80 => assert_eq!(server.offer_swap(test_snapshot(3)), Ok(1)),
            _ => {}
        }
        server.verdict_batch(batch);
        if i % 10 == 9 {
            hasher.update(&encode_stats_response(&server.stats_frame()));
        }
    }
    let last = server.stats_frame();
    assert_eq!(last.tick, queries.len() as u64);
    assert_eq!(last.windows.len(), 9, "8 closed windows and the open one");
    assert_eq!((last.slo.breaches, last.slo.recoveries), (1, 1));
    hasher.update(&encode_stats_response(&last));
    hasher.update(&trace_log_digest(&server.trace_log()).to_be_bytes());
    assert_eq!(hasher.finish(), 0xfe59_b887_852e_3a7e);
}

#[test]
fn stats_frame_counters_match_the_run_report() {
    let queries = query_log(12_000);
    let server = ReputationServer::new(test_snapshot(1), 2, Obs::new());
    for batch in queries.chunks(61) {
        server.verdict_batch(batch);
    }
    let frame = server.stats_frame();
    let report = server.obs().report();
    assert_eq!(frame.tick, queries.len() as u64);
    assert_eq!(
        frame.counter("serve.queries"),
        report.counters["serve.queries"]
    );
    for class in ["block", "greylist", "unlisted"] {
        let name = format!("serve.verdict.{class}");
        assert_eq!(
            frame.counter(&name),
            report.counters.get(&name).copied().unwrap_or(0),
            "{name}"
        );
    }
    // The retained windows hold part of the cumulative query count.
    let windowed: u64 = frame.windows.iter().map(|w| w.counter("queries")).sum();
    let evicted = frame.tick - windowed;
    assert!(
        frame.windows.len() <= 9,
        "ring capacity 8 + open window, got {}",
        frame.windows.len()
    );
    // With capacity 8 and 12000 ticks at 1024/window some windows evicted.
    assert!(evicted > 0, "the run must wrap the ring");
}
