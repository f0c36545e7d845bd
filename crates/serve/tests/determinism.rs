//! The serving contract: one snapshot + one query log ⇒ one verdict
//! stream, regardless of shard count, transport, or a mid-run hot swap to
//! an identically rebuilt snapshot.

use ar_blocklists::policy::GreylistPolicy;
use ar_blocklists::{build_catalog, ListId};
use ar_index::{IpSet, PrefixSet};
use ar_obs::Obs;
use ar_serve::{
    checksum_verdicts, encode_verdicts, Client, ReputationServer, ReputationSnapshot, SnapshotInput,
};
use ar_simnet::rng::{mix64, Seed, GOLDEN_GAMMA};
use std::net::TcpListener;

/// Deterministic splitmix64 stream (no ambient entropy in tests either).
fn mix_stream(seed: Seed, label: &str, n: usize) -> Vec<u64> {
    let mut state = seed.fork(label).0;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(GOLDEN_GAMMA);
            mix64(state)
        })
        .collect()
}

fn test_input(seed: Seed) -> SnapshotInput {
    let words = mix_stream(seed, "snapshot", 5000);
    let memberships = words
        .iter()
        .take(3000)
        .map(|&w| ((w >> 16) as u32 % 100_000, ListId((w % 151) as u16)))
        .collect();
    let nat_evidence = words
        .iter()
        .skip(3000)
        .take(1000)
        .map(|&w| ((w >> 16) as u32 % 100_000, 2 + (w % 40) as u32))
        .collect();
    let dynamic_prefixes = PrefixSet::from_raw(
        words
            .iter()
            .skip(4000)
            .take(500)
            .map(|&w| (w as u32 % 100_000) >> 8)
            .collect(),
    );
    SnapshotInput {
        memberships,
        nat_evidence,
        dynamic_prefixes,
        dynamic_addresses: IpSet::new(),
    }
}

fn test_snapshot(generation: u64) -> ReputationSnapshot {
    ReputationSnapshot::build(
        generation,
        build_catalog(),
        GreylistPolicy::default(),
        test_input(Seed(77)),
    )
}

/// 80% hot-set skew over the listed addresses, 20% uniform scan.
fn query_log(snapshot: &ReputationSnapshot, n: usize) -> Vec<u32> {
    let listed = snapshot.listed_addresses().as_raw();
    let hot = &listed[..listed.len().min(64)];
    mix_stream(Seed(77), "queries", n)
        .into_iter()
        .map(|w| {
            if w % 10 < 8 && !hot.is_empty() {
                hot[(w >> 8) as usize % hot.len()]
            } else {
                (w >> 16) as u32
            }
        })
        .collect()
}

#[test]
fn verdict_stream_is_identical_across_shard_counts() {
    let queries = query_log(&test_snapshot(1), 10_000);
    let mut checksums = Vec::new();
    for shards in [1usize, 2, 4] {
        let server = ReputationServer::new(test_snapshot(1), shards, Obs::disabled());
        let verdicts = server.verdict_batch(&queries);
        assert_eq!(verdicts.len(), queries.len());
        checksums.push(checksum_verdicts(&verdicts));
    }
    assert_eq!(checksums[0], checksums[1], "1 vs 2 shards");
    assert_eq!(checksums[0], checksums[2], "1 vs 4 shards");
}

#[test]
fn hot_swap_to_identical_snapshot_leaves_stream_unchanged() {
    let queries = query_log(&test_snapshot(1), 10_000);
    let baseline = {
        let server = ReputationServer::new(test_snapshot(1), 2, Obs::disabled());
        checksum_verdicts(&server.verdict_batch(&queries))
    };

    // Same queries, but the snapshot is swapped for an identical rebuild
    // halfway through the run.
    let server = ReputationServer::new(test_snapshot(1), 2, Obs::new());
    let (front, back) = queries.split_at(queries.len() / 2);
    let mut verdicts = server.verdict_batch(front);
    server.swap(test_snapshot(1));
    verdicts.extend(server.verdict_batch(back));
    assert_eq!(checksum_verdicts(&verdicts), baseline);
    assert_eq!(server.obs().report().event_counts["snapshot_swapped"], 1);
}

#[test]
fn tcp_and_in_process_paths_agree() {
    let server = ReputationServer::new(test_snapshot(3), 2, Obs::new());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let handle = server.serve(listener).expect("serve");

    let queries = query_log(&server.snapshot(), 2_000);
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.generation().expect("generation probe"), 3);
    let over_tcp = client.query(&queries).expect("query");
    let in_process = server.verdict_batch(&queries);
    assert_eq!(
        encode_verdicts(&over_tcp),
        encode_verdicts(&in_process),
        "wire round-trip must preserve the verdict stream byte-for-byte"
    );

    let report = server.obs().report();
    assert_eq!(report.event_counts["shard_started"], 2);
    assert!(report.counters["serve.queries"] >= 4_000);
    handle.shutdown();
}

#[test]
fn concurrent_clients_each_see_consistent_streams() {
    let server = ReputationServer::new(test_snapshot(4), 4, Obs::disabled());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let handle = server.serve(listener).expect("serve");
    let queries = query_log(&server.snapshot(), 1_000);
    let expected = checksum_verdicts(&server.verdict_batch(&queries));

    std::thread::scope(|scope| {
        for _ in 0..6 {
            let queries = &queries;
            let addr = handle.addr();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..3 {
                    let verdicts = client.query(queries).expect("query");
                    assert_eq!(checksum_verdicts(&verdicts), expected);
                }
            });
        }
    });
    handle.shutdown();
}
