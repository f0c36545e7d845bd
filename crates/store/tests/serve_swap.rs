//! Delta-driven hot swap through `ar-serve`'s validated `offer_swap`
//! path: a generation rebuilt from a stored, decoded delta must produce
//! a verdict stream byte-identical to serving the full next snapshot —
//! at every shard count — and a damaged delta must never reach the
//! server at all.

use ar_blocklists::{build_catalog, GreylistPolicy, ListId};
use ar_index::{IpSet, PrefixSet};
use ar_obs::Obs;
use ar_serve::snapshot::{ReputationSnapshot, SnapshotInput};
use ar_serve::{checksum_verdicts, encode_verdicts, ReputationServer, SnapshotDefect};
use ar_simnet::rng::{mix64, Seed, GOLDEN_GAMMA};
use ar_store::SnapshotDelta;

/// Deterministic splitmix64 stream (no ambient entropy in tests).
fn mix_stream(seed: Seed, label: &str, n: usize) -> Vec<u64> {
    let mut state = seed.fork(label).0;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(GOLDEN_GAMMA);
            mix64(state)
        })
        .collect()
}

/// One shared word stream with day-keyed churn — consecutive days
/// overlap heavily, the regime deltas exist for.
fn input_at(day: u64) -> SnapshotInput {
    let words = mix_stream(Seed(909), "swap", 4000);
    SnapshotInput {
        memberships: words
            .iter()
            .take(2500)
            .filter(|&&w| (w >> 8) % 13 != day % 13)
            .map(|&w| ((w >> 16) as u32 % 60_000, ListId((w % 151) as u16)))
            .collect(),
        nat_evidence: words
            .iter()
            .skip(2500)
            .take(800)
            .filter(|&&w| (w >> 9) % 17 != day % 17)
            .map(|&w| ((w >> 16) as u32 % 60_000, 2 + (w % 40) as u32))
            .collect(),
        dynamic_prefixes: PrefixSet::from_raw(
            words
                .iter()
                .skip(3300)
                .take(400)
                .filter(|&&w| (w >> 11) % 9 != day % 9)
                .map(|&w| (w as u32 % 60_000) >> 8)
                .collect(),
        ),
        dynamic_addresses: IpSet::from_raw(
            words
                .iter()
                .skip(3700)
                .take(300)
                .filter(|&&w| (w >> 12) % 9 != day % 9)
                .map(|&w| (w >> 24) as u32 % 60_000)
                .collect(),
        ),
    }
}

/// Generation `day + 1` serves day `day`.
fn snapshot_at(day: u64) -> ReputationSnapshot {
    ReputationSnapshot::build(
        day + 1,
        build_catalog(),
        GreylistPolicy::default(),
        input_at(day),
    )
}

/// 80% hot-set skew over the union of both days' listed addresses.
fn query_log(n: usize) -> Vec<u32> {
    let mut listed = snapshot_at(0).listed_addresses().as_raw().to_vec();
    listed.extend_from_slice(snapshot_at(1).listed_addresses().as_raw());
    listed.sort_unstable();
    listed.dedup();
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

/// Rebuild the next generation from an encoded delta, exactly as an
/// operator restoring from the store would.
fn next_via_delta(base: &ReputationSnapshot, next: &ReputationSnapshot) -> ReputationSnapshot {
    let bytes = SnapshotDelta::compute(base, next).to_bytes();
    SnapshotDelta::from_bytes(&bytes)
        .expect("stored delta decodes")
        .apply(base)
        .expect("delta applies onto the serving base")
}

#[test]
fn delta_swap_stream_matches_full_swap_at_every_shard_count() {
    let base = snapshot_at(0);
    let next = snapshot_at(1);
    let queries = query_log(8_000);
    let (front, back) = queries.split_at(queries.len() / 2);

    // Reference: the same mid-stream swap, installing the full snapshot.
    let reference = {
        let server = ReputationServer::new(base.clone(), 1, Obs::disabled());
        let mut verdicts = server.verdict_batch(front);
        server
            .offer_swap(next.clone())
            .expect("full snapshot passes validation");
        verdicts.extend(server.verdict_batch(back));
        encode_verdicts(&verdicts)
    };

    for shards in [1usize, 2, 4] {
        let server = ReputationServer::new(base.clone(), shards, Obs::disabled());
        let mut verdicts = server.verdict_batch(front);
        let rebuilt = next_via_delta(&base, &next);
        assert_eq!(rebuilt.content_checksum(), next.content_checksum());
        let retired = server
            .offer_swap(rebuilt)
            .expect("delta-rebuilt snapshot passes offer_swap validation");
        assert_eq!(retired, base.generation(), "swap retires the base");
        verdicts.extend(server.verdict_batch(back));
        assert_eq!(
            encode_verdicts(&verdicts),
            reference,
            "delta swap diverged from full swap at {shards} shards"
        );
    }
}

#[test]
fn delta_chain_advances_a_live_server() {
    // Walk a three-generation chain through one live server, each step
    // restored from its encoded delta; every stage's verdicts must match
    // a fresh server built on the full snapshot of that generation.
    let queries = query_log(3_000);
    let chain: Vec<ReputationSnapshot> = (0..3).map(snapshot_at).collect();
    let server = ReputationServer::new(chain[0].clone(), 2, Obs::disabled());
    for w in chain.windows(2) {
        let rebuilt = next_via_delta(&w[0], &w[1]);
        server.offer_swap(rebuilt).expect("chain step swaps in");
        let expected = {
            let full = ReputationServer::new(w[1].clone(), 2, Obs::disabled());
            checksum_verdicts(&full.verdict_batch(&queries))
        };
        assert_eq!(
            checksum_verdicts(&server.verdict_batch(&queries)),
            expected,
            "generation {} serves differently via delta",
            w[1].generation()
        );
    }
}

#[test]
fn stale_delta_cannot_regress_a_live_server() {
    let base = snapshot_at(0);
    let next = snapshot_at(1);
    let server = ReputationServer::new(base.clone(), 2, Obs::disabled());
    let rebuilt = next_via_delta(&base, &next);
    server.offer_swap(rebuilt.clone()).expect("first swap");
    // Re-offering the same generation is a regression, refused by the
    // server's existing validation — the delta plane adds no bypass.
    assert!(matches!(
        server.offer_swap(rebuilt),
        Err(SnapshotDefect::GenerationRegression { .. })
    ));
}
