//! The delta contract over an evolving generation chain:
//! `apply(base, compute(base, next))` reproduces `next` byte-for-byte,
//! the binary encoding round-trips exactly, and any damaged byte is
//! refused — by the decoder or by `apply`'s checksum verification,
//! never by silently serving a wrong snapshot.

use ar_blocklists::{build_catalog, GreylistPolicy, ListId};
use ar_index::{IpSet, PrefixSet};
use ar_serve::snapshot::{ReputationSnapshot, SnapshotInput};
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

/// The serving inputs as they stood on `day`: one shared word stream,
/// with membership/NAT/dynamic churn keyed off the day so consecutive
/// days overlap heavily — the regime deltas exist for.
fn input_at(day: u64) -> SnapshotInput {
    let words = mix_stream(Seed(909), "chain", 5000);
    let memberships = words
        .iter()
        .take(3000)
        .filter(|&&w| (w >> 8) % 13 != day % 13)
        .map(|&w| ((w >> 16) as u32 % 80_000, ListId((w % 151) as u16)))
        .collect();
    let nat_evidence = words
        .iter()
        .skip(3000)
        .take(900)
        .filter(|&&w| (w >> 9) % 17 != day % 17)
        .map(|&w| {
            // A sliver of NATs re-measure a different user bound each
            // day — the upsert path, including lowered bounds.
            let churns = (w >> 10) % 13 == 0;
            let users = 2 + (w % 40) as u32 + if churns { (day % 5) as u32 } else { 0 };
            ((w >> 16) as u32 % 80_000, users)
        })
        .collect();
    let dynamic_prefixes = PrefixSet::from_raw(
        words
            .iter()
            .skip(3900)
            .take(600)
            .filter(|&&w| (w >> 11) % 9 != day % 9)
            .map(|&w| (w as u32 % 80_000) >> 8)
            .collect(),
    );
    let dynamic_addresses = IpSet::from_raw(
        words
            .iter()
            .skip(4500)
            .take(400)
            .filter(|&&w| (w >> 12) % 9 != day % 9)
            .map(|&w| (w >> 24) as u32 % 80_000)
            .collect(),
    );
    SnapshotInput {
        memberships,
        nat_evidence,
        dynamic_prefixes,
        dynamic_addresses,
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

#[test]
fn chain_application_is_byte_identical_to_rebuild() {
    let chain: Vec<ReputationSnapshot> = (0..6).map(snapshot_at).collect();
    let mut current = chain[0].clone();
    for (i, next) in chain.iter().enumerate().skip(1) {
        let delta = SnapshotDelta::compute(&current, next);
        assert!(
            delta.change_count() > 0,
            "consecutive days must actually differ at generation {i}"
        );
        assert_eq!(delta.base_generation, current.generation());
        assert_eq!(delta.next_generation, next.generation());
        current = delta.apply(&current).expect("delta applies");
        // Byte-identity: the checksum covers the compiled layout, the
        // canonical input is the loss-free inverse of the compiler.
        assert_eq!(current.content_checksum(), next.content_checksum());
        assert_eq!(current.canonical_input(), next.canonical_input());
        assert_eq!(current.generation(), next.generation());
    }
}

#[test]
fn deltas_are_genuinely_incremental() {
    let base = snapshot_at(0);
    let next = snapshot_at(1);
    let delta = SnapshotDelta::compute(&base, &next);
    let full_postings =
        base.canonical_input().memberships.len() + next.canonical_input().memberships.len();
    assert!(
        delta.change_count() * 3 < full_postings,
        "a one-day delta ({} changes) should be small against the full \
         posting lists ({full_postings})",
        delta.change_count()
    );
    // The identity delta is empty.
    let id = SnapshotDelta::compute(&base, &base);
    assert_eq!(
        id.change_count(),
        0,
        "identical snapshots must diff to nothing"
    );
}

#[test]
fn encoding_round_trips_exactly() {
    let chain: Vec<ReputationSnapshot> = (0..4).map(snapshot_at).collect();
    for w in chain.windows(2) {
        let delta = SnapshotDelta::compute(&w[0], &w[1]);
        let bytes = delta.to_bytes();
        let decoded = SnapshotDelta::from_bytes(&bytes).expect("encoded delta decodes");
        assert_eq!(decoded, delta);
        // Deterministic encoding: re-encoding reproduces the same bytes.
        assert_eq!(decoded.to_bytes(), bytes);
    }
}

#[test]
fn every_damaged_byte_is_refused_before_serving() {
    let base = snapshot_at(0);
    let next = snapshot_at(1);
    let bytes = SnapshotDelta::compute(&base, &next).to_bytes();

    // Every truncation fails to decode.
    for cut in 0..bytes.len() {
        assert!(
            SnapshotDelta::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes must not decode"
        );
    }
    // Trailing garbage fails to decode.
    let mut long = bytes.clone();
    long.push(0);
    assert!(SnapshotDelta::from_bytes(&long).is_err());

    // A single flipped bit anywhere either breaks the decode or breaks
    // apply's base/next checksum verification — it can never produce a
    // snapshot that would be handed to the server.
    let stride = (bytes.len() / 97).max(1);
    for at in (0..bytes.len()).step_by(stride) {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x04;
        let survived = match SnapshotDelta::from_bytes(&flipped) {
            Err(_) => false,
            Ok(delta) => delta.apply(&base).is_ok(),
        };
        assert!(!survived, "flipped byte {at} slipped through undetected");
    }
}

#[test]
fn wrong_base_is_refused() {
    let chain: Vec<ReputationSnapshot> = (0..3).map(snapshot_at).collect();
    let d12 = SnapshotDelta::compute(&chain[1], &chain[2]);
    assert!(
        d12.apply(&chain[0]).is_err(),
        "applying onto the wrong generation must fail the precondition"
    );
    // Same generation number, different content: the checksum guard.
    let impostor = ReputationSnapshot::build(
        chain[1].generation(),
        build_catalog(),
        GreylistPolicy::default(),
        input_at(5),
    );
    assert!(
        d12.apply(&impostor).is_err(),
        "a content-mismatched base must fail the checksum precondition"
    );
}
