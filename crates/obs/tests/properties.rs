//! Property tests for the trace sampler: the reservoir's bottom-k
//! sample is a pure function of the offered ordinal *set*, never of offer
//! order. (The serve telemetry ring's properties live beside the ring, in
//! `ar-serve`'s `telemetry` unit tests.)

use ar_obs::{TraceRecord, TraceSampler};
use ar_simnet::prop::{check, vec, Rng, CASES};
use std::collections::BTreeSet;

/// The bottom-k reservoir keeps the same sample for any permutation
/// of the same ordinal set.
#[test]
fn reservoir_sample_is_order_independent() {
    check("reservoir_sample_is_order_independent", CASES, |rng| {
        let seed: u64 = rng.gen();
        let cap = rng.gen_range(1usize..16);
        let ordinals: BTreeSet<u64> = vec(rng, 1..64, |r| r.gen()).into_iter().collect();
        let shuffle_seed: u64 = rng.gen();
        let record = |o: u64| TraceRecord {
            ordinal: o,
            shard: 0,
            generation: 1,
            queue_depth: 0,
            batch_len: 1,
            outcome: "served".to_string(),
            fault: None,
        };
        let forward: Vec<u64> = ordinals.iter().copied().collect();
        // Deterministic pseudo-shuffle of the same set.
        let mut shuffled = forward.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let run = |order: &[u64]| {
            let mut s = TraceSampler::new(0, cap, seed);
            for &o in order {
                s.offer(record(o));
            }
            s.canonical_log()
        };
        assert_eq!(run(&forward), run(&shuffled));
    });
}
