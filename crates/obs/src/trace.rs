//! Deterministic query tracing.
//!
//! A [`TraceRecord`] captures one query batch's admission→shard→verdict
//! path: which ordinal it was, which shard answered, against which
//! snapshot generation, how deep the admission queue was, and any fault
//! annotation the chaos plan had scheduled for it. [`TraceSampler`]
//! decides *which* ordinals to keep with two deterministic policies
//! composed together:
//!
//! * **every-Nth** — ordinals divisible by `every` are captured into a
//!   recency buffer, giving a uniform stride through the run's tail;
//! * **seeded reservoir** — a bottom-k priority reservoir: each ordinal
//!   gets priority `splitmix64(seed ^ ordinal)` and the k smallest
//!   priorities are retained. Unlike the classic index-swap reservoir,
//!   the bottom-k formulation is *insertion-order independent*: two runs
//!   that offer the same set of ordinals keep the same sample even if
//!   concurrent shard workers raced differently — which is exactly the
//!   property the determinism matrix pins.
//!
//! No wall clock, no ambient RNG (ar-lint R2): every decision is a pure
//! function of `(seed, ordinal)`.

use std::collections::VecDeque;

/// One sampled query batch's path through the serving stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Logical admission ordinal (the telemetry tick base).
    pub ordinal: u64,
    /// Shard worker that answered.
    pub shard: u32,
    /// Snapshot generation the verdicts were computed against.
    pub generation: u64,
    /// Admission-queue depth observed when the batch was picked up.
    pub queue_depth: u64,
    /// Queries in the batch.
    pub batch_len: u32,
    /// Terminal disposition: `served`, `shed`, …
    pub outcome: String,
    /// Chaos-plan annotation (e.g. a scheduled latency spike), if any.
    pub fault: Option<String>,
}

/// Deterministic two-policy trace sampler. Not thread-safe by itself;
/// the owner serializes offers at the point ordinals are assigned.
#[derive(Debug, Clone)]
pub struct TraceSampler {
    /// Capture every ordinal divisible by this (0 disables the stride).
    every: u64,
    /// Bottom-k reservoir capacity (0 disables the reservoir).
    reservoir_cap: usize,
    seed: u64,
    /// Most recent stride captures, bounded by `reservoir_cap.max(16)`.
    nth: VecDeque<TraceRecord>,
    /// `(priority, record)`, unordered; the k smallest priorities win.
    reservoir: Vec<(u64, TraceRecord)>,
}

impl TraceSampler {
    pub fn new(every: u64, reservoir_cap: usize, seed: u64) -> TraceSampler {
        TraceSampler {
            every,
            reservoir_cap,
            seed,
            nth: VecDeque::new(),
            reservoir: Vec::new(),
        }
    }

    /// Offer a record; returns whether any policy captured it.
    pub fn offer(&mut self, record: TraceRecord) -> bool {
        let mut kept = false;

        if self.every > 0 && record.ordinal % self.every == 0 {
            self.nth.push_back(record.clone());
            while self.nth.len() > self.nth_cap() {
                self.nth.pop_front();
            }
            kept = true;
        }

        if self.reservoir_cap > 0 {
            let priority = splitmix64(self.seed ^ record.ordinal);
            if self.reservoir.len() < self.reservoir_cap {
                self.reservoir.push((priority, record));
                kept = true;
            } else if let Some(worst) = self.worst_slot() {
                if priority < self.reservoir[worst].0 {
                    self.reservoir[worst] = (priority, record);
                    kept = true;
                }
            }
        }
        kept
    }

    fn nth_cap(&self) -> usize {
        self.reservoir_cap.max(16)
    }

    /// Index of the largest-priority reservoir entry.
    fn worst_slot(&self) -> Option<usize> {
        self.reservoir
            .iter()
            .enumerate()
            .max_by_key(|(_, (p, _))| *p)
            .map(|(i, _)| i)
    }

    /// The canonical sample: stride + reservoir records merged, sorted
    /// by ordinal, deduplicated. Two same-seed runs offering the same
    /// ordinals produce byte-identical logs regardless of offer order.
    pub fn canonical_log(&self) -> Vec<TraceRecord> {
        let mut log: Vec<TraceRecord> = self
            .nth
            .iter()
            .chain(self.reservoir.iter().map(|(_, r)| r))
            .cloned()
            .collect();
        log.sort_by_key(|r| r.ordinal);
        log.dedup_by_key(|r| r.ordinal);
        log
    }
}

/// SplitMix64, as `ar_simnet::rng::splitmix64`. ar-obs is compiled into
/// every crate and depends on none, so it keeps its own copy rather than
/// take a dependency on the simulator for one function.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ordinal: u64) -> TraceRecord {
        TraceRecord {
            ordinal,
            shard: (ordinal % 4) as u32,
            generation: 1,
            queue_depth: ordinal % 7,
            batch_len: 10,
            outcome: "served".to_string(),
            fault: None,
        }
    }

    #[test]
    fn stride_keeps_every_nth_recent() {
        let mut s = TraceSampler::new(10, 0, 99);
        for o in 0..1000 {
            s.offer(record(o));
        }
        let log = s.canonical_log();
        assert!(!log.is_empty());
        assert!(log.iter().all(|r| r.ordinal % 10 == 0));
        // Bounded: only the most recent strides survive.
        assert!(log.len() <= 16);
        assert_eq!(log.last().unwrap().ordinal, 990);
    }

    #[test]
    fn reservoir_is_offer_order_independent() {
        let forward = {
            let mut s = TraceSampler::new(0, 8, 7);
            for o in 0..500 {
                s.offer(record(o));
            }
            s.canonical_log()
        };
        let backward = {
            let mut s = TraceSampler::new(0, 8, 7);
            for o in (0..500).rev() {
                s.offer(record(o));
            }
            s.canonical_log()
        };
        assert_eq!(forward, backward);
        assert_eq!(forward.len(), 8);
    }

    #[test]
    fn seed_changes_the_reservoir() {
        let pick = |seed: u64| {
            let mut s = TraceSampler::new(0, 4, seed);
            for o in 0..200 {
                s.offer(record(o));
            }
            s.canonical_log()
                .iter()
                .map(|r| r.ordinal)
                .collect::<Vec<_>>()
        };
        assert_ne!(pick(1), pick(2));
        assert_eq!(pick(3), pick(3));
    }

    #[test]
    fn canonical_log_merges_and_dedups() {
        // every=1 with a reservoir: low ordinals live in both policies.
        let mut s = TraceSampler::new(1, 4, 5);
        for o in 0..8 {
            assert!(s.offer(record(o)), "every offer is stride-captured");
        }
        let ordinals: Vec<u64> = s.canonical_log().iter().map(|r| r.ordinal).collect();
        assert_eq!(ordinals, (0..8).collect::<Vec<u64>>(), "sorted, once each");
    }
}
