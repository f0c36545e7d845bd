//! Stateless fault coins.
//!
//! Per-packet fault decisions (burst loss, corrupt-line selection) must not
//! advance any simulation RNG — otherwise enabling a fault class would shift
//! every downstream random draw and a "zero extra loss" burst would still
//! change the study. Instead each decision hashes its full identity
//! `(plan seed, time, endpoint, nonce, …)` through a splitmix64 chain: the
//! same decision point always lands the same way, and unrelated decision
//! points are independent.

use ar_simnet::rng::splitmix64;

/// Fold a slice of words into one well-mixed hash.
pub fn mix(parts: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in parts {
        h ^= p;
        h = splitmix64(h);
    }
    h
}

/// A uniform draw in `[0, 1)` keyed by `parts`.
pub fn unit(parts: &[u64]) -> f64 {
    // 53 high-quality bits → the standard uniform-double construction.
    (mix(parts) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A biased coin keyed by `parts`: true with probability `p`.
pub fn flip(p: f64, parts: &[u64]) -> bool {
    p > 0.0 && unit(parts) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coins_are_stable_and_distinct() {
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[1, 2, 4]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[3, 2, 1]));
    }

    #[test]
    fn unit_is_in_range_and_roughly_uniform() {
        let mut acc = 0.0;
        for i in 0..10_000u64 {
            let u = unit(&[99, i]);
            assert!((0.0..1.0).contains(&u));
            acc += u;
        }
        let mean = acc / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn flip_edge_probabilities() {
        for i in 0..100u64 {
            assert!(!flip(0.0, &[i]));
            assert!(flip(1.0, &[i]));
        }
    }
}
