//! Seeded, forkable randomness.
//!
//! Every stochastic subsystem receives its own RNG forked from the master
//! [`Seed`] by a label, so adding randomness consumption to one subsystem
//! never perturbs another — a property the integration tests rely on.
//!
//! The generator is [`SmallRng`], Xoshiro256++ seeded through SplitMix64,
//! and [`Rng`] holds its sampling methods. Every stream is bit-exact with
//! rand 0.8's `SmallRng` on 64-bit targets, because the committed goldens
//! were drawn from it:
//! - integer `gen_range` is a widening multiply with the rejection zone
//!   `MAX - (MAX - range + 1) % range`, drawing 32 bits for types up to 32
//!   bits wide and 64 bits above;
//! - float `gen_range` maps 52 random mantissa bits into `[1, 2)`;
//! - `gen_bool` compares a `u64` against `p * 2^64`;
//! - `shuffle` is Fisher–Yates with `u32` indices.

use crate::fnv::{FnvHasher, FNV_BASIS};
use sample::{SampleRange, Standard, Uniform};

/// Master seed for a whole simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Seed(pub u64);

impl Seed {
    /// Derive a child seed for a named subsystem.
    ///
    /// Uses an FNV-1a fold of the label into a splitmix64 finalizer: cheap,
    /// stable across platforms, and well-distributed for the handful of
    /// labels we use.
    pub fn fork(self, label: &str) -> Seed {
        let mut h = FnvHasher::with_state(FNV_BASIS ^ self.0);
        h.update(label.as_bytes());
        Seed(splitmix64(h.finish()))
    }

    /// Derive a child seed by index (e.g. per-host).
    pub fn fork_idx(self, label: &str, idx: u64) -> Seed {
        self.fork(label).child(idx)
    }

    /// The index step of [`fork_idx`](Self::fork_idx) on its own:
    /// `s.fork_idx(label, idx) == s.fork(label).child(idx)`. A caller that
    /// derives many indexed seeds under one label forks the label once and
    /// calls this.
    pub fn child(self, idx: u64) -> Seed {
        Seed(splitmix64(self.0 ^ splitmix64(idx)))
    }

    /// Build the RNG for this seed.
    pub fn rng(self) -> SmallRng {
        SmallRng::seed_from_u64(self.0)
    }
}

/// Convenience: fork a seed and immediately build the RNG.
pub fn fork_rng(seed: Seed, label: &str) -> SmallRng {
    seed.fork(label).rng()
}

/// SplitMix64's increment: the odd constant nearest `2^64 / φ`.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One SplitMix64 output: step `x` by [`GOLDEN_GAMMA`], then [`mix64`].
/// `splitmix64(s + k * GOLDEN_GAMMA)` for `k = 0, 1, …` is the SplitMix64
/// stream from state `s`.
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GOLDEN_GAMMA))
}

/// SplitMix64's output finalizer: three xor-shift-multiply steps that
/// spread every input bit over the whole word. A bijection on `u64`.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Xoshiro256++, the generator behind every simulated draw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Expand `state` into the 256-bit state with four consecutive
    /// SplitMix64 outputs. Consecutive SplitMix64 inputs differ by an odd
    /// constant, so at most one word can be zero and the state is never the
    /// all-zero fixed point.
    pub fn seed_from_u64(state: u64) -> SmallRng {
        let mut s = [0u64; 4];
        for (k, word) in (0u64..).zip(s.iter_mut()) {
            *word = splitmix64(state.wrapping_add(GOLDEN_GAMMA.wrapping_mul(k)));
        }
        SmallRng { s }
    }
}

impl Rng for SmallRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// The sampling methods over a 64-bit stream. [`SmallRng`] is the one
/// implementor; helpers that draw from whatever generator they are handed
/// stay generic over this trait.
pub trait Rng {
    /// The next 64 bits of the stream.
    fn next_u64(&mut self) -> u64;

    /// The next 32 bits: the high half of a 64-bit draw.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A draw from `T`'s standard distribution: an integer uniform over its
    /// whole range, a fair `bool`, an `f64` uniform in `[0, 1)`, or an
    /// array of such draws.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value uniform over a half-open or inclusive range. Panics on an
    /// empty range.
    fn gen_range<T: Uniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        assert!(!range.is_empty(), "cannot sample empty range");
        range.sample(self)
    }

    /// `true` with probability `p`. `p == 1.0` draws nothing; `p` outside
    /// `[0, 1]` panics.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool: p must lie in [0, 1], got {p}"
        );
        if p == 1.0 {
            return true;
        }
        const TWO_POW_64: f64 = 2.0 * (1u64 << 63) as f64;
        self.next_u64() < (p * TWO_POW_64) as u64
    }

    /// Fill `dest` eight bytes per 64-bit draw, little-endian, with a
    /// 32-bit draw for a tail of at most four bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let n = tail.len();
        if n > 4 {
            tail.copy_from_slice(&self.next_u64().to_le_bytes()[..n]);
        } else if n > 0 {
            tail.copy_from_slice(&self.next_u32().to_le_bytes()[..n]);
        }
    }

    /// Fisher–Yates shuffle, drawing each index in `u32` when it fits.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = if i < u32::MAX as usize {
                self.gen_range(0..=i as u32) as usize
            } else {
                self.gen_range(0..=i)
            };
            items.swap(i, j);
        }
    }
}

/// The per-type draws behind [`Rng::gen`] and [`Rng::gen_range`]. The
/// traits are reachable only through those methods' bounds.
mod sample {
    use super::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Types [`Rng::gen`] can draw.
    pub trait Standard: Sized {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
    }

    macro_rules! standard_from {
        ($($ty:ty => $draw:ident),* $(,)?) => {$(
            impl Standard for $ty {
                fn draw<R: Rng + ?Sized>(rng: &mut R) -> $ty {
                    rng.$draw() as $ty
                }
            }
        )*};
    }

    standard_from! {
        u8 => next_u32, u16 => next_u32, u32 => next_u32, i32 => next_u32,
        u64 => next_u64, i64 => next_u64, usize => next_u64,
    }

    impl Standard for bool {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> bool {
            (rng.next_u32() as i32) < 0
        }
    }

    impl Standard for f64 {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl<T: Standard, const N: usize> Standard for [T; N] {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> [T; N] {
            std::array::from_fn(|_| T::draw(rng))
        }
    }

    /// Types [`Rng::gen_range`] can draw uniformly from a range.
    pub trait Uniform: Sized + PartialOrd {
        fn below<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
        fn through<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    }

    /// The ranges [`Rng::gen_range`] accepts.
    pub trait SampleRange<T> {
        fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
        fn is_empty(&self) -> bool;
    }

    // A range with a NaN bound is empty, hence the negated comparisons.
    impl<T: Uniform> SampleRange<T> for Range<T> {
        fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            T::below(self.start, self.end, rng)
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        fn is_empty(&self) -> bool {
            !(self.start < self.end)
        }
    }

    impl<T: Uniform> SampleRange<T> for RangeInclusive<T> {
        fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            let (low, high) = self.into_inner();
            T::through(low, high, rng)
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        fn is_empty(&self) -> bool {
            !(self.start() <= self.end())
        }
    }

    /// `$ty` draws a `$large` word (32 or 64 bits) and keeps the high half
    /// of its `$wide` product with the range, rejecting the low half above
    /// the zone.
    macro_rules! uniform_int {
        ($($ty:ty, $unsigned:ty, $large:ty, $wide:ty);* $(;)?) => {$(
            impl Uniform for $ty {
                fn below<R: Rng + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                    Self::through(low, high - 1, rng)
                }

                fn through<R: Rng + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                    let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                    if range == 0 {
                        return <$ty as Standard>::draw(rng);
                    }
                    let zone = <$large>::MAX - (<$large>::MAX - range + 1) % range;
                    loop {
                        let v = <$large as Standard>::draw(rng);
                        let m = (v as $wide) * (range as $wide);
                        let (hi, lo) = ((m >> <$large>::BITS) as $large, m as $large);
                        if lo <= zone {
                            return low.wrapping_add(hi as $ty);
                        }
                    }
                }
            }
        )*};
    }

    uniform_int! {
        u8, u8, u32, u64;
        u16, u16, u32, u64;
        u32, u32, u32, u64;
        i32, u32, u32, u64;
        u64, u64, u64, u128;
        i64, u64, u64, u128;
        usize, usize, usize, u128;
    }

    /// Maps the top 52 bits of a draw into `[0, 1)` through `[1, 2)`.
    fn unit_f64<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52)) - 1.0
    }

    /// The next float towards zero, for a positive finite `x`.
    fn step_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    impl Uniform for f64 {
        fn below<R: Rng + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
            let mut scale = high - low;
            assert!(scale.is_finite(), "gen_range: range overflow");
            loop {
                let res = unit_f64(rng) * scale + low;
                if res < high {
                    return res;
                }
                scale = step_down(scale);
            }
        }

        fn through<R: Rng + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
            let max_rand = f64::from_bits((u64::MAX >> 12) | (1023u64 << 52)) - 1.0;
            let mut scale = (high - low) / max_rand;
            assert!(scale.is_finite(), "gen_range: range overflow");
            while scale * max_rand + low > high {
                scale = step_down(scale);
            }
            unit_f64(rng) * scale + low
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forks_are_stable() {
        let a = Seed(1).fork("dht");
        let b = Seed(1).fork("dht");
        assert_eq!(a, b);
    }

    /// Golden values captured before `fork` moved onto the shared
    /// [`FnvHasher`], and a `fork_idx` value captured before it moved onto
    /// [`Seed::child`]: every seeded subsystem replays these exact streams.
    #[test]
    fn fork_values_are_pinned() {
        assert_eq!(Seed(1).fork("dht"), Seed(0xf705_3b25_b709_57d0));
        assert_eq!(Seed(2020).fork("serve-chaos"), Seed(0xda5c_935a_2590_65e8));
        assert_eq!(Seed(1).fork_idx("dht", 7), Seed(0x57dd_c231_fa31_6d38));
    }

    #[test]
    fn forks_differ_by_label() {
        assert_ne!(Seed(1).fork("dht"), Seed(1).fork("atlas"));
        assert_ne!(Seed(1).fork("dht"), Seed(2).fork("dht"));
    }

    #[test]
    fn fork_idx_differs_by_index() {
        let a = Seed(7).fork_idx("host", 0);
        let b = Seed(7).fork_idx("host", 1);
        assert_ne!(a, b);
        assert_eq!(a, Seed(7).fork_idx("host", 0));
    }

    /// Output of the Xoshiro256++ reference implementation for the state
    /// `[1, 2, 3, 4]`.
    #[test]
    fn xoshiro_matches_reference() {
        let mut rng = SmallRng { s: [1, 2, 3, 4] };
        assert_eq!(rng.next_u64(), 41_943_041);
        assert_eq!(rng.next_u64(), 58_720_359);
    }

    /// The first draws of seed 7, as rand 0.8's `SmallRng` makes them:
    /// every sampler, its draw width and its rejection zone.
    #[test]
    fn seeded_draws_are_pinned() {
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(rng.gen::<u64>(), 1_021_219_803_524_665_661);
        assert_eq!(rng.gen::<f64>(), 0.17211585444811772);
        assert_eq!(rng.gen_range(3u8..200), 144);
        assert_eq!(rng.gen_range(3u8..=200), 87);
        assert_eq!(rng.gen_range(10u32..1_000_000), 963_659);
        assert_eq!(rng.gen_range(10u32..=1_000_000), 465_709);
        assert_eq!(rng.gen_range(5u64..(1 << 40)), 795_944_268_643);
        assert_eq!(rng.gen_range(5u64..=(1 << 40)), 362_662_288_095);
        assert_eq!(rng.gen_range(0usize..17), 16);
        assert_eq!(rng.gen_range(0usize..=17), 1);
        assert_eq!(rng.gen_range(0.25f64..0.75), 0.3071206188439374);
        assert_eq!(rng.gen_range(-1.0f64..=1.0), -0.6560637186750453);
        assert!(!rng.gen_bool(0.3));
        let mut bytes = [0u8; 20];
        rng.fill(&mut bytes);
        assert_eq!(
            bytes,
            [
                167, 28, 106, 116, 93, 48, 243, 28, 79, 130, 200, 193, 241, 104, 160, 126, 146, 24,
                231, 24
            ]
        );
        let mut items: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut items);
        assert_eq!(items, [7, 6, 8, 3, 2, 4, 5, 0, 9, 1]);
    }

    #[test]
    fn rng_streams_are_deterministic() {
        let mut r1 = fork_rng(Seed(3), "x");
        let mut r2 = fork_rng(Seed(3), "x");
        for _ in 0..16 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }
}
