//! Universe configuration and the global scale knob.
//!
//! The paper's populations (48.7M BitTorrent IPs, 2.2M blocklisted
//! addresses, 26K ASes) do not fit a laptop-scale reproduction, so every
//! population size passes through a [`Scale`] divisor. The paper's headline
//! results are proportions and distribution shapes, which are scale-free;
//! EXPERIMENTS.md reports measured values next to their scaled paper
//! expectations.

use crate::asn::AsTier;

/// A `1:n` downscaling factor applied to population sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u32);

impl Scale {
    pub const UNIT: Scale = Scale(1);

    /// Scale a paper-reported count down, keeping at least `min`.
    pub fn apply(self, paper_count: u64, min: u64) -> u64 {
        (paper_count / u64::from(self.0)).max(min)
    }

    pub fn factor(self) -> f64 {
        f64::from(self.0)
    }
}

/// Fraction of a dynamic pool's addresses that have a subscriber. The
/// universe generator fills pools to it, and the census responder's
/// dynamic-block coin reads it back.
pub const DYNAMIC_OCCUPANCY: f64 = 0.8;

/// Relative frequency of each AS tier, aligned with [`AsTier::ALL`]: a
/// handful of backbones, many small networks.
const TIER_WEIGHTS: [f64; 5] = [0.01, 0.09, 0.40, 0.20, 0.30];

/// The size parameters of [`crate::Universe::generate`]: the ones that
/// differ between presets. Everything else about the synthetic Internet
/// is a constant of the model, beside the generator that reads it.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Downscaling factor relative to the paper's populations.
    pub scale: Scale,
    /// Number of autonomous systems to generate.
    pub num_ases: u32,
    /// Multiplier applied to per-AS prefix counts (shrinks test universes).
    pub prefix_scale: f64,
    /// Target number of RIPE Atlas probe hosts (paper: 15,703, scaled more
    /// gently than addresses so Figure 2 keeps a usable population).
    pub probe_target: u32,
    /// Multiplier on per-AS malice rates. Test universes raise it so the
    /// blocklisted∩reused joins stay populated despite tiny host
    /// populations.
    pub malice_boost: f64,
}

impl UniverseConfig {
    /// Minimal universe for unit tests: runs in milliseconds.
    pub fn tiny() -> Self {
        UniverseConfig {
            scale: Scale(20_000),
            num_ases: 40,
            prefix_scale: 0.08,
            probe_target: 120,
            malice_boost: 12.0,
        }
    }

    /// Small universe for integration tests: runs in well under a second.
    pub fn small() -> Self {
        UniverseConfig {
            scale: Scale(4_000),
            num_ases: 120,
            prefix_scale: 0.25,
            probe_target: 500,
            malice_boost: 5.0,
        }
    }

    /// Experiment universe at an explicit scale; AS count and probe count
    /// shrink more gently than address populations so Figure 3 keeps enough
    /// ASes and Figure 2 enough probes.
    pub fn at_scale(scale: u32) -> Self {
        let scale = scale.max(1);
        UniverseConfig {
            scale: Scale(scale),
            num_ases: (26_000 * 12 / scale).clamp(40, 4_000),
            prefix_scale: (500.0 / f64::from(scale)).clamp(0.05, 2.0),
            probe_target: (15_703 * 50 / scale).clamp(100, 15_703),
            // Calibrated so the blocklisted-address population lands near
            // paper-scale (2.2M / scale); the tier baselines alone overshoot.
            malice_boost: 0.4,
        }
    }

    /// Tier of the `idx`-th AS given the tier weights (deterministic
    /// stratified assignment so every universe has its backbones).
    pub fn tier_for_index(&self, idx: u32) -> AsTier {
        let total: f64 = TIER_WEIGHTS.iter().sum();
        let frac = (f64::from(idx) + 0.5) / f64::from(self.num_ases);
        let mut acc = 0.0;
        for (tier, w) in AsTier::ALL.iter().zip(TIER_WEIGHTS) {
            acc += w / total;
            if frac < acc {
                return *tier;
            }
        }
        AsTier::Enterprise
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_apply() {
        assert_eq!(Scale(1000).apply(48_700_000, 1), 48_700);
        assert_eq!(Scale(1000).apply(10, 5), 5);
        assert_eq!(Scale::UNIT.apply(7, 1), 7);
    }

    #[test]
    fn tier_assignment_is_stratified() {
        let cfg = UniverseConfig::at_scale(500);
        let mut counts = std::collections::HashMap::new();
        for i in 0..cfg.num_ases {
            *counts.entry(cfg.tier_for_index(i).name()).or_insert(0u32) += 1;
        }
        // With 1% backbone weight over 624 ASes we expect ~6 backbones.
        let backbones = counts["backbone"];
        assert!(
            (5..=20).contains(&backbones),
            "backbones={backbones} out of expectation"
        );
        assert!(counts["regional-isp"] > counts["consumer-isp"]);
    }

    #[test]
    fn presets_are_ordered_by_size() {
        assert!(UniverseConfig::tiny().scale.0 > UniverseConfig::small().scale.0);
        assert!(UniverseConfig::small().scale.0 > UniverseConfig::at_scale(500).scale.0);
    }

    #[test]
    fn at_scale_clamps_as_count() {
        assert_eq!(UniverseConfig::at_scale(1).num_ases, 4_000);
        assert_eq!(UniverseConfig::at_scale(1_000_000).num_ases, 40);
        assert_eq!(UniverseConfig::at_scale(500).num_ases, 624);
        assert!(UniverseConfig::at_scale(500).prefix_scale <= 1.0);
    }
}
