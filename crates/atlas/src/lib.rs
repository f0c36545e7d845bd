//! # ar-atlas — RIPE-Atlas probe simulator and dynamic-address detection
//!
//! Implements §3.2 of the paper end to end:
//!
//! * [`probe`] — the connection-log schema (probe id, timestamp, address),
//!   identical in shape to RIPE Atlas's public logs;
//! * [`fleet`] — the probe-fleet simulator producing those logs from the
//!   shared ground-truth universe (static CPEs, dynamic subscribers,
//!   multi-AS movers);
//! * [`kneedle`] — knee-point detection (Satopää et al. 2011), used to set
//!   the frequent-changer threshold (the paper's knee of 8);
//! * [`pipeline`] — the staged filter (same-AS → ≥knee addresses → daily
//!   changers → /24 expansion) yielding dynamically allocated prefixes.
//!
//! The pipeline consumes only the log plus an IP→AS resolver, so it would
//! run unchanged on real Atlas connection logs.
//!
//! ```
//! use ar_atlas::{fleet, pipeline};
//! use ar_simnet::alloc::{AllocationPlan, InterestSet};
//! use ar_simnet::{Seed, Universe, UniverseConfig, ATLAS_WINDOW};
//!
//! let universe = Universe::generate(Seed(9), &UniverseConfig::tiny());
//! let alloc = AllocationPlan::build(&universe, ATLAS_WINDOW, InterestSet::ProbesOnly);
//! let (_probes, log) = fleet::generate_fleet(&universe, &alloc, ATLAS_WINDOW);
//! let detection = pipeline::detect_dynamic(
//!     &log,
//!     &pipeline::PipelineConfig::default(),
//!     |ip| universe.asn_of(ip),
//! );
//! assert!(detection.all.probes.len() >= detection.daily.probes.len());
//! ```

pub mod fleet;
pub mod ingest;
pub mod kneedle;
pub mod pipeline;
pub mod probe;

pub use fleet::generate_fleet;
pub use ingest::{read_jsonl, write_jsonl, IngestError};
pub use kneedle::{allocation_count_knee, find_knee, Knee};
pub use pipeline::{
    detect_dynamic, interchange_histogram, summarize, summarize_threaded, DynamicDetection,
    PipelineConfig, ProbeSummary, StageSet,
};
pub use probe::{apply_atlas_gaps, ConnLogEntry, ConnectionLog, Probe, ProbeId};

#[cfg(test)]
mod tests {
    //! End-to-end: simulated fleet → pipeline → ground-truth validation.

    use super::*;
    use ar_simnet::alloc::{AllocationPlan, InterestSet};
    use ar_simnet::config::UniverseConfig;
    use ar_simnet::rng::Seed;
    use ar_simnet::time::ATLAS_WINDOW;
    use ar_simnet::universe::Universe;

    struct Fx {
        universe: Universe,
        log: ConnectionLog,
        probes: Vec<Probe>,
    }

    impl Fx {
        fn new(seed: u64) -> Self {
            let universe = Universe::generate(Seed(seed), &UniverseConfig::small());
            let alloc = AllocationPlan::build(&universe, ATLAS_WINDOW, InterestSet::ProbesOnly);
            let (probes, log) = generate_fleet(&universe, &alloc, ATLAS_WINDOW);
            Fx {
                universe,
                log,
                probes,
            }
        }
        fn detect(&self) -> DynamicDetection {
            detect_dynamic(&self.log, &PipelineConfig::default(), |ip| {
                self.universe.asn_of(ip)
            })
        }
    }

    #[test]
    fn detected_prefixes_are_truly_dynamic() {
        let fx = Fx::new(61);
        let d = fx.detect();
        assert!(
            !d.dynamic_prefixes.is_empty(),
            "small universe should yield dynamic detections (knee={})",
            d.knee
        );
        let truth = fx.universe.true_dynamic_prefixes(false);
        for p in &d.dynamic_prefixes {
            assert!(
                truth.contains(p),
                "false positive: {p} detected dynamic but is not a pool prefix"
            );
        }
    }

    #[test]
    fn detection_is_a_lower_bound_on_fast_prefixes() {
        let fx = Fx::new(62);
        let d = fx.detect();
        let fast_truth = fx.universe.true_dynamic_prefixes(true);
        // Coverage is partial (only prefixes hosting a probe can be found),
        // but what's found should be mostly the fast pools.
        let fast_hits = d
            .dynamic_prefixes
            .iter()
            .filter(|p| fast_truth.contains(p))
            .count();
        assert!(
            fast_hits * 10 >= d.dynamic_prefixes.len() * 7,
            "≥70% of detections should be fast pools: {fast_hits}/{}",
            d.dynamic_prefixes.len()
        );
        // And it misses plenty (lower bound, as the paper stresses).
        assert!(d.dynamic_prefixes.len() < fast_truth.len());
    }

    #[test]
    fn stage_proportions_echo_figure_2() {
        let fx = Fx::new(63);
        let d = fx.detect();
        let total = d.all.probes.len() as f64;
        let single_alloc = d
            .summaries
            .iter()
            .filter(|s| s.allocation_count <= 1)
            .count() as f64;
        // Paper: 59% of probes never change; accept a generous band around
        // it since universes are stochastic.
        let share = single_alloc / total;
        assert!(
            (0.30..0.85).contains(&share),
            "single-allocation share {share:.2} outside plausible band"
        );
        // Multi-AS exclusions exist (paper: 13.1%).
        let excluded = d.all.probes.len() - d.same_as.probes.len();
        assert!(excluded > 0);
        // Funnel is strictly narrowing to a nonempty final stage.
        assert!(!d.daily.probes.is_empty());
        assert!(d.daily.probes.len() < d.frequent.probes.len());
    }

    #[test]
    fn knee_lands_near_paper_value() {
        let fx = Fx::new(64);
        let d = fx.detect();
        assert!(
            (3..=40).contains(&d.knee),
            "knee {} implausibly far from the paper's 8",
            d.knee
        );
    }

    #[test]
    fn mover_probes_never_reach_final_stage() {
        let fx = Fx::new(65);
        let d = fx.detect();
        let daily: std::collections::HashSet<_> = d.daily.probes.iter().copied().collect();
        for probe in &fx.probes {
            let h = fx.universe.host(probe.host);
            if h.behavior.multi_as_mover && daily.contains(&probe.id) {
                panic!("mover {:?} survived the same-AS filter", probe.id);
            }
        }
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = Fx::new(66).detect();
        let b = Fx::new(66).detect();
        assert_eq!(a.knee, b.knee);
        assert_eq!(a.dynamic_prefixes, b.dynamic_prefixes);
        assert_eq!(a.daily.probes, b.daily.probes);
    }
}
