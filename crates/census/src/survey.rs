//! The ICMP census: probing schedule, block metrics, and the dynamic-block
//! classifier (Cai & Heidemann, SIGCOMM 2010 — the paper's §5 baseline).
//!
//! Cai et al. "present an ongoing survey by sending ICMP ECHO messages to
//! 1% of the IPv4 address space. Based on the responses, they define
//! metrics on availability, volatility, and median up-time to determine
//! address blocks that are potentially dynamically allocated." The paper
//! deliberately cannot vouch for the classifier's accuracy; neither do we —
//! it exists so Figure 6's comparison line can be regenerated, confounders
//! included.

use crate::responder::Responder;
use ar_simnet::ip::Prefix24;
use ar_simnet::rng::Rng;
use ar_simnet::time::{SimDuration, SimTime, TimeWindow};
use ar_simnet::universe::Universe;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Addresses probed in each surveyed /24 (their 1% global sample, applied
/// per block so every block has signal).
const SAMPLE_PER_BLOCK: usize = 4;
/// Interval between probes of the same address (theirs: 11 minutes;
/// coarsened to keep the simulation cheap — the metrics are
/// interval-relative).
const PROBE_INTERVAL: SimDuration = SimDuration::from_hours(2);

/// Survey parameters.
#[derive(Debug, Clone)]
pub struct SurveyConfig {
    /// Window the survey runs over (Cai et al. run ~2-week surveys).
    pub window: TimeWindow,
    /// Fraction of announced /24s the survey covers. Cai et al. probe ~1%
    /// of the IPv4 space; relative to this workspace's already-downscaled
    /// universes a 20% block sample reproduces the paper's observation
    /// that their technique finds "roughly the same" number of listings
    /// as the RIPE pipeline (§5).
    pub block_coverage: f64,
}

impl SurveyConfig {
    pub fn two_weeks_from(start: SimTime) -> Self {
        SurveyConfig {
            window: TimeWindow::new(start, start + SimDuration::from_days(14)),
            block_coverage: 0.2,
        }
    }
}

/// Availability / volatility / median-uptime metrics of one /24.
#[derive(Debug, Clone, Copy)]
pub struct BlockMetrics {
    /// Fraction of probes answered (their A).
    pub availability: f64,
    /// State flips per probe opportunity (their volatility proxy).
    pub volatility: f64,
    /// Median streak of consecutive "up" observations, as a fraction of the
    /// survey length (their median up-time, normalised).
    pub median_uptime: f64,
    /// Probes sent into the block.
    pub probes: u32,
    /// Replies received.
    pub replies: u32,
}

ar_simnet::codec_struct!(BlockMetrics {
    availability,
    volatility,
    median_uptime,
    probes,
    replies
});

/// Classifier thresholds. Deliberately ad-hoc (the paper's point).
#[derive(Debug, Clone)]
pub struct Classifier {
    /// Blocks must answer at least this often to be classifiable at all.
    pub min_availability: f64,
    /// ... but near-perfect availability means static/server space.
    pub max_availability: f64,
    /// Dynamic space shows short continuous up-times.
    pub max_median_uptime: f64,
    /// ... and frequent state flips.
    pub min_volatility: f64,
}

impl Default for Classifier {
    fn default() -> Self {
        Classifier {
            min_availability: 0.05,
            max_availability: 0.95,
            max_median_uptime: 0.30,
            min_volatility: 0.03,
        }
    }
}

impl Classifier {
    pub fn is_dynamic(&self, m: &BlockMetrics) -> bool {
        m.availability > self.min_availability
            && m.availability < self.max_availability
            && m.median_uptime <= self.max_median_uptime
            && m.volatility >= self.min_volatility
    }
}

/// Census output.
#[derive(Debug, Clone, Default)]
pub struct CensusReport {
    pub blocks: BTreeMap<Prefix24, BlockMetrics>,
    pub dynamic_blocks: Vec<Prefix24>,
    pub pings_sent: u64,
    pub replies: u64,
    /// Probes that would have been answered but fell inside an injected
    /// AS blackout window (0 without fault injection).
    pub blackout_suppressed: u64,
}

ar_simnet::codec_struct!(CensusReport {
    blocks,
    dynamic_blocks,
    pings_sent,
    replies,
    blackout_suppressed
});

impl CensusReport {
    /// Publish the census probe volume and classification under
    /// `census.*`, with a replies-per-block histogram.
    pub fn record_obs(&self, obs: &ar_obs::Obs) {
        if !obs.enabled() {
            return;
        }
        obs.add("census.blocks_surveyed", self.blocks.len() as u64);
        obs.add("census.dynamic_blocks", self.dynamic_blocks.len() as u64);
        obs.add("census.pings_sent", self.pings_sent);
        obs.add("census.replies", self.replies);
        obs.add("census.blackout_suppressed", self.blackout_suppressed);
        let h = obs.histogram("census.replies_per_block");
        for m in self.blocks.values() {
            h.observe(u64::from(m.replies));
        }
    }

    pub fn covers(&self, ip: Ipv4Addr) -> bool {
        self.dynamic_blocks.binary_search(&Prefix24::of(ip)).is_ok()
    }
}

/// Run the census over every announced /24 of the universe.
pub fn run_census(
    universe: &Universe,
    config: &SurveyConfig,
    classifier: &Classifier,
) -> CensusReport {
    run_census_with_faults(universe, config, classifier, None)
}

/// Census with optional fault injection: probes into an AS whose network is
/// blacked out go unanswered, exactly as a real survey would experience a
/// regional outage. With `None` (or a plan without network faults) this is
/// byte-identical to [`run_census`] — the blackout gate is only consulted
/// when the plan actually schedules blackouts, and fault lookups never touch
/// the sampling RNG.
pub fn run_census_with_faults(
    universe: &Universe,
    config: &SurveyConfig,
    classifier: &Classifier,
    faults: Option<&ar_faults::FaultPlan>,
) -> CensusReport {
    let blackouts = faults.filter(|p| !p.blackouts.is_empty());
    let responder = Responder::new(universe);
    let mut rng = universe.seed.fork("census-sample").rng();
    let mut blocks = BTreeMap::new();
    let mut pings_sent = 0u64;
    let mut replies_total = 0u64;
    let mut blackout_suppressed = 0u64;

    for rec in &universe.prefixes {
        // Block sampling: the survey only covers a fraction of the space.
        if !rng.gen_bool(config.block_coverage.clamp(0.0, 1.0)) {
            continue;
        }
        // Sample addresses of the block (deterministic per universe).
        let mut sample: Vec<Ipv4Addr> = Vec::with_capacity(SAMPLE_PER_BLOCK);
        while sample.len() < SAMPLE_PER_BLOCK {
            let ip = rec.prefix.host(rng.gen_range(1..255u16) as u8);
            if !sample.contains(&ip) {
                sample.push(ip);
            }
        }

        let mut probes = 0u32;
        let mut replies = 0u32;
        let mut flips = 0u32;
        let mut streaks: Vec<u32> = Vec::new();
        for ip in &sample {
            let mut t = config.window.start;
            let mut prev: Option<bool> = None;
            let mut streak = 0u32;
            while t < config.window.end {
                let mut up = responder.responds(*ip, t);
                if up {
                    if let Some(plan) = blackouts {
                        if plan.blackout_at(Some(rec.asn), t) {
                            up = false;
                            blackout_suppressed += 1;
                        }
                    }
                }
                probes += 1;
                if up {
                    replies += 1;
                    streak += 1;
                }
                if let Some(p) = prev {
                    if p != up {
                        flips += 1;
                        if p {
                            streaks.push(streak - u32::from(up));
                            streak = u32::from(up);
                        }
                    }
                }
                prev = Some(up);
                t += PROBE_INTERVAL;
            }
            if streak > 0 {
                streaks.push(streak);
            }
        }
        pings_sent += u64::from(probes);
        replies_total += u64::from(replies);

        let probes_per_addr =
            (config.window.duration().as_secs() / PROBE_INTERVAL.as_secs()).max(1) as f64;
        streaks.sort_unstable();
        let median_streak = if streaks.is_empty() {
            0.0
        } else {
            f64::from(streaks[streaks.len() / 2])
        };
        blocks.insert(
            rec.prefix,
            BlockMetrics {
                availability: f64::from(replies) / f64::from(probes.max(1)),
                volatility: f64::from(flips) / f64::from(probes.max(1)),
                median_uptime: median_streak / probes_per_addr,
                probes,
                replies,
            },
        );
    }

    let dynamic_blocks: Vec<Prefix24> = blocks
        .iter()
        .filter(|(_, m)| classifier.is_dynamic(m))
        .map(|(p, _)| *p)
        .collect();

    CensusReport {
        blocks,
        dynamic_blocks,
        pings_sent,
        replies: replies_total,
        blackout_suppressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_simnet::config::UniverseConfig;
    use ar_simnet::rng::Seed;
    use ar_simnet::time::PERIOD_2;
    use ar_simnet::universe::AddressPolicy;

    fn census(seed: u64) -> (Universe, CensusReport) {
        let u = Universe::generate(Seed(seed), &UniverseConfig::tiny());
        let report = run_census(
            &u,
            &SurveyConfig::two_weeks_from(PERIOD_2.start),
            &Classifier::default(),
        );
        (u, report)
    }

    #[test]
    fn census_covers_the_configured_block_fraction() {
        let (u, r) = census(311);
        let share = r.blocks.len() as f64 / u.prefixes.len() as f64;
        assert!((share - 0.2).abs() < 0.12, "coverage {share:.2}");
        assert!(r.pings_sent > 0);
        assert!(r.replies > 0 && r.replies < r.pings_sent);
    }

    #[test]
    fn full_coverage_probes_every_block() {
        let u = Universe::generate(Seed(311), &UniverseConfig::tiny());
        let mut cfg = SurveyConfig::two_weeks_from(PERIOD_2.start);
        cfg.block_coverage = 1.0;
        let r = run_census(&u, &cfg, &Classifier::default());
        assert_eq!(r.blocks.len(), u.prefixes.len());
    }

    #[test]
    fn dynamic_recall_is_substantial() {
        // Full coverage: this test is about the classifier, not sampling.
        let u = Universe::generate(Seed(312), &UniverseConfig::tiny());
        let mut cfg = SurveyConfig::two_weeks_from(PERIOD_2.start);
        cfg.block_coverage = 1.0;
        let r = run_census(&u, &cfg, &Classifier::default());
        let truth = u.true_dynamic_prefixes(true);
        let unfiltered: Vec<_> = truth
            .iter()
            .filter(|p| {
                u.prefix_record(**p)
                    .is_some_and(|rec| !u.icmp_filtered_ases.contains(&rec.asn))
            })
            .collect();
        assert!(!unfiltered.is_empty());
        let hits = unfiltered
            .iter()
            .filter(|p| r.dynamic_blocks.binary_search(p).is_ok())
            .count();
        assert!(
            hits * 2 >= unfiltered.len(),
            "census should find most unfiltered fast pools: {hits}/{}",
            unfiltered.len()
        );
    }

    #[test]
    fn census_disagrees_with_ground_truth() {
        // The whole point of the baseline: its accuracy "cannot be
        // established" (§2). It must disagree with ground truth somewhere —
        // over-reporting non-pool blocks, or missing real fast pools
        // (ICMP filtering alone guarantees misses).
        // A `small` universe guarantees fast pools inside ICMP-filtered
        // ASes exist (tiny ones may have none).
        let u = Universe::generate(Seed(313), &UniverseConfig::small());
        let mut cfg = SurveyConfig::two_weeks_from(PERIOD_2.start);
        cfg.block_coverage = 1.0;
        let r = run_census(&u, &cfg, &Classifier::default());
        let truth = u.true_dynamic_prefixes(true);
        let false_pos = r
            .dynamic_blocks
            .iter()
            .filter(|p| !truth.contains(p))
            .count();
        let missed = truth
            .iter()
            .filter(|p| r.dynamic_blocks.binary_search(p).is_err())
            .count();
        assert!(
            false_pos + missed > 0,
            "classifier exactly matched ground truth — the confounders are not biting"
        );
        // ICMP-filtered fast pools are necessarily missed.
        let filtered_missed = truth
            .iter()
            .filter(|p| {
                u.prefix_record(**p)
                    .is_some_and(|rec| u.icmp_filtered_ases.contains(&rec.asn))
            })
            .filter(|p| r.dynamic_blocks.binary_search(p).is_err())
            .count();
        assert!(filtered_missed > 0, "filtering should hide some pools");
    }

    #[test]
    fn filtered_ases_are_undetectable() {
        let (u, r) = census(314);
        for p in &r.dynamic_blocks {
            let rec = u.prefix_record(*p).expect("announced");
            assert!(
                !u.icmp_filtered_ases.contains(&rec.asn),
                "{p} is in an ICMP-filtered AS yet was classified"
            );
        }
    }

    #[test]
    fn nat_blocks_look_static() {
        let (u, r) = census(315);
        let mut nat_dynamic = 0;
        let mut nat_total = 0;
        for rec in &u.prefixes {
            if matches!(rec.policy, AddressPolicy::NatBlock)
                && !u.icmp_filtered_ases.contains(&rec.asn)
            {
                nat_total += 1;
                if r.dynamic_blocks.binary_search(&rec.prefix).is_ok() {
                    nat_dynamic += 1;
                }
            }
        }
        assert!(nat_total > 0);
        assert!(
            nat_dynamic * 5 <= nat_total,
            "NAT blocks should rarely look dynamic: {nat_dynamic}/{nat_total}"
        );
    }

    #[test]
    fn blackouts_suppress_census_replies() {
        use ar_faults::{Blackout, FaultPlan};
        use ar_simnet::rng::Seed;

        let u = Universe::generate(Seed(317), &UniverseConfig::tiny());
        let mut cfg = SurveyConfig::two_weeks_from(PERIOD_2.start);
        cfg.block_coverage = 1.0;
        let clean = run_census_with_faults(&u, &cfg, &Classifier::default(), None);

        // Zero plan: byte-identical to the unfaulted run.
        let zero = FaultPlan::zero(Seed(1));
        let same = run_census_with_faults(&u, &cfg, &Classifier::default(), Some(&zero));
        assert_eq!(same.pings_sent, clean.pings_sent);
        assert_eq!(same.replies, clean.replies);
        assert_eq!(same.dynamic_blocks, clean.dynamic_blocks);
        assert_eq!(same.blackout_suppressed, 0);

        // Black out every announced AS for the whole survey window: every
        // would-be reply is suppressed.
        let mut plan = FaultPlan::zero(Seed(2));
        plan.intensity = 1.0;
        let mut asns: Vec<_> = u.prefixes.iter().map(|r| r.asn).collect();
        asns.sort_unstable();
        asns.dedup();
        for asn in asns {
            plan.blackouts.push(Blackout {
                asn,
                window: cfg.window,
            });
        }
        plan.rebuild_indexes();
        let dark = run_census_with_faults(&u, &cfg, &Classifier::default(), Some(&plan));
        assert_eq!(
            dark.pings_sent, clean.pings_sent,
            "probing schedule unchanged"
        );
        assert_eq!(dark.replies, 0, "a total blackout answers nothing");
        assert_eq!(dark.blackout_suppressed, clean.replies);
        assert!(dark.dynamic_blocks.is_empty());
    }

    #[test]
    fn report_covers_lookup() {
        let (_u, r) = census(316);
        if let Some(p) = r.dynamic_blocks.first() {
            assert!(r.covers(p.host(7)));
        }
        assert!(!r.covers("250.0.0.1".parse().unwrap()));
    }
}
