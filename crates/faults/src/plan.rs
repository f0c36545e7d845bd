//! The fault plan: every scheduled failure for one study, generated up
//! front from a seed so that injection is reproducible and thread-count
//! independent.

use ar_simnet::asn::Asn;
use ar_simnet::rng::{Rng, Seed};
use ar_simnet::time::{SimDuration, SimTime, TimeWindow, HOUR};
use std::collections::BTreeMap;

/// What the study exposes to fault generation: the shape of the world the
/// plan schedules failures over. Kept deliberately small so `ar-faults`
/// depends only on `ar-simnet`.
#[derive(Debug, Clone)]
pub struct FaultDomain {
    /// Every AS in the universe (blackout candidates).
    pub asns: Vec<Asn>,
    /// The crawl measurement periods, in order.
    pub periods: Vec<TimeWindow>,
    /// The Atlas connection-log window.
    pub atlas_window: TimeWindow,
    /// Number of blocklist feeds (fault targets are list ids `0..feed_count`).
    pub feed_count: u16,
}

/// The seed + intensity pair a `StudyConfig` carries; the plan itself is
/// built once the universe (and hence the domain) exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    pub seed: Seed,
    /// Master fault intensity in `[0, 1]` (0.0 = nothing, 1.0 = the
    /// paper-hostile Internet); values above 1 are allowed and simply
    /// scale schedules further.
    pub intensity: f64,
}

impl FaultSpec {
    pub fn new(seed: Seed, intensity: f64) -> Self {
        FaultSpec { seed, intensity }
    }
}

/// One AS dropping off the routing table for a window: every packet to or
/// from it is lost, every host in it stops responding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blackout {
    pub asn: Asn,
    pub window: TimeWindow,
}

/// The crawler process dying mid-crawl. The engine must checkpoint at
/// `crash_at` and resume `downtime` later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrawlerOutage {
    /// Index into `FaultDomain::periods`.
    pub period: usize,
    pub crash_at: SimTime,
    pub downtime: SimDuration,
}

/// How one feed snapshot for one day is damaged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedFaultKind {
    /// The collection run never happened; no snapshot for that day.
    MissedDay,
    /// The file was cut off: only the leading `keep` fraction of entries
    /// survives.
    Truncated { keep: f64 },
    /// Line-level corruption: each entry is independently dropped with
    /// probability `drop`.
    CorruptLines { drop: f64 },
}

/// A scheduled feed failure, keyed by list id and snapshot day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedFault {
    pub list: u16,
    /// Midnight of the affected collection day.
    pub day: SimTime,
    pub kind: FeedFaultKind,
}

/// An Atlas collection gap: connection-log entries timestamped inside the
/// window never reach the archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtlasGap {
    pub window: TimeWindow,
}

/// A window of elevated DHT loss on top of the baseline i.i.d. loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossBurst {
    pub window: TimeWindow,
    /// Additional independent drop probability applied to queries in the
    /// window.
    pub extra_loss: f64,
}

/// Aggregate counts for reports and `Degraded` phase annotations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSummary {
    pub intensity: f64,
    pub blackouts: usize,
    pub crawler_outages: usize,
    pub feed_missed_days: usize,
    pub feed_truncated: usize,
    pub feed_corrupt: usize,
    pub atlas_gaps: usize,
    pub loss_bursts: usize,
}

/// Every failure scheduled for one study. Pure function of
/// `(Seed, intensity, FaultDomain)`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    pub seed: Seed,
    /// The master intensity the plan was generated at (see [`FaultSpec`]).
    pub intensity: f64,
    pub blackouts: Vec<Blackout>,
    pub crawler_outages: Vec<CrawlerOutage>,
    pub feed_faults: Vec<FeedFault>,
    pub atlas_gaps: Vec<AtlasGap>,
    pub loss_bursts: Vec<LossBurst>,
    /// Blackout windows grouped by AS for O(log n) membership tests.
    blackout_index: BTreeMap<Asn, Vec<TimeWindow>>,
    /// Feed faults keyed by `(list, day_index)`.
    feed_index: BTreeMap<(u16, u64), FeedFaultKind>,
}

impl FaultPlan {
    /// An explicitly empty plan: every lookup is `false`/`None`/`0.0`.
    pub fn zero(seed: Seed) -> Self {
        FaultPlan {
            seed,
            intensity: 0.0,
            blackouts: Vec::new(),
            crawler_outages: Vec::new(),
            feed_faults: Vec::new(),
            atlas_gaps: Vec::new(),
            loss_bursts: Vec::new(),
            blackout_index: BTreeMap::new(),
            feed_index: BTreeMap::new(),
        }
    }

    /// Schedule every fault class over `domain`. All randomness comes from
    /// `seed.fork("fault-plan")`, so generating a plan never perturbs any
    /// other subsystem's stream, and the same `(seed, intensity, domain)`
    /// always yields the same plan.
    pub fn generate(seed: Seed, intensity: f64, domain: &FaultDomain) -> Self {
        let mut rng = seed.fork("fault-plan").rng();
        let i = intensity.max(0.0);
        let mut plan = FaultPlan::zero(seed);
        plan.intensity = intensity;
        if i == 0.0 {
            return plan;
        }

        // Per-AS blackouts: at full intensity roughly one AS in five loses
        // a 4–36 h window per measurement period.
        if !domain.asns.is_empty() {
            for period in &domain.periods {
                let n = frac_count(&mut rng, i * domain.asns.len() as f64 * 0.2);
                for _ in 0..n {
                    let asn = domain.asns[rng.gen_range(0..domain.asns.len())];
                    let hours = rng.gen_range(4..=36);
                    let start = period.start
                        + HOUR.mul(rng.gen_range(0..(period.duration().as_secs() / 3600).max(1)));
                    let end = (start + HOUR.mul(hours)).min(period.end);
                    plan.blackouts.push(Blackout {
                        asn,
                        window: TimeWindow::new(start, end),
                    });
                }
            }
        }

        // Crawler-vantage outages: at full intensity expect ~1.5 crashes
        // per period, each costing 2–24 h of downtime. Crashes land in the
        // middle 10–80% of the period so there is always a segment to
        // checkpoint and a segment to resume.
        for (idx, period) in domain.periods.iter().enumerate() {
            let n = frac_count(&mut rng, i * 1.5);
            let span = period.duration().as_secs();
            let (lo, hi) = (span / 10, (span * 8 / 10).max(span / 10 + 1));
            let mut crashes: Vec<SimTime> = (0..n)
                .map(|_| period.start + SimDuration::from_secs(rng.gen_range(lo..hi)))
                .collect();
            crashes.sort();
            crashes.dedup();
            for crash_at in crashes {
                plan.crawler_outages.push(CrawlerOutage {
                    period: idx,
                    crash_at,
                    downtime: HOUR.mul(rng.gen_range(2..=24)),
                });
            }
        }

        // Feed faults: independent per (list, collection day). At full
        // intensity a day has a 6% chance of being missed outright, 5% of a
        // truncated file, 4% of line corruption.
        let p_missed = (i * 0.06).min(1.0);
        let p_trunc = (i * 0.05).min(1.0);
        let p_corrupt = (i * 0.04).min(1.0);
        for list in 0..domain.feed_count {
            for period in &domain.periods {
                for day in period.days_iter() {
                    let u: f64 = rng.gen();
                    let kind = if u < p_missed {
                        FeedFaultKind::MissedDay
                    } else if u < p_missed + p_trunc {
                        FeedFaultKind::Truncated {
                            keep: rng.gen_range(0.3..0.9),
                        }
                    } else if u < p_missed + p_trunc + p_corrupt {
                        FeedFaultKind::CorruptLines {
                            drop: rng.gen_range(0.05..0.3),
                        }
                    } else {
                        continue;
                    };
                    plan.feed_faults.push(FeedFault { list, day, kind });
                }
            }
        }

        // Atlas collection gaps: up to ~6 gaps of 12 h – 5 days across the
        // (long) connection-log window.
        let n = frac_count(&mut rng, i * 6.0);
        let span = domain.atlas_window.duration().as_secs().max(1);
        for _ in 0..n {
            let start = domain.atlas_window.start + SimDuration::from_secs(rng.gen_range(0..span));
            let end = (start + HOUR.mul(rng.gen_range(12..=120))).min(domain.atlas_window.end);
            plan.atlas_gaps.push(AtlasGap {
                window: TimeWindow::new(start, end),
            });
        }

        // DHT loss bursts: short (1–8 h) windows of sharply elevated loss
        // during the crawl periods.
        for period in &domain.periods {
            let n = frac_count(&mut rng, i * 8.0);
            let span = period.duration().as_secs().max(1);
            for _ in 0..n {
                let start = period.start + SimDuration::from_secs(rng.gen_range(0..span));
                let end = (start + HOUR.mul(rng.gen_range(1..=8))).min(period.end);
                plan.loss_bursts.push(LossBurst {
                    window: TimeWindow::new(start, end),
                    extra_loss: (rng.gen_range(0.2..0.8) * i).min(0.95),
                });
            }
        }

        plan.rebuild_indexes();
        plan
    }

    /// Sort schedules into canonical order and rebuild lookup indexes.
    /// Call after mutating the schedule vectors directly (tests, hand-built
    /// plans); `generate` does it for you.
    pub fn rebuild_indexes(&mut self) {
        self.blackouts
            .sort_by_key(|b| (b.asn, b.window.start, b.window.end));
        self.crawler_outages.sort_by_key(|o| (o.period, o.crash_at));
        self.feed_faults.sort_by_key(|f| (f.list, f.day));
        self.atlas_gaps
            .sort_by_key(|g| (g.window.start, g.window.end));
        self.loss_bursts
            .sort_by_key(|b| (b.window.start, b.window.end));
        self.blackout_index.clear();
        for b in &self.blackouts {
            self.blackout_index.entry(b.asn).or_default().push(b.window);
        }
        self.feed_index = self
            .feed_faults
            .iter()
            .map(|f| ((f.list, f.day.day_index()), f.kind))
            .collect();
    }

    // ---- membership probes ------------------------------------------------

    pub fn is_zero(&self) -> bool {
        !self.has_any()
    }

    pub fn has_any(&self) -> bool {
        self.has_network_faults()
            || self.has_outages()
            || self.has_feed_faults()
            || self.has_atlas_gaps()
    }

    /// Anything that perturbs packet delivery (blackouts or loss bursts).
    pub fn has_network_faults(&self) -> bool {
        !self.blackouts.is_empty() || !self.loss_bursts.is_empty()
    }

    pub fn has_outages(&self) -> bool {
        !self.crawler_outages.is_empty()
    }

    pub fn has_feed_faults(&self) -> bool {
        !self.feed_faults.is_empty()
    }

    pub fn has_atlas_gaps(&self) -> bool {
        !self.atlas_gaps.is_empty()
    }

    /// Is `asn` blacked out at `t`? `None` (unrouted space) never is.
    pub fn blackout_at(&self, asn: Option<Asn>, t: SimTime) -> bool {
        let Some(asn) = asn else { return false };
        self.blackout_index
            .get(&asn)
            .is_some_and(|ws| ws.iter().any(|w| w.contains(t)))
    }

    /// Additional drop probability from loss bursts covering `t` (the max
    /// of overlapping bursts, not a product — one saturated path dominates).
    pub fn extra_loss_at(&self, t: SimTime) -> f64 {
        let mut worst = 0.0f64;
        for b in &self.loss_bursts {
            if b.window.start > t {
                break;
            }
            if b.window.contains(t) {
                worst = worst.max(b.extra_loss);
            }
        }
        worst
    }

    /// The scheduled damage (if any) to `list`'s snapshot on `day`.
    pub fn feed_fault(&self, list: u16, day: SimTime) -> Option<FeedFaultKind> {
        self.feed_index.get(&(list, day.day_index())).copied()
    }

    /// Is `t` inside an Atlas collection gap?
    pub fn in_atlas_gap(&self, t: SimTime) -> bool {
        self.atlas_gaps.iter().any(|g| g.window.contains(t))
    }

    /// Outages scheduled for period `idx`, sorted by crash time.
    pub fn outages_for_period(&self, idx: usize) -> Vec<CrawlerOutage> {
        self.crawler_outages
            .iter()
            .filter(|o| o.period == idx)
            .copied()
            .collect()
    }

    pub fn summary(&self) -> PlanSummary {
        let kind_count = |pred: fn(&FeedFaultKind) -> bool| {
            self.feed_faults.iter().filter(|f| pred(&f.kind)).count()
        };
        PlanSummary {
            intensity: self.intensity,
            blackouts: self.blackouts.len(),
            crawler_outages: self.crawler_outages.len(),
            feed_missed_days: kind_count(|k| matches!(k, FeedFaultKind::MissedDay)),
            feed_truncated: kind_count(|k| matches!(k, FeedFaultKind::Truncated { .. })),
            feed_corrupt: kind_count(|k| matches!(k, FeedFaultKind::CorruptLines { .. })),
            atlas_gaps: self.atlas_gaps.len(),
            loss_bursts: self.loss_bursts.len(),
        }
    }
}

/// Draw a nonnegative integer with expectation `x`: `floor(x)` plus a
/// Bernoulli on the fractional part. `x = 0` always yields 0.
fn frac_count(rng: &mut impl Rng, x: f64) -> usize {
    let base = x.max(0.0).floor();
    let extra = rng.gen_bool((x.max(0.0) - base).clamp(0.0, 1.0));
    base as usize + extra as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_simnet::time::{ATLAS_WINDOW, PERIOD_1, PERIOD_2};

    fn domain() -> FaultDomain {
        FaultDomain {
            asns: (1..=30).map(Asn).collect(),
            periods: vec![PERIOD_1, PERIOD_2],
            atlas_window: ATLAS_WINDOW,
            feed_count: 151,
        }
    }

    #[test]
    fn zero_intensity_is_empty() {
        let plan = FaultPlan::generate(Seed(7), 0.0, &domain());
        assert!(plan.is_zero());
        assert!(!plan.has_any());
        assert!(plan.blackouts.is_empty());
        assert!(plan.crawler_outages.is_empty());
        assert!(plan.feed_faults.is_empty());
        assert!(plan.atlas_gaps.is_empty());
        assert!(plan.loss_bursts.is_empty());
        assert_eq!(plan.extra_loss_at(PERIOD_1.start), 0.0);
        assert!(!plan.blackout_at(Some(Asn(1)), PERIOD_1.start));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FaultPlan::generate(Seed(11), 0.7, &domain());
        let b = FaultPlan::generate(Seed(11), 0.7, &domain());
        assert_eq!(a.blackouts, b.blackouts);
        assert_eq!(a.crawler_outages, b.crawler_outages);
        assert_eq!(a.feed_faults, b.feed_faults);
        assert_eq!(a.atlas_gaps, b.atlas_gaps);
        assert_eq!(a.loss_bursts, b.loss_bursts);
        let c = FaultPlan::generate(Seed(12), 0.7, &domain());
        assert_ne!(a.feed_faults, c.feed_faults, "seed must matter");
    }

    #[test]
    fn nonzero_intensity_schedules_every_class() {
        let plan = FaultPlan::generate(Seed(3), 1.0, &domain());
        assert!(plan.has_network_faults());
        assert!(plan.has_outages());
        assert!(plan.has_feed_faults());
        assert!(plan.has_atlas_gaps());
        let s = plan.summary();
        assert!(s.blackouts > 0 && s.crawler_outages > 0 && s.loss_bursts > 0);
        assert!(s.feed_missed_days > 0 && s.feed_truncated > 0 && s.feed_corrupt > 0);
    }

    #[test]
    fn schedules_respect_their_windows() {
        let plan = FaultPlan::generate(Seed(5), 1.0, &domain());
        for b in &plan.blackouts {
            assert!(b.window.start < b.window.end);
            assert!(PERIOD_1.contains(b.window.start) || PERIOD_2.contains(b.window.start));
        }
        for o in &plan.crawler_outages {
            let p = [PERIOD_1, PERIOD_2][o.period];
            assert!(p.contains(o.crash_at), "crash outside its period");
            assert!(!o.downtime.is_zero());
        }
        for g in &plan.atlas_gaps {
            assert!(ATLAS_WINDOW.contains(g.window.start));
            assert!(g.window.end <= ATLAS_WINDOW.end);
        }
        for burst in &plan.loss_bursts {
            assert!((0.0..=0.95).contains(&burst.extra_loss));
        }
        for f in &plan.feed_faults {
            assert!(f.list < 151);
            assert_eq!(f.day, f.day.floor_day());
        }
    }

    #[test]
    fn lookups_match_schedules() {
        let plan = FaultPlan::generate(Seed(9), 1.0, &domain());
        let b = plan.blackouts[0];
        assert!(plan.blackout_at(Some(b.asn), b.window.start));
        assert!(!plan.blackout_at(None, b.window.start));
        let f = plan.feed_faults[0];
        assert_eq!(plan.feed_fault(f.list, f.day), Some(f.kind));
        assert_eq!(plan.feed_fault(f.list, f.day + HOUR.mul(5)), Some(f.kind));
        let g = plan.atlas_gaps[0];
        assert!(plan.in_atlas_gap(g.window.start));
        assert!(!plan.in_atlas_gap(ATLAS_WINDOW.end + HOUR));
        let burst = plan.loss_bursts[0];
        assert!(plan.extra_loss_at(burst.window.start) >= burst.extra_loss - 1e-12);
    }

    #[test]
    fn intensity_scales_fault_volume() {
        let lo = FaultPlan::generate(Seed(21), 0.2, &domain());
        let hi = FaultPlan::generate(Seed(21), 1.0, &domain());
        assert!(hi.feed_faults.len() > lo.feed_faults.len());
        assert!(hi.blackouts.len() >= lo.blackouts.len());
    }
}
