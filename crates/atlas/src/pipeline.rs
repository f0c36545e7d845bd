//! The dynamic-address detection pipeline (paper §3.2, Figures 2 and 4).
//!
//! Stages, each a pure function of the connection log plus an IP→AS
//! resolver (standing in for public BGP data):
//!
//! 0. **All probes** — every /24 ever hosting a probe address ("RIPE
//!    prefixes"; the paper had 90.5K of them).
//! 1. **Same-AS** — discard probes whose addresses span multiple ASes
//!    (relocated devices; 13.1% in the paper).
//! 2. **Frequent** — keep probes that held at least *knee* distinct
//!    addresses, the knee found by Kneedle on the sorted "addresses
//!    allocated per probe" curve (paper: 8).
//! 3. **Daily** — keep probes whose mean time between changes is within
//!    one day; their covering /24s are the dynamically allocated prefixes.

use crate::kneedle;
use crate::probe::{ConnectionLog, ProbeId};
use ar_simnet::asn::Asn;
use ar_simnet::ip::Prefix24;
use ar_simnet::par;
use ar_simnet::time::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Kneedle sensitivity: the paper uses the offline default.
const KNEE_SENSITIVITY: f64 = 1.0;

/// Pipeline knobs. Defaults reproduce the paper; the alternates feed the
/// ablation experiments.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Override the knee with a fixed address-count threshold
    /// (`ablation_knee` sweeps this).
    pub knee_override: Option<u32>,
    /// Maximum mean inter-change duration for the final stage
    /// (paper: 1 day). `None` disables the filter (ablation).
    pub max_mean_interchange: Option<SimDuration>,
    /// Expand detected addresses to their covering /24 (paper's
    /// conservative choice). `false` marks only the observed addresses
    /// (`ablation_prefix`).
    pub expand_to_prefix: bool,
    /// Worker threads for the per-probe summarization fan-out. `None`
    /// resolves to the ambient budget (`AR_THREADS`, else available
    /// parallelism); output is identical for any value.
    pub threads: Option<usize>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            knee_override: None,
            max_mean_interchange: Some(SimDuration::from_days(1)),
            expand_to_prefix: true,
            threads: None,
        }
    }
}

/// Per-probe digest extracted from the raw log.
#[derive(Debug, Clone)]
pub struct ProbeSummary {
    pub probe: ProbeId,
    /// Distinct addresses allocated to the probe (≥ 1), the quantity
    /// Figure 2 plots: a probe that returns to an address it held before
    /// counts it once.
    pub allocation_count: u32,
    /// ASes the probe's addresses map into (unmapped addresses count as a
    /// pseudo-AS each, making the probe multi-AS — conservative).
    pub as_count: u32,
    /// Mean time between address changes, when the probe changed at all.
    pub mean_interchange: Option<SimDuration>,
    /// The address of every allocation, in order: an address the probe
    /// returns to appears again.
    pub addresses: Vec<Ipv4Addr>,
}

ar_simnet::codec_struct!(ProbeSummary {
    probe,
    allocation_count,
    as_count,
    mean_interchange,
    addresses
});

/// The probes and prefix set surviving a pipeline stage.
#[derive(Debug, Clone, Default)]
pub struct StageSet {
    pub probes: Vec<ProbeId>,
    pub prefixes: BTreeSet<Prefix24>,
}

ar_simnet::codec_struct!(StageSet { probes, prefixes });

impl StageSet {
    fn from_probes<'a>(probes: impl Iterator<Item = &'a ProbeSummary>) -> StageSet {
        let mut set = StageSet::default();
        for p in probes {
            set.probes.push(p.probe);
            set.prefixes
                .extend(p.addresses.iter().map(|&ip| Prefix24::of(ip)));
        }
        set
    }
}

/// Full pipeline output.
#[derive(Debug, Clone, Default)]
pub struct DynamicDetection {
    pub summaries: Vec<ProbeSummary>,
    /// The knee used as the frequent-changer threshold.
    pub knee: u32,
    /// Stage 0: all probes / all RIPE prefixes.
    pub all: StageSet,
    /// Stage 1: single-AS probes.
    pub same_as: StageSet,
    /// Stage 2: ≥ knee addresses.
    pub frequent: StageSet,
    /// Stage 3 (final): daily changers.
    pub daily: StageSet,
    /// The detected dynamic address space: covering /24s (or the bare
    /// addresses when prefix expansion is disabled).
    pub dynamic_prefixes: BTreeSet<Prefix24>,
    /// Raw addresses of final-stage probes.
    pub dynamic_addresses: BTreeSet<Ipv4Addr>,
}

ar_simnet::codec_struct!(DynamicDetection {
    summaries,
    knee,
    all,
    same_as,
    frequent,
    daily,
    dynamic_prefixes,
    dynamic_addresses
});

impl DynamicDetection {
    /// Publish the detection funnel under `atlas.*`: per-stage survivors
    /// (gauges), per-stage drops (counters, so the funnel is auditable as
    /// kept + dropped = previous stage), the knee, and an
    /// addresses-per-probe histogram.
    pub fn record_obs(&self, obs: &ar_obs::Obs) {
        if !obs.enabled() {
            return;
        }
        obs.set_gauge("atlas.knee", i64::from(self.knee));
        let stages = [
            ("stage0_all", &self.all),
            ("stage1_same_as", &self.same_as),
            ("stage2_frequent", &self.frequent),
            ("stage3_daily", &self.daily),
        ];
        for (name, set) in stages {
            obs.set_gauge(
                &format!("atlas.funnel.{name}.probes"),
                set.probes.len() as i64,
            );
            obs.set_gauge(
                &format!("atlas.funnel.{name}.prefixes"),
                set.prefixes.len() as i64,
            );
        }
        obs.add("atlas.probes", self.all.probes.len() as u64);
        obs.add(
            "atlas.probes_dropped_multi_as",
            (self.all.probes.len() - self.same_as.probes.len()) as u64,
        );
        obs.add(
            "atlas.probes_dropped_infrequent",
            (self.same_as.probes.len() - self.frequent.probes.len()) as u64,
        );
        obs.add(
            "atlas.probes_dropped_slow",
            (self.frequent.probes.len() - self.daily.probes.len()) as u64,
        );
        obs.add("atlas.dynamic_prefixes", self.dynamic_prefixes.len() as u64);
        obs.add(
            "atlas.dynamic_addresses",
            self.dynamic_addresses.len() as u64,
        );
        let h = obs.histogram("atlas.allocations_per_probe");
        for s in &self.summaries {
            h.observe(u64::from(s.allocation_count));
        }
    }

    /// Is `ip` inside the detected dynamic space?
    pub fn covers(&self, ip: Ipv4Addr) -> bool {
        if self.dynamic_prefixes.contains(&Prefix24::of(ip)) {
            return true;
        }
        self.dynamic_addresses.contains(&ip)
    }
}

/// Run the full pipeline.
///
/// `asn_of` stands in for public IP→AS mapping data (route collectors);
/// in the reproduction it is backed by the universe's announced prefixes.
pub fn detect_dynamic(
    log: &ConnectionLog,
    config: &PipelineConfig,
    asn_of: impl Fn(Ipv4Addr) -> Option<Asn> + Sync,
) -> DynamicDetection {
    let summaries = summarize_threaded(log, &asn_of, par::resolve(config.threads));

    let all = StageSet::from_probes(summaries.iter());
    let same_as: Vec<&ProbeSummary> = summaries.iter().filter(|s| s.as_count <= 1).collect();
    let same_as_set = StageSet::from_probes(same_as.iter().copied());

    // Knee on the same-AS population's address counts (the paper's
    // Figure 2 curve).
    let counts: Vec<u32> = same_as.iter().map(|s| s.allocation_count).collect();
    let knee = config
        .knee_override
        .unwrap_or_else(|| kneedle::allocation_count_knee(&counts, KNEE_SENSITIVITY).unwrap_or(8));

    let frequent: Vec<&ProbeSummary> = same_as
        .iter()
        .copied()
        .filter(|s| s.allocation_count >= knee)
        .collect();
    let frequent_set = StageSet::from_probes(frequent.iter().copied());

    let daily: Vec<&ProbeSummary> = frequent
        .iter()
        .copied()
        .filter(
            |s| match (config.max_mean_interchange, s.mean_interchange) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(max), Some(mean)) => mean <= max,
            },
        )
        .collect();
    let daily_set = StageSet::from_probes(daily.iter().copied());

    let dynamic_addresses: BTreeSet<Ipv4Addr> = daily
        .iter()
        .flat_map(|s| s.addresses.iter().copied())
        .collect();
    let dynamic_prefixes: BTreeSet<Prefix24> = if config.expand_to_prefix {
        daily_set.prefixes.clone()
    } else {
        BTreeSet::new()
    };

    DynamicDetection {
        summaries,
        knee,
        all,
        same_as: same_as_set,
        frequent: frequent_set,
        daily: daily_set,
        dynamic_prefixes,
        dynamic_addresses,
    }
}

/// Extract per-probe summaries from the raw log (single-threaded).
pub fn summarize(
    log: &ConnectionLog,
    asn_of: &(impl Fn(Ipv4Addr) -> Option<Asn> + Sync),
) -> Vec<ProbeSummary> {
    summarize_threaded(log, asn_of, 1)
}

/// [`summarize`] with the per-probe loop — the pipeline's hottest — fanned
/// out over up to `threads` scoped worker threads. Probes are independent
/// (each reads its own slice of the sorted log) and results come back in
/// probe order, so the summary vector is identical for any thread count.
pub fn summarize_threaded(
    log: &ConnectionLog,
    asn_of: &(impl Fn(Ipv4Addr) -> Option<Asn> + Sync),
    threads: usize,
) -> Vec<ProbeSummary> {
    let probes = log.probes();
    par::par_map(threads, &probes, |&probe| {
        let allocations = log.allocations_for(probe);
        let addresses: Vec<Ipv4Addr> = allocations.iter().map(|&(_, ip)| ip).collect();
        // A probe cycling through a small pool returns to addresses it
        // already held: Figure 2 counts each address once.
        let distinct: BTreeSet<Ipv4Addr> = addresses.iter().copied().collect();
        let ases: BTreeSet<Option<Asn>> = distinct.iter().map(|&ip| asn_of(ip)).collect();
        // Treat unmapped addresses conservatively: a None among Some's makes
        // the probe look multi-AS (we cannot vouch for single-AS-ness).
        let as_count = if ases.contains(&None) && !allocations.is_empty() {
            (ases.len()) as u32 + 1
        } else {
            ases.len() as u32
        };
        let mean_interchange = mean_interchange(&allocations);
        ProbeSummary {
            probe,
            allocation_count: distinct.len() as u32,
            as_count,
            mean_interchange,
            addresses,
        }
    })
}

/// Histogram of mean inter-change durations across probes, in day-sized
/// buckets (`[0,1)d`, `[1,2)d`, …, last bucket open-ended). Diagnostic for
/// the §3.2 "within 1 day" criterion: the first bucket is exactly the
/// population the final pipeline stage keeps.
pub fn interchange_histogram(summaries: &[ProbeSummary], buckets: usize) -> Vec<usize> {
    let mut hist = vec![0usize; buckets.max(1)];
    for s in summaries {
        if let Some(mean) = s.mean_interchange {
            let day = (mean.as_secs() / 86_400) as usize;
            let idx = day.min(hist.len() - 1);
            hist[idx] += 1;
        }
    }
    hist
}

fn mean_interchange(allocations: &[(SimTime, Ipv4Addr)]) -> Option<SimDuration> {
    if allocations.len() < 2 {
        return None;
    }
    let first = allocations.first().expect("nonempty").0;
    let last = allocations.last().expect("nonempty").0;
    Some(SimDuration(
        (last - first).as_secs() / (allocations.len() as u64 - 1),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ConnLogEntry;
    use ar_simnet::time::TimeWindow;

    const DAY: u64 = 86_400;

    struct LogBuilder {
        entries: Vec<ConnLogEntry>,
    }

    impl LogBuilder {
        fn new() -> Self {
            LogBuilder {
                entries: Vec::new(),
            }
        }
        /// Probe with `n` allocations spaced `gap_secs` apart, addresses in
        /// 10.<block>.x.0/24 space.
        fn probe(&mut self, id: u32, block: u8, n: u32, gap_secs: u64) -> &mut Self {
            for i in 0..n {
                self.entries.push(ConnLogEntry {
                    probe: ProbeId(id),
                    time: SimTime(u64::from(i) * gap_secs),
                    ip: Ipv4Addr::new(10, block, (i % 2) as u8, (i % 250) as u8 + 1),
                });
            }
            self
        }
        fn build(&mut self) -> ConnectionLog {
            self.entries.sort_by_key(|e| (e.probe, e.time));
            ConnectionLog {
                window: TimeWindow::new(SimTime(0), SimTime(500 * DAY)),
                entries: std::mem::take(&mut self.entries),
            }
        }
    }

    /// AS mapping: 10.<block>.0.0/16 → AS(block).
    fn asn_of(ip: Ipv4Addr) -> Option<Asn> {
        let o = ip.octets();
        (o[0] == 10).then(|| Asn(u32::from(o[1])))
    }

    fn default_run(log: &ConnectionLog) -> DynamicDetection {
        detect_dynamic(log, &PipelineConfig::default(), asn_of)
    }

    #[test]
    fn static_probes_never_detected() {
        let log = LogBuilder::new().probe(1, 1, 1, DAY).build();
        let d = default_run(&log);
        assert!(d.dynamic_prefixes.is_empty());
        assert_eq!(d.all.probes.len(), 1);
        assert_eq!(d.same_as.probes.len(), 1);
        assert!(d.frequent.probes.is_empty() || d.knee <= 1);
    }

    #[test]
    fn daily_changer_is_detected_and_expanded() {
        let mut b = LogBuilder::new();
        // Population: 30 static probes, 5 weekly changers, 5 daily changers
        // with 60 allocations each.
        for i in 0..30 {
            b.probe(i, 1, 1, DAY);
        }
        for i in 30..35 {
            b.probe(i, 2, 10, 7 * DAY);
        }
        for i in 35..40 {
            b.probe(i, 3, 60, DAY / 2);
        }
        let log = b.build();
        let d = default_run(&log);
        // The daily probes live in 10.3.0.0/16 → prefixes 10.3.0.0/24 and
        // 10.3.1.0/24.
        assert!(!d.daily.probes.is_empty(), "knee={}", d.knee);
        for p in &d.daily.probes {
            assert!(p.0 >= 35, "probe {p:?} wrongly classified daily");
        }
        assert!(d.dynamic_prefixes.contains(&"10.3.0.0/24".parse().unwrap()));
        assert!(
            d.covers(Ipv4Addr::new(10, 3, 0, 200)),
            "expansion covers siblings"
        );
        assert!(!d.covers(Ipv4Addr::new(10, 2, 0, 1)));
    }

    #[test]
    fn weekly_changers_filtered_by_daily_rule() {
        let mut b = LogBuilder::new();
        for i in 0..20 {
            b.probe(i, 1, 1, DAY);
        }
        // Frequent but slow: 20 allocations, one per week.
        for i in 20..25 {
            b.probe(i, 2, 20, 7 * DAY);
        }
        let log = b.build();
        let d = default_run(&log);
        // They pass the knee (20 ≥ knee) but fail the 1-day rule.
        assert!(d.frequent.probes.iter().any(|p| p.0 >= 20));
        assert!(d.daily.probes.is_empty());
        assert!(d.dynamic_prefixes.is_empty());
    }

    #[test]
    fn multi_as_probes_are_excluded_before_knee() {
        let mut b = LogBuilder::new();
        for i in 0..10 {
            b.probe(i, 1, 1, DAY);
        }
        // A fast changer that hops between AS 4 and AS 5: must be dropped.
        for i in 0..40u32 {
            b.entries.push(ConnLogEntry {
                probe: ProbeId(99),
                time: SimTime(u64::from(i) * DAY / 2),
                ip: Ipv4Addr::new(10, 4 + (i % 2) as u8, 0, 1 + (i % 200) as u8),
            });
        }
        let log = b.build();
        let d = default_run(&log);
        assert!(d.same_as.probes.iter().all(|p| p.0 != 99));
        assert!(d.daily.probes.is_empty());
        // But it still counts in stage 0.
        assert!(d.all.probes.contains(&ProbeId(99)));
    }

    #[test]
    fn knee_override_and_no_expansion() {
        let mut b = LogBuilder::new();
        for i in 0..10 {
            b.probe(i, 1, 1, DAY);
        }
        b.probe(50, 6, 4, DAY / 4); // 4 allocations, 6h apart
        let log = b.build();
        let config = PipelineConfig {
            knee_override: Some(4),
            expand_to_prefix: false,
            ..PipelineConfig::default()
        };
        let d = detect_dynamic(&log, &config, asn_of);
        assert_eq!(d.knee, 4);
        assert!(d.daily.probes.contains(&ProbeId(50)));
        assert!(d.dynamic_prefixes.is_empty(), "expansion disabled");
        assert!(!d.dynamic_addresses.is_empty());
        // covers() falls back to exact addresses.
        let addr = *d.dynamic_addresses.iter().next().unwrap();
        assert!(d.covers(addr));
        assert!(
            !d.covers(Ipv4Addr::new(10, 6, 0, 254))
                || d.dynamic_addresses.contains(&Ipv4Addr::new(10, 6, 0, 254))
        );
    }

    #[test]
    fn allocation_count_is_distinct_addresses() {
        // One single-AS probe flipping between two addresses every 12 h for
        // 30 days: 60 allocations, but only 2 addresses.
        let mut b = LogBuilder::new();
        for i in 0..60u32 {
            b.entries.push(ConnLogEntry {
                probe: ProbeId(7),
                time: SimTime(u64::from(i) * DAY / 2),
                ip: Ipv4Addr::new(10, 5, 0, 1 + (i % 2) as u8),
            });
        }
        let log = b.build();
        assert_eq!(log.allocations_for(ProbeId(7)).len(), 60);
        let config = PipelineConfig {
            knee_override: Some(8),
            ..PipelineConfig::default()
        };
        let d = detect_dynamic(&log, &config, asn_of);
        assert_eq!(d.summaries[0].allocation_count, 2);
        // The inter-change mean still reads the allocation sequence.
        assert_eq!(
            d.summaries[0].mean_interchange,
            Some(SimDuration::from_hours(12))
        );
        assert_eq!(d.same_as.probes, vec![ProbeId(7)]);
        assert!(d.frequent.probes.is_empty(), "2 addresses < knee 8");
    }

    #[test]
    fn unmapped_addresses_make_probe_multi_as() {
        let mut b = LogBuilder::new();
        for i in 0..5 {
            b.probe(i, 1, 1, DAY);
        }
        // Probe logging from unannounced space (192.0.2.0/24): excluded.
        for i in 0..20u32 {
            b.entries.push(ConnLogEntry {
                probe: ProbeId(77),
                time: SimTime(u64::from(i) * DAY / 2),
                ip: Ipv4Addr::new(192, 0, 2, 1 + (i % 200) as u8),
            });
        }
        let log = b.build();
        let d = default_run(&log);
        assert!(d.same_as.probes.iter().all(|p| p.0 != 77));
    }

    #[test]
    fn summarize_thread_count_does_not_change_output() {
        let mut b = LogBuilder::new();
        for i in 0..40 {
            b.probe(i, (i % 6) as u8 + 1, 1 + (i % 30), DAY / 2);
        }
        let log = b.build();
        let serial = summarize_threaded(&log, &asn_of, 1);
        let parallel = summarize_threaded(&log, &asn_of, 8);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.probe, b.probe);
            assert_eq!(a.allocation_count, b.allocation_count);
            assert_eq!(a.as_count, b.as_count);
            assert_eq!(a.mean_interchange, b.mean_interchange);
            assert_eq!(a.addresses, b.addresses);
        }
    }

    #[test]
    fn interchange_histogram_buckets_by_day() {
        let mut b = LogBuilder::new();
        b.probe(1, 1, 10, DAY / 2); // mean 0.5d → bucket 0
        b.probe(2, 2, 10, 3 * DAY); // mean 3d → bucket 3
        b.probe(3, 3, 1, DAY); // no changes → not counted
        b.probe(4, 4, 5, 30 * DAY); // mean 30d → overflow bucket
        let log = b.build();
        let summaries = summarize(&log, &asn_of);
        let hist = interchange_histogram(&summaries, 8);
        assert_eq!(hist[0], 1);
        assert_eq!(hist[3], 1);
        assert_eq!(hist[7], 1, "overflow lands in the last bucket");
        assert_eq!(hist.iter().sum::<usize>(), 3);
    }

    #[test]
    fn funnel_is_monotone() {
        let mut b = LogBuilder::new();
        for i in 0..50 {
            b.probe(i, (i % 6) as u8 + 1, 1 + (i % 30), DAY / 2);
        }
        let log = b.build();
        let d = default_run(&log);
        assert!(d.all.probes.len() >= d.same_as.probes.len());
        assert!(d.same_as.probes.len() >= d.frequent.probes.len());
        assert!(d.frequent.probes.len() >= d.daily.probes.len());
        assert!(d.all.prefixes.len() >= d.same_as.prefixes.len());
        assert!(d.same_as.prefixes.len() >= d.frequent.prefixes.len());
        assert!(d.frequent.prefixes.len() >= d.daily.prefixes.len());
    }
}
