//! The study orchestrator: run the whole measurement campaign.
//!
//! [`Study::run`] reproduces the paper's end-to-end flow on one seeded
//! universe:
//!
//! 1. collect the blocklist dataset over the two measurement periods (§4);
//! 2. crawl the BitTorrent DHT during each period, restricted — like the
//!    paper's crawler — to the blocklisted address space (§3.1);
//! 3. run the RIPE-Atlas pipeline over the 16-month connection log (§3.2);
//! 4. run the Cai-et-al. ICMP census baseline (§5).
//!
//! The result object exposes the joined views every figure and table is
//! computed from.
//!
//! ## Orchestration
//!
//! The substrates are independent once the universe exists: each per-period
//! DHT crawl owns its own fabric, the Atlas fleet and the ICMP census touch
//! only the universe, and the blocklist dataset feeds nothing but the crawl
//! scope. Every phase goes through one helper, `run_phase`, which owns its
//! span, timer, checkpoint load-or-compute-then-save, panic guard and
//! health entry. [`Study::run`] is one schedule for every thread count and
//! with or without a store: the blocklist dataset first (itself fanned out
//! per feed), then the per-period crawls through `par::par_map`, each
//! running the partitioned crawler (`crawl_sharded`), whose hourly driver
//! steps its partitions through `par::par_map` too, over an equal slice of
//! the thread budget, then the sub-second Atlas and census phases.
//! `par::par_map` is the only thread fan-out. Results join in input order.
//! Every component is seeded per task and the crawl's partition layout is
//! fixed in config, so the assembled `Study` is byte-identical for any
//! thread count (with `AR_THREADS=1` every phase runs on the calling
//! thread). An explicit thread request is honoured even above the host's
//! real parallelism — oversubscription just time-slices, and determinism
//! suites rely on genuinely spawning N workers on small hosts; only the
//! ambient default is sized to the machine.

use ar_atlas::{
    apply_atlas_gaps, detect_dynamic, generate_fleet, ConnectionLog, DynamicDetection,
    PipelineConfig,
};
use ar_blocklists::{
    build_catalog, dataset_via_faulted_snapshots, generate_dataset_threaded, BlocklistDataset,
    Listing,
};
use ar_census::{run_census_with_faults, CensusReport, Classifier, SurveyConfig};
use ar_crawler::{
    crawl, crawl_sharded, crawl_until, resume, resume_until, CrawlCheckpoint, CrawlConfig,
    CrawlReport, RetryPolicy, Scope,
};
use ar_dht::{FaultyTransport, ShardedSimNetwork, SimNetwork, SimParams};
use ar_faults::{FaultDomain, FaultPlan, FaultSpec};
use ar_index::fnv::fnv1a64;
use ar_index::{weighted_prefix_intersection, IpSet, PrefixSet};
use ar_obs::{EventKind, Obs, RunReport};
use ar_simnet::alloc::{AllocationPlan, InterestSet};
use ar_simnet::asn::Asn;
use ar_simnet::codec::{self, Codec, Cursor};
use ar_simnet::config::UniverseConfig;
use ar_simnet::ip::Prefix24;
use ar_simnet::par;
use ar_simnet::rng::Seed;
use ar_simnet::time::{TimeWindow, ATLAS_WINDOW, PERIOD_1, PERIOD_2};
use ar_simnet::universe::Universe;
use ar_store::{Column, KeyedStore, Store, StoreKey};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// How many consecutive missed snapshot days the gap-tolerant listing
/// reconstruction will interpolate across before splitting a listing.
pub const FEED_GAP_BRIDGE_DAYS: u64 = 3;

/// Full study parameters.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    pub seed: Seed,
    pub universe: UniverseConfig,
    /// Blocklist collection + crawl periods (default: the paper's two).
    pub periods: Vec<TimeWindow>,
    /// Skip the bt_ping verification round (ablation).
    pub disable_ping_verification: bool,
    /// Worker threads for the orchestrator and its inner fan-outs. `None`
    /// resolves via `AR_THREADS`, then available parallelism; `Some(1)`
    /// runs every phase on the calling thread. Results are identical
    /// either way.
    pub threads: Option<usize>,
    /// Correlated-failure injection. `None` (the default) and a
    /// zero-intensity spec both leave every phase on its unfaulted code
    /// path, byte-identical to a fault-free study.
    pub faults: Option<FaultSpec>,
    /// Retry policy for the crawler's bt_ping verification sends. The
    /// default is off (single send); [`RetryPolicy::resilient`] rides out
    /// injected loss bursts at extra probe cost.
    pub ping_retry: RetryPolicy,
    /// Collect metrics, phase spans and events into [`Study::run_report`]
    /// (the default). Instrumentation only observes — study output is
    /// byte-identical with it on or off; disabling merely skips the
    /// bookkeeping.
    pub collect_metrics: bool,
    /// Root directory of the persistent artifact store (`ar-store`).
    /// `None` (the default) computes everything in memory. When set,
    /// [`Study::run`] loads every phase a previous run with an identical
    /// artifact-shaping configuration already persisted, and saves the
    /// phases it had to compute — checkpoint/resume. A resumed run is
    /// byte-identical to a cold rebuild; like `threads`, the store
    /// location is excluded from the config fingerprint because it can
    /// never move an artifact byte.
    pub store: Option<PathBuf>,
}

impl StudyConfig {
    /// The paper's configuration at a given universe scale.
    pub fn paper(seed: Seed, universe: UniverseConfig) -> Self {
        StudyConfig {
            seed,
            universe,
            periods: vec![PERIOD_1, PERIOD_2],
            disable_ping_verification: false,
            threads: None,
            faults: None,
            ping_retry: RetryPolicy::default(),
            collect_metrics: true,
            store: None,
        }
    }

    /// Fast configuration for tests: tiny universe, two-week windows
    /// (shorter windows clip listing durations so hard that Figure 7's
    /// orderings drown in truncation noise).
    pub fn quick_test(seed: Seed) -> Self {
        use ar_simnet::time::{date, SimDuration};
        let w1 = TimeWindow::new(date(2019, 8, 3), date(2019, 8, 17));
        let w2 = TimeWindow::new(
            date(2020, 3, 29),
            date(2020, 3, 29) + SimDuration::from_days(14),
        );
        StudyConfig {
            periods: vec![w1, w2],
            ..Self::paper(seed, UniverseConfig::tiny())
        }
    }

    /// Distribution-shape test configuration: a `small` universe with
    /// two-week windows. Tiny universes leave the blocklisted∩reused joins
    /// with a few dozen members — pure noise for CDF-shape assertions —
    /// while this size keeps Figures 7/8's orderings stable across seeds
    /// at a few seconds' cost.
    pub fn shape_test(seed: Seed) -> Self {
        StudyConfig {
            universe: UniverseConfig::small(),
            ..Self::quick_test(seed)
        }
    }
}

/// Per-phase wall-clock of one [`Study::run`], in seconds.
///
/// Phase entries measure the time spent *inside* each phase, including its
/// checkpoint load or save (crawls: summed over periods), wherever the
/// phase ran; `total` is the end-to-end wall-clock of `run`. In a parallel
/// run `total` is less than the sum of the phases — that gap is the
/// orchestrator's win.
#[derive(Debug, Clone, Copy, Default)]
pub struct StudyTimings {
    pub blocklists: f64,
    pub crawls: f64,
    /// Wall-clock of the crawl phase as a whole: launch of the first
    /// period's crawl until the last one joined. Equal to `crawls` on one
    /// thread, where the periods run one after another; with more threads
    /// this is what the concurrent periods and the intra-crawl shard
    /// workers actually bought.
    pub crawls_wall: f64,
    pub atlas: f64,
    pub census: f64,
    pub total: f64,
}

/// Outcome of one study phase under fault injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseStatus {
    /// Ran clean (the only status a fault-free study ever reports).
    Ok,
    /// Completed, but faults bit: data was lost, interpolated, or recovered
    /// via checkpoint/resume. The string says what and how much.
    Degraded(String),
    /// The phase itself blew up; the study carries an empty placeholder
    /// result for it instead of aborting the campaign.
    Failed(String),
}

impl PhaseStatus {
    pub fn is_ok(&self) -> bool {
        matches!(self, PhaseStatus::Ok)
    }
}

impl Codec for PhaseStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PhaseStatus::Ok => out.push(0),
            PhaseStatus::Degraded(why) => {
                out.push(1);
                why.encode(out);
            }
            PhaseStatus::Failed(why) => {
                out.push(2);
                why.encode(out);
            }
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Option<PhaseStatus> {
        match u8::decode(cur)? {
            0 => Some(PhaseStatus::Ok),
            1 => String::decode(cur).map(PhaseStatus::Degraded),
            2 => String::decode(cur).map(PhaseStatus::Failed),
            _ => None,
        }
    }
}

/// Per-phase health of a study run. A fault-free run is all-`Ok`; injected
/// faults surface here as `Degraded` annotations rather than panics.
#[derive(Debug, Clone)]
pub struct StudyHealth {
    pub blocklists: PhaseStatus,
    /// One status per crawl period.
    pub crawls: Vec<PhaseStatus>,
    pub atlas: PhaseStatus,
    pub census: PhaseStatus,
}

impl StudyHealth {
    pub fn is_clean(&self) -> bool {
        self.blocklists.is_ok()
            && self.crawls.iter().all(PhaseStatus::is_ok)
            && self.atlas.is_ok()
            && self.census.is_ok()
    }

    /// Every non-Ok phase as a `"phase: reason"` line, in phase order.
    pub fn degraded_reasons(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut push = |phase: String, status: &PhaseStatus| match status {
            PhaseStatus::Ok => {}
            PhaseStatus::Degraded(why) => out.push(format!("{phase} degraded: {why}")),
            PhaseStatus::Failed(why) => out.push(format!("{phase} FAILED: {why}")),
        };
        push("blocklists".into(), &self.blocklists);
        for (i, c) in self.crawls.iter().enumerate() {
            push(format!("crawl[{i}]"), c);
        }
        push("atlas".into(), &self.atlas);
        push("census".into(), &self.census);
        out
    }

    /// Every phase with its status, in phase order — the flat view the
    /// run report records.
    pub fn entries(&self) -> Vec<(String, &PhaseStatus)> {
        let mut out = vec![("blocklists".to_string(), &self.blocklists)];
        for (i, c) in self.crawls.iter().enumerate() {
            out.push((format!("crawl[{i}]"), c));
        }
        out.push(("atlas".to_string(), &self.atlas));
        out.push(("census".to_string(), &self.census));
        out
    }
}

/// Everything the measurement campaign produced.
pub struct Study {
    pub config: StudyConfig,
    pub universe: Universe,
    /// Observable-host allocation plan per period (shared by all
    /// substrates so cross-dataset addresses line up).
    pub plans: Vec<(TimeWindow, AllocationPlan)>,
    pub blocklists: BlocklistDataset,
    /// One crawl report per period.
    pub crawls: Vec<CrawlReport>,
    /// The 16-month Atlas log and its detection output.
    pub atlas_log: ConnectionLog,
    pub atlas: DynamicDetection,
    pub census: CensusReport,
    /// The fault schedule this run executed under (`None` = fault-free).
    pub fault_plan: Option<FaultPlan>,
    /// What survived, what degraded, what failed.
    pub health: StudyHealth,
    /// Where the wall-clock went.
    pub timings: StudyTimings,
    /// Metrics, phase spans, events and per-phase health collected during
    /// the run (`None` when `collect_metrics` is off). Apart from span
    /// timings, identical for every thread count.
    pub run_report: Option<RunReport>,
}

impl Study {
    /// Run the full campaign. Deterministic in `config`: the output is
    /// byte-identical for every thread count.
    pub fn run(config: StudyConfig) -> Study {
        let run_start = Instant::now();
        // Honour an explicit thread request even above the host's real
        // parallelism: oversubscribed workers merely time-slice, artifacts
        // are thread-count invariant either way, and the determinism suites
        // must genuinely spawn N workers even on small hosts. The ambient
        // default (no config, no AR_THREADS) already resolves to
        // `available_parallelism`.
        let threads = par::resolve(config.threads).max(1);
        let obs = if config.collect_metrics {
            Obs::new()
        } else {
            Obs::disabled()
        };
        // Checkpoint/resume: open the persistent store up front so every
        // phase below can consult it. An unopenable store disables resume
        // for this run (counted, never fatal) — the study still computes.
        let store_ctx = config
            .store
            .as_deref()
            .and_then(|root| StoreCtx::open(root, &config, &obs));
        let universe = Universe::generate(config.seed, &config.universe);

        // The fault schedule, derived from its own forked seed so enabling
        // (or re-seeding) it never shifts any consumer RNG stream. `None`
        // stays `None`; a zero-intensity spec yields an empty plan and every
        // phase below takes its unfaulted code path.
        let fault_plan: Option<FaultPlan> = config.faults.as_ref().map(|spec| {
            let mut asns: Vec<Asn> = universe.prefixes.iter().map(|r| r.asn).collect();
            asns.sort_unstable();
            asns.dedup();
            let domain = FaultDomain {
                asns,
                periods: config.periods.clone(),
                atlas_window: ATLAS_WINDOW,
                feed_count: build_catalog().len() as u16,
            };
            FaultPlan::generate(spec.seed, spec.intensity, &domain)
        });
        let faults = fault_plan.as_ref();

        // Per-period allocation plans for everything observable.
        let plans: Vec<(TimeWindow, AllocationPlan)> = config
            .periods
            .iter()
            .map(|&p| {
                (
                    p,
                    AllocationPlan::build(&universe, p, InterestSet::Observable),
                )
            })
            .collect();

        // Inner fan-outs (per-list feeds, per-probe summaries) inherit the
        // resolved budget.
        let pipeline = PipelineConfig {
            threads: Some(threads),
            ..PipelineConfig::default()
        };

        // Census surveys during the second period, like the IT89w dataset
        // the paper matched to its window.
        let census_window =
            SurveyConfig::two_weeks_from(config.periods.last().map_or(PERIOD_2.start, |w| w.start));

        // The blocklists go first because they build the crawl scope; the
        // period crawls then split the thread budget. Results join in input
        // order, so assembly is schedule-independent.
        let store = store_ctx.as_ref();
        let plan_refs: Vec<(TimeWindow, &AllocationPlan)> =
            plans.iter().map(|(w, a)| (*w, a)).collect();
        let (listings, blocklists_status, blocklists_secs) = run_phase(
            "blocklists",
            (Column::Blocklists, 0),
            store,
            &obs,
            Vec::new,
            || blocklists_task(&universe, &plan_refs, threads, faults, &obs),
        );
        let blocklists = BlocklistDataset::new(build_catalog(), config.periods.clone(), listings);

        // The crawler's address-space restriction (the paper's politeness
        // rule): the /24s of every blocklisted IP, built once and shared
        // across periods.
        let scope = Arc::new(blocklists.all_ips().prefixes());
        let crawl_workers = (threads / plans.len().max(1)).max(1);
        let crawl_launch = Instant::now();
        let period_idxs: Vec<usize> = (0..plans.len()).collect();
        let crawl_results = par::par_map(threads, &period_idxs, |&idx| {
            let (window, plan) = &plans[idx];
            run_phase(
                &format!("crawl[{idx}]"),
                (Column::Crawl, idx as u32),
                store,
                &obs,
                || CrawlReport::empty(*window),
                || {
                    crawl_period(
                        &universe,
                        &config,
                        idx,
                        *window,
                        plan,
                        &scope,
                        faults,
                        &obs,
                        crawl_workers,
                    )
                },
            )
        });
        let crawls_wall = crawl_launch.elapsed().as_secs_f64();

        let ((atlas_log, atlas), atlas_status, atlas_secs) = run_phase(
            "atlas",
            (Column::AtlasDetection, 0),
            store,
            &obs,
            || {
                let log = ConnectionLog {
                    window: ATLAS_WINDOW,
                    entries: Vec::new(),
                };
                (log, DynamicDetection::default())
            },
            || atlas_task(&universe, &pipeline, faults, &obs),
        );
        let (census, census_status, census_secs) = run_phase(
            "census",
            (Column::Census, 0),
            store,
            &obs,
            CensusReport::default,
            || census_task(&universe, &census_window, faults, &obs),
        );

        let crawls_secs = crawl_results.iter().map(|(_, _, secs)| secs).sum();
        let (crawls, crawl_statuses): (Vec<_>, Vec<_>) = crawl_results
            .into_iter()
            .map(|(report, status, _)| (report, status))
            .unzip();
        let health = StudyHealth {
            blocklists: blocklists_status,
            crawls: crawl_statuses,
            atlas: atlas_status,
            census: census_status,
        };
        let timings = StudyTimings {
            blocklists: blocklists_secs,
            crawls: crawls_secs,
            crawls_wall,
            atlas: atlas_secs,
            census: census_secs,
            total: run_start.elapsed().as_secs_f64(),
        };

        if let Some(fp) = fault_plan.as_ref() {
            for b in &fp.blackouts {
                obs.event(
                    "network",
                    EventKind::AsBlackoutEntered,
                    Some(b.window.start.as_secs()),
                    1,
                    format!("AS{}", b.asn.0),
                );
                obs.event(
                    "network",
                    EventKind::AsBlackoutExited,
                    Some(b.window.end.as_secs()),
                    1,
                    format!("AS{}", b.asn.0),
                );
            }
        }
        obs.record_span("study", timings.total);
        let run_report = obs.enabled().then(|| obs.report());

        Study {
            config,
            universe,
            plans,
            blocklists,
            crawls,
            atlas_log,
            atlas,
            census,
            fault_plan,
            health,
            timings,
            run_report,
        }
    }

    // ---- joined views -------------------------------------------------------

    /// Every IP the crawler confirmed as NATed, across periods.
    pub fn natted_ips(&self) -> IpSet {
        self.crawls.iter().flat_map(|c| c.natted_ips()).collect()
    }

    /// Every IP seen running BitTorrent.
    pub fn bittorrent_ips(&self) -> IpSet {
        self.crawls
            .iter()
            .flat_map(|c| c.bittorrent_ips())
            .collect()
    }

    /// Lower bound on users behind a NATed IP (max across periods).
    pub fn nat_user_bound(&self, ip: Ipv4Addr) -> Option<u32> {
        self.crawls
            .iter()
            .filter_map(|c| c.user_lower_bound(ip))
            .max()
    }

    /// Blocklisted ∩ NATed (the paper's 29.7K) — a single linear merge of
    /// the two sorted indexes.
    pub fn natted_blocklisted(&self) -> IpSet {
        self.blocklists.all_ips().intersect(&self.natted_ips())
    }

    /// Blocklisted addresses inside the detected dynamic space (the
    /// paper's 22.7K): merge-join against the dynamic /24s, plus the exact
    /// addresses when prefix expansion is disabled.
    pub fn dynamic_blocklisted(&self) -> IpSet {
        let blocklisted = self.blocklists.all_ips();
        let by_prefix = PrefixSet::from_sorted(&self.atlas.dynamic_prefixes).covered(blocklisted);
        if self.atlas.dynamic_addresses.is_empty() {
            return by_prefix;
        }
        let addresses: IpSet = self.atlas.dynamic_addresses.iter().copied().collect();
        by_prefix.union(&blocklisted.intersect(&addresses))
    }

    /// Blocklisted addresses inside census-detected dynamic blocks (the
    /// paper's Cai-et-al. comparison, 29.8K listings).
    pub fn census_blocklisted(&self) -> IpSet {
        PrefixSet::from_sorted(&self.census.dynamic_blocks).covered(self.blocklists.all_ips())
    }

    /// Blocklisted addresses inside each Atlas pipeline stage's prefix set
    /// (Figure 4's right funnel: 53.7K → 34.4K → 33.1K → 22.7K).
    ///
    /// One histogram pass converts every blocklisted IP to its /24 exactly
    /// once; each stage is then a two-pointer join over the histogram.
    pub fn atlas_funnel_blocklisted(&self) -> BTreeMap<&'static str, usize> {
        let hist = self.blocklists.all_ips().prefix_histogram();
        let count_in = |prefixes: &std::collections::BTreeSet<Prefix24>| {
            weighted_prefix_intersection(&hist, prefixes.iter().copied()) as usize
        };
        let mut map = BTreeMap::new();
        map.insert("0 all RIPE prefixes", count_in(&self.atlas.all.prefixes));
        map.insert("1 same-AS", count_in(&self.atlas.same_as.prefixes));
        map.insert("2 frequent", count_in(&self.atlas.frequent.prefixes));
        map.insert("3 daily", count_in(&self.atlas.daily.prefixes));
        map
    }

    /// Merged crawl statistics.
    pub fn crawl_totals(&self) -> ar_crawler::CrawlStats {
        let mut total = ar_crawler::CrawlStats::default();
        for c in &self.crawls {
            total += &c.stats;
        }
        total
    }
}

// ---- checkpoint/resume (the ar-store persistence plane) --------------------

/// Fingerprint of every config field that shapes study artifacts.
///
/// Thread counts, `collect_metrics` and the store location itself are
/// deliberately excluded: the determinism suites pin that none of them can
/// move a single artifact byte, so a resumed run may change them freely.
/// Everything else feeds FNV-1a 64 via its `Debug` rendering. The
/// destructuring is exhaustive, so a new field does not compile until it
/// is hashed or excluded here.
fn config_fingerprint(config: &StudyConfig) -> u64 {
    let StudyConfig {
        seed,
        universe,
        periods,
        disable_ping_verification,
        faults,
        ping_retry,
        threads: _,
        collect_metrics: _,
        store: _,
    } = config;
    let repr = format!(
        "{seed:?}|{universe:?}|{periods:?}|{disable_ping_verification:?}|{faults:?}|{ping_retry:?}"
    );
    fnv1a64(repr.as_bytes())
}

/// Where one phase checkpoints: its column and its key id inside the run's
/// fingerprint namespace (the period index for crawls, 0 otherwise).
type PhaseKey = (Column, u32);

/// An open keyed store plus the fingerprint namespace this run reads and
/// writes under. All store traffic is best-effort: a corrupt or missing
/// value means "recompute", a failed write means "no checkpoint this
/// time" — neither can fail the study.
struct StoreCtx {
    keyed: KeyedStore,
    fingerprint: u64,
    obs: Obs,
}

impl StoreCtx {
    fn open(root: &Path, config: &StudyConfig, obs: &Obs) -> Option<StoreCtx> {
        match Store::open(root, obs) {
            Ok((store, _report)) => Some(StoreCtx {
                keyed: store.keyed,
                fingerprint: config_fingerprint(config),
                obs: obs.clone(),
            }),
            Err(_) => {
                obs.add("store.open_failures", 1);
                None
            }
        }
    }

    /// Load one persisted phase, counting and reporting the resume hit.
    /// `None` on miss, corruption (already counted by the keyed store),
    /// or a payload that does not decode (counted here) — all of which
    /// mean "compute it fresh".
    fn load_phase<T: Codec>(
        &self,
        phase: &str,
        (column, id): PhaseKey,
    ) -> Option<(T, PhaseStatus)> {
        let key = StoreKey::new(self.fingerprint, id);
        let bytes = self.keyed.get(column, key).ok().flatten()?;
        let Some((status, artifact)) = codec::decode_all::<(PhaseStatus, T)>(&bytes) else {
            self.obs.add("store.checkpoint_decode_failures", 1);
            return None;
        };
        self.obs.add("store.resume_hits", 1);
        self.obs.event(
            phase,
            EventKind::ResumeHit,
            None,
            1,
            format!("{} loaded from store", column.dir()),
        );
        Some((artifact, status))
    }

    /// Persist one completed phase as the encoding of `(status, artifact)`.
    /// `Failed` phases are never saved — their empty panic fallback must
    /// not shadow a future clean run.
    fn save<T: Codec>(&self, (column, id): PhaseKey, artifact: &T, status: &PhaseStatus) {
        if matches!(status, PhaseStatus::Failed(_)) {
            return;
        }
        let mut bytes = Vec::new();
        status.encode(&mut bytes);
        artifact.encode(&mut bytes);
        let key = StoreKey::new(self.fingerprint, id);
        if self.keyed.put(column, key, &bytes).is_err() {
            self.obs.add("store.write_failures", 1);
        }
    }
}

// ---- the phase executor and the phase bodies ------------------------------

/// Render whatever a phase panicked with into a `Failed` reason.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run a phase body; a panic becomes a `Failed` status plus the phase's
/// empty fallback value, so one broken substrate degrades the study
/// instead of aborting the whole campaign.
fn guard<T>(
    phase: &str,
    fallback: impl FnOnce() -> T,
    body: impl FnOnce() -> (T, PhaseStatus),
) -> (T, PhaseStatus) {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(out) => out,
        Err(payload) => {
            let reason = panic_reason(payload);
            (
                fallback(),
                PhaseStatus::Failed(format!("{phase} panicked: {reason}")),
            )
        }
    }
}

/// The one path every study phase takes. Under the phase's `study/<phase>`
/// span and timer it resumes the result a previous run persisted under
/// `key`, or else computes it under [`guard`] and saves it. It then records
/// the phase's health — including *why* a degraded or failed phase went
/// wrong — and returns the result, its status and the seconds spent.
fn run_phase<T: Codec>(
    phase: &str,
    key: PhaseKey,
    store: Option<&StoreCtx>,
    obs: &Obs,
    fallback: impl FnOnce() -> T,
    compute: impl FnOnce() -> (T, PhaseStatus),
) -> (T, PhaseStatus, f64) {
    let span = obs.span(&format!("study/{phase}"));
    let start = Instant::now();
    let (out, status) = match store.and_then(|ctx| ctx.load_phase(phase, key)) {
        Some(hit) => hit,
        None => {
            let (out, status) = guard(phase, fallback, compute);
            if let Some(ctx) = store {
                ctx.save(key, &out, &status);
            }
            (out, status)
        }
    };
    match &status {
        PhaseStatus::Ok => obs.set_phase_health(phase, "ok", ""),
        PhaseStatus::Degraded(why) => {
            obs.set_phase_health(phase, "degraded", why);
            obs.event(phase, EventKind::PhaseDegraded, None, 1, why.clone());
        }
        PhaseStatus::Failed(why) => {
            obs.set_phase_health(phase, "failed", why);
            obs.event(phase, EventKind::PhaseFailed, None, 1, why.clone());
        }
    }
    span.finish();
    (out, status, start.elapsed().as_secs_f64())
}

/// The blocklist leg. Without feed faults this is the direct dataset; with
/// them, collection is re-played through the daily-snapshot channel with the
/// scheduled damage applied and listings rebuilt gap-tolerantly. Returns the
/// listings, the part of the dataset a checkpoint persists.
fn blocklists_task(
    universe: &Universe,
    plan_refs: &[(TimeWindow, &AllocationPlan)],
    threads: usize,
    faults: Option<&FaultPlan>,
    obs: &Obs,
) -> (Vec<Listing>, PhaseStatus) {
    let generate = obs.span("study/blocklists/generate");
    let dataset = generate_dataset_threaded(universe, plan_refs, build_catalog(), threads);
    generate.finish();
    let (dataset, status) = match faults {
        Some(fp) if fp.has_feed_faults() => {
            let replay = obs.span("study/blocklists/replay");
            let (damaged, degradation) =
                dataset_via_faulted_snapshots(&dataset, fp, FEED_GAP_BRIDGE_DAYS);
            replay.finish();
            degradation.record_obs(obs);
            let status = if degradation.is_clean() {
                PhaseStatus::Ok
            } else {
                PhaseStatus::Degraded(degradation.describe())
            };
            (damaged, status)
        }
        _ => (dataset, PhaseStatus::Ok),
    };
    dataset.record_obs(obs);
    (dataset.listings, status)
}

/// One period's DHT crawl. Fault-free crawls run `CrawlConfig::shards`
/// partitions ([`crawl_sharded`]) over `workers` threads — the partition
/// layout is fixed in [`CrawlConfig`], so the artifacts are byte-identical
/// at every worker count. Faulted crawls run one partition: network faults
/// wrap a [`SimNetwork`] in a [`FaultyTransport`], and scheduled crawler
/// outages are survived by checkpointing at each crash and resuming after
/// its downtime.
#[allow(clippy::too_many_arguments)]
fn crawl_period(
    universe: &Universe,
    config: &StudyConfig,
    period_idx: usize,
    window: TimeWindow,
    plan: &AllocationPlan,
    scope: &Arc<PrefixSet>,
    faults: Option<&FaultPlan>,
    obs: &Obs,
    workers: usize,
) -> (CrawlReport, PhaseStatus) {
    let phase = format!("crawl[{period_idx}]");
    let mut crawl_config = CrawlConfig::new(window).with_scope(Scope::Prefixes(Arc::clone(scope)));
    crawl_config.disable_ping_verification = config.disable_ping_verification;
    crawl_config.ping_retry = config.ping_retry;

    let outages = faults.map_or_else(Vec::new, |fp| fp.outages_for_period(period_idx));
    let network_faults = faults.is_some_and(FaultPlan::has_network_faults);
    // Bind the plan only on the faulted path, so the fault-free
    // branch needs no plan and no panic can assert otherwise.
    let fp = match faults {
        Some(fp) if !outages.is_empty() || network_faults => fp,
        _ => {
            // Fault-free (including zero-intensity fault specs):
            // the partitioned crawl.
            let fabric = ShardedSimNetwork::new(universe, plan, SimParams::default());
            let report = crawl_sharded(fabric.shards(crawl_config.shards), &crawl_config, workers);
            report.record_obs(obs, &phase);
            if report.stats.ping_retries > 0 {
                obs.event(
                    &phase,
                    EventKind::RetryFired,
                    None,
                    report.stats.ping_retries,
                    format!("{} recovered", report.stats.pings_recovered),
                );
            }
            return (report, PhaseStatus::Ok);
        }
    };

    // Faulted crawls run one partition: checkpoint/resume and fault
    // transports are defined over one sequential timeline.
    let mut net = SimNetwork::new(universe, plan, SimParams::default());
    let mut transport = FaultyTransport::new(&mut net, fp, |ip| universe.asn_of(ip));
    let mut survived = 0usize;
    // Each outage the crawler is up for crashes it; the crawl resumes
    // from the checkpoint once the downtime ends.
    let mut ckpt: Option<CrawlCheckpoint> = None;
    for o in &outages {
        let mut next = match ckpt {
            None => crawl_until(&mut transport, &crawl_config, o.crash_at),
            // The crawler was still down when this one hit.
            Some(ref c) if o.crash_at <= c.resume_at => continue,
            Some(c) => resume_until(&mut transport, &crawl_config, c, o.crash_at),
        };
        next.delay_resume(o.downtime);
        obs.event(
            &phase,
            EventKind::CheckpointWritten,
            Some(o.crash_at.as_secs()),
            1,
            format!("crawler crashed, down {}s", o.downtime.as_secs()),
        );
        obs.event(
            &phase,
            EventKind::CheckpointResumed,
            Some(next.resume_at.as_secs()),
            1,
            String::new(),
        );
        survived += 1;
        ckpt = Some(next);
    }
    let report = match ckpt {
        None => crawl(&mut transport, &crawl_config),
        Some(c) => resume(&mut transport, &crawl_config, c),
    };
    let stats = transport.fault_stats;
    report.record_obs(obs, &phase);
    stats.record_obs(obs);
    obs.add("crawler.checkpoints_written", survived as u64);
    obs.add("crawler.checkpoints_resumed", survived as u64);
    if report.stats.ping_retries > 0 {
        obs.event(
            &phase,
            EventKind::RetryFired,
            None,
            report.stats.ping_retries,
            format!("{} recovered", report.stats.pings_recovered),
        );
    }
    let mut reasons = Vec::new();
    if survived > 0 {
        reasons.push(format!(
            "survived {survived} outage(s) via checkpoint/resume"
        ));
    }
    if stats.dropped_blackout > 0 || stats.dropped_burst > 0 {
        reasons.push(format!(
            "{} queries lost to blackouts, {} to loss bursts",
            stats.dropped_blackout, stats.dropped_burst
        ));
    }
    let status = if reasons.is_empty() {
        PhaseStatus::Ok
    } else {
        PhaseStatus::Degraded(reasons.join("; "))
    };
    (report, status)
}

/// The Atlas leg: fleet simulation over the long window, gap censoring when
/// scheduled, then the detection pipeline over what was actually logged.
fn atlas_task(
    universe: &Universe,
    pipeline: &PipelineConfig,
    faults: Option<&FaultPlan>,
    obs: &Obs,
) -> ((ConnectionLog, DynamicDetection), PhaseStatus) {
    let fleet = obs.span("study/atlas/fleet");
    let atlas_alloc = AllocationPlan::build(universe, ATLAS_WINDOW, InterestSet::ProbesOnly);
    let (_probes, full_log) = generate_fleet(universe, &atlas_alloc, ATLAS_WINDOW);
    fleet.finish();
    match faults {
        Some(fp) if fp.has_atlas_gaps() => {
            let (censored, dropped) = apply_atlas_gaps(&full_log, fp);
            obs.add("atlas.log_entries", censored.entries.len() as u64);
            obs.add("atlas.log_entries_dropped", dropped as u64);
            if dropped > 0 {
                obs.event(
                    "atlas",
                    EventKind::AtlasGapCensored,
                    None,
                    dropped as u64,
                    format!("{} scheduled gap(s)", fp.atlas_gaps.len()),
                );
            }
            let detect = obs.span("study/atlas/detect");
            let detection = detect_dynamic(&censored, pipeline, |ip| universe.asn_of(ip));
            detect.finish();
            detection.record_obs(obs);
            let status = if dropped == 0 {
                PhaseStatus::Ok
            } else {
                PhaseStatus::Degraded(format!(
                    "{dropped} connection-log entries lost to {} scheduled gap(s)",
                    fp.atlas_gaps.len()
                ))
            };
            ((censored, detection), status)
        }
        _ => {
            obs.add("atlas.log_entries", full_log.entries.len() as u64);
            let detect = obs.span("study/atlas/detect");
            let detection = detect_dynamic(&full_log, pipeline, |ip| universe.asn_of(ip));
            detect.finish();
            detection.record_obs(obs);
            ((full_log, detection), PhaseStatus::Ok)
        }
    }
}

/// The census leg: AS blackouts suppress would-be ICMP replies.
fn census_task(
    universe: &Universe,
    census_window: &SurveyConfig,
    faults: Option<&FaultPlan>,
    obs: &Obs,
) -> (CensusReport, PhaseStatus) {
    let report = run_census_with_faults(universe, census_window, &Classifier::default(), faults);
    report.record_obs(obs);
    let status = if report.blackout_suppressed == 0 {
        PhaseStatus::Ok
    } else {
        PhaseStatus::Degraded(format!(
            "{} census replies suppressed by AS blackouts",
            report.blackout_suppressed
        ))
    };
    (report, status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_moves_with_every_artifact_field_and_only_with_them() {
        type Change = fn(&mut StudyConfig);
        let base = StudyConfig::quick_test(Seed(1));
        let changed = |change: Change| {
            let mut config = base.clone();
            change(&mut config);
            config_fingerprint(&config)
        };
        let shaping: [(&str, Change); 6] = [
            ("seed", |c| c.seed = Seed(2)),
            ("universe", |c| c.universe = UniverseConfig::small()),
            ("periods", |c| c.periods = vec![PERIOD_1]),
            ("disable_ping_verification", |c| {
                c.disable_ping_verification = true
            }),
            ("faults", |c| c.faults = Some(FaultSpec::new(Seed(1), 0.5))),
            ("ping_retry", |c| c.ping_retry = RetryPolicy::resilient()),
        ];
        for (field, change) in shaping {
            assert_ne!(
                changed(change),
                config_fingerprint(&base),
                "changing {field} must change the fingerprint"
            );
        }
        let neutral: [(&str, Change); 3] = [
            ("threads", |c| c.threads = Some(7)),
            ("collect_metrics", |c| c.collect_metrics = false),
            ("store", |c| c.store = Some(PathBuf::from("elsewhere"))),
        ];
        for (field, change) in neutral {
            assert_eq!(
                changed(change),
                config_fingerprint(&base),
                "changing {field} must not change the fingerprint"
            );
        }
    }

    #[test]
    fn a_panicking_phase_fails_under_its_own_name_and_is_never_saved() {
        for threads in [1, 2] {
            let root = std::env::temp_dir().join(format!(
                "ar-study-phase-guard-{}-{threads}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let obs = Obs::new();
            let config = StudyConfig::quick_test(Seed(1));
            let store = StoreCtx::open(&root, &config, &obs).expect("temp store opens");

            let periods: Vec<u32> = (0..3).collect();
            let results = par::par_map(threads, &periods, |&idx| {
                run_phase(
                    &format!("crawl[{idx}]"),
                    (Column::Crawl, idx),
                    Some(&store),
                    &obs,
                    || vec![u32::MAX],
                    || {
                        if idx == 1 {
                            panic!("injected phase failure");
                        }
                        (vec![idx], PhaseStatus::Ok)
                    },
                )
            });

            assert_eq!(results[1].0, vec![u32::MAX], "{threads} threads");
            assert_eq!(
                results[1].1,
                PhaseStatus::Failed("crawl[1] panicked: injected phase failure".into())
            );
            for idx in [0, 2] {
                assert_eq!(results[idx].0, vec![idx as u32], "{threads} threads");
                assert_eq!(results[idx].1, PhaseStatus::Ok);
            }
            let saved = store.keyed.keys(Column::Crawl).expect("crawl column lists");
            assert!(
                !saved.contains(&StoreKey::new(store.fingerprint, 1)),
                "the failed phase's fallback was checkpointed at {threads} threads"
            );
            let report = obs.report();
            assert_eq!(report.health["crawl[1]"].status, "failed");
            assert_eq!(report.health["crawl[0]"].status, "ok");
            assert!(report.spans.iter().any(|s| s.path == "study/crawl[1]"));
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
