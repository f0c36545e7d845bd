//! Acceptance tests for the fault-injection layer (the robustness PR's
//! contract):
//!
//! 1. a **zero-intensity** fault plan is a strict no-op — every joined view
//!    of the study is identical to a fault-free run;
//! 2. a **nonzero** plan is survived: mid-crawl outages are ridden out via
//!    checkpoint/resume, damaged feeds are reconstructed gap-tolerantly,
//!    and the study completes with `Degraded` annotations instead of
//!    falling over.

use address_reuse::{PhaseStatus, Study, StudyConfig};
use ar_crawler::RetryPolicy;
use ar_faults::FaultSpec;
use ar_simnet::rng::Seed;

fn faulted(seed: u64, fault_seed: u64, intensity: f64) -> Study {
    let mut config = StudyConfig::quick_test(Seed(seed));
    config.threads = Some(1);
    config.faults = Some(FaultSpec::new(Seed(fault_seed), intensity));
    Study::run(config)
}

#[test]
fn zero_intensity_plan_is_byte_identical_to_fault_free() {
    let mut clean_config = StudyConfig::quick_test(Seed(2077));
    clean_config.threads = Some(1);
    let clean = Study::run(clean_config);
    let zero = faulted(2077, 99, 0.0);

    // The plan exists but schedules nothing.
    let plan = zero.fault_plan.as_ref().expect("spec given, plan built");
    assert!(plan.is_zero(), "zero intensity must yield an empty plan");
    assert!(zero.health.is_clean());
    assert!(clean.fault_plan.is_none());

    // Raw substrate outputs.
    assert_eq!(clean.blocklists.listings, zero.blocklists.listings);
    assert_eq!(clean.blocklists.all_ips(), zero.blocklists.all_ips());
    assert_eq!(clean.crawl_totals(), zero.crawl_totals());
    assert_eq!(clean.atlas.knee, zero.atlas.knee);
    assert_eq!(clean.atlas.dynamic_prefixes, zero.atlas.dynamic_prefixes);
    assert_eq!(clean.atlas_log.entries, zero.atlas_log.entries);
    assert_eq!(clean.census.dynamic_blocks, zero.census.dynamic_blocks);
    assert_eq!(clean.census.pings_sent, zero.census.pings_sent);
    assert_eq!(clean.census.replies, zero.census.replies);

    // Every joined view the figures are computed from.
    assert_eq!(clean.natted_ips(), zero.natted_ips());
    assert_eq!(clean.bittorrent_ips(), zero.bittorrent_ips());
    assert_eq!(clean.natted_blocklisted(), zero.natted_blocklisted());
    assert_eq!(clean.dynamic_blocklisted(), zero.dynamic_blocklisted());
    assert_eq!(clean.census_blocklisted(), zero.census_blocklisted());
    assert_eq!(
        clean.atlas_funnel_blocklisted(),
        zero.atlas_funnel_blocklisted()
    );
}

#[test]
fn nonzero_intensity_is_survived_with_degraded_annotations() {
    let study = faulted(2078, 4242, 1.0);
    let plan = study.fault_plan.as_ref().expect("plan built");

    // Intensity 1.0 deterministically schedules at least one of everything
    // that matters here.
    assert!(plan.has_outages(), "outage schedule empty at intensity 1.0");
    assert!(plan.has_feed_faults());
    assert!(!study.health.is_clean());
    let reasons = study.health.degraded_reasons();
    assert!(!reasons.is_empty());

    // The outage-hit crawls went through checkpoint/resume and still
    // produced reports.
    let survived = study
        .health
        .crawls
        .iter()
        .any(|s| matches!(s, PhaseStatus::Degraded(why) if why.contains("checkpoint/resume")));
    assert!(
        survived,
        "no crawl reported outage survival; reasons: {reasons:?}"
    );
    assert!(!study
        .health
        .crawls
        .iter()
        .any(|s| matches!(s, PhaseStatus::Failed(_))));
    assert_eq!(study.crawls.len(), study.config.periods.len());
    for report in &study.crawls {
        assert!(report.stats.pings_sent > 0, "crawl produced no traffic");
        // The message log survives every checkpoint: its exact counters
        // cover the whole crawl, not just the segment after the last
        // resume.
        assert_eq!(
            report.log.sent,
            report.stats.get_nodes_sent + report.stats.pings_sent
        );
        assert_eq!(report.log.received, report.stats.replies_received);
    }

    // Degradation hurts recall, never precision: everything still detected
    // as NATed is truly NATed.
    let natted: Vec<_> = study.natted_ips().iter().collect();
    assert!(
        natted.iter().all(|ip| study.universe.is_truly_natted(*ip)),
        "faults must not fabricate NAT detections"
    );

    // The whole campaign completed: every view is computable.
    let _ = study.natted_blocklisted();
    let _ = study.dynamic_blocklisted();
    let _ = study.census_blocklisted();
    let _ = study.atlas_funnel_blocklisted();
}

#[test]
fn retry_policy_recovers_pings_under_bursty_loss() {
    // Same faulted world, retries off vs on: the resilient policy must
    // actually re-send (retries > 0) and convert some re-sends into
    // replies, and it never reduces what the crawler found.
    let base = faulted(2079, 31337, 1.0);
    let mut retry_config = StudyConfig::quick_test(Seed(2079));
    retry_config.threads = Some(1);
    retry_config.faults = Some(FaultSpec::new(Seed(31337), 1.0));
    retry_config.ping_retry = RetryPolicy::resilient();
    let resilient = Study::run(retry_config);

    let base_totals = base.crawl_totals();
    let resilient_totals = resilient.crawl_totals();
    assert_eq!(base_totals.ping_retries, 0, "default policy never re-sends");
    assert!(
        resilient_totals.ping_retries > 0,
        "resilient policy must retry"
    );
    assert!(
        resilient_totals.pings_recovered > 0,
        "retries should rescue some replies under bursty loss"
    );
    assert!(resilient_totals.pings_sent > base_totals.pings_sent);
}
