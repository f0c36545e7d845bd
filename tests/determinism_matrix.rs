//! Determinism matrix: every stochastic component must be a pure function
//! of `(Seed, config)` — and actually respond to seed changes. Both halves
//! matter: silent nondeterminism breaks reproducibility (EXPERIMENTS.md's
//! reference run), while seed-insensitivity would mean a component ignores
//! its randomness and the "distributions" are artifacts.

use address_reuse::render_universe_json;
use ar_atlas::{detect_dynamic, generate_fleet, PipelineConfig};
use ar_blocklists::{build_catalog, generate_dataset, malice_events};
use ar_census::{run_census, Classifier, SurveyConfig};
use ar_simnet::alloc::{AllocationPlan, InterestSet};
use ar_simnet::codec::{self, Codec};
use ar_simnet::config::UniverseConfig;
use ar_simnet::rng::Seed;
use ar_simnet::time::{date, TimeWindow, PERIOD_2};
use ar_simnet::universe::Universe;
use ar_survey::{generate_respondents, SurveyTargets};

fn window() -> TimeWindow {
    TimeWindow::new(date(2019, 8, 3), date(2019, 8, 10))
}

fn build(seed: u64) -> (Universe, AllocationPlan) {
    let u = Universe::generate(Seed(seed), &UniverseConfig::tiny());
    let a = AllocationPlan::build(&u, window(), InterestSet::Observable);
    (u, a)
}

#[test]
fn universe_generation() {
    let (a, _) = build(42);
    let (b, _) = build(42);
    let (c, _) = build(43);
    assert_eq!(
        render_universe_json(&a.summary()),
        render_universe_json(&b.summary())
    );
    assert_ne!(
        render_universe_json(&a.summary()),
        render_universe_json(&c.summary())
    );
}

#[test]
fn malice_event_stream() {
    let (u1, a1) = build(42);
    let (u2, a2) = build(42);
    let e1 = malice_events(&u1, &a1, window());
    let e2 = malice_events(&u2, &a2, window());
    assert_eq!(e1.len(), e2.len());
    for (x, y) in e1.iter().zip(&e2) {
        assert_eq!(x.time, y.time);
        assert_eq!(x.ip, y.ip);
        assert_eq!(x.actor, y.actor);
    }
    let (u3, a3) = build(77);
    let e3 = malice_events(&u3, &a3, window());
    assert_ne!(e1.len(), e3.len());
}

#[test]
fn blocklist_generation() {
    let (u1, a1) = build(42);
    let (u2, a2) = build(42);
    let d1 = generate_dataset(&u1, &[(window(), &a1)], build_catalog());
    let d2 = generate_dataset(&u2, &[(window(), &a2)], build_catalog());
    assert_eq!(d1.listings, d2.listings);
}

#[test]
fn atlas_detection() {
    let run = |seed| {
        let u = Universe::generate(Seed(seed), &UniverseConfig::tiny());
        let a = AllocationPlan::build(&u, ar_simnet::time::ATLAS_WINDOW, InterestSet::ProbesOnly);
        let (_p, log) = generate_fleet(&u, &a, ar_simnet::time::ATLAS_WINDOW);
        let d = detect_dynamic(&log, &PipelineConfig::default(), |ip| u.asn_of(ip));
        (d.knee, d.dynamic_prefixes)
    };
    let (k1, p1) = run(42);
    let (k2, p2) = run(42);
    assert_eq!(k1, k2);
    assert_eq!(p1, p2);
    let (_, p3) = run(99);
    assert_ne!(p1, p3, "different seeds explore different universes");
}

#[test]
fn census_classification() {
    let run = |seed| {
        let u = Universe::generate(Seed(seed), &UniverseConfig::tiny());
        run_census(
            &u,
            &SurveyConfig::two_weeks_from(PERIOD_2.start),
            &Classifier::default(),
        )
        .dynamic_blocks
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(4242));
}

#[test]
fn parallel_study_equals_serial_study() {
    // The orchestrator's contract: thread count is a pure performance knob.
    // Every count takes the same schedule; `threads: Some(1)` runs it all
    // on the calling thread, every other count runs the period crawls
    // (and the sharded crawl's workers) concurrently. The assembled
    // studies must be byte-identical across the whole ladder, including a
    // count (3) that divides neither the shard count nor the period count.
    use address_reuse::{Study, StudyConfig};
    let run = |threads: usize| {
        let mut config = StudyConfig::quick_test(Seed(5150));
        config.threads = Some(threads);
        Study::run(config)
    };
    // The joined views — what every figure is computed from — encode
    // identically too.
    let views = |s: &Study| {
        let mut out = Vec::new();
        for joined in [
            s.natted_blocklisted(),
            s.dynamic_blocklisted(),
            s.census_blocklisted(),
        ] {
            joined.as_raw().to_vec().encode(&mut out);
        }
        for (stage, count) in s.atlas_funnel_blocklisted() {
            stage.to_string().encode(&mut out);
            count.encode(&mut out);
        }
        out
    };
    let serial = run(1);
    for threads in [2, 3, 8] {
        let parallel = run(threads);
        assert_eq!(
            serial.blocklists.listings, parallel.blocklists.listings,
            "listings drifted at {threads} threads"
        );
        assert_eq!(serial.blocklists.all_ips(), parallel.blocklists.all_ips());
        assert_eq!(serial.natted_ips(), parallel.natted_ips());
        assert_eq!(serial.bittorrent_ips(), parallel.bittorrent_ips());
        assert_eq!(
            serial.crawl_totals(),
            parallel.crawl_totals(),
            "crawl totals drifted at {threads} threads"
        );
        assert_eq!(serial.atlas.knee, parallel.atlas.knee);
        assert_eq!(
            serial.atlas.dynamic_prefixes,
            parallel.atlas.dynamic_prefixes
        );
        assert_eq!(serial.census.dynamic_blocks, parallel.census.dynamic_blocks);
        assert_eq!(
            views(&serial),
            views(&parallel),
            "joined views drifted at {threads} threads"
        );
    }
}

#[test]
fn sharded_crawl_is_worker_count_invariant() {
    // The partitioned crawler's contract: the fixed logical shard layout —
    // not the worker-thread count — determines the artifacts. The same
    // 8-shard crawl run on {1, 2, 3, 8, 16} workers (3 does not divide the
    // partitions evenly; 16 is more workers than partitions) and repeated
    // at one count must serialize byte-identically; a different universe
    // seed must not. The seed-42 bytes are also pinned absolutely, so a
    // change that moves every crawl the same way fails here too.
    use ar_crawler::{crawl_sharded, CrawlConfig};
    use ar_dht::{ShardedSimNetwork, SimParams};

    let run = |seed: u64, workers: usize| {
        let (u, a) = build(seed);
        let fabric = ShardedSimNetwork::new(&u, &a, SimParams::default());
        let mut config = CrawlConfig::new(window());
        // Retain log records so the comparison covers the merged message
        // timeline, not just the exact counters.
        config.log_head = 64;
        config.log_tail = 64;
        let report = crawl_sharded(fabric.shards(config.shards), &config, workers);
        let bytes = codec::to_bytes(&report);
        (bytes, report.stats)
    };

    let (baseline, stats) = run(42, 1);
    assert!(
        stats.pings_sent > 0,
        "crawl must actually verify candidates"
    );
    assert!(stats.unique_ips > 0, "crawl must discover endpoints");
    assert_eq!(
        ar_simnet::fnv::fnv1a64(&baseline),
        0xa4ae_7f5b_f768_17a1,
        "seed-42 crawl bytes moved"
    );
    for workers in [1, 2, 3, 8, 16] {
        let (again, _) = run(42, workers);
        assert_eq!(
            baseline, again,
            "crawl artifacts drifted at {workers} workers"
        );
    }
    let (other_seed, _) = run(77, 2);
    assert_ne!(
        baseline, other_seed,
        "different seeds must explore different universes"
    );
}

#[test]
fn faulted_study_is_thread_count_invariant() {
    // Fault injection must not loosen the orchestrator's determinism
    // contract: with a fixed FaultPlan seed, the degraded study — damaged
    // feeds, checkpoint-resumed crawls, censored Atlas log, blacked-out
    // census — is byte-identical across thread counts too.
    use address_reuse::{Study, StudyConfig};
    use ar_crawler::RetryPolicy;
    use ar_faults::FaultSpec;
    let run = |threads: usize| {
        let mut config = StudyConfig::quick_test(Seed(5150));
        config.threads = Some(threads);
        config.faults = Some(FaultSpec::new(Seed(777), 0.8));
        config.ping_retry = RetryPolicy::resilient();
        Study::run(config)
    };
    let serial = run(1);
    let parallel = run(8);

    // The executed fault schedule itself is a pure function of the spec.
    let summary = |s: &Study| {
        let p = s.fault_plan.as_ref().expect("plan present");
        (
            p.blackouts.clone(),
            p.crawler_outages.clone(),
            p.feed_faults.len(),
            p.atlas_gaps.clone(),
            p.loss_bursts.len(),
        )
    };
    assert_eq!(summary(&serial), summary(&parallel));
    assert!(
        serial.fault_plan.as_ref().unwrap().has_any(),
        "intensity 0.8 must schedule faults"
    );

    assert_eq!(serial.blocklists.listings, parallel.blocklists.listings);
    assert_eq!(serial.blocklists.all_ips(), parallel.blocklists.all_ips());
    assert_eq!(serial.natted_ips(), parallel.natted_ips());
    assert_eq!(serial.bittorrent_ips(), parallel.bittorrent_ips());
    assert_eq!(serial.crawl_totals(), parallel.crawl_totals());
    assert_eq!(serial.atlas.knee, parallel.atlas.knee);
    assert_eq!(
        serial.atlas.dynamic_prefixes,
        parallel.atlas.dynamic_prefixes
    );
    assert_eq!(
        serial.atlas_log.entries.len(),
        parallel.atlas_log.entries.len()
    );
    assert_eq!(serial.census.dynamic_blocks, parallel.census.dynamic_blocks);
    assert_eq!(
        serial.census.blackout_suppressed,
        parallel.census.blackout_suppressed
    );
    // Health annotations — including the degradation reason strings, which
    // embed exact loss counts — agree as well.
    assert_eq!(
        serial.health.degraded_reasons(),
        parallel.health.degraded_reasons()
    );
}

#[test]
fn survey_pool() {
    let a = generate_respondents(Seed(42), &SurveyTargets::default());
    let b = generate_respondents(Seed(42), &SurveyTargets::default());
    let c = generate_respondents(Seed(43), &SurveyTargets::default());
    let digest = |pool: &[ar_survey::Respondent]| {
        pool.iter()
            .map(|r| (r.paid_lists, r.public_lists, r.list_types.len()))
            .collect::<Vec<_>>()
    };
    assert_eq!(digest(&a), digest(&b));
    assert_ne!(digest(&a), digest(&c));
    // Quotas hold at every seed regardless.
    for pool in [&a, &c] {
        assert_eq!(pool.iter().filter(|r| r.answered_reuse).count(), 34);
    }
}
