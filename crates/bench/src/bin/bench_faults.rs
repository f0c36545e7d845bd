//! `bench_faults` — the robustness report: detector quality under
//! correlated failures.
//!
//! Sweeps fault intensity over the `quick_test` study configuration (with
//! the resilient ping-retry policy, so recovery machinery is exercised) and
//! compares each faulted run against a fault-free baseline:
//!
//! * NAT detector: precision against ground truth (stays 1.0 — the §3.1
//!   rule never confirms on noise) and recall of the baseline's detections;
//! * Atlas dynamic prefixes and census dynamic blocks: precision against
//!   ground truth plus baseline recall;
//! * coverage deltas: blocklist listings/addresses, crawl traffic, retries
//!   recovered, Atlas log size;
//! * the executed fault schedule and every `Degraded` phase annotation.
//!
//! Writes `BENCH_faults.json` at the repository root, rendered line by
//! line with strings quoted by `ar_obs::json::quote`. The study seed is
//! fixed at 2020, the seed the committed golden pins. Flag: `--threads N`.

use address_reuse::{Study, StudyConfig};
use ar_crawler::RetryPolicy;
use ar_faults::FaultSpec;
use ar_index::IpSet;
use ar_obs::json::quote;
use ar_simnet::ip::Prefix24;
use ar_simnet::rng::Seed;
use std::collections::BTreeSet;

const INTENSITIES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
/// The study seed the committed `BENCH_faults.json` pins.
const SEED: Seed = Seed(2020);

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What one study run contributes to the comparison.
struct Observed {
    natted: IpSet,
    natted_true: usize,
    dynamic_prefixes: BTreeSet<Prefix24>,
    dynamic_true: usize,
    census_blocks: BTreeSet<Prefix24>,
    census_true: usize,
    listings: usize,
    blocklisted_ips: usize,
    pings_sent: u64,
    replies: u64,
    ping_retries: u64,
    pings_recovered: u64,
    atlas_entries: usize,
    census_suppressed: u64,
    health: Vec<String>,
    plan_json: String,
    events_json: String,
}

fn observe(study: &Study) -> Observed {
    let natted = study.natted_ips();
    let natted_true = natted
        .iter()
        .filter(|ip| study.universe.is_truly_natted(*ip))
        .count();
    let truth_all = study.universe.true_dynamic_prefixes(false);
    let dynamic_prefixes = study.atlas.dynamic_prefixes.clone();
    let dynamic_true = dynamic_prefixes
        .iter()
        .filter(|p| truth_all.contains(p))
        .count();
    let census_blocks: BTreeSet<Prefix24> = study.census.dynamic_blocks.iter().copied().collect();
    let census_true = census_blocks
        .iter()
        .filter(|p| truth_all.contains(p))
        .count();
    let totals = study.crawl_totals();
    let plan_json = match &study.fault_plan {
        None => "null".to_string(),
        Some(plan) => {
            let s = plan.summary();
            format!(
                "{{\"intensity\": {}, \"blackouts\": {}, \"crawler_outages\": {}, \
                 \"feed_missed_days\": {}, \"feed_truncated\": {}, \"feed_corrupt\": {}, \
                 \"atlas_gaps\": {}, \"loss_bursts\": {}}}",
                s.intensity,
                s.blackouts,
                s.crawler_outages,
                s.feed_missed_days,
                s.feed_truncated,
                s.feed_corrupt,
                s.atlas_gaps,
                s.loss_bursts
            )
        }
    };
    // Per-kind event totals from the run's instrumentation, rendered in the
    // report's canonical (sorted) order.
    let events_json = match &study.run_report {
        None => "null".to_string(),
        Some(report) => {
            let pairs: Vec<String> = report
                .event_counts
                .iter()
                .map(|(kind, n)| format!("{}: {n}", quote(kind)))
                .collect();
            format!("{{{}}}", pairs.join(", "))
        }
    };
    Observed {
        natted_true,
        natted,
        dynamic_true,
        dynamic_prefixes,
        census_true,
        census_blocks,
        listings: study.blocklists.listings.len(),
        blocklisted_ips: study.blocklists.all_ips().len(),
        pings_sent: totals.pings_sent,
        replies: totals.replies_received,
        ping_retries: totals.ping_retries,
        pings_recovered: totals.pings_recovered,
        atlas_entries: study.atlas_log.entries.len(),
        census_suppressed: study.census.blackout_suppressed,
        health: study.health.degraded_reasons(),
        plan_json,
        events_json,
    }
}

fn detector_json(
    detected: usize,
    true_pos: usize,
    baseline_kept: usize,
    baseline: usize,
) -> String {
    format!(
        "{{\"detected\": {detected}, \"true_positives\": {true_pos}, \
         \"precision\": {:.4}, \"recall_vs_baseline\": {:.4}}}",
        ratio(true_pos, detected),
        ratio(baseline_kept, baseline)
    )
}

fn sweep_point_json(intensity: f64, run: &Observed, base: &Observed) -> String {
    let nat_kept = run.natted.intersection_count(&base.natted);
    let dyn_kept = run
        .dynamic_prefixes
        .intersection(&base.dynamic_prefixes)
        .count();
    let census_kept = run.census_blocks.intersection(&base.census_blocks).count();
    let health: Vec<String> = run.health.iter().map(|r| quote(r)).collect();
    format!(
        "    {{\n      \"intensity\": {intensity},\n      \"plan\": {},\n      \
         \"nat\": {},\n      \"dynamic_prefixes\": {},\n      \"census_blocks\": {},\n      \
         \"coverage\": {{\"listings\": {}, \"listings_delta\": {}, \"blocklisted_ips\": {}, \
         \"ips_delta\": {}, \"crawl_pings_sent\": {}, \"crawl_replies\": {}, \
         \"ping_retries\": {}, \"pings_recovered\": {}, \"atlas_log_entries\": {}, \
         \"census_replies_suppressed\": {}}},\n      \"events\": {},\n      \"health\": [{}]\n    }}",
        run.plan_json,
        detector_json(run.natted.len(), run.natted_true, nat_kept, base.natted.len()),
        detector_json(
            run.dynamic_prefixes.len(),
            run.dynamic_true,
            dyn_kept,
            base.dynamic_prefixes.len()
        ),
        detector_json(run.census_blocks.len(), run.census_true, census_kept, base.census_blocks.len()),
        run.listings,
        run.listings as i64 - base.listings as i64,
        run.blocklisted_ips,
        run.blocklisted_ips as i64 - base.blocklisted_ips as i64,
        run.pings_sent,
        run.replies,
        run.ping_retries,
        run.pings_recovered,
        run.atlas_entries,
        run.census_suppressed,
        run.events_json,
        health.join(", ")
    )
}

/// Parse `--threads N` (`None` = `AR_THREADS`, else every core); anything
/// else exits with status 2.
fn parse_threads() -> Option<usize> {
    let mut threads = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        match pair[0].as_str() {
            "--threads" => {
                threads = Some(pair.get(1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a numeric value");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!("usage: bench_faults [--threads N]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other:?}; try --help");
                std::process::exit(2);
            }
        }
    }
    threads
}

fn main() {
    let threads = parse_threads();

    let configure = |intensity: Option<f64>| -> StudyConfig {
        let mut config = StudyConfig::quick_test(SEED);
        config.threads = threads;
        config.ping_retry = RetryPolicy::resilient();
        config.faults = intensity.map(|i| FaultSpec::new(SEED.fork("fault-sweep"), i));
        config
    };

    eprintln!("[bench_faults] baseline (fault-free) run…");
    let baseline = observe(&Study::run(configure(None)));
    eprintln!(
        "[bench_faults] baseline: {} NATed IPs, {} dynamic prefixes, {} listings",
        baseline.natted.len(),
        baseline.dynamic_prefixes.len(),
        baseline.listings
    );

    let mut points = Vec::new();
    for &intensity in &INTENSITIES {
        eprintln!("[bench_faults] sweep @ intensity {intensity}…");
        let study = Study::run(configure(Some(intensity)));
        let run = observe(&study);
        if intensity == 0.0 {
            assert_eq!(
                run.natted.len(),
                baseline.natted.len(),
                "zero-intensity sweep point must match the fault-free baseline"
            );
            assert!(run.health.is_empty(), "zero intensity must run clean");
        }
        eprintln!(
            "[bench_faults]   {} NATed, {} dynamic, {} listings, {} degraded phase(s)",
            run.natted.len(),
            run.dynamic_prefixes.len(),
            run.listings,
            run.health.len()
        );
        points.push(sweep_point_json(intensity, &run, &baseline));
    }

    let json = format!(
        "{{\n  \"bench\": \"faults\",\n  \"seed\": {},\n  \"config\": \"quick_test + RetryPolicy::resilient\",\n  \
         \"baseline\": {{\"natted_ips\": {}, \"dynamic_prefixes\": {}, \"census_blocks\": {}, \
         \"listings\": {}, \"blocklisted_ips\": {}, \"crawl_pings_sent\": {}, \"atlas_log_entries\": {}}},\n  \
         \"sweep\": [\n{}\n  ]\n}}\n",
        SEED.0,
        baseline.natted.len(),
        baseline.dynamic_prefixes.len(),
        baseline.census_blocks.len(),
        baseline.listings,
        baseline.blocklisted_ips,
        baseline.pings_sent,
        baseline.atlas_entries,
        points.join(",\n")
    );

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_faults.json");
    std::fs::write(&out, &json).expect("write BENCH_faults.json");
    println!("{json}");
    eprintln!("[bench_faults] wrote {}", out.display());
}
