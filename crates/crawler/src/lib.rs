//! # ar-crawler — BitTorrent-DHT crawler for NATed-address detection
//!
//! Implements §3.1 of the paper: crawl the DHT with `get_nodes`, notice IPs
//! that surface with multiple ports, verify with hourly `bt_ping` rounds,
//! and classify an IP as NATed only when one round produces ≥ 2 responses
//! with distinct node_ids on distinct ports. The maximum number of
//! simultaneous responders is the paper's lower bound on users harmed by
//! blocklisting that IP (Figure 8).
//!
//! Every crawl runs on one hourly driver ([`shard`]). The address space is
//! split by /24 prefix into partitions that the same engine steps hour by
//! hour. [`crawl_sharded`] runs one partition per transport on the
//! `ar_simnet::par` worker pool, and a serial [`crawl`] is partition 0 of
//! one. [`crawl_until`], [`resume_until`] and [`resume`] checkpoint and
//! resume a one-partition crawl across crawler outages.
//!
//! ```no_run
//! use ar_crawler::{crawl, CrawlConfig};
//! use ar_dht::{SimNetwork, SimParams};
//! use ar_simnet::alloc::{AllocationPlan, InterestSet};
//! use ar_simnet::{Seed, Universe, UniverseConfig, PERIOD_1};
//!
//! let universe = Universe::generate(Seed(1), &UniverseConfig::small());
//! let alloc = AllocationPlan::build(&universe, PERIOD_1, InterestSet::Observable);
//! let mut net = SimNetwork::new(&universe, &alloc, SimParams::default());
//! let report = crawl(&mut net, &CrawlConfig::new(PERIOD_1));
//! println!("NATed IPs found: {}", report.stats.natted_ips);
//! ```

pub mod config;
pub mod engine;
pub mod log;
pub mod observations;
pub mod shard;

pub use config::{CrawlConfig, RetryPolicy, Scope};
pub use engine::{CrawlCheckpoint, CrawlReport, CrawlStats};
pub use log::{Direction, MessageKind, MessageLog, MessageRecord};
pub use observations::{IpClass, IpObservation, NatEvidence, PortRecord, Sighting};
pub use shard::{crawl, crawl_sharded, crawl_until, resume, resume_until};

#[cfg(test)]
mod tests {
    use super::*;
    use ar_dht::{SimNetwork, SimParams};
    use ar_simnet::alloc::{AllocationPlan, InterestSet};
    use ar_simnet::codec;
    use ar_simnet::config::UniverseConfig;
    use ar_simnet::ip::Prefix24;
    use ar_simnet::rng::Seed;
    use ar_simnet::time::{date, TimeWindow, PERIOD_1};
    use ar_simnet::universe::Universe;

    struct Fx {
        universe: Universe,
        alloc: AllocationPlan,
    }

    impl Fx {
        fn new(seed: u64) -> Self {
            let universe = Universe::generate(Seed(seed), &UniverseConfig::tiny());
            let alloc = AllocationPlan::build(&universe, PERIOD_1, InterestSet::Observable);
            Fx { universe, alloc }
        }
        fn net(&self) -> SimNetwork<'_> {
            SimNetwork::new(&self.universe, &self.alloc, SimParams::default())
        }
    }

    /// A one-week window keeps unit-test crawls quick.
    fn short_window() -> TimeWindow {
        TimeWindow::new(date(2019, 8, 3), date(2019, 8, 10))
    }

    #[test]
    fn crawl_discovers_most_of_the_population() {
        let fx = Fx::new(101);
        let mut net = fx.net();
        let report = crawl(&mut net, &CrawlConfig::new(short_window()));
        let discovered = report.stats.unique_ips as f64;
        // Unique public IPs the BT population can occupy is at most the BT
        // host count; NATs compress it. Expect substantial coverage.
        let bt_hosts = fx.universe.bittorrent_hosts().count() as f64;
        assert!(
            discovered > bt_hosts * 0.3,
            "discovered {discovered} of {bt_hosts} BT hosts"
        );
        assert!(report.stats.get_nodes_sent > 0);
        assert!(report.stats.pings_sent > 0);
        assert!(report.stats.ping_rounds >= 7 * 24);
        // More node_ids than IPs (reboots, NAT sharing) — the 203M vs 48.7M
        // relationship from §4.
        assert!(report.stats.unique_node_ids >= report.stats.unique_ips);
    }

    #[test]
    fn nat_detection_has_perfect_precision_against_ground_truth() {
        let fx = Fx::new(102);
        let mut net = fx.net();
        let report = crawl(&mut net, &CrawlConfig::new(short_window()));
        let mut found = 0;
        for ip in report.natted_ips() {
            found += 1;
            assert!(
                fx.universe.is_truly_natted(ip),
                "false positive: {ip} flagged NATed but ground truth disagrees"
            );
        }
        assert!(found > 0, "tiny universe must yield some NAT detections");
    }

    #[test]
    fn user_bounds_never_exceed_ground_truth() {
        let fx = Fx::new(103);
        let mut net = fx.net();
        let report = crawl(&mut net, &CrawlConfig::new(short_window()));
        for ip in report.natted_ips() {
            let bound = report.user_lower_bound(ip).unwrap();
            let truth = fx.universe.true_nat_user_count(ip).unwrap() as u32;
            assert!(
                bound <= truth,
                "{ip}: detected {bound} users but only {truth} exist"
            );
            assert!(bound >= 2);
        }
    }

    #[test]
    fn scope_restricts_contact_but_not_sightings() {
        let fx = Fx::new(104);
        // Scope: first half of announced prefixes.
        let half: std::sync::Arc<ar_index::PrefixSet> = std::sync::Arc::new(
            fx.universe
                .prefixes
                .iter()
                .take(fx.universe.prefixes.len() / 2)
                .map(|r| r.prefix)
                .collect(),
        );
        let mut net = fx.net();
        let config = CrawlConfig::new(short_window()).with_scope(Scope::Prefixes(half.clone()));
        let report = crawl(&mut net, &config);
        // NAT verdicts only inside scope.
        for ip in report.natted_ips() {
            assert!(half.contains(Prefix24::of(ip)), "{ip} out of scope");
        }
        // But sightings may cover out-of-scope space (we just never contact
        // it).
        let out_of_scope_sighted = report
            .bittorrent_ips()
            .filter(|ip| !half.contains(Prefix24::of(*ip)))
            .count();
        assert!(out_of_scope_sighted > 0);
    }

    #[test]
    fn ping_verification_prevents_false_positives() {
        let fx = Fx::new(105);
        let mut net = fx.net();
        let report = crawl(&mut net, &CrawlConfig::new(short_window()));
        // Discovery-only candidates include port-churners; verified NATs
        // must be a subset.
        let discovery: std::collections::HashSet<_> =
            report.discovery_only_nat_candidates().collect();
        let verified: std::collections::HashSet<_> = report.natted_ips().collect();
        assert!(verified.is_subset(&discovery));
        // And discovery-only overcounts: some candidates are single-user
        // hosts whose port churned.
        let false_candidates = discovery
            .iter()
            .filter(|ip| !fx.universe.is_truly_natted(**ip))
            .count();
        assert!(
            false_candidates > 0,
            "expected discovery-only rule to overcount (it flagged {})",
            discovery.len()
        );
    }

    #[test]
    fn crawl_is_deterministic() {
        let fx = Fx::new(106);
        let r1 = crawl(&mut fx.net(), &CrawlConfig::new(short_window()));
        let r2 = crawl(&mut fx.net(), &CrawlConfig::new(short_window()));
        assert_eq!(r1.stats.get_nodes_sent, r2.stats.get_nodes_sent);
        assert_eq!(r1.stats.pings_sent, r2.stats.pings_sent);
        assert_eq!(r1.stats.unique_ips, r2.stats.unique_ips);
        let mut n1: Vec<_> = r1.natted_ips().collect();
        let mut n2: Vec<_> = r2.natted_ips().collect();
        n1.sort();
        n2.sort();
        assert_eq!(n1, n2);
    }

    #[test]
    fn adaptive_rate_backs_off_under_dead_air() {
        // Point the crawler at a universe through a lossy fabric: the AIMD
        // controller must shrink traffic relative to the fixed-rate crawl.
        let fx = Fx::new(112);
        let window = TimeWindow::new(date(2019, 8, 3), date(2019, 8, 8));
        let lossy = ar_dht::SimParams {
            query_loss: 0.6,
            reply_loss: 0.6,
            ..ar_dht::SimParams::default()
        };

        let fixed = {
            let mut net = SimNetwork::new(&fx.universe, &fx.alloc, lossy.clone());
            crawl(&mut net, &CrawlConfig::new(window)).stats
        };
        let adaptive = {
            let mut net = SimNetwork::new(&fx.universe, &fx.alloc, lossy);
            let mut config = CrawlConfig::new(window);
            config.adaptive_rate = true;
            crawl(&mut net, &config).stats
        };
        // Dead air (<20% responses) must throttle the crawl's traffic:
        // `get_nodes` plus verification pings. The frontier runs dry at this
        // loss, so the hourly discovery budget never binds and the backoff
        // shows in the stretched ping rounds.
        let fixed_sent = fixed.get_nodes_sent + fixed.pings_sent;
        let adaptive_sent = adaptive.get_nodes_sent + adaptive.pings_sent;
        assert!(
            (adaptive_sent as f64) < (fixed_sent as f64) * 0.8,
            "adaptive sent {adaptive_sent} messages vs fixed {fixed_sent}"
        );
        // It still makes progress.
        assert!(adaptive.unique_ips > 0);
    }

    #[test]
    fn client_versions_are_recorded_from_replies() {
        let fx = Fx::new(111);
        let mut net = fx.net();
        let window = TimeWindow::new(date(2019, 8, 3), date(2019, 8, 5));
        let report = crawl(&mut net, &CrawlConfig::new(window));
        let with_version = report
            .observations
            .values()
            .flat_map(|o| o.ports.values())
            .filter(|p| p.version.is_some())
            .count();
        assert!(
            with_version > 50,
            "responding ports carry versions: {with_version}"
        );
        // Advertised-only ports have none.
        let advertised_only = report
            .observations
            .values()
            .flat_map(|o| o.ports.values())
            .filter(|p| !p.confirmed_live)
            .all(|p| p.version.is_none());
        assert!(advertised_only);
    }

    #[test]
    fn checkpoint_resume_equals_uninterrupted_crawl() {
        let fx = Fx::new(110);
        let window = TimeWindow::new(date(2019, 8, 3), date(2019, 8, 7));
        let mut config = CrawlConfig::new(window);
        // Retain log records so the comparison covers the message log the
        // checkpoint carries across the restart.
        config.log_head = 32;
        config.log_tail = 32;

        // Uninterrupted reference.
        let full = {
            let mut net = fx.net();
            crawl(&mut net, &config)
        };

        // Split run over one network instance (the RNG stream continues
        // across the checkpoint, as it would for one long-lived process
        // serialising its state to disk).
        let resumed = {
            let mut net = fx.net();
            let stop = date(2019, 8, 5);
            let checkpoint = crawl_until(&mut net, &config, stop);
            assert_eq!(checkpoint.resume_at, stop);
            // Round-trip through the codec, as a real checkpoint file would.
            let bytes = codec::to_bytes(&checkpoint);
            let restored: CrawlCheckpoint = codec::decode_all(&bytes).expect("checkpoint decodes");
            assert_eq!(
                codec::to_bytes(&restored),
                bytes,
                "checkpoint re-encodes identically"
            );
            resume(&mut net, &config, restored)
        };

        assert_eq!(full.stats.get_nodes_sent, resumed.stats.get_nodes_sent);
        assert_eq!(full.stats.pings_sent, resumed.stats.pings_sent);
        assert_eq!(full.stats.unique_ips, resumed.stats.unique_ips);
        assert_eq!(full.stats.natted_ips, resumed.stats.natted_ips);
        assert_eq!(full.log.sent, resumed.log.sent);
        assert!(full.log.truncated(), "the log must span the checkpoint");
        assert_eq!(
            codec::to_bytes(&full),
            codec::to_bytes(&resumed),
            "resumed report, message log included, equals the uninterrupted one"
        );
    }

    #[test]
    fn ping_round_interval_is_honoured() {
        let fx = Fx::new(109);
        let window = TimeWindow::new(date(2019, 8, 3), date(2019, 8, 6));
        let hourly = {
            let mut net = fx.net();
            crawl(&mut net, &CrawlConfig::new(window)).stats
        };
        let four_hourly = {
            let mut net = fx.net();
            let mut config = CrawlConfig::new(window);
            config.ping_round_every = ar_simnet::time::SimDuration::from_hours(4);
            crawl(&mut net, &config).stats
        };
        assert_eq!(hourly.ping_rounds, 72);
        assert_eq!(four_hourly.ping_rounds, 18);
        assert!(four_hourly.pings_sent < hourly.pings_sent);
    }

    #[test]
    fn message_log_counters_match_stats() {
        let fx = Fx::new(108);
        let mut net = fx.net();
        let mut config = CrawlConfig::new(TimeWindow::new(date(2019, 8, 3), date(2019, 8, 5)));
        config.log_head = 50;
        config.log_tail = 50;
        let report = crawl(&mut net, &config);
        assert_eq!(
            report.log.sent,
            report.stats.get_nodes_sent + report.stats.pings_sent
        );
        assert_eq!(report.log.received, report.stats.replies_received);
        assert!(report.log.retained() <= 100);
        assert!(report.log.truncated(), "full crawls exceed retention");
        // Sent records are time-ordered (replies interleave at their
        // arrival times, which may trail the next send).
        let sent_times: Vec<_> = report
            .log
            .records()
            .filter(|r| r.direction == Direction::Sent)
            .map(|r| r.time)
            .collect();
        assert!(sent_times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn response_rate_in_plausible_band() {
        let fx = Fx::new(107);
        let mut net = fx.net();
        let report = crawl(&mut net, &CrawlConfig::new(short_window()));
        let rate = report.stats.response_rate();
        // The paper measured 48.6%; the simulation should land in the same
        // region (offline hosts + stale ports + datagram loss).
        assert!(rate > 0.15 && rate < 0.85, "response rate {rate}");
    }
}
