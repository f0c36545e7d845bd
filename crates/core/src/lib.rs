//! # address-reuse — quantifying the impact of blocklisting reused addresses
//!
//! The top-level library of this workspace: a full reproduction of
//! *"Quantifying the Impact of Blocklisting in the Age of Address Reuse"*
//! (Ramanathan, Hossain, Mirkovic, Yu, Afroz — ACM IMC 2020).
//!
//! A [`Study`] runs the paper's whole measurement campaign against a
//! seeded synthetic Internet ([`ar_simnet`]):
//!
//! * a BitTorrent-DHT crawl detecting **NATed addresses** and lower bounds
//!   on the users behind them (§3.1, via [`ar_crawler`] over [`ar_dht`]);
//! * the RIPE-Atlas pipeline detecting **dynamically allocated /24s**
//!   (§3.2, via [`ar_atlas`]);
//! * 151 public blocklists collected over the paper's two measurement
//!   periods (§4, via [`ar_blocklists`]);
//! * the Cai-et-al. ICMP census baseline (§5, via [`ar_census`]).
//!
//! The analysis modules then compute every exhibit of the paper's
//! evaluation: [`mod@funnel`] (Fig 4), [`mod@coverage`] (Fig 3),
//! [`perlist`] (Figs 5–6), [`duration`] (Fig 7), [`mod@impact`] (Fig 8),
//! and [`report`] (the §6 public reused-address list). The operator survey
//! (Table 1, Fig 9) lives in [`ar_survey`]. The [`exhibit`] registry puts
//! each exhibit's paper values beside the measured ones, once.
//!
//! ```no_run
//! use address_reuse::{Study, StudyConfig};
//! use ar_simnet::Seed;
//!
//! let study = Study::run(StudyConfig::quick_test(Seed(1)));
//! println!("{}", address_reuse::report::render_summary(&study));
//! ```

pub mod churn;
pub mod coverage;
pub mod duration;
pub mod exhibit;
pub mod funnel;
pub mod greylist;
pub mod impact;
pub mod perlist;
pub mod preassign;
pub mod quality;
pub mod report;
pub mod serving;
pub mod study;

pub use ar_obs::{Event, EventKind, Obs, RunReport};
pub use churn::{churn, ChurnDay, ChurnSeries};
pub use coverage::{coverage, AsCounts, Coverage};
pub use duration::{durations, DurationAnalysis, DurationSummary};
pub use exhibit::{exhibits, render_markdown, render_tsv, write_exhibits, Exhibit};
pub use funnel::{funnel, Funnel};
pub use greylist::{action_for, split_feed, Action, GreylistPolicy, SplitFeed};
pub use impact::{impact, ImpactAnalysis, ImpactSummary};
pub use perlist::{census_per_list, dynamic_per_list, natted_per_list, PerListCounts, ReuseKind};
pub use preassign::{assess_pool, clean_addresses, AddressAssessment};
pub use quality::{render_scorecard, scorecard, ListScore};
pub use report::{
    parse_reused_list, render_reused_list, render_summary, render_universe_json,
    reused_address_list, ReuseEvidence, ReusedAddressEntry,
};
pub use serving::{
    day_reputation_snapshot, day_snapshot_input, reputation_snapshot, snapshot_input,
};
pub use study::{PhaseStatus, Study, StudyConfig, StudyHealth, StudyTimings, FEED_GAP_BRIDGE_DAYS};

#[cfg(test)]
mod tests {
    use super::*;
    use ar_index::IpSet;
    use ar_simnet::rng::Seed;
    use std::sync::OnceLock;

    /// One shared quick study: Study::run is the expensive part, the
    /// metric computations are cheap.
    fn study() -> &'static Study {
        static STUDY: OnceLock<Study> = OnceLock::new();
        STUDY.get_or_init(|| Study::run(StudyConfig::quick_test(Seed(2026))))
    }

    #[test]
    fn funnel_is_monotone_and_populated() {
        let f = funnel(study());
        assert!(f.is_monotone(), "{f:?}");
        assert!(f.bittorrent_ips > 0);
        assert!(f.natted_ips > 0);
        assert!(f.blocklisted_total > 0);
        assert!(f.blocklisted_in_ripe >= f.blocklisted_daily);
    }

    #[test]
    fn nat_detections_match_ground_truth() {
        let s = study();
        for ip in s.natted_ips() {
            assert!(s.universe.is_truly_natted(ip), "false NAT: {ip}");
        }
        for ip in s.natted_blocklisted() {
            let bound = s.nat_user_bound(ip).unwrap();
            let truth = s.universe.true_nat_user_count(ip).unwrap() as u32;
            assert!(bound >= 2 && bound <= truth);
        }
    }

    #[test]
    fn dynamic_detections_match_ground_truth() {
        let s = study();
        for p in &s.atlas.dynamic_prefixes {
            assert!(
                s.universe.true_dynamic_prefixes(false).contains(p),
                "false dynamic prefix {p}"
            );
        }
    }

    #[test]
    fn coverage_shapes() {
        let c = coverage(study());
        assert!(c.ases_blocklisted > 0);
        assert!(c.ases_bt <= c.ases_blocklisted);
        assert!(c.ases_ripe <= c.ases_blocklisted);
        // CDFs end at 1 (or 0 when a category is empty).
        for cdf in [&c.cdf_blocklisted, &c.cdf_bt, &c.cdf_ripe] {
            if let Some(last) = cdf.last() {
                assert!(*last == 0.0 || (*last - 1.0).abs() < 1e-9);
            }
        }
        // Concentration: the top-10 ASes hold a sizable share (paper 27.7%).
        assert!(c.top10_share > 0.1);
        let (_, top_share) = c.top_as.unwrap();
        assert!(top_share > 0.01);
    }

    #[test]
    fn perlist_counts_are_consistent() {
        let s = study();
        let nat = natted_per_list(s);
        let dyn_ = dynamic_per_list(s);
        assert_eq!(nat.counts.len(), s.blocklists.catalog.len());
        // Listings ≥ addresses (an address can sit on several lists).
        assert!(nat.listings as usize >= nat.addresses);
        assert!(dyn_.listings as usize >= dyn_.addresses);
        // Counts sorted descending.
        for w in nat.counts.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Some lists carry no reused addresses (paper: 40% / 47%).
        assert!(nat.lists_with_none > 0);
        assert!(dyn_.lists_with_none > 0);
    }

    #[test]
    fn top10_share_of_all_blocklisted_counts_each_address_once() {
        let s = study();
        let all = s.blocklists.all_ips();
        for counts in [natted_per_list(s), dynamic_per_list(s)] {
            let top10: Vec<IpSet> = (counts.counts.iter().take(10))
                .map(|(list, _)| s.blocklists.ips_of_list(*list))
                .collect();
            let on_top10 = all
                .iter()
                .filter(|ip| top10.iter().any(|list| list.contains(*ip)))
                .count();
            let share = counts.top10_share_of_all_blocklisted;
            // 1.0 exactly when every blocklisted address is on a top-10 list.
            assert_eq!(share == 1.0, on_top10 == all.len(), "{share}");
            assert_eq!(share, on_top10 as f64 / all.len() as f64);
        }
    }

    #[test]
    fn durations_are_bounded_and_computable() {
        // Distribution *shapes* are asserted in tests/end_to_end.rs on a
        // `shape_test` study; tiny universes only support sanity bounds.
        let s = study();
        let d = durations(s).summary();
        assert!(d.mean_days_all > 0.0);
        assert!(d.max_days <= s.config.periods.iter().map(|p| p.days()).max().unwrap() as f64);
        assert!(d.within2_all >= 0.0 && d.within2_all <= 1.0);
    }

    #[test]
    fn impact_bounds_are_sane() {
        let s = study();
        let i = impact(s);
        let summary = i.summary();
        if summary.natted_blocklisted > 0 {
            assert!(summary.max_users >= 2);
            assert!(summary.under_ten >= summary.exactly_two);
        }
        // Series is monotone nondecreasing.
        let series = i.series();
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn reused_list_roundtrip() {
        let s = study();
        let entries = reused_address_list(s);
        assert!(!entries.is_empty());
        let text = render_reused_list(&entries);
        let back = parse_reused_list(&text).unwrap();
        assert_eq!(back.len(), entries.len());
        for (a, b) in entries.iter().zip(&back) {
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.lists, b.lists);
            match (a.evidence, b.evidence) {
                (ReuseEvidence::Natted { users: x }, ReuseEvidence::Natted { users: y }) => {
                    assert_eq!(x, y)
                }
                (ReuseEvidence::DynamicPrefix, ReuseEvidence::DynamicPrefix) => {}
                other => panic!("evidence mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn parse_reused_list_rejects_garbage() {
        assert!(parse_reused_list("1.2.3.4\tnat:x\t3\n").is_err());
        assert!(parse_reused_list("1.2.3.4\twat:1\t3\n").is_err());
        assert!(parse_reused_list("nope\tnat:2\t3\n").is_err());
        assert!(parse_reused_list("# only comments\n").unwrap().is_empty());
    }

    #[test]
    fn summary_renders() {
        let text = render_summary(study());
        assert!(text.contains("NATed + blocklisted"));
        assert!(text.contains("blocklists monitored:        151"));
    }

    #[test]
    fn census_comparison_is_computable() {
        let s = study();
        let census = census_per_list(s);
        // The census has broader (block-level) coverage; it should find a
        // comparable-or-larger set of blocklisted "dynamic" addresses
        // (paper: 29.8K vs 30.6K listings — same ballpark).
        assert!(census.listings > 0);
    }
}
