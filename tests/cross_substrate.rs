//! Cross-substrate consistency: the same ground truth must surface
//! coherently in every measurement channel (DHT crawl, blocklists, Atlas
//! logs, census) — the property that makes the joined analyses meaningful.

use ar_blocklists::{build_catalog, generate_dataset, malice_events};
use ar_crawler::{crawl, CrawlConfig, Scope};
use ar_dht::{DhtPopulation, SimNetwork, SimParams};
use ar_simnet::alloc::{AllocationPlan, InterestSet};
use ar_simnet::hosts::Attachment;
use ar_simnet::ip::Prefix24;
use ar_simnet::time::{date, SimDuration, TimeWindow};
use ar_simnet::{Seed, Universe, UniverseConfig};
use std::collections::HashSet;
use std::sync::Arc;

fn window() -> TimeWindow {
    TimeWindow::new(date(2019, 8, 3), date(2019, 8, 13))
}

fn fixture() -> (Universe, AllocationPlan) {
    let universe = Universe::generate(Seed(31337), &UniverseConfig::tiny());
    let alloc = AllocationPlan::build(&universe, window(), InterestSet::Observable);
    (universe, alloc)
}

#[test]
fn malice_events_and_dht_share_addresses() {
    let (universe, alloc) = fixture();
    let events = malice_events(&universe, &alloc, window());
    let pop = DhtPopulation::new(&universe, &alloc);

    // For malicious BitTorrent hosts, the address the blocklists see at
    // time t is the address the DHT endpoint uses at time t.
    let mut checked = 0;
    for e in &events {
        let host = universe.host(e.actor);
        if !host.behavior.bittorrent {
            continue;
        }
        if let Some(ep) = pop.endpoint(e.actor, e.time) {
            assert_eq!(
                *ep.ip(),
                e.ip,
                "substrates disagree on {}'s address at {}",
                e.actor,
                e.time
            );
            checked += 1;
        }
    }
    assert!(checked > 20, "need real overlap to validate ({checked})");
}

#[test]
fn nat_gateway_taint_reaches_blocklists_and_crawler() {
    let (universe, alloc) = fixture();
    let dataset = generate_dataset(&universe, &[(window(), &alloc)], build_catalog());
    let blocklisted = dataset.all_ips();

    // Ground truth: NAT gateways with a malicious user *active during the
    // test window* (activity offsets span the full measurement period, so
    // many actors simply haven't started yet in a 10-day window).
    let tainted_gateways: HashSet<_> = universe
        .hosts
        .iter()
        .filter(|h| {
            h.behavior
                .malice
                .as_ref()
                .and_then(|m| m.active_window(&window()))
                .is_some()
        })
        .filter_map(|h| match h.attachment {
            Attachment::NatUser { nat, .. } => Some(universe.nat(nat).ip),
            _ => None,
        })
        .collect();
    assert!(!tainted_gateways.is_empty());
    // Most tainted gateways end up blocklisted (catch rates are high enough
    // in test universes).
    let listed = tainted_gateways
        .iter()
        .filter(|ip| blocklisted.contains(**ip))
        .count();
    assert!(
        listed * 2 >= tainted_gateways.len(),
        "{listed}/{} tainted gateways listed",
        tainted_gateways.len()
    );

    // And the crawler, when scoped to blocklisted space like the paper's,
    // only ever verdicts inside that space.
    let scope = Arc::new(blocklisted.prefixes());
    let mut net = SimNetwork::new(&universe, &alloc, SimParams::default());
    let report = crawl(
        &mut net,
        &CrawlConfig::new(window()).with_scope(Scope::Prefixes(Arc::clone(&scope))),
    );
    for ip in report.natted_ips() {
        assert!(scope.contains(Prefix24::of(ip)));
        assert!(universe.is_truly_natted(ip));
    }
}

#[test]
fn dynamic_blocklisted_addresses_lie_in_simulated_pools() {
    let (universe, alloc) = fixture();
    let dataset = generate_dataset(&universe, &[(window(), &alloc)], build_catalog());
    let mut dynamic_listed = 0;
    for ip in dataset.all_ips() {
        if universe.is_truly_dynamic(ip) {
            dynamic_listed += 1;
            // The listing must trace back to a simulated holder at listing
            // time (give the triage delay ±2 days of slack).
            let listings = dataset.listings_of_ip(ip);
            let any_holder = listings.iter().any(|l| {
                // Scan at lease granularity: fast-pool holds can be as
                // short as 15 minutes.
                let mut t = l.start.saturating_sub_duration(SimDuration::from_days(2));
                let mut found = false;
                while t < l.start + SimDuration::from_days(1) {
                    if alloc.holder_of(ip, t).is_some() {
                        found = true;
                        break;
                    }
                    t += SimDuration::from_mins(15);
                }
                found
            });
            assert!(any_holder, "{ip} listed with no simulated holder nearby");
        }
    }
    assert!(
        dynamic_listed > 5,
        "dynamic listings exist ({dynamic_listed})"
    );
}

#[test]
fn observable_interest_set_covers_every_event_actor() {
    let (universe, alloc) = fixture();
    let events = malice_events(&universe, &alloc, window());
    // Every dynamic-attached actor that produced an event must have been
    // simulated by the Observable plan (otherwise events would silently
    // vanish for unsimulated hosts).
    for e in &events {
        if matches!(
            universe.host(e.actor).attachment,
            Attachment::DynamicSub { .. }
        ) {
            assert!(
                alloc.timeline(e.actor).is_some(),
                "{} emitted events without a timeline",
                e.actor
            );
        }
    }
}
