//! Feed simulation: from malicious activity to blocklist listings.
//!
//! This is where the paper's central problem is manufactured: blocklist
//! maintainers observe *events attributed to public source addresses*, not
//! to the responsible hosts. A spammer behind a NAT taints the gateway
//! address shared by all its neighbours; a bot on a daily-rotating dynamic
//! address taints whichever address it holds today — which someone else
//! holds tomorrow.
//!
//! Listing lifecycle per (list, ip): a caught event opens a listing after a
//! short triage delay; further caught events keep it alive; the listing
//! closes `grace` days after the last observed activity (re-appearing
//! activity after closure opens a *new* listing). That mechanism alone
//! reproduces Figure 7's ordering: dynamic addresses (whose activity stops
//! when the bot rotates away, ≈ a day) are delisted fastest; NATed
//! addresses (infections lasting days–weeks) linger; dedicated abuse hosts
//! stay near the whole window.

use crate::catalog::BlocklistMeta;
use crate::dataset::{BlocklistDataset, Listing};
use ar_simnet::alloc::AllocationPlan;
use ar_simnet::malice::{MaliceCategory, MaliceEvent};
use ar_simnet::par;
use ar_simnet::rng::{mix64, Rng, SmallRng, GOLDEN_GAMMA};
use ar_simnet::stats;
use ar_simnet::time::{SimDuration, SimTime, TimeWindow};
use ar_simnet::universe::Universe;
use std::net::Ipv4Addr;

/// Generate the malicious event stream of one measurement period.
///
/// Events carry the *public address* of the responsible host at event time,
/// pulled from the shared [`AllocationPlan`] — the same address the DHT
/// crawler would see the host on.
pub fn malice_events(
    universe: &Universe,
    alloc: &AllocationPlan,
    period: TimeWindow,
) -> Vec<MaliceEvent> {
    let mut out = Vec::new();
    for host in universe.malicious_hosts() {
        let profile = host.behavior.malice.as_ref().expect("filtered");
        let Some(active) = profile.active_window(&period) else {
            continue;
        };
        let mut rng = universe
            .seed
            .fork_idx(
                "malice-events",
                u64::from(host.id.0) ^ period.start.as_secs(),
            )
            .rng();
        let mut t = active.start;
        while t < active.end {
            if let Some(ip) = alloc.public_ip(universe, host.id, t) {
                out.push(MaliceEvent {
                    time: t,
                    ip,
                    category: profile.category,
                    actor: host.id,
                });
            }
            let gap = stats::sample_exponential(&mut rng, profile.mean_event_gap.as_secs() as f64)
                .max(60.0);
            t += SimDuration(gap as u64);
        }
    }
    out.sort_by_key(|e| (e.actor, e.time));
    out
}

/// How strongly a list of `list_cat` reacts to an event of `event_cat`.
/// Reputation lists ingest everything (at reduced sensitivity); other lists
/// only their own category.
fn category_affinity(list_cat: MaliceCategory, event_cat: MaliceCategory) -> f64 {
    if list_cat == event_cat {
        1.0
    } else if list_cat == MaliceCategory::Reputation {
        0.45
    } else {
        0.0
    }
}

/// Stable per-(list, actor) coin in [0, 1): splitmix64 of the pair.
fn visibility_hash(list: u16, actor: u32) -> f64 {
    let x = mix64((u64::from(list) << 40) ^ u64::from(actor) ^ GOLDEN_GAMMA);
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Run one list's lifecycle over the event stream of one period.
///
/// Each (period, list) pair owns its own forked RNG (see
/// [`listings_for_period`]), which is what makes the per-list loop safe to
/// fan out across threads without changing the output.
fn listings_for_list(
    meta: &BlocklistMeta,
    events: &[MaliceEvent],
    period: TimeWindow,
    rng: &mut SmallRng,
) -> Vec<Listing> {
    let mut out = Vec::new();
    // Events arrive grouped by actor and sorted by time (see
    // `malice_events`); each (list, actor-run) is processed independently,
    // closing a listing when activity on an address lapses.
    let mut open: std::collections::BTreeMap<Ipv4Addr, (SimTime, SimTime)> =
        std::collections::BTreeMap::new();
    let grace = |rng: &mut SmallRng| {
        SimDuration(
            (stats::sample_lognormal(rng, meta.grace_days, 0.5).clamp(0.4, 20.0) * 86_400.0) as u64,
        )
    };
    for event in events {
        let affinity = category_affinity(meta.category, event.category);
        if affinity <= 0.0 {
            continue;
        }
        // A list's sensors either cover an actor's traffic or they
        // don't: without this per-(list, actor) visibility gate, any
        // per-event probability saturates over a burst of dozens of
        // events and every list converges to the same membership —
        // destroying the heavy-tailed list-size distribution the paper
        // reports (top-10 lists hold 53–72% of listings).
        let visibility = (meta.catch_rate * 6.0 * affinity).min(1.0);
        let coin = visibility_hash(meta.id.0, event.actor.0);
        if coin >= visibility {
            continue;
        }
        // Within coverage, individual events still get sampled.
        if !rng.gen_bool(0.35) {
            continue;
        }
        // Triage delay before the address appears on the feed.
        let start = event.time + SimDuration(rng.gen_range(0..86_400));
        match open.get_mut(&event.ip) {
            Some((_, last)) if start.saturating_sub(*last) <= SimDuration::from_days(3) => {
                *last = (*last).max(start);
            }
            Some(entry) => {
                // Activity resumed long after: close the old listing and
                // open a fresh one.
                let end = (entry.1 + grace(rng)).min(period.end);
                out.push(Listing {
                    list: meta.id,
                    ip: event.ip,
                    start: entry.0.min(period.end),
                    end,
                });
                *entry = (start, start);
            }
            None => {
                open.insert(event.ip, (start, start));
            }
        }
    }
    // BTreeMap drains in address order, so RNG consumption order is
    // deterministic run to run.
    for (ip, (first, last)) in open {
        let end = (last + grace(rng)).min(period.end);
        if first < end {
            out.push(Listing {
                list: meta.id,
                ip,
                start: first.min(period.end),
                end,
            });
        }
    }
    out.retain(|l| l.start < l.end);
    out
}

/// Run every list's lifecycle over the event stream of one period, fanning
/// the per-list work (the hottest loop of dataset generation — every list
/// scans every event) across up to `threads` scoped worker threads.
///
/// Determinism: each (period, list) derives its own RNG from the universe
/// seed, and [`par::par_map`] returns results in catalog order, so the
/// listing stream is identical for any thread count.
fn listings_for_period(
    universe: &Universe,
    catalog: &[BlocklistMeta],
    events: &[MaliceEvent],
    period: TimeWindow,
    period_idx: usize,
    threads: usize,
) -> Vec<Listing> {
    let per_list = par::par_map(threads, catalog, |meta| {
        let mut rng = universe
            .seed
            .fork_idx(
                "blocklist-feed",
                ((period_idx as u64) << 16) | u64::from(meta.id.0),
            )
            .rng();
        listings_for_list(meta, events, period, &mut rng)
    });
    per_list.into_iter().flatten().collect()
}

/// Produce the full dataset over the given measurement periods, using the
/// ambient thread budget ([`par::max_threads`]).
pub fn generate_dataset(
    universe: &Universe,
    alloc_per_period: &[(TimeWindow, &AllocationPlan)],
    catalog: Vec<BlocklistMeta>,
) -> BlocklistDataset {
    generate_dataset_threaded(universe, alloc_per_period, catalog, par::max_threads())
}

/// [`generate_dataset`] with an explicit worker-thread count. The output is
/// byte-identical for every `threads` value.
pub fn generate_dataset_threaded(
    universe: &Universe,
    alloc_per_period: &[(TimeWindow, &AllocationPlan)],
    catalog: Vec<BlocklistMeta>,
    threads: usize,
) -> BlocklistDataset {
    let mut listings = Vec::new();
    let mut periods = Vec::new();
    for (period_idx, (period, alloc)) in alloc_per_period.iter().enumerate() {
        periods.push(*period);
        let events = malice_events(universe, alloc, *period);
        listings.extend(listings_for_period(
            universe, &catalog, &events, *period, period_idx, threads,
        ));
    }
    BlocklistDataset::new(catalog, periods, listings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::build_catalog;
    use ar_simnet::alloc::InterestSet;
    use ar_simnet::config::UniverseConfig;
    use ar_simnet::hosts::Attachment;
    use ar_simnet::rng::Seed;
    use ar_simnet::time::PERIOD_1;

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
        fn dataset(&self) -> BlocklistDataset {
            generate_dataset(&self.universe, &[(PERIOD_1, &self.alloc)], build_catalog())
        }
    }

    #[test]
    fn events_use_current_public_addresses() {
        let fx = Fx::new(201);
        let events = malice_events(&fx.universe, &fx.alloc, PERIOD_1);
        assert!(!events.is_empty());
        for e in events.iter().take(500) {
            let actor = fx.universe.host(e.actor);
            match actor.attachment {
                Attachment::Static { ip } => assert_eq!(e.ip, ip),
                Attachment::NatUser { nat, .. } => {
                    assert_eq!(
                        e.ip,
                        fx.universe.nat(nat).ip,
                        "NAT events taint the gateway"
                    )
                }
                Attachment::DynamicSub { .. } => {
                    assert_eq!(
                        fx.alloc.public_ip(&fx.universe, e.actor, e.time),
                        Some(e.ip)
                    );
                }
            }
        }
    }

    #[test]
    fn dataset_is_deterministic() {
        let fx = Fx::new(202);
        let a = fx.dataset();
        let b = fx.dataset();
        assert_eq!(a.listings, b.listings);
    }

    #[test]
    fn thread_count_does_not_change_listings() {
        let fx = Fx::new(202);
        let serial =
            generate_dataset_threaded(&fx.universe, &[(PERIOD_1, &fx.alloc)], build_catalog(), 1);
        let parallel =
            generate_dataset_threaded(&fx.universe, &[(PERIOD_1, &fx.alloc)], build_catalog(), 8);
        assert_eq!(serial.listings, parallel.listings);
    }

    #[test]
    fn listings_stay_within_period() {
        let fx = Fx::new(203);
        let d = fx.dataset();
        assert!(d.total_listings() > 0);
        for l in &d.listings {
            assert!(l.start < l.end);
            assert!(l.end <= PERIOD_1.end);
            // Starts may lag events by the triage delay but never precede
            // the period.
            assert!(l.start >= PERIOD_1.start);
        }
    }

    #[test]
    fn top_lists_dominate_listings() {
        let fx = Fx::new(204);
        let d = fx.dataset();
        let mut counts: Vec<usize> = d.listings_per_list().values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top10: usize = counts.iter().take(10).sum();
        // Paper: the top-10 lists contribute 53–72% of listings. Allow a
        // wide band for the tiny universe.
        let share = top10 as f64 / total as f64;
        assert!(
            (0.35..0.95).contains(&share),
            "top-10 share {share:.2} implausible"
        );
    }

    #[test]
    fn some_addresses_are_multi_listed() {
        let fx = Fx::new(205);
        let d = fx.dataset();
        let multi = d
            .all_ips()
            .iter()
            .filter(|ip| d.lists_containing(*ip).len() >= 2)
            .count();
        assert!(multi > 0, "cross-list corroboration must occur");
        // Listings strictly exceed distinct IPs (the paper's listings ≠
        // addresses distinction).
        assert!(d.total_listings() > d.all_ips().len());
    }

    #[test]
    fn dedicated_hosts_stay_listed_longer_than_dynamic() {
        let fx = Fx::new(206);
        let d = fx.dataset();
        let mut dynamic_days = Vec::new();
        let mut static_days = Vec::new();
        for ip in d.all_ips() {
            let days = d.days_listed(ip) as f64;
            if fx.universe.is_truly_dynamic(ip) {
                dynamic_days.push(days);
            } else if matches!(
                fx.universe.policy_of(ip),
                Some(ar_simnet::universe::AddressPolicy::Static)
            ) {
                static_days.push(days);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(!dynamic_days.is_empty() && !static_days.is_empty());
        assert!(
            mean(&dynamic_days) < mean(&static_days),
            "dynamic {:.1}d vs static {:.1}d",
            mean(&dynamic_days),
            mean(&static_days)
        );
    }
}
