//! Daily snapshots ↔ listings.
//!
//! The paper's pipeline did not observe listing intervals directly: it
//! pulled each feed once a day for 83 days and *reconstructed* presence
//! intervals from consecutive snapshots. This module provides both
//! directions —
//!
//! * [`daily_snapshots`]: what a collector would have downloaded each day,
//! * [`listings_from_snapshots`]: the reconstruction (an address present
//!   on consecutive days is one listing; a gap ends it),
//!
//! so the analysis can run on snapshot data exactly as the real study did,
//! and tests can verify the reconstruction loses nothing but sub-day
//! timing.

use crate::catalog::ListId;
use crate::dataset::{BlocklistDataset, Listing};
use ar_faults::{coin, FaultPlan, FeedFaultKind};
use ar_simnet::codec::{self, Codec};
use ar_simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// One day's pull of one feed.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub list: ListId,
    /// Midnight timestamp of the pull.
    pub day: SimTime,
    pub members: BTreeSet<Ipv4Addr>,
}

ar_simnet::codec_struct!(Snapshot { list, day, members });

/// Serialise one snapshot into the flat big-endian record the `ar-store`
/// freezer preserves: `list:u16 day:u64 count:u32 member:u32…`, the
/// snapshot's [`Codec`] encoding. The freezer adds its own framing and
/// checksum around this payload.
pub fn encode_snapshot_record(snap: &Snapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(14 + 4 * snap.members.len());
    snap.encode(&mut out);
    out
}

/// Inverse of [`encode_snapshot_record`]. Total: short, oversized or
/// internally inconsistent payloads (a duplicate member row, which would
/// silently shrink the set) come back as `None`, never a panic — the
/// freezer hands this function whatever survived on disk.
pub fn decode_snapshot_record(buf: &[u8]) -> Option<Snapshot> {
    codec::decode_all(buf)
}

/// Materialise the daily snapshots a collector would have taken for
/// `list` across the dataset's measurement periods.
pub fn daily_snapshots(dataset: &BlocklistDataset, list: ListId) -> Vec<Snapshot> {
    let mut out = Vec::new();
    for period in &dataset.periods {
        for day in period.days_iter() {
            out.push(Snapshot {
                list,
                day,
                members: dataset.members_at(list, day).into_iter().collect(),
            });
        }
    }
    out
}

/// Reconstruct listings from a day-ordered snapshot sequence (one list).
///
/// Resolution is one day: a listing's start is the first day it appears,
/// its end the day after it was last seen. Gaps of one or more days split
/// listings, exactly as the paper's differencing would.
pub fn listings_from_snapshots(snapshots: &[Snapshot]) -> Vec<Listing> {
    let mut open: BTreeMap<Ipv4Addr, (SimTime, SimTime)> = BTreeMap::new();
    let mut out = Vec::new();
    let day = SimDuration::from_days(1);

    for snap in snapshots {
        // Close listings for addresses that disappeared (or whose snapshot
        // stream jumped periods: a gap > 1 day also closes).
        let mut closed: Vec<Ipv4Addr> = Vec::new();
        for (ip, (start, last)) in &open {
            let contiguous = snap.day - *last <= day;
            if !snap.members.contains(ip) || !contiguous {
                out.push(Listing {
                    list: snap.list,
                    ip: *ip,
                    start: *start,
                    end: *last + day,
                });
                closed.push(*ip);
            }
        }
        for ip in &closed {
            open.remove(ip);
        }
        for ip in &snap.members {
            open.entry(*ip)
                .and_modify(|(_, last)| *last = snap.day)
                .or_insert((snap.day, snap.day));
        }
    }
    if let Some(last_snap) = snapshots.last() {
        for (ip, (start, last)) in open {
            out.push(Listing {
                list: last_snap.list,
                ip,
                start,
                end: last + day,
            });
        }
    }
    out.sort_by_key(|l| (l.ip, l.start));
    out
}

/// Rebuild a whole dataset through the snapshot channel — what the real
/// collection pipeline produces from raw daily pulls.
pub fn dataset_via_snapshots(dataset: &BlocklistDataset) -> BlocklistDataset {
    let mut listings = Vec::new();
    for meta in &dataset.catalog {
        let snaps = daily_snapshots(dataset, meta.id);
        if !snaps.is_empty() {
            listings.extend(listings_from_snapshots(&snaps));
        }
    }
    BlocklistDataset::new(dataset.catalog.clone(), dataset.periods.clone(), listings)
}

/// What a fault plan did to one feed's snapshot stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeedDamage {
    /// Collection days whose snapshot never materialised.
    pub missed_days: usize,
    /// Snapshots cut short (leading fraction kept).
    pub truncated: usize,
    /// Snapshots with line-level corruption.
    pub corrupt: usize,
    /// Member rows lost to truncation + corruption.
    pub rows_lost: u64,
}

impl std::ops::AddAssign for FeedDamage {
    fn add_assign(&mut self, o: FeedDamage) {
        self.missed_days += o.missed_days;
        self.truncated += o.truncated;
        self.corrupt += o.corrupt;
        self.rows_lost += o.rows_lost;
    }
}

/// Damage a feed's daily snapshots according to `plan`: missed collection
/// days vanish entirely, truncated files keep only their leading entries,
/// and corrupt files lose individual lines (decided by the plan's
/// stateless coin, so damage is identical across runs and thread counts).
pub fn apply_feed_faults(
    snapshots: Vec<Snapshot>,
    plan: &FaultPlan,
) -> (Vec<Snapshot>, FeedDamage) {
    let mut damage = FeedDamage::default();
    let mut out = Vec::with_capacity(snapshots.len());
    for mut snap in snapshots {
        match plan.feed_fault(snap.list.0, snap.day) {
            None => out.push(snap),
            Some(FeedFaultKind::MissedDay) => damage.missed_days += 1,
            Some(FeedFaultKind::Truncated { keep }) => {
                let total = snap.members.len();
                let kept = (keep * total as f64).round() as usize;
                snap.members = snap.members.into_iter().take(kept).collect();
                damage.truncated += 1;
                damage.rows_lost += (total - snap.members.len()) as u64;
                out.push(snap);
            }
            Some(FeedFaultKind::CorruptLines { drop }) => {
                let total = snap.members.len();
                let (list, day) = (u64::from(snap.list.0), snap.day.day_index());
                snap.members.retain(|ip| {
                    !coin::flip(drop, &[plan.seed.0, list, day, u64::from(u32::from(*ip))])
                });
                damage.corrupt += 1;
                damage.rows_lost += (total - snap.members.len()) as u64;
                out.push(snap);
            }
        }
    }
    (out, damage)
}

/// One reconstructed listing plus its confidence flag.
#[derive(Debug, Clone, Copy)]
pub struct RecoveredListing {
    pub listing: Listing,
    /// True when the listing bridged ≥ 1 missing collection day — the
    /// address was assumed present on a day nobody looked.
    pub interpolated: bool,
}

/// Gap-tolerant reconstruction output.
#[derive(Debug, Clone, Default)]
pub struct RecoveredListings {
    pub entries: Vec<RecoveredListing>,
    /// Expected collection days with no snapshot in the input.
    pub missing_days: usize,
    /// Total (listing × missing-day) bridges performed.
    pub bridged_days: u64,
}

impl RecoveredListings {
    pub fn listings(&self) -> Vec<Listing> {
        self.entries.iter().map(|e| e.listing).collect()
    }

    pub fn interpolated_count(&self) -> usize {
        self.entries.iter().filter(|e| e.interpolated).count()
    }
}

/// Reconstruct listings from a snapshot stream that may be missing
/// collection days.
///
/// `expected_days` is the full collection grid (every day a snapshot
/// *should* exist for); days in the grid with no snapshot are treated as
/// "nobody looked" rather than "the address was delisted". An address
/// present on both sides of a run of ≤ `max_bridge` consecutive missing
/// days is interpolated across the run as one continuous listing, flagged
/// low-confidence. Absence on a day that *was* collected still closes the
/// listing, and gaps outside the grid (the jump between measurement
/// periods) still split, so with no missing days this is exactly
/// [`listings_from_snapshots`].
pub fn listings_from_snapshots_tolerant(
    snapshots: &[Snapshot],
    expected_days: impl IntoIterator<Item = SimTime>,
    max_bridge: u64,
) -> RecoveredListings {
    let expected: BTreeSet<u64> = expected_days.into_iter().map(|d| d.day_index()).collect();
    let present: BTreeSet<u64> = snapshots.iter().map(|s| s.day.day_index()).collect();
    let missing: BTreeSet<u64> = expected.difference(&present).copied().collect();

    let day = SimDuration::from_days(1);
    // ip → (start, last observed day, bridged any missing day)
    let mut open: BTreeMap<Ipv4Addr, (SimTime, SimTime, bool)> = BTreeMap::new();
    let mut out = RecoveredListings {
        missing_days: missing.len(),
        ..RecoveredListings::default()
    };

    let close = |list: ListId,
                 ip: Ipv4Addr,
                 (start, last, bridged): (SimTime, SimTime, bool),
                 out: &mut RecoveredListings| {
        out.entries.push(RecoveredListing {
            listing: Listing {
                list,
                ip,
                start,
                end: last + day,
            },
            interpolated: bridged,
        });
    };

    for snap in snapshots {
        let mut closed: Vec<Ipv4Addr> = Vec::new();
        let mut bridges: Vec<(Ipv4Addr, u64)> = Vec::new();
        for (ip, state) in &open {
            let gap = snap.day.day_index() - state.1.day_index();
            let bridgeable = gap >= 1
                && gap <= max_bridge + 1
                && (state.1.day_index() + 1..snap.day.day_index()).all(|d| missing.contains(&d));
            if snap.members.contains(ip) && bridgeable {
                if gap > 1 {
                    bridges.push((*ip, gap - 1));
                }
            } else {
                closed.push(*ip);
            }
        }
        for ip in closed {
            if let Some(state) = open.remove(&ip) {
                close(snap.list, ip, state, &mut out);
            }
        }
        for (ip, bridged_days) in bridges {
            if let Some(state) = open.get_mut(&ip) {
                state.2 = true;
                out.bridged_days += bridged_days;
            }
        }
        for ip in &snap.members {
            open.entry(*ip)
                .and_modify(|(_, last, _)| *last = snap.day)
                .or_insert((snap.day, snap.day, false));
        }
    }
    if let Some(last_snap) = snapshots.last() {
        for (ip, state) in std::mem::take(&mut open) {
            close(last_snap.list, ip, state, &mut out);
        }
    }
    out.entries.sort_by_key(|e| (e.listing.ip, e.listing.start));
    out
}

/// Aggregate degradation across a whole dataset's faulted collection run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeedDegradation {
    pub damage: FeedDamage,
    /// Listings that bridged at least one missing collection day.
    pub interpolated_listings: usize,
    pub bridged_days: u64,
}

impl FeedDegradation {
    pub fn is_clean(&self) -> bool {
        self.damage.missed_days == 0 && self.damage.truncated == 0 && self.damage.corrupt == 0
    }

    pub fn describe(&self) -> String {
        format!(
            "feed faults: {} missed days, {} truncated, {} corrupt snapshots ({} rows lost); {} listings interpolated across {} missing days",
            self.damage.missed_days,
            self.damage.truncated,
            self.damage.corrupt,
            self.damage.rows_lost,
            self.interpolated_listings,
            self.bridged_days,
        )
    }

    /// Publish what the faulted collection run lost and recovered:
    /// `blocklists.*` counters plus one aggregated event per damage class
    /// (missed days, damaged snapshots, bridged days).
    pub fn record_obs(&self, obs: &ar_obs::Obs) {
        use ar_obs::EventKind;
        if !obs.enabled() {
            return;
        }
        obs.add("blocklists.days_missed", self.damage.missed_days as u64);
        obs.add(
            "blocklists.snapshots_damaged",
            (self.damage.truncated + self.damage.corrupt) as u64,
        );
        obs.add("blocklists.rows_lost", self.damage.rows_lost);
        obs.add("blocklists.days_bridged", self.bridged_days);
        obs.add(
            "blocklists.listings_interpolated",
            self.interpolated_listings as u64,
        );
        if self.damage.missed_days > 0 {
            obs.event(
                "blocklists",
                EventKind::FeedDayMissed,
                None,
                self.damage.missed_days as u64,
                "daily snapshot pulls never materialised",
            );
        }
        let damaged = self.damage.truncated + self.damage.corrupt;
        if damaged > 0 {
            obs.event(
                "blocklists",
                EventKind::FeedSnapshotDamaged,
                None,
                damaged as u64,
                format!(
                    "{} truncated, {} corrupt ({} rows lost)",
                    self.damage.truncated, self.damage.corrupt, self.damage.rows_lost
                ),
            );
        }
        if self.bridged_days > 0 {
            obs.event(
                "blocklists",
                EventKind::FeedDayBridged,
                None,
                self.bridged_days,
                format!(
                    "{} listings interpolated across missed collection days",
                    self.interpolated_listings
                ),
            );
        }
    }
}

/// Rebuild a dataset through a *faulted* collection run: damage each
/// feed's daily pulls per `plan`, then reconstruct gap-tolerantly,
/// interpolating across up to `max_bridge` consecutive missed days.
pub fn dataset_via_faulted_snapshots(
    dataset: &BlocklistDataset,
    plan: &FaultPlan,
    max_bridge: u64,
) -> (BlocklistDataset, FeedDegradation) {
    let mut listings = Vec::new();
    let mut degradation = FeedDegradation::default();
    let expected: Vec<SimTime> = dataset.periods.iter().flat_map(|p| p.days_iter()).collect();
    for meta in &dataset.catalog {
        let snaps = daily_snapshots(dataset, meta.id);
        if snaps.is_empty() {
            continue;
        }
        let (snaps, damage) = apply_feed_faults(snaps, plan);
        degradation.damage += damage;
        if snaps.is_empty() {
            continue;
        }
        let recovered =
            listings_from_snapshots_tolerant(&snaps, expected.iter().copied(), max_bridge);
        degradation.interpolated_listings += recovered.interpolated_count();
        degradation.bridged_days += recovered.bridged_days;
        listings.extend(recovered.listings());
    }
    (
        BlocklistDataset::new(dataset.catalog.clone(), dataset.periods.clone(), listings),
        degradation,
    )
}

/// Collector-side coverage summary (for §4-style reporting).
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStats {
    pub snapshots: usize,
    pub total_member_rows: u64,
    pub max_daily_size: usize,
}

pub fn snapshot_stats(snapshots: &[Snapshot]) -> SnapshotStats {
    SnapshotStats {
        snapshots: snapshots.len(),
        total_member_rows: snapshots.iter().map(|s| s.members.len() as u64).sum(),
        max_daily_size: snapshots.iter().map(|s| s.members.len()).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::build_catalog;
    use ar_simnet::time::{date, TimeWindow};

    const DAY: u64 = 86_400;

    fn ip(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, o)
    }

    fn window() -> TimeWindow {
        TimeWindow::new(date(2019, 8, 3), date(2019, 8, 13))
    }

    fn dataset(listings: Vec<Listing>) -> BlocklistDataset {
        BlocklistDataset::new(build_catalog(), vec![window()], listings)
    }

    fn listing(o: u8, start_day: u64, end_day: u64) -> Listing {
        Listing {
            list: ListId(0),
            ip: ip(o),
            start: window().start + SimDuration::from_secs(start_day * DAY),
            end: window().start + SimDuration::from_secs(end_day * DAY),
        }
    }

    #[test]
    fn snapshots_reflect_membership() {
        let d = dataset(vec![listing(1, 0, 3), listing(2, 2, 5)]);
        let snaps = daily_snapshots(&d, ListId(0));
        assert_eq!(snaps.len(), 10);
        assert!(snaps[0].members.contains(&ip(1)));
        assert!(!snaps[0].members.contains(&ip(2)));
        assert!(snaps[2].members.contains(&ip(2)));
        assert!(snaps[4].members.contains(&ip(2)));
        assert!(snaps[5].members.is_empty());
    }

    #[test]
    fn reconstruction_roundtrips_to_day_resolution() {
        let original = vec![listing(1, 0, 3), listing(2, 2, 5), listing(1, 7, 9)];
        let d = dataset(original.clone());
        let snaps = daily_snapshots(&d, ListId(0));
        let rebuilt = listings_from_snapshots(&snaps);
        assert_eq!(rebuilt.len(), original.len());
        for (r, o) in rebuilt.iter().zip({
            let mut s = original.clone();
            s.sort_by_key(|l| (l.ip, l.start));
            s
        }) {
            assert_eq!(r.ip, o.ip);
            // Day resolution: starts truncate to the observing snapshot.
            assert_eq!(r.start.floor_day(), o.start.floor_day());
            assert_eq!(r.days(), o.days());
        }
    }

    #[test]
    fn gaps_split_listings() {
        // One interval with a one-day hole becomes two listings.
        let d = dataset(vec![listing(7, 0, 2), listing(7, 3, 6)]);
        let snaps = daily_snapshots(&d, ListId(0));
        let rebuilt = listings_from_snapshots(&snaps);
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt[0].days(), 2);
        assert_eq!(rebuilt[1].days(), 3);
    }

    #[test]
    fn whole_dataset_roundtrip_preserves_analysis_metrics() {
        // Generated datasets analysed via snapshots must yield identical
        // day-resolution metrics.
        use ar_simnet::alloc::{AllocationPlan, InterestSet};
        use ar_simnet::config::UniverseConfig;
        use ar_simnet::rng::Seed;
        use ar_simnet::universe::Universe;

        let u = Universe::generate(Seed(404), &UniverseConfig::tiny());
        let alloc = AllocationPlan::build(&u, window(), InterestSet::Observable);
        let direct = crate::generate::generate_dataset(&u, &[(window(), &alloc)], build_catalog());
        let via = dataset_via_snapshots(&direct);

        // Daily pulls cannot see listings that start and end between two
        // midnights — a real undercount of the paper's methodology. The
        // snapshot view must be a subset, and everything missing must be
        // exactly such an invisible sub-day listing.
        let direct_ips = direct.all_ips();
        let via_ips = via.all_ips();
        assert!(via_ips.is_subset(direct_ips));
        for ip in direct_ips.difference(via_ips) {
            for l in direct.listings_of_ip(ip) {
                assert_eq!(
                    l.start.floor_day(),
                    // end is exclusive: an interval inside one day has
                    // end ≤ next midnight.
                    (l.end - ar_simnet::time::SimDuration(1)).floor_day(),
                    "{ip} invisible to snapshots but spans a midnight"
                );
            }
        }
        for ip in via_ips {
            let a = direct.days_listed(ip);
            let b = via.days_listed(ip);
            // Day-resolution reconstruction can shift by at most one day in
            // each direction.
            assert!(
                (a as i64 - b as i64).abs() <= 1,
                "{ip}: direct {a}d vs snapshot {b}d"
            );
        }
    }

    #[test]
    fn tolerant_reconstruction_equals_strict_when_nothing_missing() {
        let original = vec![listing(1, 0, 3), listing(2, 2, 5), listing(1, 7, 9)];
        let d = dataset(original);
        let snaps = daily_snapshots(&d, ListId(0));
        let strict = listings_from_snapshots(&snaps);
        let tolerant = listings_from_snapshots_tolerant(&snaps, window().days_iter(), 3);
        assert_eq!(tolerant.missing_days, 0);
        assert_eq!(tolerant.bridged_days, 0);
        assert_eq!(tolerant.interpolated_count(), 0);
        assert_eq!(tolerant.listings(), strict);
    }

    #[test]
    fn tolerant_reconstruction_bridges_missing_days() {
        // Address listed days 0..6; the day-2 and day-3 snapshots are lost.
        let d = dataset(vec![listing(1, 0, 6)]);
        let snaps: Vec<Snapshot> = daily_snapshots(&d, ListId(0))
            .into_iter()
            .filter(|s| {
                let day = (s.day.as_secs() - window().start.as_secs()) / DAY;
                day != 2 && day != 3
            })
            .collect();
        // Strict reconstruction splits the listing at the hole…
        assert_eq!(listings_from_snapshots(&snaps).len(), 2);
        // …the tolerant one bridges it and flags the interpolation.
        let tolerant = listings_from_snapshots_tolerant(&snaps, window().days_iter(), 3);
        assert_eq!(tolerant.missing_days, 2);
        assert_eq!(tolerant.entries.len(), 1);
        assert!(tolerant.entries[0].interpolated);
        assert_eq!(tolerant.bridged_days, 2);
        assert_eq!(tolerant.entries[0].listing.days(), 6);
    }

    #[test]
    fn tolerant_reconstruction_respects_max_bridge() {
        // A 3-day hole with max_bridge 2 must still split.
        let d = dataset(vec![listing(1, 0, 8)]);
        let snaps: Vec<Snapshot> = daily_snapshots(&d, ListId(0))
            .into_iter()
            .filter(|s| {
                let day = (s.day.as_secs() - window().start.as_secs()) / DAY;
                !(2..=4).contains(&day)
            })
            .collect();
        let tolerant = listings_from_snapshots_tolerant(&snaps, window().days_iter(), 2);
        assert_eq!(tolerant.entries.len(), 2);
        assert!(tolerant.entries.iter().all(|e| !e.interpolated));
    }

    #[test]
    fn absence_on_a_collected_day_still_closes() {
        // The address genuinely leaves on day 3 while other days are
        // missing elsewhere: a collected day showing absence is a real
        // delisting, never interpolated over.
        let d = dataset(vec![listing(1, 0, 3), listing(1, 5, 8)]);
        let snaps = daily_snapshots(&d, ListId(0));
        let tolerant = listings_from_snapshots_tolerant(&snaps, window().days_iter(), 5);
        assert_eq!(tolerant.entries.len(), 2);
        assert!(tolerant.entries.iter().all(|e| !e.interpolated));
    }

    #[test]
    fn feed_faults_damage_snapshots_deterministically() {
        use ar_faults::{FaultPlan, FeedFault, FeedFaultKind};
        use ar_simnet::rng::Seed;

        let d = dataset(vec![
            listing(1, 0, 10),
            listing(2, 0, 10),
            listing(3, 0, 10),
        ]);
        let snaps = daily_snapshots(&d, ListId(0));
        let mut plan = FaultPlan::zero(Seed(88));
        let day0 = window().start;
        let day = |i: u64| day0 + SimDuration::from_days(i);
        plan.feed_faults.push(FeedFault {
            list: 0,
            day: day(1),
            kind: FeedFaultKind::MissedDay,
        });
        plan.feed_faults.push(FeedFault {
            list: 0,
            day: day(2),
            kind: FeedFaultKind::Truncated { keep: 0.34 },
        });
        plan.feed_faults.push(FeedFault {
            list: 0,
            day: day(3),
            kind: FeedFaultKind::CorruptLines { drop: 0.99 },
        });
        plan.rebuild_indexes();

        let (a, damage) = apply_feed_faults(snaps.clone(), &plan);
        let (b, _) = apply_feed_faults(snaps.clone(), &plan);
        assert_eq!(a.len(), snaps.len() - 1, "missed day dropped");
        assert_eq!(damage.missed_days, 1);
        assert_eq!(damage.truncated, 1);
        assert_eq!(damage.corrupt, 1);
        assert!(
            damage.rows_lost >= 2,
            "truncation + heavy corruption lose rows"
        );
        // Truncation keeps the leading third of a 3-member file.
        let truncated = a.iter().find(|s| s.day == day(2)).unwrap();
        assert_eq!(truncated.members.len(), 1);
        // Determinism: same plan, same damage.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.day, y.day);
            assert_eq!(x.members, y.members);
        }
        // Zero plan: untouched.
        let (c, clean) = apply_feed_faults(snaps.clone(), &FaultPlan::zero(Seed(1)));
        assert_eq!(c.len(), snaps.len());
        assert_eq!(clean.rows_lost, 0);
    }

    #[test]
    fn faulted_dataset_stays_subset_of_direct_universe() {
        use ar_faults::{FaultDomain, FaultPlan};
        use ar_simnet::alloc::{AllocationPlan, InterestSet};
        use ar_simnet::config::UniverseConfig;
        use ar_simnet::rng::Seed;
        use ar_simnet::universe::Universe;

        let u = Universe::generate(Seed(505), &UniverseConfig::tiny());
        let alloc = AllocationPlan::build(&u, window(), InterestSet::Observable);
        let direct = crate::generate::generate_dataset(&u, &[(window(), &alloc)], build_catalog());
        let plan = FaultPlan::generate(
            Seed(505),
            1.0,
            &FaultDomain {
                asns: Vec::new(),
                periods: vec![window()],
                atlas_window: window(),
                feed_count: direct.catalog.len() as u16,
            },
        );
        let (faulted, degradation) = dataset_via_faulted_snapshots(&direct, &plan, 3);
        assert!(!degradation.is_clean(), "intensity 1.0 must damage feeds");
        // A damaged collection can only lose addresses, never invent them.
        assert!(faulted
            .all_ips()
            .is_subset(dataset_via_snapshots(&direct).all_ips()));
        // And the zero plan reproduces the snapshot channel exactly.
        let (clean, d0) = dataset_via_faulted_snapshots(&direct, &FaultPlan::zero(Seed(1)), 3);
        assert!(d0.is_clean());
        assert_eq!(clean.listings, dataset_via_snapshots(&direct).listings);
    }

    #[test]
    fn snapshot_record_codec_roundtrips_and_rejects_corruption() {
        let d = dataset(vec![listing(1, 0, 3), listing(2, 0, 3)]);
        for snap in daily_snapshots(&d, ListId(0)) {
            let bytes = encode_snapshot_record(&snap);
            let back = decode_snapshot_record(&bytes).expect("clean record decodes");
            assert_eq!(back.list, snap.list);
            assert_eq!(back.day, snap.day);
            assert_eq!(back.members, snap.members);
            assert_eq!(encode_snapshot_record(&back), bytes, "re-encode identical");
            // Every truncation is refused, never a panic.
            for cut in 0..bytes.len() {
                assert!(decode_snapshot_record(&bytes[..cut]).is_none(), "cut {cut}");
            }
            // Trailing garbage breaks the count ↔ length consistency check.
            let mut long = bytes.clone();
            long.push(0);
            assert!(decode_snapshot_record(&long).is_none());
        }
        // A duplicated member row is internally inconsistent.
        let snap = Snapshot {
            list: ListId(3),
            day: window().start,
            members: [ip(9)].into_iter().collect(),
        };
        let mut bytes = encode_snapshot_record(&snap);
        let row = bytes[14..18].to_vec();
        bytes.extend_from_slice(&row);
        bytes[10..14].copy_from_slice(&2u32.to_be_bytes());
        assert!(decode_snapshot_record(&bytes).is_none());
    }

    #[test]
    fn stats_summarise() {
        let d = dataset(vec![listing(1, 0, 10), listing(2, 0, 10)]);
        let snaps = daily_snapshots(&d, ListId(0));
        let stats = snapshot_stats(&snaps);
        assert_eq!(stats.snapshots, 10);
        assert_eq!(stats.max_daily_size, 2);
        assert_eq!(stats.total_member_rows, 20);
    }
}
