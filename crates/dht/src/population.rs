//! The simulated BitTorrent population: which host is reachable at which
//! public endpoint, with which node_id, at any instant.
//!
//! Everything here is a *pure function* of `(universe seed, host, time)` —
//! no per-host mutable state — so a population over hundreds of thousands
//! of hosts costs no memory and stays deterministic no matter in which
//! order the crawler touches it.
//!
//! The model captures the behaviours §3.1 of the paper turns on:
//!
//! * hosts run in **sessions** (epochs): between epochs they may be offline;
//! * a **reboot** regenerates the node_id (the reason the paper's crawler
//!   cannot key on node_ids) and, for NAT users, re-establishes the NAT
//!   binding — i.e. a fresh public port;
//! * some clients **randomise their port** every restart even without NAT,
//!   which is exactly the false-positive case ("the BitTorrent user has
//!   changed the port number and the crawler encountered stale
//!   information") the bt_ping verification round exists to reject.

use crate::node_id::NodeId;
use crate::wire::NodeInfo;
use ar_simnet::alloc::AllocationPlan;
use ar_simnet::hosts::{Attachment, HostId};
use ar_simnet::rng::{Rng, Seed};
use ar_simnet::time::{SimDuration, SimTime, TimeWindow};
use ar_simnet::universe::Universe;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddrV4};

/// Shortest / longest per-host epoch in hours (session granularity).
const EPOCH_HOURS_MIN: u64 = 8;
const EPOCH_HOURS_MAX: u64 = 72;
/// Probability that an epoch boundary is a reboot (new node_id, new NAT
/// binding).
const REBOOT_PROB: f64 = 0.3;
/// Fraction of clients that randomise their listening port per reboot era
/// even without a NAT in front.
const RANDOM_PORT_RATE: f64 = 0.25;

/// A host's DHT presence during one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSession {
    pub node_id: NodeId,
    /// Public (possibly NAT-translated) port.
    pub port: u16,
    /// Client version bytes sent in the KRPC `v` field.
    pub version: [u8; 4],
}

/// Known client version tags (two ASCII letters + two version bytes).
const VERSIONS: [[u8; 4]; 5] = [
    *b"LT\x01\x02",
    *b"UT\x03\x05",
    *b"GR\x02\x01",
    *b"TR\x02\x09",
    *b"XL\x00\x07",
];

/// The BitTorrent host population over one measurement window.
pub struct DhtPopulation<'u> {
    universe: &'u Universe,
    alloc: &'u AllocationPlan,
    seed: Seed,
    /// All hosts running BitTorrent, in stable order.
    bt_hosts: Vec<HostId>,
    /// Static BT hosts by their fixed address.
    static_by_ip: HashMap<Ipv4Addr, HostId>,
    window: TimeWindow,
}

impl<'u> DhtPopulation<'u> {
    pub fn new(universe: &'u Universe, alloc: &'u AllocationPlan) -> Self {
        let bt_hosts: Vec<HostId> = universe.bittorrent_hosts().map(|h| h.id).collect();
        let static_by_ip = universe
            .bittorrent_hosts()
            .filter_map(|h| match h.attachment {
                Attachment::Static { ip } => Some((ip, h.id)),
                _ => None,
            })
            .collect();
        DhtPopulation {
            universe,
            alloc,
            seed: universe.seed.fork("dht-pop"),
            bt_hosts,
            static_by_ip,
            window: alloc.window,
        }
    }

    pub fn universe(&self) -> &Universe {
        self.universe
    }

    pub fn bt_hosts(&self) -> &[HostId] {
        &self.bt_hosts
    }

    // ---- pure session model -------------------------------------------------

    fn hash(&self, host: HostId, label: u64) -> u64 {
        self.seed.fork_idx("h", (u64::from(host.0) << 24) ^ label).0
    }

    fn epoch_len_secs(&self, host: HostId) -> u64 {
        let span = EPOCH_HOURS_MAX - EPOCH_HOURS_MIN + 1;
        let hours = EPOCH_HOURS_MIN + self.hash(host, 0xE90C) % span;
        hours * 3600
    }

    fn epoch_of(&self, host: HostId, t: SimTime) -> u64 {
        let len = self.epoch_len_secs(host);
        let offset = self.hash(host, 0x0FF5) % len;
        (t.as_secs() + offset) / len
    }

    fn online_in_epoch(&self, host: HostId, epoch: u64) -> bool {
        let frac = self.universe.host(host).behavior.online_fraction;
        let roll = self.hash(host, 0x0211_0000 ^ epoch) as f64 / u64::MAX as f64;
        roll < frac
    }

    /// Reboot-era of an epoch: the most recent epoch boundary at which the
    /// machine rebooted. Era 0 is a reboot by definition.
    fn era_of(&self, host: HostId, epoch: u64) -> u64 {
        let mut e = epoch;
        for _ in 0..64 {
            if e == 0 {
                return 0;
            }
            let roll = self.hash(host, 0x4EB0_0000 ^ e) as f64 / u64::MAX as f64;
            if roll < REBOOT_PROB {
                return e;
            }
            e -= 1;
        }
        e
    }

    /// The private (behind-NAT) or public address whose bytes seed the
    /// node_id, as in real clients (paper §3.1: "hashing the (possibly
    /// private) IP address").
    fn id_seed_ip(&self, host: HostId, t: SimTime) -> Ipv4Addr {
        match self.universe.host(host).attachment {
            Attachment::NatUser { nat, slot } => {
                // RFC1918 address inside the NAT.
                let n = nat.0;
                Ipv4Addr::new(192, 168, (n % 250) as u8, (slot % 250) as u8 + 2)
            }
            Attachment::Static { ip } => ip,
            Attachment::DynamicSub { .. } => self
                .alloc
                .public_ip(self.universe, host, t)
                .unwrap_or(Ipv4Addr::UNSPECIFIED),
        }
    }

    /// The host's session at `t`: `None` when offline (or, for dynamic
    /// subscribers, unallocated).
    pub fn session(&self, host: HostId, t: SimTime) -> Option<NodeSession> {
        let epoch = self.epoch_of(host, t);
        if !self.online_in_epoch(host, epoch) {
            return None;
        }
        let era = self.era_of(host, epoch);
        let node_id =
            NodeId::from_ip_and_nonce(self.id_seed_ip(host, t), self.hash(host, 0x1D00 ^ era));
        let port = self.port_in_era(host, era);
        let version = VERSIONS[(self.hash(host, 0x5EC7) % VERSIONS.len() as u64) as usize];
        Some(NodeSession {
            node_id,
            port,
            version,
        })
    }

    fn port_in_era(&self, host: HostId, era: u64) -> u16 {
        let is_nat = matches!(
            self.universe.host(host).attachment,
            Attachment::NatUser { .. }
        );
        let randomises = (self.hash(host, 0x9087) as f64 / u64::MAX as f64) < RANDOM_PORT_RATE;
        let label = if is_nat || randomises {
            // NAT binding / randomised listening port: fresh per era.
            0x7077_0000 ^ era
        } else {
            // Stable configured port.
            0x7077_FFFF
        };
        1025 + (self.hash(host, label) % 64_000) as u16
    }

    /// The host's public endpoint at `t` (`None` when offline/unallocated).
    pub fn endpoint(&self, host: HostId, t: SimTime) -> Option<SocketAddrV4> {
        let session = self.session(host, t)?;
        let ip = self.alloc.public_ip(self.universe, host, t)?;
        Some(SocketAddrV4::new(ip, session.port))
    }

    /// Who (if anyone) receives a datagram sent to `addr` at time `t`.
    ///
    /// This is the inverse of [`endpoint`](Self::endpoint) and encodes the
    /// NAT demultiplexing: a gateway forwards a datagram only to the user
    /// whose *current* binding matches the destination port — stale ports
    /// go nowhere, which is what the crawler's verification exploits.
    pub fn resolve(&self, addr: SocketAddrV4, t: SimTime) -> Option<HostId> {
        let ip = *addr.ip();
        if let Some(&host) = self.static_by_ip.get(&ip) {
            let s = self.session(host, t)?;
            return (s.port == addr.port()).then_some(host);
        }
        if let Some(gateway) = self.universe.nat_at(ip) {
            for &user in &gateway.users {
                if !self.universe.host(user).behavior.bittorrent {
                    continue;
                }
                if let Some(s) = self.session(user, t) {
                    if s.port == addr.port() {
                        return Some(user);
                    }
                }
            }
            return None;
        }
        // Dynamic space: only the current holder answers.
        let holder = self.alloc.holder_of(ip, t)?;
        if !self.universe.host(holder).behavior.bittorrent {
            return None;
        }
        let s = self.session(holder, t)?;
        (s.port == addr.port()).then_some(holder)
    }

    /// Sample up to `n` neighbour entries as a `find_node` response would
    /// carry them: a mix of fresh and stale observations of other peers.
    ///
    /// Staleness matters: an entry may reference a port its host no longer
    /// listens on — the source of the paper's same-IP-many-ports ambiguity.
    pub fn sample_neighbors<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        t: SimTime,
        n: usize,
        staleness_mean: SimDuration,
    ) -> Vec<NodeInfo> {
        let mut out = Vec::with_capacity(n);
        if self.bt_hosts.is_empty() {
            return out;
        }
        // Each attempted entry picks a random peer and a random observation
        // age; offline-at-observation peers yield nothing (real tables also
        // return dead entries, but those add noise without changing the
        // detection problem).
        for _ in 0..(n * 3) {
            if out.len() >= n {
                break;
            }
            let host = self.bt_hosts[rng.gen_range(0..self.bt_hosts.len())];
            let age_secs =
                ar_simnet::stats::sample_exponential(rng, staleness_mean.as_secs() as f64);
            let t_obs = SimTime(
                t.as_secs()
                    .saturating_sub(age_secs as u64)
                    .max(self.window.start.as_secs()),
            );
            let (Some(session), Some(ip)) = (
                self.session(host, t_obs),
                self.alloc.public_ip(self.universe, host, t_obs),
            ) else {
                continue;
            };
            out.push(NodeInfo {
                id: session.node_id,
                addr: SocketAddrV4::new(ip, session.port),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_simnet::alloc::InterestSet;
    use ar_simnet::config::UniverseConfig;
    use ar_simnet::time::PERIOD_1;

    struct Fixture {
        universe: Universe,
        alloc: AllocationPlan,
    }

    impl Fixture {
        fn new() -> Self {
            let universe = Universe::generate(Seed(31), &UniverseConfig::tiny());
            let alloc = AllocationPlan::build(&universe, PERIOD_1, InterestSet::Observable);
            Fixture { universe, alloc }
        }
        fn pop(&self) -> DhtPopulation<'_> {
            DhtPopulation::new(&self.universe, &self.alloc)
        }
    }

    fn mid() -> SimTime {
        PERIOD_1.start + SimDuration::from_days(10)
    }

    #[test]
    fn sessions_are_deterministic() {
        let fx = Fixture::new();
        let pop = fx.pop();
        for &h in pop.bt_hosts().iter().take(200) {
            assert_eq!(pop.session(h, mid()), pop.session(h, mid()));
        }
    }

    #[test]
    fn endpoint_resolves_back_to_host() {
        let fx = Fixture::new();
        let pop = fx.pop();
        let mut resolved = 0;
        let mut checked = 0;
        for &h in pop.bt_hosts() {
            if let Some(ep) = pop.endpoint(h, mid()) {
                checked += 1;
                let got = pop.resolve(ep, mid());
                // NAT users may share... never a port, so resolution must be
                // exact; dynamic/static likewise.
                if got == Some(h) {
                    resolved += 1;
                }
            }
        }
        assert!(checked > 50, "too few online hosts: {checked}");
        // Port collisions behind one NAT are theoretically possible but
        // vanishingly rare; demand exactness.
        assert_eq!(resolved, checked);
    }

    #[test]
    fn reboots_change_node_id_and_nat_port() {
        let fx = Fixture::new();
        let pop = fx.pop();
        // Across the whole window, a host should show >1 node_id (reboots)
        // at least for some hosts.
        let mut id_changes = 0;
        let mut port_changes_nat = 0;
        for &h in pop.bt_hosts().iter().take(400) {
            let mut ids = std::collections::HashSet::new();
            let mut ports = std::collections::HashSet::new();
            let mut t = PERIOD_1.start;
            while t < PERIOD_1.end {
                if let Some(s) = pop.session(h, t) {
                    ids.insert(s.node_id);
                    ports.insert(s.port);
                }
                t += SimDuration::from_hours(6);
            }
            if ids.len() > 1 {
                id_changes += 1;
            }
            if ports.len() > 1
                && matches!(fx.universe.host(h).attachment, Attachment::NatUser { .. })
            {
                port_changes_nat += 1;
            }
        }
        assert!(id_changes > 50, "reboots regenerate node ids: {id_changes}");
        assert!(port_changes_nat > 0, "NAT rebinding changes public ports");
    }

    #[test]
    fn offline_hosts_have_no_endpoint() {
        let fx = Fixture::new();
        let pop = fx.pop();
        let mut offline_seen = false;
        for &h in pop.bt_hosts().iter().take(300) {
            if pop.session(h, mid()).is_none() {
                offline_seen = true;
                assert_eq!(pop.endpoint(h, mid()), None);
            }
        }
        assert!(offline_seen, "some hosts should be offline at any instant");
    }

    #[test]
    fn neighbors_are_plausible() {
        let fx = Fixture::new();
        let pop = fx.pop();
        let mut rng = Seed(99).rng();
        let neighbors = pop.sample_neighbors(&mut rng, mid(), 8, SimDuration::from_hours(2));
        assert!(!neighbors.is_empty());
        assert!(neighbors.len() <= 8);
        for n in &neighbors {
            // Every advertised IP is announced address space.
            assert!(fx.universe.asn_of(*n.addr.ip()).is_some());
            assert!(n.addr.port() >= 1025);
        }
    }

    #[test]
    fn stale_neighbors_can_reference_dead_ports() {
        let fx = Fixture::new();
        let pop = fx.pop();
        let mut rng = Seed(7).rng();
        let t = PERIOD_1.start + SimDuration::from_days(30);
        let mut stale = 0;
        let mut total = 0;
        for _ in 0..200 {
            for n in pop.sample_neighbors(&mut rng, t, 8, SimDuration::from_days(4)) {
                total += 1;
                if pop.resolve(n.addr, t).is_none() {
                    stale += 1;
                }
            }
        }
        assert!(total > 500);
        assert!(
            stale > total / 20,
            "heavily aged observations should often be stale: {stale}/{total}"
        );
    }
}
