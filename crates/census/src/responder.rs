//! ICMP responsiveness model.
//!
//! Determines whether an ECHO REQUEST to an address at a virtual time gets
//! a reply, including the confounders the paper levels at the census
//! methodology (§2): "An ICMP reply from an IP address need not uniquely
//! identify the host using the IP address since firewalls and middleboxes
//! can reply on behalf of hosts. Further, some networks filter outgoing
//! ICMP traffic, potentially leading to undercounting."

use ar_simnet::config::DYNAMIC_OCCUPANCY;
use ar_simnet::hosts::Attachment;
use ar_simnet::time::SimTime;
use ar_simnet::universe::{AddressPolicy, Universe};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Pure-function responsiveness oracle over a universe.
pub struct Responder<'u> {
    universe: &'u Universe,
    /// Static hosts by address (occupancy + behaviour lookups).
    static_hosts: BTreeMap<Ipv4Addr, ar_simnet::hosts::HostId>,
    seed: u64,
}

impl<'u> Responder<'u> {
    pub fn new(universe: &'u Universe) -> Self {
        let static_hosts = universe
            .hosts
            .iter()
            .filter_map(|h| match h.attachment {
                Attachment::Static { ip } => Some((ip, h.id)),
                _ => None,
            })
            .collect();
        Responder {
            universe,
            static_hosts,
            seed: universe.seed.fork("census-responder").0,
        }
    }

    fn coin(&self, ip: Ipv4Addr, label: u64) -> f64 {
        let mut x = self.seed ^ (u64::from(u32::from(ip)) << 20) ^ label;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Does a ping to `ip` at `t` get an echo reply?
    pub fn responds(&self, ip: Ipv4Addr, t: SimTime) -> bool {
        // Edge filtering kills everything (undercount confounder).
        if let Some(asn) = self.universe.asn_of(ip) {
            if self.universe.icmp_filtered_ases.contains(&asn) {
                return false;
            }
        } else {
            return false; // unannounced space
        }

        match self.universe.policy_of(ip) {
            Some(AddressPolicy::Static) => {
                let Some(&host_id) = self.static_hosts.get(&ip) else {
                    return false; // unoccupied static address
                };
                let host = self.universe.host(host_id);
                if host.behavior.middlebox {
                    // The middlebox answers even when the host is down
                    // (overcount confounder: the block looks always-up).
                    return true;
                }
                // Host answers when powered on; statically addressed
                // machines hold power state for days at a time (a desktop
                // that flapped every few hours would be indistinguishable
                // from pool churn in any census).
                let epoch = t.as_secs() / (48 * 3600);
                self.coin(ip, 0xA000_0000 ^ epoch) < host.behavior.online_fraction
            }
            Some(AddressPolicy::NatBlock) => {
                // The gateway device itself answers pings ~always — NAT
                // blocks look rock-stable to a census.
                self.universe.nat_at(ip).is_some()
            }
            Some(AddressPolicy::DynamicPool(pool_id)) => {
                // Occupied-by-someone with the pool's occupancy, flipping
                // per lease epoch: this is the churn signature the census
                // methodology keys on.
                let pool = self.universe.pool(pool_id);
                let epoch = t.as_secs() / pool.mean_hold.as_secs().max(900);
                self.coin(ip, 0xD000_0000 ^ epoch) < DYNAMIC_OCCUPANCY * 0.85
            }
            Some(AddressPolicy::Unused) | None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_simnet::config::UniverseConfig;
    use ar_simnet::rng::Seed;
    use ar_simnet::time::{SimDuration, PERIOD_2};

    fn universe() -> Universe {
        Universe::generate(Seed(301), &UniverseConfig::tiny())
    }

    #[test]
    fn unannounced_space_is_silent() {
        let u = universe();
        let r = Responder::new(&u);
        assert!(!r.responds("250.9.9.9".parse().unwrap(), PERIOD_2.start));
    }

    #[test]
    fn filtered_ases_are_silent() {
        let u = universe();
        let r = Responder::new(&u);
        let filtered: Vec<_> = u
            .prefixes
            .iter()
            .filter(|p| u.icmp_filtered_ases.contains(&p.asn))
            .take(5)
            .collect();
        assert!(!filtered.is_empty());
        for rec in filtered {
            for octet in [1u8, 50, 200] {
                assert!(!r.responds(rec.prefix.host(octet), PERIOD_2.start));
            }
        }
    }

    #[test]
    fn nat_gateways_always_respond() {
        let u = universe();
        let r = Responder::new(&u);
        let mut checked = 0;
        for g in &u.nat_gateways {
            if u.icmp_filtered_ases.contains(&g.asn) {
                continue;
            }
            let mut t = PERIOD_2.start;
            while t < PERIOD_2.start + SimDuration::from_days(3) {
                assert!(r.responds(g.ip, t), "{} silent at {t}", g.ip);
                t += SimDuration::from_hours(7);
            }
            checked += 1;
            if checked > 10 {
                break;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn dynamic_addresses_flap() {
        let u = universe();
        let r = Responder::new(&u);
        let pool = u
            .pools
            .iter()
            .find(|p| p.fast && !u.icmp_filtered_ases.contains(&p.asn))
            .expect("tiny universe has unfiltered fast pools");
        let ip = pool.range.first;
        let mut states = Vec::new();
        let mut t = PERIOD_2.start;
        while t < PERIOD_2.end {
            states.push(r.responds(ip, t));
            t += SimDuration::from_hours(6);
        }
        let flips = states.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(flips > 3, "dynamic address should flap: {flips} flips");
    }

    #[test]
    fn responder_is_deterministic() {
        let u = universe();
        let r1 = Responder::new(&u);
        let r2 = Responder::new(&u);
        let ip = u.prefixes[0].prefix.host(10);
        for h in 0..50u64 {
            let t = PERIOD_2.start + SimDuration::from_hours(h);
            assert_eq!(r1.responds(ip, t), r2.responds(ip, t));
        }
    }
}
