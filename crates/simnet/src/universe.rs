//! Universe generation: the single ground-truth model every measurement
//! substrate observes.
//!
//! [`Universe::generate`] deterministically expands a [`Seed`] and
//! [`UniverseConfig`] into autonomous systems, `/24` prefixes with
//! address-allocation policies, NAT gateways with user populations, dynamic
//! pools with subscribers, and a behavioural host population.
//!
//! Nothing here is visible to the detection pipelines: they see only what
//! the substrates (DHT traffic, Atlas logs, blocklist snapshots, ICMP
//! responses) derive from this model. The ground-truth query methods
//! ([`Universe::true_nat_user_count`], [`Universe::true_dynamic_prefixes`],
//! …) exist for *validation* of detector output.

use crate::asn::{AsProfile, AsTier, Asn, Region};
use crate::config::{UniverseConfig, DYNAMIC_OCCUPANCY};
use crate::hosts::{Attachment, Host, HostBehavior, HostId, NatId, PoolId};
use crate::ip::{IpRange, Prefix24};
use crate::malice::{MaliceCategory, MalicePersistence, MaliceProfile};
use crate::rng::{Rng, Seed, SmallRng};
use crate::stats;
use crate::time::{SimDuration, PERIOD_1, PERIOD_2};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Fraction of NAT gateways that are carrier-grade (large user counts).
const CGN_FRACTION: f64 = 0.015;
/// Median users behind a carrier-grade NAT.
const CGN_MEDIAN_USERS: f64 = 18.0;
/// Hard cap on users behind one NAT gateway.
const NAT_MAX_USERS: u32 = 300;
/// Mean address-hold time, in hours, for fast dynamic pools (≤ 1 day —
/// the population §3.2's final filter is designed to catch).
const FAST_HOLD_HOURS_MEAN: f64 = 10.0;
/// Mean address-hold time, in days, for slow dynamic pools.
const SLOW_HOLD_DAYS_MEAN: f64 = 60.0;
/// Fraction of hosts that relocate to a different AS mid-window (the
/// 13.1% of probes the paper excludes).
const MULTI_AS_MOVER_RATE: f64 = 0.131;
/// Public gateway addresses carved out of each NAT-policy /24.
const NAT_GATEWAYS_PER_PREFIX: u32 = 32;
/// Per-user BitTorrent rate behind carrier-grade NATs (drives Figure 8's
/// long tail — the paper detected up to 78 users on one address).
const CGN_BT_RATE: f64 = 0.35;
/// Probe-hosting propensity multiplier for statically attached hosts.
/// Atlas volunteers skew toward static connections: the paper finds 59% of
/// probes never change address in 16 months (Figure 2).
const PROBE_STATIC_BIAS: f64 = 3.2;
/// Probe-hosting propensity multiplier for dynamic-pool subscribers.
const PROBE_DYNAMIC_BIAS: f64 = 0.55;
/// Fraction of ASes that filter outbound ICMP (census confounder).
const ICMP_FILTERED_AS_RATE: f64 = 0.15;
/// Fraction of static hosts fronted by a middlebox that answers ICMP on
/// their behalf (census confounder).
const MIDDLEBOX_RATE: f64 = 0.05;

/// Address-allocation policy of one `/24` prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressPolicy {
    /// Addresses statically assigned to individual hosts.
    Static,
    /// Addresses are public sides of NAT gateways.
    NatBlock,
    /// Addresses belong to the given dynamic pool.
    DynamicPool(PoolId),
    /// Announced but unpopulated.
    Unused,
}

/// One announced `/24` and its policy.
#[derive(Debug, Clone, Copy)]
pub struct PrefixRecord {
    pub prefix: Prefix24,
    pub asn: Asn,
    pub policy: AddressPolicy,
}

/// A NAT gateway: one public address shared by `users` at the same time.
#[derive(Debug, Clone)]
pub struct NatGateway {
    pub id: NatId,
    pub ip: Ipv4Addr,
    pub asn: Asn,
    /// Hosts behind the gateway (ground truth).
    pub users: Vec<HostId>,
    /// Carrier-grade (large) vs. home/office NAT.
    pub carrier_grade: bool,
}

/// A dynamic (DHCP-style) address pool.
#[derive(Debug, Clone)]
pub struct DynamicPool {
    pub id: PoolId,
    pub asn: Asn,
    /// The contiguous address range reallocation draws from. May cover half
    /// a /24, exactly one, or two — operators' pool boundaries do not align
    /// with the /24 assumption the paper's §3.2 expansion makes, which the
    /// `ablation_prefix` experiment quantifies.
    pub range: IpRange,
    /// Subscriber hosts (ground truth).
    pub subscribers: Vec<HostId>,
    /// Mean address-hold time before reallocation.
    pub mean_hold: SimDuration,
    /// True when reallocation is on average within one day — the class the
    /// paper's final pipeline stage targets.
    pub fast: bool,
}

impl DynamicPool {
    /// `/24`s intersecting the pool's range.
    pub fn prefixes(&self) -> Vec<Prefix24> {
        self.range.prefixes().collect()
    }
}

/// The generated ground-truth Internet.
#[derive(Debug, Clone)]
pub struct Universe {
    pub seed: Seed,
    pub config: UniverseConfig,
    pub ases: Vec<AsProfile>,
    pub prefixes: Vec<PrefixRecord>,
    pub nat_gateways: Vec<NatGateway>,
    pub pools: Vec<DynamicPool>,
    pub hosts: Vec<Host>,
    /// ASes that filter ICMP at their edge (census confounder).
    pub icmp_filtered_ases: HashSet<Asn>,
    prefix_index: HashMap<Prefix24, usize>,
    nat_index: HashMap<Ipv4Addr, NatId>,
}

impl Universe {
    /// Deterministically generate a universe.
    pub fn generate(seed: Seed, config: &UniverseConfig) -> Universe {
        let mut gen = Generator::new(seed, config.clone());
        gen.generate_ases();
        gen.generate_prefixes_and_populations();
        gen.assign_probes();
        gen.finish()
    }

    // ----- topology queries ------------------------------------------------

    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    pub fn nat(&self, id: NatId) -> &NatGateway {
        &self.nat_gateways[id.0 as usize]
    }

    pub fn pool(&self, id: PoolId) -> &DynamicPool {
        &self.pools[id.0 as usize]
    }

    pub fn prefix_record(&self, prefix: Prefix24) -> Option<&PrefixRecord> {
        self.prefix_index.get(&prefix).map(|&i| &self.prefixes[i])
    }

    /// The AS announcing `ip`, if announced at all.
    pub fn asn_of(&self, ip: Ipv4Addr) -> Option<Asn> {
        self.prefix_record(Prefix24::of(ip)).map(|r| r.asn)
    }

    /// Address policy covering `ip`.
    pub fn policy_of(&self, ip: Ipv4Addr) -> Option<AddressPolicy> {
        let rec = self.prefix_record(Prefix24::of(ip))?;
        match rec.policy {
            // A pool may cover only part of its /24.
            AddressPolicy::DynamicPool(id) => {
                if self.pool(id).range.contains(ip) {
                    Some(AddressPolicy::DynamicPool(id))
                } else {
                    Some(AddressPolicy::Static)
                }
            }
            p => Some(p),
        }
    }

    /// The NAT gateway owning `ip` as its public address, if any.
    pub fn nat_at(&self, ip: Ipv4Addr) -> Option<&NatGateway> {
        self.nat_index.get(&ip).map(|id| self.nat(*id))
    }

    // ----- ground-truth queries (validation only) ---------------------------

    /// Ground truth: number of users simultaneously sharing `ip` via NAT
    /// (`None` when `ip` is not a NAT public address).
    pub fn true_nat_user_count(&self, ip: Ipv4Addr) -> Option<usize> {
        self.nat_at(ip).map(|g| g.users.len())
    }

    /// Ground truth: `ip` is reused by ≥ 2 simultaneous users.
    pub fn is_truly_natted(&self, ip: Ipv4Addr) -> bool {
        self.true_nat_user_count(ip).is_some_and(|n| n >= 2)
    }

    /// Ground truth: `/24`s covered by a dynamic pool. With `fast_only`,
    /// restrict to pools with mean reallocation ≤ 1 day (the population the
    /// paper's pipeline targets).
    pub fn true_dynamic_prefixes(&self, fast_only: bool) -> HashSet<Prefix24> {
        self.pools
            .iter()
            .filter(|p| !fast_only || p.fast)
            .flat_map(|p| p.prefixes())
            .collect()
    }

    /// Ground truth: is `ip` inside a dynamic pool's range?
    pub fn is_truly_dynamic(&self, ip: Ipv4Addr) -> bool {
        matches!(self.policy_of(ip), Some(AddressPolicy::DynamicPool(_)))
    }

    /// Hosts that run BitTorrent.
    pub fn bittorrent_hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter().filter(|h| h.behavior.bittorrent)
    }

    /// Hosts carrying a RIPE Atlas probe.
    pub fn probe_hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter().filter(|h| h.behavior.ripe_probe)
    }

    /// Hosts with a malice profile.
    pub fn malicious_hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter().filter(|h| h.behavior.malice.is_some())
    }

    /// The static address of a host, when statically attached.
    pub fn static_ip(&self, host: &Host) -> Option<Ipv4Addr> {
        match host.attachment {
            Attachment::Static { ip } => Some(ip),
            _ => None,
        }
    }

    /// Serialisable inventory of the generated ground truth (for reports
    /// and the CLI's JSON output).
    pub fn summary(&self) -> UniverseSummary {
        let mut per_tier = std::collections::BTreeMap::new();
        for a in &self.ases {
            *per_tier.entry(a.tier.name()).or_insert(0u32) += 1;
        }
        UniverseSummary {
            ases: self.ases.len(),
            prefixes: self.prefixes.len(),
            hosts: self.hosts.len(),
            nat_gateways: self.nat_gateways.len(),
            multi_user_nats: self
                .nat_gateways
                .iter()
                .filter(|g| g.users.len() >= 2)
                .count(),
            pools: self.pools.len(),
            fast_pools: self.pools.iter().filter(|p| p.fast).count(),
            bittorrent_hosts: self.bittorrent_hosts().count(),
            probe_hosts: self.probe_hosts().count(),
            malicious_hosts: self.malicious_hosts().count(),
            icmp_filtered_ases: self.icmp_filtered_ases.len(),
            per_tier,
        }
    }
}

/// Ground-truth inventory counts (see [`Universe::summary`]).
#[derive(Debug, Clone)]
pub struct UniverseSummary {
    pub ases: usize,
    pub prefixes: usize,
    pub hosts: usize,
    pub nat_gateways: usize,
    /// Gateways with >= 2 users — truly reused addresses.
    pub multi_user_nats: usize,
    pub pools: usize,
    pub fast_pools: usize,
    pub bittorrent_hosts: usize,
    pub probe_hosts: usize,
    pub malicious_hosts: usize,
    pub icmp_filtered_ases: usize,
    pub per_tier: std::collections::BTreeMap<&'static str, u32>,
}

// ---------------------------------------------------------------------------

struct Generator {
    seed: Seed,
    config: UniverseConfig,
    ases: Vec<AsProfile>,
    prefixes: Vec<PrefixRecord>,
    nat_gateways: Vec<NatGateway>,
    pools: Vec<DynamicPool>,
    hosts: Vec<Host>,
    icmp_filtered_ases: HashSet<Asn>,
    prefix_cursor: u32,
}

impl Generator {
    fn new(seed: Seed, config: UniverseConfig) -> Self {
        Generator {
            seed,
            config,
            ases: Vec::new(),
            prefixes: Vec::new(),
            nat_gateways: Vec::new(),
            pools: Vec::new(),
            hosts: Vec::new(),
            icmp_filtered_ases: HashSet::new(),
            // Start allocating at 1.0.0.0/24; everything below is reserved.
            prefix_cursor: 0x0001_0000,
        }
    }

    fn generate_ases(&mut self) {
        let mut rng = self.seed.fork("ases").rng();
        for i in 0..self.config.num_ases {
            let tier = self.config.tier_for_index(i);
            // Allocate ASNs with gaps, like the real registry.
            let asn = Asn(100 + i * 7 + rng.gen_range(0..5));
            let mut p = AsProfile::baseline(asn, tier);
            // Region: backbones skew to Asia (the AS4134 shape: the most
            // blocklisted space sits where probes are scarce); the rest
            // follow a global mix.
            p.region = if tier == AsTier::Backbone {
                if rng.gen_bool(0.6) {
                    Region::Asia
                } else {
                    Region::ALL[rng.gen_range(0..Region::ALL.len())]
                }
            } else {
                let weights = [0.28, 0.22, 0.26, 0.10, 0.08, 0.06];
                Region::ALL[crate::stats::weighted_index(&mut rng, &weights)]
            };
            // Jitter sizes ±40% and apply the global prefix scale, keeping
            // at least one prefix.
            let jitter = rng.gen_range(0.6..1.4);
            p.num_prefixes = ((f64::from(p.num_prefixes) * jitter * self.config.prefix_scale)
                .round() as u32)
                .max(1);
            p.dynamic_share = (p.dynamic_share * rng.gen_range(0.7..1.3)).min(0.9);
            p.nat_share = (p.nat_share * rng.gen_range(0.7..1.3)).min(0.9);
            p.bittorrent_rate = (p.bittorrent_rate * rng.gen_range(0.5..1.8)).min(0.95);
            p.malice_rate = (p.malice_rate * rng.gen_range(0.3..2.5)).min(0.5);
            if rng.gen_bool(ICMP_FILTERED_AS_RATE) {
                self.icmp_filtered_ases.insert(asn);
            }
            self.ases.push(p);
        }
    }

    fn next_prefix(&mut self) -> Prefix24 {
        let p = Prefix24::from_raw(self.prefix_cursor);
        self.prefix_cursor += 1;
        // Leave a gap between ASes occasionally? Not needed; contiguous is
        // fine for the model.
        p
    }

    fn generate_prefixes_and_populations(&mut self) {
        let profiles = self.ases.clone();
        for profile in &profiles {
            let mut rng = self
                .seed
                .fork_idx("as-body", u64::from(profile.asn.0))
                .rng();
            let mut remaining = profile.num_prefixes;
            while remaining > 0 {
                let roll: f64 = rng.gen();
                if roll < profile.dynamic_share {
                    let span = self.choose_pool_span(&mut rng, remaining);
                    self.build_dynamic_pool(profile, &mut rng, span);
                    remaining -= span.prefix_count;
                } else if roll < profile.dynamic_share + profile.nat_share {
                    self.build_nat_prefix(profile, &mut rng);
                    remaining -= 1;
                } else {
                    self.build_static_prefix(profile, &mut rng);
                    remaining -= 1;
                }
            }
        }
    }

    fn choose_pool_span(&self, rng: &mut SmallRng, remaining: u32) -> PoolSpan {
        let roll: f64 = rng.gen();
        if roll < 0.15 {
            // Pool covers only the lower half of its /24 (the §3.2 /24
            // expansion over-counts here).
            PoolSpan {
                prefix_count: 1,
                addrs: 128,
            }
        } else if roll < 0.40 && remaining >= 2 {
            // Pool spans two /24s (the expansion under-counts here).
            PoolSpan {
                prefix_count: 2,
                addrs: 512,
            }
        } else {
            PoolSpan {
                prefix_count: 1,
                addrs: 256,
            }
        }
    }

    fn build_dynamic_pool(&mut self, profile: &AsProfile, rng: &mut SmallRng, span: PoolSpan) {
        let pool_id = PoolId(self.pools.len() as u32);
        let first_prefix = self.next_prefix();
        let mut prefixes = vec![first_prefix];
        for _ in 1..span.prefix_count {
            prefixes.push(self.next_prefix());
        }
        for p in &prefixes {
            self.prefixes.push(PrefixRecord {
                prefix: *p,
                asn: profile.asn,
                policy: AddressPolicy::DynamicPool(pool_id),
            });
        }
        let range = IpRange::new(first_prefix.host(0), {
            let last = *prefixes.last().expect("span has at least one prefix");
            if span.addrs == 128 {
                first_prefix.host(127)
            } else {
                last.host(255)
            }
        });

        // Hold times follow a two-component mixture: a minority of pools
        // reallocate within a day (the population §3.2 ultimately targets),
        // the rest follow a broad lognormal from days to many months. The
        // continuous spread matters: Figure 2's sorted allocation-count
        // curve is smooth, and the Kneedle knee lands in single digits only
        // when intermediate churn rates exist.
        let mean_hold = if rng.gen_bool(profile.fast_dynamic_share) {
            let h = stats::sample_lognormal(rng, FAST_HOLD_HOURS_MEAN, 0.8).clamp(4.0, 23.9);
            SimDuration::from_secs((h * 3600.0) as u64)
        } else {
            let d = stats::sample_lognormal(rng, SLOW_HOLD_DAYS_MEAN, 1.1).clamp(1.05, 300.0);
            SimDuration::from_secs((d * 86_400.0) as u64)
        };
        let fast = mean_hold <= SimDuration::from_days(1);

        let sub_count = ((span.addrs as f64) * DYNAMIC_OCCUPANCY * rng.gen_range(0.85..1.0)) as u32;
        let mut subscribers = Vec::with_capacity(sub_count as usize);
        for sub in 0..sub_count {
            let host_id = HostId(self.hosts.len() as u32);
            let behavior = self.subscriber_behavior(profile, rng);
            self.hosts.push(Host {
                id: host_id,
                asn: profile.asn,
                attachment: Attachment::DynamicSub { pool: pool_id, sub },
                behavior,
            });
            subscribers.push(host_id);
        }

        self.pools.push(DynamicPool {
            id: pool_id,
            asn: profile.asn,
            range,
            subscribers,
            mean_hold,
            fast,
        });
    }

    fn build_nat_prefix(&mut self, profile: &AsProfile, rng: &mut SmallRng) {
        let prefix = self.next_prefix();
        self.prefixes.push(PrefixRecord {
            prefix,
            asn: profile.asn,
            policy: AddressPolicy::NatBlock,
        });
        for g in 0..NAT_GATEWAYS_PER_PREFIX {
            let nat_id = NatId(self.nat_gateways.len() as u32);
            let ip = prefix.host((g + 1) as u8);
            let carrier_grade = rng.gen_bool(CGN_FRACTION);
            let user_count = if carrier_grade {
                (stats::sample_lognormal(rng, CGN_MEDIAN_USERS, 1.0).round() as u32)
                    .clamp(3, NAT_MAX_USERS)
            } else if rng.gen_bool(0.35) {
                1 // single-user gateway: NOT a reused address
            } else {
                2 + stats::sample_geometric(rng, 0.55, 6)
            };
            // Home/office NATs split into "P2P households" — where several
            // devices run BitTorrent — and everyone else. This clustering
            // gives Figure 8 its shape: most *detected* NATs show exactly
            // two users, because detection requires ≥2 concurrent clients
            // and that mostly happens in P2P households.
            let p2p_household = !carrier_grade && rng.gen_bool(0.18);
            let mut users = Vec::with_capacity(user_count as usize);
            for slot in 0..user_count {
                let host_id = HostId(self.hosts.len() as u32);
                // In a P2P household the first two devices run BitTorrent
                // for sure (that's what makes it one); further devices
                // rarely do. This is why most detected NATs show exactly
                // two users (Figure 8: 68.5%).
                let behavior = if p2p_household {
                    let rate = if slot < 2 { 0.97 } else { 0.12 };
                    let mut b = self.base_behavior(profile, rng, rate);
                    // P2P devices are disproportionately compromised
                    // (DeKoven et al., cited in §4): give household
                    // devices extra infection pressure. This is also what
                    // puts *small* NATs on blocklists often enough for
                    // Figure 8's two-user dominance.
                    if b.malice.is_none() {
                        let extra = (profile.malice_rate * self.config.malice_boost * 5.0).min(0.5);
                        if rng.gen_bool(extra) {
                            b.malice = self.sample_malice_forced(profile, rng);
                        }
                    }
                    b
                } else {
                    self.nat_user_behavior(profile, rng, carrier_grade)
                };
                self.hosts.push(Host {
                    id: host_id,
                    asn: profile.asn,
                    attachment: Attachment::NatUser {
                        nat: nat_id,
                        slot: slot as u16,
                    },
                    behavior,
                });
                users.push(host_id);
            }
            self.nat_gateways.push(NatGateway {
                id: nat_id,
                ip,
                asn: profile.asn,
                users,
                carrier_grade,
            });
        }
    }

    fn build_static_prefix(&mut self, profile: &AsProfile, rng: &mut SmallRng) {
        let prefix = self.next_prefix();
        self.prefixes.push(PrefixRecord {
            prefix,
            asn: profile.asn,
            policy: AddressPolicy::Static,
        });
        for octet in 1..255u16 {
            if !rng.gen_bool(profile.static_occupancy) {
                continue;
            }
            let host_id = HostId(self.hosts.len() as u32);
            let ip = prefix.host(octet as u8);
            let behavior = self.static_host_behavior(profile, rng);
            self.hosts.push(Host {
                id: host_id,
                asn: profile.asn,
                attachment: Attachment::Static { ip },
                behavior,
            });
        }
    }

    // ----- behaviours -------------------------------------------------------

    fn base_behavior(&self, profile: &AsProfile, rng: &mut SmallRng, bt_rate: f64) -> HostBehavior {
        HostBehavior {
            bittorrent: rng.gen_bool(bt_rate.min(0.95)),
            ripe_probe: false, // assigned in a later pass
            malice: self.sample_malice(profile, rng),
            online_fraction: rng.gen_range(0.35..0.98),
            middlebox: false,
            // Relocation (taking the device to a different network) is not
            // specific to dynamic subscribers: the paper's 13.1% multi-AS
            // probes include moved hardware of every attachment kind.
            multi_as_mover: rng.gen_bool(MULTI_AS_MOVER_RATE),
        }
    }

    fn subscriber_behavior(&self, profile: &AsProfile, rng: &mut SmallRng) -> HostBehavior {
        self.base_behavior(profile, rng, profile.bittorrent_rate)
    }

    fn nat_user_behavior(
        &self,
        profile: &AsProfile,
        rng: &mut SmallRng,
        carrier_grade: bool,
    ) -> HostBehavior {
        let bt_rate = if carrier_grade {
            // Carrier-grade NAT fronts whole access networks with a dense
            // client population — the source of Figure 8's tail.
            CGN_BT_RATE
        } else {
            profile.bittorrent_rate * 0.5
        };
        self.base_behavior(profile, rng, bt_rate)
    }

    fn static_host_behavior(&self, profile: &AsProfile, rng: &mut SmallRng) -> HostBehavior {
        let mut b = self.base_behavior(profile, rng, profile.bittorrent_rate);
        b.middlebox = rng.gen_bool(MIDDLEBOX_RATE);
        if profile.tier == AsTier::Hosting {
            // Servers are up nearly all the time.
            b.online_fraction = rng.gen_range(0.9..1.0);
        }
        b
    }

    fn sample_malice(&self, profile: &AsProfile, rng: &mut SmallRng) -> Option<MaliceProfile> {
        let rate = (profile.malice_rate * self.config.malice_boost).min(0.5);
        if !rng.gen_bool(rate) {
            return None;
        }
        self.sample_malice_forced(profile, rng)
    }

    /// Draw a malice profile unconditionally (the caller already decided
    /// the host is compromised).
    fn sample_malice_forced(
        &self,
        profile: &AsProfile,
        rng: &mut SmallRng,
    ) -> Option<MaliceProfile> {
        let (categories, weights): (&[MaliceCategory], &[f64]) = match profile.tier {
            AsTier::Hosting => (
                &[
                    MaliceCategory::MalwareHosting,
                    MaliceCategory::Scan,
                    MaliceCategory::Ransomware,
                    MaliceCategory::Backdoor,
                    MaliceCategory::Reputation,
                    MaliceCategory::Http,
                ],
                &[0.3, 0.25, 0.1, 0.1, 0.15, 0.1],
            ),
            _ => (
                &[
                    MaliceCategory::Spam,
                    MaliceCategory::Reputation,
                    MaliceCategory::Bruteforce,
                    MaliceCategory::Ssh,
                    MaliceCategory::Ddos,
                    MaliceCategory::Scan,
                    MaliceCategory::Http,
                ],
                &[0.4, 0.2, 0.12, 0.1, 0.08, 0.06, 0.04],
            ),
        };
        let category = categories[stats::weighted_index(rng, weights)];
        let persistence = match profile.tier {
            AsTier::Hosting => MalicePersistence::Dedicated,
            _ => {
                if rng.gen_bool(0.25) {
                    MalicePersistence::Transient
                } else {
                    MalicePersistence::Infection
                }
            }
        };
        let period_days = PERIOD_1.days().max(PERIOD_2.days());
        let active_for = match persistence {
            MalicePersistence::Dedicated => {
                SimDuration::from_days(rng.gen_range((period_days * 3 / 4)..=(period_days + 10)))
            }
            MalicePersistence::Infection => {
                let d = stats::sample_lognormal(rng, 6.0, 0.7).clamp(1.0, period_days as f64);
                SimDuration::from_secs((d * 86_400.0) as u64)
            }
            MalicePersistence::Transient => SimDuration::from_secs(
                (stats::sample_lognormal(rng, 8.0, 0.8).clamp(1.0, 36.0) * 3_600.0) as u64,
            ),
        };
        Some(MaliceProfile {
            category,
            persistence,
            mean_event_gap: SimDuration::from_secs(
                (stats::sample_lognormal(rng, 3.0, 0.6).clamp(0.3, 24.0) * 3_600.0) as u64,
            ),
            start_offset: SimDuration::from_secs(rng.gen_range(0..period_days * 86_400)),
            active_for,
        })
    }

    /// Select RIPE-probe hosts: weighted by the AS's probe rate, scaled to
    /// hit the configured target count.
    fn assign_probes(&mut self) {
        let mut rng = self.seed.fork("probes").rng();
        let as_rate: HashMap<Asn, f64> = self
            .ases
            .iter()
            .map(|a| (a.asn, a.probe_rate * a.region.probe_density()))
            .collect();
        // Probes sit in CPEs, i.e. subscriber-like attachments. NAT users are
        // eligible too (their probe simply reports the gateway address).
        let weights: Vec<f64> = self
            .hosts
            .iter()
            .map(|h| {
                let bias = match h.attachment {
                    Attachment::Static { .. } => PROBE_STATIC_BIAS,
                    Attachment::DynamicSub { .. } => PROBE_DYNAMIC_BIAS,
                    Attachment::NatUser { .. } => 1.0,
                };
                as_rate.get(&h.asn).copied().unwrap_or(0.0) * bias
            })
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return;
        }
        let target = f64::from(self.config.probe_target);
        for (host, w) in self.hosts.iter_mut().zip(weights) {
            let p = (w * target / total).min(1.0);
            if rng.gen_bool(p) {
                host.behavior.ripe_probe = true;
            }
        }
    }

    fn finish(self) -> Universe {
        let prefix_index = self
            .prefixes
            .iter()
            .enumerate()
            .map(|(i, r)| (r.prefix, i))
            .collect();
        let nat_index = self.nat_gateways.iter().map(|g| (g.ip, g.id)).collect();
        Universe {
            seed: self.seed,
            config: self.config,
            ases: self.ases,
            prefixes: self.prefixes,
            nat_gateways: self.nat_gateways,
            pools: self.pools,
            hosts: self.hosts,
            icmp_filtered_ases: self.icmp_filtered_ases,
            prefix_index,
            nat_index,
        }
    }
}

#[derive(Clone, Copy)]
struct PoolSpan {
    prefix_count: u32,
    addrs: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UniverseConfig;

    fn tiny() -> Universe {
        Universe::generate(Seed(7), &UniverseConfig::tiny())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.num_hosts(), b.num_hosts());
        assert_eq!(a.prefixes.len(), b.prefixes.len());
        assert_eq!(a.nat_gateways.len(), b.nat_gateways.len());
        for (x, y) in a.nat_gateways.iter().zip(&b.nat_gateways) {
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.users.len(), y.users.len());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Universe::generate(Seed(1), &UniverseConfig::tiny());
        let b = Universe::generate(Seed(2), &UniverseConfig::tiny());
        // Not a strict requirement for every field, but host counts differing
        // is overwhelmingly likely for distinct seeds.
        assert_ne!(
            (a.num_hosts(), a.nat_gateways.len()),
            (b.num_hosts(), b.nat_gateways.len())
        );
    }

    #[test]
    fn prefixes_are_unique_and_indexed() {
        let u = tiny();
        let mut seen = std::collections::HashSet::new();
        for rec in &u.prefixes {
            assert!(seen.insert(rec.prefix), "duplicate prefix {}", rec.prefix);
            let found = u.prefix_record(rec.prefix).expect("index lookup");
            assert_eq!(found.asn, rec.asn);
        }
    }

    #[test]
    fn nat_ground_truth_consistent() {
        let u = tiny();
        assert!(!u.nat_gateways.is_empty(), "tiny universe has NATs");
        let mut multi = 0;
        for g in &u.nat_gateways {
            assert!(!g.users.is_empty());
            assert_eq!(u.true_nat_user_count(g.ip), Some(g.users.len()));
            if g.users.len() >= 2 {
                multi += 1;
                assert!(u.is_truly_natted(g.ip));
            }
            for uid in &g.users {
                match u.host(*uid).attachment {
                    Attachment::NatUser { nat, .. } => assert_eq!(nat, g.id),
                    other => panic!("NAT user with non-NAT attachment {other:?}"),
                }
            }
        }
        assert!(multi > 0, "some gateways have >=2 users");
    }

    #[test]
    fn nat_user_counts_mostly_small() {
        let u = Universe::generate(Seed(3), &UniverseConfig::small());
        let counts: Vec<usize> = u
            .nat_gateways
            .iter()
            .map(|g| g.users.len())
            .filter(|&n| n >= 2)
            .collect();
        assert!(!counts.is_empty());
        let twos = counts.iter().filter(|&&n| n == 2).count();
        // Small NATs dominate (Figure 8: 68.5% of detected NATed IPs show
        // exactly two users).
        assert!(
            twos * 2 > counts.len(),
            "2-user NATs should be the majority: {twos}/{}",
            counts.len()
        );
        assert!(counts.iter().all(|&n| n <= NAT_MAX_USERS as usize));
    }

    #[test]
    fn dynamic_pools_have_fast_and_slow() {
        let u = Universe::generate(Seed(5), &UniverseConfig::small());
        let fast = u.pools.iter().filter(|p| p.fast).count();
        let slow = u.pools.len() - fast;
        assert!(fast > 0 && slow > 0, "fast={fast} slow={slow}");
        for p in &u.pools {
            if p.fast {
                assert!(p.mean_hold <= SimDuration::from_days(1), "fast pool hold");
            } else {
                // `fast` is *defined* as mean hold ≤ 1 day.
                assert!(p.mean_hold > SimDuration::from_days(1), "slow pool hold");
            }
            assert!(!p.subscribers.is_empty());
            assert!(p.subscribers.len() as u64 <= p.range.len());
        }
    }

    #[test]
    fn dynamic_prefix_ground_truth_respects_fast_flag() {
        let u = tiny();
        let all = u.true_dynamic_prefixes(false);
        let fast = u.true_dynamic_prefixes(true);
        assert!(fast.is_subset(&all));
    }

    #[test]
    fn pool_partial_prefix_policy_lookup() {
        let u = Universe::generate(Seed(11), &UniverseConfig::small());
        // Find a half-/24 pool and check addresses beyond its range fall back
        // to Static in policy_of.
        let half = u.pools.iter().find(|p| p.range.len() == 128);
        if let Some(p) = half {
            let inside = p.range.first;
            let outside = Prefix24::of(p.range.first).host(200);
            assert!(matches!(
                u.policy_of(inside),
                Some(AddressPolicy::DynamicPool(_))
            ));
            assert!(matches!(u.policy_of(outside), Some(AddressPolicy::Static)));
        }
    }

    #[test]
    fn probes_assigned_near_target() {
        let u = Universe::generate(Seed(13), &UniverseConfig::small());
        let probes = u.probe_hosts().count() as f64;
        let target = f64::from(u.config.probe_target);
        assert!(
            probes > target * 0.6 && probes < target * 1.4,
            "probes={probes} target={target}"
        );
    }

    #[test]
    fn populations_exist() {
        let u = tiny();
        assert!(u.bittorrent_hosts().count() > 0);
        assert!(u.malicious_hosts().count() > 0);
        assert!(u.pools.len() > 3);
        assert!(!u.icmp_filtered_ases.is_empty());
    }

    #[test]
    fn probe_density_follows_regions() {
        let u = Universe::generate(Seed(17), &UniverseConfig::small());
        let region_of: std::collections::HashMap<_, _> =
            u.ases.iter().map(|a| (a.asn, a.region)).collect();
        let mut probes_by_region = std::collections::HashMap::new();
        let mut hosts_by_region = std::collections::HashMap::new();
        for h in &u.hosts {
            let r = region_of[&h.asn];
            *hosts_by_region.entry(r).or_insert(0u64) += 1;
            if h.behavior.ripe_probe {
                *probes_by_region.entry(r).or_insert(0u64) += 1;
            }
        }
        let density = |r: crate::asn::Region| {
            *probes_by_region.get(&r).unwrap_or(&0) as f64
                / *hosts_by_region.get(&r).unwrap_or(&1) as f64
        };
        // Europe per-host probe density clearly exceeds Asia's (the §3.2
        // limitation the model encodes).
        assert!(
            density(crate::asn::Region::Europe) > density(crate::asn::Region::Asia) * 2.0,
            "europe {:.5} vs asia {:.5}",
            density(crate::asn::Region::Europe),
            density(crate::asn::Region::Asia)
        );
    }

    #[test]
    fn summary_counts_are_consistent() {
        let u = tiny();
        let s = u.summary();
        assert_eq!(s.hosts, u.num_hosts());
        assert_eq!(s.prefixes, u.prefixes.len());
        assert!(s.multi_user_nats <= s.nat_gateways);
        assert!(s.fast_pools <= s.pools);
        assert_eq!(s.per_tier.values().sum::<u32>() as usize, s.ases);
    }

    #[test]
    fn asn_lookup_roundtrip() {
        let u = tiny();
        for rec in u.prefixes.iter().take(32) {
            assert_eq!(u.asn_of(rec.prefix.host(5)), Some(rec.asn));
        }
        // Unannounced space.
        assert_eq!(u.asn_of("250.250.250.250".parse().unwrap()), None);
    }
}
