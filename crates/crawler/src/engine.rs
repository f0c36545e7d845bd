//! The crawl engine (paper §3.1, Figure 1).
//!
//! The crawler interleaves two activities over the measurement window:
//!
//! 1. **Discovery** — `get_nodes` (KRPC `find_node`) issued to endpoints in
//!    discovery order, starting from the bootstrap node. Replies surface
//!    new `(ip, port, node_id)` sightings; an IP observed with two
//!    different ports becomes a *verification candidate*.
//! 2. **Verification** — hourly `bt_ping` rounds to *all discovered ports*
//!    of every candidate IP. An IP is classified NATed only when a single
//!    round yields ≥ 2 responses with ≥ 2 distinct node_ids on ≥ 2
//!    distinct ports (responses, not sightings — stale ports don't answer).
//!
//! Politeness mirrors the paper: a global send-rate cap, and no IP is
//! contacted twice within 20 minutes.

use crate::config::CrawlConfig;
use crate::log::{Direction, MessageKind, MessageLog, MessageRecord};
use crate::observations::{ObservationMap, Sighting};
use ar_dht::{KrpcTransport, Message, MessageBody, NodeId, Query};
use ar_simnet::time::{SimDuration, SimTime, TimeWindow};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::net::{Ipv4Addr, SocketAddrV4};

/// Re-issue get_nodes to a known endpoint after this long, keeping
/// discovery continuous across the window.
const RECRAWL_AFTER: SimDuration = SimDuration::from_hours(24);
/// Ports drop out of the hourly ping set when not sighted for this long.
/// Without pruning, reboot-era port churn accretes dead ports for every IP,
/// and the bt_ping volume explodes while the response rate collapses — the
/// paper's 1.6B pings / 48.6% responses imply its crawler also confined
/// pings to fresh ports.
const PORT_STALE_AFTER: SimDuration = SimDuration::from_days(3);
/// Hard cap on ports pinged per IP and round (freshest first).
const MAX_PORTS_PER_IP: usize = 128;
/// Bound on cross-partition hand-offs queued per (source partition,
/// destination partition, hour); overflow is counted in
/// `CrawlStats::handoffs_dropped` rather than growing without limit.
const HANDOFF_CAP: usize = 1 << 16;
/// Delay before a verification ping's first re-send under a
/// [`crate::RetryPolicy`]; doubles on each further attempt.
pub(crate) const RETRY_BACKOFF: SimDuration = SimDuration::from_secs(30);
/// No verification re-send is issued later than this far past the
/// original send.
pub(crate) const RETRY_DEADLINE: SimDuration = SimDuration::from_mins(10);

/// Aggregate crawl statistics (paper §4 reports these for the real crawl:
/// 1.6B pings, 779M responses / 48.6%, 48.7M unique IPs, 203M node_ids).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrawlStats {
    pub get_nodes_sent: u64,
    pub pings_sent: u64,
    pub replies_received: u64,
    pub unique_ips: u64,
    pub unique_node_ids: u64,
    pub multiport_ips: u64,
    pub natted_ips: u64,
    pub ping_rounds: u64,
    /// bt_ping re-sends issued by the retry policy (0 unless enabled).
    pub ping_retries: u64,
    /// Ping replies that only arrived on a retry attempt — verification
    /// evidence the retry-free crawler would have lost.
    pub pings_recovered: u64,
    /// bt_pings that drew a reply (any attempt); `pings_sent` minus this
    /// is the timed-out count.
    pub ping_replies: u64,
    /// Cross-partition discoveries routed through the hand-off queues (0
    /// for a one-partition crawl).
    pub handoffs_routed: u64,
    /// Hand-offs discarded because a bounded queue was full.
    pub handoffs_dropped: u64,
}

ar_simnet::codec_struct!(CrawlStats {
    get_nodes_sent,
    pings_sent,
    replies_received,
    unique_ips,
    unique_node_ids,
    multiport_ips,
    natted_ips,
    ping_rounds,
    ping_retries,
    pings_recovered,
    ping_replies,
    handoffs_routed,
    handoffs_dropped
});

impl std::ops::AddAssign<&CrawlStats> for CrawlStats {
    /// Accumulate another crawl's counters. Exhaustively destructures the
    /// right-hand side so a field added to `CrawlStats` without a matching
    /// line here is a compile error — not a silently dropped total.
    fn add_assign(&mut self, other: &CrawlStats) {
        let CrawlStats {
            get_nodes_sent,
            pings_sent,
            replies_received,
            unique_ips,
            unique_node_ids,
            multiport_ips,
            natted_ips,
            ping_rounds,
            ping_retries,
            pings_recovered,
            ping_replies,
            handoffs_routed,
            handoffs_dropped,
        } = *other;
        self.get_nodes_sent += get_nodes_sent;
        self.pings_sent += pings_sent;
        self.replies_received += replies_received;
        self.unique_ips += unique_ips;
        self.unique_node_ids += unique_node_ids;
        self.multiport_ips += multiport_ips;
        self.natted_ips += natted_ips;
        self.ping_rounds += ping_rounds;
        self.ping_retries += ping_retries;
        self.pings_recovered += pings_recovered;
        self.ping_replies += ping_replies;
        self.handoffs_routed += handoffs_routed;
        self.handoffs_dropped += handoffs_dropped;
    }
}

impl CrawlStats {
    /// Fraction of sent messages that drew a reply; 0.0 when nothing was
    /// sent (never NaN — empty crawls are a legitimate degraded outcome).
    pub fn response_rate(&self) -> f64 {
        let sent = self.get_nodes_sent + self.pings_sent;
        if sent == 0 {
            0.0
        } else {
            self.replies_received as f64 / sent as f64
        }
    }

    /// Fraction of issued retries that recovered a reply; 0.0 with retries
    /// off.
    pub fn ping_recovery_rate(&self) -> f64 {
        if self.ping_retries == 0 {
            0.0
        } else {
            self.pings_recovered as f64 / self.ping_retries as f64
        }
    }

    /// bt_pings that never drew a reply on any attempt.
    pub fn pings_timed_out(&self) -> u64 {
        self.pings_sent.saturating_sub(self.ping_replies)
    }

    /// NATed IPs per multiport candidate — how often verification confirms
    /// a candidate; 0.0 when no candidates emerged.
    pub fn nat_yield(&self) -> f64 {
        if self.multiport_ips == 0 {
            0.0
        } else {
            self.natted_ips as f64 / self.multiport_ips as f64
        }
    }
}

/// The crawl's output: everything the analysis crates consume.
#[derive(Debug)]
pub struct CrawlReport {
    pub window: TimeWindow,
    pub stats: CrawlStats,
    pub observations: ObservationMap,
    /// Bounded message log (counters always; records when enabled).
    pub log: MessageLog,
}

ar_simnet::codec_struct!(CrawlReport {
    window,
    stats,
    observations,
    log
});

impl CrawlReport {
    /// A report with no observations at all — the graceful-degradation
    /// stand-in when a crawl phase fails outright.
    pub fn empty(window: TimeWindow) -> CrawlReport {
        CrawlReport {
            window,
            stats: CrawlStats::default(),
            observations: ObservationMap::default(),
            log: MessageLog::new(0, 0),
        }
    }

    /// IPs confirmed as NATed (≥ 2 simultaneous users).
    pub fn natted_ips(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.observations
            .iter()
            .filter(|(_, o)| o.nat.is_some())
            .map(|(ip, _)| *ip)
    }

    /// Lower bound on users behind a NATed IP (Figure 8's metric).
    pub fn user_lower_bound(&self, ip: Ipv4Addr) -> Option<u32> {
        self.observations
            .get(&ip)?
            .nat
            .map(|e| e.max_simultaneous_users)
    }

    /// Every IP the crawler saw running BitTorrent.
    pub fn bittorrent_ips(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.observations.keys().copied()
    }

    /// What a crawler WITHOUT the bt_ping verification round would have
    /// flagged: any IP whose discovered ports carried ≥ 2 distinct
    /// node_ids. Used by the `ablation_pingverify` experiment to quantify
    /// the false positives the paper's design rule avoids.
    pub fn discovery_only_nat_candidates(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.observations
            .iter()
            .filter(|(_, o)| {
                if !o.is_multiport() {
                    return false;
                }
                let ids: BTreeSet<NodeId> = o.ports.values().map(|p| p.last_node_id).collect();
                ids.len() >= 2
            })
            .map(|(ip, _)| *ip)
    }

    /// Publish this crawl's counters into the metrics registry under
    /// `crawler.*`. Counters add (study totals accumulate across periods);
    /// `phase` labels per-period gauges. Pure observation — reading the
    /// report never changes it.
    pub fn record_obs(&self, obs: &ar_obs::Obs, phase: &str) {
        if !obs.enabled() {
            return;
        }
        let s = &self.stats;
        obs.add("crawler.get_nodes_sent", s.get_nodes_sent);
        obs.add("crawler.pings_sent", s.pings_sent);
        obs.add("crawler.ping_replies", s.ping_replies);
        obs.add("crawler.pings_timed_out", s.pings_timed_out());
        obs.add("crawler.ping_retries", s.ping_retries);
        obs.add("crawler.pings_recovered", s.pings_recovered);
        obs.add("crawler.replies_received", s.replies_received);
        obs.add("crawler.ping_rounds", s.ping_rounds);
        obs.add("crawler.unique_ips", s.unique_ips);
        obs.add("crawler.unique_node_ids", s.unique_node_ids);
        obs.add("crawler.multiport_ips", s.multiport_ips);
        obs.add("crawler.natted_ips", s.natted_ips);
        obs.add("crawler.handoffs_routed", s.handoffs_routed);
        obs.add("crawler.handoffs_dropped", s.handoffs_dropped);
        obs.add("crawler.observations", self.observations.len() as u64);
        self.log.record_obs(obs, phase);
        let ports = obs.histogram("crawler.ports_per_ip");
        for o in self.observations.values() {
            ports.observe(o.ports.len() as u64);
        }
    }
}

/// Version bytes from a reply envelope, when it carries exactly four.
fn version_bytes(msg: &Message) -> Option<[u8; 4]> {
    msg.version
        .as_ref()
        .and_then(|v| <[u8; 4]>::try_from(v.as_slice()).ok())
}

/// Serialised crawl state: everything needed to continue a long crawl in
/// a later process, message log included.
#[derive(Debug, Clone)]
pub struct CrawlCheckpoint {
    pub window: TimeWindow,
    /// When the next hourly step runs: the first step of the crawl's
    /// hourly grid at or after the checkpoint's stop time.
    pub resume_at: SimTime,
    pub next_ping_round: SimTime,
    observations: ObservationMap,
    frontier: Vec<SocketAddrV4>,
    enqueued: Vec<SocketAddrV4>,
    live_endpoints: Vec<(SocketAddrV4, SimTime)>,
    multiport: Vec<Ipv4Addr>,
    node_id_digests: Vec<u64>,
    stats: CrawlStats,
    tx_counter: u64,
    effective_rate: f64,
    log: MessageLog,
}

ar_simnet::codec_struct!(CrawlCheckpoint {
    window,
    resume_at,
    next_ping_round,
    observations,
    frontier,
    enqueued,
    live_endpoints,
    multiport,
    node_id_digests,
    stats,
    tx_counter,
    effective_rate,
    log
});

impl CrawlCheckpoint {
    /// Push the resume point forward by `downtime` — the crawler host was
    /// dead for that long, and the hours in between are simply never
    /// crawled. Verification cadence resumes immediately on restart.
    pub fn delay_resume(&mut self, downtime: SimDuration) {
        self.resume_at = (self.resume_at + downtime).min(self.window.end);
        self.next_ping_round = self.next_ping_round.max(self.resume_at);
    }
}

/// Owner shard of an IP under a `count`-way partition: FNV-1a over its
/// /24 prefix bytes, mod the shard count. Pure — the partition layout is a
/// function of the address space alone, never of threads, schedules or
/// iteration order, which is what keeps sharded artifacts byte-identical
/// at any worker count.
pub(crate) fn shard_of(ip: Ipv4Addr, count: usize) -> usize {
    let o = ip.octets();
    let h = ar_simnet::fnv::fnv1a64(&[o[0], o[1], o[2]]);
    (h % count.max(1) as u64) as usize
}

/// A discovery crossing a shard boundary: the source shard saw (or was
/// handed) an endpoint whose IP belongs to another shard's partition, and
/// routes it there instead of touching foreign state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Handoff {
    pub(crate) ep: SocketAddrV4,
    /// Advertised node id to record at the owner; `None` means
    /// enqueue-only (a bootstrap endpoint).
    pub(crate) node_id: Option<NodeId>,
    pub(crate) at: SimTime,
}

/// One partition of a `count`-way crawl. The partition owns the IPs with
/// `shard_of(ip, count) == id`: only those enter its frontier,
/// observations or candidate set; everything else it discovers goes to
/// the owner through the hand-off outbox. A serial crawl is partition 0
/// of 1, which owns every address and never hands anything off.
pub(crate) struct Engine<'c> {
    config: &'c CrawlConfig,
    id: usize,
    count: usize,
    /// Outgoing hand-offs accumulated this hour, one bounded queue per
    /// destination partition; the driver routes them between hours.
    outbox: Vec<Vec<Handoff>>,
    observations: ObservationMap,
    /// Endpoints waiting for their first get_nodes, in discovery order.
    frontier: VecDeque<SocketAddrV4>,
    /// Endpoints ever enqueued (dedup).
    enqueued: HashSet<SocketAddrV4>,
    /// Endpoints that answered at least once, with last crawl time
    /// (sorted: iteration must be deterministic).
    live_endpoints: BTreeMap<SocketAddrV4, SimTime>,
    /// Verification candidates (sorted for determinism).
    multiport: BTreeSet<Ipv4Addr>,
    /// 64-bit digests of observed node_ids.
    node_id_digests: HashSet<u64>,
    stats: CrawlStats,
    /// Our crawler's own node id.
    self_id: NodeId,
    tx_counter: u64,
    log: MessageLog,
    /// Current discovery rate (messages/second/vantage); equals the
    /// configured rate unless `adaptive_rate` has backed it off.
    effective_rate: f64,
    /// When the next verification round is due.
    next_ping_round: SimTime,
}

impl<'c> Engine<'c> {
    pub(crate) fn new(config: &'c CrawlConfig, id: usize, count: usize) -> Self {
        Engine {
            config,
            id,
            count,
            outbox: vec![Vec::new(); count],
            observations: ObservationMap::default(),
            frontier: VecDeque::new(),
            enqueued: HashSet::new(),
            live_endpoints: BTreeMap::new(),
            multiport: BTreeSet::new(),
            node_id_digests: HashSet::new(),
            stats: CrawlStats::default(),
            self_id: NodeId::from_ip_and_nonce(Ipv4Addr::new(127, 0, 0, 1), 0xC4A3),
            // Disjoint transaction-id ranges keep merged message streams
            // collision-free and independent of scheduling.
            tx_counter: (id as u64) << 24,
            log: MessageLog::new(config.log_head, config.log_tail),
            effective_rate: f64::from(config.rate_per_sec),
            next_ping_round: config.window.start,
        }
    }

    /// Does this engine's partition own `ip`?
    fn owns(&self, ip: Ipv4Addr) -> bool {
        shard_of(ip, self.count) == self.id
    }

    /// Queue a discovery for its owner partition.
    fn route_handoff(&mut self, ep: SocketAddrV4, node_id: Option<NodeId>, at: SimTime) {
        let queue = &mut self.outbox[shard_of(*ep.ip(), self.count)];
        if queue.len() >= HANDOFF_CAP {
            self.stats.handoffs_dropped += 1;
        } else {
            queue.push(Handoff { ep, node_id, at });
            self.stats.handoffs_routed += 1;
        }
    }

    /// Hand this hour's outbox to the driver, leaving empty queues behind.
    pub(crate) fn take_outbox(&mut self) -> Vec<Vec<Handoff>> {
        std::mem::replace(&mut self.outbox, vec![Vec::new(); self.count])
    }

    /// Apply the hand-offs routed to this partition. The driver delivers
    /// them in source-partition order; with each source's canonical send
    /// order, that makes the application order (and therefore the
    /// artifacts) independent of which thread stepped which partition.
    pub(crate) fn apply_inbox(&mut self, inbox: Vec<Handoff>) {
        for handoff in inbox {
            if let Some(id) = handoff.node_id {
                self.record(
                    *handoff.ep.ip(),
                    handoff.ep.port(),
                    id,
                    handoff.at,
                    Sighting::Advertised,
                );
            }
            self.enqueue(handoff.ep);
        }
    }

    /// Seed the frontier. Each vantage point gets its own bootstrap draw,
    /// widening the initial frontier the way geographically separate
    /// crawlers would. A partition keeps only its own share of the draw
    /// and routes the rest to the owners.
    pub(crate) fn bootstrap<N: KrpcTransport>(&mut self, net: &mut N) {
        let window = self.config.window;
        let vantages = self.config.vantage_points.max(1);
        for _ in 0..vantages {
            for ep in net.bootstrap(window.start, self.config.bootstrap_size) {
                if self.owns(*ep.ip()) {
                    self.enqueue(ep);
                } else {
                    self.route_handoff(ep, None, window.start);
                }
            }
        }
    }

    /// One crawl hour: a verification round when due, then discovery and
    /// recrawl scheduling. The unit the driver steps every partition
    /// through in lockstep.
    pub(crate) fn step_hour<N: KrpcTransport>(&mut self, net: &mut N, now: SimTime) {
        if !self.config.disable_ping_verification && now >= self.next_ping_round {
            self.ping_round(net, now);
            // Under adaptive backoff the verification cadence stretches
            // with the same factor — pings are the bulk of the traffic
            // the paper's network admins objected to.
            let backoff = if self.config.adaptive_rate {
                (f64::from(self.config.rate_per_sec) / self.effective_rate).clamp(1.0, 24.0)
            } else {
                1.0
            };
            let gap = (self.config.ping_round_every.as_secs() as f64 * backoff) as u64;
            self.next_ping_round = now + SimDuration::from_secs(gap);
        }
        self.discover(net, now);
        self.schedule_recrawls(now);
    }

    pub(crate) fn into_checkpoint(self, resume_at: SimTime) -> CrawlCheckpoint {
        // Sets and maps are serialised as sorted vectors so checkpoints are
        // byte-stable across runs.
        let mut enqueued: Vec<SocketAddrV4> = self.enqueued.into_iter().collect();
        enqueued.sort();
        let mut digests: Vec<u64> = self.node_id_digests.into_iter().collect();
        digests.sort_unstable();
        CrawlCheckpoint {
            window: self.config.window,
            resume_at,
            next_ping_round: self.next_ping_round,
            observations: self.observations,
            frontier: self.frontier.into_iter().collect(),
            enqueued,
            live_endpoints: self.live_endpoints.into_iter().collect(),
            multiport: self.multiport.into_iter().collect(),
            node_id_digests: digests,
            stats: self.stats,
            tx_counter: self.tx_counter,
            effective_rate: self.effective_rate,
            log: self.log,
        }
    }

    /// Partition 0 of 1 restored from `cp`: checkpointed crawls run one
    /// partition.
    pub(crate) fn from_checkpoint(config: &'c CrawlConfig, cp: CrawlCheckpoint) -> Self {
        Engine {
            observations: cp.observations,
            frontier: cp.frontier.into(),
            enqueued: cp.enqueued.into_iter().collect(),
            live_endpoints: cp.live_endpoints.into_iter().collect(),
            multiport: cp.multiport.into_iter().collect(),
            node_id_digests: cp.node_id_digests.into_iter().collect(),
            stats: cp.stats,
            tx_counter: cp.tx_counter,
            log: cp.log,
            effective_rate: cp.effective_rate,
            next_ping_round: cp.next_ping_round,
            ..Engine::new(config, 0, 1)
        }
    }

    /// Merge a crawl's finished partitions into the canonical report.
    ///
    /// The merge order is fixed: partition id, then each partition's own
    /// canonical event order. Observations are disjoint across partitions
    /// by construction — every sighting of an IP is recorded at its owner —
    /// so extending the sorted map is a pure union; node-id digests can
    /// overlap (IP churn moves a node id across partitions over time) and
    /// are re-deduplicated here. With one partition the merge re-derives
    /// that partition's own totals and re-emits its log unchanged.
    pub(crate) fn finish_merged<'e>(
        config: &CrawlConfig,
        engines: impl IntoIterator<Item = Engine<'e>>,
    ) -> CrawlReport {
        let mut observations = ObservationMap::default();
        let mut multiport: BTreeSet<Ipv4Addr> = BTreeSet::new();
        let mut digests: HashSet<u64> = HashSet::new();
        let mut stats = CrawlStats::default();
        let mut rounds = 0u64;
        let mut logs = Vec::new();
        for engine in engines {
            observations.extend(engine.observations);
            multiport.extend(engine.multiport);
            digests.extend(engine.node_id_digests);
            rounds = rounds.max(engine.stats.ping_rounds);
            stats += &engine.stats;
            logs.push(engine.log);
        }
        // Partitions tick verification rounds in lockstep: the campaign
        // ran max-over-partitions rounds, not the per-partition sum.
        stats.ping_rounds = rounds;
        stats.unique_ips = observations.len() as u64;
        stats.unique_node_ids = digests.len() as u64;
        stats.multiport_ips = multiport.len() as u64;
        stats.natted_ips = observations.values().filter(|o| o.nat.is_some()).count() as u64;
        CrawlReport {
            window: config.window,
            stats,
            observations,
            log: MessageLog::merge_shards(config.log_head, config.log_tail, logs),
        }
    }

    fn next_tx(&mut self) -> [u8; 4] {
        self.tx_counter += 1;
        (self.tx_counter as u32).to_be_bytes()
    }

    fn enqueue(&mut self, ep: SocketAddrV4) {
        if self.config.scope.contains(*ep.ip()) && self.enqueued.insert(ep) {
            self.frontier.push_back(ep);
        }
    }

    fn digest_node_id(&mut self, id: NodeId) {
        self.node_id_digests
            .insert(ar_simnet::fnv::fnv1a64(id.as_bytes()));
    }

    fn record(&mut self, ip: Ipv4Addr, port: u16, id: NodeId, t: SimTime, sighting: Sighting) {
        self.record_with_version(ip, port, id, t, sighting, None);
    }

    fn record_with_version(
        &mut self,
        ip: Ipv4Addr,
        port: u16,
        id: NodeId,
        t: SimTime,
        sighting: Sighting,
        version: Option<[u8; 4]>,
    ) {
        let obs = self.observations.entry(ip).or_default();
        obs.record_with_version(port, id, t, sighting, version);
        if obs.is_multiport() && self.config.scope.contains(ip) {
            self.multiport.insert(ip);
        }
        self.digest_node_id(id);
    }

    fn cooled_down(&self, ip: Ipv4Addr, now: SimTime) -> bool {
        match self.observations.get(&ip).and_then(|o| o.last_contact) {
            Some(last) => now.saturating_sub(last) >= self.config.per_ip_cooldown,
            None => true,
        }
    }

    fn touch(&mut self, ip: Ipv4Addr, now: SimTime) {
        self.observations.entry(ip).or_default().last_contact = Some(now);
    }

    /// One hour of discovery traffic (all vantage points combined: each
    /// contributes its own rate budget, so V vantages sweep the frontier
    /// V× faster without any single network bearing more probe load).
    fn discover<N: KrpcTransport>(&mut self, net: &mut N, hour_start: SimTime) {
        let total_budget = ((self.effective_rate * 3600.0) as u64).max(60)
            * u64::from(self.config.vantage_points.max(1));
        // A partition spends its slice of the global politeness budget, so
        // the aggregate send rate is the same at every partition count.
        let count = self.count as u64;
        let budget = total_budget / count + u64::from((self.id as u64) < total_budget % count);
        let sent_before = self.stats.get_nodes_sent + self.stats.pings_sent;
        let replies_before = self.stats.replies_received;
        let mut sent: u64 = 0;
        let mut deferred: Vec<SocketAddrV4> = Vec::new();
        let hour_end = hour_start + SimDuration::from_hours(1);

        while sent < budget {
            let Some(ep) = self.frontier.pop_front() else {
                break;
            };
            // Spread sends across the hour at the combined vantage rate.
            let per_sec = (budget / 3600).max(1);
            let t = SimTime(hour_start.as_secs() + (sent / per_sec));
            if t >= hour_end || t >= self.config.window.end {
                self.frontier.push_front(ep);
                break;
            }
            if !self.cooled_down(*ep.ip(), t) {
                deferred.push(ep);
                continue;
            }
            sent += 1;
            self.touch(*ep.ip(), t);
            self.stats.get_nodes_sent += 1;
            self.log.push(MessageRecord {
                time: t,
                direction: Direction::Sent,
                kind: MessageKind::GetNodes,
                endpoint: ep,
            });
            let tx = self.next_tx();
            let msg = Message::query(
                tx,
                Query::FindNode {
                    id: self.self_id,
                    target: NodeId::from_ip_and_nonce(*ep.ip(), u64::from(ep.port())),
                },
            );
            let Some(delivered) = net.query(t, ep, &msg) else {
                continue;
            };
            self.stats.replies_received += 1;
            self.log.push(MessageRecord {
                time: delivered.at,
                direction: Direction::Received,
                kind: MessageKind::Reply,
                endpoint: delivered.from,
            });
            self.live_endpoints.insert(ep, t);
            let version = version_bytes(&delivered.message);
            let MessageBody::Response(r) = delivered.message.body else {
                continue;
            };
            if let Some(id) = r.id {
                self.record_with_version(
                    *ep.ip(),
                    ep.port(),
                    id,
                    delivered.at,
                    Sighting::Responded,
                    version,
                );
            }
            for node in r.nodes.unwrap_or_default() {
                if self.owns(*node.addr.ip()) {
                    self.record(
                        *node.addr.ip(),
                        node.addr.port(),
                        node.id,
                        delivered.at,
                        Sighting::Advertised,
                    );
                    self.enqueue(node.addr);
                } else {
                    // Foreign partition: the owner records the sighting and
                    // decides whether to enqueue, at the next sync point.
                    self.route_handoff(node.addr, Some(node.id), delivered.at);
                }
            }
        }
        // Cooling endpoints try again next hour.
        for ep in deferred {
            self.frontier.push_back(ep);
        }

        // AIMD politeness: back off hard on dead air, recover slowly.
        if self.config.adaptive_rate {
            let sent_hour = (self.stats.get_nodes_sent + self.stats.pings_sent) - sent_before;
            let replies_hour = self.stats.replies_received - replies_before;
            if sent_hour >= 50 {
                let response = replies_hour as f64 / sent_hour as f64;
                if response < 0.2 {
                    // Floor well below 1 msg/s: dead space deserves little.
                    self.effective_rate = (self.effective_rate / 2.0).max(0.05);
                } else if response > 0.5 {
                    self.effective_rate =
                        (self.effective_rate * 1.1).min(f64::from(self.config.rate_per_sec));
                }
            }
        }
    }

    /// Hourly bt_ping verification of every multiport candidate.
    fn ping_round<N: KrpcTransport>(&mut self, net: &mut N, now: SimTime) {
        self.stats.ping_rounds += 1;
        let candidates: Vec<Ipv4Addr> = self
            .multiport
            .iter()
            .copied()
            .filter(|ip| self.cooled_down(*ip, now))
            .collect();
        for ip in candidates {
            // Ping only freshly-sighted ports (newest first, capped): dead
            // ports from old reboot eras waste probes and cannot answer.
            let obs = &self.observations[&ip];
            let mut fresh: Vec<(SimTime, u16)> = obs
                .ports
                .iter()
                .filter(|(_, rec)| now.saturating_sub(rec.last_seen) <= PORT_STALE_AFTER)
                .map(|(port, rec)| (rec.last_seen, *port))
                .collect();
            fresh.sort_unstable_by(|a, b| b.cmp(a));
            fresh.truncate(MAX_PORTS_PER_IP);
            let ports: Vec<u16> = fresh.into_iter().map(|(_, p)| p).collect();
            if ports.len() < 2 {
                continue; // nothing verifiable this round
            }
            let mut responders: Vec<(u16, NodeId)> = Vec::new();
            self.touch(ip, now);
            for port in ports {
                let endpoint = SocketAddrV4::new(ip, port);
                // Retry-with-exponential-backoff: attempt 0 is the normal
                // ping; with `ping_retry` enabled, unanswered pings are
                // re-sent after a doubling delay until the policy's retry
                // budget or the deadline runs out. With the default (off)
                // policy this loop body executes exactly once, preserving
                // the retry-free engine's behaviour bit for bit.
                let deadline = (now + RETRY_DEADLINE)
                    .min(self.config.window.end)
                    .min(now + self.config.ping_round_every);
                let mut send_at = now;
                let mut delay = RETRY_BACKOFF;
                for attempt in 0..=self.config.ping_retry.max_retries {
                    self.stats.pings_sent += 1;
                    if attempt > 0 {
                        self.stats.ping_retries += 1;
                    }
                    self.log.push(MessageRecord {
                        time: send_at,
                        direction: Direction::Sent,
                        kind: MessageKind::BtPing,
                        endpoint,
                    });
                    let tx = self.next_tx();
                    let msg = Message::query(tx, Query::Ping { id: self.self_id });
                    if let Some(delivered) = net.query(send_at, endpoint, &msg) {
                        self.stats.replies_received += 1;
                        self.stats.ping_replies += 1;
                        if attempt > 0 {
                            self.stats.pings_recovered += 1;
                        }
                        self.log.push(MessageRecord {
                            time: delivered.at,
                            direction: Direction::Received,
                            kind: MessageKind::Reply,
                            endpoint,
                        });
                        let version = version_bytes(&delivered.message);
                        if let MessageBody::Response(r) = delivered.message.body {
                            if let Some(id) = r.id {
                                responders.push((port, id));
                                self.record_with_version(
                                    ip,
                                    port,
                                    id,
                                    delivered.at,
                                    Sighting::Responded,
                                    version,
                                );
                            }
                        }
                        break;
                    }
                    let next = send_at + delay;
                    if next >= deadline {
                        break;
                    }
                    send_at = next;
                    delay = delay.mul(2);
                }
            }
            self.observations
                .get_mut(&ip)
                .expect("candidate has observations")
                .apply_round(now, &responders);
        }
    }

    /// Re-enqueue live endpoints whose recrawl timer expired.
    fn schedule_recrawls(&mut self, now: SimTime) {
        let due: Vec<SocketAddrV4> = self
            .live_endpoints
            .iter()
            .filter(|(_, last)| now.saturating_sub(**last) >= RECRAWL_AFTER)
            .map(|(ep, _)| *ep)
            .collect();
        for ep in due {
            self.live_endpoints.insert(ep, now);
            // Bypass the dedup set: recrawls are intentional revisits.
            self.frontier.push_back(ep);
        }
    }
}

// Tests live in crawler/src/lib.rs's integration-style module and in
// tests/ at the workspace root; the engine's pieces are unit-tested via
// `observations` and `config`.

#[cfg(test)]
mod stats_tests {
    use super::CrawlStats;

    #[test]
    fn add_assign_sums_every_field() {
        let a = CrawlStats {
            get_nodes_sent: 1,
            pings_sent: 2,
            replies_received: 3,
            unique_ips: 4,
            unique_node_ids: 5,
            multiport_ips: 6,
            natted_ips: 7,
            ping_rounds: 8,
            ping_retries: 9,
            pings_recovered: 10,
            ping_replies: 11,
            handoffs_routed: 12,
            handoffs_dropped: 13,
        };
        let mut total = a;
        total += &a;
        assert_eq!(
            total,
            CrawlStats {
                get_nodes_sent: 2,
                pings_sent: 4,
                replies_received: 6,
                unique_ips: 8,
                unique_node_ids: 10,
                multiport_ips: 12,
                natted_ips: 14,
                ping_rounds: 16,
                ping_retries: 18,
                pings_recovered: 20,
                ping_replies: 22,
                handoffs_routed: 24,
                handoffs_dropped: 26,
            }
        );
    }

    #[test]
    fn pings_timed_out_is_sent_minus_replies() {
        let stats = CrawlStats {
            pings_sent: 10,
            ping_replies: 7,
            ..CrawlStats::default()
        };
        assert_eq!(stats.pings_timed_out(), 3);
        assert_eq!(CrawlStats::default().pings_timed_out(), 0);
    }

    #[test]
    fn ratios_are_zero_not_nan_on_empty_stats() {
        // Regression: a crawl that never sent anything (failed phase,
        // empty scope) must report 0.0, not NaN, from every ratio.
        let empty = CrawlStats::default();
        assert_eq!(empty.response_rate(), 0.0);
        assert_eq!(empty.ping_recovery_rate(), 0.0);
        assert_eq!(empty.nat_yield(), 0.0);
    }
}
