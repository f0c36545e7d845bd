//! The simulated UDP fabric the crawler talks to.
//!
//! [`SimNetwork`] plays the role of "the Internet + the live DHT": the
//! crawler hands it a KRPC query addressed to an endpoint at a virtual
//! time, and receives either a reply (with latency) or nothing — because
//! the datagram was lost (the paper observed a 48.6% overall response
//! rate), the endpoint's host is offline, or the port binding is stale.
//!
//! Fault injection is explicit and configurable ([`SimParams`]), in the
//! spirit of smoltcp's `--drop-chance`-style knobs.

use crate::population::DhtPopulation;
use crate::wire::{Message, MessageBody, Query, Response};
use ar_simnet::alloc::AllocationPlan;
use ar_simnet::rng::{Rng, Seed, SmallRng};
use ar_simnet::time::{SimDuration, SimTime};
use ar_simnet::universe::Universe;
use std::net::SocketAddrV4;

/// Fault-injection and behaviour parameters of the fabric.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Probability a query datagram is lost on the way out.
    pub query_loss: f64,
    /// Probability a reply datagram is lost on the way back.
    pub reply_loss: f64,
    /// Mean one-way latency.
    pub mean_latency_ms: u64,
    /// Mean age of neighbour-table entries returned by find_node.
    pub neighbor_staleness: SimDuration,
    /// Probability an online client actually answers (some clients drop
    /// unsolicited queries).
    pub respond_prob: f64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            query_loss: 0.12,
            reply_loss: 0.12,
            mean_latency_ms: 140,
            neighbor_staleness: SimDuration::from_hours(3),
            respond_prob: 0.92,
        }
    }
}

/// Counters mirroring the paper's §4 reporting (1.6B pings sent, 779M
/// responses, 48.6% response rate).
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    pub queries_sent: u64,
    pub queries_lost: u64,
    pub no_listener: u64,
    pub not_responding: u64,
    pub replies_lost: u64,
    pub replies_delivered: u64,
}

impl NetStats {
    /// Fraction of sent queries that produced a delivered reply.
    pub fn response_rate(&self) -> f64 {
        if self.queries_sent == 0 {
            return 0.0;
        }
        self.replies_delivered as f64 / self.queries_sent as f64
    }
}

/// A reply as delivered to the querier.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// When the reply arrives at the querier.
    pub at: SimTime,
    /// Source endpoint the datagram appears to come from.
    pub from: SocketAddrV4,
    pub message: Message,
}

/// What the §3.1 crawler needs from a network: a bootstrap source and a
/// fire-one-query primitive. [`SimNetwork`] implements it for the
/// deterministic fabric; `udp::UdpKrpc` implements it over real sockets,
/// making the crawler binary deployable against a live DHT.
pub trait KrpcTransport {
    /// Endpoints to seed a crawl with.
    fn bootstrap(&mut self, now: SimTime, n: usize) -> Vec<SocketAddrV4>;
    /// Send a query; `None` on loss/timeout/no-listener.
    fn query(&mut self, now: SimTime, dst: SocketAddrV4, msg: &Message) -> Option<Delivered>;
}

// Decorators (e.g. `FaultyTransport`) take the inner transport by value;
// this lets callers hand them a borrow instead and keep the network.
impl<T: KrpcTransport + ?Sized> KrpcTransport for &mut T {
    fn bootstrap(&mut self, now: SimTime, n: usize) -> Vec<SocketAddrV4> {
        (**self).bootstrap(now, n)
    }
    fn query(&mut self, now: SimTime, dst: SocketAddrV4, msg: &Message) -> Option<Delivered> {
        (**self).query(now, dst, msg)
    }
}

/// One-way latency draw shared by every fabric flavour.
fn sample_latency(rng: &mut SmallRng, params: &SimParams) -> SimDuration {
    let ms = ar_simnet::stats::sample_exponential(rng, params.mean_latency_ms as f64).max(5.0);
    SimDuration::from_secs((ms / 1000.0).ceil() as u64)
}

/// The fabric's query path, parameterised over whose RNG stream and stats
/// it consumes. [`SimNetwork`] and [`SimNetShard`] both delegate here, so
/// the loss/latency/neighbour-sampling behaviour is defined exactly once.
fn fabric_query(
    pop: &DhtPopulation<'_>,
    params: &SimParams,
    rng: &mut SmallRng,
    stats: &mut NetStats,
    now: SimTime,
    dst: SocketAddrV4,
    msg: &Message,
) -> Option<Delivered> {
    stats.queries_sent += 1;
    let MessageBody::Query(ref query) = msg.body else {
        // The fabric only routes queries; responses/errors from the
        // crawler have no meaning here.
        return None;
    };
    if rng.gen_bool(params.query_loss) {
        stats.queries_lost += 1;
        return None;
    }
    let arrive = now + sample_latency(rng, params);
    let Some((_, session)) = pop.resolve(dst, arrive) else {
        stats.no_listener += 1;
        return None;
    };
    if !rng.gen_bool(params.respond_prob) {
        stats.not_responding += 1;
        return None;
    }
    let response = match query {
        Query::Ping { .. } => Response::pong(session.node_id),
        Query::FindNode { .. } => {
            let neighbors = pop.sample_neighbors(rng, arrive, 8, params.neighbor_staleness);
            Response::found_nodes(session.node_id, neighbors)
        }
        Query::GetPeers { .. } => {
            // Peer storage is out of scope for the reproduction: answer
            // with closest nodes, as a node with no matching peers does.
            let neighbors = pop.sample_neighbors(rng, arrive, 8, params.neighbor_staleness);
            Response {
                id: Some(session.node_id),
                nodes: Some(neighbors),
                token: Some(b"sim-token".to_vec()),
                values: None,
            }
        }
        Query::AnnouncePeer { .. } => Response::pong(session.node_id),
    };
    if rng.gen_bool(params.reply_loss) {
        stats.replies_lost += 1;
        return None;
    }
    stats.replies_delivered += 1;
    let reply = Message::response(&msg.transaction[..], response).with_version(session.version);
    Some(Delivered {
        at: arrive + sample_latency(rng, params),
        from: dst,
        message: reply,
    })
}

/// The fabric's bootstrap draw (stand-in for `router.bittorrent.com`).
fn fabric_bootstrap(
    pop: &DhtPopulation<'_>,
    rng: &mut SmallRng,
    now: SimTime,
    n: usize,
) -> Vec<SocketAddrV4> {
    let mut out = Vec::with_capacity(n);
    let hosts = pop.bt_hosts();
    if hosts.is_empty() {
        return out;
    }
    for _ in 0..(n * 4) {
        if out.len() >= n {
            break;
        }
        let host = hosts[rng.gen_range(0..hosts.len())];
        if let Some(ep) = pop.endpoint(host, now) {
            out.push(ep);
        }
    }
    out
}

/// The simulated network fabric.
pub struct SimNetwork<'u> {
    pop: DhtPopulation<'u>,
    params: SimParams,
    rng: SmallRng,
    pub stats: NetStats,
}

impl<'u> SimNetwork<'u> {
    pub fn new(universe: &'u Universe, alloc: &'u AllocationPlan, params: SimParams) -> Self {
        let pop = DhtPopulation::new(universe, alloc);
        let rng = universe.seed.fork("simnet").rng();
        SimNetwork {
            pop,
            params,
            rng,
            stats: NetStats::default(),
        }
    }

    pub fn population(&self) -> &DhtPopulation<'u> {
        &self.pop
    }

    /// Send `query` to `dst` at `now`; returns the delivered reply, if the
    /// stars align.
    pub fn query(&mut self, now: SimTime, dst: SocketAddrV4, msg: &Message) -> Option<Delivered> {
        fabric_query(
            &self.pop,
            &self.params,
            &mut self.rng,
            &mut self.stats,
            now,
            dst,
            msg,
        )
    }

    /// Endpoints a bootstrap node would hand a fresh crawler at `now`
    /// (stand-in for `router.bittorrent.com`).
    pub fn bootstrap(&mut self, now: SimTime, n: usize) -> Vec<SocketAddrV4> {
        fabric_bootstrap(&self.pop, &mut self.rng, now, n)
    }
}

impl KrpcTransport for SimNetwork<'_> {
    fn bootstrap(&mut self, now: SimTime, n: usize) -> Vec<SocketAddrV4> {
        SimNetwork::bootstrap(self, now, n)
    }
    fn query(&mut self, now: SimTime, dst: SocketAddrV4, msg: &Message) -> Option<Delivered> {
        SimNetwork::query(self, now, dst, msg)
    }
}

/// A shard-splittable fabric for the partitioned crawler: one shared
/// [`DhtPopulation`] (pure `(seed, host, time)` functions, so sharing is
/// safe), with an independent seeded RNG stream per shard.
///
/// Per-shard streams are the determinism keystone: shard `i` always draws
/// from `seed.fork_idx("simnet-shard", i)`, so its loss rolls, latencies
/// and neighbour samples do not depend on which worker thread runs it or
/// on how many threads exist.
pub struct ShardedSimNetwork<'u> {
    pop: DhtPopulation<'u>,
    params: SimParams,
    seed: Seed,
}

impl<'u> ShardedSimNetwork<'u> {
    pub fn new(universe: &'u Universe, alloc: &'u AllocationPlan, params: SimParams) -> Self {
        let pop = DhtPopulation::new(universe, alloc);
        ShardedSimNetwork {
            pop,
            params,
            seed: universe.seed,
        }
    }

    pub fn population(&self) -> &DhtPopulation<'u> {
        &self.pop
    }

    /// The transport for shard `idx` — its RNG stream is a pure function
    /// of `(universe seed, idx)`.
    pub fn shard(&self, idx: u64) -> SimNetShard<'_, 'u> {
        SimNetShard {
            pop: &self.pop,
            params: &self.params,
            rng: self.seed.fork_idx("simnet-shard", idx).rng(),
            stats: NetStats::default(),
        }
    }

    /// All `n` shard transports, in shard order.
    pub fn shards(&self, n: usize) -> Vec<SimNetShard<'_, 'u>> {
        (0..n as u64).map(|i| self.shard(i)).collect()
    }
}

/// One shard's view of the fabric: shared population, private RNG stream
/// and counters. `Send`, so the partitioned crawler can move each shard
/// onto a worker thread.
pub struct SimNetShard<'n, 'u> {
    pop: &'n DhtPopulation<'u>,
    params: &'n SimParams,
    rng: SmallRng,
    pub stats: NetStats,
}

impl KrpcTransport for SimNetShard<'_, '_> {
    fn bootstrap(&mut self, now: SimTime, n: usize) -> Vec<SocketAddrV4> {
        fabric_bootstrap(self.pop, &mut self.rng, now, n)
    }
    fn query(&mut self, now: SimTime, dst: SocketAddrV4, msg: &Message) -> Option<Delivered> {
        fabric_query(
            self.pop,
            self.params,
            &mut self.rng,
            &mut self.stats,
            now,
            dst,
            msg,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_id::NodeId;
    use ar_simnet::alloc::InterestSet;
    use ar_simnet::config::UniverseConfig;
    use ar_simnet::time::PERIOD_1;

    struct Fx {
        universe: Universe,
        alloc: AllocationPlan,
    }

    impl Fx {
        fn new() -> Self {
            let universe = Universe::generate(Seed(77), &UniverseConfig::tiny());
            let alloc = AllocationPlan::build(&universe, PERIOD_1, InterestSet::Observable);
            Fx { universe, alloc }
        }
        fn net(&self) -> SimNetwork<'_> {
            SimNetwork::new(&self.universe, &self.alloc, SimParams::default())
        }
    }

    fn t0() -> SimTime {
        PERIOD_1.start + SimDuration::from_days(3)
    }

    fn ping_msg(rng: &mut SmallRng) -> Message {
        Message::query(
            b"t1",
            Query::Ping {
                id: NodeId::random(rng),
            },
        )
    }

    #[test]
    fn pings_to_live_endpoints_get_pongs() {
        let fx = Fx::new();
        let mut net = fx.net();
        let mut rng = Seed(1).rng();
        let mut pongs = 0;
        let mut sent = 0;
        let eps = net.bootstrap(t0(), 50);
        assert!(!eps.is_empty());
        for ep in eps {
            sent += 1;
            if let Some(d) = net.query(t0(), ep, &ping_msg(&mut rng)) {
                assert!(d.at > t0());
                assert_eq!(d.from, ep);
                match d.message.body {
                    MessageBody::Response(r) => assert!(r.id.is_some()),
                    ref other => panic!("expected response, got {other:?}"),
                }
                pongs += 1;
            }
        }
        assert!(pongs > sent / 3, "response rate too low: {pongs}/{sent}");
        assert!(pongs < sent, "losses should eat some replies");
    }

    #[test]
    fn find_node_returns_neighbors() {
        let fx = Fx::new();
        let mut net = fx.net();
        let mut rng = Seed(2).rng();
        let eps = net.bootstrap(t0(), 30);
        let mut found = 0;
        for ep in eps {
            let q = Message::query(
                b"fn",
                Query::FindNode {
                    id: NodeId::random(&mut rng),
                    target: NodeId::random(&mut rng),
                },
            );
            if let Some(d) = net.query(t0(), ep, &q) {
                if let MessageBody::Response(r) = d.message.body {
                    let nodes = r.nodes.expect("find_node reply carries nodes");
                    assert!(nodes.len() <= 8);
                    found += nodes.len();
                    assert!(d.message.version.is_some(), "peers advertise a version");
                }
            }
        }
        assert!(found > 20, "crawl discovery must progress: {found}");
    }

    #[test]
    fn stats_track_outcomes() {
        let fx = Fx::new();
        let mut net = fx.net();
        let mut rng = Seed(3).rng();
        for ep in net.bootstrap(t0(), 100) {
            let _ = net.query(t0(), ep, &ping_msg(&mut rng));
        }
        // Dead endpoint: unannounced space.
        let dead: SocketAddrV4 = "250.1.2.3:5555".parse().unwrap();
        for _ in 0..20 {
            assert!(net.query(t0(), dead, &ping_msg(&mut rng)).is_none());
        }
        let s = net.stats;
        assert_eq!(
            s.queries_sent,
            s.queries_lost
                + s.no_listener
                + s.not_responding
                + s.replies_lost
                + s.replies_delivered
        );
        assert!(s.no_listener >= 14, "dead endpoints mostly counted: {s:?}");
        assert!(s.replies_delivered > 0);
        assert!(s.response_rate() > 0.0 && s.response_rate() < 1.0);
    }

    #[test]
    fn response_rate_is_zero_not_nan_when_idle() {
        // Regression: a fabric that never carried a query reports 0.0.
        let s = NetStats::default();
        assert_eq!(s.response_rate(), 0.0);
    }

    #[test]
    fn non_query_messages_are_dropped() {
        let fx = Fx::new();
        let mut net = fx.net();
        let resp = Message::response(b"zz", Response::pong(NodeId([1; 20])));
        let ep = net.bootstrap(t0(), 1)[0];
        assert!(net.query(t0(), ep, &resp).is_none());
    }
}
