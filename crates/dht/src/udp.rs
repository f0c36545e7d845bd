//! A real (blocking std-UDP) Mainline DHT node.
//!
//! The simulation is the substrate for the paper's experiments, but the
//! protocol stack is real: this module runs an actual KRPC node on a UDP
//! socket — enough to bootstrap small private swarms on loopback, which the
//! `live_dht_demo` example and the cross-crate integration tests use to
//! prove the codec and crawler logic work over genuine datagrams.
//!
//! Threads + blocking sockets are deliberate: the node serves one datagram
//! at a time, state fits in one mutex, and determinism matters more than
//! concurrency here (see DESIGN.md on why no async runtime).

use crate::node_id::NodeId;
use crate::routing::{Contact, RoutingTable};
use crate::wire::{KrpcError, Message, MessageBody, Query, Response};
use ar_simnet::rng::{mix64, GOLDEN_GAMMA};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Maximum KRPC datagram we accept (BEP-5 practice keeps them well below
/// typical MTUs).
pub const MAX_DATAGRAM: usize = 2048;

/// Shared state of a running node.
struct NodeState {
    table: Mutex<RoutingTable>,
    /// info_hash → announced peers (BEP-5 peer storage).
    peers: Mutex<std::collections::HashMap<[u8; 20], Vec<SocketAddrV4>>>,
    queries_served: AtomicU64,
    running: AtomicBool,
}

/// Opaque write token: a keyed digest of the requester's IP, as BEP-5
/// prescribes ("the token … is the SHA1 hash of the IP address concatenated
/// onto a secret"; the digest here is non-cryptographic, the *protocol
/// flow* is what matters for the reproduction).
fn token_for(ip: &Ipv4Addr, secret: u64) -> [u8; 8] {
    mix64(u64::from(u32::from(*ip)) ^ secret ^ GOLDEN_GAMMA).to_be_bytes()
}

/// Per-process token secret (stable for a node's lifetime).
const TOKEN_SECRET: u64 = 0xA17C_E5EC_0DE5_EED5;

/// Handle to a spawned DHT node.
pub struct DhtNode {
    id: NodeId,
    addr: SocketAddrV4,
    state: Arc<NodeState>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl DhtNode {
    /// Bind and start serving on `bind_addr` (use port 0 for an ephemeral
    /// port). Returns once the service thread is running.
    pub fn spawn(id: NodeId, bind_addr: SocketAddrV4) -> io::Result<DhtNode> {
        let socket = UdpSocket::bind(bind_addr)?;
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let local = match socket.local_addr()? {
            SocketAddr::V4(a) => a,
            SocketAddr::V6(_) => {
                return Err(io::Error::other("IPv4 only"));
            }
        };
        let state = Arc::new(NodeState {
            table: Mutex::new(RoutingTable::new(id)),
            peers: Mutex::new(std::collections::HashMap::new()),
            queries_served: AtomicU64::new(0),
            running: AtomicBool::new(true),
        });
        let thread_state = Arc::clone(&state);
        let thread = std::thread::Builder::new()
            .name(format!("dht-{local}"))
            .spawn(move || serve(socket, id, thread_state))?;
        Ok(DhtNode {
            id,
            addr: local,
            state,
            thread: Some(thread),
        })
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn addr(&self) -> SocketAddrV4 {
        self.addr
    }

    pub fn queries_served(&self) -> u64 {
        self.state.queries_served.load(Ordering::Relaxed)
    }

    /// Seed the node's routing table.
    pub fn add_contact(&self, id: NodeId, addr: SocketAddrV4) {
        self.state
            .table
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(Contact::new(id, addr));
    }

    pub fn routing_len(&self) -> usize {
        self.state
            .table
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Stop the service thread and wait for it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.state.running.store(false, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for DhtNode {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve(socket: UdpSocket, own_id: NodeId, state: Arc<NodeState>) {
    let mut buf = [0u8; MAX_DATAGRAM];
    while state.running.load(Ordering::SeqCst) {
        let (len, peer) = match socket.recv_from(&mut buf) {
            Ok(x) => x,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let SocketAddr::V4(peer) = peer else { continue };
        let reply = match Message::decode(&buf[..len]) {
            Ok(msg) => handle(&msg, peer, own_id, &state),
            Err(_) => Some(Message {
                transaction: b"??".to_vec(),
                version: None,
                body: MessageBody::Error(KrpcError {
                    code: KrpcError::PROTOCOL,
                    message: "Protocol Error".into(),
                }),
            }),
        };
        if let Some(reply) = reply {
            let _ = socket.send_to(&reply.encode(), peer);
        }
    }
}

fn handle(msg: &Message, peer: SocketAddrV4, own_id: NodeId, state: &NodeState) -> Option<Message> {
    let MessageBody::Query(ref q) = msg.body else {
        // Responses/errors to us: a full client would match transactions;
        // the server half just learns the contact.
        return None;
    };
    state.queries_served.fetch_add(1, Ordering::Relaxed);
    // Every valid query teaches us a live contact (Kademlia's passive
    // table maintenance).
    state
        .table
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(Contact::new(q.sender_id(), peer));

    let response = match q {
        Query::Ping { .. } => Response::pong(own_id),
        Query::FindNode { target, .. } => {
            let nodes = state
                .table
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .closest_nodes(target, 8);
            Response::found_nodes(own_id, nodes)
        }
        Query::GetPeers { info_hash, .. } => {
            // Known peers win; otherwise fall back to closest nodes.
            let values = state
                .peers
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(info_hash)
                .cloned();
            let nodes = if values.is_none() {
                Some(
                    state
                        .table
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .closest_nodes(&NodeId(*info_hash), 8),
                )
            } else {
                None
            };
            Response {
                id: Some(own_id),
                nodes,
                token: Some(token_for(peer.ip(), TOKEN_SECRET).to_vec()),
                values,
            }
        }
        Query::AnnouncePeer {
            info_hash,
            port,
            token,
            implied_port,
            ..
        } => {
            // BEP-5: the token must be the one we handed this IP.
            if token[..] != token_for(peer.ip(), TOKEN_SECRET) {
                return Some(Message {
                    transaction: msg.transaction.clone(),
                    version: None,
                    body: MessageBody::Error(KrpcError {
                        code: KrpcError::PROTOCOL,
                        message: "Bad token".into(),
                    }),
                });
            }
            let peer_port = if *implied_port { peer.port() } else { *port };
            let addr = SocketAddrV4::new(*peer.ip(), peer_port);
            let mut peers = state.peers.lock().unwrap_or_else(PoisonError::into_inner);
            let swarm = peers.entry(*info_hash).or_default();
            if !swarm.contains(&addr) {
                swarm.push(addr);
            }
            Response::pong(own_id)
        }
    };
    Some(Message::response(&msg.transaction[..], response).with_version(*b"AR\x00\x01"))
}

/// Real-socket [`crate::sim::KrpcTransport`]: lets the §3.1 crawler run
/// against an actual DHT (a loopback swarm in tests; the live network in a
/// deployment). Virtual time passes through untouched — pacing real crawls
/// is the engine's rate limiter's job, while each query here blocks for at
/// most `timeout`.
pub struct UdpKrpc {
    /// Seed endpoints handed out by `bootstrap` (a real deployment would
    /// resolve `router.bittorrent.com:6881` and friends).
    pub bootstrap_peers: Vec<SocketAddrV4>,
    pub timeout: Duration,
}

impl crate::sim::KrpcTransport for UdpKrpc {
    fn bootstrap(&mut self, _now: ar_simnet::time::SimTime, n: usize) -> Vec<SocketAddrV4> {
        self.bootstrap_peers
            .iter()
            .copied()
            .take(n.max(1))
            .collect()
    }

    fn query(
        &mut self,
        now: ar_simnet::time::SimTime,
        dst: SocketAddrV4,
        msg: &Message,
    ) -> Option<crate::sim::Delivered> {
        let reply = query_once(dst, msg, self.timeout).ok()?;
        Some(crate::sim::Delivered {
            // Wall-clock latency is irrelevant to the analysis; stamp the
            // reply just after the virtual send instant.
            at: now + ar_simnet::time::SimDuration(1),
            from: dst,
            message: reply,
        })
    }
}

/// Fire one query at `dst` from an ephemeral socket and wait for the reply.
pub fn query_once(dst: SocketAddrV4, msg: &Message, timeout: Duration) -> io::Result<Message> {
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    socket.set_read_timeout(Some(timeout))?;
    socket.send_to(&msg.encode(), dst)?;
    let mut buf = [0u8; MAX_DATAGRAM];
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let (len, from) = socket.recv_from(&mut buf).map_err(|e| {
            if e.kind() == io::ErrorKind::WouldBlock {
                io::Error::new(io::ErrorKind::TimedOut, "no reply within timeout")
            } else {
                e
            }
        })?;
        if from != SocketAddr::V4(dst) {
            if std::time::Instant::now() > deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
            }
            continue;
        }
        return Message::decode(&buf[..len])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_simnet::rng::SmallRng;

    fn loopback() -> SocketAddrV4 {
        "127.0.0.1:0".parse().unwrap()
    }

    fn ids(n: usize) -> Vec<NodeId> {
        let mut rng = SmallRng::seed_from_u64(9);
        (0..n).map(|_| NodeId::random(&mut rng)).collect()
    }

    #[test]
    fn ping_over_real_udp() {
        let ids = ids(2);
        let node = DhtNode::spawn(ids[0], loopback()).unwrap();
        let reply = query_once(
            node.addr(),
            &Message::query(b"q1", Query::Ping { id: ids[1] }),
            Duration::from_secs(2),
        )
        .unwrap();
        match reply.body {
            MessageBody::Response(r) => assert_eq!(r.id, Some(ids[0])),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(reply.transaction, b"q1");
        assert_eq!(node.queries_served(), 1);
        node.shutdown();
    }

    #[test]
    fn find_node_walks_between_real_nodes() {
        let ids = ids(4);
        let a = DhtNode::spawn(ids[0], loopback()).unwrap();
        let b = DhtNode::spawn(ids[1], loopback()).unwrap();
        let c = DhtNode::spawn(ids[2], loopback()).unwrap();
        // a knows b and c.
        a.add_contact(b.id(), b.addr());
        a.add_contact(c.id(), c.addr());

        let reply = query_once(
            a.addr(),
            &Message::query(
                b"fn",
                Query::FindNode {
                    id: ids[3],
                    target: b.id(),
                },
            ),
            Duration::from_secs(2),
        )
        .unwrap();
        let MessageBody::Response(r) = reply.body else {
            panic!("expected response");
        };
        let nodes = r.nodes.unwrap();
        assert!(nodes.iter().any(|n| n.id == b.id() && n.addr == b.addr()));
        // Querying taught `a` about the querier? The querier used an
        // ephemeral socket, so at least b/c plus the sender are present.
        assert!(a.routing_len() >= 2);
    }

    #[test]
    fn announce_and_get_peers_full_cycle() {
        let ids = ids(3);
        let node = DhtNode::spawn(ids[0], loopback()).unwrap();
        let info_hash = [0x5A; 20];

        // 1. get_peers before any announce: nodes + token, no values.
        let reply = query_once(
            node.addr(),
            &Message::query(
                b"g1",
                Query::GetPeers {
                    id: ids[1],
                    info_hash,
                },
            ),
            Duration::from_secs(2),
        )
        .unwrap();
        let MessageBody::Response(r) = reply.body else {
            panic!("expected response");
        };
        assert!(r.values.is_none());
        let token = r.token.expect("get_peers hands out a token");

        // 2. announce with a BAD token: protocol error, nothing stored.
        let bad = query_once(
            node.addr(),
            &Message::query(
                b"a0",
                Query::AnnouncePeer {
                    id: ids[1],
                    info_hash,
                    port: 7777,
                    token: b"forged!!".to_vec(),
                    implied_port: false,
                },
            ),
            Duration::from_secs(2),
        )
        .unwrap();
        assert!(matches!(bad.body, MessageBody::Error(_)));

        // 3. announce with the real token.
        let ok = query_once(
            node.addr(),
            &Message::query(
                b"a1",
                Query::AnnouncePeer {
                    id: ids[1],
                    info_hash,
                    port: 7777,
                    token: token.clone(),
                    implied_port: false,
                },
            ),
            Duration::from_secs(2),
        )
        .unwrap();
        assert!(matches!(ok.body, MessageBody::Response(_)));

        // 4. get_peers now returns the announced peer.
        let reply = query_once(
            node.addr(),
            &Message::query(
                b"g2",
                Query::GetPeers {
                    id: ids[2],
                    info_hash,
                },
            ),
            Duration::from_secs(2),
        )
        .unwrap();
        let MessageBody::Response(r) = reply.body else {
            panic!("expected response");
        };
        let values = r.values.expect("announced peers returned");
        assert_eq!(values.len(), 1);
        assert_eq!(values[0].port(), 7777);
        node.shutdown();
    }

    #[test]
    fn malformed_datagrams_get_protocol_error() {
        let ids = ids(1);
        let node = DhtNode::spawn(ids[0], loopback()).unwrap();
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        socket.send_to(b"this is not bencode", node.addr()).unwrap();
        let mut buf = [0u8; MAX_DATAGRAM];
        let (len, _) = socket.recv_from(&mut buf).unwrap();
        let reply = Message::decode(&buf[..len]).unwrap();
        match reply.body {
            MessageBody::Error(e) => assert_eq!(e.code, KrpcError::PROTOCOL),
            other => panic!("unexpected {other:?}"),
        }
    }
}
