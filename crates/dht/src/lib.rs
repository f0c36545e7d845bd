//! # ar-dht — BitTorrent Mainline DHT (BEP-5)
//!
//! The substrate for the paper's NAT-detection technique (§3.1): a complete
//! Mainline-DHT protocol stack plus the simulated peer population the
//! crawler measures.
//!
//! Layers, bottom-up:
//!
//! * [`node_id`] — 160-bit identifiers with the XOR metric; IDs are seeded
//!   from the (possibly private) IP plus a nonce and *regenerate on
//!   reboot*, which is why the paper's crawler cannot use them as stable
//!   user identifiers.
//! * [`wire`] — the KRPC codec over [`ar_bencode`]: `ping` (the paper's
//!   `bt_ping`), `find_node` (the paper's `get_nodes`), `get_peers`,
//!   `announce_peer`, compact node lists, errors.
//! * [`routing`] — k-bucket routing tables for conforming nodes.
//! * [`population`] — the simulated BitTorrent user population derived from
//!   an [`ar_simnet::Universe`]: sessions, reboots, NAT port bindings,
//!   stale neighbour observations.
//! * [`sim`] — the simulated UDP fabric (loss, latency, fault injection)
//!   the crawler in `ar-crawler` talks to.
//! * [`udp`] — a real blocking-UDP DHT node for loopback demos and
//!   end-to-end codec validation.
//!
//! ```
//! use ar_dht::{Message, NodeId, Query};
//!
//! // The paper's bt_ping, byte for byte (BEP-5's reference encoding):
//! let id = NodeId::from_bytes(b"abcdefghij0123456789").unwrap();
//! let ping = Message::query(b"aa", Query::Ping { id });
//! assert_eq!(
//!     ping.encode(),
//!     b"d1:ad2:id20:abcdefghij0123456789e1:q4:ping1:t2:aa1:y1:qe"
//! );
//! assert_eq!(Message::decode(&ping.encode()).unwrap(), ping);
//! ```

pub mod faults;
pub mod node_id;
pub mod population;
pub mod routing;
pub mod sim;
pub mod udp;
pub mod wire;

pub use faults::{FaultStats, FaultyTransport};
pub use node_id::{Distance, NodeId};
pub use population::{DhtPopulation, NodeSession};
pub use routing::{Contact, InsertOutcome, RoutingTable, K};
pub use sim::{
    Delivered, KrpcTransport, NetStats, ShardedSimNetwork, SimNetShard, SimNetwork, SimParams,
};
pub use wire::{KrpcError, Message, MessageBody, NodeInfo, Query, Response, WireError};
