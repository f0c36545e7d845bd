//! 160-bit DHT node identifiers (BEP-5).
//!
//! Every BitTorrent user "generates its own unique 160-bit node_id that is
//! obtained by hashing the (possibly private) IP address of the user and a
//! random number" (paper §3.1). Crucially for the crawler, a user "can
//! regenerate a new node_id every time their machine reboots" — which is
//! why the paper's NAT rule keys on *(port, node_id)* pairs observed
//! simultaneously rather than on node IDs alone.

use ar_simnet::rng::{splitmix64, Rng, GOLDEN_GAMMA};
use std::fmt;
use std::net::Ipv4Addr;

/// A 160-bit node identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub [u8; 20]);

ar_simnet::codec_struct!(NodeId { 0 });

impl NodeId {
    pub const BITS: usize = 160;

    /// Random node ID.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> NodeId {
        let mut id = [0u8; 20];
        rng.fill(&mut id);
        NodeId(id)
    }

    /// Node ID derived from an IP address and a nonce, mirroring how real
    /// clients seed their IDs (paper §3.1). Not a cryptographic hash — a
    /// well-mixed deterministic digest is all the simulation needs.
    pub fn from_ip_and_nonce(ip: Ipv4Addr, nonce: u64) -> NodeId {
        let mut state = u64::from(u32::from(ip)) ^ nonce.rotate_left(17) ^ GOLDEN_GAMMA;
        let mut id = [0u8; 20];
        for chunk in id.chunks_mut(8) {
            state = splitmix64(state);
            let bytes = state.to_be_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        NodeId(id)
    }

    /// XOR distance metric (BEP-5).
    pub fn distance(&self, other: &NodeId) -> Distance {
        let mut d = [0u8; 20];
        for (i, byte) in d.iter_mut().enumerate() {
            *byte = self.0[i] ^ other.0[i];
        }
        Distance(d)
    }

    /// Index of the k-bucket `other` falls into relative to `self`:
    /// `159 - leading_zero_bits(distance)`, or `None` for equal IDs.
    pub fn bucket_index(&self, other: &NodeId) -> Option<usize> {
        let d = self.distance(other);
        let lz = d.leading_zeros();
        if lz == 160 {
            None
        } else {
            Some(159 - lz)
        }
    }

    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    pub fn from_bytes(b: &[u8]) -> Option<NodeId> {
        let arr: [u8; 20] = b.try_into().ok()?;
        Some(NodeId(arr))
    }
}

/// An XOR distance between two node IDs; ordered big-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Distance(pub [u8; 20]);

impl Distance {
    pub fn leading_zeros(&self) -> usize {
        let mut total = 0;
        for byte in self.0 {
            if byte == 0 {
                total += 8;
            } else {
                total += byte.leading_zeros() as usize;
                break;
            }
        }
        total
    }

    pub const ZERO: Distance = Distance([0u8; 20]);
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_simnet::rng::SmallRng;

    #[test]
    fn distance_is_metric_like() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = NodeId::random(&mut rng);
        let b = NodeId::random(&mut rng);
        assert_eq!(a.distance(&a), Distance::ZERO);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_ne!(a.distance(&b), Distance::ZERO);
    }

    #[test]
    fn bucket_index_extremes() {
        let zero = NodeId([0u8; 20]);
        assert_eq!(zero.bucket_index(&zero), None);
        let mut top = [0u8; 20];
        top[0] = 0x80;
        assert_eq!(zero.bucket_index(&NodeId(top)), Some(159));
        let mut bottom = [0u8; 20];
        bottom[19] = 0x01;
        assert_eq!(zero.bucket_index(&NodeId(bottom)), Some(0));
    }

    #[test]
    fn from_ip_is_deterministic_and_nonce_sensitive() {
        let ip: Ipv4Addr = "203.0.113.9".parse().unwrap();
        let a = NodeId::from_ip_and_nonce(ip, 1);
        let b = NodeId::from_ip_and_nonce(ip, 1);
        let c = NodeId::from_ip_and_nonce(ip, 2);
        assert_eq!(a, b);
        assert_ne!(a, c, "reboot (new nonce) regenerates the node_id");
    }

    #[test]
    fn ids_are_well_spread() {
        // IDs from consecutive nonces should not share long prefixes.
        let ip: Ipv4Addr = "198.51.100.1".parse().unwrap();
        let ids: Vec<NodeId> = (0..100).map(|n| NodeId::from_ip_and_nonce(ip, n)).collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let lz = ids[i].distance(&ids[j]).leading_zeros();
                assert!(lz < 40, "suspiciously close ids at ({i},{j}): {lz} bits");
            }
        }
    }

    #[test]
    fn roundtrip_bytes() {
        let mut rng = SmallRng::seed_from_u64(2);
        let id = NodeId::random(&mut rng);
        assert_eq!(NodeId::from_bytes(id.as_bytes()).unwrap(), id);
        assert!(NodeId::from_bytes(&[0u8; 19]).is_none());
    }

    #[test]
    fn display_is_hex() {
        let id = NodeId([0xab; 20]);
        assert_eq!(id.to_string(), "ab".repeat(20));
    }
}
