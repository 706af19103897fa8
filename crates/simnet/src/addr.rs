//! Addressing vocabulary: IPs, ports, endpoints and flow keys.
//!
//! The paper identifies communicating parties by `{IP, port}` pairs and keys
//! all interaction extraction on them (§2, "Messages and Interactions").

use std::fmt;

use serde::{Deserialize, Serialize};

/// An IPv4-style address. The topology builder assigns one per simulated
/// node (10.0.0.x by convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ip(pub u32);

impl Ip {
    /// The conventional address for the node with the given topology index.
    pub const fn for_node_index(idx: u32) -> Ip {
        // 10.0.0.0/8 with the index in the low bits.
        Ip(0x0A00_0000 | (idx + 1))
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// A transport-layer port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Port(pub u16);

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An `{IP, port}` pair — how the paper names a communication party.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EndPoint {
    /// The node's address.
    pub ip: Ip,
    /// The transport port.
    pub port: Port,
}

impl EndPoint {
    /// Creates an endpoint.
    pub const fn new(ip: Ip, port: Port) -> Self {
        EndPoint { ip, port }
    }
}

impl fmt::Display for EndPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// A directed flow between two endpoints: packets from `src` to `dst`.
///
/// [`FlowKey::canonical`] folds both directions onto one key so that a
/// request flow and its response flow can be recognized as the same
/// conversation — exactly what the LPA's interaction extraction needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowKey {
    /// Sending endpoint.
    pub src: EndPoint,
    /// Receiving endpoint.
    pub dst: EndPoint,
}

impl FlowKey {
    /// Creates a directed flow key.
    pub const fn new(src: EndPoint, dst: EndPoint) -> Self {
        FlowKey { src, dst }
    }

    /// The same flow viewed in the opposite direction.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
        }
    }

    /// A direction-independent key: the lexicographically smaller endpoint
    /// first. Both directions of a conversation map to the same canonical
    /// key.
    pub fn canonical(&self) -> FlowKey {
        if self.src <= self.dst {
            *self
        } else {
            self.reversed()
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ep(ip: u32, port: u16) -> EndPoint {
        EndPoint::new(Ip(ip), Port(port))
    }

    #[test]
    fn ip_display_dotted_quad() {
        assert_eq!(Ip::for_node_index(0).to_string(), "10.0.0.1");
        assert_eq!(Ip::for_node_index(254).to_string(), "10.0.0.255");
        assert_eq!(Ip(0xC0A80101).to_string(), "192.168.1.1");
    }

    #[test]
    fn node_ips_are_distinct() {
        let ips: Vec<Ip> = (0..100).map(Ip::for_node_index).collect();
        let mut dedup = ips.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(ips.len(), dedup.len());
    }

    #[test]
    fn flow_reversal_round_trips() {
        let k = FlowKey::new(ep(1, 80), ep(2, 5000));
        assert_eq!(k.reversed().reversed(), k);
        assert_ne!(k.reversed(), k);
    }

    #[test]
    fn canonical_folds_directions() {
        let k = FlowKey::new(ep(9, 80), ep(2, 5000));
        assert_eq!(k.canonical(), k.reversed().canonical());
        let c = k.canonical();
        assert!(c.src <= c.dst);
    }

    #[test]
    fn flow_key_hashes_as_its_four_integers() {
        // `simcore::hash`'s spread tests stand in for flow keys with this
        // tuple; a hand-written `Hash` here would silently unhook them.
        use std::hash::BuildHasher;
        let state = simcore::hash::FixedState::default();
        let k = FlowKey::new(ep(0x0A00_0001, 40_000), ep(0x0A00_0002, 2049));
        assert_eq!(
            state.hash_one(k),
            state.hash_one((0x0A00_0001u32, 40_000u16, 0x0A00_0002u32, 2049u16))
        );
        assert_eq!(state.hash_one(k), 0x1B00_AD65_69D2_B44E);
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(ep(0x0A000001, 2049).to_string(), "10.0.0.1:2049");
    }

    proptest! {
        #[test]
        fn prop_canonical_is_idempotent(a in any::<u32>(), ap in any::<u16>(),
                                        b in any::<u32>(), bp in any::<u16>()) {
            let k = FlowKey::new(ep(a, ap), ep(b, bp));
            let c = k.canonical();
            prop_assert_eq!(c.canonical(), c);
            prop_assert_eq!(k.reversed().canonical(), c);
        }
    }
}
