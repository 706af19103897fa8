//! Packets: the unit the wire carries and the monitor observes.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::FlowKey;

/// Globally unique packet identifier (assigned by the sending stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PacketId(pub u64);

/// Application-level payload tag.
///
/// This is *application* state used to dispatch a delivered packet to the
/// right handler in the simulated programs. The monitoring layer must never
/// read it — SysProf is a black-box monitor. Keeping it as an opaque pair of
/// integers (message id + kind discriminant) makes accidental dependence
/// easy to audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PayloadTag {
    /// Application-chosen message identifier.
    pub msg_id: u64,
    /// Application-chosen message kind discriminant.
    pub kind: u32,
    /// Total payload bytes of the application message this packet is a
    /// segment of (application-protocol framing, like an RPC length field).
    pub total_bytes: u64,
}

impl PayloadTag {
    /// An empty tag for control traffic.
    pub const NONE: PayloadTag = PayloadTag {
        msg_id: 0,
        kind: 0,
        total_bytes: 0,
    };

    /// Creates a tag.
    pub const fn new(msg_id: u64, kind: u32, total_bytes: u64) -> Self {
        PayloadTag {
            msg_id,
            kind,
            total_bytes,
        }
    }
}

/// A packet on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id, for tracing a packet across stack layers.
    pub id: PacketId,
    /// Directed flow this packet belongs to.
    pub flow: FlowKey,
    /// Wire size in bytes, headers included.
    pub size: u32,
    /// Opaque application payload tag (invisible to the monitor).
    pub payload: PayloadTag,
}

impl Packet {
    /// Standard Ethernet MTU used when segmenting application messages.
    pub const MTU: u32 = 1500;
    /// Header overhead per packet (Ethernet+IP+TCP, rounded).
    pub const HEADER_BYTES: u32 = 66;
    /// Maximum payload bytes a single packet can carry.
    pub const MAX_PAYLOAD: u32 = Self::MTU - Self::HEADER_BYTES;

    /// Number of packets needed to carry `payload_bytes` of application
    /// data (minimum 1 — a zero-byte app message still sends one packet).
    pub fn count_for_payload(payload_bytes: u64) -> u64 {
        if payload_bytes == 0 {
            1
        } else {
            payload_bytes.div_ceil(Self::MAX_PAYLOAD as u64)
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{} {} ({}B)", self.id.0, self.flow, self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_count_rounds_up() {
        assert_eq!(Packet::count_for_payload(0), 1);
        assert_eq!(Packet::count_for_payload(1), 1);
        assert_eq!(Packet::count_for_payload(Packet::MAX_PAYLOAD as u64), 1);
        assert_eq!(Packet::count_for_payload(Packet::MAX_PAYLOAD as u64 + 1), 2);
        assert_eq!(
            Packet::count_for_payload(10 * Packet::MAX_PAYLOAD as u64),
            10
        );
    }
}
