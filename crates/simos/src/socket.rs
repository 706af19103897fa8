//! Sockets: kernel receive buffers and message reassembly.
//!
//! The receive buffer is byte-accounted: packets of in-flight messages
//! occupy buffer space until the owning process `recv`s the completed
//! message. A message that can never complete (a segment was dropped
//! upstream and there is no retransmission in the model) would pin its
//! bytes forever, so when the buffer is full the oldest *incomplete*
//! foreign assembly is evicted first — the moral equivalent of the kernel
//! reclaiming a stalled stream's buffers.

use std::collections::VecDeque;

use kprof::Pid;
use simcore::hash::HashMap;
use simcore::SimTime;
use simnet::{EndPoint, FlowKey, Packet};

use crate::program::Message;

/// Node-local socket identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub u64);

impl std::fmt::Display for SocketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sock{}", self.0)
    }
}

/// Reassembly state for one in-flight inbound message.
#[derive(Debug, Clone)]
struct Assembly {
    kind: u32,
    total: u64,
    received: u64,
    /// Packets (id, wire size) of this message held in the buffer.
    packets: Vec<(simnet::PacketId, u32)>,
    bytes_held: u64,
    first_enqueue: SimTime,
}

/// The packets (id, wire size) making up one delivered message.
pub type MessagePackets = Vec<(simnet::PacketId, u32)>;

/// A complete message queued for the application: the message, its
/// packets, when its first packet entered the buffer, and the buffer
/// bytes it holds.
type ReadyMessage = (Message, MessagePackets, SimTime, u64);

/// A connected socket endpoint in the simulated kernel.
#[derive(Debug)]
pub struct Socket {
    /// Node-local id.
    pub id: SocketId,
    /// Owning process.
    pub owner: Pid,
    /// Local `{ip, port}`.
    pub local: EndPoint,
    /// Remote `{ip, port}`.
    pub peer: EndPoint,
    /// True once closed; late packets are dropped.
    pub closed: bool,
    /// The owner's `arm_enabled`, kept in step by the kernel so a packet
    /// event reads it here instead of resolving the owner.
    pub(crate) owner_arm: bool,
    rx_capacity: u64,
    rx_bytes: u64,
    rx_high_water: u64,
    dropped: u64,
    evicted_assemblies: u64,
    assemblies: HashMap<u64, Assembly>,
    ready: VecDeque<ReadyMessage>,
}

impl Socket {
    /// Creates a socket with the given receive-buffer byte capacity.
    pub fn new(
        id: SocketId,
        owner: Pid,
        local: EndPoint,
        peer: EndPoint,
        rx_capacity_bytes: u64,
    ) -> Self {
        Socket {
            id,
            owner,
            local,
            peer,
            closed: false,
            owner_arm: false,
            rx_capacity: rx_capacity_bytes,
            rx_bytes: 0,
            rx_high_water: 0,
            dropped: 0,
            evicted_assemblies: 0,
            assemblies: HashMap::default(),
            ready: VecDeque::new(),
        }
    }

    /// The flow key for traffic this socket sends (local → peer).
    pub fn tx_flow(&self) -> FlowKey {
        FlowKey::new(self.local, self.peer)
    }

    /// The flow key for traffic this socket receives (peer → local).
    pub fn rx_flow(&self) -> FlowKey {
        FlowKey::new(self.peer, self.local)
    }

    /// Evicts the oldest incomplete assembly other than `protect`,
    /// freeing its buffer bytes. Returns whether anything was evicted.
    fn evict_stalest(&mut self, protect: u64) -> bool {
        // Tie-break equal enqueue times by id: min_by_key alone would
        // resolve ties by HashMap iteration order.
        let victim = self
            .assemblies
            .iter()
            .filter(|(id, _)| **id != protect)
            .min_by_key(|(id, a)| (a.first_enqueue, **id))
            .map(|(id, _)| *id);
        match victim {
            Some(id) => {
                let a = self.assemblies.remove(&id).expect("victim exists");
                self.rx_bytes = self.rx_bytes.saturating_sub(a.bytes_held);
                self.dropped += a.packets.len() as u64;
                self.evicted_assemblies += 1;
                true
            }
            None => false,
        }
    }

    /// Offers an inbound packet to the kernel receive buffer at time `now`.
    ///
    /// Returns `true` if accepted, `false` if the buffer was full (the
    /// caller emits the drop event). On accept, reassembly state advances;
    /// a completed message moves to the ready queue.
    pub fn offer(&mut self, packet: Packet, now: SimTime) -> bool {
        if self.closed {
            return false;
        }
        let size = packet.size as u64;
        while self.rx_bytes.saturating_add(size) > self.rx_capacity {
            if !self.evict_stalest(packet.payload.msg_id) {
                self.dropped += 1;
                return false;
            }
        }
        self.rx_bytes += size;
        self.rx_high_water = self.rx_high_water.max(self.rx_bytes);

        let tag = packet.payload;
        let payload = packet.size.saturating_sub(Packet::HEADER_BYTES) as u64;
        let asm = self
            .assemblies
            .entry(tag.msg_id)
            .or_insert_with(|| Assembly {
                kind: tag.kind,
                total: tag.total_bytes,
                received: 0,
                packets: Vec::new(),
                bytes_held: 0,
                first_enqueue: now,
            });
        asm.received += payload;
        asm.bytes_held += size;
        asm.packets.push((packet.id, packet.size));
        if asm.received >= asm.total {
            let asm = self.assemblies.remove(&tag.msg_id).expect("just inserted");
            self.ready.push_back((
                Message {
                    msg_id: tag.msg_id,
                    kind: asm.kind,
                    bytes: asm.total,
                },
                asm.packets,
                asm.first_enqueue,
                asm.bytes_held,
            ));
        }
        true
    }

    /// Number of complete messages awaiting delivery.
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }

    /// Peeks at the oldest complete message without consuming it: the
    /// message and its packet count (for costing the `recv` copy).
    pub fn peek_ready(&self) -> Option<(Message, usize)> {
        self.ready.front().map(|(m, pkts, _, _)| (*m, pkts.len()))
    }

    /// Takes the oldest complete message: the message, its packets
    /// (id + size, for per-packet delivery events), and the time its first
    /// packet entered the socket buffer. Frees the message's buffer bytes.
    pub fn take_ready(&mut self) -> Option<(Message, MessagePackets, SimTime)> {
        let (msg, packets, t, bytes) = self.ready.pop_front()?;
        self.rx_bytes = self.rx_bytes.saturating_sub(bytes);
        Some((msg, packets, t))
    }

    /// Largest buffer occupancy seen.
    pub fn rx_high_water(&self) -> u64 {
        self.rx_high_water
    }

    /// Packets dropped or evicted at this socket's buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Stalled incomplete assemblies reclaimed under buffer pressure.
    pub fn evicted_assemblies(&self) -> u64 {
        self.evicted_assemblies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Ip, PacketId, PayloadTag, Port};

    fn ep(ip: u32, port: u16) -> EndPoint {
        EndPoint::new(Ip(ip), Port(port))
    }

    fn sock() -> Socket {
        Socket::new(SocketId(1), Pid(1), ep(1, 80), ep(2, 9000), 1 << 20)
    }

    fn pkt(id: u64, msg: u64, payload: u32, total: u64) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowKey::new(ep(2, 9000), ep(1, 80)),
            size: payload + Packet::HEADER_BYTES,
            payload: PayloadTag::new(msg, 0, total),
        }
    }

    #[test]
    fn single_packet_message_completes() {
        let mut s = sock();
        assert!(s.offer(pkt(1, 5, 100, 100), SimTime::from_micros(3)));
        assert!(s.ready_count() > 0);
        let (msg, packets, t) = s.take_ready().unwrap();
        assert_eq!(msg.msg_id, 5);
        assert_eq!(msg.bytes, 100);
        assert_eq!(packets.len(), 1);
        assert_eq!(t, SimTime::from_micros(3));
        assert_eq!(s.rx_bytes, 0);
    }

    #[test]
    fn multi_packet_message_assembles() {
        let mut s = sock();
        let total = 3000u64;
        assert!(s.offer(pkt(1, 7, 1434, total), SimTime::from_micros(1)));
        assert_eq!(s.ready_count(), 0);
        assert!(s.offer(pkt(2, 7, 1434, total), SimTime::from_micros(2)));
        assert_eq!(s.ready_count(), 0);
        assert!(s.offer(pkt(3, 7, 132, total), SimTime::from_micros(3)));
        assert!(s.ready_count() > 0);
        let (msg, packets, first) = s.take_ready().unwrap();
        assert_eq!(msg.bytes, total);
        assert_eq!(packets.len(), 3);
        assert_eq!(first, SimTime::from_micros(1));
    }

    #[test]
    fn interleaved_messages_assemble_independently() {
        let mut s = sock();
        s.offer(pkt(1, 1, 1434, 2000), SimTime::ZERO);
        s.offer(pkt(2, 2, 500, 500), SimTime::ZERO);
        assert!(s.ready_count() > 0, "small message completed first");
        s.offer(pkt(3, 1, 566, 2000), SimTime::ZERO);
        let (m2, ..) = s.take_ready().unwrap();
        assert_eq!(m2.msg_id, 2);
        let (m1, ..) = s.take_ready().unwrap();
        assert_eq!(m1.msg_id, 1);
    }

    #[test]
    fn buffer_overflow_rejects_same_message_continuation() {
        let mut s = Socket::new(SocketId(1), Pid(1), ep(1, 80), ep(2, 9), 2000);
        assert!(s.offer(pkt(1, 1, 1434, 100_000), SimTime::ZERO));
        // Same message: its own assembly is protected from eviction, so
        // the buffer is genuinely full.
        assert!(
            !s.offer(pkt(2, 1, 1434, 100_000), SimTime::ZERO),
            "over 2000B cap"
        );
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn stalled_foreign_assembly_is_evicted_under_pressure() {
        let mut s = Socket::new(SocketId(1), Pid(1), ep(1, 80), ep(2, 9), 2000);
        // Message 1 is stuck (one of its packets was lost upstream).
        assert!(s.offer(pkt(1, 1, 1434, 100_000), SimTime::ZERO));
        // Message 2 arrives later and needs the space: msg 1 is reclaimed.
        assert!(s.offer(pkt(2, 2, 1434, 1434), SimTime::from_micros(9)));
        assert_eq!(s.evicted_assemblies(), 1);
        assert_eq!(s.dropped(), 1, "the zombie's packet counts as dropped");
        assert!(s.ready_count() > 0, "message 2 completed");
        let (m, ..) = s.take_ready().unwrap();
        assert_eq!(m.msg_id, 2);
    }

    #[test]
    fn ready_messages_hold_bytes_until_taken() {
        let mut s = sock();
        s.offer(pkt(1, 1, 100, 100), SimTime::ZERO);
        assert!(s.rx_bytes > 0, "undelivered message occupies buffer");
        s.take_ready();
        assert_eq!(s.rx_bytes, 0);
    }

    #[test]
    fn a_receiver_far_behind_drains_in_order() {
        // 10,000 complete messages queued before the first recv: the
        // ready queue is a deque, so each take is O(1) where
        // `Vec::remove(0)` shifted everything behind it (5·10^7 element
        // moves here). What a test can count is that nothing is lost,
        // reordered or left accounted for.
        const N: u64 = 10_000;
        let mut s = Socket::new(SocketId(1), Pid(1), ep(1, 80), ep(2, 9000), 1 << 30);
        for i in 0..N {
            assert!(s.offer(pkt(i, i, 100, 100), SimTime::from_nanos(i)));
        }
        assert_eq!(s.ready_count(), N as usize);
        assert_eq!(s.peek_ready().map(|(m, n)| (m.msg_id, n)), Some((0, 1)));
        for i in 0..N {
            let (msg, packets, first) = s.take_ready().expect("queued");
            assert_eq!((msg.msg_id, first), (i, SimTime::from_nanos(i)));
            assert_eq!(packets, vec![(PacketId(i), 100 + Packet::HEADER_BYTES)]);
        }
        assert!(s.take_ready().is_none());
        assert_eq!(s.rx_bytes, 0);
    }

    #[test]
    fn closed_socket_rejects() {
        let mut s = sock();
        s.closed = true;
        assert!(!s.offer(pkt(1, 1, 10, 10), SimTime::ZERO));
    }

    #[test]
    fn flow_keys_orient_correctly() {
        let s = sock();
        assert_eq!(s.tx_flow().src, s.local);
        assert_eq!(s.rx_flow().src, s.peer);
        assert_eq!(s.tx_flow().reversed(), s.rx_flow());
    }

    #[test]
    fn zero_byte_message_is_one_packet() {
        let mut s = sock();
        assert!(s.offer(pkt(1, 3, 0, 0), SimTime::ZERO));
        assert!(s.ready_count() > 0);
        let (msg, ..) = s.take_ready().unwrap();
        assert_eq!(msg.bytes, 0);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut s = sock();
        s.offer(pkt(1, 1, 1000, 2000), SimTime::ZERO);
        s.offer(pkt(2, 1, 1000, 2000), SimTime::ZERO);
        let peak = s.rx_high_water();
        s.take_ready();
        assert_eq!(s.rx_high_water(), peak, "high water does not decay");
        assert!(peak >= 2000);
    }
}
