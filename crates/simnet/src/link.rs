//! Full-duplex point-to-point links with bandwidth, propagation delay and a
//! drop-tail transmit queue per direction.

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Maximum bytes that may be queued awaiting transmission per direction
    /// (drop-tail beyond this). Models switch/NIC buffering.
    pub queue_bytes: u64,
}

impl LinkSpec {
    /// 1 Gbps LAN with 50 µs propagation — the paper's primary testbed.
    pub fn gigabit_lan() -> LinkSpec {
        LinkSpec {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::from_micros(50),
            queue_bytes: 1024 * 1024,
        }
    }

    /// 100 Mbps LAN — the paper's secondary Iperf configuration.
    pub fn fast_ethernet() -> LinkSpec {
        LinkSpec {
            bandwidth_bps: 100_000_000,
            propagation: SimDuration::from_micros(100),
            queue_bytes: 1024 * 1024,
        }
    }

    /// Time to serialize `bytes` onto the wire at this link's bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the spec has zero bandwidth.
    pub fn serialization_delay(&self, bytes: u64) -> SimDuration {
        assert!(self.bandwidth_bps > 0, "link must have non-zero bandwidth");
        SimDuration::from_nanos(serialization_ns(bytes, self.bandwidth_bps))
    }
}

/// Nanoseconds per second times bits per byte: the one constant both
/// conversions between bytes and wire time divide or multiply by.
const NS_BITS_PER_S_BYTE: u64 = 8 * 1_000_000_000;

/// `bytes × 8 × 10⁹ / bps` ns, truncated. In `u64` when the product fits
/// (every packet a scenario sends), else in `u128`; the same quotient
/// either way, so the wide path only keeps huge inputs from overflowing.
fn serialization_ns(bytes: u64, bps: u64) -> u64 {
    match bytes.checked_mul(NS_BITS_PER_S_BYTE) {
        Some(product) => product / bps,
        None => ((bytes as u128 * 8 * 1_000_000_000) / bps as u128) as u64,
    }
}

/// The bytes a link of `bps` serializes in `ns`: `⌊ns × bps / 8 / 10⁹⌋`,
/// in `u64` when the product fits, else in `u128`. One division by
/// `8 × 10⁹` is exact, since `⌊⌊x / 8⌋ / 10⁹⌋ = ⌊x / (8 × 10⁹)⌋`.
fn backlog_bytes(ns: u64, bps: u64) -> u64 {
    match ns.checked_mul(bps) {
        Some(product) => product / NS_BITS_PER_S_BYTE,
        None => (ns as u128 * bps as u128 / 8 / 1_000_000_000) as u64,
    }
}

/// Outcome of asking a link direction to carry a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// The packet was accepted.
    Sent {
        /// When the last bit leaves the sender (serialization complete).
        departure: SimTime,
        /// When the packet arrives at the receiver.
        arrival: SimTime,
    },
    /// The transmit queue was full; the packet is dropped (drop-tail).
    Dropped,
}

impl TransmitOutcome {
    /// The arrival time if the packet was sent.
    pub fn arrival_time(&self) -> Option<SimTime> {
        match self {
            TransmitOutcome::Sent { arrival, .. } => Some(*arrival),
            TransmitOutcome::Dropped => None,
        }
    }
}

/// One direction of a link: tracks when the transmitter frees up, so
/// back-to-back packets queue behind each other (store-and-forward FIFO).
#[derive(Debug, Clone)]
struct Direction {
    busy_until: SimTime,
    drops: u64,
    bytes_carried: u64,
    packets_carried: u64,
}

impl Direction {
    fn new() -> Self {
        Direction {
            busy_until: SimTime::ZERO,
            drops: 0,
            bytes_carried: 0,
            packets_carried: 0,
        }
    }

    fn transmit(&mut self, now: SimTime, bytes: u64, spec: &LinkSpec) -> TransmitOutcome {
        let start = now.max(self.busy_until);
        // Bytes already committed but not yet serialized as of `now` — the
        // queue occupancy a drop-tail check sees.
        let backlog_time = start.saturating_since(now);
        let backlog_bytes = backlog_bytes(backlog_time.as_nanos(), spec.bandwidth_bps);
        if backlog_bytes.saturating_add(bytes) > spec.queue_bytes.max(bytes) {
            self.drops += 1;
            return TransmitOutcome::Dropped;
        }
        let departure = start + spec.serialization_delay(bytes);
        self.busy_until = departure;
        self.bytes_carried += bytes;
        self.packets_carried += 1;
        TransmitOutcome::Sent {
            departure,
            arrival: departure + spec.propagation,
        }
    }
}

/// A full-duplex link. Directions are independent (as on switched Ethernet).
#[derive(Debug, Clone)]
pub struct Link {
    spec: LinkSpec,
    forward: Direction,
    reverse: Direction,
}

impl Link {
    /// Creates an idle link with the given parameters.
    pub fn new(spec: LinkSpec) -> Self {
        Link {
            spec,
            forward: Direction::new(),
            reverse: Direction::new(),
        }
    }

    /// The link parameters.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// Transmits `bytes` in the forward (`a -> b`) direction at time `now`.
    pub fn transmit_forward(&mut self, now: SimTime, bytes: u64) -> TransmitOutcome {
        self.forward.transmit(now, bytes, &self.spec)
    }

    /// Transmits `bytes` in the reverse (`b -> a`) direction at time `now`.
    pub fn transmit_reverse(&mut self, now: SimTime, bytes: u64) -> TransmitOutcome {
        self.reverse.transmit(now, bytes, &self.spec)
    }

    /// Packets dropped in (forward, reverse) directions.
    pub fn drops(&self) -> (u64, u64) {
        (self.forward.drops, self.reverse.drops)
    }

    /// Bytes successfully carried in (forward, reverse) directions.
    pub fn bytes_carried(&self) -> (u64, u64) {
        (self.forward.bytes_carried, self.reverse.bytes_carried)
    }

    /// Packets successfully carried in (forward, reverse) directions.
    pub fn packets_carried(&self) -> (u64, u64) {
        (self.forward.packets_carried, self.reverse.packets_carried)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serialization_delay_math() {
        let spec = LinkSpec::gigabit_lan();
        // 1500 bytes at 1 Gbps = 12 µs.
        assert_eq!(spec.serialization_delay(1500).as_nanos(), 12_000);
        let fe = LinkSpec::fast_ethernet();
        assert_eq!(fe.serialization_delay(1500).as_nanos(), 120_000);
    }

    #[test]
    fn idle_link_arrival_is_serialization_plus_propagation() {
        let mut link = Link::new(LinkSpec::gigabit_lan());
        let out = link.transmit_forward(SimTime::ZERO, 1500);
        match out {
            TransmitOutcome::Sent { departure, arrival } => {
                assert_eq!(departure.as_nanos(), 12_000);
                assert_eq!(arrival.as_nanos(), 12_000 + 50_000);
            }
            TransmitOutcome::Dropped => panic!("idle link dropped"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut link = Link::new(LinkSpec::gigabit_lan());
        let a = link
            .transmit_forward(SimTime::ZERO, 1500)
            .arrival_time()
            .unwrap();
        let b = link
            .transmit_forward(SimTime::ZERO, 1500)
            .arrival_time()
            .unwrap();
        assert_eq!(
            (b - a).as_nanos(),
            12_000,
            "second packet serializes after first"
        );
    }

    #[test]
    fn directions_are_independent() {
        let mut link = Link::new(LinkSpec::gigabit_lan());
        let f = link
            .transmit_forward(SimTime::ZERO, 1500)
            .arrival_time()
            .unwrap();
        let r = link
            .transmit_reverse(SimTime::ZERO, 1500)
            .arrival_time()
            .unwrap();
        assert_eq!(f, r, "reverse direction does not queue behind forward");
    }

    #[test]
    fn drop_tail_when_queue_full() {
        let spec = LinkSpec {
            bandwidth_bps: 8_000, // 1 byte per ms: easy math
            propagation: SimDuration::ZERO,
            queue_bytes: 3000,
        };
        let mut link = Link::new(spec);
        let mut sent = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match link.transmit_forward(SimTime::ZERO, 1500) {
                TransmitOutcome::Sent { .. } => sent += 1,
                TransmitOutcome::Dropped => dropped += 1,
            }
        }
        assert!(dropped > 0, "oversubscribed link must drop");
        assert!(sent >= 2, "queue admits at least its capacity");
        assert_eq!(link.drops().0, dropped);
    }

    #[test]
    fn queue_drains_over_time() {
        let spec = LinkSpec {
            bandwidth_bps: 8_000_000, // 1 byte per µs
            propagation: SimDuration::ZERO,
            queue_bytes: 2000,
        };
        let mut link = Link::new(spec);
        // First packet starts serializing immediately.
        assert!(matches!(
            link.transmit_forward(SimTime::ZERO, 1500),
            TransmitOutcome::Sent { .. }
        ));
        // Its 1500 un-serialized bytes count as backlog, so a second packet
        // at the same instant would exceed the 2000-byte queue and drops.
        assert!(matches!(
            link.transmit_forward(SimTime::ZERO, 1500),
            TransmitOutcome::Dropped
        ));
        // Once the backlog serializes (1500 µs at 1 byte/µs), transmission
        // succeeds again.
        let later = SimTime::from_micros(1600);
        assert!(matches!(
            link.transmit_forward(later, 1500),
            TransmitOutcome::Sent { .. }
        ));
    }

    #[test]
    fn throughput_matches_bandwidth() {
        // Saturate a 100 Mbps link for one simulated second and check the
        // carried goodput is ≈ the configured bandwidth.
        let mut link = Link::new(LinkSpec::fast_ethernet());
        let mut now = SimTime::ZERO;
        let end = SimTime::from_secs(1);
        let mut carried = 0u64;
        while now < end {
            match link.transmit_forward(now, 1500) {
                TransmitOutcome::Sent { departure, .. } => {
                    carried += 1500;
                    now = departure;
                }
                TransmitOutcome::Dropped => unreachable!("sending at line rate"),
            }
        }
        let mbps = carried as f64 * 8.0 / 1e6;
        assert!((mbps - 100.0).abs() < 1.0, "measured {mbps} Mbps");
    }

    /// Deterministic generative sweep over the same properties the
    /// proptest versions below state, so they are exercised even where
    /// the proptest dev-dependency is a typecheck-only stand-in: FIFO
    /// order, bandwidth-bounded throughput, and exact drop accounting.
    #[test]
    fn generative_sweep_fifo_bandwidth_and_drop_accounting() {
        let mut rng = simcore::SimRng::seed(0xBEEF);
        for case in 0..200 {
            let spec = LinkSpec {
                bandwidth_bps: rng.uniform_u64(1_000_000, 10_000_000_000),
                propagation: SimDuration::from_micros(rng.uniform_u64(0, 500)),
                queue_bytes: rng.uniform_u64(1_500, 64 * 1024),
            };
            let mut link = Link::new(spec);
            let n = rng.uniform_u64(1, 200) as usize;
            let mut now = SimTime::ZERO;
            let mut last_arrival = SimTime::ZERO;
            let mut last_departure = SimTime::ZERO;
            let mut offered_bytes = 0u64;
            let mut dropped_bytes = 0u64;
            for _ in 0..n {
                now += SimDuration::from_micros(rng.uniform_u64(0, 2_000));
                let bytes = rng.uniform_u64(64, 9_000);
                offered_bytes += bytes;
                match link.transmit_forward(now, bytes) {
                    TransmitOutcome::Sent { departure, arrival } => {
                        // FIFO per direction.
                        assert!(arrival >= last_arrival, "case {case}: reordered");
                        last_arrival = arrival;
                        last_departure = departure;
                    }
                    TransmitOutcome::Dropped => dropped_bytes += bytes,
                }
            }
            // Drop-tail accounting is exact.
            let (carried, _) = link.bytes_carried();
            let (packets, _) = link.packets_carried();
            let (drops, _) = link.drops();
            assert_eq!(packets + drops, n as u64, "case {case}");
            assert_eq!(carried + dropped_bytes, offered_bytes, "case {case}");
            // The wire never beat its bit rate.
            let budget_bits =
                last_departure.as_nanos() as u128 * spec.bandwidth_bps as u128 / 1_000_000_000;
            assert!(
                (carried as u128) * 8 <= budget_bits + 8,
                "case {case}: carried {carried} B > {budget_bits} bits of wire time"
            );
        }
    }

    /// The two conversions as they were before their `u64` fast path,
    /// verbatim: everything in `u128`.
    fn reference_serialization_ns(bytes: u64, bps: u64) -> u64 {
        ((bytes as u128 * 8 * 1_000_000_000) / bps as u128) as u64
    }

    fn reference_backlog_bytes(ns: u64, bps: u64) -> u64 {
        (ns as u128 * bps as u128 / 8 / 1_000_000_000) as u64
    }

    /// Inputs around the point where `a × b` leaves `u64`: the largest
    /// `a` whose product with `b` fits, and the next one up (if any).
    fn at_overflow_boundary(b: u64) -> [u64; 2] {
        let a = u64::MAX / b;
        [a, a.saturating_add(1)]
    }

    proptest! {
        /// Both conversions read exactly what the all-`u128` formulas
        /// read: on scenario-sized inputs (the `u64` path), on any input,
        /// and on both sides of each product's overflow boundary, at the
        /// drawn rates and at the extreme ones.
        #[test]
        fn prop_u64_conversions_are_the_u128_formulas(
            bytes in 0u64..1_000_000,
            ns in 0u64..100_000_000_000,
            bps in 1u64..100_000_000_000,
            any_a in any::<u64>(),
            any_bps in 1u64..=u64::MAX,
        ) {
            for b in [bps, any_bps, 1, 7, u64::MAX] {
                for n in [bytes, any_a].into_iter().chain(at_overflow_boundary(NS_BITS_PER_S_BYTE)) {
                    prop_assert_eq!(serialization_ns(n, b), reference_serialization_ns(n, b));
                }
                for t in [ns, any_a].into_iter().chain(at_overflow_boundary(b)) {
                    prop_assert_eq!(backlog_bytes(t, b), reference_backlog_bytes(t, b));
                }
            }
        }

        /// Arrivals in one direction are monotone in submission order (FIFO
        /// — no reordering on a point-to-point link).
        #[test]
        fn prop_fifo_no_reordering(sizes in proptest::collection::vec(64u64..9000, 1..100)) {
            let mut link = Link::new(LinkSpec::gigabit_lan());
            let mut last = SimTime::ZERO;
            for (i, &s) in sizes.iter().enumerate() {
                let now = SimTime::from_micros(i as u64); // staggered submissions
                if let TransmitOutcome::Sent { arrival, .. } = link.transmit_forward(now, s) {
                    prop_assert!(arrival >= last);
                    last = arrival;
                }
            }
        }

        /// Carried bytes never exceed what the configured bandwidth could
        /// have serialized by the last departure: the wire cannot run
        /// faster than its bit rate.
        #[test]
        fn prop_bytes_bounded_by_bandwidth_times_time(
            bps in 1_000_000u64..10_000_000_000,
            sizes in proptest::collection::vec(64u64..9000, 1..200),
            gaps in proptest::collection::vec(0u64..5_000, 1..200),
        ) {
            let spec = LinkSpec {
                bandwidth_bps: bps,
                propagation: SimDuration::from_micros(10),
                queue_bytes: 64 * 1024,
            };
            let mut link = Link::new(spec);
            let mut now = SimTime::ZERO;
            let mut last_departure = SimTime::ZERO;
            for (i, &s) in sizes.iter().enumerate() {
                now += SimDuration::from_micros(gaps[i % gaps.len()]);
                if let TransmitOutcome::Sent { departure, .. } = link.transmit_forward(now, s) {
                    last_departure = departure;
                }
            }
            let (carried, _) = link.bytes_carried();
            // bits ≤ bps × elapsed seconds, with one byte of slack for
            // integer rounding in the serialization-delay division.
            let budget_bits = last_departure.as_nanos() as u128 * bps as u128 / 1_000_000_000;
            prop_assert!(
                (carried as u128) * 8 <= budget_bits + 8,
                "carried {carried} B > {budget_bits} bits of wire time"
            );
        }

        /// Drop-tail accounting is exact: every offered packet is either
        /// carried or counted in `drops`, and byte totals agree.
        #[test]
        fn prop_drops_are_exactly_offered_minus_carried(
            queue in 1_500u64..20_000,
            sizes in proptest::collection::vec(64u64..9000, 1..300),
        ) {
            let spec = LinkSpec {
                bandwidth_bps: 10_000_000, // slow enough to overflow the queue
                propagation: SimDuration::ZERO,
                queue_bytes: queue,
            };
            let mut link = Link::new(spec);
            let mut offered_bytes = 0u64;
            let mut dropped_bytes = 0u64;
            for &s in &sizes {
                offered_bytes += s;
                // Everything offered at t=0: maximal queue pressure.
                if matches!(link.transmit_forward(SimTime::ZERO, s), TransmitOutcome::Dropped) {
                    dropped_bytes += s;
                }
            }
            let (carried, _) = link.bytes_carried();
            let (packets, _) = link.packets_carried();
            let (drops, _) = link.drops();
            prop_assert_eq!(packets + drops, sizes.len() as u64);
            prop_assert_eq!(carried + dropped_bytes, offered_bytes);
            // The reverse direction was never touched.
            prop_assert_eq!(link.drops().1, 0);
            prop_assert_eq!(link.bytes_carried().1, 0);
        }
    }
}
