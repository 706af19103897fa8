//! Reliable delivery for monitoring channels: sequence-numbered batches,
//! a bounded sender-side resend buffer with exponential backoff, and a
//! receiver-side reassembler that detects gaps and duplicates.
//!
//! The dissemination daemon's publications are fire-and-forget UDP-style
//! kernel sends; under loss, a dropped batch would silently corrupt every
//! downstream record. This module adds the minimal machinery to notice:
//!
//! * every batch to a given subscriber carries a **per-subscription
//!   sequence number** (`1, 2, 3, …`, prefixed to the wire bytes),
//! * the sender keeps recent batches in a byte-bounded [`ResendBuffer`]
//!   and retransmits on NACK or on retransmit-timeout with exponential
//!   backoff,
//! * the receiver runs batches through a [`Reassembler`] that delivers
//!   in order, suppresses duplicates, and reports gaps for NACKing —
//!   or abandons them after a deadline so one lost batch cannot stall
//!   the stream forever (gaps are then *counted*, not silently eaten).

use std::collections::BTreeMap;
use std::collections::VecDeque;

use bytes::Bytes;
use pbio::{read_u64, write_u64};
use simcore::{SimDuration, SimTime};

/// Upper bound on the bytes the (varint) sequence header adds per batch.
pub const MAX_SEQ_HEADER_BYTES: usize = 10;

/// Prefixes `payload` with its per-subscription sequence number
/// (varint-encoded, like all pbio integers).
pub fn encode_batch(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(MAX_SEQ_HEADER_BYTES + payload.len());
    encode_batch_into(seq, payload, &mut wire);
    wire
}

/// [`encode_batch`] into a caller-owned buffer (cleared first), so batch
/// encoding on the hot path can reuse one allocation across batches.
pub fn encode_batch_into(seq: u64, payload: &[u8], wire: &mut Vec<u8>) {
    wire.clear();
    wire.reserve(MAX_SEQ_HEADER_BYTES + payload.len());
    write_u64(wire, seq);
    wire.extend_from_slice(payload);
}

/// Splits a wire batch into `(seq, payload)`. Returns `None` on truncated
/// input.
pub fn decode_batch(data: &[u8]) -> Option<(u64, &[u8])> {
    let mut buf = data;
    let seq = read_u64(&mut buf).ok()?;
    Some((seq, buf))
}

/// Tuning for the sender-side resend buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResendConfig {
    /// Maximum bytes of un-acked batches kept for retransmission; the
    /// oldest are evicted (and counted) beyond this.
    pub cap_bytes: u64,
    /// Base retransmit timeout: an un-acked batch is retransmitted this
    /// long after it was last sent, doubling per retry.
    pub rto: SimDuration,
    /// Cap on the backoff exponent (`rto * 2^min(retries, cap)`).
    pub max_backoff_exp: u32,
}

impl Default for ResendConfig {
    fn default() -> Self {
        ResendConfig {
            cap_bytes: 512 * 1024,
            rto: SimDuration::from_millis(50),
            max_backoff_exp: 6,
        }
    }
}

#[derive(Debug, Clone)]
struct ResendEntry {
    seq: u64,
    /// Immutable, refcounted wire bytes: retransmission hands out cheap
    /// shared views instead of copying the payload.
    wire: Bytes,
    last_sent: SimTime,
    retries: u32,
}

impl ResendEntry {
    fn deadline(&self, config: &ResendConfig) -> SimTime {
        let exp = self.retries.min(config.max_backoff_exp);
        let wait = config.rto.as_nanos().saturating_mul(1u64 << exp);
        self.last_sent + SimDuration::from_nanos(wait)
    }
}

/// Byte-bounded store of recently published batches, ordered by sequence
/// number, supporting cumulative ACK trimming, NACK lookups, and
/// timeout-driven retransmission with exponential backoff.
#[derive(Debug)]
pub struct ResendBuffer {
    config: ResendConfig,
    entries: VecDeque<ResendEntry>,
    bytes: u64,
    evictions: u64,
}

impl ResendBuffer {
    /// An empty buffer.
    pub fn new(config: ResendConfig) -> ResendBuffer {
        ResendBuffer {
            config,
            entries: VecDeque::new(),
            bytes: 0,
            evictions: 0,
        }
    }

    /// Stores a just-sent batch. Sequence numbers must be pushed in
    /// increasing order. Evicts oldest entries beyond the byte cap —
    /// an evicted batch can never be retransmitted, so evictions are
    /// counted (the stream's receiver will eventually abandon that gap).
    ///
    /// Accepts anything convertible to [`Bytes`]; a `Vec<u8>` converts
    /// without copying, and a `Bytes` already shared with the original
    /// send is stored refcounted.
    pub fn push(&mut self, now: SimTime, seq: u64, wire: impl Into<Bytes>) {
        let wire = wire.into();
        debug_assert!(
            self.entries.back().map(|e| e.seq < seq).unwrap_or(true),
            "resend buffer requires increasing sequence numbers"
        );
        self.bytes += wire.len() as u64;
        self.entries.push_back(ResendEntry {
            seq,
            wire,
            last_sent: now,
            retries: 0,
        });
        while self.bytes > self.config.cap_bytes && self.entries.len() > 1 {
            let evicted = self.entries.pop_front().expect("non-empty");
            self.bytes -= evicted.wire.len() as u64;
            self.evictions += 1;
        }
    }

    /// Drops every batch with `seq <= upto` (cumulative ACK). Returns how
    /// many entries were freed.
    pub fn ack_upto(&mut self, upto: u64) -> usize {
        let mut freed = 0;
        while let Some(front) = self.entries.front() {
            if front.seq > upto {
                break;
            }
            let e = self.entries.pop_front().expect("non-empty");
            self.bytes -= e.wire.len() as u64;
            freed += 1;
        }
        freed
    }

    /// Shares the wire bytes of every held batch in `[from, to]` for a
    /// NACK-triggered retransmit, marking them as re-sent at `now`.
    /// Batches already evicted (or already acked) are simply absent.
    /// The returned [`Bytes`] are refcounted views — no payload copies.
    pub fn retransmit_range(&mut self, now: SimTime, from: u64, to: u64) -> Vec<(u64, Bytes)> {
        let mut out = Vec::new();
        for e in &mut self.entries {
            if e.seq >= from && e.seq <= to {
                e.last_sent = now;
                e.retries += 1;
                out.push((e.seq, e.wire.clone()));
            }
        }
        out
    }

    /// Batches whose retransmit deadline has passed at `now`: each is
    /// marked re-sent (doubling its next backoff) and returned for the
    /// caller to put back on the wire as refcounted shared views.
    pub fn due(&mut self, now: SimTime) -> Vec<(u64, Bytes)> {
        let config = self.config;
        let mut out = Vec::new();
        for e in &mut self.entries {
            if e.deadline(&config) <= now {
                e.last_sent = now;
                e.retries += 1;
                out.push((e.seq, e.wire.clone()));
            }
        }
        out
    }

    /// Number of held batches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently held.
    pub fn buffered_bytes(&self) -> u64 {
        self.bytes
    }

    /// Batches evicted un-acked because of the byte cap.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// What a [`Reassembler`] did with an offered batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Offer {
    /// The batch was in order: it (and any buffered successors it
    /// unblocked) are delivered, in sequence order.
    Delivered(Vec<(u64, Vec<u8>)>),
    /// Already seen — dropped, never delivered twice.
    Duplicate,
    /// Ahead of a gap — buffered until the gap fills or is abandoned.
    Buffered,
}

/// Receiver-side per-subscription stream state: delivers batches exactly
/// once and in order, buffers out-of-order arrivals, and exposes the
/// current gap for NACKing.
#[derive(Debug)]
pub struct Reassembler {
    /// Next sequence number not yet delivered (sequences start at 1).
    next: u64,
    pending: BTreeMap<u64, Vec<u8>>,
}

impl Default for Reassembler {
    fn default() -> Self {
        Reassembler::new()
    }
}

impl Reassembler {
    /// A fresh stream expecting sequence 1.
    pub fn new() -> Reassembler {
        Reassembler {
            next: 1,
            pending: BTreeMap::new(),
        }
    }

    /// Offers one received batch.
    pub fn offer(&mut self, seq: u64, payload: Vec<u8>) -> Offer {
        if seq < self.next || self.pending.contains_key(&seq) {
            return Offer::Duplicate;
        }
        if seq != self.next {
            self.pending.insert(seq, payload);
            return Offer::Buffered;
        }
        let mut out = vec![(seq, payload)];
        self.next += 1;
        while let Some(p) = self.pending.remove(&self.next) {
            out.push((self.next, p));
            self.next += 1;
        }
        Offer::Delivered(out)
    }

    /// The inclusive sequence range currently missing, if any batch is
    /// buffered past a hole: `(next_expected, first_buffered - 1)`.
    pub fn gap(&self) -> Option<(u64, u64)> {
        let (&first, _) = self.pending.iter().next()?;
        Some((self.next, first - 1))
    }

    /// Abandons everything below `seq`: advances the stream past a gap
    /// that will never be filled (sender evicted it, or retries ran out)
    /// and delivers any buffered batches that become in-order.
    pub fn skip_to(&mut self, seq: u64) -> Vec<(u64, Vec<u8>)> {
        if seq > self.next {
            self.next = seq;
        }
        self.pending.retain(|&s, _| s >= self.next);
        let mut out = Vec::new();
        while let Some(p) = self.pending.remove(&self.next) {
            out.push((self.next, p));
            self.next += 1;
        }
        out
    }

    /// The next sequence number the stream expects.
    pub fn next_expected(&self) -> u64 {
        self.next
    }

    /// The highest sequence delivered in order so far (cumulative-ACK
    /// value): `next_expected - 1`.
    pub fn ack_value(&self) -> u64 {
        self.next - 1
    }

    /// How many out-of-order batches are buffered.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn batch_encoding_round_trips() {
        for seq in [1u64, 42, 300, u64::MAX] {
            let wire = encode_batch(seq, b"payload");
            assert!(wire.len() <= MAX_SEQ_HEADER_BYTES + 7);
            assert_eq!(decode_batch(&wire), Some((seq, &b"payload"[..])));
        }
        assert_eq!(decode_batch(&[]), None, "empty input has no header");
        assert_eq!(decode_batch(&encode_batch(7, b"")), Some((7, &b""[..])));
    }

    #[test]
    fn in_order_stream_delivers_everything_once() {
        let mut r = Reassembler::new();
        for seq in 1..=10u64 {
            match r.offer(seq, vec![seq as u8]) {
                Offer::Delivered(got) => assert_eq!(got, vec![(seq, vec![seq as u8])]),
                other => panic!("seq {seq}: {other:?}"),
            }
        }
        assert_eq!(r.next_expected(), 11);
        assert_eq!(r.ack_value(), 10);
        assert_eq!(r.gap(), None);
    }

    #[test]
    fn gap_buffers_then_drains_in_order() {
        let mut r = Reassembler::new();
        assert!(matches!(r.offer(1, b"a".to_vec()), Offer::Delivered(_)));
        // 2 is lost; 3 and 4 arrive.
        assert_eq!(r.offer(3, b"c".to_vec()), Offer::Buffered);
        assert_eq!(r.offer(4, b"d".to_vec()), Offer::Buffered);
        assert_eq!(r.gap(), Some((2, 2)));
        // The retransmit of 2 unblocks the whole run.
        match r.offer(2, b"b".to_vec()) {
            Offer::Delivered(got) => {
                assert_eq!(
                    got,
                    vec![(2, b"b".to_vec()), (3, b"c".to_vec()), (4, b"d".to_vec())]
                );
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.gap(), None);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn duplicates_are_never_delivered_twice() {
        let mut r = Reassembler::new();
        assert!(matches!(r.offer(1, b"a".to_vec()), Offer::Delivered(_)));
        assert_eq!(r.offer(1, b"a".to_vec()), Offer::Duplicate);
        assert_eq!(r.offer(3, b"c".to_vec()), Offer::Buffered);
        assert_eq!(r.offer(3, b"c".to_vec()), Offer::Duplicate);
    }

    #[test]
    fn skip_to_abandons_gap_and_drains() {
        let mut r = Reassembler::new();
        assert!(matches!(r.offer(1, b"a".to_vec()), Offer::Delivered(_)));
        assert_eq!(r.offer(4, b"d".to_vec()), Offer::Buffered);
        assert_eq!(r.gap(), Some((2, 3)));
        let drained = r.skip_to(4);
        assert_eq!(drained, vec![(4, b"d".to_vec())]);
        assert_eq!(r.next_expected(), 5);
        assert_eq!(r.gap(), None);
        // Late arrivals of the abandoned range are duplicates now.
        assert_eq!(r.offer(2, b"b".to_vec()), Offer::Duplicate);
    }

    #[test]
    fn resend_buffer_acks_and_retransmits_by_range() {
        let mut buf = ResendBuffer::new(ResendConfig::default());
        for seq in 1..=5u64 {
            buf.push(t(seq), seq, encode_batch(seq, &[seq as u8; 100]));
        }
        assert_eq!(buf.len(), 5);
        assert_eq!(buf.ack_upto(2), 2);
        let rt = buf.retransmit_range(t(100), 3, 4);
        assert_eq!(rt.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![3, 4]);
        // Acked and never-held ranges retransmit nothing.
        assert!(buf.retransmit_range(t(101), 1, 2).is_empty());
        assert!(buf.retransmit_range(t(101), 9, 12).is_empty());
    }

    #[test]
    fn retransmits_share_payload_allocation() {
        let mut buf = ResendBuffer::new(ResendConfig::default());
        let wire = Bytes::from(encode_batch(1, &[7u8; 64]));
        buf.push(t(0), 1, wire.clone());
        let rt = buf.retransmit_range(t(5), 1, 1);
        assert_eq!(rt.len(), 1);
        // Same backing allocation as the original send — a refcounted
        // view, not a copy.
        assert!(std::ptr::eq(
            rt[0].1.as_ref().as_ptr(),
            wire.as_ref().as_ptr()
        ));
        let due = buf.due(t(10_000));
        assert_eq!(due.len(), 1);
        assert!(std::ptr::eq(
            due[0].1.as_ref().as_ptr(),
            wire.as_ref().as_ptr()
        ));
    }

    #[test]
    fn byte_cap_evicts_oldest_and_counts() {
        let config = ResendConfig {
            cap_bytes: 250,
            ..ResendConfig::default()
        };
        let mut buf = ResendBuffer::new(config);
        for seq in 1..=4u64 {
            buf.push(t(seq), seq, vec![0u8; 100]);
        }
        assert!(buf.buffered_bytes() <= 250);
        assert_eq!(buf.evictions(), 2);
        // The oldest two went; the newest two are still retransmittable.
        assert!(buf.retransmit_range(t(9), 1, 2).is_empty());
        assert_eq!(buf.retransmit_range(t(9), 3, 4).len(), 2);
    }

    #[test]
    fn timeout_retransmit_backs_off_exponentially() {
        let config = ResendConfig {
            cap_bytes: 10_000,
            rto: SimDuration::from_millis(10),
            max_backoff_exp: 3,
        };
        let mut buf = ResendBuffer::new(config);
        buf.push(t(0), 1, b"x".to_vec());
        assert!(buf.due(t(9)).is_empty(), "before first deadline");
        assert_eq!(buf.due(t(10)).len(), 1, "first timeout after rto");
        // Second deadline is 2×rto after the retransmit.
        assert!(buf.due(t(29)).is_empty());
        assert_eq!(buf.due(t(30)).len(), 1);
        // Third: 4×rto.
        assert!(buf.due(t(69)).is_empty());
        assert_eq!(buf.due(t(70)).len(), 1);
        // ACK stops the cycle.
        buf.ack_upto(1);
        assert!(buf.due(t(10_000)).is_empty());
    }

    /// Deterministic generative sweep: under arbitrary loss, duplication
    /// and reordering between a ResendBuffer sender and a Reassembler
    /// receiver, every sequence is delivered exactly once (or abandoned
    /// explicitly) and in order.
    #[test]
    fn generative_sweep_loss_duplication_reordering() {
        let mut rng = simcore::SimRng::seed(0x5EED);
        for case in 0..100 {
            let total: u64 = rng.uniform_u64(1, 200);
            let loss_p = rng.unit_f64() * 0.4;
            let dup_p = rng.unit_f64() * 0.3;
            let mut sender = ResendBuffer::new(ResendConfig {
                cap_bytes: u64::MAX,
                rto: SimDuration::from_millis(10),
                max_backoff_exp: 4,
            });
            let mut receiver = Reassembler::new();
            let mut delivered: Vec<u64> = Vec::new();
            let mut in_flight: Vec<(u64, Bytes)> = Vec::new();
            let mut now = SimTime::ZERO;

            for seq in 1..=total {
                now += SimDuration::from_millis(1);
                let wire = Bytes::from(encode_batch(seq, &[case as u8]));
                sender.push(now, seq, wire.clone());
                if !rng.chance(loss_p) {
                    in_flight.push((seq, wire.clone()));
                    if rng.chance(dup_p) {
                        in_flight.push((seq, wire));
                    }
                }
            }
            // Rounds of (shuffled delivery, then timeout retransmit) until
            // nothing is outstanding.
            loop {
                rng.shuffle(&mut in_flight);
                for (_, wire) in in_flight.drain(..) {
                    let (seq, payload) = decode_batch(&wire).expect("well-formed");
                    if let Offer::Delivered(got) = receiver.offer(seq, payload.to_vec()) {
                        delivered.extend(got.iter().map(|(s, _)| *s));
                    }
                }
                sender.ack_upto(receiver.ack_value());
                if sender.is_empty() {
                    break;
                }
                now += SimDuration::from_secs(2);
                // Retransmits are delivered reliably in this sweep so the
                // loop terminates; loss of retransmits is exercised by the
                // end-to-end chaos test.
                in_flight.extend(sender.due(now));
            }
            let expect: Vec<u64> = (1..=total).collect();
            assert_eq!(delivered, expect, "case {case}: exactly-once, in order");
        }
    }
}
