//! Reliable delivery for monitoring channels: one sequenced stream per
//! (publisher, subscriber) pair, with a [`Sender`] at the publisher and a
//! [`Receiver`] at the subscriber.
//!
//! The dissemination daemon's publications are fire-and-forget UDP-style
//! kernel sends; under loss, a dropped batch would silently corrupt every
//! downstream record. This module is everything that knows the stream:
//!
//! * a batch is a varint **per-subscription sequence number**
//!   (`1, 2, 3, …`, [`encode_batch`]) followed by length-prefixed
//!   messages ([`crate::frame_into`]), each under its own topic/schema
//!   header ([`crate::ChannelDecoder`]),
//! * the [`Sender`] numbers each subscriber's batches, keeps them in a
//!   byte-bounded [`ResendBuffer`] and retransmits on NACK or on
//!   retransmit-timeout with exponential backoff,
//! * the [`Receiver`] runs each source's batches through a
//!   [`Reassembler`] that delivers in order, suppresses duplicates and
//!   reports gaps; it NACKs a gap (paced), abandons it after a budget so
//!   one lost batch cannot stall the stream forever (gaps are then
//!   *counted*, not silently eaten), decodes what is delivered into raw
//!   rows, and answers every batch with a cumulative ACK.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::collections::VecDeque;

use bytes::Bytes;
use pbio::{read_u64, write_u64, Schema};
use simcore::{SimDuration, SimTime};
use simnet::EndPoint;

use crate::control::ControlMsg;
use crate::{frames, ChannelDecoder};

/// Prefixes `payload` with its per-subscription sequence number
/// (varint-encoded, like all pbio integers: ten bytes at most).
pub fn encode_batch(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(10 + payload.len());
    write_u64(&mut wire, seq);
    wire.extend_from_slice(payload);
    wire
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

/// The publisher's half of every stream it feeds: per-subscriber
/// sequence numbers plus a bounded [`ResendBuffer`] each.
pub struct Sender {
    config: ResendConfig,
    streams: BTreeMap<EndPoint, StreamTx>,
    /// Evictions of the streams [`Sender::release_idle`] let go, so
    /// [`Sender::evictions`] never goes down.
    released_evictions: u64,
}

struct StreamTx {
    next_seq: u64,
    buffer: ResendBuffer,
    /// Highest cumulative ACK applied, of the sequence numbers sealed.
    acked_upto: u64,
    retransmits: u64,
}

impl Sender {
    /// Empty sender state.
    pub fn new(config: ResendConfig) -> Self {
        Sender {
            config,
            streams: BTreeMap::new(),
            released_evictions: 0,
        }
    }

    /// Assigns the next sequence number for `ep`, frames `payload` with
    /// it, buffers the framed wire for retransmission, and returns it.
    /// The returned [`Bytes`] and the buffered copy share one
    /// allocation — sealing never duplicates the payload.
    pub fn seal(&mut self, now: SimTime, ep: EndPoint, payload: &[u8]) -> Bytes {
        let config = self.config;
        let st = self.streams.entry(ep).or_insert_with(|| StreamTx {
            next_seq: 1,
            buffer: ResendBuffer::new(config),
            acked_upto: 0,
            retransmits: 0,
        });
        let seq = st.next_seq;
        st.next_seq += 1;
        let wire = Bytes::from(encode_batch(seq, payload));
        st.buffer.push(now, seq, wire.clone());
        wire
    }

    /// Applies a cumulative ACK from `ep`.
    pub fn ack(&mut self, ep: EndPoint, upto: u64) -> usize {
        let Some(st) = self.streams.get_mut(&ep) else {
            return 0;
        };
        st.acked_upto = st.acked_upto.max(upto.min(st.next_seq - 1));
        st.buffer.ack_upto(upto)
    }

    /// Pulls retransmittable wire batches for a NACKed range from `ep`'s
    /// buffer (evicted or acked batches are simply absent).
    pub fn nack(&mut self, now: SimTime, ep: EndPoint, from: u64, to: u64) -> Vec<(u64, Bytes)> {
        let Some(st) = self.streams.get_mut(&ep) else {
            return Vec::new();
        };
        let resent = st.buffer.retransmit_range(now, from, to);
        st.retransmits += resent.len() as u64;
        resent
    }

    /// All batches past their retransmit deadline at `now`, in
    /// deterministic (endpoint-sorted) order, marked re-sent with
    /// exponential backoff.
    pub fn due(&mut self, now: SimTime) -> Vec<(EndPoint, Bytes)> {
        let mut out = Vec::new();
        for (ep, st) in &mut self.streams {
            let due = st.buffer.due(now);
            st.retransmits += due.len() as u64;
            out.extend(due.into_iter().map(|(_seq, wire)| (*ep, wire)));
        }
        out
    }

    /// Total un-acked batches evicted across all streams, released
    /// ones included.
    pub fn evictions(&self) -> u64 {
        let live: u64 = self.streams.values().map(|s| s.buffer.evictions()).sum();
        self.released_evictions + live
    }

    /// Lets go of every stream whose endpoint `wanted` refuses and whose
    /// resend buffer holds no un-acked batch, so nothing it sent can
    /// still need a retransmit. An endpoint released and sealed to again
    /// starts a new stream at sequence number 1.
    pub fn release_idle(&mut self, wanted: impl Fn(EndPoint) -> bool) {
        let released = &mut self.released_evictions;
        self.streams.retain(|ep, st| {
            let keep = wanted(*ep) || !st.buffer.is_empty();
            if !keep {
                *released += st.buffer.evictions();
            }
            keep
        });
    }

    /// Where each stream stands, by subscriber endpoint: its state as
    /// `(name, value)` pairs, names sorted.
    pub fn streams(&self) -> Vec<(EndPoint, [(&'static str, u64); 5])> {
        let state = |st: &StreamTx| {
            [
                ("acked_upto", st.acked_upto),
                ("buffered_bytes", st.buffer.buffered_bytes()),
                ("evictions", st.buffer.evictions()),
                ("next_seq", st.next_seq),
                ("retransmits", st.retransmits),
            ]
        };
        self.streams
            .iter()
            .map(|(ep, st)| (*ep, state(st)))
            .collect()
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
    /// [`REORDER_WINDOW`] or more ahead of the next expected sequence
    /// number, or too large for what is left of [`REORDER_BYTES`] —
    /// dropped, not buffered.
    OutOfWindow,
}

/// How far ahead of the next expected sequence number a batch may be and
/// still be buffered. Sequence numbers come off the wire, so without a
/// bound a peer could park one payload per far-future number it cares to
/// name. An honest sender has at most [`ResendConfig::cap_bytes`] of
/// un-acked batches it can still retransmit; at the default 512 KiB and
/// 8 bytes a batch (sequence number, frame length, topic, schema id and
/// announce flag are five before the record starts; the smallest batch a
/// daemon does seal, a lone load report, is 27 or more) that is 65,536
/// batches. A batch further ahead is one whose predecessors the sender
/// has evicted: dropping it costs a retransmit after the gap is
/// abandoned, never a record the stream could have kept.
pub const REORDER_WINDOW: u64 = 65_536;

/// How many payload bytes one stream may hold out of order, whatever
/// their count. An honest sender at the default
/// [`ResendConfig::cap_bytes`] never has more than this un-acked, so
/// nothing it could still retransmit is refused; a peer sending large
/// batches far ahead of a gap fills this, not the subscriber's memory.
pub const REORDER_BYTES: usize = 512 * 1024;

/// The most sources one [`Receiver`] keeps a stream for. Source
/// endpoints come off the wire, so without a bound each datagram from
/// a fresh endpoint would open a stream with its own decoder and
/// reorder buffer. A batch from a new source past the bound is
/// refused and counted in [`Receiver::sources_refused`].
pub const MAX_SOURCES: usize = 1_024;

/// Receiver-side per-subscription stream state: delivers batches exactly
/// once and in order, buffers out-of-order arrivals, and exposes the
/// current gap for NACKing.
#[derive(Debug)]
pub struct Reassembler {
    /// Next sequence number not yet delivered: sequences start at 1 and
    /// `u64::MAX` is never delivered, so this is in `1..=u64::MAX`.
    next: u64,
    /// At most [`REORDER_WINDOW`] batches, all above `next`.
    pending: BTreeMap<u64, Vec<u8>>,
    /// The payload bytes in `pending`, at most [`REORDER_BYTES`].
    pending_bytes: usize,
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
            pending_bytes: 0,
        }
    }

    /// Offers one received batch.
    pub fn offer(&mut self, seq: u64, payload: Vec<u8>) -> Offer {
        if seq < self.next || self.pending.contains_key(&seq) {
            return Offer::Duplicate;
        }
        // `u64::MAX` has no successor to expect after it.
        if seq - self.next >= REORDER_WINDOW || seq == u64::MAX {
            return Offer::OutOfWindow;
        }
        if seq != self.next {
            if payload.len() > REORDER_BYTES - self.pending_bytes {
                return Offer::OutOfWindow;
            }
            self.pending_bytes += payload.len();
            self.pending.insert(seq, payload);
            return Offer::Buffered;
        }
        self.next += 1;
        let mut out = vec![(seq, payload)];
        out.extend(self.drain_in_order());
        Offer::Delivered(out)
    }

    /// Delivers `seq` without its payload if it is the next expected and
    /// nothing is buffered — when [`offer`](Self::offer) would deliver it
    /// alone, so the caller can read it where it lies. Returns whether it
    /// did; if not, nothing changed.
    fn deliver_next(&mut self, seq: u64) -> bool {
        let alone = seq == self.next && seq != u64::MAX && self.pending.is_empty();
        self.next += u64::from(alone);
        alone
    }

    /// Takes the buffered batches that are next in sequence.
    fn drain_in_order(&mut self) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(p) = self.pending.remove(&self.next) {
            self.pending_bytes -= p.len();
            out.push((self.next, p));
            self.next += 1;
        }
        out
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
        self.next = self.next.max(seq);
        self.pending.retain(|&s, _| s >= self.next);
        self.pending_bytes = self.pending.values().map(Vec::len).sum();
        self.drain_in_order()
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

/// Minimum wall-clock spacing between NACKs for the same gap. A
/// retransmit burst after a partition heals can deliver many batches
/// within microseconds; without pacing each one would burn a NACK from
/// the gap budget before the first NACK's retransmit has had a round
/// trip's chance to arrive. Comfortably exceeds the simulated networks'
/// RTTs.
const NACK_PACE: SimDuration = SimDuration::from_millis(5);

/// How many NACKs a subscriber sends for one gap before abandoning it
/// (the sender has evicted the range, or the path is dead): what the GPA
/// and RA-DWCS's load feed build their [`Receiver`]s with. Abandoned
/// gaps are counted in [`Receiver::gaps_abandoned`], never silent.
pub const GAP_NACK_LIMIT: u32 = 5;

/// Receive-side state of one source's stream.
#[derive(Default)]
struct SourceRx {
    reasm: Reassembler,
    decoder: ChannelDecoder,
    /// Whether a gap is currently open (for detected/recovered edges).
    gap_open: bool,
    /// NACKs sent for the currently open gap.
    nacks_for_gap: u32,
    /// When the last NACK for the open gap went out, for pacing.
    last_nack_at: Option<SimTime>,
    /// Gaps this stream skipped past.
    abandoned: u64,
}

impl SourceRx {
    fn close_gap(&mut self) {
        self.gap_open = false;
        self.nacks_for_gap = 0;
        self.last_nack_at = None;
    }
}

/// The subscriber's half of every stream it is fed: per-source
/// reassembly, gap repair and decoding, and the counters of what became
/// of every batch. The default receiver expects no schema and abandons a
/// gap at once; it is what an owner leaves in place while it lends the
/// real one out.
#[derive(Default)]
pub struct Receiver {
    /// The schemas the subscriber ingests; a record under any other is a
    /// decode failure.
    expected: Vec<Schema>,
    /// NACKs sent for one gap before it is abandoned.
    gap_nack_limit: u32,
    sources: BTreeMap<EndPoint, SourceRx>,
    /// The rows of the batch being delivered, one contiguous buffer per
    /// expected schema (one all the same if none is).
    rows: Vec<Vec<i64>>,
    /// Sequenced batches received (before dedup/reordering).
    pub batches_received: u64,
    /// Batches discarded as already-delivered duplicates.
    pub duplicate_batches: u64,
    /// Batches that arrived ahead of a gap and were buffered.
    pub out_of_order: u64,
    /// Batches dropped for being [`REORDER_WINDOW`] or more ahead, or
    /// for not fitting in what is left of [`REORDER_BYTES`].
    pub out_of_window: u64,
    /// Distinct gaps observed (a missing sequence range opened).
    pub gaps_detected: u64,
    /// Gaps closed by a retransmission arriving.
    pub gaps_recovered: u64,
    /// Gaps given up on after the NACK budget; the stream skipped past.
    pub gaps_abandoned: u64,
    /// Data NACKs sent back to publishers.
    pub nacks_sent: u64,
    /// Cumulative data ACKs sent back to publishers.
    pub acks_sent: u64,
    /// Batches whose sequence header did not parse, messages that did
    /// not decode (a payload's truncated tail is one), and records
    /// under a schema that is not expected.
    pub decode_failures: u64,
    /// Batches refused unread because they came from a new source with
    /// [`MAX_SOURCES`] streams already open.
    pub sources_refused: u64,
}

/// Decodes the records of one delivered batch into `rows` (cleared
/// first), one buffer per expected schema. Returns how many decoded;
/// what did not, or is under no expected schema, is counted in
/// `failures`.
fn decode_rows(
    decoder: &mut ChannelDecoder,
    payload: &[u8],
    rows: &mut [Vec<i64>],
    failures: &mut u64,
) -> usize {
    rows.iter_mut().for_each(Vec::clear);
    let (first, others) = rows.split_first_mut().expect("at least one buffer");
    let mut count = 0;
    for frame in frames(payload) {
        let Ok(frame) = frame else {
            *failures += 1;
            continue;
        };
        // Decoded in place as a row under the first expected schema,
        // which most are; moved if under another, dropped if under none.
        let start = first.len();
        match decoder.decode_row(frame, first) {
            Ok(Some((_topic, Some(0)))) => count += 1,
            Ok(Some((_topic, known))) => {
                count += 1;
                match known {
                    Some(k) => others[k - 1].extend_from_slice(&first[start..]),
                    None => *failures += 1,
                }
                first.truncate(start);
            }
            Ok(None) => {}
            Err(_) => *failures += 1,
        }
    }
    count
}

impl Receiver {
    /// A receiver for a subscriber that ingests exactly `expected`
    /// (compared against what each stream announces, field types
    /// included) and sends `gap_nack_limit` NACKs for one gap before
    /// abandoning it.
    pub fn new(expected: Vec<Schema>, gap_nack_limit: u32) -> Receiver {
        Receiver {
            rows: vec![Vec::new(); expected.len().max(1)],
            expected,
            gap_nack_limit,
            ..Receiver::default()
        }
    }

    /// Runs one wire batch from `src` through its stream: decodes the
    /// sequence header, delivers in-order batches exactly once, and
    /// produces the control replies (a gap NACK when a hole is visible,
    /// then the cumulative ACK) to send back to the publisher's control
    /// port. `self_ep` is the subscriber's data endpoint, named in
    /// replies so the publisher knows which stream they govern.
    ///
    /// Each delivered batch is handed to `on_batch` as its sequence
    /// number and its records' raw rows, `rows[k]` holding those under
    /// the `k`th expected schema back to back in arrival order.
    ///
    /// Input whose sequence header does not parse is a decode failure:
    /// nothing is delivered and nothing is replied.
    ///
    /// Returns `(records_decoded, replies)`.
    pub fn ingest(
        &mut self,
        now_wall: SimTime,
        self_ep: EndPoint,
        src: EndPoint,
        data: &[u8],
        on_batch: &mut dyn FnMut(u64, &[Vec<i64>]),
    ) -> (usize, Vec<ControlMsg>) {
        let Some((seq, payload)) = decode_batch(data) else {
            self.decode_failures += 1;
            return (0, Vec::new());
        };
        let open = self.sources.len();
        let st = match self.sources.entry(src) {
            Entry::Occupied(st) => st.into_mut(),
            Entry::Vacant(_) if open >= MAX_SOURCES => {
                self.sources_refused += 1;
                return (0, Vec::new());
            }
            Entry::Vacant(slot) => slot.insert(SourceRx {
                decoder: ChannelDecoder::expecting(self.expected.clone()),
                ..SourceRx::default()
            }),
        };
        self.batches_received += 1;
        let (rows, failures) = (&mut self.rows, &mut self.decode_failures);
        let expected = self.expected.len();
        let mut count = 0;
        let mut deliver = |decoder: &mut ChannelDecoder, seq: u64, payload: &[u8]| {
            count += decode_rows(decoder, payload, rows, failures);
            on_batch(seq, &rows[..expected]);
        };
        if st.reasm.deliver_next(seq) {
            // In order with nothing buffered, as most batches are: decoded
            // from the wire bytes, with no copy for the reassembler.
            deliver(&mut st.decoder, seq, payload);
        } else {
            match st.reasm.offer(seq, payload.to_vec()) {
                Offer::Delivered(batches) => {
                    for (seq, payload) in batches {
                        deliver(&mut st.decoder, seq, &payload);
                    }
                }
                Offer::Duplicate => self.duplicate_batches += 1,
                Offer::Buffered => self.out_of_order += 1,
                Offer::OutOfWindow => self.out_of_window += 1,
            }
        }

        // Gap bookkeeping: NACK an open hole, or abandon it once the
        // NACK budget is spent (the sender evicted the range).
        let mut replies = Vec::new();
        match st.reasm.gap() {
            Some((from, to)) => {
                if !st.gap_open {
                    st.gap_open = true;
                    self.gaps_detected += 1;
                }
                if st.last_nack_at.is_some_and(|t| now_wall < t + NACK_PACE) {
                    // An outstanding NACK's retransmit may still be in
                    // flight; don't burn budget on burst arrivals.
                } else if st.nacks_for_gap < self.gap_nack_limit {
                    st.nacks_for_gap += 1;
                    st.last_nack_at = Some(now_wall);
                    self.nacks_sent += 1;
                    replies.push(ControlMsg::DataNack {
                        subscriber: self_ep,
                        from_seq: from,
                        to_seq: to,
                    });
                } else {
                    let drained = st.reasm.skip_to(to + 1);
                    st.close_gap();
                    st.abandoned += 1;
                    self.gaps_abandoned += 1;
                    for (seq, payload) in drained {
                        deliver(&mut st.decoder, seq, &payload);
                    }
                }
            }
            None if st.gap_open => {
                st.close_gap();
                self.gaps_recovered += 1;
            }
            None => {}
        }

        // Cumulative ACK on every sequenced batch (duplicates included —
        // a re-ACK is how a publisher retransmitting into an
        // already-healed stream learns to stop).
        self.acks_sent += 1;
        replies.push(ControlMsg::DataAck {
            subscriber: self_ep,
            upto: st.reasm.ack_value(),
        });
        (count, replies)
    }

    /// Whether every stream has fully converged: no open gaps and no
    /// out-of-order batches still buffered. True once retransmissions
    /// (or abandonments) have caught the subscriber up after a fault
    /// episode.
    pub fn converged(&self) -> bool {
        self.sources.values().all(|st| st.reasm.pending_len() == 0)
    }

    /// Where each stream stands, by source endpoint: its state as
    /// `(name, value)` pairs, names sorted.
    pub fn streams(&self) -> Vec<(EndPoint, [(&'static str, u64); 5])> {
        let state = |st: &SourceRx| {
            [
                ("abandoned", st.abandoned),
                ("gap_open", u64::from(st.gap_open)),
                ("nacks_for_gap", u64::from(st.nacks_for_gap)),
                ("next_expected", st.reasm.next_expected()),
                ("pending", st.reasm.pending_len() as u64),
            ]
        };
        self.sources
            .iter()
            .map(|(ep, st)| (*ep, state(st)))
            .collect()
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
            assert!(wire.len() <= 10 + 7);
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

    /// Sequence numbers come off the wire: none may overflow the
    /// stream's arithmetic or park a payload arbitrarily far ahead.
    #[test]
    fn far_future_and_last_sequence_numbers_are_out_of_window() {
        let mut r = Reassembler::new();
        assert_eq!(r.offer(u64::MAX, vec![]), Offer::OutOfWindow);
        assert_eq!(r.offer(1 + REORDER_WINDOW, vec![]), Offer::OutOfWindow);
        assert_eq!(r.offer(REORDER_WINDOW, vec![]), Offer::Buffered);
        assert_eq!((r.pending_len(), r.ack_value()), (1, 0));
        assert_eq!(r.gap(), Some((1, REORDER_WINDOW - 1)));
        // The end of the sequence space: skipping there delivers
        // nothing and expects nothing more.
        assert!(r.skip_to(u64::MAX).is_empty());
        assert_eq!((r.next_expected(), r.ack_value()), (u64::MAX, u64::MAX - 1));
        assert_eq!(r.offer(u64::MAX, vec![]), Offer::OutOfWindow);
        assert_eq!(r.offer(u64::MAX - 1, vec![]), Offer::Duplicate);
        assert_eq!(r.pending_len(), 0);
    }

    /// `deliver_next` then `offer`, as `Receiver::ingest` runs them, is
    /// `offer` alone: the same batches delivered in the same order and
    /// the same stream state after every arrival, on seeded streams of
    /// in-order, early, duplicate, far-future and last sequence numbers.
    #[test]
    fn deliver_next_is_offer_delivering_alone() {
        let mut rng = simcore::SimRng::seed(0xFA57);
        for _ in 0..200 {
            let (mut fast, mut reference) = (Reassembler::new(), Reassembler::new());
            let start = if rng.chance(0.1) { u64::MAX - 4 } else { 0 };
            for _ in 0..64 {
                let seq = match rng.index(8) {
                    0 => u64::MAX,
                    1 => fast.next_expected().saturating_add(REORDER_WINDOW),
                    _ => fast
                        .next_expected()
                        .max(start)
                        .saturating_add(rng.uniform_u64(0, 3)),
                };
                let seq = seq - u64::from(rng.chance(0.2) && seq > 1);
                let payload = seq.to_le_bytes().to_vec();
                let got = if fast.deliver_next(seq) {
                    Offer::Delivered(vec![(seq, payload.clone())])
                } else {
                    fast.offer(seq, payload.clone())
                };
                assert_eq!(got, reference.offer(seq, payload), "seq {seq}");
                assert_eq!(
                    (fast.next_expected(), fast.gap(), fast.pending_bytes),
                    (
                        reference.next_expected(),
                        reference.gap(),
                        reference.pending_bytes
                    )
                );
                if rng.chance(0.05) {
                    let to = match start {
                        0 => fast.next_expected().saturating_add(2),
                        _ => u64::MAX - rng.uniform_u64(0, 3),
                    };
                    assert_eq!(fast.skip_to(to), reference.skip_to(to));
                }
            }
        }
    }

    const A: EndPoint = EndPoint::new(simnet::Ip(1), simnet::Port(9999));
    const B: EndPoint = EndPoint::new(simnet::Ip(2), simnet::Port(9999));

    /// One named value of one stream's rendered state.
    fn state_of(streams: &[(EndPoint, [(&'static str, u64); 5])], ep: EndPoint, key: &str) -> u64 {
        let (_, state) = streams.iter().find(|(e, _)| *e == ep).expect("stream");
        state.iter().find(|(k, _)| *k == key).expect("key").1
    }

    #[test]
    fn sender_sequences_per_subscription_and_retransmits() {
        let mut tx = Sender::new(ResendConfig {
            cap_bytes: u64::MAX,
            rto: SimDuration::from_millis(10),
            max_backoff_exp: 2,
        });
        let w1 = tx.seal(SimTime::ZERO, A, b"x");
        let w2 = tx.seal(SimTime::ZERO, A, b"y");
        let w3 = tx.seal(SimTime::ZERO, B, b"z");
        assert_eq!(decode_batch(&w1).unwrap().0, 1);
        assert_eq!(decode_batch(&w2).unwrap().0, 2);
        assert_eq!(
            decode_batch(&w3).unwrap().0,
            1,
            "per-subscription numbering"
        );
        tx.ack(A, 1);
        let due = tx.due(t(10));
        assert_eq!(due.len(), 2, "a's seq 2 and b's seq 1 timed out");
        assert_eq!(due[0].0, A, "endpoint-sorted retransmit order");
        assert_eq!(due[1].0, B);
        assert_eq!(tx.nack(t(11), A, 2, 2).len(), 1);
        assert!(tx.nack(t(11), A, 1, 1).is_empty(), "acked range is gone");
        assert_eq!(tx.evictions(), 0);
        // An ACK past what was sealed acknowledges what was sealed.
        tx.ack(B, u64::MAX);
        let streams = tx.streams();
        assert_eq!(
            streams.iter().map(|(ep, _)| *ep).collect::<Vec<_>>(),
            [A, B]
        );
        for (ep, key, want) in [
            (A, "next_seq", 3),
            (A, "acked_upto", 1),
            (A, "retransmits", 2),
            (A, "buffered_bytes", w2.len() as u64),
            (B, "acked_upto", 1),
            (B, "retransmits", 1),
            (B, "buffered_bytes", 0),
        ] {
            assert_eq!(state_of(&streams, ep, key), want, "{ep} {key}");
        }
    }

    /// Only a stream that is unwanted *and* fully acked is let go, and
    /// the evictions it counted stay counted.
    #[test]
    fn release_idle_drops_only_unwanted_acked_streams_and_keeps_evictions() {
        let mut tx = Sender::new(ResendConfig {
            cap_bytes: 16,
            ..ResendConfig::default()
        });
        for _ in 0..3 {
            tx.seal(SimTime::ZERO, A, &[0; 16]);
            tx.seal(SimTime::ZERO, B, &[0; 16]);
        }
        assert_eq!(tx.evictions(), 4, "two per stream at a 16-byte cap");
        tx.ack(A, u64::MAX);
        tx.release_idle(|ep| ep == B);
        tx.release_idle(|_| false);
        let streams = tx.streams();
        assert_eq!(
            streams.iter().map(|(ep, _)| *ep).collect::<Vec<_>>(),
            [B],
            "A released; B still holds batch 3"
        );
        assert_eq!(tx.evictions(), 4);
        assert_eq!(decode_batch(&tx.seal(t(1), A, b"x")).unwrap().0, 1);
    }

    #[test]
    fn seal_shares_one_allocation_with_resend_buffer() {
        let mut tx = Sender::new(ResendConfig::default());
        let sent = tx.seal(SimTime::ZERO, A, &[0xAB; 256]);
        // A NACK-triggered retransmit hands back the very allocation the
        // original send used — sealing buffered a refcounted view, not a
        // copy.
        let rt = tx.nack(t(1), A, 1, 1);
        assert_eq!(rt.len(), 1);
        assert!(std::ptr::eq(
            rt[0].1.as_ref().as_ptr(),
            sent.as_ref().as_ptr()
        ));
        // Timeout-triggered retransmits share it too.
        let due = tx.due(SimTime::from_secs(10));
        assert_eq!(due.len(), 1);
        assert!(std::ptr::eq(
            due[0].1.as_ref().as_ptr(),
            sent.as_ref().as_ptr()
        ));
        // The buffer holds exactly one copy's worth of bytes.
        assert_eq!(
            state_of(&tx.streams(), A, "buffered_bytes"),
            sent.len() as u64
        );
    }

    /// A receiver expecting nothing, fed batches with empty payloads (an
    /// empty payload still counts as a delivered batch), and the
    /// sequence numbers it delivered.
    struct Fed {
        rx: Receiver,
        delivered: Vec<u64>,
    }

    impl Fed {
        fn new(gap_nack_limit: u32) -> Fed {
            Fed {
                rx: Receiver::new(Vec::new(), gap_nack_limit),
                delivered: Vec::new(),
            }
        }

        fn ingest(&mut self, at_ms: u64, data: &[u8]) -> Vec<ControlMsg> {
            let delivered = &mut self.delivered;
            let mut on_batch = |seq, _: &[Vec<i64>]| delivered.push(seq);
            self.rx.ingest(t(at_ms), A, B, data, &mut on_batch).1
        }

        fn offer(&mut self, at_ms: u64, seq: u64) -> Vec<ControlMsg> {
            self.ingest(at_ms, &encode_batch(seq, &[]))
        }
    }

    fn ack(upto: u64) -> ControlMsg {
        ControlMsg::DataAck {
            subscriber: A,
            upto,
        }
    }

    fn nack(from_seq: u64, to_seq: u64) -> ControlMsg {
        ControlMsg::DataNack {
            subscriber: A,
            from_seq,
            to_seq,
        }
    }

    #[test]
    fn sequenced_ingest_dedups_nacks_gaps_and_acks() {
        let mut f = Fed::new(5);
        assert_eq!(f.offer(10, 1), [ack(1)]);
        // 2 lost; 3 arrives → buffered, NACK for [2,2], ACK still 1.
        assert_eq!(f.offer(20, 3), [nack(2, 2), ack(1)]);
        assert!(!f.rx.converged());
        // A burst arrival 1 ms later is inside the NACK pace: no budget
        // burned, just the cumulative ACK.
        assert_eq!(f.offer(21, 4), [ack(1)], "paced out: no second NACK");
        // Duplicate of 1 → counted, re-ACKed, never re-delivered; the
        // pace has elapsed, so the still-open gap is NACKed again.
        assert_eq!(f.offer(30, 1), [nack(2, 2), ack(1)]);
        let open = f.rx.streams();
        assert_eq!(state_of(&open, B, "gap_open"), 1);
        assert_eq!(state_of(&open, B, "nacks_for_gap"), 2);
        assert_eq!(state_of(&open, B, "pending"), 2);
        assert_eq!(state_of(&open, B, "next_expected"), 2);
        // Retransmit of 2 heals the gap and unblocks 3 and 4.
        assert_eq!(f.offer(40, 2), [ack(4)]);
        assert_eq!(f.rx.batches_received, 5);
        assert_eq!(f.rx.duplicate_batches, 1);
        assert_eq!(f.rx.out_of_order, 2);
        assert_eq!(f.rx.gaps_detected, 1);
        assert_eq!(f.rx.gaps_recovered, 1);
        assert_eq!(f.rx.gaps_abandoned, 0);
        assert_eq!((f.rx.nacks_sent, f.rx.acks_sent), (2, 5));
        assert!(f.rx.converged());
        assert_eq!(f.delivered, [1, 2, 3, 4], "exactly-once, in order");
        let healed = f.rx.streams();
        assert_eq!(state_of(&healed, B, "gap_open"), 0);
        assert_eq!(state_of(&healed, B, "nacks_for_gap"), 0);
        assert_eq!(state_of(&healed, B, "next_expected"), 5);
    }

    #[test]
    fn unanswered_nacks_abandon_the_gap_with_counting() {
        let mut f = Fed::new(2);
        f.offer(10, 1);
        // 2 is lost forever; each later (pace-spaced) arrival re-NACKs
        // until the budget runs out, then the stream skips ahead.
        for (i, seq) in [3u64, 4, 5].into_iter().enumerate() {
            f.offer(20 + 10 * i as u64, seq);
        }
        assert_eq!(f.rx.gaps_detected, 1);
        assert_eq!(f.rx.nacks_sent, 2, "budget of 2");
        assert_eq!(f.rx.gaps_abandoned, 1);
        assert_eq!(f.rx.gaps_recovered, 0);
        assert_eq!(state_of(&f.rx.streams(), B, "abandoned"), 1);
        assert!(f.rx.converged(), "stream moved past the dead gap");
        // The skip delivered the buffered 3..=5.
        assert_eq!(f.offer(60, 6), [ack(6)]);
        assert_eq!(f.delivered, [1, 3, 4, 5, 6]);
    }

    #[test]
    fn unparseable_sequence_header_is_a_decode_failure() {
        let mut f = Fed::new(5);
        // Nothing at all, a truncated varint and one that never ends.
        for data in [&[][..], &[0x80][..], &[0xFF; 11][..]] {
            assert!(f.ingest(1, data).is_empty(), "nothing to acknowledge");
        }
        assert_eq!(f.rx.decode_failures, 3);
        assert_eq!(f.rx.batches_received, 0);
        assert!(f.rx.streams().is_empty(), "no stream was opened");
    }

    /// Five copies of one forged batch used to walk the gap budget down
    /// and skip the stream to the end of the sequence space.
    #[test]
    fn forged_sequence_numbers_neither_wedge_nor_advance_the_stream() {
        let mut f = Fed::new(5);
        for i in 0..5 {
            assert_eq!(f.offer(10 * (i + 1), u64::MAX), [ack(0)]);
        }
        assert_eq!(f.offer(60, 5 + REORDER_WINDOW), [ack(0)]);
        assert_eq!(f.rx.out_of_window, 6);
        assert_eq!((f.rx.gaps_detected, f.rx.nacks_sent), (0, 0));
        assert!(f.rx.converged());
        assert_eq!(f.offer(70, 1), [ack(1)], "an honest batch still lands");
        assert_eq!(f.delivered, [1]);
    }

    /// Large batches far ahead of a gap fill the stream's byte budget
    /// and no more: what does not fit is dropped and counted, and the
    /// gap's retransmit still delivers everything that was buffered.
    #[test]
    fn far_ahead_large_batches_stay_under_the_byte_bound() {
        let mut f = Fed::new(u32::MAX);
        let big = vec![0u8; 100_000];
        for seq in 2..=40u64 {
            f.ingest(seq, &encode_batch(seq, &big));
            let pending = f.rx.sources[&B].reasm.pending_bytes;
            assert!(pending <= REORDER_BYTES, "{pending} bytes buffered");
        }
        let fits = (REORDER_BYTES / big.len()) as u64;
        assert_eq!(f.rx.out_of_order, fits);
        assert_eq!(f.rx.out_of_window, 39 - fits);
        assert_eq!(f.offer(100, 1), [ack(1 + fits)]);
        assert_eq!(f.delivered, (1..=1 + fits).collect::<Vec<_>>());
        assert_eq!(f.rx.sources[&B].reasm.pending_bytes, 0);
        // A batch the budget refused arrives again once there is room.
        f.ingest(101, &encode_batch(2 + fits, &big));
        assert_eq!(*f.delivered.last().unwrap(), 2 + fits);
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
