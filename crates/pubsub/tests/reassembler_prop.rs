//! Property tests for `pubsub::reliable`: no interleaving of loss,
//! duplication, and reordering may ever produce an out-of-order or
//! duplicate delivery, and whatever survives the network must be
//! delivered exactly once, in sequence order — for a bare `Reassembler`,
//! and for a `Sender` → `Receiver` pair that is also fed arbitrary byte
//! strings.

use std::collections::BTreeSet;

use pbio::{FieldType, Schema};
use proptest::prelude::*;
use pubsub::control::ControlMsg;
use pubsub::reliable::{
    encode_batch, Offer, Reassembler, Receiver, ResendConfig, Sender, REORDER_WINDOW,
};
use pubsub::{frame_into, Hub};
use simcore::{SimDuration, SimRng, SimTime};
use simnet::{EndPoint, Ip, Port};

/// One network action applied to a stream of sequenced batches.
#[derive(Debug, Clone)]
enum NetOp {
    /// Deliver the batch at this (wrapped) index of the pending set.
    Deliver(usize),
    /// Re-deliver an already-delivered batch (a network duplicate).
    Redeliver(usize),
    /// Drop the batch at this index — it never arrives.
    Drop(usize),
}

fn net_ops() -> impl Strategy<Value = Vec<NetOp>> {
    // Deliver-heavy mix (4:1:1) so streams usually make progress while
    // duplicates and drops stay common enough to matter.
    prop::collection::vec(
        (0usize..6, 0usize..64).prop_map(|(variant, i)| match variant {
            0..=3 => NetOp::Deliver(i),
            4 => NetOp::Redeliver(i),
            _ => NetOp::Drop(i),
        }),
        1..200,
    )
}

/// A delivered batch: sequence number plus its payload bytes.
type Delivered = Vec<(u64, Vec<u8>)>;

/// Drives a reassembler through an arbitrary interleaving and returns
/// every delivered `(seq, payload)` in delivery order, plus the set of
/// sequences the network actually dropped.
fn drive(total: u64, ops: &[NetOp]) -> (Delivered, Vec<u64>, Reassembler) {
    let payload = |seq: u64| vec![seq as u8, (seq >> 8) as u8];
    let mut in_flight: Vec<u64> = (1..=total).collect();
    let mut arrived: Vec<u64> = Vec::new();
    let mut dropped: Vec<u64> = Vec::new();
    let mut delivered: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut r = Reassembler::new();

    let push = |r: &mut Reassembler, seq: u64, delivered: &mut Vec<(u64, Vec<u8>)>| match r
        .offer(seq, payload(seq))
    {
        Offer::Delivered(batch) => delivered.extend(batch),
        Offer::Duplicate | Offer::Buffered | Offer::OutOfWindow => {}
    };

    for op in ops {
        match op {
            NetOp::Deliver(i) => {
                if in_flight.is_empty() {
                    continue;
                }
                let seq = in_flight.remove(i % in_flight.len());
                arrived.push(seq);
                push(&mut r, seq, &mut delivered);
            }
            NetOp::Redeliver(i) => {
                if arrived.is_empty() {
                    continue;
                }
                let seq = arrived[i % arrived.len()];
                push(&mut r, seq, &mut delivered);
            }
            NetOp::Drop(i) => {
                if in_flight.is_empty() {
                    continue;
                }
                dropped.push(in_flight.remove(i % in_flight.len()));
            }
        }
    }
    // The dissemination layer eventually retransmits everything lost in
    // flight (or the receiver NACKs it); model full recovery by
    // re-offering whatever never arrived.
    for seq in in_flight {
        push(&mut r, seq, &mut delivered);
    }
    (delivered, dropped, r)
}

proptest! {
    /// Core exactly-once/in-order property: under any interleaving of
    /// delivery, duplication, and loss-then-retransmit, the delivered
    /// stream is a strictly increasing run of sequence numbers with no
    /// duplicates, payloads intact, and — once the permanently-dropped
    /// sequences are skipped — every surviving batch is delivered.
    #[test]
    fn no_interleaving_breaks_order_or_exactly_once(
        total in 1u64..64,
        ops in net_ops(),
    ) {
        let (mut delivered, dropped, mut r) = drive(total, &ops);

        // Strictly increasing => no duplicates and no reordering.
        for w in delivered.windows(2) {
            prop_assert!(
                w[0].0 < w[1].0,
                "delivery order violated: seq {} then {}",
                w[0].0,
                w[1].0
            );
        }
        // Payload integrity: each batch carries its own sequence.
        for (seq, payload) in &delivered {
            prop_assert_eq!(payload[0] as u64 | ((payload[1] as u64) << 8), *seq);
        }

        // Permanent losses stall the stream at the first gap; abandoning
        // the gaps (as the GPA does when retries run out) must flush
        // every remaining survivor, still in order.
        let mut skip_targets: Vec<u64> = dropped.clone();
        skip_targets.sort_unstable();
        for gap_seq in skip_targets {
            delivered.extend(r.skip_to(gap_seq + 1));
        }
        let got: Vec<u64> = delivered.iter().map(|(s, _)| *s).collect();
        let expected: Vec<u64> = (1..=total).filter(|s| !dropped.contains(s)).collect();
        prop_assert_eq!(got, expected, "every survivor delivered exactly once, in order");
        prop_assert_eq!(r.pending_len(), 0, "nothing left buffered after recovery");
    }

    /// Offering the same sequence twice is *always* reported as a
    /// duplicate, whether it was delivered or is still buffered.
    #[test]
    fn duplicate_offers_are_always_flagged(seqs in prop::collection::vec(1u64..32, 1..64)) {
        let mut r = Reassembler::new();
        let mut seen: Vec<u64> = Vec::new();
        for seq in seqs {
            let outcome = r.offer(seq, vec![]);
            if seen.contains(&seq) {
                prop_assert_eq!(
                    outcome,
                    Offer::Duplicate,
                    "seq {} offered twice must be flagged",
                    seq
                );
            } else {
                prop_assert!(outcome != Offer::Duplicate, "fresh seq {} not a duplicate", seq);
                seen.push(seq);
            }
        }
    }

    /// `gap()` is `Some` exactly when something is buffered past a hole,
    /// and always spans `next_expected ..= first_buffered - 1`.
    #[test]
    fn gap_reporting_matches_buffer_state(
        total in 1u64..32,
        ops in net_ops(),
    ) {
        let payload = |seq: u64| vec![seq as u8];
        let mut in_flight: Vec<u64> = (1..=total).collect();
        let mut r = Reassembler::new();
        for op in &ops {
            let NetOp::Deliver(i) = op else { continue };
            if in_flight.is_empty() {
                break;
            }
            let seq = in_flight.remove(i % in_flight.len());
            let _ = r.offer(seq, payload(seq));
            match r.gap() {
                Some((lo, hi)) => {
                    prop_assert_eq!(lo, r.next_expected());
                    prop_assert!(hi >= lo, "gap ({}, {}) is a real range", lo, hi);
                    prop_assert!(r.pending_len() > 0, "a gap implies buffered successors");
                }
                None => prop_assert_eq!(
                    r.pending_len(),
                    0,
                    "no gap implies nothing buffered"
                ),
            }
        }
    }
}

/// The subscriber and the publishing daemon.
const SUB: EndPoint = EndPoint::new(Ip(9), Port(9999));
const SRC: EndPoint = EndPoint::new(Ip(1), Port(9997));

/// What one run of [`stream_under`] saw.
#[derive(Default)]
struct Seen {
    /// `(seq, rows under the expected schema)` per delivered batch.
    delivered: Vec<(u64, Vec<i64>)>,
    /// Datagrams handed to the receiver, and those of them whose
    /// sequence header cannot parse.
    offered: u64,
    headerless: u64,
    /// Most batches any moment found buffered out of order.
    max_pending: u64,
}

/// Drives `total` sealed batches (one record each, carrying its own
/// sequence number; every third also two frames of garbage) from a
/// `Sender` to a `Receiver` through a seeded network that loses,
/// duplicates and reorders datagrams both ways, with hostile byte
/// strings from the same source interleaved, then lets timeouts drain
/// the sender.
fn stream_under(seed: u64, total: u64, cap_bytes: u64, gap_nack_limit: u32) -> (Seen, Receiver) {
    let schema = Schema::build("tick")
        .field("seq", FieldType::U64)
        .finish()
        .unwrap();
    let mut hub = Hub::new();
    let topic = hub.topic("ticks");
    hub.subscribe(topic, SUB).unwrap();
    let mut rng = SimRng::seed(seed);
    let (loss, dup, hostile) = (
        rng.unit_f64() * 0.4,
        rng.unit_f64() * 0.3,
        rng.unit_f64() * 0.3,
    );
    let mut tx = Sender::new(ResendConfig {
        cap_bytes,
        rto: SimDuration::from_millis(10),
        max_backoff_exp: 2,
    });
    let mut rx = Receiver::new(vec![schema.clone()], gap_nack_limit);
    let mut seen = Seen::default();
    let mut now = SimTime::ZERO;
    // Datagrams on their way to the receiver.
    let mut wire: Vec<Vec<u8>> = Vec::new();

    // One datagram into the receiver; its replies go back through the
    // same lossy network and what they shake loose joins `wire`.
    let mut offer = |data: &[u8],
                     now: SimTime,
                     tx: &mut Sender,
                     rx: &mut Receiver,
                     wire: &mut Vec<Vec<u8>>,
                     rng: &mut SimRng,
                     lossy: bool| {
        seen.offered += 1;
        let delivered = &mut seen.delivered;
        let (_, replies) = rx.ingest(now, SUB, SRC, data, &mut |seq, rows| {
            assert_eq!(rows.len(), 1, "one buffer per expected schema");
            delivered.push((seq, rows[0].clone()));
        });
        let newest = delivered.last().map_or(0, |(seq, _)| *seq);
        for reply in replies {
            if lossy && rng.chance(loss) {
                continue;
            }
            match reply {
                ControlMsg::DataAck { subscriber, upto } => {
                    assert_eq!(subscriber, SUB);
                    assert_eq!(upto, newest, "the ACK is what was delivered, no more");
                    tx.ack(SUB, upto);
                }
                ControlMsg::DataNack {
                    subscriber,
                    from_seq,
                    to_seq,
                } => {
                    assert_eq!(subscriber, SUB);
                    assert!(newest < from_seq && from_seq <= to_seq && to_seq <= total);
                    let resent = tx.nack(now, SUB, from_seq, to_seq);
                    wire.extend(resent.into_iter().map(|(_, w)| w.to_vec()));
                }
                other => panic!("a receiver sent {other:?}"),
            }
        }
        // No stream is open until a sequence header has parsed.
        for (_, state) in rx.streams() {
            let pending = state.iter().find(|(k, _)| *k == "pending").unwrap().1;
            seen.max_pending = seen.max_pending.max(pending);
        }
    };

    let mut sealed = 0;
    while sealed < total || !wire.is_empty() {
        now += SimDuration::from_millis(1);
        if rng.chance(hostile) {
            let forged = match rng.index(7) {
                0 => Vec::new(),
                1 => vec![0x80],
                2 => vec![0xFF; 11],
                3 => encode_batch(0, &[0xFF; 9]),
                4 => encode_batch(u64::MAX, &[1, 2, 3]),
                5 => encode_batch(total + REORDER_WINDOW + rng.uniform_u64(1, 1 << 40), &[]),
                _ => (0..rng.index(12))
                    .map(|_| rng.uniform_u64(0x80, 0x100) as u8)
                    .collect(),
            };
            // Bytes at or above 0x80 never end a varint.
            seen.headerless += u64::from(forged.iter().all(|b| *b >= 0x80));
            offer(&forged, now, &mut tx, &mut rx, &mut wire, &mut rng, true);
        }
        if sealed < total && (wire.is_empty() || rng.chance(0.5)) {
            sealed += 1;
            let mut payload = Vec::new();
            let message = hub
                .publish_raw(topic, &schema, &[sealed as i64])
                .unwrap()
                .remove(0)
                .1;
            frame_into(&mut payload, &message);
            if sealed % 3 == 0 {
                frame_into(&mut payload, &[0xFF; 5]);
                frame_into(&mut payload, &[]);
            }
            let sealed_wire = tx.seal(now, SUB, &payload).to_vec();
            if !rng.chance(loss) {
                wire.push(sealed_wire.clone());
            }
            if rng.chance(dup) {
                wire.push(sealed_wire);
            }
        } else if !wire.is_empty() {
            let data = wire.swap_remove(rng.index(wire.len()));
            offer(&data, now, &mut tx, &mut rx, &mut wire, &mut rng, true);
        }
    }
    // The network heals: timeouts put what is still un-acked back on
    // the wire until the receiver has acknowledged or abandoned it all.
    let buffered = |tx: &Sender| tx.streams().iter().any(|(_, state)| state[1].1 > 0);
    for _ in 0..64 {
        if !buffered(&tx) {
            break;
        }
        now += SimDuration::from_secs(1);
        for (_, data) in tx.due(now) {
            wire.push(data.to_vec());
        }
        while let Some(data) = wire.pop() {
            offer(&data, now, &mut tx, &mut rx, &mut wire, &mut rng, false);
        }
    }
    assert!(!buffered(&tx), "the sender drained");
    (seen, rx)
}

proptest! {
    /// The stream as a whole, against a model of what was sealed: every
    /// sealed batch is delivered exactly once, in order and intact, or
    /// lies in a gap the receiver counted as abandoned; every datagram is
    /// accounted for exactly once; nothing a peer sends panics the
    /// receiver, moves its ACK or grows its state.
    #[test]
    fn sender_to_receiver_is_exactly_once_under_faults_and_hostile_bytes(
        seed in 0u64..u64::MAX,
        total in 1u64..150,
        cap_bytes in prop::sample::select(vec![u64::MAX, 4_096, 256]),
        gap_nack_limit in 0u32..4,
    ) {
        let (seen, rx) = stream_under(seed, total, cap_bytes, gap_nack_limit);
        let seqs: Vec<u64> = seen.delivered.iter().map(|(seq, _)| *seq).collect();
        for w in seqs.windows(2) {
            prop_assert!(w[0] < w[1], "delivered {} then {}", w[0], w[1]);
        }
        // The schema travels once, in batch 1: a stream that abandoned
        // it cannot decode what follows, and counts every record so.
        let announced = seqs.first() == Some(&1);
        for (seq, rows) in &seen.delivered {
            prop_assert!((1..=total).contains(seq), "delivered a forged batch {}", seq);
            let record = if announced { vec![*seq as i64] } else { Vec::new() };
            prop_assert_eq!(rows, &record, "batch {}'s record", seq);
        }
        // What was not delivered was skipped, and counted.
        let delivered: BTreeSet<u64> = seqs.iter().copied().collect();
        let skipped = (1..=total).filter(|seq| !delivered.contains(seq)).count();
        let streams = rx.streams();
        prop_assert_eq!(streams.len(), 1);
        let state = |key: &str| streams[0].1.iter().find(|(k, _)| *k == key).unwrap().1;
        prop_assert_eq!(state("next_expected"), total + 1);
        prop_assert_eq!(state("abandoned"), rx.gaps_abandoned);
        prop_assert!(skipped == 0 || rx.gaps_abandoned > 0, "{} skipped silently", skipped);
        prop_assert!(rx.converged());
        prop_assert_eq!(rx.gaps_detected, rx.gaps_recovered + rx.gaps_abandoned);
        prop_assert!(seen.max_pending < total, "{} buffered of {}", seen.max_pending, total);
        // Every datagram went exactly one way.
        prop_assert_eq!(seen.offered, rx.batches_received + seen.headerless);
        prop_assert_eq!(
            rx.batches_received,
            seqs.len() as u64 + rx.duplicate_batches + rx.out_of_window
        );
        prop_assert_eq!(rx.acks_sent, rx.batches_received);
        // Two garbage frames ride in every third batch.
        let garbage = 2 * seqs.iter().filter(|seq| *seq % 3 == 0).count() as u64;
        let undecodable = if announced { 0 } else { seqs.len() as u64 };
        prop_assert_eq!(rx.decode_failures, seen.headerless + garbage + undecodable);
    }
}
