//! Untrusted bytes never panic the receive path, and none is lost
//! silently. The corpus is real `Hub::publish_raw` frames of the two
//! record schemas a GPA expects, mutated by bit flips, truncations and
//! splices, and fed to `Schema::decode`, `ChannelDecoder::decode_row`
//! and `Receiver::ingest`: every input either decodes or is counted in
//! `decode_failures`.

use pbio::{read_u64, Schema};
use proptest::prelude::*;
use pubsub::reliable::{encode_batch, Receiver};
use pubsub::{frame_into, ChannelDecoder, Hub};
use simcore::{NodeId, SimRng, SimTime};
use simnet::{EndPoint, FlowKey, Ip, Port};
use sysprof::{InteractionRecord, LoadRecord, INTERACTION_TOPIC, LOAD_TOPIC};

const GPA: EndPoint = EndPoint::new(Ip(99), Port(9999));
/// The source whose batches stay in sequence, and the one whose whole
/// datagrams are mutated, sequence header included.
const ORDERLY: EndPoint = EndPoint::new(Ip(1), Port(9997));
const MANGLED: EndPoint = EndPoint::new(Ip(2), Port(9997));

fn schemas() -> Vec<Schema> {
    vec![InteractionRecord::schema(), LoadRecord::schema()]
}

/// What one daemon publishes to the GPA: `n` messages of each schema,
/// the first of each announcing it, from a seeded record mix.
fn published(rng: &mut SimRng, n: usize) -> Vec<Vec<u8>> {
    let mut hub = Hub::new();
    let interactions = hub.topic(INTERACTION_TOPIC);
    let loads = hub.topic(LOAD_TOPIC);
    hub.subscribe(interactions, GPA).unwrap();
    hub.subscribe(loads, GPA).unwrap();
    let schemas = schemas();
    let (interaction, load) = (&schemas[0], &schemas[1]);
    let mut row = Vec::new();
    let mut out = Vec::new();
    for _ in 0..n {
        let start = rng.uniform_u64(0, 1 << 40);
        InteractionRecord {
            node: NodeId(rng.index(8) as u32),
            flow: FlowKey::new(
                EndPoint::new(Ip(rng.index(16) as u32), Port(40_000)),
                EndPoint::new(Ip(rng.index(16) as u32), Port(80)),
            ),
            class_port: Port(80),
            pid: rng.index(1 << 16) as u32,
            start_us: start,
            end_us: start + rng.uniform_u64(0, 1 << 20),
            req_packets: 1,
            req_bytes: rng.uniform_u64(0, 1 << 16),
            resp_packets: 2,
            resp_bytes: rng.uniform_u64(0, 1 << 24),
            kernel_in_us: rng.uniform_u64(0, 100),
            user_us: rng.uniform_u64(0, 10_000),
            kernel_out_us: rng.uniform_u64(0, 100),
            blocked_us: rng.uniform_u64(0, 10_000),
            blocked_io_us: 0,
        }
        .to_raw_row(&mut row);
        out.push(
            hub.publish_raw(interactions, interaction, &row).unwrap()[0]
                .1
                .clone(),
        );
        LoadRecord {
            node: NodeId(rng.index(8) as u32),
            wall_us: rng.uniform_u64(0, 1 << 40),
            cpu_utilization: rng.unit_f64(),
            mean_kernel_us: rng.unit_f64() * 100.0,
            interactions: rng.uniform_u64(0, 1_000),
            monitor_us: rng.uniform_u64(0, 1_000),
        }
        .to_raw_row(&mut row);
        out.push(hub.publish_raw(loads, load, &row).unwrap()[0].1.clone());
    }
    out
}

/// One to three mutations of `base`: flip up to eight bits, cut the
/// tail off, or splice the head onto the tail of another corpus entry.
fn mutate(rng: &mut SimRng, base: &[u8], corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..1 + rng.index(3) {
        match rng.index(3) {
            0 if !bytes.is_empty() => {
                for _ in 0..1 + rng.index(8) {
                    let bit = rng.index(8 * bytes.len());
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            1 => bytes.truncate(rng.index(bytes.len() + 1)),
            _ => {
                let other = &corpus[rng.index(corpus.len())];
                bytes.truncate(rng.index(bytes.len() + 1));
                bytes.extend_from_slice(&other[rng.index(other.len() + 1)..]);
            }
        }
    }
    bytes
}

/// The frames of a batch payload, and whether a tail that is not a
/// whole frame ended it: the frame layer read independently of
/// `pubsub`.
fn frames(mut data: &[u8]) -> (Vec<&[u8]>, bool) {
    let mut out = Vec::new();
    while !data.is_empty() {
        match read_u64(&mut data) {
            Ok(len) if len <= data.len() as u64 => {
                let (frame, rest) = data.split_at(len as usize);
                out.push(frame);
                data = rest;
            }
            _ => return (out, true),
        }
    }
    (out, false)
}

/// Offers `data` from `src` at `seq` ms; returns the batches delivered.
fn ingest(rx: &mut Receiver, src: EndPoint, seq: u64, data: &[u8]) -> Vec<(u64, Vec<Vec<i64>>)> {
    let mut delivered = Vec::new();
    let mut on_batch = |seq, rows: &[Vec<i64>]| delivered.push((seq, rows.to_vec()));
    rx.ingest(SimTime::from_millis(seq), GPA, src, data, &mut on_batch);
    delivered
}

/// What a batch should deliver: its rows under each expected schema
/// and how many of its messages fail, read frame by frame through a
/// bare decoder that has seen everything the stream delivered before.
fn expected(reference: &mut ChannelDecoder, payload: &[u8]) -> (Vec<Vec<i64>>, u64) {
    let (frames, torn) = frames(payload);
    let mut rows = vec![Vec::new(); 2];
    let mut failures = u64::from(torn);
    let mut row = Vec::new();
    for frame in frames {
        row.clear();
        match reference.decode_row(frame, &mut row) {
            Ok(Some((_, Some(k)))) => rows[k].extend_from_slice(&row),
            Ok(Some((_, None))) | Err(_) => failures += 1,
            Ok(None) => {}
        }
    }
    (rows, failures)
}

proptest! {
    /// A schema description either decodes to a schema that encodes
    /// back to itself, or is refused.
    #[test]
    fn prop_mutated_schema_descriptions_decode_or_are_refused(seed in any::<u64>()) {
        let mut rng = SimRng::seed(seed);
        let corpus: Vec<Vec<u8>> = schemas()
            .iter()
            .map(|s| {
                let mut bytes = Vec::new();
                s.encode(&mut bytes);
                bytes
            })
            .collect();
        for _ in 0..64 {
            let base = &corpus[rng.index(corpus.len())];
            let bytes = mutate(&mut rng, base, &corpus);
            if let Ok(schema) = Schema::decode(&mut &bytes[..]) {
                let mut again = Vec::new();
                schema.encode(&mut again);
                prop_assert_eq!(Schema::decode(&mut &again[..]), Ok(schema));
            }
        }
    }

    /// A mutated message either appends exactly one row of the schema
    /// it names or leaves the row buffer as it was.
    #[test]
    fn prop_mutated_messages_decode_whole_or_not_at_all(seed in any::<u64>()) {
        let mut rng = SimRng::seed(seed);
        let corpus = published(&mut rng, 8);
        let expected_schemas = schemas();
        let mut learned = ChannelDecoder::expecting(expected_schemas.clone());
        let mut fresh = ChannelDecoder::expecting(expected_schemas.clone());
        let mut rows = Vec::new();
        for frame in &corpus[..2] {
            learned.decode_row(frame, &mut rows).unwrap();
        }
        for _ in 0..64 {
            let base = &corpus[rng.index(corpus.len())];
            let bytes = mutate(&mut rng, base, &corpus);
            for decoder in [&mut learned, &mut fresh] {
                let before = rows.len();
                match decoder.decode_row(&bytes, &mut rows) {
                    Ok(Some((_, Some(k)))) => {
                        prop_assert_eq!(rows.len() - before, expected_schemas[k].len());
                    }
                    Ok(Some((_, None))) => prop_assert!(rows.len() > before),
                    Ok(None) | Err(_) => prop_assert_eq!(rows.len(), before),
                }
                rows.truncate(before);
            }
        }
    }

    /// A receiver fed one source's in-sequence batches of mutated
    /// messages, and another source's whole mutated datagrams: every
    /// datagram is received or counted, every message of a delivered
    /// batch is a row or counted, and nothing panics.
    #[test]
    fn prop_mutated_batches_are_received_or_counted(seed in any::<u64>()) {
        let mut rng = SimRng::seed(seed);
        let corpus = published(&mut rng, 8);
        let mut rx = Receiver::new(schemas(), 2);
        let mut reference = ChannelDecoder::expecting(schemas());

        let mut seq = 0;
        for round in 0..48 {
            // The orderly stream: batch 1 announces both schemas.
            let mut payload = Vec::new();
            if round == 0 {
                corpus[..2].iter().for_each(|m| frame_into(&mut payload, m));
            } else {
                for _ in 0..1 + rng.index(4) {
                    let m = &corpus[rng.index(corpus.len())];
                    let m = if rng.chance(0.5) { mutate(&mut rng, m, &corpus) } else { m.clone() };
                    frame_into(&mut payload, &m);
                }
                if rng.chance(0.25) {
                    payload = mutate(&mut rng, &payload, &corpus);
                }
            }
            seq += 1;
            let failures = rx.decode_failures;
            let got = ingest(&mut rx, ORDERLY, seq, &encode_batch(seq, &payload));
            let (rows, failed) = expected(&mut reference, &payload);
            prop_assert_eq!(got, vec![(seq, rows)]);
            prop_assert_eq!(rx.decode_failures - failures, failed);

            // The mangled source: the sequence header parses or the
            // datagram is one decode failure.
            let mut m = Vec::new();
            corpus[rng.index(corpus.len())..].iter().take(3).for_each(|f| frame_into(&mut m, f));
            let base = encode_batch(1 + rng.uniform_u64(0, 8), &m);
            let data = mutate(&mut rng, &base, &corpus);
            let (received, failures) = (rx.batches_received, rx.decode_failures);
            ingest(&mut rx, MANGLED, seq, &data);
            let headerless = read_u64(&mut &data[..]).is_err();
            prop_assert_eq!(rx.batches_received - received, u64::from(!headerless));
            prop_assert!(!headerless || rx.decode_failures - failures == 1);
        }
        prop_assert_eq!(rx.sources_refused, 0);
    }
}
