//! The receive ledger behind `figures --exp gpa`: the GPA's half of the
//! stream without the harness, one layer cut at a time.
//!
//! The pipeline is sysbench's `gpa_wire`: seeded interaction records
//! published by eight daemons' hubs, 64 record frames per sealed batch
//! (a stream's first frame announces the schema), the sources
//! interleaved round-robin, one batch in 64 swapped with its successor
//! and one in 128 delivered twice; every batch goes through
//! `Gpa::ingest_wire` into a GPA with a four-static digest at two
//! replicas, and the pass ends with one folded digest read. Each
//! [`Cut`] runs a prefix of that pipeline, or one of its layers alone
//! on exactly what the pipeline hands that layer, so the ledger's rows
//! are differences of passes over one stream and their sum can be
//! checked against the whole. This module only builds and runs passes;
//! the `figures` binary reads the clock.

use std::hint::black_box;
use std::ops::Range;

use pbio::write_u64;
use pubsub::reliable::{decode_batch, encode_batch, Receiver, GAP_NACK_LIMIT};
use pubsub::Hub;
use simcore::{NodeId, SimRng, SimTime};
use simnet::{EndPoint, FlowKey, Ip, Port};
use sysprof::{flow_shard_key, Gpa, GpaConfig, InteractionRecord, LoadRecord};

/// The digest `gpa_wire` installs: four statics over four fields.
const DIGEST_FOUR: &str = "
    static int requests = 0;
    static int bytes = 0;
    static int worst_us = 0;
    static int big_resp = 0;
    requests = requests + 1;
    bytes = bytes + req_bytes + resp_bytes;
    worst_us = max(worst_us, end_us - start_us);
    if (resp_bytes > 150) { big_resp = big_resp + 1; }
    return requests;
";

/// Daemons feeding the GPA.
const SOURCES: usize = 8;
/// Record frames per sealed batch.
const FRAMES_PER_BATCH: usize = 64;
/// The digest's replicas in the pipeline.
const SHARDS: usize = 2;
/// Delivered batches the layers run alone cycle through: 4,096
/// records, 590 KB of raw rows.
const RING_BATCHES: usize = 64;
/// Raw values per interaction record.
const STRIDE: usize = 18;
/// The GPA's data endpoint.
const GPA_EP: EndPoint = EndPoint::new(Ip(200), sysprof::DATA_PORT);

/// The stream's size: sysbench's two `gpa_wire` shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `gpa_wire`: 1,024 batches, 65,536 records.
    Wire,
    /// `gpa_wire_large`: 12,288 batches, 786,432 records, a store far
    /// out of cache.
    Large,
}

impl Shape {
    /// Sealed batches the stream carries (duplicates not counted).
    fn batches(self) -> usize {
        match self {
            Shape::Wire => 1_024,
            Shape::Large => 12_288,
        }
    }
}

/// Which passes a round runs: the whole pipeline, a prefix of it, or
/// one layer alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// `Gpa::ingest_wire` on every arrival with the digest at two
    /// replicas, then one folded digest read: `gpa_wire`'s repetition.
    Whole,
    /// `Receiver::ingest` on the stream with every payload emptied:
    /// sequence headers, reassembly and the replies.
    Headers,
    /// `Receiver::ingest` on the stream, each delivered batch's rows
    /// handed to a sink: adds the frame walk and the PBIO decode.
    Receive,
    /// As `Receive`, each delivered row converted to an
    /// `InteractionRecord`.
    Convert,
    /// `Gpa::ingest_records` with no digest, one delivered batch per
    /// call: the store and the class statistic alone.
    Store,
    /// The digest alone at one replica: flow keys and
    /// `ingest_raw_rows`, one delivered batch per call, then the read.
    Digest1,
    /// The same at two replicas, as the pipeline runs it.
    Digest2,
    /// `Digest1` with the whole ring, 4,096 rows, per call: the chunk
    /// sysbench's digest replay feeds it.
    Digest1Wide,
    /// `Digest2` likewise.
    Digest2Wide,
}

impl Cut {
    /// Every cut, in the order a round runs them.
    pub const ALL: [Cut; 9] = [
        Cut::Whole,
        Cut::Headers,
        Cut::Receive,
        Cut::Convert,
        Cut::Store,
        Cut::Digest1,
        Cut::Digest2,
        Cut::Digest1Wide,
        Cut::Digest2Wide,
    ];
}

/// One generated stream and what the pipeline hands each layer of it.
pub struct Stream {
    /// `(source daemon, sealed batch)` in arrival order.
    arrivals: Vec<(EndPoint, Vec<u8>)>,
    /// The same arrivals with every payload emptied.
    headers: Vec<(EndPoint, Vec<u8>)>,
    /// The first [`RING_BATCHES`] delivered batches' records, in
    /// delivery order: in the pipeline a layer reads the batch the
    /// decoder has just written, so a layer run alone cycles through
    /// these, which stay in cache, rather than a stream-long array.
    ring_records: Vec<InteractionRecord>,
    /// Their raw rows, back to back.
    ring_rows: Vec<i64>,
    /// Each ring batch's records.
    ring: Vec<Range<usize>>,
    /// Batches delivered, each record once.
    delivered: usize,
    /// Records delivered.
    total: u64,
}

impl Stream {
    /// The stream `shape` names for `seed`.
    pub fn new(seed: u64, shape: Shape) -> Stream {
        let arrivals = wire_input(seed, &records(seed, shape.batches() * FRAMES_PER_BATCH));
        let headers = arrivals
            .iter()
            .map(|(src, wire)| {
                let (seq, _) = decode_batch(wire).expect("sealed batch");
                (*src, encode_batch(seq, &[]))
            })
            .collect();
        let (mut rows, mut ring, mut delivered, mut total) = (Vec::new(), Vec::new(), 0, 0);
        let mut rx = receiver();
        for (k, (src, wire)) in arrivals.iter().enumerate() {
            rx.ingest(at(k), GPA_EP, *src, wire, &mut |_, batch| {
                delivered += 1;
                total += (batch[0].len() / STRIDE) as u64;
                if ring.len() < RING_BATCHES {
                    let start = rows.len() / STRIDE;
                    rows.extend_from_slice(&batch[0]);
                    ring.push(start..rows.len() / STRIDE);
                }
            });
        }
        Stream {
            ring_records: InteractionRecord::from_raw_rows(&rows).collect(),
            ring_rows: rows,
            arrivals,
            headers,
            ring,
            delivered,
            total,
        }
    }

    /// Records the stream carries, each delivered once.
    pub fn records(&self) -> u64 {
        self.total
    }

    /// The ring batch a layer run alone takes in place of the `i`th
    /// delivered one.
    fn batch(&self, i: usize) -> Range<usize> {
        self.ring[i % self.ring.len()].clone()
    }
}

/// The GPA's receiver, built as `Gpa::new` builds it.
fn receiver() -> Receiver {
    let expected = vec![InteractionRecord::schema(), LoadRecord::schema()];
    Receiver::new(expected, GAP_NACK_LIMIT)
}

/// The wall time the `k`th arrival is ingested at, as in `gpa_wire`.
fn at(k: usize) -> SimTime {
    SimTime::from_micros(k as u64 * 10)
}

/// One pass's state, built untimed for one [`Cut`].
pub struct GpaPipeline<'s> {
    cut: Cut,
    stream: &'s Stream,
    gpa: Gpa,
    rx: Receiver,
    digest: Option<pubsub::digest::ShardedDigest>,
    keys: Vec<u64>,
}

impl<'s> GpaPipeline<'s> {
    /// Builds the pass `cut` names over `stream`.
    pub fn new(cut: Cut, stream: &'s Stream) -> GpaPipeline<'s> {
        let mut gpa = Gpa::new(GpaConfig::default());
        if cut == Cut::Whole {
            gpa.install_digest(DIGEST_FOUR, SHARDS)
                .expect("the ledger's digest installs");
        }
        let shards = match cut {
            Cut::Digest1 | Cut::Digest1Wide => 1,
            _ => SHARDS,
        };
        let digest = matches!(
            cut,
            Cut::Digest1 | Cut::Digest2 | Cut::Digest1Wide | Cut::Digest2Wide
        )
        .then(|| {
            pubsub::digest::ShardedDigest::compile(
                DIGEST_FOUR,
                &InteractionRecord::schema(),
                shards,
            )
            .expect("the ledger's digest installs")
        });
        GpaPipeline {
            cut,
            stream,
            gpa,
            rx: receiver(),
            digest,
            keys: Vec::new(),
        }
    }

    /// Runs the pass and returns a count of the work done: records
    /// delivered, stored or digested, so no layer's work can be
    /// optimized away.
    pub fn run(&mut self) -> u64 {
        let stream = self.stream;
        let mut work = 0u64;
        match self.cut {
            Cut::Whole => {
                for (k, (src, wire)) in stream.arrivals.iter().enumerate() {
                    work += black_box(self.gpa.ingest_wire(at(k), GPA_EP, *src, wire)).0 as u64;
                }
                black_box(self.gpa.digest_global("requests"));
            }
            Cut::Headers | Cut::Receive | Cut::Convert => {
                let input = match self.cut {
                    Cut::Headers => &stream.headers,
                    _ => &stream.arrivals,
                };
                let convert = self.cut == Cut::Convert;
                for (k, (src, wire)) in input.iter().enumerate() {
                    let (n, replies) = self.rx.ingest(at(k), GPA_EP, *src, wire, &mut |_, rows| {
                        if convert {
                            InteractionRecord::from_raw_rows(&rows[0]).for_each(|r| {
                                black_box(r);
                            });
                        } else {
                            black_box(rows);
                        }
                    });
                    work += black_box(replies).len() as u64 + n as u64;
                }
            }
            Cut::Store => {
                for i in 0..stream.delivered {
                    self.gpa
                        .ingest_records(&stream.ring_records[stream.batch(i)]);
                }
                work = self.gpa.interaction_count();
            }
            Cut::Digest1 | Cut::Digest2 => {
                for i in 0..stream.delivered {
                    work += self.digest_rows(stream.batch(i));
                }
            }
            Cut::Digest1Wide | Cut::Digest2Wide => {
                let ring = stream.ring_records.len();
                for _ in 0..stream.total / ring as u64 {
                    work += self.digest_rows(0..ring);
                }
            }
        }
        if let Some(digest) = &self.digest {
            black_box(digest.merged_global("requests"));
        }
        work
    }

    /// The digest's work on `records` of the stream, as the GPA does it:
    /// a flow key per record, then one `ingest_raw_rows` call.
    fn digest_rows(&mut self, records: Range<usize>) -> u64 {
        let stream = self.stream;
        self.keys.clear();
        let recs = &stream.ring_records[records.clone()];
        self.keys.extend(recs.iter().map(flow_shard_key));
        let rows = &stream.ring_rows[records.start * STRIDE..records.end * STRIDE];
        let digest = self.digest.as_mut().expect("a digest cut");
        digest.ingest_raw_rows(&self.keys, rows);
        recs.len() as u64
    }
}

/// The ledger's rows from the fastest pass of each cut (ns per record,
/// in [`Cut::ALL`] order): each layer's cost, their sum, the measured
/// whole and what the rows leave unexplained, then the digest at one
/// replica and the second replica's premium at both call sizes.
pub fn ledger_rows(best: &[f64; 9]) -> Vec<(&'static str, f64)> {
    let [whole, headers, receive, convert, store, d1, d2, d1_wide, d2_wide] = *best;
    let rows = [
        ("reassembly (pubsub.reliable.offer)", headers),
        (
            "decode (pbio.decode: frames + header + row)",
            receive - headers,
        ),
        ("record conversion (from_raw_rows)", convert - receive),
        ("store + class statistic (core.gpa.ingest_records)", store),
        ("digest, 2 replicas (pubsub.digest.ingest.s2)", d2),
    ];
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    let mut out = rows.to_vec();
    out.extend([
        ("sum of rows", sum),
        ("whole pipeline, measured", whole),
        ("unexplained (whole - sum)", whole - sum),
        ("digest, 1 replica (pubsub.digest.ingest.s1)", d1),
        ("2-replica premium, 64-row calls", d2 - d1),
        ("2-replica premium, 4,096-row calls", d2_wide - d1_wide),
    ]);
    out
}

/// `n` interaction records as [`SOURCES`] monitored nodes would report
/// them, generated as sysbench's `gen::records`: 64 client flows per
/// node, start times advancing, sizes and latencies drawn from `seed`.
fn records(seed: u64, n: usize) -> Vec<InteractionRecord> {
    let mut rng = SimRng::seed(seed ^ 0x07ec_07d5);
    (0..n)
        .map(|i| {
            let node = (i % SOURCES) as u32;
            let start_us = 1_000 + i as u64 * 3 + rng.uniform_u64(0, 3);
            let kernel_in_us = rng.uniform_u64(5, 400);
            let user_us = rng.uniform_u64(20, 300);
            let kernel_out_us = rng.uniform_u64(5, 120);
            let blocked_us = rng.uniform_u64(0, 50);
            InteractionRecord {
                node: NodeId(1 + node),
                flow: FlowKey::new(
                    EndPoint::new(
                        Ip(100 + rng.uniform_u64(0, 8) as u32),
                        Port(5000 + rng.uniform_u64(0, 64) as u16),
                    ),
                    EndPoint::new(Ip(1 + node), Port(80)),
                ),
                class_port: Port(80),
                pid: 1 + rng.uniform_u64(0, 4) as u32,
                start_us,
                end_us: start_us + kernel_in_us + user_us + kernel_out_us + blocked_us,
                req_packets: 1 + rng.uniform_u64(0, 4) as u32,
                req_bytes: rng.uniform_u64(64, 4_000),
                resp_packets: 1,
                resp_bytes: rng.uniform_u64(60, 400),
                kernel_in_us,
                user_us,
                kernel_out_us,
                blocked_us,
                blocked_io_us: 0,
            }
        })
        .collect()
}

/// Sealed batches in arrival order, built as sysbench's
/// `gen::wire_input`: each source's records published through its own
/// hub (the daemon's `publish_raw`, inline schema announcement
/// included), [`FRAMES_PER_BATCH`] frames a batch, sealed with the
/// source's sequence numbers; with probability 1/128 a batch is
/// delivered twice and with 1/64 it trades places with its successor;
/// the sources interleaved round-robin.
fn wire_input(seed: u64, records: &[InteractionRecord]) -> Vec<(EndPoint, Vec<u8>)> {
    let mut rng = SimRng::seed(seed ^ 0x0317_2e0f);
    let schema = InteractionRecord::schema();
    let mut queues = Vec::with_capacity(SOURCES);
    let mut row = Vec::new();
    for s in 0..SOURCES {
        let mut hub = Hub::new();
        let topic = hub.topic(sysprof::INTERACTION_TOPIC);
        hub.subscribe_with_schema(topic, GPA_EP, None, &schema)
            .expect("unfiltered subscription");
        let mut sealed = Vec::new();
        let mut payload = Vec::new();
        let mine: Vec<_> = records.iter().skip(s).step_by(SOURCES).collect();
        for (seq, chunk) in mine.chunks(FRAMES_PER_BATCH).enumerate() {
            payload.clear();
            for rec in chunk {
                rec.to_raw_row(&mut row);
                let sends = hub.publish_raw(topic, &schema, &row);
                for (_, wire) in sends.expect("record matches schema") {
                    write_u64(&mut payload, wire.len() as u64);
                    payload.extend_from_slice(&wire);
                }
            }
            sealed.push(encode_batch(seq as u64 + 1, &payload));
        }
        let mut q: Vec<Vec<u8>> = Vec::with_capacity(sealed.len() + sealed.len() / 64);
        for wire in sealed {
            if rng.uniform_u64(0, 128) == 0 {
                q.push(wire.clone());
            }
            q.push(wire);
        }
        let mut k = 0;
        while k + 1 < q.len() {
            if q[k] != q[k + 1] && rng.uniform_u64(0, 64) == 0 {
                q.swap(k, k + 1);
                k += 2;
            } else {
                k += 1;
            }
        }
        queues.push(std::collections::VecDeque::from(q));
    }
    let mut arrivals = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        for (s, q) in queues.iter_mut().enumerate() {
            if let Some(wire) = q.pop_front() {
                let src = EndPoint::new(Ip(1 + s as u32), sysprof::DAEMON_SRC_PORT);
                arrivals.push((src, wire));
            }
        }
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cut runs on a small stream, and the cuts that carry
    /// records all see every record once.
    #[test]
    fn every_cut_runs_and_sees_every_record() {
        let stream = Stream::new(7, Shape::Wire);
        assert_eq!(stream.records(), 65_536);
        assert_eq!(stream.delivered, 1_024);
        assert_eq!(stream.ring_records.len(), RING_BATCHES * FRAMES_PER_BATCH);
        let work = |cut| GpaPipeline::new(cut, &stream).run();
        let n = stream.records();
        for cut in [
            Cut::Whole,
            Cut::Store,
            Cut::Digest1,
            Cut::Digest2,
            Cut::Digest1Wide,
            Cut::Digest2Wide,
        ] {
            assert_eq!(work(cut), n, "{cut:?}");
        }
        // The receiver's cuts count replies too: one ACK per arrival,
        // plus the NACKs the swapped batches draw.
        let replies = work(Cut::Headers);
        assert!(replies >= stream.arrivals.len() as u64);
        assert_eq!(work(Cut::Receive), n + replies);
        assert_eq!(work(Cut::Convert), n + replies);
    }

    /// The stream is `gpa_wire`'s: the GPA stores each generated
    /// record once, and the ring is the first batches it delivers.
    #[test]
    fn the_gpa_stores_each_generated_record_once() {
        let stream = Stream::new(11, Shape::Wire);
        let mut whole = GpaPipeline::new(Cut::Whole, &stream);
        whole.run();
        let stored = whole.gpa.interactions();
        assert_eq!(stored[..stream.ring_records.len()], stream.ring_records[..]);
        let key = |r: &InteractionRecord| (r.start_us, r.node.0);
        let mut got = stored.to_vec();
        let mut want = records(11, got.len());
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
    }

    /// The rows sum to the whole when nothing is unexplained.
    #[test]
    fn rows_close_on_the_whole() {
        let rows = ledger_rows(&[80.0, 5.0, 40.0, 45.0, 20.0, 7.0, 10.0, 5.0, 8.0]);
        let get = |name: &str| rows.iter().find(|r| r.0.starts_with(name)).unwrap().1;
        let layers = ["reassembly", "decode", "record", "store", "digest, 2"];
        let sum: f64 = layers.iter().map(|n| get(n)).sum();
        assert_eq!(sum, get("sum of rows"));
        assert_eq!(get("decode"), 35.0);
        assert_eq!(get("whole") - sum, get("unexplained"));
        assert_eq!(get("2-replica premium, 64"), 3.0);
        assert_eq!(get("2-replica premium, 4,096"), 3.0);
    }
}
