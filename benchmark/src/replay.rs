//! Stage-isolated replays: one layer alone over regenerated input.
//!
//! Where one public call crosses several layers (`Kprof::emit` into the
//! LPA and a CPA, `ScenarioSpec::run` into everything) a span around the
//! call cannot say which layer the time went to. Each function here
//! times a single stage — a dispatch with only a counter registered,
//! `Lpa::on_event` called directly, the reassembler, the PBIO decoder,
//! the digest — over inputs from [`crate::gen`], and returns a per-unit
//! cost the ledgers multiply by a run's own counts.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;

use ecode::{BatchEval, ExecTier, Instance, Program, Type, VerifyLimits};
use kprof::{
    Analyzer, AnalyzerId, CountingAnalyzer, Event, EventClass, EventMask, EventPayload, Kprof,
};
use pbio::BatchEncoder;
use pubsub::digest::ShardedDigest;
use pubsub::reliable::{
    decode_batch, encode_batch, Offer, Reassembler, ResendBuffer, ResendConfig,
};
use pubsub::{ChannelDecoder, Hub};
use simcore::{NodeId, SimTime};
use simnet::EndPoint;
use simos::{DaemonHook, NodeStats};
use sysprof::{
    flow_shard_key, split_frames, CpaAnalyzer, Daemon, DaemonConfig, Gpa, GpaConfig,
    InteractionRecord, Lpa, LpaConfig,
};

use crate::corpus::{CPA_RATIO, DIGEST_FOUR, FILTER_RESP};
use crate::gen::{self, WireInput, GPA_EP, NODE_IP};
use crate::trace::Tracer;

/// How much input the replays chew through.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySize {
    /// Events per event-side replay.
    pub events: u64,
    /// Records per record-side replay.
    pub records: usize,
}

impl ReplaySize {
    /// Sizes for the full and the quick harness.
    pub fn of(quick: bool) -> ReplaySize {
        if quick {
            ReplaySize {
                events: 1 << 16,
                records: 1 << 12,
            }
        } else {
            ReplaySize {
                events: 1 << 21,
                records: 1 << 17,
            }
        }
    }
}

/// Passes per replay; the fastest is kept, for the reason the
/// end-to-end figure is the fastest repetition (see `runner`).
const PASSES: usize = 3;

/// Runs `pass` [`PASSES`] times and keeps the result with the smallest
/// key (its timed nanoseconds).
fn fastest<T>(mut pass: impl FnMut() -> (u64, T)) -> (u64, T) {
    let mut best = pass();
    for _ in 1..PASSES {
        let next = pass();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

fn per(ns: u64, units: u64) -> f64 {
    ns as f64 / units.max(1) as f64
}

fn event_at(i: u64, payload: EventPayload) -> Event {
    Event {
        seq: i,
        node: NodeId(0),
        cpu: 0,
        wall: SimTime::from_micros(i),
        payload,
    }
}

/// `Kprof::emit` with only a counting analyzer registered: the cost of
/// building and dispatching one enabled event, ns.
pub fn kprof_emit(tr: &mut Tracer, wanted: &[EventPayload], events: u64) -> f64 {
    let (ns, ()) = fastest(|| {
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(CountingAnalyzer::new(
            EventMask::NETWORK | EventMask::SCHEDULING,
        )));
        let ((), ns) = tr.time("kprof.emit", |_| pump(&mut kprof, wanted, events));
        assert_eq!(kprof.stats().events_generated, events);
        (ns, ())
    });
    per(ns, events)
}

/// `Kprof::emit` of hits whose kind nobody subscribes to, ns per hit.
pub fn kprof_suppressed(tr: &mut Tracer, unwanted: &[EventPayload], events: u64) -> f64 {
    let (ns, ()) = fastest(|| {
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(CountingAnalyzer::new(EventMask::NETWORK)));
        let ((), ns) = tr.time("kprof.emit.suppressed", |_| {
            pump(&mut kprof, unwanted, events)
        });
        assert_eq!(kprof.stats().events_suppressed, events);
        (ns, ())
    });
    per(ns, events)
}

fn pump(kprof: &mut Kprof, ring: &[EventPayload], events: u64) {
    let mut i = 0u64;
    while i < events {
        for payload in ring.iter().take((events - i) as usize) {
            let ev = kprof.make_event(SimTime::from_micros(i), 0, *payload);
            black_box(kprof.emit(&ev));
            i += 1;
        }
    }
}

/// What the LPA replay measured.
#[derive(Debug, Clone, Copy)]
pub struct LpaCost {
    /// `Lpa::on_event`, ns per event.
    pub on_event_ns: f64,
    /// `Lpa::drain`, ns per record drained.
    pub drain_ns_per_record: f64,
}

/// `Lpa::on_event` called directly (no dispatch) over the wanted
/// events, draining whenever the LPA reports its buffer full.
pub fn lpa(tr: &mut Tracer, wanted: &[EventPayload], events: u64) -> LpaCost {
    fastest(|| lpa_pass(tr, wanted, events)).1
}

fn lpa_pass(tr: &mut Tracer, wanted: &[EventPayload], events: u64) -> (u64, LpaCost) {
    let mut lpa = Lpa::new(NodeId(0), NODE_IP, LpaConfig::default());
    let (mut drain_ns, mut drained) = (0u64, 0u64);
    let t0 = tr.now();
    let open = tr.begin("core.lpa.on_event");
    let mut i = 0u64;
    while i < events {
        for payload in wanted.iter().take((events - i) as usize) {
            let outcome = lpa.on_event(&event_at(i, *payload));
            i += 1;
            if outcome.buffer_full {
                let (n, ns) = tr.time("core.lpa.drain", |_| lpa.drain().len());
                drained += n as u64;
                drain_ns += ns;
            }
        }
    }
    tr.end(open);
    let total = tr.now() - t0;
    let cost = LpaCost {
        on_event_ns: per(total.saturating_sub(drain_ns), events),
        drain_ns_per_record: per(drain_ns, drained),
    };
    (total, cost)
}

/// The pipeline CPA's `on_event` called directly over network events,
/// ns per event.
pub fn cpa(tr: &mut Tracer, wanted: &[EventPayload], events: u64) -> f64 {
    let net: Vec<EventPayload> = wanted
        .iter()
        .copied()
        .filter(|p| p.kind().class() == EventClass::Network)
        .collect();
    let (ns, ()) = fastest(|| {
        let mut cpa = CpaAnalyzer::compile("replay-cpa", CPA_RATIO, EventMask::NETWORK)
            .expect("corpus CPA installs");
        let ((), ns) = tr.time("core.cpa.on_event", |_| {
            let mut i = 0u64;
            while i < events {
                for payload in net.iter().take((events - i) as usize) {
                    black_box(cpa.on_event(&event_at(i, *payload)));
                    i += 1;
                }
            }
        });
        assert_eq!(cpa.aborted(), 0, "corpus CPA stays within its fuel");
        (ns, ())
    });
    per(ns, events)
}

/// The pipeline CPA program run on one execution tier over a
/// cache-resident window of raw event rows, ns per row.
pub fn ecode_run(tr: &mut Tracer, tier: ExecTier, wanted: &[EventPayload], rows: u64) -> f64 {
    let program = Program::compile(CPA_RATIO, &sysprof::EVENT_INPUTS).expect("corpus CPA compiles");
    let fuel = program.static_fuel_bound();
    let (mut inst, name) = match tier {
        ExecTier::Compiled => (Instance::new(&program), "ecode.run.compiled"),
        ExecTier::Fused => (Instance::new_fused(&program), "ecode.run.fused"),
    };
    let window: Vec<i64> = wanted
        .iter()
        .filter_map(|p| match p {
            EventPayload::Net {
                size, flow, pid, ..
            } => Some([
                p.kind() as u8 as i64,
                pid.map_or(0, |p| p.0 as i64),
                0,
                *size as i64,
                0,
                flow.src.port.0 as i64,
                flow.dst.port.0 as i64,
            ]),
            _ => None,
        })
        .take(8192)
        .flatten()
        .collect();
    let window_rows = (window.len() / 7) as u64;
    let passes = rows.div_ceil(window_rows);
    let (ns, ()) = fastest(|| {
        let ((), ns) = tr.time(name, |_| {
            for _ in 0..passes {
                inst.run_raw_batch(&window, fuel, |out| {
                    black_box(out.ret);
                })
                .expect("corpus CPA never traps");
            }
        });
        (ns, ())
    });
    per(ns, passes * window_rows)
}

/// The four-static digest through the column evaluator, ns per row.
pub fn ecode_batch_eval(tr: &mut Tracer, records: &[InteractionRecord]) -> f64 {
    let schema = InteractionRecord::schema();
    let inputs: Vec<(&str, Type)> = schema
        .fields()
        .iter()
        .map(|f| (f.name.as_str(), Type::Int))
        .collect();
    let limits = VerifyLimits::with_max_fuel(pubsub::digest::DIGEST_FUEL_BUDGET);
    let (program, report) = ecode::verify(DIGEST_FOUR, &inputs, &limits)
        .expect("corpus digest verifies")
        .into_parts();
    let Some(mut eval) = BatchEval::try_compile(&program, &report.merge_plan, report.fuel_bound)
    else {
        return 0.0;
    };
    let mut inst = Instance::new(&program);
    const ROWS: usize = 4096;
    let mut cols: Vec<Vec<i64>> = vec![Vec::with_capacity(ROWS); inputs.len()];
    let mut row = Vec::new();
    for rec in records.iter().take(ROWS) {
        rec.to_raw_row(&mut row);
        for (c, v) in cols.iter_mut().zip(&row) {
            c.push(*v);
        }
    }
    let rows = cols[0].len();
    let views: Vec<&[i64]> = cols.iter().map(Vec::as_slice).collect();
    let passes = records.len().div_ceil(rows.max(1));
    let (ns, ()) = fastest(|| {
        let ((), ns) = tr.time("ecode.batch_eval", |_| {
            for _ in 0..passes {
                black_box(eval.run(&mut inst, &views, rows));
            }
        });
        (ns, ())
    });
    per(ns, (passes * rows) as u64)
}

/// What the send-side replays measured.
#[derive(Debug, Clone, Copy)]
pub struct SendCost {
    /// `Hub::publish_raw` with the pipeline filter installed, ns/record.
    pub publish_ns: f64,
    /// `BatchEncoder::encode_row_into`, ns/record.
    pub encode_ns: f64,
    /// Encoded record bytes (no channel header).
    pub bytes_per_record: f64,
    /// `encode_batch` + `ResendBuffer::push` + cumulative ack, ns/batch.
    pub seal_ns_per_batch: f64,
}

/// Hub publish, PBIO encode and reliable seal, each alone.
pub fn send_side(tr: &mut Tracer, records: &[InteractionRecord]) -> SendCost {
    let schema = InteractionRecord::schema();
    let stride = schema.len();
    let mut rows = Vec::with_capacity(records.len() * stride);
    let mut row = Vec::new();
    for rec in records {
        rec.to_raw_row(&mut row);
        rows.extend_from_slice(&row);
    }
    let n = records.len() as u64;

    let (publish_ns, ()) = fastest(|| {
        let mut hub = Hub::new();
        let topic = hub.topic(sysprof::INTERACTION_TOPIC);
        hub.subscribe_with_schema(topic, GPA_EP, Some(FILTER_RESP), &schema)
            .expect("corpus filter installs");
        let ((), ns) = tr.time("pubsub.hub.publish_raw", |_| {
            for row in rows.chunks_exact(stride) {
                black_box(hub.publish_raw(topic, &schema, row).expect("row matches"));
            }
        });
        (ns, ())
    });

    let enc = BatchEncoder::new(&schema).expect("numeric schema");
    let mut out = Vec::new();
    let (encode_ns, bytes) = fastest(|| {
        let mut bytes = 0u64;
        let ((), ns) = tr.time("pbio.encode", |_| {
            for row in rows.chunks_exact(stride) {
                out.clear();
                enc.encode_row_into(row, &mut out).expect("row matches");
                bytes += out.len() as u64;
            }
        });
        (ns, bytes)
    });

    let payload = vec![0xA5u8; 64 * 30];
    let batches = (n / 64).max(1);
    let (seal_ns, ()) = fastest(|| {
        let mut resend = ResendBuffer::new(ResendConfig::default());
        let ((), ns) = tr.time("pubsub.reliable.seal", |_| {
            for seq in 1..=batches {
                let wire = encode_batch(seq, &payload);
                resend.push(SimTime::from_micros(seq), seq, wire);
                if seq % 16 == 0 {
                    resend.ack_upto(seq - 2);
                }
            }
        });
        (ns, ())
    });

    SendCost {
        publish_ns: per(publish_ns, n),
        encode_ns: per(encode_ns, n),
        bytes_per_record: per(bytes, n),
        seal_ns_per_batch: per(seal_ns, batches),
    }
}

/// `DaemonHook::on_wake` over a preloaded LPA: drain, publish, frame
/// and seal, ns per record published. The LPA is refilled (untimed)
/// through `Kprof::emit` between wakes.
pub fn daemon_wake(tr: &mut Tracer, wanted: &[EventPayload], records: usize) -> f64 {
    let (ns, published) = fastest(|| daemon_wake_pass(tr, wanted, records));
    per(ns, published)
}

fn daemon_wake_pass(tr: &mut Tracer, wanted: &[EventPayload], records: usize) -> (u64, u64) {
    let mut kprof = Kprof::new(NodeId(0));
    let lpa_id: AnalyzerId = kprof.register(Box::new(Lpa::new(
        NodeId(0),
        NODE_IP,
        LpaConfig {
            window: 2048,
            ..LpaConfig::default()
        },
    )));
    let hub = Rc::new(RefCell::new(Hub::new()));
    let mut daemon = Daemon::new(lpa_id, hub.clone(), DaemonConfig::default());
    {
        let mut h = hub.borrow_mut();
        let topic = h.topic(sysprof::INTERACTION_TOPIC);
        h.subscribe_with_schema(topic, GPA_EP, None, &InteractionRecord::schema())
            .expect("unfiltered subscription");
    }
    let stats = daemon.stats_handle();
    let tx = daemon.resend_handle();
    let node_stats = NodeStats::default();
    let (mut wake_ns, mut i) = (0u64, 0u64);
    while (stats.borrow().records_published as usize) < records {
        // Refill: four passes of the ring complete 256 interactions, a
        // default LPA window's worth per wake.
        for payload in wanted.iter().cycle().take(4 * wanted.len()) {
            let ev = kprof.make_event(SimTime::from_micros(i), 0, *payload);
            kprof.emit(&ev);
            i += 1;
        }
        let now = SimTime::from_micros(i);
        let (out, ns) = tr.time("core.daemon.on_wake", |_| {
            daemon.on_wake(now, NodeId(0), Some(lpa_id), &mut kprof, &node_stats)
        });
        wake_ns += ns;
        black_box(out.sends.len());
        // Ack everything so the resend buffer stays in steady state.
        tx.borrow_mut().ack(GPA_EP, u64::MAX);
    }
    let published = stats.borrow().records_published;
    (wake_ns, published)
}

/// What the receive-side replays measured.
#[derive(Debug, Clone, Copy)]
pub struct RecvCost {
    /// `decode_batch` + `Reassembler::offer`, ns per arriving batch.
    pub offer_ns_per_batch: f64,
    /// `ChannelDecoder::decode`, ns per record frame.
    pub decode_ns: f64,
    /// `Gpa::ingest_wire`, no digest installed, ns per record.
    pub ingest_wire_ns: f64,
    /// `Gpa::ingest_records` (decoded records, no wire), ns per record.
    pub ingest_record_ns: f64,
}

/// Reassembly, PBIO decode, and GPA ingest with and without the wire.
pub fn recv_side(tr: &mut Tracer, input: &WireInput, records: &[InteractionRecord]) -> RecvCost {
    // Reassembler alone; keeps the in-order payloads for the decoder.
    let (offer_ns, in_order) = fastest(|| {
        let mut streams: BTreeMap<EndPoint, Reassembler> = BTreeMap::new();
        let mut in_order: Vec<(EndPoint, Vec<u8>)> = Vec::with_capacity(input.arrivals.len());
        let ((), ns) = tr.time("pubsub.reliable.offer", |_| {
            for (src, wire) in &input.arrivals {
                let (seq, payload) = decode_batch(wire).expect("sealed batch");
                if let Offer::Delivered(batches) = streams
                    .entry(*src)
                    .or_default()
                    .offer(seq, payload.to_vec())
                {
                    in_order.extend(batches.into_iter().map(|(_, p)| (*src, p)));
                }
            }
        });
        (ns, in_order)
    });

    // PBIO decode alone, one decoder per source as the GPA keeps them.
    let (decode_ns, decoded) = fastest(|| {
        let mut decoders: BTreeMap<EndPoint, ChannelDecoder> = BTreeMap::new();
        let mut decoded = 0u64;
        let ((), ns) = tr.time("pbio.decode", |_| {
            for (src, payload) in &in_order {
                let decoder = decoders.entry(*src).or_default();
                for frame in split_frames(payload) {
                    if let Ok(Some(values)) = decoder.decode(frame) {
                        black_box(&values);
                        decoded += 1;
                    }
                }
            }
        });
        (ns, decoded)
    });
    assert_eq!(decoded, input.records, "every frame decodes");

    let (wire_ns, ()) = fastest(|| {
        let mut gpa = Gpa::new(GpaConfig::default());
        let ((), ns) = tr.time("core.gpa.ingest_wire.nodigest", |_| {
            for (k, (src, wire)) in input.arrivals.iter().enumerate() {
                let now = SimTime::from_micros(k as u64 * 10);
                black_box(gpa.ingest_wire(now, GPA_EP, *src, wire));
            }
        });
        assert_eq!(gpa.interaction_count(), input.records);
        (ns, ())
    });

    let (record_ns, ()) = fastest(|| {
        let mut gpa = Gpa::new(GpaConfig::default());
        let ((), ns) = tr.time("core.gpa.ingest_records", |_| {
            for chunk in records.chunks(64) {
                gpa.ingest_records(chunk);
            }
        });
        (ns, ())
    });

    RecvCost {
        offer_ns_per_batch: per(offer_ns, input.arrivals.len() as u64),
        decode_ns: per(decode_ns, decoded),
        ingest_wire_ns: per(wire_ns, input.records),
        ingest_record_ns: per(record_ns, records.len() as u64),
    }
}

/// `Gpa::ingest_record` once `max_records` is reached: a GPA capped at
/// `cap` records is prefilled (untimed), then `more` further records
/// are ingested. µs per record.
pub fn gpa_at_cap(tr: &mut Tracer, records: &[InteractionRecord], cap: usize, more: usize) -> f64 {
    let mut gpa = Gpa::new(GpaConfig {
        max_records: cap,
        ..GpaConfig::default()
    });
    for rec in records.iter().cycle().take(cap) {
        gpa.ingest_record(rec);
    }
    let ((), ns) = tr.time("core.gpa.ingest_at_cap", |_| {
        for rec in records.iter().cycle().skip(cap).take(more) {
            gpa.ingest_record(rec);
        }
    });
    assert_eq!(gpa.interaction_count(), cap as u64);
    per(ns, more as u64) / 1e3
}

/// What one digest replay measured.
#[derive(Debug, Clone)]
pub struct DigestCost {
    /// `ShardedDigest::compile` at this shard count, µs.
    pub install_us: f64,
    /// `ingest_raw_rows` in 4,096-row chunks, ns per record.
    pub ingest_ns: f64,
    /// The drain barrier + fold behind `merged()`, µs.
    pub merged_us: f64,
    /// The folded statics' raw bits.
    pub globals: Vec<i64>,
}

/// The four-static digest alone at `shards` replicas.
pub fn digest(tr: &mut Tracer, records: &[InteractionRecord], shards: usize) -> DigestCost {
    let schema = InteractionRecord::schema();
    let mut keys = Vec::with_capacity(records.len());
    let mut rows = Vec::with_capacity(records.len() * schema.len());
    let mut row = Vec::new();
    for rec in records {
        rec.to_raw_row(&mut row);
        keys.push(flow_shard_key(rec));
        rows.extend_from_slice(&row);
    }
    fastest(|| {
        let (mut d, install_ns) = tr.time("pubsub.digest.install", |_| {
            ShardedDigest::compile(DIGEST_FOUR, &schema, shards).expect("corpus digest installs")
        });
        let ((), ingest_ns) = tr.time("pubsub.digest.ingest", |_| {
            for (k, r) in keys.chunks(4096).zip(rows.chunks(4096 * schema.len())) {
                d.ingest_raw_rows(k, r);
            }
        });
        let (merged, merged_ns) = tr.time("pubsub.digest.merged", |_| {
            d.merged().expect("mergeable digest folds")
        });
        let cost = DigestCost {
            install_us: install_ns as f64 / 1e3,
            ingest_ns: per(ingest_ns, records.len() as u64),
            merged_us: merged_ns as f64 / 1e3,
            globals: merged.raw_globals().to_vec(),
        };
        (ingest_ns + merged_ns, cost)
    })
    .1
}

/// The event ring split by whether anything listens.
pub struct EventInputs {
    /// Payloads some analyzer of the full pipeline subscribes to
    /// (network and scheduling).
    pub wanted: Vec<EventPayload>,
    /// The rest (file system, system call): suppressed at the hook.
    pub unwanted: Vec<EventPayload>,
}

impl EventInputs {
    /// Generates and splits the ring for `seed`.
    pub fn new(seed: u64) -> EventInputs {
        let (wanted, unwanted) = gen::event_ring(seed).into_iter().partition(|p| {
            matches!(
                p.kind().class(),
                EventClass::Network | EventClass::Scheduling
            )
        });
        EventInputs { wanted, unwanted }
    }
}
