//! `node_hotpath`: one node's monitor without the simulator around it.
//!
//! Synthetic kernel events go through `Kprof::emit` with an `Lpa`, a
//! pid-filtered `CpaAnalyzer` and a `CountingAnalyzer` registered; when
//! the LPA reports a full buffer its records are drained and sent the
//! way the daemon sends them: `Hub::publish_raw` (E-Code filter) →
//! frame → `encode_batch` → `ResendBuffer`. It is `crates/bench`'s
//! `HotPipeline` plus the LPA that pipeline leaves out.

use std::hint::black_box;

use ecode::ExecTier;
use kprof::{AnalyzerId, CountingAnalyzer, EventMask, EventPayload, Kprof, Pid, Predicate};
use pbio::write_u64;
use pubsub::reliable::{encode_batch, ResendBuffer, ResendConfig};
use pubsub::Hub;
use simcore::{NodeId, SimTime};
use sysprof::{CpaAnalyzer, InteractionRecord, Lpa, LpaConfig};

use super::{RepOut, Whole, Workload};
use crate::corpus::{CPA_RATIO, FILTER_RESP};
use crate::fingerprint::Fingerprint;
use crate::gen::{self, GPA_EP, NODE_IP};
use crate::replay::{self, EventInputs, ReplaySize};
use crate::trace::Tracer;

/// Events per `kprof.emit` span of the traced repetition.
const CHUNK: usize = 4096;

/// The pipeline's inputs and size.
pub struct NodeHotpath {
    ring: Vec<EventPayload>,
    events: u64,
    seed: u64,
    quick: bool,
}

impl NodeHotpath {
    /// Generates the event ring for `seed`.
    pub fn new(seed: u64, quick: bool) -> NodeHotpath {
        NodeHotpath {
            ring: gen::event_ring(seed),
            events: if quick { 1 << 17 } else { 1 << 19 },
            seed,
            quick,
        }
    }
}

struct Pipeline {
    kprof: Kprof,
    lpa_id: AnalyzerId,
    cpa_id: AnalyzerId,
    hub: Hub,
    topic: pubsub::TopicId,
    schema: pbio::Schema,
    resend: ResendBuffer,
    row: Vec<i64>,
    payload: Vec<u8>,
    next_seq: u64,
    records_drained: u64,
    records_sent: u64,
    bytes_sealed: u64,
    encode_errors: u64,
}

impl Pipeline {
    fn new() -> Pipeline {
        let mut kprof = Kprof::new(NodeId(0));
        let lpa_id = kprof.register(Box::new(Lpa::new(NodeId(0), NODE_IP, LpaConfig::default())));
        let cpa = CpaAnalyzer::compile("hotpath-cpa", CPA_RATIO, EventMask::NETWORK)
            .expect("corpus CPA installs")
            .with_predicate(Predicate::new().pids([Pid(1), Pid(2), Pid(3)]));
        assert_eq!(
            cpa.tier(),
            ExecTier::Compiled,
            "pipeline CPA left the compiled tier"
        );
        let cpa_id = kprof.register(Box::new(cpa));
        kprof.register(Box::new(CountingAnalyzer::new(EventMask::SCHEDULING)));

        let mut hub = Hub::new();
        let topic = hub.topic(sysprof::INTERACTION_TOPIC);
        let schema = InteractionRecord::schema();
        hub.subscribe_with_schema(topic, GPA_EP, Some(FILTER_RESP), &schema)
            .expect("corpus filter installs");
        Pipeline {
            kprof,
            lpa_id,
            cpa_id,
            hub,
            topic,
            schema,
            resend: ResendBuffer::new(ResendConfig::default()),
            row: Vec::new(),
            payload: Vec::new(),
            next_seq: 0,
            records_drained: 0,
            records_sent: 0,
            bytes_sealed: 0,
            encode_errors: 0,
        }
    }

    /// The daemon's work on a buffer-full wake: drain, filter + encode,
    /// frame, seal, buffer for resend, and take the ACK for the batch
    /// before last.
    fn drain_and_seal(&mut self, tr: &mut Tracer, now: SimTime) {
        let open = tr.begin("core.lpa.drain");
        let records = self
            .kprof
            .analyzer_as_mut::<Lpa>(self.lpa_id)
            .expect("LPA registered")
            .drain();
        tr.end(open);
        self.records_drained += records.len() as u64;

        let open = tr.begin("pubsub.hub.publish_raw");
        self.payload.clear();
        for rec in &records {
            rec.to_raw_row(&mut self.row);
            match self.hub.publish_raw(self.topic, &self.schema, &self.row) {
                Ok(sends) => {
                    for (_, wire) in sends {
                        write_u64(&mut self.payload, wire.len() as u64);
                        self.payload.extend_from_slice(&wire);
                        self.records_sent += 1;
                    }
                }
                Err(_) => self.encode_errors += 1,
            }
        }
        tr.end(open);

        if !self.payload.is_empty() {
            let open = tr.begin("pubsub.reliable.seal");
            self.next_seq += 1;
            let wire = encode_batch(self.next_seq, &self.payload);
            self.bytes_sealed += wire.len() as u64;
            self.resend.push(now, self.next_seq, wire);
            self.resend.ack_upto(self.next_seq.saturating_sub(2));
            tr.end(open);
        }
    }

    fn run(&mut self, tr: &mut Tracer, ring: &[EventPayload], events: u64) {
        let mut i = 0u64;
        while i < events {
            for chunk in ring.chunks(CHUNK) {
                let open = tr.begin("kprof.emit");
                let mut full = false;
                for payload in chunk {
                    let ev = self.kprof.make_event(SimTime::from_micros(i), 0, *payload);
                    full |= !black_box(self.kprof.emit(&ev)).buffer_full.is_empty();
                    i += 1;
                }
                tr.end(open);
                if full {
                    self.drain_and_seal(tr, SimTime::from_micros(i));
                }
            }
        }
        self.drain_and_seal(tr, SimTime::from_micros(i));
    }
}

impl Workload for NodeHotpath {
    fn unit(&self) -> &'static str {
        "events"
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let mut p = Pipeline::new();
        let events = self.events - self.events % self.ring.len() as u64;
        let ring = &self.ring;
        let ((), wall_ns) = tr.time("node_hotpath.rep", |tr| p.run(tr, ring, events));

        let stats = *p.kprof.stats();
        let lpa = p
            .kprof
            .analyzer_as::<Lpa>(p.lpa_id)
            .expect("LPA registered");
        let (completed, overwritten, lpa_seen) = (
            lpa.records_completed(),
            lpa.overwritten(),
            lpa.events_seen(),
        );
        let cpa = p
            .kprof
            .analyzer_as::<CpaAnalyzer>(p.cpa_id)
            .expect("CPA registered");
        let (flagged, aborted, cpa_events) = (cpa.flagged(), cpa.aborted(), cpa.events());
        let (delivered, filtered) = p.hub.delivery_stats(p.topic, GPA_EP).unwrap_or((0, 0));

        let mut fp = Fingerprint::default();
        fp.put("events", events);
        fp.put("kprof.events_generated", stats.events_generated);
        fp.put("kprof.events_delivered", stats.events_delivered);
        fp.put("kprof.events_suppressed", stats.events_suppressed);
        fp.put("kprof.predicate_rejections", stats.predicate_rejections);
        fp.put("kprof.overhead_ns", stats.total_overhead.as_nanos());
        fp.put("lpa.records_completed", completed);
        fp.put("lpa.overwritten", overwritten);
        fp.put("cpa.events", cpa_events);
        fp.put("cpa.flagged", flagged);
        fp.put("cpa.aborted", aborted);
        fp.put("cpa.out0.bits", cpa.output(0).map_or(0, f64::to_bits));
        fp.put("hub.delivered", delivered);
        fp.put("hub.filtered", filtered);
        fp.put("reliable.batches", p.next_seq);
        fp.put("reliable.bytes_sealed", p.bytes_sealed);

        let mut violations = Vec::new();
        if stats.events_generated + stats.events_suppressed != events {
            violations.push("generated + suppressed != events emitted".to_owned());
        }
        if p.records_drained + overwritten != completed {
            violations.push(format!(
                "records drained {} + overwritten {overwritten} != completed {completed}",
                p.records_drained
            ));
        }
        if delivered + filtered != p.records_drained {
            violations.push("hub delivered + filtered != records drained".to_owned());
        }

        RepOut {
            wall_ns,
            units: events,
            attempted: events,
            failed: aborted + p.encode_errors,
            fingerprint: fp,
            violations,
            counts: vec![
                (
                    "wire_bytes_per_record",
                    p.bytes_sealed as f64 / p.records_sent.max(1) as f64,
                ),
                ("kprof.events_generated", stats.events_generated as f64),
                ("kprof.events_delivered", stats.events_delivered as f64),
                ("kprof.events_suppressed", stats.events_suppressed as f64),
                (
                    "kprof.predicate_rejections",
                    stats.predicate_rejections as f64,
                ),
                (
                    "kprof.delivered_per_generated",
                    stats.events_delivered as f64 / stats.events_generated.max(1) as f64,
                ),
                ("core.lpa.records_completed", completed as f64),
                ("core.lpa.overwritten", overwritten as f64),
                ("core.lpa.events_seen", lpa_seen as f64),
                (
                    "core.lpa.events_per_record",
                    lpa_seen as f64 / completed.max(1) as f64,
                ),
                ("core.cpa.flagged", flagged as f64),
                ("core.cpa.aborted", aborted as f64),
                ("core.daemon.records_published", p.records_sent as f64),
                ("core.daemon.bytes_sent", p.bytes_sealed as f64),
                (
                    "pubsub.hub.filtered_share",
                    filtered as f64 / (delivered + filtered).max(1) as f64,
                ),
            ],
        }
    }

    fn layers(
        &mut self,
        tr: &mut Tracer,
        _whole: Whole,
        _last: &RepOut,
    ) -> Vec<(&'static str, f64)> {
        let size = ReplaySize::of(self.quick);
        let ev = EventInputs::new(self.seed);
        let emit_ns = replay::kprof_emit(tr, &ev.wanted, size.events);
        let suppressed_ns = replay::kprof_suppressed(tr, &ev.unwanted, size.events);
        let lpa = replay::lpa(tr, &ev.wanted, size.events);
        let cpa_ns = replay::cpa(tr, &ev.wanted, size.events);
        let compiled = replay::ecode_run(tr, ExecTier::Compiled, &ev.wanted, size.events);
        let fused = replay::ecode_run(tr, ExecTier::Fused, &ev.wanted, size.events);
        let records = gen::records(self.seed, size.records, 1);
        let send = replay::send_side(tr, &records);
        let wake_ns = replay::daemon_wake(tr, &ev.wanted, size.records / 4);
        vec![
            ("kprof.emit_ns_per_event", emit_ns),
            ("kprof.suppressed_ns_per_hit", suppressed_ns),
            ("core.lpa.on_event_ns_per_event", lpa.on_event_ns),
            ("core.lpa.drain_ns_per_record", lpa.drain_ns_per_record),
            ("core.cpa.on_event_ns_per_event", cpa_ns),
            ("ecode.run_compiled_ns_per_row", compiled),
            ("ecode.run_fused_ns_per_row", fused),
            ("pubsub.hub.publish_ns_per_record", send.publish_ns),
            ("pbio.encode_ns_per_record", send.encode_ns),
            ("pbio.bytes_per_record", send.bytes_per_record),
            ("pubsub.reliable.seal_ns_per_batch", send.seal_ns_per_batch),
            ("core.daemon.wake_ns_per_record", wake_ns),
        ]
    }
}
