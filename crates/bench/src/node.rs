//! The node ledger behind `figures --exp node`: one node's monitor
//! without the simulator, with one layer taken out at a time.
//!
//! The pipeline is sysbench's `node_hotpath`: a seeded ring of kernel
//! event payloads through `Kprof::emit` with an `Lpa`, a pid-filtered
//! `CpaAnalyzer` and a `CountingAnalyzer` registered; when the LPA
//! reports a full buffer its records are drained, filtered and encoded
//! by `Hub::publish_raw`, framed, sealed by `encode_batch` and kept in a
//! `ResendBuffer`. Each [`Cut`] builds it with one layer removed or
//! swapped, so the difference between two timed passes is that layer's
//! wall cost. This module only builds and runs passes; the `figures`
//! binary reads the clock.

use std::hint::black_box;

use ecode::{Instance, VerifyLimits};
use kprof::{
    Analyzer, AnalyzerOutcome, BlockReason, CountingAnalyzer, Event, EventMask, EventPayload,
    FileId, Interest, Kprof, NetPoint, Pid, Predicate, SyscallKind,
};
use pbio::write_u64;
use pubsub::reliable::{encode_batch, ResendBuffer, ResendConfig};
use pubsub::Hub;
use simcore::{NodeId, SimDuration, SimRng, SimTime};
use simnet::{EndPoint, FlowKey, Ip, PacketId, Port};
use sysprof::{CpaAnalyzer, InteractionRecord, Lpa, LpaConfig};

/// Events one pass emits: 64 times round the ring.
pub const NODE_EVENTS: u64 = 1 << 18;

/// Events per generated block: one request/response exchange on one
/// flow plus the scheduling and file-system activity around it.
const BLOCK_EVENTS: usize = 64;
/// Blocks in the ring (16 flows × 4 exchanges; 4,096 payloads).
const RING_BLOCKS: usize = 64;
/// Flows the ring cycles through.
const RING_FLOWS: usize = 16;
/// Address of the monitored node.
const NODE_IP: Ip = Ip(2);
/// The GPA's data endpoint.
const GPA_EP: EndPoint = EndPoint::new(Ip(200), sysprof::DATA_PORT);
/// Events per emit chunk; a full LPA buffer is drained after the chunk.
const CHUNK: usize = 4096;
/// What a CPA may spend per event, as `CpaAnalyzer` verifies it.
const CPA_FUEL: u64 = 2_000;

/// The pipeline CPA: a running ratio with a guarded reporter.
const CPA_RATIO: &str = r#"
    static int n = 0;
    static double acc = 0.0;
    n = n + 1;
    acc = acc + size;
    if (size > 800 && port_dst == 80) {
        out(0, acc / n);
        return 1;
    }
    return 0;
"#;

/// The GPA subscription's filter.
const FILTER_RESP: &str = "return resp_bytes > 150;";

/// The ring `node_hotpath` replays for `seed`, generated the same way:
/// per 64-event block, 20 inbound packets, their delivery, the serving
/// process waking and being switched in, a response (12 packets, or in
/// one block of four a single packet of at most 150 bytes) and its
/// transmit completions, and file-system/syscall hits no analyzer
/// subscribes to.
pub fn event_ring(seed: u64) -> Vec<EventPayload> {
    let mut rng = SimRng::seed(seed ^ 0x5eed_e7e7);
    let clients: Vec<EndPoint> = (0..RING_FLOWS)
        .map(|f| EndPoint::new(Ip(10 + rng.uniform_u64(0, 4) as u32), Port(5000 + f as u16)))
        .collect();
    let server = EndPoint::new(NODE_IP, Port(80));
    let mut ring = Vec::with_capacity(RING_BLOCKS * BLOCK_EVENTS);
    let mut packet = 0u64;
    let mut prev_pid = Pid(4);
    for b in 0..RING_BLOCKS {
        let client = clients[b % RING_FLOWS];
        let pid = Pid(1 + rng.uniform_u64(0, 4) as u32);
        let req = FlowKey::new(client, server);
        let resp = req.reversed();
        let mut net = |point, flow, size: u32| {
            packet += 1;
            EventPayload::Net {
                point,
                flow,
                packet: PacketId(packet),
                size,
                pid: Some(pid),
                arm: None,
            }
        };
        for _ in 0..20 {
            let size = rng.uniform_u64(200, 1501) as u32;
            ring.push(net(NetPoint::RxNic, req, size));
        }
        ring.push(net(NetPoint::RxSocketBuffer, req, 1500));
        ring.push(net(NetPoint::RxDeliverUser, req, 1500));
        ring.push(EventPayload::ProcessWake { pid });
        ring.push(EventPayload::ContextSwitch {
            from: Some(prev_pid),
            to: Some(pid),
        });
        for _ in 0..10 {
            ring.push(EventPayload::FileRead {
                pid,
                file: FileId(3),
                bytes: 4096,
            });
        }
        for _ in 0..4 {
            ring.push(EventPayload::SyscallEntry {
                pid,
                kind: SyscallKind::Read,
            });
        }
        let short = rng.uniform_u64(0, 4) == 0;
        let (tx_packets, max_size) = if short { (1, 151) } else { (12, 1501) };
        for _ in 0..tx_packets {
            let size = rng.uniform_u64(60, max_size) as u32;
            ring.push(net(NetPoint::TxFromUser, resp, size));
        }
        for _ in 0..4 {
            ring.push(net(NetPoint::TxNicDone, resp, 1500));
        }
        ring.push(EventPayload::ProcessBlock {
            pid,
            reason: BlockReason::SocketRecv,
        });
        ring.push(EventPayload::ContextSwitch {
            from: Some(pid),
            to: None,
        });
        for _ in 0..8 + (12 - tx_packets) {
            ring.push(EventPayload::FileWrite {
                pid,
                file: FileId(4),
                bytes: 512,
            });
        }
        prev_pid = pid;
    }
    ring
}

/// Which pipeline a pass runs: the whole one, or the whole one with one
/// layer removed or swapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// Every layer: `node_hotpath`'s pipeline.
    Whole,
    /// The CPA replaced by an analyzer with its interest that does
    /// nothing.
    NoCpa,
    /// The LPA replaced likewise: no records, so no send side either.
    NoLpa,
    /// Records drained but not published, encoded or sealed.
    NoSend,
    /// Both the LPA and the CPA replaced.
    Nulls,
    /// Only the counting analyzer: `make_event`, the hook and one
    /// delivery.
    Floor,
    /// The CPA's program on [`Instance::new`], run by a bench-local
    /// analyzer in place of `CpaAnalyzer`.
    TwinCompiled,
    /// The same analyzer on [`Instance::new_fused`], the interpreter.
    TwinInterpreted,
}

impl Cut {
    /// Every cut, in the order a round runs them.
    pub const ALL: [Cut; 8] = [
        Cut::Whole,
        Cut::NoCpa,
        Cut::NoLpa,
        Cut::NoSend,
        Cut::Nulls,
        Cut::Floor,
        Cut::TwinCompiled,
        Cut::TwinInterpreted,
    ];
}

/// An analyzer that wants what another one wants and does nothing with
/// it: what remains of a layer once its work is taken out.
struct Null(Interest);

impl Analyzer for Null {
    fn name(&self) -> &str {
        "null"
    }

    fn interest(&self) -> Interest {
        self.0.clone()
    }

    fn on_event(&mut self, _event: &Event) -> AnalyzerOutcome {
        AnalyzerOutcome::default()
    }
}

/// `CpaAnalyzer`'s work on an instance built either way: the read
/// columns of the event's inputs, one run, the outputs folded into
/// per-slot values.
struct TwinCpa {
    instance: Instance,
    reads: Vec<bool>,
    slots: [f64; 64],
    flagged: u64,
}

impl TwinCpa {
    fn new(interpreted: bool) -> TwinCpa {
        let limits = VerifyLimits::with_max_fuel(CPA_FUEL);
        let (program, _) = ecode::verify(CPA_RATIO, &sysprof::EVENT_INPUTS, &limits)
            .expect("the ledger's CPA verifies")
            .into_parts();
        let instance = if interpreted {
            Instance::new_fused(&program)
        } else {
            Instance::new(&program)
        };
        TwinCpa {
            reads: program.used_inputs(),
            instance,
            slots: [0.0; 64],
            flagged: 0,
        }
    }
}

impl Analyzer for TwinCpa {
    fn name(&self) -> &str {
        "twin-cpa"
    }

    fn interest(&self) -> Interest {
        cpa_interest()
    }

    fn on_event(&mut self, event: &Event) -> AnalyzerOutcome {
        let mut row = [0i64; 7];
        let read = |i: usize| self.reads[i];
        if read(0) {
            row[0] = event.kind() as u8 as i64;
        }
        if read(1) {
            row[1] = event.payload.pid().map_or(0, |p| p.0 as i64);
        }
        if read(2) {
            row[2] = event.wall.as_micros() as i64;
        }
        // A network event's fields are loads; only the derived columns
        // are worth skipping.
        if let EventPayload::Net { size, flow, .. } = &event.payload {
            row[3] = *size as i64;
            row[5] = flow.src.port.0 as i64;
            row[6] = flow.dst.port.0 as i64;
        }
        let fuel = match self.instance.run_raw(&row, CPA_FUEL) {
            Ok(out) => {
                self.flagged += (out.ret != 0) as u64;
                for &(slot, value) in out.outputs {
                    self.slots[slot as usize & 63] = value;
                }
                out.fuel_used
            }
            Err(_) => CPA_FUEL,
        };
        AnalyzerOutcome::cost(SimDuration::from_nanos(2 * fuel))
    }
}

/// The pipeline CPA's interest: network events of pids 1–3.
fn cpa_interest() -> Interest {
    Interest {
        mask: EventMask::NETWORK,
        predicate: Predicate::new().pids([Pid(1), Pid(2), Pid(3)]),
    }
}

/// One node's monitor, built for one [`Cut`].
pub struct NodePipeline {
    kprof: Kprof,
    lpa: Option<kprof::AnalyzerId>,
    send: bool,
    hub: Hub,
    topic: pubsub::TopicId,
    schema: pbio::Schema,
    resend: ResendBuffer,
    row: Vec<i64>,
    payload: Vec<u8>,
    next_seq: u64,
    /// Records drained and bytes sealed: what a pass returns, so no
    /// layer's work can be optimized away.
    work: u64,
}

impl NodePipeline {
    /// Builds the pipeline `cut` names.
    pub fn new(cut: Cut) -> NodePipeline {
        let mut kprof = Kprof::new(NodeId(0));
        let lpa_interest = || Interest::mask(EventMask::NETWORK | EventMask::SCHEDULING);
        let (with_lpa, cpa): (bool, Box<dyn Analyzer>) = match cut {
            Cut::Whole | Cut::NoSend => (true, Box::new(product_cpa())),
            Cut::NoCpa => (true, Box::new(Null(cpa_interest()))),
            Cut::NoLpa => (false, Box::new(product_cpa())),
            Cut::Nulls | Cut::Floor => (false, Box::new(Null(cpa_interest()))),
            Cut::TwinCompiled => (true, Box::new(TwinCpa::new(false))),
            Cut::TwinInterpreted => (true, Box::new(TwinCpa::new(true))),
        };
        let lpa = if cut == Cut::Floor {
            None
        } else if with_lpa {
            let lpa = Lpa::new(NodeId(0), NODE_IP, LpaConfig::default());
            Some(kprof.register(Box::new(lpa)))
        } else {
            kprof.register(Box::new(Null(lpa_interest())));
            None
        };
        if cut != Cut::Floor {
            kprof.register(cpa);
        }
        kprof.register(Box::new(CountingAnalyzer::new(EventMask::SCHEDULING)));

        let mut hub = Hub::new();
        let topic = hub.topic(sysprof::INTERACTION_TOPIC);
        let schema = InteractionRecord::schema();
        hub.subscribe_with_schema(topic, GPA_EP, Some(FILTER_RESP), &schema)
            .expect("the ledger's filter installs");
        NodePipeline {
            kprof,
            lpa,
            send: cut != Cut::NoSend,
            hub,
            topic,
            schema,
            resend: ResendBuffer::new(ResendConfig::default()),
            row: Vec::new(),
            payload: Vec::new(),
            next_seq: 0,
            work: 0,
        }
    }

    /// Emits `events` hits from `ring` (a multiple of its length), with
    /// the daemon's work on every buffer-full wake, and returns a count
    /// of the work done.
    pub fn run(&mut self, ring: &[EventPayload], events: u64) -> u64 {
        let mut i = 0u64;
        while i < events {
            for chunk in ring.chunks(CHUNK) {
                let mut full = false;
                for payload in chunk {
                    let ev = self.kprof.make_event(SimTime::from_micros(i), 0, *payload);
                    full |= !black_box(self.kprof.emit(&ev)).buffer_full.is_empty();
                    i += 1;
                }
                if full {
                    self.drain_and_seal(SimTime::from_micros(i));
                }
            }
        }
        self.drain_and_seal(SimTime::from_micros(i));
        self.work
    }

    /// The daemon's work on a buffer-full wake: drain, then (unless the
    /// send side is cut) filter + encode, frame, seal, buffer for
    /// resend, and take the ACK for the batch before last.
    fn drain_and_seal(&mut self, now: SimTime) {
        let Some(id) = self.lpa else {
            return;
        };
        let records = self
            .kprof
            .analyzer_as_mut::<Lpa>(id)
            .expect("LPA registered")
            .drain();
        self.work += records.len() as u64;
        if !self.send {
            return;
        }
        self.payload.clear();
        for rec in &records {
            rec.to_raw_row(&mut self.row);
            if let Ok(sends) = self.hub.publish_raw(self.topic, &self.schema, &self.row) {
                for (_, wire) in sends {
                    write_u64(&mut self.payload, wire.len() as u64);
                    self.payload.extend_from_slice(&wire);
                }
            }
        }
        if !self.payload.is_empty() {
            self.next_seq += 1;
            let wire = encode_batch(self.next_seq, &self.payload);
            self.work += wire.len() as u64;
            self.resend.push(now, self.next_seq, wire);
            self.resend.ack_upto(self.next_seq.saturating_sub(2));
        }
    }
}

fn product_cpa() -> CpaAnalyzer {
    CpaAnalyzer::compile("ledger-cpa", CPA_RATIO, EventMask::NETWORK)
        .expect("the ledger's CPA installs")
        .with_predicate(Predicate::new().pids([Pid(1), Pid(2), Pid(3)]))
}

/// The ledger's rows from the fastest pass of each cut (ns per emitted
/// event, in [`Cut::ALL`] order): each layer's cost, their sum, the
/// measured whole and what the rows leave unexplained.
pub fn ledger_rows(best: &[f64; 8]) -> Vec<(&'static str, f64)> {
    let [whole, no_cpa, no_lpa, no_send, nulls, floor, twin_c, twin_i] = *best;
    let send = whole - no_send;
    let rows = [
        ("floor (make_event + hook + counting analyzer)", floor),
        ("dispatch to the LPA's and CPA's interest", nulls - floor),
        ("LPA (on_event + drain)", whole - no_lpa - send),
        ("CPA (CpaAnalyzer)", whole - no_cpa),
        ("send side (publish_raw + filter + encode + seal)", send),
    ];
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    let mut out = rows.to_vec();
    out.extend([
        ("sum of rows", sum),
        ("whole pipeline, measured", whole),
        ("unexplained (whole - sum)", whole - sum),
        ("CPA, bench twin on the compiled tier", twin_c - no_cpa),
        ("CPA, bench twin on the interpreter", twin_i - no_cpa),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cut runs, and the cuts that keep the LPA and the send side
    /// do the same work as the whole pipeline.
    #[test]
    fn every_cut_runs_and_the_kept_layers_do_the_same_work() {
        let ring = event_ring(7);
        let events = ring.len() as u64 * 2;
        let work = |cut| NodePipeline::new(cut).run(&ring, events);
        let whole = work(Cut::Whole);
        assert!(whole > 0);
        for cut in [Cut::NoCpa, Cut::TwinCompiled, Cut::TwinInterpreted] {
            assert_eq!(work(cut), whole, "{cut:?}");
        }
        assert!(work(Cut::NoSend) < whole);
        for cut in [Cut::NoLpa, Cut::Nulls, Cut::Floor] {
            assert_eq!(work(cut), 0, "{cut:?}");
        }
    }

    /// The rows sum to the whole when nothing is unexplained.
    #[test]
    fn rows_close_on_the_whole() {
        let rows = ledger_rows(&[30.0, 20.0, 15.0, 27.0, 12.0, 6.0, 31.0, 60.0]);
        let get = |name: &str| rows.iter().find(|r| r.0.starts_with(name)).unwrap().1;
        let layers = ["floor", "dispatch", "LPA", "CPA (", "send"];
        let sum: f64 = layers.iter().map(|n| get(n)).sum();
        assert_eq!(sum, get("sum of rows"));
        assert_eq!(get("whole") - sum, get("unexplained"));
        assert_eq!(get("CPA, bench twin on the interpreter"), 40.0);
    }
}
