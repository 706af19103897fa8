//! `cluster_kv` and `cluster_iperf`: real `simos` worlds through
//! `ScenarioSpec::run`, every layer of the monitor running.

use simcore::{NodeId, SimDuration, SimTime};
use simnet::{LinkSpec, Port};
use simos::{World, WorldBuilder};
use sysprof_apps::iperf::{IperfClient, IperfServer};
use sysprof_apps::{IperfScenario, KvStoreScenario, ScenarioRun, ScenarioSpec};

use super::{RepOut, Whole, Workload};
use crate::fingerprint::Fingerprint;
use crate::gen;
use crate::replay::{self, EventInputs, ReplaySize};
use crate::trace::Tracer;

enum Spec {
    Kv(KvStoreScenario),
    Iperf(IperfScenario),
}

/// A scenario world run to completion once per repetition.
pub struct Cluster {
    spec: Spec,
    seed: u64,
    quick: bool,
}

impl Cluster {
    /// The sharded key-value store: clients, router, 4 shards and a GPA
    /// node; about one interaction record per 18 instrumentation hits.
    pub fn kv(seed: u64, quick: bool) -> Cluster {
        let duration = SimDuration::from_millis(if quick { 300 } else { 1_000 });
        Cluster {
            spec: Spec::Kv(KvStoreScenario {
                duration,
                ..KvStoreScenario::default()
            }),
            seed,
            quick,
        }
    }

    /// The gigabit bulk stream: about one record per 190 hits.
    pub fn iperf(seed: u64, quick: bool) -> Cluster {
        let duration = SimDuration::from_millis(if quick { 150 } else { 500 });
        Cluster {
            spec: Spec::Iperf(IperfScenario {
                link: LinkSpec::gigabit_lan(),
                duration,
            }),
            seed,
            quick,
        }
    }
}

/// Σ over every node of (generated, delivered, suppressed, rejected).
fn kprof_totals(world: &World) -> [u64; 4] {
    let mut t = [0u64; 4];
    for n in 0..world.node_count() {
        let s = world.kprof(NodeId(n as u32)).stats();
        t[0] += s.events_generated;
        t[1] += s.events_delivered;
        t[2] += s.events_suppressed;
        t[3] += s.predicate_rejections;
    }
    t
}

fn collect<S: ScenarioSpec>(spec: &S, run: &ScenarioRun<S::Output>, wall_ns: u64) -> RepOut {
    let world = &run.world;
    let sp = &run.sysprof;
    let [generated, delivered, suppressed, rejected] = kprof_totals(world);

    let (mut completed, mut overwritten, mut lpa_seen) = (0u64, 0u64, 0u64);
    let (mut published, mut bytes_sent, mut retransmits, mut evictions) = (0u64, 0u64, 0u64, 0u64);
    let mut overhead = 0.0;
    for &node in sp.monitored() {
        if let Some(lpa) = sp.lpa(world, node) {
            completed += lpa.records_completed();
            overwritten += lpa.overwritten();
            lpa_seen += lpa.events_seen();
        }
        if let Some(d) = sp.daemon_stats(node) {
            published += d.records_published;
            bytes_sent += d.bytes_sent;
            retransmits += d.retransmits;
            evictions += d.resend_evictions;
        }
        overhead += sp.overhead_fraction(world, node);
    }
    let overhead_pct = 100.0 * overhead / sp.monitored().len().max(1) as f64;

    let gpa = sp.gpa();
    let gpa = gpa.borrow();
    let held = gpa.interaction_count();
    let gstats = gpa.gpa_stats();
    let verdict = spec.diagnose(run).verdict;
    let wire_bytes_per_record = bytes_sent as f64 / published.max(1) as f64;

    let mut fp = Fingerprint::default();
    fp.put("kprof.events_generated", generated);
    fp.put("kprof.events_delivered", delivered);
    fp.put("kprof.events_suppressed", suppressed);
    fp.put("kprof.predicate_rejections", rejected);
    fp.put("lpa.records_completed", completed);
    fp.put("lpa.overwritten", overwritten);
    fp.put("lpa.events_seen", lpa_seen);
    fp.put("daemon.records_published", published);
    fp.put("daemon.bytes_sent", bytes_sent);
    fp.put("daemon.retransmits", retransmits);
    fp.put("daemon.resend_evictions", evictions);
    fp.put("gpa.records_held", held);
    fp.put("gpa.decode_failures", gpa.decode_failures());
    fp.put("gpa.batches_received", gstats.batches_received);
    fp.put("gpa.duplicate_batches", gstats.duplicate_batches);
    fp.put("gpa.out_of_order", gstats.out_of_order);
    fp.put("gpa.gaps_abandoned", gstats.gaps_abandoned);
    fp.put("sim.now_ns", world.now().as_nanos());
    fp.put("sim_overhead_pct.bits", overhead_pct.to_bits());
    fp.put("verdict", &verdict);

    // A record the LPA completed and the GPA does not hold was lost on
    // the way; a clean network loses none.
    let lost = completed.saturating_sub(held) + gpa.decode_failures();
    let mut violations = Vec::new();
    if !gpa.streams_converged() {
        violations.push("GPA streams did not converge".to_owned());
    }
    if held > completed {
        violations.push(format!(
            "GPA holds {held} records, LPAs completed {completed}"
        ));
    }

    RepOut {
        wall_ns,
        units: generated + suppressed,
        attempted: completed,
        failed: lost,
        fingerprint: fp,
        violations,
        counts: vec![
            ("sim_overhead_pct", overhead_pct),
            ("wire_bytes_per_record", wire_bytes_per_record),
            ("kprof.events_generated", generated as f64),
            ("kprof.events_delivered", delivered as f64),
            ("kprof.events_suppressed", suppressed as f64),
            ("kprof.predicate_rejections", rejected as f64),
            (
                "kprof.delivered_per_generated",
                delivered as f64 / generated.max(1) as f64,
            ),
            ("core.lpa.records_completed", completed as f64),
            ("core.lpa.overwritten", overwritten as f64),
            ("core.lpa.events_seen", lpa_seen as f64),
            ("core.daemon.records_published", published as f64),
            ("core.daemon.bytes_sent", bytes_sent as f64),
            ("core.daemon.retransmits", retransmits as f64),
            ("core.daemon.resend_evictions", evictions as f64),
            ("core.gpa.records_held", held as f64),
            ("core.gpa.decode_failures", gpa.decode_failures() as f64),
            ("core.gpa.gaps_abandoned", gstats.gaps_abandoned as f64),
            (
                "pubsub.reliable.duplicates",
                gstats.duplicate_batches as f64,
            ),
            ("pubsub.reliable.out_of_order", gstats.out_of_order as f64),
        ],
    }
}

/// The iperf topology and programs of `sysprof_apps::run_iperf`, built
/// here without a monitor so the finished world (and its hit counters)
/// stays readable: the substrate alone.
fn unmonitored_iperf(seed: u64, duration: SimDuration) -> World {
    let mut world = WorldBuilder::new(seed)
        .node("sender")
        .node("receiver")
        .node("gpa")
        .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
        .link(NodeId(0), NodeId(2), LinkSpec::gigabit_lan())
        .link(NodeId(1), NodeId(2), LinkSpec::gigabit_lan())
        .build()
        .expect("static topology is valid");
    world.spawn(
        NodeId(1),
        "iperf-server",
        Box::new(IperfServer::new(Port(5001))),
    );
    world.spawn(
        NodeId(0),
        "iperf-client",
        Box::new(IperfClient::new(
            NodeId(1),
            Port(5001),
            64 * 1024,
            8,
            duration,
        )),
    );
    world.run_until(SimTime::ZERO + duration + SimDuration::from_secs(1));
    world
}

impl Workload for Cluster {
    fn unit(&self) -> &'static str {
        "hits"
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let seed = self.seed;
        match &self.spec {
            Spec::Kv(spec) => {
                let (run, ns) = tr.time("apps.scenario.run", |_| spec.run(seed));
                collect(spec, &run, ns)
            }
            Spec::Iperf(spec) => {
                let (run, ns) = tr.time("apps.scenario.run", |_| spec.run(seed));
                collect(spec, &run, ns)
            }
        }
    }

    fn layers(&mut self, tr: &mut Tracer, whole: Whole, last: &RepOut) -> Vec<(&'static str, f64)> {
        let size = ReplaySize::of(self.quick);
        let ev = EventInputs::new(self.seed);

        // Substrate: the iperf world with no monitor deployed. Every
        // hit there takes the suppressed path, so its wall per hit is
        // simos + simnet + apps with the cheapest possible Kprof. For
        // `cluster_kv` the figure is borrowed: the kv programs are
        // private to `sysprof-apps`, so that world cannot be run
        // unmonitored, and the iperf mix (bulk segments, no RPC) only
        // stands in for it. Its ledger closes worse for that reason.
        let sub_duration = match &self.spec {
            Spec::Iperf(s) => s.duration,
            Spec::Kv(_) => SimDuration::from_millis(if self.quick { 150 } else { 500 }),
        };
        let seed = self.seed;
        let mut sub_ns = u64::MAX;
        let mut sub_hits = 0;
        for _ in 0..3 {
            let (world, ns) = tr.time("simos.unmonitored", |_| {
                unmonitored_iperf(seed, sub_duration)
            });
            let [generated, _, suppressed, _] = kprof_totals(&world);
            sub_ns = sub_ns.min(ns);
            sub_hits = generated + suppressed;
        }
        let substrate_ns_per_hit = sub_ns as f64 / sub_hits.max(1) as f64;

        let emit_ns = replay::kprof_emit(tr, &ev.wanted, size.events);
        let suppressed_ns = replay::kprof_suppressed(tr, &ev.unwanted, size.events);
        let lpa = replay::lpa(tr, &ev.wanted, size.events);
        let wake_ns = replay::daemon_wake(tr, &ev.wanted, size.records / 4);
        let records = gen::records(self.seed, size.records, 4);
        let input = gen::wire_input(self.seed, &records, 4, 64);
        let recv = replay::recv_side(tr, &input, &records);

        // Ledger: this run's counts × replayed unit costs.
        let count = |name: &str| last.count(name).unwrap_or(0.0);
        let hits = last.units as f64;
        let generated = count("kprof.events_generated");
        let published = count("core.daemon.records_published");
        let explained = hits * substrate_ns_per_hit
            + generated * (emit_ns - suppressed_ns).max(0.0)
            + count("core.lpa.events_seen") * lpa.on_event_ns
            + published * (wake_ns + recv.ingest_wire_ns);
        let unexplained = (whole.wall_ns - explained).abs() / whole.wall_ns.max(1.0);

        vec![
            ("simos.run_wall_s", whole.wall_ns / 1e9),
            ("simos.unmonitored_wall_s", sub_ns as f64 / 1e9),
            ("simos.substrate_residual_ns_per_hit", substrate_ns_per_hit),
            ("kprof.emit_ns_per_event", emit_ns),
            ("kprof.suppressed_ns_per_hit", suppressed_ns),
            ("core.lpa.on_event_ns_per_event", lpa.on_event_ns),
            ("core.lpa.drain_ns_per_record", lpa.drain_ns_per_record),
            (
                "core.lpa.events_per_record",
                count("core.lpa.events_seen") / count("core.lpa.records_completed").max(1.0),
            ),
            ("core.daemon.wake_ns_per_record", wake_ns),
            (
                "pubsub.reliable.offer_ns_per_batch",
                recv.offer_ns_per_batch,
            ),
            ("pbio.decode_ns_per_record", recv.decode_ns),
            ("core.gpa.ingest_wire_ns_per_record", recv.ingest_wire_ns),
            (
                "core.gpa.ingest_record_ns_per_record",
                recv.ingest_record_ns,
            ),
            ("ledger.unexplained_share", unexplained),
        ]
    }
}
