//! The cluster ledger behind `figures --exp wall`: a real `simos` world
//! priced layer by layer, for both of sysbench's cluster shapes.
//!
//! Each [`Cut`] is one pass. The whole is the scenario as sysbench runs
//! it (`ScenarioSpec::run`, the default deployment at `Full`). The
//! substrate is the scenario's own world with no monitor
//! (`run_unmonitored`). The monitor's rungs (`run_with` at `Off`,
//! `ClassAggregates` and `Interactions`; `Full` is the whole) price
//! Kprof and the LPA by their per-hit increments: `Off` →
//! `ClassAggregates` adds the network events, `Interactions` → `Full`
//! the scheduling ones. The send half is not read off a rung: the
//! monitored run's own interaction records, per node and in the run's
//! own wake sizes, go through what the daemon does on a wake (drain to
//! raw rows, one `Hub::publish_rows`, `Sender::seal`), and the batches
//! that seals go through `Gpa::ingest_wire` as deployed, with no
//! digest. [`ledger_rows`] turns the fastest pass of each cut into rows
//! and an unexplained remainder. This module only builds and runs
//! passes; the `figures` binary reads the clock.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;

use pubsub::reliable::{ResendConfig, Sender};
use pubsub::{Hub, TopicId};
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{EndPoint, FaultPlan, Ip, LinkSpec};
use simos::World;
use sysprof::{Gpa, InteractionRecord, MonitorLevel, DAEMON_SRC_PORT, DATA_PORT};
use sysprof_apps::{IperfScenario, KvStoreScenario, ScenarioRun, ScenarioSpec};

/// The GPA's data endpoint in the send and ingest cuts.
const GPA_EP: EndPoint = EndPoint::new(Ip(200), DATA_PORT);

/// How finely the observing run is stepped to read wake sizes off the
/// daemons' counters: well under the gap between two wakes of a node.
const STEP: SimDuration = SimDuration::from_micros(50);

/// `cluster_kv`'s shape: the sharded store for 1,000 ms.
pub fn kv() -> KvStoreScenario {
    KvStoreScenario {
        duration: SimDuration::from_millis(1_000),
    }
}

/// `cluster_iperf`'s shape: the gigabit stream for 500 ms.
pub fn iperf() -> IperfScenario {
    IperfScenario {
        link: LinkSpec::gigabit_lan(),
        duration: SimDuration::from_millis(500),
    }
}

/// One pass of the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// `ScenarioSpec::run`: every layer, the monitor at `Full`.
    Whole,
    /// `run_unmonitored`: the scenario's world with no monitor.
    Unmonitored,
    /// `run_with` at [`MonitorLevel::Off`].
    Off,
    /// `run_with` at [`MonitorLevel::ClassAggregates`].
    ClassAggregates,
    /// `run_with` at [`MonitorLevel::Interactions`].
    Interactions,
    /// The whole run's interaction records through the daemons' wakes:
    /// drain, raw rows, one publish per wake, seal.
    Send,
    /// The batches [`Cut::Send`] seals through `Gpa::ingest_wire`.
    Ingest,
}

impl Cut {
    /// Every cut, in the order a round runs them.
    pub const ALL: [Cut; 7] = [
        Cut::Whole,
        Cut::Unmonitored,
        Cut::Off,
        Cut::ClassAggregates,
        Cut::Interactions,
        Cut::Send,
        Cut::Ingest,
    ];

    /// The rung a `run_with` cut deploys at.
    fn level(self) -> Option<MonitorLevel> {
        match self {
            Cut::Off => Some(MonitorLevel::Off),
            Cut::ClassAggregates => Some(MonitorLevel::ClassAggregates),
            Cut::Interactions => Some(MonitorLevel::Interactions),
            _ => None,
        }
    }
}

/// One daemon wake of the monitored run.
#[derive(Debug, Clone)]
struct Wake {
    /// When the run's counters first showed it.
    at: SimTime,
    /// The waking node, as an index into [`Cluster::nodes`].
    node: usize,
    /// Its records, in the node's store order.
    records: Range<usize>,
}

/// A shape and seed, with what the send and ingest cuts replay of its
/// monitored run.
pub struct Cluster<S: ScenarioSpec> {
    spec: S,
    seed: u64,
    /// Each monitored node's interaction records, in publish order.
    nodes: Vec<Vec<InteractionRecord>>,
    /// Every wake that published interaction records, in time order.
    wakes: Vec<Wake>,
    /// The sealed batches the send cut hands the GPA, in arrival order,
    /// with their source and arrival time.
    sealed: Vec<(SimTime, EndPoint, Vec<u8>)>,
}

impl<S: ScenarioSpec> Cluster<S> {
    /// Observes `spec`'s monitored run at `seed` (untimed): runs it
    /// stepped by `STEP` (50 µs), reading each daemon's published count after
    /// every step, and takes each node's records from the GPA.
    ///
    /// # Panics
    ///
    /// If a node's wakes do not add up to the records the GPA holds
    /// from it (a lossy run; the cluster shapes lose nothing).
    pub fn new(spec: S, seed: u64) -> Cluster<S> {
        let mut staged = spec.stage(seed, FaultPlan::default(), spec.monitor_config());
        let monitored = staged.sysprof.monitored().to_vec();
        let published = |staged: &sysprof_apps::Staged<S::Probes>, n| {
            let stats = staged.sysprof.daemon_stats(n).expect("a monitored node");
            stats.records_published
        };
        let mut seen = vec![0u64; monitored.len()];
        let mut sizes = Vec::new();
        let stop = spec.stop_at();
        let mut t = SimTime::ZERO;
        while t < stop {
            t = (t + STEP).min(stop);
            staged.world.run_until(t);
            for (i, &n) in monitored.iter().enumerate() {
                let now = published(&staged, n);
                if now > seen[i] {
                    sizes.push((t, i, (now - seen[i]) as usize));
                    seen[i] = now;
                }
            }
        }
        let run = staged.finish(&spec);
        let gpa = run.sysprof.gpa();
        let gpa = gpa.borrow();
        let nodes: Vec<Vec<InteractionRecord>> = monitored
            .iter()
            .map(|&n| {
                let mine = gpa.interactions().iter().filter(|r| r.node == n);
                mine.copied().collect()
            })
            .collect();
        let mut next = vec![0usize; nodes.len()];
        let wakes = sizes
            .into_iter()
            .map(|(at, node, n)| {
                let start = next[node];
                next[node] += n;
                Wake {
                    at,
                    node,
                    records: start..start + n,
                }
            })
            .collect();
        for (i, (held, sent)) in nodes.iter().zip(&next).enumerate() {
            assert_eq!(
                held.len(),
                *sent,
                "node {i}: the GPA holds what its wakes sent"
            );
        }
        let mut cluster = Cluster {
            spec,
            seed,
            nodes,
            wakes,
            sealed: Vec::new(),
        };
        let mut sealed = Vec::new();
        SendPass::new(&cluster).run(&cluster, Some(&mut sealed));
        cluster.sealed = sealed;
        cluster
    }

    /// Interaction records the monitored run published.
    pub fn records(&self) -> usize {
        self.nodes.iter().map(Vec::len).sum()
    }

    /// Wakes that published them.
    pub fn wakes(&self) -> usize {
        self.wakes.len()
    }

    /// Builds the pass `cut` names, untimed.
    pub fn pass(&self, cut: Cut) -> Pass<'_, S> {
        let state = match cut {
            Cut::Send => State::Send(Box::new(SendPass::new(self))),
            Cut::Ingest => State::Ingest(Box::new(Gpa::new(self.spec.monitor_config().gpa))),
            _ => State::World,
        };
        Pass {
            cluster: self,
            cut,
            state,
        }
    }
}

/// One pass's state, built untimed for one [`Cut`].
pub struct Pass<'c, S: ScenarioSpec> {
    cluster: &'c Cluster<S>,
    cut: Cut,
    state: State,
}

enum State {
    World,
    Send(Box<SendPass>),
    Ingest(Box<Gpa>),
}

/// What a pass leaves: a finished world, kept until the caller has read
/// the clock, or a count of records sent or stored.
pub enum Done<S: ScenarioSpec> {
    /// A monitored run.
    Run(Box<ScenarioRun<S::Output>>),
    /// An unmonitored one.
    Unmonitored(Box<(World, S::Output)>),
    /// Records published or stored.
    Work(u64),
}

impl<S: ScenarioSpec> Done<S> {
    /// Instrumentation-point hits in the finished world (sysbench's
    /// cluster unit): every hook call, suppressed or not, on every node.
    /// Zero for a pass with no world.
    pub fn hits(&self) -> u64 {
        let world = match self {
            Done::Run(run) => &run.world,
            Done::Unmonitored(run) => &run.0,
            Done::Work(_) => return 0,
        };
        (0..world.node_count())
            .map(|n| {
                let s = world.kprof(NodeId(n as u32)).stats();
                s.events_generated + s.events_suppressed
            })
            .sum()
    }
}

impl<S: ScenarioSpec> Pass<'_, S> {
    /// Runs the pass.
    pub fn run(&mut self) -> Done<S> {
        let cluster = self.cluster;
        let (spec, seed) = (&cluster.spec, cluster.seed);
        match &mut self.state {
            State::World => match self.cut {
                Cut::Whole => Done::Run(Box::new(spec.run(seed))),
                Cut::Unmonitored => Done::Unmonitored(Box::new(spec.run_unmonitored(seed))),
                rung => {
                    let mut config = spec.monitor_config();
                    config.lpa.level = rung.level().expect("a rung's world");
                    Done::Run(Box::new(spec.run_with(seed, FaultPlan::default(), config)))
                }
            },
            State::Send(send) => Done::Work(send.run(cluster, None)),
            State::Ingest(gpa) => {
                for (at, src, wire) in &cluster.sealed {
                    black_box(gpa.ingest_wire(*at, GPA_EP, *src, wire));
                }
                Done::Work(gpa.interaction_count())
            }
        }
    }
}

/// One monitored node's send half as the daemon holds it.
struct NodeSend {
    hub: Hub,
    topic: TopicId,
    schema: pbio::Schema,
    tx: Sender,
    /// The daemon's drain buffer of raw rows, reused from wake to wake.
    rows: Vec<i64>,
    src: EndPoint,
}

/// The send cut: every node's daemon state, built as `Daemon::new`
/// builds it with the GPA subscribed unfiltered.
struct SendPass {
    nodes: Vec<NodeSend>,
}

impl SendPass {
    fn new<S: ScenarioSpec>(cluster: &Cluster<S>) -> SendPass {
        let nodes = (0..cluster.nodes.len())
            .map(|i| {
                let mut hub = Hub::new();
                let topic = hub.topic(sysprof::INTERACTION_TOPIC);
                let schema = InteractionRecord::schema();
                hub.subscribe_with_schema(topic, GPA_EP, None, &schema)
                    .expect("unfiltered subscription");
                NodeSend {
                    hub,
                    topic,
                    schema,
                    tx: Sender::new(ResendConfig::default()),
                    rows: Vec::new(),
                    src: EndPoint::new(Ip(1 + i as u32), DAEMON_SRC_PORT),
                }
            })
            .collect();
        SendPass { nodes }
    }

    /// Every wake of the run, in time order: its records drained as raw
    /// rows into the daemon's buffer, published once and sealed; each batch is acknowledged at once, so the resend buffer
    /// stays as short as a clean run keeps it. Each sealed batch goes to
    /// `keep`, if given, with its arrival time and source. Returns the
    /// records published.
    fn run<S: ScenarioSpec>(
        &mut self,
        cluster: &Cluster<S>,
        mut keep: Option<&mut Vec<(SimTime, EndPoint, Vec<u8>)>>,
    ) -> u64 {
        let mut published = 0;
        for wake in &cluster.wakes {
            let node = &mut self.nodes[wake.node];
            node.rows.clear();
            for record in &cluster.nodes[wake.node][wake.records.clone()] {
                node.rows.extend_from_slice(&record.raw_row());
            }
            let mut batches = BTreeMap::new();
            published += node
                .hub
                .publish_rows(node.topic, &node.schema, &node.rows, &mut batches)
                .expect("interaction rows match their schema");
            for (dst, data) in batches {
                let wire = node.tx.seal(wake.at, dst, &data);
                if let Some(keep) = keep.as_deref_mut() {
                    keep.push((wake.at, node.src, wire.to_vec()));
                }
                black_box(wire);
                node.tx.ack(dst, u64::MAX);
            }
        }
        published
    }
}

/// The ledger's rows, in ms of the whole run, from the fastest pass of
/// each cut (`ns`, in [`Cut::ALL`] order) and the hits each world pass
/// saw (`hits`, likewise; zero for the send and ingest cuts). Per-hit
/// figures are scaled by the whole run's hits. The rows, their sum, the
/// measured whole and the unexplained remainder come first; then the
/// four rung increments, printed only as a cross-check: with the
/// substrate they telescope to the whole by construction.
pub fn ledger_rows(ns: &[f64; 7], hits: &[u64; 7]) -> Vec<(&'static str, f64)> {
    let per_hit = |i: usize| ns[i] / hits[i].max(1) as f64;
    let scale = hits[0] as f64 / 1e6;
    let ms = |v: f64| v * scale;
    let [whole, unmon, off, classes, inter] = [0, 1, 2, 3, 4].map(per_hit);
    let (send, ingest) = (ns[5] / 1e6, ns[6] / 1e6);
    let substrate = ms(unmon);
    let network = ms(classes - off);
    let scheduling = ms(whole - inter);
    let rows = [
        ("substrate (own unmonitored world)", substrate),
        ("Kprof + LPA (network + scheduling)", network + scheduling),
        ("send side (drain + publish + seal)", send),
        ("GPA ingest (ingest_wire, no digest)", ingest),
    ];
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    let measured = ns[0] / 1e6;
    let mut out = rows.to_vec();
    out.extend([
        ("sum of rows", sum),
        ("whole run, measured", measured),
        ("unexplained (whole - sum)", measured - sum),
        ("  Kprof + LPA: network (Off -> ClassAggregates)", network),
        (
            "  Kprof + LPA: scheduling (Interactions -> Full)",
            scheduling,
        ),
        ("cross-check: unmonitored -> Off", ms(off - unmon)),
        ("cross-check: Off -> ClassAggregates", network),
        (
            "cross-check: ClassAggregates -> Interactions",
            ms(inter - classes),
        ),
        ("cross-check: Interactions -> Full", scheduling),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short kv run: the observed wakes cover every record the GPA
    /// holds, the send cut publishes each once and seals what the GPA
    /// then stores, and the world passes see hits.
    #[test]
    fn every_cut_runs_and_the_send_cut_replays_the_run() {
        let spec = KvStoreScenario {
            duration: SimDuration::from_millis(150),
        };
        let cluster = Cluster::new(spec, 7);
        let records = cluster.records() as u64;
        assert!(records > 100, "{records} records");
        assert!(cluster.wakes() > 1);
        let run = |cut| cluster.pass(cut).run();
        assert_eq!(run(Cut::Send).hits(), 0);
        for cut in [Cut::Send, Cut::Ingest] {
            match run(cut) {
                Done::Work(n) => assert_eq!(n, records, "{cut:?}"),
                _ => panic!("{cut:?} leaves no world"),
            }
        }
        let whole = run(Cut::Whole);
        let Done::Run(r) = &whole else {
            panic!("the whole is a monitored run")
        };
        let gpa = r.sysprof.gpa();
        assert_eq!(gpa.borrow().interaction_count(), records);
        for cut in [
            Cut::Unmonitored,
            Cut::Off,
            Cut::ClassAggregates,
            Cut::Interactions,
        ] {
            assert!(run(cut).hits() > 0, "{cut:?}");
        }
        assert!(whole.hits() > run(Cut::Unmonitored).hits() / 2);
    }

    /// The rows close on the whole when nothing is unexplained, and the
    /// increments telescope.
    #[test]
    fn rows_close_and_increments_telescope() {
        // ns per pass and hits: per hit 100 / 60 / 70 / 80 / 95 ns.
        let hits = [1_000_000, 1_000_000, 1_000_000, 1_000_000, 1_000_000, 0, 0];
        let ns = [100e6, 60e6, 70e6, 80e6, 95e6, 10e6, 5e6];
        let rows = ledger_rows(&ns, &hits);
        let get = |name: &str| rows.iter().find(|r| r.0.starts_with(name)).unwrap().1;
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(get("substrate"), 60.0));
        assert!(close(get("Kprof + LPA ("), 10.0 + 5.0));
        assert!(close(get("send"), 10.0));
        assert!(close(get("sum of rows"), 60.0 + 15.0 + 10.0 + 5.0));
        assert!(close(get("unexplained"), 10.0));
        let steps = [
            "unmonitored",
            "Off ->",
            "ClassAggregates ->",
            "Interactions ->",
        ];
        let telescoped: f64 = steps
            .iter()
            .map(|s| get(&format!("cross-check: {s}")))
            .sum();
        assert!(close(get("substrate") + telescoped, get("whole")));
        // Per-hit figures scale by the whole run's hits.
        let twice = [2_000_000, 1_000_000, 1_000_000, 1_000_000, 1_000_000, 0, 0];
        let rows = ledger_rows(&[200e6, 60e6, 70e6, 80e6, 95e6, 10e6, 5e6], &twice);
        let get = |name: &str| rows.iter().find(|r| r.0.starts_with(name)).unwrap().1;
        assert!(close(get("substrate"), 120.0));
    }
}
