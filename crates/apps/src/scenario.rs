//! The workload kit: one trait unifying every workload the repo can
//! throw at a SysProf stack, one runner that deploys the monitor, and one
//! retrying ping-pong [`Link`] that carries every scenario RPC.
//!
//! A [`ScenarioSpec`] is a four-part contract — a **topology** with the
//! monitor's [`Placement`] on it, a **spawn** of its programs into the
//! built world, a **collect** of its typed output (application truth)
//! and a **diagnose** rendering the cross-node attribution it uniquely
//! exercises (the hot shard, the slow leaf tier, the straggler rank, the
//! origin-bound tail) as a deterministic [`Diagnosis`] read from the
//! GPA. None of the four builds a world, deploys a monitor or arms a
//! retry timer.
//!
//! The provided runner does that, identically for every scenario: build
//! under a [`FaultPlan`], deploy SysProf on the placement (the crate's
//! one `SysProf::deploy`), spawn, run to the stop time, collect.
//! [`run`](ScenarioSpec::run) / [`run_under`](ScenarioSpec::run_under)
//! deploy the scenario's own configuration and
//! [`run_with`](ScenarioSpec::run_with) a caller's, so monitoring
//! configuration is an axis over the whole library rather than an edit
//! to each workload; [`stage`](ScenarioSpec::stage) stops before the run
//! for a caller that drives the world itself; and
//! [`run_unmonitored`](ScenarioSpec::run_unmonitored) deploys nothing —
//! the baseline monitoring cost is priced against. Same seed, plan and
//! configuration replay bit-identically.
//!
//! Scenario programs follow one discipline so SysProf's black-box
//! message pairing stays clean: every flow is ping-pong (at most one
//! outstanding request per connection), responses reuse the request's
//! message id via `send_with_id`, and retransmits repeat the same id so
//! duplicates are recognizable end-to-end. [`Link`] is that discipline,
//! once.

use std::cell::RefCell;
use std::rc::Rc;

use serde::Serialize;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{FaultPlan, LinkSpec, Port};
use simos::{Message, ProcCtx, Program, SocketId, World, WorldBuilder};
use sysprof::detect::Finding;
use sysprof::{MonitorConfig, SysProf};

/// A finished scenario run: the simulation, the deployed monitor, and
/// the scenario's own measured output. Tests read application truth from
/// `output` and the monitor's view from `sysprof.gpa()` — a diagnosis is
/// only golden when the two agree.
pub struct ScenarioRun<T> {
    /// The simulation after the run completed.
    pub world: World,
    /// The deployed SysProf stack (GPA, daemons, LPAs).
    pub sysprof: SysProf,
    /// The scenario's typed result.
    pub output: T,
}

/// A deterministic, human-readable verdict derived from the GPA.
///
/// `verdict` is the one-line attribution a golden test pins (if the
/// indicted tier/shard/rank changes, the string changes and the test
/// fails); `evidence` carries the per-component measurements behind it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnosis {
    /// One-line attribution, e.g. `"hot shard 0: 47% of shard traffic"`.
    pub verdict: String,
    /// Supporting per-component measurements, in a fixed order.
    pub evidence: Vec<String>,
}

impl Diagnosis {
    /// The verdict `render` makes of the most indicted finding of each of
    /// `signals` (the detector's, over the scenario's role map), with one
    /// line of evidence per finding. A signal over an empty tier leaves
    /// nothing to indict.
    pub(crate) fn of<const N: usize>(
        signals: [Option<Vec<Finding>>; N],
        render: impl FnOnce([&Finding; N]) -> String,
    ) -> Diagnosis {
        let first: Option<Vec<&Finding>> = signals.iter().map(|s| s.as_ref()?.first()).collect();
        let verdict = first.and_then(|first| first.try_into().ok());
        Diagnosis {
            verdict: verdict.map_or_else(|| "nothing to indict: an empty tier".into(), render),
            evidence: signals
                .iter()
                .flatten()
                .flatten()
                .map(Finding::to_string)
                .collect(),
        }
    }
}

impl std::fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.verdict)?;
        for e in &self.evidence {
            writeln!(f, "  - {e}")?;
        }
        Ok(())
    }
}

/// Where the monitor goes in a scenario's topology.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The nodes that get an LPA and a dissemination daemon.
    pub monitored: Vec<NodeId>,
    /// The node hosting the GPA.
    pub gpa: NodeId,
}

/// A scenario built, deployed and spawned but not yet run: for callers
/// that drive the world themselves (inject a fault mid-run, change a
/// node's level through `SysProf::reconfigure`, read the GPA at two
/// instants).
pub struct Staged<P> {
    /// The simulation, at time zero.
    pub world: World,
    /// The deployed SysProf stack.
    pub sysprof: SysProf,
    /// What the scenario's spawn left for its collect.
    pub probes: P,
}

impl<P> Staged<P> {
    /// Runs to the scenario's stop time and collects.
    pub fn finish<S: ScenarioSpec<Probes = P>>(mut self, spec: &S) -> ScenarioRun<S::Output> {
        self.world.run_until(spec.stop_at());
        let output = spec.collect(&self.world, Some(&self.sysprof), &self.probes);
        ScenarioRun {
            world: self.world,
            sysprof: self.sysprof,
            output,
        }
    }
}

/// A workload scenario: seeded, fault-injectable, self-diagnosing. See
/// the [module docs](self) for the contract and what the kit provides.
pub trait ScenarioSpec: Sized {
    /// The scenario's typed result (serializable so report formats are
    /// pinned by golden snapshots).
    type Output: Serialize + std::fmt::Debug;

    /// What [`spawn`](ScenarioSpec::spawn) hands to
    /// [`collect`](ScenarioSpec::collect): counters shared with the
    /// spawned programs, pids to look up.
    type Probes;

    /// Stable scenario name (bench ids, chaos-matrix labels).
    fn name(&self) -> &'static str;

    /// Adds the scenario's nodes and links to `nodes` (the GPA's node
    /// included) and places the monitor on them.
    fn topology(&self, nodes: WorldBuilder) -> (WorldBuilder, Placement);

    /// The monitor configuration the scenario deploys with.
    fn monitor_config(&self) -> MonitorConfig {
        MonitorConfig::default()
    }

    /// Spawns the scenario's programs into the built world. `monitor` is
    /// the deployment, `None` on an unmonitored run; only a program that
    /// consumes the monitor's output (RA-DWCS's load feed) looks at it.
    fn spawn(&self, world: &mut World, monitor: Option<&SysProf>) -> Self::Probes;

    /// The simulated instant the run stops at.
    fn stop_at(&self) -> SimTime;

    /// Reads the scenario's output off the finished world and its probes.
    fn collect(
        &self,
        world: &World,
        monitor: Option<&SysProf>,
        probes: &Self::Probes,
    ) -> Self::Output;

    /// Renders the GPA's attribution for this run.
    fn diagnose(&self, run: &ScenarioRun<Self::Output>) -> Diagnosis;

    /// [`run_under`](ScenarioSpec::run_under) with no faults.
    fn run(&self, seed: u64) -> ScenarioRun<Self::Output> {
        self.run_under(seed, FaultPlan::default())
    }

    /// Builds the world, deploys SysProf with the scenario's own
    /// configuration, runs the workload to its stop time under `faults`,
    /// and returns the finished run.
    fn run_under(&self, seed: u64, faults: FaultPlan) -> ScenarioRun<Self::Output> {
        self.run_with(seed, faults, self.monitor_config())
    }

    /// [`run_under`](ScenarioSpec::run_under) with the caller's monitor
    /// configuration in place of the scenario's.
    fn run_with(
        &self,
        seed: u64,
        faults: FaultPlan,
        config: MonitorConfig,
    ) -> ScenarioRun<Self::Output> {
        self.stage(seed, faults, config).finish(self)
    }

    /// Builds, deploys and spawns, and stops there.
    fn stage(&self, seed: u64, faults: FaultPlan, config: MonitorConfig) -> Staged<Self::Probes> {
        let (mut world, placement) = build(self, seed, faults);
        let sysprof = SysProf::deploy(&mut world, &placement.monitored, placement.gpa, config);
        let probes = self.spawn(&mut world, Some(&sysprof));
        Staged {
            world,
            sysprof,
            probes,
        }
    }

    /// The same world with no monitor deployed (the GPA's node idles):
    /// every instrumentation point takes the suppressed path.
    fn run_unmonitored(&self, seed: u64) -> (World, Self::Output) {
        let (mut world, _) = build(self, seed, FaultPlan::default());
        let probes = self.spawn(&mut world, None);
        world.run_until(self.stop_at());
        let output = self.collect(&world, None, &probes);
        (world, output)
    }
}

/// Adds `n` default nodes named `{name}0`, `{name}1`, ….
pub(crate) fn named_nodes(mut nodes: WorldBuilder, name: &str, n: usize) -> WorldBuilder {
    for i in 0..n {
        nodes = nodes.node(&format!("{name}{i}"));
    }
    nodes
}

/// How every topology but Iperf's closes: the GPA's node added last, and
/// everything on one gigabit LAN.
pub(crate) fn on_gigabit_lan(
    nodes: WorldBuilder,
    monitored: Vec<NodeId>,
    gpa: NodeId,
) -> (WorldBuilder, Placement) {
    let nodes = nodes.node("gpa").full_mesh(LinkSpec::gigabit_lan());
    (nodes, Placement { monitored, gpa })
}

fn build<S: ScenarioSpec>(spec: &S, seed: u64, faults: FaultPlan) -> (World, Placement) {
    let (nodes, placement) = spec.topology(WorldBuilder::new(seed));
    let world = nodes.faults(faults).build().expect("scenario topology");
    (world, placement)
}

/// The `p`-th percentile of an unsorted sample of microsecond latencies
/// (nearest-rank). Returns 0 for an empty sample.
pub(crate) fn percentile_us(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

// ---------------------------------------------------------------------
// The retrying ping-pong link
// ---------------------------------------------------------------------

/// The one timer token of the retry tick; a program's other timers must
/// use different tokens.
const TOK_RETRY: u64 = 0xC11E;

struct InFlight<T> {
    msg_id: u64,
    bytes: u64,
    kind: u32,
    last_tx: SimTime,
    tag: T,
}

/// One outbound ping-pong flow: a peer, the socket to it once connected,
/// and at most one request in flight, retransmitted under the same
/// message id until its response arrives. `T` is whatever the owner wants
/// back when it does (the key fetched, the client waiting).
pub(crate) struct Link<T = ()> {
    peer: NodeId,
    port: Port,
    sock: Option<SocketId>,
    ready: bool,
    in_flight: Option<InFlight<T>>,
}

impl<T> Link<T> {
    pub(crate) fn new(peer: NodeId, port: Port) -> Self {
        Link {
            peer,
            port,
            sock: None,
            ready: false,
            in_flight: None,
        }
    }

    /// Opens the connection (from `on_start`).
    pub(crate) fn connect(&mut self, ctx: &mut ProcCtx<'_>) {
        self.sock = Some(ctx.connect(self.peer, self.port));
    }

    /// True if `sock` is this link's socket.
    pub(crate) fn owns(&self, sock: SocketId) -> bool {
        self.sock == Some(sock)
    }

    /// From `on_connected`: if `sock` is this link's, it is now usable.
    pub(crate) fn connected(&mut self, sock: SocketId) -> bool {
        self.ready |= self.owns(sock);
        self.owns(sock)
    }

    /// Connected, whether or not a request is in flight.
    pub(crate) fn ready(&self) -> bool {
        self.ready
    }

    /// A request is awaiting its response.
    pub(crate) fn busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Sends a fresh request on a ready link. One still in flight is
    /// abandoned: its response will no longer be accepted.
    pub(crate) fn send(&mut self, ctx: &mut ProcCtx<'_>, bytes: u64, kind: u32, tag: T) {
        let sock = self.sock.expect("ready implies connected");
        let msg_id = ctx.send(sock, bytes, kind);
        self.in_flight = Some(InFlight {
            msg_id,
            bytes,
            kind,
            last_tx: ctx.now(),
            tag,
        });
    }

    /// Offers a message that arrived on this link's socket: the in-flight
    /// request's tag if it is the response (the request is then done),
    /// `None` for a duplicate of one already accepted.
    pub(crate) fn accept(&mut self, msg: &Message) -> Option<T> {
        let done = self.in_flight.take_if(|f| f.msg_id == msg.msg_id);
        Some(done?.tag)
    }

    /// Retransmits the in-flight request if it has waited `after`.
    fn retry_due(&mut self, ctx: &mut ProcCtx<'_>, after: SimDuration) -> bool {
        let (Some(sock), Some(f)) = (self.sock, self.in_flight.as_mut()) else {
            return false;
        };
        if ctx.now().saturating_since(f.last_tx) < after {
            return false;
        }
        ctx.send_with_id(sock, f.bytes, f.kind, f.msg_id);
        f.last_tx = ctx.now();
        true
    }
}

/// Arms the retry tick `after` from now: once, from `on_start` (or from
/// wherever the program issues its first request).
pub(crate) fn arm_retry(ctx: &mut ProcCtx<'_>, after: SimDuration) {
    ctx.sleep(after, TOK_RETRY);
}

/// The body of `on_timer` for a program with links: on the retry tick,
/// retransmits every link whose request has waited `after` (in the order
/// given) and re-arms; returns the retransmits issued. Any other token is
/// left to the caller.
pub(crate) fn retry_tick<'a, T: 'a>(
    ctx: &mut ProcCtx<'_>,
    token: u64,
    after: SimDuration,
    links: impl IntoIterator<Item = &'a mut Link<T>>,
) -> u64 {
    if token != TOK_RETRY {
        return 0;
    }
    let retries = links
        .into_iter()
        .map(|l| l.retry_due(ctx, after) as u64)
        .sum();
    arm_retry(ctx, after);
    retries
}

// ---------------------------------------------------------------------
// Shared closed-loop client
// ---------------------------------------------------------------------

/// Counters shared between every [`ZipfClient`] of one scenario and the
/// collect that reads them after the run.
#[derive(Default)]
pub(crate) struct ClientStats {
    /// Requests completed (response matched the outstanding request).
    pub completed: u64,
    /// Retransmits issued after the retry timeout expired.
    pub retries: u64,
    /// Per-request latency samples, first-send to matching response, µs.
    pub latencies_us: Vec<u64>,
}

/// What a fleet of [`ZipfClient`]s asks for, and of whom.
#[derive(Clone)]
pub(crate) struct ZipfLoad {
    pub server: NodeId,
    pub port: Port,
    pub keys: usize,
    pub skew: f64,
    pub req_bytes: u64,
    pub kind_base: u32,
    pub deadline: SimTime,
    pub retry_after: SimDuration,
}

/// A closed-loop client drawing zipf-distributed keys: one outstanding
/// request at a time, the key encoded in the message `kind`
/// (`kind_base + key`), responses matched by message id. The [`Link`]
/// retransmits the outstanding request when the network eats it — the
/// loop survives loss.
struct ZipfClient {
    load: ZipfLoad,
    /// Tagged with when the request was first sent.
    link: Link<SimTime>,
    shared: Rc<RefCell<ClientStats>>,
}

/// Spawns one [`ZipfClient`] on each of nodes `0..clients`, named
/// `{name}{i}`; returns the counters they share.
pub(crate) fn spawn_zipf_clients(
    world: &mut World,
    clients: usize,
    name: &str,
    load: ZipfLoad,
) -> Rc<RefCell<ClientStats>> {
    let shared = Rc::new(RefCell::new(ClientStats::default()));
    for c in 0..clients {
        world.spawn(
            NodeId(c as u32),
            &format!("{name}{c}"),
            Box::new(ZipfClient {
                link: Link::new(load.server, load.port),
                load: load.clone(),
                shared: shared.clone(),
            }),
        );
    }
    shared
}

impl ZipfClient {
    fn issue(&mut self, ctx: &mut ProcCtx<'_>) {
        let key = ctx.rng().zipf(self.load.keys, self.load.skew);
        let kind = self.load.kind_base + key as u32;
        let first_tx = ctx.now();
        self.link.send(ctx, self.load.req_bytes, kind, first_tx);
    }
}

impl Program for ZipfClient {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        self.link.connect(ctx);
    }

    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        self.link.connected(sock);
        self.issue(ctx);
        arm_retry(ctx, self.load.retry_after);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, _sock: SocketId, msg: Message) {
        let Some(first_tx) = self.link.accept(&msg) else {
            return; // stale duplicate of an already-completed request
        };
        {
            let mut sh = self.shared.borrow_mut();
            sh.completed += 1;
            sh.latencies_us
                .push(ctx.now().saturating_since(first_tx).as_micros());
        }
        if ctx.now() >= self.load.deadline {
            ctx.exit();
        } else {
            self.issue(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        let retries = retry_tick(ctx, token, self.load.retry_after, [&mut self.link]);
        self.shared.borrow_mut().retries += retries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::programs::EchoServer;

    #[derive(Default)]
    struct Seen {
        completions: Vec<u32>,
        ignored: u64,
        retries: u64,
    }

    /// Issues `requests` echo requests one after another over a [`Link`],
    /// each tagged with its index.
    struct Pinger {
        link: Link<usize>,
        requests: usize,
        retry_after: SimDuration,
        seen: Rc<RefCell<Seen>>,
    }

    impl Program for Pinger {
        fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
            self.link.connect(ctx);
            arm_retry(ctx, self.retry_after);
        }

        fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
            assert!(self.link.connected(sock) && self.link.ready());
            self.link.send(ctx, 64, 7, 0);
        }

        fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
            assert!(self.link.owns(sock));
            let mut seen = self.seen.borrow_mut();
            let Some(i) = self.link.accept(&msg) else {
                seen.ignored += 1;
                return;
            };
            seen.completions[i] += 1;
            if i + 1 < self.requests {
                self.link.send(ctx, 64, 7, i + 1);
            }
        }

        fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
            let retries = retry_tick(ctx, token, self.retry_after, [&mut self.link]);
            self.seen.borrow_mut().retries += retries;
        }
    }

    /// The retry timeout is shorter than a round trip, so a request is
    /// often retransmitted while its response is on the way and then
    /// answered twice; the network loses 5% of everything on top.
    #[test]
    fn link_completes_every_request_exactly_once_under_loss() {
        let requests = 200;
        let mut world = WorldBuilder::new(7)
            .node("pinger")
            .node("echo")
            .full_mesh(LinkSpec::gigabit_lan())
            .faults(testkit::uniform_loss(0.05))
            .build()
            .expect("topology");
        let service = SimDuration::from_micros(50);
        world.spawn(
            NodeId(1),
            "echo",
            Box::new(EchoServer::new(Port(80), 64, service)),
        );
        let seen = Rc::new(RefCell::new(Seen {
            completions: vec![0; requests],
            ..Seen::default()
        }));
        world.spawn(
            NodeId(0),
            "pinger",
            Box::new(Pinger {
                link: Link::new(NodeId(1), Port(80)),
                requests,
                retry_after: SimDuration::from_micros(150),
                seen: seen.clone(),
            }),
        );
        world.run_until(SimTime::from_secs(2));

        let seen = seen.borrow();
        assert_eq!(seen.completions, vec![1; requests], "exactly once each");
        assert!(seen.retries > 0, "loss and the short timeout force retries");
        assert!(seen.ignored > 0, "duplicate responses were offered");
        let faults = world.network().fault_stats();
        assert!(faults.injected_losses > 0, "{faults:?}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![10, 20, 30, 40, 50];
        assert_eq!(percentile_us(&mut v, 50.0), 30);
        assert_eq!(percentile_us(&mut v, 95.0), 50);
        assert_eq!(percentile_us(&mut v, 100.0), 50);
        assert_eq!(percentile_us(&mut [], 50.0), 0);
    }

    #[test]
    fn diagnosis_renders_deterministically() {
        let d = Diagnosis {
            verdict: "hot shard 0".into(),
            evidence: vec!["a".into(), "b".into()],
        };
        assert_eq!(format!("{d}"), "hot shard 0\n  - a\n  - b\n");
    }
}
