//! The simulation driver: the global event loop and the kernel logic of
//! every node.
//!
//! All kernel activity — scheduling, syscalls, packet movement, disk I/O —
//! happens in [`World::handle`], and every instrumented step calls
//! [`World::emit_ev`], which (a) timestamps the event with the node's NTP
//! wall clock, (b) dispatches it to subscribed analyzers, and (c) charges
//! the emission cost to the node's CPU. Monitoring is therefore never
//! free: it perturbs exactly the system it observes.
//!
//! This file holds the types, the builder and `World`'s accessors; the
//! kernel logic is `impl World` blocks in `calendar` (event loop, `emit_ev`,
//! `steal`), `sched` (dispatch, quanta, syscall and delivery effects), `net`
//! (transmit to sink) and `lifecycle` (spawn, crash, restart).

use bytes::Bytes;
use kprof::{AnalyzerId, Kprof, Pid};
use simcore::hash::HashMap;
use simcore::{EventQueue, NodeId, SimDuration, SimRng, SimTime};
use simnet::{
    ClockSpec, EndPoint, FaultPlan, FlowKey, LinkSpec, Network, NetworkBuilder, Packet, Port,
    TopologyError,
};

use crate::node::{Node, NodeStats};
use crate::process::PendingWork;
use crate::program::{Action, Message};
use crate::socket::SocketId;
use crate::DiskSpec;

mod calendar;
mod lifecycle;
mod net;
mod sched;

/// CPU-time category charged by [`World::steal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuCat {
    Irq,
    Monitor,
}

/// What a CPU quantum is doing (stored in the running slot).
#[derive(Debug)]
pub(crate) enum QuantumKind {
    /// User-mode compute (one timeslice of it).
    Compute,
    /// Executing a syscall op; its effect applies at quantum end.
    Syscall(Action),
    /// Delivering kernel→program work; the program callback runs at end.
    Deliver(PendingWork),
}

/// Global calendar events.
enum Ev {
    Dispatch {
        node: NodeId,
    },
    QuantumEnd {
        node: NodeId,
    },
    PacketArrival {
        node: NodeId,
        packet: Packet,
    },
    RxStackDone {
        node: NodeId,
        packet: Packet,
    },
    NicTxDone {
        node: NodeId,
        packet: Packet,
    },
    DiskDone {
        node: NodeId,
        pid: Pid,
        token: u64,
        bytes: u64,
    },
    TimerFire {
        node: NodeId,
        pid: Pid,
        token: u64,
    },
    ConnEstablished {
        node: NodeId,
        pid: Pid,
        sock: SocketId,
    },
    ConnRetry {
        node: NodeId,
        pid: Pid,
        sock: SocketId,
        remote: NodeId,
        port: Port,
        attempt: u32,
    },
    DaemonWake {
        node: NodeId,
        analyzer: Option<AnalyzerId>,
    },
    NodeCrash {
        node: NodeId,
    },
    NodeRestart {
        node: NodeId,
    },
}

impl Ev {
    /// The node an event acts on (used to gate events against crashed
    /// nodes).
    fn target(&self) -> NodeId {
        match self {
            Ev::Dispatch { node }
            | Ev::QuantumEnd { node }
            | Ev::PacketArrival { node, .. }
            | Ev::RxStackDone { node, .. }
            | Ev::NicTxDone { node, .. }
            | Ev::DiskDone { node, .. }
            | Ev::TimerFire { node, .. }
            | Ev::ConnEstablished { node, .. }
            | Ev::ConnRetry { node, .. }
            | Ev::DaemonWake { node, .. }
            | Ev::NodeCrash { node }
            | Ev::NodeRestart { node } => *node,
        }
    }
}

/// A message a kernel component (sink or daemon) wants sent.
#[derive(Debug)]
pub struct KernelSend {
    /// Destination endpoint (its node is resolved by IP).
    pub dst: EndPoint,
    /// Source port on the sending node.
    pub src_port: Port,
    /// Application-level kind discriminant.
    pub kind: u32,
    /// Payload carried out-of-band to the receiving sink. A refcounted
    /// [`Bytes`], so a sender that also buffers the wire for
    /// retransmission shares one allocation with the in-flight copy.
    pub data: Bytes,
}

/// Output of a kernel sink or daemon-hook invocation.
#[derive(Debug, Default)]
pub struct KernelOutput {
    /// CPU time consumed (charged as monitoring overhead).
    pub cost: SimDuration,
    /// Messages to transmit.
    pub sends: Vec<KernelSend>,
    /// For daemon hooks: schedule another (periodic) wake this far in the
    /// future. Ignored for sinks.
    pub rearm_after: Option<SimDuration>,
}

/// A kernel-level message consumer bound to a port — the receive side of
/// the kernel publish/subscribe channels the dissemination daemon uses.
pub trait KernelSink {
    /// Handles one complete message addressed to the sink's port.
    fn on_message(
        &mut self,
        now_wall: SimTime,
        node: NodeId,
        src: EndPoint,
        msg: Message,
        data: Bytes,
    ) -> KernelOutput;
}

/// The dissemination daemon's kernel half: woken on buffer-full
/// notifications (and on explicit schedules), with access to the node's
/// Kprof registry to drain analyzer buffers.
pub trait DaemonHook {
    /// Handles one wakeup. `analyzer` is the analyzer whose buffer filled,
    /// or `None` for a periodic wake.
    fn on_wake(
        &mut self,
        now_wall: SimTime,
        node: NodeId,
        analyzer: Option<AnalyzerId>,
        kprof: &mut Kprof,
        stats: &NodeStats,
    ) -> KernelOutput;

    /// [`KernelSink::on_message`] for the port the hook was installed on,
    /// with the node's Kprof. The default ignores the message.
    fn on_message(
        &mut self,
        _now_wall: SimTime,
        _node: NodeId,
        _src: EndPoint,
        _msg: Message,
        _data: Bytes,
        _kprof: &mut Kprof,
    ) -> KernelOutput {
        KernelOutput::default()
    }
}

/// Builds a [`World`]: topology plus each node's disk and clock.
///
/// # Example
///
/// ```
/// use simcore::NodeId;
/// use simnet::LinkSpec;
/// use simos::WorldBuilder;
///
/// let world = WorldBuilder::new(7)
///     .node("a")
///     .node("b")
///     .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
///     .build()?;
/// assert_eq!(world.node_count(), 2);
/// # Ok::<(), simnet::TopologyError>(())
/// ```
pub struct WorldBuilder {
    seed: u64,
    net: NetworkBuilder,
    disks: Vec<DiskSpec>,
    faults: Option<FaultPlan>,
}

impl WorldBuilder {
    /// Starts a builder with the experiment seed.
    pub fn new(seed: u64) -> Self {
        WorldBuilder {
            seed,
            net: NetworkBuilder::new(),
            disks: Vec::new(),
            faults: None,
        }
    }

    /// Installs a deterministic fault plan: link loss/jitter/duplication/
    /// reordering, timed partitions, and node crash/restart schedules. The
    /// injector draws from an RNG forked off the experiment seed, so two
    /// builds with the same seed and plan replay bit-identically.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Adds a node with the default disk and a perfect clock.
    #[must_use]
    pub fn node(self, name: &str) -> Self {
        self.node_with(name, DiskSpec::default(), ClockSpec::PERFECT)
    }

    /// Adds a node with its own disk and clock; the rest is [`crate::cost`].
    #[must_use]
    pub fn node_with(mut self, name: &str, disk: DiskSpec, clock: ClockSpec) -> Self {
        self.net = self.net.node_with_clock(name, clock);
        self.disks.push(disk);
        self
    }

    /// Links two nodes.
    #[must_use]
    pub fn link(mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> Self {
        self.net = self.net.link(a, b, spec);
        self
    }

    /// Links every pair of nodes with the same spec.
    #[must_use]
    pub fn full_mesh(mut self, spec: LinkSpec) -> Self {
        self.net = self.net.full_mesh(spec);
        self
    }

    /// Builds the world.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] for invalid topologies.
    pub fn build(self) -> Result<World, TopologyError> {
        let mut net = self.net.build()?;
        let nodes: Vec<Node> = self
            .disks
            .into_iter()
            .enumerate()
            .map(|(i, disk)| Node::new(NodeId(i as u32), disk))
            .collect();
        let mut rng = SimRng::seed(self.seed);
        let mut queue = EventQueue::new();
        if let Some(plan) = self.faults {
            for cs in &plan.crashes {
                queue.schedule(cs.crash_at, Ev::NodeCrash { node: cs.node });
                if let Some(t) = cs.restart_at {
                    queue.schedule(t, Ev::NodeRestart { node: cs.node });
                }
            }
            // Fork the injector's stream before any process forks so the
            // per-process streams stay aligned across fault configurations.
            let fault_rng = rng.fork(0xFA17_7BAD);
            net.install_faults(plan, fault_rng);
        }
        let down = vec![false; nodes.len()];
        Ok(World {
            queue,
            reached: SimTime::ZERO,
            net,
            nodes,
            down,
            rng,
            next_pid: 1,
            next_packet: 1,
            sinks: HashMap::default(),
            daemon_hooks: HashMap::default(),
            inflight_data: HashMap::default(),
            actions: Vec::new(),
        })
    }
}

/// The running simulation: topology, kernels, processes, calendar.
pub struct World {
    queue: EventQueue<Ev>,
    /// The latest instant a `run_until` ran to; where `run_for` measures
    /// from. [`World::now`] stays the time of the last event fired.
    reached: SimTime,
    net: Network,
    nodes: Vec<Node>,
    /// Per-node crashed flag; events targeting a down node are discarded.
    down: Vec<bool>,
    rng: SimRng,
    next_pid: u32,
    next_packet: u64,
    sinks: HashMap<(NodeId, Port), Box<dyn KernelSink>>,
    /// Each node's daemon hook and the port it answers on, if any.
    daemon_hooks: HashMap<NodeId, (Option<Port>, Box<dyn DaemonHook>)>,
    /// Out-of-band payloads of sink-bound messages in flight, keyed by
    /// (rx flow, msg id) — unique, since a node numbers its own messages.
    /// The entry goes when the message is delivered.
    inflight_data: HashMap<(FlowKey, u64), Bytes>,
    /// Scratch for the actions one program callback queues.
    actions: Vec<Action>,
}

impl World {
    /// Current (true) simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The node-local wall clock reading at the current instant.
    pub fn wall(&self, node: NodeId) -> SimTime {
        self.net.clock(node).wall(self.now())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The network (for link statistics, RTT estimates, addressing).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Installs a kernel sink on `node:port` (the receive side of a
    /// monitoring channel). Replaces any previous sink on that port; the
    /// port of `node`'s daemon hook is refused (a panic).
    pub fn install_sink(&mut self, node: NodeId, port: Port, sink: Box<dyn KernelSink>) {
        let hook_port = self.daemon_hooks.get(&node).and_then(|(port, _)| *port);
        assert_ne!(hook_port, Some(port), "the daemon hook answers on it");
        self.nodes[node.0 as usize].sink_ports.insert(port);
        self.sinks.insert((node, port), sink);
    }

    /// Installs the dissemination-daemon hook for `node`. Messages to
    /// `port`, if given, go to its [`DaemonHook::on_message`] as they would
    /// to a sink there; a port with a sink is refused (a panic).
    pub fn set_daemon_hook(&mut self, node: NodeId, port: Option<Port>, hook: Box<dyn DaemonHook>) {
        if let Some(port) = port {
            let taken = self.sinks.contains_key(&(node, port));
            assert!(!taken, "a sink answers on it");
            self.nodes[node.0 as usize].sink_ports.insert(port);
        }
        self.daemon_hooks.insert(node, (port, hook));
    }

    /// Schedules a periodic-style daemon wake on `node` after `delay`.
    pub fn schedule_daemon_wake(&mut self, node: NodeId, delay: SimDuration) {
        let t = self.now() + delay;
        self.queue.schedule(
            t,
            Ev::DaemonWake {
                node,
                analyzer: None,
            },
        );
    }

    /// Opts a process into ARM-style request tagging: its network events
    /// will carry the application message id as a correlator, letting the
    /// LPA separate interleaved requests (the paper's "ARM support"
    /// escape hatch). Returns false if the process does not exist.
    pub fn enable_arm(&mut self, node: NodeId, pid: Pid) -> bool {
        let n = &mut self.nodes[node.0 as usize];
        let Some(p) = n.procs.get_mut(&pid) else {
            return false;
        };
        if !p.arm_enabled {
            p.arm_enabled = true;
            n.arm_procs += 1;
            for s in n.sockets.values_mut().filter(|s| s.owner == pid) {
                s.owner_arm = true;
            }
        }
        true
    }

    /// Borrows a node's Kprof registry (to register analyzers, set masks,
    /// read monitoring stats).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn kprof(&self, node: NodeId) -> &Kprof {
        &self.nodes[node.0 as usize].kprof
    }

    /// Mutably borrows a node's Kprof registry.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn kprof_mut(&mut self, node: NodeId) -> &mut Kprof {
        &mut self.nodes[node.0 as usize].kprof
    }

    /// A node's observable counters.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_stats(&self, node: NodeId) -> NodeStats {
        self.nodes[node.0 as usize].stats
    }

    /// Cumulative (user, kernel) CPU time of a process, if it exists.
    pub fn process_times(&self, node: NodeId, pid: Pid) -> Option<(SimDuration, SimDuration)> {
        self.nodes[node.0 as usize]
            .procs
            .get(&pid)
            .map(|p| (p.user_time, p.kernel_time))
    }

    /// When a process exited, if it has.
    pub fn process_exit_time(&self, node: NodeId, pid: Pid) -> Option<SimTime> {
        self.nodes[node.0 as usize]
            .procs
            .get(&pid)
            .and_then(|p| p.exited_at)
    }

    /// Whether a process has exited.
    pub fn process_exited(&self, node: NodeId, pid: Pid) -> bool {
        self.nodes[node.0 as usize]
            .procs
            .get(&pid)
            .map(|p| p.is_exited())
            .unwrap_or(true)
    }

    /// The disk of a node (for utilization inspection).
    pub fn disk(&self, node: NodeId) -> &crate::Disk {
        &self.nodes[node.0 as usize].disk
    }

    /// Injects a disk fault on `node`: seek time and per-request overhead
    /// multiply by `factor`, transfer rate divides by it. `factor = 1.0`
    /// restores nominal service. Used to reproduce the "detect failures"
    /// scenario of §3.2.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn degrade_disk(&mut self, node: NodeId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bad degradation factor {factor}"
        );
        self.nodes[node.0 as usize].disk.degrade(factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    pub(super) use crate::programs::{
        BulkSender, ComputeLoop, EchoServer, OneShotSender, SinkServer,
    };
    use crate::{ProcCtx, Program};
    pub(super) use kprof::{CountingAnalyzer, EventMask};

    pub(super) fn two_nodes(seed: u64) -> World {
        WorldBuilder::new(seed)
            .node("a")
            .node("b")
            .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
            .build()
            .expect("valid topology")
    }

    /// A node's settable values, all five (a disk's three, a clock's two),
    /// destructured with no `..`: a sixth fails to compile here until this
    /// test and DESIGN §3, item 2, count it.
    #[test]
    fn a_node_has_five_settable_values() {
        let DiskSpec {
            seek,
            transfer_bps,
            overhead,
        } = DiskSpec::default();
        let ClockSpec {
            offset_ns,
            drift_ppm,
        } = ClockSpec::PERFECT;
        assert_eq!((seek.as_millis(), overhead.as_micros()), (8, 200));
        assert_eq!(transfer_bps, 55_000_000);
        assert_eq!((offset_ns, drift_ppm), (0, 0.0));
    }

    #[test]
    fn wall_clocks_differ_with_skew() {
        let mut w = WorldBuilder::new(14)
            .node("sync")
            .node_with(
                "skewed",
                DiskSpec::default(),
                ClockSpec {
                    offset_ns: 300_000,
                    drift_ppm: 0.0,
                },
            )
            .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
            .build()
            .unwrap();
        w.spawn(
            NodeId(0),
            "burn",
            Box::new(ComputeLoop::new(
                SimDuration::from_millis(5),
                SimDuration::from_millis(5),
            )),
        );
        w.run_until(SimTime::from_millis(50));
        let a = w.wall(NodeId(0));
        let b = w.wall(NodeId(1));
        assert_eq!(b.saturating_since(a), SimDuration::from_micros(300));
    }

    #[test]
    fn degrade_disk_slows_new_requests() {
        struct TwoWrites {
            times: std::rc::Rc<std::cell::RefCell<Vec<SimTime>>>,
        }
        impl Program for TwoWrites {
            fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
                ctx.write_file(kprof::FileId(1), 64 * 1024, true, 1);
            }
            fn on_io_done(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
                self.times.borrow_mut().push(ctx.now());
                if token == 1 {
                    ctx.write_file(kprof::FileId(1), 64 * 1024, true, 2);
                } else {
                    ctx.exit();
                }
            }
        }
        let times = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut w = two_nodes(21);
        w.spawn(
            NodeId(0),
            "writer",
            Box::new(TwoWrites {
                times: times.clone(),
            }),
        );
        // Degrade immediately: both writes pay the degraded costs; compare
        // against a healthy run instead.
        let mut healthy = two_nodes(21);
        let healthy_times = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        healthy.spawn(
            NodeId(0),
            "writer",
            Box::new(TwoWrites {
                times: healthy_times.clone(),
            }),
        );
        w.degrade_disk(NodeId(0), 10.0);
        w.run_until(SimTime::from_secs(5));
        healthy.run_until(SimTime::from_secs(5));
        let slow = times.borrow()[0];
        let fast = healthy_times.borrow()[0];
        assert!(
            slow > fast + SimDuration::from_millis(20),
            "degraded {slow} vs healthy {fast}"
        );
    }
}
