//! The simulation driver: the global event loop and the kernel logic of
//! every node.
//!
//! All kernel activity — scheduling, syscalls, packet movement, disk I/O —
//! happens in [`World::handle`], and every instrumented step calls
//! [`World::emit_ev`], which (a) timestamps the event with the node's NTP
//! wall clock, (b) dispatches it to subscribed analyzers, and (c) charges
//! the emission cost to the node's CPU. Monitoring is therefore never
//! free: it perturbs exactly the system it observes.

use bytes::Bytes;
use kprof::{AnalyzerId, BlockReason, EventPayload, GroupId, Kprof, NetPoint, Pid, SyscallKind};
use simcore::hash::HashMap;
use simcore::{CalendarStats, EventQueue, NodeId, SimDuration, SimRng, SimTime};
use simnet::{
    ClockSpec, EndPoint, FaultPlan, FlowKey, LinkSpec, NetOutcome, Network, NetworkBuilder, Packet,
    PacketId, PayloadTag, Port, TopologyError,
};

use crate::node::{Node, NodeLanes, NodeStats, RunningQuantum};
use crate::process::{PendingWork, ProcState, Process};
use crate::program::{Action, Callback, Message, ProcCtx, Program};
use crate::socket::{Socket, SocketId};
use crate::NodeConfig;

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
}

/// Builds a [`World`]: topology plus per-node OS configuration.
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
    configs: Vec<NodeConfig>,
    faults: Option<FaultPlan>,
}

impl WorldBuilder {
    /// Starts a builder with the experiment seed.
    pub fn new(seed: u64) -> Self {
        WorldBuilder {
            seed,
            net: NetworkBuilder::new(),
            configs: Vec::new(),
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

    /// Adds a node with default OS config and a perfect clock.
    #[must_use]
    pub fn node(mut self, name: &str) -> Self {
        self.net = self.net.node(name);
        self.configs.push(NodeConfig::default());
        self
    }

    /// Adds a node with explicit OS config and clock model.
    #[must_use]
    pub fn node_with(mut self, name: &str, config: NodeConfig, clock: ClockSpec) -> Self {
        self.net = self.net.node_with_clock(name, clock);
        self.configs.push(config);
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
        let mut queue = EventQueue::new();
        let nodes: Vec<Node> = self
            .configs
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| {
                let lanes = NodeLanes {
                    rx_stack: queue.lane(),
                    nic_tx: queue.lane(),
                    wire: queue.lane(),
                };
                Node::new(NodeId(i as u32), cfg, lanes)
            })
            .collect();
        let mut rng = SimRng::seed(self.seed);
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
            conn_setup_delay: SimDuration::from_micros(200),
        })
    }
}

/// The running simulation: topology, kernels, processes, calendar.
pub struct World {
    queue: EventQueue<Ev>,
    net: Network,
    nodes: Vec<Node>,
    /// Per-node crashed flag; events targeting a down node are discarded.
    down: Vec<bool>,
    rng: SimRng,
    next_pid: u32,
    next_packet: u64,
    sinks: HashMap<(NodeId, Port), Box<dyn KernelSink>>,
    daemon_hooks: HashMap<NodeId, Box<dyn DaemonHook>>,
    /// Out-of-band payloads of sink-bound messages in flight, keyed by
    /// (rx flow, msg id) — unique, since a node numbers its own messages.
    /// The entry goes when the message is delivered.
    inflight_data: HashMap<(FlowKey, u64), Bytes>,
    /// Scratch for the actions one program callback queues.
    actions: Vec<Action>,
    conn_setup_delay: SimDuration,
}

impl World {
    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

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

    /// Spawns a user-level process running `program` on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn spawn(&mut self, node: NodeId, name: &str, program: Box<dyn Program>) -> Pid {
        self.spawn_with(node, name, program, GroupId(0), false, None)
    }

    /// Spawns a process in a specific process group (the paper's predicate
    /// dimension).
    pub fn spawn_in_group(
        &mut self,
        node: NodeId,
        name: &str,
        program: Box<dyn Program>,
        gid: GroupId,
    ) -> Pid {
        self.spawn_with(node, name, program, gid, false, None)
    }

    /// Spawns a kernel daemon (like the in-kernel NFS server): all its CPU
    /// time counts as kernel time and message delivery skips the user copy.
    pub fn spawn_kernel_daemon(
        &mut self,
        node: NodeId,
        name: &str,
        program: Box<dyn Program>,
    ) -> Pid {
        self.spawn_with(node, name, program, GroupId(0), true, None)
    }

    fn spawn_with(
        &mut self,
        node: NodeId,
        name: &str,
        program: Box<dyn Program>,
        gid: GroupId,
        kernel_daemon: bool,
        parent: Option<Pid>,
    ) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let rng = self.rng.fork(pid.0 as u64);
        let mut proc = Process::new(pid, gid, name.to_owned(), program, rng);
        proc.kernel_daemon = kernel_daemon;
        let now = self.now();
        let n = &mut self.nodes[node.0 as usize];
        n.procs.insert(pid, proc);
        n.runq.push_back(pid);
        self.emit_ev(node, EventPayload::ProcessCreate { pid, parent, gid });
        self.try_dispatch(node, now);
        pid
    }

    /// Installs a kernel sink on `node:port` (the receive side of a
    /// monitoring channel). Replaces any previous sink on that port.
    pub fn install_sink(&mut self, node: NodeId, port: Port, sink: Box<dyn KernelSink>) {
        self.nodes[node.0 as usize].sink_ports.insert(port);
        self.sinks.insert((node, port), sink);
    }

    /// Installs the dissemination-daemon hook for `node`.
    pub fn set_daemon_hook(&mut self, node: NodeId, hook: Box<dyn DaemonHook>) {
        self.daemon_hooks.insert(node, hook);
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

    /// The ARM correlator for a packet on `flow`, if the process that owns
    /// the matching socket opted in.
    fn arm_of_flow(&self, node: NodeId, flow: FlowKey, msg_id: u64) -> Option<u64> {
        let n = &self.nodes[node.0 as usize];
        if n.arm_procs == 0 {
            return None;
        }
        // Inbound events carry the rx flow directly; outbound events
        // carry the tx flow, whose socket is keyed by its reverse.
        n.flows
            .get(&flow)
            .or_else(|| n.flows.get(&flow.reversed()))
            .and_then(|sid| n.sockets.get(sid))
            .filter(|s| s.owner_arm)
            .map(|_| msg_id)
    }

    /// The ARM correlator for a message `pid` itself sends or receives.
    fn arm_of_proc(&self, node: NodeId, pid: Pid, msg_id: u64) -> Option<u64> {
        let n = &self.nodes[node.0 as usize];
        if n.arm_procs == 0 {
            return None;
        }
        n.procs.get(&pid).filter(|p| p.arm_enabled).map(|_| msg_id)
    }

    /// What the event calendar has done so far: exact counts of events
    /// scheduled, fired, cancelled and stretched in place, and of the heap
    /// traffic that took.
    pub fn calendar_stats(&self) -> CalendarStats {
        self.queue.stats()
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
        let nominal = self.nodes[node.0 as usize].config.disk;
        let disk = &mut self.nodes[node.0 as usize].disk;
        disk.set_spec(crate::DiskSpec {
            seek: nominal.seek.mul_f64(factor),
            transfer_bps: ((nominal.transfer_bps as f64 / factor) as u64).max(1),
            overhead: nominal.overhead.mul_f64(factor),
        });
    }

    /// Whether `node` is currently crashed.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.down[node.0 as usize]
    }

    /// Fail-stop crash of `node` at the current instant: the CPU halts
    /// mid-quantum, every process dies without running exit handlers, and
    /// all kernel state (sockets, listeners, partially assembled messages,
    /// device queues) is lost. In-flight packets addressed to the node are
    /// discarded on arrival and counted in
    /// [`NodeStats::crash_drops`](crate::NodeStats). No-op if already down.
    ///
    /// Crashes can also be scheduled declaratively via
    /// [`FaultPlan`](simnet::FaultPlan) and [`WorldBuilder::faults`].
    pub fn crash_node(&mut self, node: NodeId) {
        let now = self.now();
        self.do_crash(node, now);
    }

    /// Restarts a crashed `node` at the current instant: the node comes
    /// back with empty kernel tables but its Kprof registry and daemon
    /// hook intact (a warm monitoring-stack restart), and the daemon's
    /// periodic wake chain is re-kicked. No-op if the node is up.
    pub fn restart_node(&mut self, node: NodeId) {
        let now = self.now();
        self.do_restart(node, now);
    }

    fn do_crash(&mut self, node: NodeId, now: SimTime) {
        if self.down[node.0 as usize] {
            return;
        }
        self.down[node.0 as usize] = true;
        let ip = self.net.node_ip(node);
        let running = self.nodes[node.0 as usize].running.take();
        if let Some(rq) = running {
            self.queue.cancel(rq.end_handle);
        }
        let n = &mut self.nodes[node.0 as usize];
        n.runq.clear();
        n.dispatch_pending = false;
        n.last_pid = None;
        // Dead processes are unreachable (no sockets, no listeners, never
        // scheduled), so their opt-in goes with them.
        n.arm_procs = 0;
        for p in n.procs.values_mut() {
            p.arm_enabled = false;
            if !p.is_exited() {
                // Power loss: no exit events, no reaping — the process
                // just stops existing.
                p.state = ProcState::Exited;
                p.ops.clear();
                p.pending.clear();
                p.remaining_compute = SimDuration::ZERO;
                p.exited_at = Some(now);
            }
        }
        n.sockets.clear();
        n.flows.clear();
        n.listeners.clear();
        n.sink_socks.clear();
        n.tx_waiters.clear();
        n.tx_queue_bytes = 0;
        n.rx_backlog = 0;
        n.softirq_busy_until = SimTime::ZERO;
        n.cpu_busy_until = SimTime::ZERO;
        // Partially received sink payloads vanish with the node's memory.
        self.inflight_data.retain(|(flow, _), _| flow.dst.ip != ip);
    }

    fn do_restart(&mut self, node: NodeId, now: SimTime) {
        if !self.down[node.0 as usize] {
            return;
        }
        self.down[node.0 as usize] = false;
        // The daemon's periodic wake chain died with the node; re-kick it
        // after a short boot delay so dissemination resumes.
        if self.daemon_hooks.contains_key(&node) {
            self.queue.schedule(
                now + SimDuration::from_millis(1),
                Ev::DaemonWake {
                    node,
                    analyzer: None,
                },
            );
        }
    }

    /// Sends a message from kernel context (no process) on `node` to a
    /// remote endpoint, carrying `data` to the receiving kernel sink.
    /// Returns the message id. The transmission consumes real simulated
    /// bandwidth and CPU (charged as monitoring overhead).
    pub fn kernel_send(
        &mut self,
        node: NodeId,
        src_port: Port,
        dst: EndPoint,
        kind: u32,
        data: impl Into<Bytes>,
    ) -> u64 {
        let data = data.into();
        let now = self.now();
        let n = &mut self.nodes[node.0 as usize];
        let msg_id = n.next_msg;
        n.next_msg += 1;
        let src = EndPoint::new(self.net.node_ip(node), src_port);
        let flow = FlowKey::new(src, dst);
        let bytes = data.len() as u64;
        self.inflight_data.insert((flow, msg_id), data);
        self.transmit_message(node, flow, msg_id, kind, bytes, None, now, true);
        msg_id
    }

    /// Runs the simulation until the calendar is exhausted.
    pub fn run(&mut self) {
        while let Some((now, ev)) = self.queue.pop() {
            self.handle(now, ev);
        }
    }

    /// Runs the simulation until (true) time `t`. Events at exactly `t`
    /// are processed.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            self.handle(now, ev);
        }
    }

    /// Runs for a further duration of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now() + d;
        self.run_until(t);
    }

    // ------------------------------------------------------------------
    // Monitoring plumbing
    // ------------------------------------------------------------------

    /// Emits a Kprof event on `node` at the current instant: wall-stamps
    /// it, dispatches to analyzers, charges the cost, and schedules daemon
    /// wakes for any buffer-full notifications.
    fn emit_ev(&mut self, node: NodeId, payload: EventPayload) {
        let now = self.now();
        let wall = self.net.clock(node).wall(now);
        let n = &mut self.nodes[node.0 as usize];
        let ev = n.kprof.make_event(wall, 0, payload);
        let result = n.kprof.emit(&ev);
        self.steal(node, now, result.cost, CpuCat::Monitor);
        for analyzer in result.buffer_full {
            self.queue.schedule(
                now + SimDuration::from_micros(10),
                Ev::DaemonWake {
                    node,
                    analyzer: Some(analyzer),
                },
            );
        }
    }

    /// Charges `cost` of CPU time on `node` at `now`: stretches the
    /// running quantum (preemption) or extends the idle-CPU busy horizon.
    fn steal(&mut self, node: NodeId, now: SimTime, cost: SimDuration, cat: CpuCat) {
        if cost.is_zero() {
            return;
        }
        let n = &mut self.nodes[node.0 as usize];
        match cat {
            CpuCat::Irq => n.stats.cpu.irq += cost,
            CpuCat::Monitor => n.stats.cpu.monitor += cost,
        }
        if let Some(rq) = n.running.as_mut() {
            rq.stolen += cost;
            rq.end_time += cost;
            // Stretch the pending QuantumEnd in place: observably a cancel
            // + schedule, without the heap push per instrumentation hit.
            rq.end_handle = self
                .queue
                .defer(rq.end_handle, rq.end_time)
                .expect("a running quantum's end is pending");
        } else {
            n.cpu_busy_until = n.cpu_busy_until.max(now) + cost;
        }
    }

    // ------------------------------------------------------------------
    // Scheduler
    // ------------------------------------------------------------------

    /// Ensures a Dispatch event is pending if the CPU could start work.
    fn try_dispatch(&mut self, node: NodeId, now: SimTime) {
        let n = &mut self.nodes[node.0 as usize];
        if n.running.is_some() || n.dispatch_pending || n.runq.is_empty() {
            return;
        }
        n.dispatch_pending = true;
        let at = now.max(n.cpu_busy_until);
        self.queue.schedule(at, Ev::Dispatch { node });
    }

    /// The Dispatch handler: picks the next runnable process and starts a
    /// quantum. Processes that turn out to be idle are blocked in place.
    fn dispatch(&mut self, node: NodeId, now: SimTime) {
        {
            let n = &mut self.nodes[node.0 as usize];
            n.dispatch_pending = false;
            if n.running.is_some() {
                return;
            }
            if now < n.cpu_busy_until {
                // Interrupt work arrived since this dispatch was scheduled.
                let at = n.cpu_busy_until;
                n.dispatch_pending = true;
                self.queue.schedule(at, Ev::Dispatch { node });
                return;
            }
        }

        loop {
            let Some(pid) = self.nodes[node.0 as usize].runq.pop_front() else {
                // Nothing runnable: CPU goes idle.
                let n = &mut self.nodes[node.0 as usize];
                if let Some(last) = n.last_pid.take() {
                    self.emit_ev(
                        node,
                        EventPayload::ContextSwitch {
                            from: Some(last),
                            to: None,
                        },
                    );
                }
                return;
            };

            // A process that blocked in place or is gone yields to the
            // next runnable one.
            if let Some((kind, work, syscall)) = self.next_quantum(node, pid) {
                self.start_quantum(node, pid, now, kind, work, syscall);
                return;
            }
        }
    }

    /// Starts one quantum for `pid` (which [`World::next_quantum`] already
    /// marked running).
    fn start_quantum(
        &mut self,
        node: NodeId,
        pid: Pid,
        now: SimTime,
        kind: QuantumKind,
        work: SimDuration,
        syscall: Option<SyscallKind>,
    ) {
        let n = &mut self.nodes[node.0 as usize];
        let from = n.last_pid;
        let switching = from != Some(pid);
        let mut total = work;
        if switching {
            let context_switch = n.config.costs.context_switch;
            total += context_switch;
            n.stats.cpu.kernel += context_switch;
            n.stats.context_switches += 1;
            n.last_pid = Some(pid);
        }
        let end_time = now + total;
        let handle = self.queue.schedule(end_time, Ev::QuantumEnd { node });
        n.running = Some(RunningQuantum {
            pid,
            end_handle: handle,
            end_time,
            kind,
            work,
            stolen: SimDuration::ZERO,
        });
        if switching {
            self.emit_ev(
                node,
                EventPayload::ContextSwitch {
                    from,
                    to: Some(pid),
                },
            );
        }
        if let Some(kind) = syscall {
            self.emit_ev(node, EventPayload::SyscallEntry { pid, kind });
        }
    }

    /// Decides what `pid` does next and marks it running, or blocks it in
    /// place (`None`, also for a process that is gone) when it has nothing
    /// to do. One process-table probe: everything the decision reads hangs
    /// off the process or the node.
    fn next_quantum(
        &mut self,
        node: NodeId,
        pid: Pid,
    ) -> Option<(QuantumKind, SimDuration, Option<SyscallKind>)> {
        let n = &mut self.nodes[node.0 as usize];
        let cfg = &n.config.costs;
        let p = n.procs.get_mut(&pid).filter(|p| !p.is_exited())?;
        let blocked_on = loop {
            // Resume preempted compute first.
            if !p.remaining_compute.is_zero() {
                p.state = ProcState::Running;
                let work = p.remaining_compute.min(cfg.timeslice);
                return Some((QuantumKind::Compute, work, None));
            }

            // Next queued op. Sends block first on tx backpressure.
            if matches!(p.ops.front(), Some(Action::Send { .. }))
                && n.tx_queue_bytes >= cfg.socket_tx_bytes
            {
                n.tx_waiters.push(pid);
                break BlockReason::SocketSend;
            }
            if let Some(op) = p.ops.pop_front() {
                let (work, syscall) = match &op {
                    Action::Compute(d) => {
                        p.remaining_compute = *d;
                        continue; // resume-compute branch picks it up
                    }
                    Action::Send { bytes, .. } => {
                        let packets = Packet::count_for_payload(*bytes);
                        (
                            cfg.syscall_base + cfg.copy_cost(*bytes) + cfg.tx_stack * packets,
                            SyscallKind::Send,
                        )
                    }
                    Action::Listen { .. } => (cfg.syscall_base, SyscallKind::Open),
                    Action::Connect { .. } => (cfg.syscall_base * 2, SyscallKind::Open),
                    Action::Close { .. } => (cfg.syscall_base, SyscallKind::Close),
                    Action::FileRead { bytes, .. } => {
                        (cfg.syscall_base + cfg.copy_cost(*bytes), SyscallKind::Read)
                    }
                    Action::FileWrite { bytes, .. } => {
                        (cfg.syscall_base + cfg.copy_cost(*bytes), SyscallKind::Write)
                    }
                    Action::Sleep { .. } => (cfg.syscall_base, SyscallKind::Sleep),
                    Action::Spawn { .. } => (SimDuration::from_micros(50), SyscallKind::Fork),
                    Action::Exit => (cfg.syscall_base, SyscallKind::Exit),
                };
                p.state = ProcState::Running;
                return Some((QuantumKind::Syscall(op), work, Some(syscall)));
            }

            // Pending kernel→program work.
            if let Some(item) = p.pending.pop_front() {
                let (work, syscall) = match item {
                    PendingWork::MsgReady(sock) => {
                        match n.sockets.get(&sock).and_then(|s| s.peek_ready()) {
                            Some((msg, npackets)) => {
                                let cost = if p.kernel_daemon {
                                    cfg.syscall_base
                                } else {
                                    cfg.syscall_base
                                        + cfg.rx_deliver * npackets as u64
                                        + cfg.copy_cost(msg.bytes)
                                };
                                (cost, Some(SyscallKind::Recv))
                            }
                            // Stale notification (socket closed or message
                            // already consumed): skip it and look again.
                            None => continue,
                        }
                    }
                    PendingWork::Start
                    | PendingWork::Connected(_)
                    | PendingWork::IoDone(_)
                    | PendingWork::Timer(_) => (cfg.syscall_base, None),
                };
                p.state = ProcState::Running;
                return Some((QuantumKind::Deliver(item), work, syscall));
            }

            // Nothing to do: block waiting for events.
            break BlockReason::SocketRecv;
        };
        p.state = ProcState::Blocked(blocked_on);
        self.emit_ev(
            node,
            EventPayload::ProcessBlock {
                pid,
                reason: blocked_on,
            },
        );
        None
    }

    /// QuantumEnd handler: account the work, apply the op/deliver effect,
    /// requeue or block the process, and dispatch the next quantum.
    fn quantum_end(&mut self, node: NodeId, now: SimTime) {
        let n = &mut self.nodes[node.0 as usize];
        let Some(rq) = n.running.take() else {
            return; // stale (cancelled) event
        };
        let pid = rq.pid;
        let work = rq.work;
        let proc = n.procs.get_mut(&pid).expect("running process exists");
        proc.state = ProcState::Runnable;

        match rq.kind {
            QuantumKind::Compute => {
                if proc.kernel_daemon {
                    n.stats.cpu.kernel += work;
                    proc.kernel_time += work;
                } else {
                    n.stats.cpu.user += work;
                    proc.user_time += work;
                }
                proc.remaining_compute = proc.remaining_compute.saturating_sub(work);
                // Round-robin: preempted compute goes to the back; a
                // finished compute continues promptly at the front.
                if proc.remaining_compute.is_zero() {
                    n.runq.push_front(pid);
                } else {
                    n.runq.push_back(pid);
                }
            }
            QuantumKind::Syscall(op) => {
                n.stats.cpu.kernel += work;
                proc.kernel_time += work;
                if let Some(kind) = syscall_kind_of(&op) {
                    self.emit_ev(
                        node,
                        EventPayload::SyscallExit {
                            pid,
                            kind,
                            kernel_time: work,
                        },
                    );
                }
                // An exit reports itself as blocked, so a process that is
                // not blocked here is still alive.
                let blocked = self.apply_op(node, pid, op, now);
                if !blocked {
                    self.nodes[node.0 as usize].runq.push_front(pid);
                }
            }
            QuantumKind::Deliver(item) => {
                n.stats.cpu.kernel += work;
                proc.kernel_time += work;
                if matches!(item, PendingWork::MsgReady(_)) {
                    self.emit_ev(
                        node,
                        EventPayload::SyscallExit {
                            pid,
                            kind: SyscallKind::Recv,
                            kernel_time: work,
                        },
                    );
                }
                // A callback only queues actions; it cannot end the process.
                self.apply_deliver(node, pid, item);
                self.nodes[node.0 as usize].runq.push_front(pid);
            }
        }
        self.try_dispatch(node, now);
    }

    // ------------------------------------------------------------------
    // Syscall effects
    // ------------------------------------------------------------------

    /// Applies a completed syscall op. Returns true if the process blocked.
    fn apply_op(&mut self, node: NodeId, pid: Pid, op: Action, now: SimTime) -> bool {
        match op {
            Action::Compute(_) => unreachable!("compute is not a syscall"),
            Action::Send {
                sock,
                bytes,
                msg_id,
                kind,
            } => {
                let flow = {
                    let n = &self.nodes[node.0 as usize];
                    match n.sockets.get(&sock) {
                        Some(s) => s.tx_flow(),
                        None => return false, // closed socket: send discarded
                    }
                };
                self.nodes[node.0 as usize].stats.bytes_sent += bytes;
                self.transmit_message(node, flow, msg_id, kind, bytes, Some(pid), now, false);
                false
            }
            Action::Listen { port } => {
                self.nodes[node.0 as usize].listeners.insert(port, pid);
                false
            }
            Action::Connect {
                sock,
                node: remote,
                port,
            } => {
                self.apply_connect(node, pid, sock, remote, port, now);
                false
            }
            Action::Close { sock } => {
                let n = &mut self.nodes[node.0 as usize];
                if let Some(s) = n.sockets.get_mut(&sock) {
                    s.closed = true;
                    let rx = s.rx_flow();
                    n.flows.remove(&rx);
                }
                false
            }
            Action::FileRead { file, bytes, token } => {
                self.file_io(node, pid, file, bytes, token, false, now)
            }
            Action::FileWrite {
                file,
                bytes,
                sync,
                token,
            } => {
                if sync {
                    self.file_io(node, pid, file, bytes, token, true, now)
                } else {
                    // Buffered write: page-cache copy already charged.
                    self.emit_file_open_once(node, pid, file);
                    self.emit_ev(node, EventPayload::FileWrite { pid, file, bytes });
                    self.nodes[node.0 as usize]
                        .procs
                        .get_mut(&pid)
                        .expect("process exists")
                        .pending
                        .push_back(PendingWork::IoDone(token));
                    false
                }
            }
            Action::Sleep { duration, token } => {
                self.block(node, pid, BlockReason::Sleep);
                self.queue
                    .schedule(now + duration, Ev::TimerFire { node, pid, token });
                true
            }
            Action::Spawn { program, name } => {
                let gid = self.nodes[node.0 as usize]
                    .procs
                    .get(&pid)
                    .map(|p| p.gid)
                    .unwrap_or(GroupId(0));
                self.spawn_with(node, &name, program, gid, false, Some(pid));
                false
            }
            Action::Exit => {
                self.apply_exit(node, pid);
                true
            }
        }
    }

    fn apply_connect(
        &mut self,
        node: NodeId,
        pid: Pid,
        sock: SocketId,
        remote: NodeId,
        port: Port,
        now: SimTime,
    ) {
        self.try_connect(node, pid, sock, remote, port, now, 0);
    }

    /// Attempts connection establishment; if nothing is listening yet the
    /// SYN is retried (like TCP SYN retransmission, with a short simulated
    /// timer), giving servers spawned in the same instant time to listen.
    #[allow(clippy::too_many_arguments)]
    fn try_connect(
        &mut self,
        node: NodeId,
        pid: Pid,
        sock: SocketId,
        remote: NodeId,
        port: Port,
        now: SimTime,
        attempt: u32,
    ) {
        let remote_ip = self.net.node_ip(remote);
        let remote_ep = EndPoint::new(remote_ip, port);
        let listener = self.nodes[remote.0 as usize].listeners.get(&port).copied();
        let Some(listener) = listener else {
            assert!(
                attempt < 10,
                "connect to {remote_ep}: nothing is listening after {attempt} SYN retries"
            );
            self.queue.schedule(
                now + SimDuration::from_millis(5),
                Ev::ConnRetry {
                    node,
                    pid,
                    sock,
                    remote,
                    port,
                    attempt: attempt + 1,
                },
            );
            return;
        };

        let local_ip = self.net.node_ip(node);
        let local_port = self.nodes[node.0 as usize].alloc_ephemeral();
        let local_ep = EndPoint::new(local_ip, local_port);

        // Local half.
        {
            let n = &mut self.nodes[node.0 as usize];
            let s = n.new_socket(sock, pid, local_ep, remote_ep);
            n.flows.insert(s.rx_flow(), sock);
            n.sockets.insert(sock, s);
        }

        // Remote half.
        {
            let rn = &mut self.nodes[remote.0 as usize];
            let rsock = rn.alloc_sock();
            let s = rn.new_socket(rsock, listener, remote_ep, local_ep);
            rn.flows.insert(s.rx_flow(), rsock);
            rn.sockets.insert(rsock, s);
        }

        // Handshake latency before the client may send.
        let delay = self
            .net
            .estimated_rtt(node, remote)
            .unwrap_or(self.conn_setup_delay);
        self.queue
            .schedule(now + delay, Ev::ConnEstablished { node, pid, sock });
    }

    /// Synchronous file I/O: charge the disk and block the caller.
    #[allow(clippy::too_many_arguments)]
    fn file_io(
        &mut self,
        node: NodeId,
        pid: Pid,
        file: kprof::FileId,
        bytes: u64,
        token: u64,
        write: bool,
        now: SimTime,
    ) -> bool {
        self.emit_file_open_once(node, pid, file);
        if write {
            self.emit_ev(node, EventPayload::FileWrite { pid, file, bytes });
        } else {
            self.emit_ev(node, EventPayload::FileRead { pid, file, bytes });
        }
        let disk_id = kprof::DiskId(0);
        self.emit_ev(
            node,
            EventPayload::BlockIoStart {
                disk: disk_id,
                bytes,
                pid: Some(pid),
            },
        );
        let done = self.nodes[node.0 as usize].disk.submit(now, bytes);
        self.block(node, pid, BlockReason::DiskIo);
        self.queue.schedule(
            done,
            Ev::DiskDone {
                node,
                pid,
                token,
                bytes,
            },
        );
        true
    }

    fn emit_file_open_once(&mut self, node: NodeId, pid: Pid, file: kprof::FileId) {
        if self.nodes[node.0 as usize].opened.insert((pid, file)) {
            self.emit_ev(node, EventPayload::FileOpen { pid, file });
        }
    }

    fn apply_exit(&mut self, node: NodeId, pid: Pid) {
        {
            let n = &mut self.nodes[node.0 as usize];
            let socks: Vec<SocketId> = n
                .sockets
                .iter()
                .filter(|(_, s)| s.owner == pid)
                .map(|(id, _)| *id)
                .collect();
            for sid in socks {
                if let Some(s) = n.sockets.get_mut(&sid) {
                    s.closed = true;
                    let rx = s.rx_flow();
                    n.flows.remove(&rx);
                }
            }
            if let Some(p) = n.procs.get_mut(&pid) {
                p.state = ProcState::Exited;
                p.ops.clear();
                p.pending.clear();
                p.exited_at = Some(self.queue.now());
            }
        }
        self.emit_ev(node, EventPayload::ProcessExit { pid });
    }

    fn block(&mut self, node: NodeId, pid: Pid, reason: BlockReason) {
        if let Some(p) = self.nodes[node.0 as usize].procs.get_mut(&pid) {
            p.state = ProcState::Blocked(reason);
        }
        self.emit_ev(node, EventPayload::ProcessBlock { pid, reason });
    }

    fn wake(&mut self, node: NodeId, pid: Pid, now: SimTime) {
        self.post(node, pid, None, now);
    }

    /// Queues kernel→program work for `pid` (`times` copies of it) and
    /// wakes the process if it was blocked, on one process-table probe.
    fn post(&mut self, node: NodeId, pid: Pid, work: Option<(PendingWork, usize)>, now: SimTime) {
        let n = &mut self.nodes[node.0 as usize];
        // A dead process takes no work and cannot wake.
        let Some(p) = n.procs.get_mut(&pid).filter(|p| !p.is_exited()) else {
            return;
        };
        if let Some((item, times)) = work {
            p.pending.extend(std::iter::repeat_n(item, times));
        }
        if matches!(p.state, ProcState::Blocked(_)) {
            p.state = ProcState::Runnable;
            n.runq.push_back(pid);
            self.emit_ev(node, EventPayload::ProcessWake { pid });
            self.try_dispatch(node, now);
        }
    }

    // ------------------------------------------------------------------
    // Deliver effects (program callbacks)
    // ------------------------------------------------------------------

    fn apply_deliver(&mut self, node: NodeId, pid: Pid, item: PendingWork) {
        let callback = match item {
            PendingWork::Start => Callback::Start,
            PendingWork::Connected(sock) => Callback::Connected { sock },
            PendingWork::IoDone(token) => Callback::IoDone { token },
            PendingWork::Timer(token) => Callback::Timer { token },
            PendingWork::MsgReady(sock) => {
                let n = &mut self.nodes[node.0 as usize];
                let Some(s) = n.sockets.get_mut(&sock) else {
                    return;
                };
                let Some((msg, packets, _first_enqueue)) = s.take_ready() else {
                    return;
                };
                let flow = s.rx_flow();
                n.stats.bytes_received += msg.bytes;
                n.stats.messages_delivered += 1;
                // The user copy: per-packet delivery events.
                let (kernel_daemon, arm_enabled) = n
                    .procs
                    .get(&pid)
                    .map_or((false, false), |p| (p.kernel_daemon, p.arm_enabled));
                if !kernel_daemon {
                    let arm = arm_enabled.then_some(msg.msg_id);
                    for (pkt_id, size) in &packets {
                        self.emit_ev(
                            node,
                            EventPayload::Net {
                                point: NetPoint::RxDeliverUser,
                                flow,
                                packet: *pkt_id,
                                size: *size,
                                pid: Some(pid),
                                arm,
                            },
                        );
                    }
                }
                Callback::Message { sock, msg }
            }
        };
        self.invoke_program(node, pid, callback);
    }

    /// Runs a program callback and queues the actions it asks for.
    fn invoke_program(&mut self, node: NodeId, pid: Pid, cb: Callback) {
        let wall = self.wall(node);
        let n = &mut self.nodes[node.0 as usize];
        let Some(proc) = n.procs.get_mut(&pid) else {
            return;
        };
        let Some(program) = proc.program.as_mut() else {
            return;
        };
        let mut ctx = ProcCtx::new(
            &mut self.actions,
            &mut proc.rng,
            wall,
            n.id,
            &mut n.next_sock,
            &mut n.next_msg,
        );
        match cb {
            Callback::Start => program.on_start(&mut ctx),
            Callback::Message { sock, msg } => program.on_message(&mut ctx, sock, msg),
            Callback::Connected { sock } => program.on_connected(&mut ctx, sock),
            Callback::IoDone { token } => program.on_io_done(&mut ctx, token),
            Callback::Timer { token } => program.on_timer(&mut ctx, token),
        }
        // Socket ids pre-allocated by connect() must exist before the op
        // is applied; apply_connect creates them, so just queue.
        proc.ops.extend(self.actions.drain(..));
    }

    // ------------------------------------------------------------------
    // Network paths
    // ------------------------------------------------------------------

    /// Segments and transmits an application message. `kernel` marks
    /// monitoring traffic (cost charged as monitor; no TxFromUser event).
    #[allow(clippy::too_many_arguments)]
    fn transmit_message(
        &mut self,
        node: NodeId,
        flow: FlowKey,
        msg_id: u64,
        kind: u32,
        bytes: u64,
        pid: Option<Pid>,
        now: SimTime,
        kernel: bool,
    ) {
        if self.down[node.0 as usize] {
            // A crashed node transmits nothing.
            return;
        }
        let Some(dst_node) = self.net.node_by_ip(flow.dst.ip) else {
            return;
        };
        let npackets = Packet::count_for_payload(bytes);
        let tag = PayloadTag::new(msg_id, kind, bytes);
        let arm = pid.and_then(|pid| self.arm_of_proc(node, pid, msg_id));
        let mut remaining = bytes;
        if kernel {
            let tx_stack = self.nodes[node.0 as usize].config.costs.tx_stack;
            self.steal(node, now, tx_stack * npackets, CpuCat::Monitor);
        }
        for _ in 0..npackets {
            let payload = remaining.min(Packet::MAX_PAYLOAD as u64) as u32;
            remaining = remaining.saturating_sub(payload as u64);
            let packet = Packet {
                id: PacketId(self.next_packet),
                flow,
                size: payload + Packet::HEADER_BYTES,
                payload: tag,
            };
            self.next_packet += 1;
            if !kernel {
                self.emit_ev(
                    node,
                    EventPayload::Net {
                        point: NetPoint::TxFromUser,
                        flow,
                        packet: packet.id,
                        size: packet.size,
                        pid,
                        arm,
                    },
                );
            }
            self.emit_ev(
                node,
                EventPayload::Net {
                    point: NetPoint::TxDeviceQueue,
                    flow,
                    packet: packet.id,
                    size: packet.size,
                    pid,
                    arm,
                },
            );
            self.nodes[node.0 as usize].stats.packets_out += 1;

            if dst_node == node {
                // Loopback: deliver after a tiny fixed delay.
                self.queue.schedule(
                    now + SimDuration::from_micros(5),
                    Ev::PacketArrival { node, packet },
                );
                self.queue.schedule(now, Ev::NicTxDone { node, packet });
                self.nodes[node.0 as usize].tx_queue_bytes += packet.size as u64;
                continue;
            }

            match self
                .net
                .transmit_with_faults(now, node, dst_node, packet.size as u64)
                .expect("topology routes all app traffic")
            {
                NetOutcome::Sent {
                    departure,
                    arrivals,
                } => {
                    let n = &mut self.nodes[node.0 as usize];
                    n.tx_queue_bytes += packet.size as u64;
                    let lanes = n.lanes;
                    self.queue
                        .schedule_in(lanes.nic_tx, departure, Ev::NicTxDone { node, packet });
                    // One arrival per surviving copy. None at all is a
                    // silent in-flight loss: the sender paid the full
                    // transmit cost and learns nothing.
                    for arrival in arrivals.into_iter().flatten() {
                        self.queue.schedule_in(
                            lanes.wire,
                            arrival,
                            Ev::PacketArrival {
                                node: dst_node,
                                packet,
                            },
                        );
                    }
                }
                NetOutcome::QueueDrop => {
                    self.emit_ev(
                        node,
                        EventPayload::Net {
                            point: NetPoint::Drop,
                            flow,
                            packet: packet.id,
                            size: packet.size,
                            pid,
                            arm,
                        },
                    );
                }
            }
        }
    }

    fn nic_tx_done(&mut self, node: NodeId, packet: Packet, now: SimTime) {
        let arm = self.arm_of_flow(node, packet.flow, packet.payload.msg_id);
        self.emit_ev(
            node,
            EventPayload::Net {
                point: NetPoint::TxNicDone,
                flow: packet.flow,
                packet: packet.id,
                size: packet.size,
                pid: None,
                arm,
            },
        );
        let n = &mut self.nodes[node.0 as usize];
        n.tx_queue_bytes = n.tx_queue_bytes.saturating_sub(packet.size as u64);
        if n.tx_queue_bytes < n.config.costs.socket_tx_bytes / 2 && !n.tx_waiters.is_empty() {
            for pid in std::mem::take(&mut n.tx_waiters) {
                self.wake(node, pid, now);
            }
        }
    }

    fn packet_arrival(&mut self, node: NodeId, packet: Packet, now: SimTime) {
        let n = &mut self.nodes[node.0 as usize];
        let (rx_irq, rx_stack) = (n.config.costs.rx_irq, n.config.costs.rx_stack);
        n.stats.packets_in += 1;
        if n.rx_backlog >= n.config.costs.rx_ring_packets {
            n.stats.ring_drops += 1;
            // NIC ring overflow: silently dropped by hardware — the
            // kernel never sees it, so no Kprof event fires. This is
            // the receive-livelock regime.
            return;
        }
        n.rx_backlog += 1;
        let arm = self.arm_of_flow(node, packet.flow, packet.payload.msg_id);
        self.emit_ev(
            node,
            EventPayload::Net {
                point: NetPoint::RxNic,
                flow: packet.flow,
                packet: packet.id,
                size: packet.size,
                pid: None,
                arm,
            },
        );
        self.steal(node, now, rx_irq, CpuCat::Irq);
        // Softirq protocol processing pipeline.
        let n = &mut self.nodes[node.0 as usize];
        let done = now.max(n.softirq_busy_until) + rx_stack;
        n.softirq_busy_until = done;
        self.steal(node, now, rx_stack, CpuCat::Irq);
        let lane = self.nodes[node.0 as usize].lanes.rx_stack;
        self.queue
            .schedule_in(lane, done, Ev::RxStackDone { node, packet });
    }

    fn rx_stack_done(&mut self, node: NodeId, packet: Packet, now: SimTime) {
        let wall = self.wall(node);
        let n = &mut self.nodes[node.0 as usize];
        n.rx_backlog = n.rx_backlog.saturating_sub(1);

        let flow = packet.flow;
        // 1. Established socket? One probe each of the flow, socket and
        //    process tables: the socket takes the packet first, and what
        //    that did is reported afterwards in the original order.
        if let Some(&sid) = n.flows.get(&flow) {
            let sock = n
                .sockets
                .get_mut(&sid)
                .expect("a flow names a socket until the node crashes");
            let owner = sock.owner;
            let arm = (n.arm_procs > 0 && sock.owner_arm).then_some(packet.payload.msg_id);
            let ready_before = sock.ready_count();
            let accepted = sock.offer(packet, wall);
            let newly_ready = sock.ready_count() - ready_before;
            if !accepted {
                n.stats.socket_drops += 1;
            }
            self.emit_ev(
                node,
                EventPayload::Net {
                    point: NetPoint::RxSocketBuffer,
                    flow,
                    packet: packet.id,
                    size: packet.size,
                    pid: Some(owner),
                    arm,
                },
            );
            if !accepted {
                self.emit_ev(
                    node,
                    EventPayload::Net {
                        point: NetPoint::Drop,
                        flow,
                        packet: packet.id,
                        size: packet.size,
                        pid: Some(owner),
                        arm,
                    },
                );
            } else if newly_ready > 0 {
                let ready = (PendingWork::MsgReady(sid), newly_ready);
                self.post(node, owner, Some(ready), now);
            }
            return;
        }

        // 2. Kernel sink port?
        if n.sink_ports.contains(&flow.dst.port) {
            self.sink_ingest(node, packet, now);
            return;
        }

        // 3. Listener without an established flow (data racing ahead of the
        //    connect bookkeeping, or connectionless sends): auto-accept.
        if let Some(&listener) = n.listeners.get(&flow.dst.port) {
            let sid = n.alloc_sock();
            let s = n.new_socket(sid, listener, flow.dst, flow.src);
            n.flows.insert(flow, sid);
            n.sockets.insert(sid, s);
            // Re-run as an established flow.
            self.rx_stack_done(node, packet, now);
            return;
        }

        // 4. Nowhere to go.
        self.emit_ev(
            node,
            EventPayload::Net {
                point: NetPoint::Drop,
                flow,
                packet: packet.id,
                size: packet.size,
                pid: None,
                arm: None,
            },
        );
    }

    fn sink_ingest(&mut self, node: NodeId, packet: Packet, now: SimTime) {
        let flow = packet.flow;
        self.emit_ev(
            node,
            EventPayload::Net {
                point: NetPoint::RxSocketBuffer,
                flow,
                packet: packet.id,
                size: packet.size,
                pid: None,
                arm: None,
            },
        );
        let wall = self.wall(node);
        let n = &mut self.nodes[node.0 as usize];
        let rx_capacity = n.config.costs.socket_rx_bytes.max(16 * 1024 * 1024);
        let sock = n.sink_socks.entry(flow).or_insert_with(|| {
            Socket::new(SocketId(u64::MAX), Pid(0), flow.dst, flow.src, rx_capacity)
        });
        if !sock.offer(packet, wall) {
            n.stats.socket_drops += 1;
            return;
        }
        // A packet completes at most its own message, and the queue is
        // emptied after every offer.
        let Some((msg, ..)) = sock.take_ready() else {
            return;
        };
        debug_assert_eq!(sock.ready_count(), 0);
        // A late duplicate of a delivered message finds no payload left.
        let data = self
            .inflight_data
            .remove(&(flow, msg.msg_id))
            .unwrap_or_default();
        if let Some(sink) = self.sinks.get_mut(&(node, flow.dst.port)) {
            let out = sink.on_message(wall, node, flow.src, msg, data);
            self.apply_kernel_output(node, out, now);
        }
    }

    fn apply_kernel_output(&mut self, node: NodeId, out: KernelOutput, now: SimTime) {
        self.steal(node, now, out.cost, CpuCat::Monitor);
        for send in out.sends {
            self.kernel_send(node, send.src_port, send.dst, send.kind, send.data);
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, ev: Ev) {
        if self.down[ev.target().0 as usize] {
            match ev {
                // Restarts (and only restarts) act on a down node.
                Ev::NodeRestart { node } => self.do_restart(node, now),
                // The NIC is powered off: packets addressed to a crashed
                // node vanish, observable only via the counter.
                Ev::PacketArrival { node, .. } => {
                    self.nodes[node.0 as usize].stats.crash_drops += 1;
                }
                // Everything else scheduled before the crash is stale.
                _ => {}
            }
            return;
        }
        match ev {
            Ev::Dispatch { node } => self.dispatch(node, now),
            Ev::QuantumEnd { node } => self.quantum_end(node, now),
            Ev::PacketArrival { node, packet } => self.packet_arrival(node, packet, now),
            Ev::RxStackDone { node, packet } => self.rx_stack_done(node, packet, now),
            Ev::NicTxDone { node, packet } => self.nic_tx_done(node, packet, now),
            Ev::DiskDone {
                node,
                pid,
                token,
                bytes,
            } => {
                self.emit_ev(
                    node,
                    EventPayload::BlockIoComplete {
                        disk: kprof::DiskId(0),
                        bytes,
                        pid: Some(pid),
                    },
                );
                self.post(node, pid, Some((PendingWork::IoDone(token), 1)), now);
            }
            Ev::TimerFire { node, pid, token } => {
                self.post(node, pid, Some((PendingWork::Timer(token), 1)), now);
            }
            Ev::ConnRetry {
                node,
                pid,
                sock,
                remote,
                port,
                attempt,
            } => {
                self.try_connect(node, pid, sock, remote, port, now, attempt);
            }
            Ev::ConnEstablished { node, pid, sock } => {
                self.post(node, pid, Some((PendingWork::Connected(sock), 1)), now);
            }
            Ev::DaemonWake { node, analyzer } => {
                let wall = self.wall(node);
                if let Some(hook) = self.daemon_hooks.get_mut(&node) {
                    let n = &mut self.nodes[node.0 as usize];
                    let stats = n.stats;
                    let out = hook.on_wake(wall, node, analyzer, &mut n.kprof, &stats);
                    if let Some(delay) = out.rearm_after {
                        self.queue.schedule(
                            now + delay,
                            Ev::DaemonWake {
                                node,
                                analyzer: None,
                            },
                        );
                    }
                    self.apply_kernel_output(node, out, now);
                }
            }
            Ev::NodeCrash { node } => self.do_crash(node, now),
            Ev::NodeRestart { node } => self.do_restart(node, now),
        }
    }
}

fn syscall_kind_of(op: &Action) -> Option<SyscallKind> {
    match op {
        Action::Compute(_) => None,
        Action::Send { .. } => Some(SyscallKind::Send),
        Action::Listen { .. } => Some(SyscallKind::Open),
        Action::Connect { .. } => Some(SyscallKind::Open),
        Action::Close { .. } => Some(SyscallKind::Close),
        Action::FileRead { .. } => Some(SyscallKind::Read),
        Action::FileWrite { .. } => Some(SyscallKind::Write),
        Action::Sleep { .. } => Some(SyscallKind::Sleep),
        Action::Spawn { .. } => Some(SyscallKind::Fork),
        Action::Exit => Some(SyscallKind::Exit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Message;
    use crate::programs::{BulkSender, ComputeLoop, EchoServer, OneShotSender, SinkServer};
    use kprof::{CountingAnalyzer, EventMask};

    fn two_nodes(seed: u64) -> World {
        WorldBuilder::new(seed)
            .node("a")
            .node("b")
            .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
            .build()
            .expect("valid topology")
    }

    #[test]
    fn one_shot_message_is_delivered() {
        let mut w = two_nodes(1);
        w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(80))));
        w.spawn(
            NodeId(0),
            "sender",
            Box::new(OneShotSender::new(NodeId(1), Port(80), 50_000)),
        );
        w.run_until(SimTime::from_secs(1));
        let stats = w.node_stats(NodeId(1));
        assert_eq!(stats.bytes_received, 50_000);
        assert_eq!(stats.messages_delivered, 1);
        assert!(stats.packets_in >= 35, "50 KB needs many packets");
        assert_eq!(w.node_stats(NodeId(0)).bytes_sent, 50_000);
    }

    #[test]
    fn echo_round_trip_completes() {
        struct Client {
            done: bool,
        }
        impl Program for Client {
            fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
                ctx.connect(NodeId(1), Port(80));
            }
            fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
                ctx.send(sock, 1000, 0);
            }
            fn on_message(&mut self, ctx: &mut ProcCtx<'_>, _sock: SocketId, msg: Message) {
                assert_eq!(msg.bytes, 200, "echo reply size");
                self.done = true;
                ctx.exit();
            }
        }
        let mut w = two_nodes(2);
        w.spawn(
            NodeId(1),
            "echo",
            Box::new(EchoServer::new(Port(80), 200, SimDuration::from_micros(50))),
        );
        let client = w.spawn(NodeId(0), "client", Box::new(Client { done: false }));
        w.run_until(SimTime::from_secs(1));
        assert!(w.process_exited(NodeId(0), client), "client got the reply");
        assert_eq!(w.node_stats(NodeId(0)).bytes_received, 200);
        assert_eq!(w.node_stats(NodeId(1)).bytes_received, 1000);
    }

    #[test]
    fn compute_loop_accumulates_user_time() {
        let mut w = two_nodes(3);
        let pid = w.spawn(
            NodeId(0),
            "burn",
            Box::new(ComputeLoop::new(
                SimDuration::from_millis(100),
                SimDuration::from_millis(10),
            )),
        );
        w.run_until(SimTime::from_secs(1));
        assert!(w.process_exited(NodeId(0), pid));
        let (user, _kernel) = w.process_times(NodeId(0), pid).unwrap();
        assert_eq!(user, SimDuration::from_millis(100));
        let stats = w.node_stats(NodeId(0));
        assert_eq!(stats.cpu.user, SimDuration::from_millis(100));
    }

    #[test]
    fn two_compute_processes_share_the_cpu_fairly() {
        let mut w = two_nodes(4);
        let a = w.spawn(
            NodeId(0),
            "a",
            Box::new(ComputeLoop::new(
                SimDuration::from_millis(50),
                SimDuration::from_millis(50),
            )),
        );
        let b = w.spawn(
            NodeId(0),
            "b",
            Box::new(ComputeLoop::new(
                SimDuration::from_millis(50),
                SimDuration::from_millis(50),
            )),
        );
        w.run_until(SimTime::from_secs(1));
        assert!(w.process_exited(NodeId(0), a));
        assert!(w.process_exited(NodeId(0), b));
        // Both ran to completion; total user time = 100ms and the node was
        // busy roughly 100ms (plus scheduling overhead).
        let stats = w.node_stats(NodeId(0));
        assert_eq!(stats.cpu.user, SimDuration::from_millis(100));
        assert!(stats.context_switches >= 4, "round-robin interleaving");
    }

    #[test]
    fn sync_file_write_blocks_for_disk_time() {
        struct Writer;
        impl Program for Writer {
            fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
                ctx.write_file(kprof::FileId(1), 1 << 20, true, 7);
            }
            fn on_io_done(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
                assert_eq!(token, 7);
                ctx.exit();
            }
        }
        let mut w = two_nodes(5);
        let pid = w.spawn(NodeId(0), "writer", Box::new(Writer));
        w.run_until(SimTime::from_secs(5));
        assert!(w.process_exited(NodeId(0), pid));
        let disk = w.disk(NodeId(0));
        assert_eq!(disk.requests(), 1);
        assert_eq!(disk.bytes(), 1 << 20);
        // 1 MB at ~55 MB/s plus seek: at least 18 ms of disk time passed.
        assert!(w.now() >= SimTime::from_millis(18), "now {}", w.now());
    }

    #[test]
    fn buffered_write_completes_without_disk() {
        struct Writer;
        impl Program for Writer {
            fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
                ctx.write_file(kprof::FileId(1), 1 << 20, false, 1);
            }
            fn on_io_done(&mut self, ctx: &mut ProcCtx<'_>, _token: u64) {
                ctx.exit();
            }
        }
        let mut w = two_nodes(6);
        let pid = w.spawn(NodeId(0), "writer", Box::new(Writer));
        w.run_until(SimTime::from_secs(1));
        assert!(w.process_exited(NodeId(0), pid));
        assert_eq!(w.disk(NodeId(0)).requests(), 0);
    }

    #[test]
    fn monitoring_disabled_has_negligible_overhead() {
        let mut w = two_nodes(7);
        w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(80))));
        w.spawn(
            NodeId(0),
            "sender",
            Box::new(OneShotSender::new(NodeId(1), Port(80), 100_000)),
        );
        w.run_until(SimTime::from_secs(1));
        let stats = w.node_stats(NodeId(1));
        // Suppressed hooks cost 5ns each; even hundreds of events stay
        // under a few microseconds.
        assert!(
            stats.cpu.monitor < SimDuration::from_micros(20),
            "monitor time {}",
            stats.cpu.monitor
        );
        assert!(w.kprof(NodeId(1)).stats().events_suppressed > 0);
        assert_eq!(w.kprof(NodeId(1)).stats().events_generated, 0);
    }

    #[test]
    fn monitoring_enabled_charges_overhead_and_counts_events() {
        let mut w = two_nodes(8);
        w.kprof_mut(NodeId(1))
            .register(Box::new(CountingAnalyzer::new(EventMask::ALL)));
        w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(80))));
        w.spawn(
            NodeId(0),
            "sender",
            Box::new(OneShotSender::new(NodeId(1), Port(80), 100_000)),
        );
        w.run_until(SimTime::from_secs(1));
        let stats = w.node_stats(NodeId(1));
        assert!(stats.cpu.monitor > SimDuration::from_micros(50));
        let ks = w.kprof(NodeId(1)).stats();
        assert!(ks.events_generated > 100, "events {}", ks.events_generated);
        assert_eq!(ks.events_delivered, ks.events_generated);
    }

    #[test]
    fn bulk_sender_approaches_line_rate() {
        let mut w = two_nodes(9);
        w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(5001))));
        w.spawn(
            NodeId(0),
            "iperf",
            Box::new(BulkSender::new(
                NodeId(1),
                Port(5001),
                64 * 1024,
                SimDuration::from_secs(1),
            )),
        );
        w.run_until(SimTime::from_secs(2));
        let received = w.node_stats(NodeId(1)).bytes_received;
        let mbps = received as f64 * 8.0 / 1e6;
        // An unpaced blast against a CPU-bound receiver: goodput lands at
        // roughly the receiver's drain rate (well below line rate once the
        // socket buffer fills and assemblies get shredded), but the node
        // must not collapse.
        assert!(mbps > 250.0, "goodput {mbps} Mbps");
        assert!(mbps < 1000.0, "goodput {mbps} Mbps cannot exceed line rate");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = |seed| {
            let mut w = two_nodes(seed);
            w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(5001))));
            w.spawn(
                NodeId(0),
                "iperf",
                Box::new(BulkSender::new(
                    NodeId(1),
                    Port(5001),
                    32 * 1024,
                    SimDuration::from_millis(200),
                )),
            );
            w.run_until(SimTime::from_secs(1));
            let s = w.node_stats(NodeId(1));
            (s.bytes_received, s.packets_in, s.context_switches)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn kernel_send_reaches_sink_with_data() {
        type Got = std::rc::Rc<std::cell::RefCell<Vec<(u32, Bytes)>>>;
        struct Recorder {
            got: Got,
        }
        impl KernelSink for Recorder {
            fn on_message(
                &mut self,
                _now: SimTime,
                _node: NodeId,
                _src: EndPoint,
                msg: Message,
                data: Bytes,
            ) -> KernelOutput {
                self.got.borrow_mut().push((msg.kind, data));
                KernelOutput {
                    cost: SimDuration::from_micros(2),
                    sends: Vec::new(),
                    rearm_after: None,
                }
            }
        }
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut w = two_nodes(10);
        w.install_sink(
            NodeId(1),
            Port(9999),
            Box::new(Recorder { got: got.clone() }),
        );
        let payload: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        let dst = EndPoint::new(w.network().node_ip(NodeId(1)), Port(9999));
        w.kernel_send(NodeId(0), Port(9998), dst, 42, payload.clone());
        w.run_until(SimTime::from_secs(1));
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 42);
        assert_eq!(got[0].1, payload);
        // The monitoring traffic consumed real bandwidth.
        let (fwd, _rev) = w
            .network()
            .link_between(NodeId(0), NodeId(1))
            .unwrap()
            .bytes_carried();
        assert!(fwd >= 5000);
    }

    #[test]
    fn daemon_hook_wakes_on_buffer_full() {
        use kprof::{Analyzer, AnalyzerOutcome, Interest};

        /// Analyzer that reports buffer-full every 10 events.
        struct Chunky {
            n: u64,
        }
        impl Analyzer for Chunky {
            fn name(&self) -> &str {
                "chunky"
            }
            fn interest(&self) -> Interest {
                Interest::mask(EventMask::ALL)
            }
            fn on_event(&mut self, _e: &kprof::Event) -> AnalyzerOutcome {
                self.n += 1;
                AnalyzerOutcome {
                    cost: SimDuration::from_nanos(100),
                    buffer_full: self.n.is_multiple_of(10),
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }

        struct CountingHook {
            wakes: std::rc::Rc<std::cell::Cell<u64>>,
        }
        impl DaemonHook for CountingHook {
            fn on_wake(
                &mut self,
                _now: SimTime,
                _node: NodeId,
                analyzer: Option<AnalyzerId>,
                _kprof: &mut Kprof,
                _stats: &NodeStats,
            ) -> KernelOutput {
                assert!(analyzer.is_some());
                self.wakes.set(self.wakes.get() + 1);
                KernelOutput {
                    cost: SimDuration::from_micros(5),
                    sends: Vec::new(),
                    rearm_after: None,
                }
            }
        }

        let wakes = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut w = two_nodes(11);
        w.kprof_mut(NodeId(1)).register(Box::new(Chunky { n: 0 }));
        w.set_daemon_hook(
            NodeId(1),
            Box::new(CountingHook {
                wakes: wakes.clone(),
            }),
        );
        w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(80))));
        w.spawn(
            NodeId(0),
            "sender",
            Box::new(OneShotSender::new(NodeId(1), Port(80), 200_000)),
        );
        w.run_until(SimTime::from_secs(1));
        assert!(wakes.get() > 5, "daemon woke {} times", wakes.get());
    }

    #[test]
    fn tx_backpressure_blocks_and_wakes_sender() {
        let mut w = two_nodes(12);
        w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(5001))));
        w.spawn(
            NodeId(0),
            "blaster",
            Box::new(BulkSender::new(
                NodeId(1),
                Port(5001),
                128 * 1024,
                SimDuration::from_millis(50),
            )),
        );
        w.run_until(SimTime::from_secs(1));
        // With 128 KB bursts against a 256 KB device queue, the sender must
        // have blocked at least once and still completed.
        let delivered = w.node_stats(NodeId(1)).bytes_received;
        assert!(delivered > 1_000_000, "delivered {delivered}");
        assert_eq!(w.node_stats(NodeId(0)).ring_drops, 0);
    }

    #[test]
    fn process_groups_flow_into_kprof() {
        let mut w = two_nodes(13);
        let pid = w.spawn_in_group(
            NodeId(0),
            "grouped",
            Box::new(ComputeLoop::new(
                SimDuration::from_millis(1),
                SimDuration::from_millis(1),
            )),
            GroupId(9),
        );
        w.run_until(SimTime::from_millis(100));
        assert_eq!(
            w.kprof(NodeId(0)).group_of(pid),
            None,
            "exited: reaped from table"
        );
    }

    #[test]
    fn wall_clocks_differ_with_skew() {
        let mut w = WorldBuilder::new(14)
            .node("sync")
            .node_with(
                "skewed",
                NodeConfig::default(),
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
    fn sleeping_process_wakes_on_time() {
        struct Sleeper {
            woke_at: std::rc::Rc<std::cell::Cell<SimTime>>,
        }
        impl Program for Sleeper {
            fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
                ctx.sleep(SimDuration::from_millis(25), 1);
            }
            fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, _token: u64) {
                self.woke_at.set(ctx.now());
                ctx.exit();
            }
        }
        let woke = std::rc::Rc::new(std::cell::Cell::new(SimTime::ZERO));
        let mut w = two_nodes(15);
        w.spawn(
            NodeId(0),
            "sleeper",
            Box::new(Sleeper {
                woke_at: woke.clone(),
            }),
        );
        w.run_until(SimTime::from_secs(1));
        let t = woke.get();
        assert!(t >= SimTime::from_millis(25), "woke at {t}");
        assert!(t < SimTime::from_millis(26), "woke at {t}");
    }

    #[test]
    fn loopback_delivery_on_same_node() {
        let mut w = two_nodes(20);
        w.spawn(NodeId(0), "sink", Box::new(SinkServer::new(Port(80))));
        w.spawn(
            NodeId(0),
            "sender",
            Box::new(OneShotSender::new(NodeId(0), Port(80), 5_000)),
        );
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node_stats(NodeId(0)).bytes_received, 5_000);
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

    #[test]
    fn arm_disabled_by_default_enabled_per_process() {
        use kprof::{Analyzer, AnalyzerOutcome, Interest};
        /// Captures the arm field of observed RxNic events.
        struct ArmProbe {
            seen: std::rc::Rc<std::cell::RefCell<Vec<Option<u64>>>>,
        }
        impl Analyzer for ArmProbe {
            fn name(&self) -> &str {
                "arm-probe"
            }
            fn interest(&self) -> Interest {
                Interest::mask(EventMask::NETWORK)
            }
            fn on_event(&mut self, e: &kprof::Event) -> AnalyzerOutcome {
                if let kprof::EventPayload::Net {
                    point: kprof::NetPoint::RxNic,
                    arm,
                    ..
                } = e.payload
                {
                    self.seen.borrow_mut().push(arm);
                }
                AnalyzerOutcome::default()
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }

        for enable in [false, true] {
            let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let mut w = two_nodes(22);
            w.kprof_mut(NodeId(1))
                .register(Box::new(ArmProbe { seen: seen.clone() }));
            let srv = w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(80))));
            w.spawn(
                NodeId(0),
                "sender",
                Box::new(OneShotSender::new(NodeId(1), Port(80), 3_000)),
            );
            if enable {
                assert!(w.enable_arm(NodeId(1), srv));
            }
            w.run_until(SimTime::from_secs(1));
            let seen = seen.borrow();
            assert!(!seen.is_empty());
            if enable {
                assert!(seen.iter().all(|a| a.is_some()), "tagged when opted in");
            } else {
                assert!(seen.iter().all(|a| a.is_none()), "black-box by default");
            }
        }
    }

    #[test]
    fn crash_kills_processes_then_restart_brings_node_back() {
        use simnet::FaultPlan;
        let plan = FaultPlan::default().with_crash(
            NodeId(1),
            SimTime::from_millis(50),
            Some(SimTime::from_millis(200)),
        );
        let mut w = WorldBuilder::new(30)
            .node("a")
            .node("b")
            .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
            .faults(plan)
            .build()
            .unwrap();
        let sink = w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(80))));
        w.spawn(
            NodeId(0),
            "blaster",
            Box::new(BulkSender::new(
                NodeId(1),
                Port(80),
                32 * 1024,
                SimDuration::from_millis(150),
            )),
        );
        w.run_until(SimTime::from_millis(100));
        assert!(w.node_is_down(NodeId(1)), "crashed at 50ms");
        assert!(w.process_exited(NodeId(1), sink), "fail-stop killed it");
        assert!(
            w.node_stats(NodeId(1)).crash_drops > 0,
            "in-flight packets to a dead node are counted"
        );
        w.run_until(SimTime::from_secs(1));
        assert!(!w.node_is_down(NodeId(1)), "restarted at 200ms");
    }

    #[test]
    fn crash_cancels_the_stretched_quantum_end_for_good() {
        use simnet::FaultPlan;
        let plan = FaultPlan::default().with_crash(
            NodeId(1),
            SimTime::from_millis(1),
            Some(SimTime::from_millis(2)),
        );
        let mut w = WorldBuilder::new(32)
            .node("a")
            .node("b")
            .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
            .faults(plan)
            .build()
            .unwrap();
        w.spawn(
            NodeId(1),
            "burn",
            Box::new(ComputeLoop::new(
                SimDuration::from_millis(50),
                SimDuration::from_millis(50),
            )),
        );
        // Unsolicited traffic: every arrival interrupts node 1 and
        // stretches the compute quantum it is running.
        let dst = EndPoint::new(w.network().node_ip(NodeId(1)), Port(9));
        w.kernel_send(NodeId(0), Port(9998), dst, 0, vec![0u8; 100_000]);
        w.run_until(SimTime::from_micros(999));
        let rq = w.nodes[1].running.as_ref().expect("mid-quantum");
        assert!(rq.stolen > SimDuration::from_micros(100), "{:?}", rq.stolen);
        let dead_end = rq.end_time;
        let before = w.calendar_stats();
        assert!(before.deferred > 10, "stretched in place: {before:?}");

        w.run_until(SimTime::from_millis(1));
        assert!(w.node_is_down(NodeId(1)));
        assert_eq!(
            w.calendar_stats().cancelled,
            before.cancelled + 1,
            "the live handle, not the one the first stretch replaced"
        );

        // Back up with a fresh process whose first compute quantum spans
        // the instant the dead quantum would have ended. A QuantumEnd
        // left over from before the crash would end this one early.
        w.run_until(SimTime::from_millis(2));
        assert!(!w.node_is_down(NodeId(1)));
        let fresh = w.spawn(
            NodeId(1),
            "fresh",
            Box::new(ComputeLoop::new(
                SimDuration::from_millis(4),
                SimDuration::from_millis(4),
            )),
        );
        assert!(
            dead_end > SimTime::from_millis(5) && dead_end < SimTime::from_millis(6),
            "{dead_end}"
        );
        w.run_until(SimTime::from_millis(20));
        let exited = w.process_exit_time(NodeId(1), fresh).expect("ran out");
        assert!(
            exited >= SimTime::from_millis(6),
            "4 ms of compute from t=2 ms cannot finish at {exited}"
        );
        let (user, _) = w.process_times(NodeId(1), fresh).unwrap();
        assert_eq!(user, SimDuration::from_millis(4));
    }

    #[test]
    fn sink_payloads_leave_the_in_flight_table_when_delivered() {
        /// Sends one kernel message per wake, 1 ms apart.
        struct Beacon {
            left: u32,
            dst: EndPoint,
        }
        impl DaemonHook for Beacon {
            fn on_wake(
                &mut self,
                _now: SimTime,
                _node: NodeId,
                _analyzer: Option<AnalyzerId>,
                _kprof: &mut Kprof,
                _stats: &NodeStats,
            ) -> KernelOutput {
                self.left -= 1;
                KernelOutput {
                    cost: SimDuration::from_micros(1),
                    sends: vec![KernelSend {
                        dst: self.dst,
                        src_port: Port(9998),
                        kind: 7,
                        data: Bytes::from(vec![self.left as u8; 3000]),
                    }],
                    rearm_after: (self.left > 0).then_some(SimDuration::from_millis(1)),
                }
            }
        }
        struct Count(std::rc::Rc<std::cell::Cell<usize>>);
        impl KernelSink for Count {
            fn on_message(
                &mut self,
                _now: SimTime,
                _node: NodeId,
                _src: EndPoint,
                _msg: Message,
                data: Bytes,
            ) -> KernelOutput {
                assert_eq!(data.len(), 3000);
                self.0.set(self.0.get() + 1);
                KernelOutput::default()
            }
        }

        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut w = two_nodes(33);
        let dst = EndPoint::new(w.network().node_ip(NodeId(1)), Port(9999));
        w.install_sink(NodeId(1), Port(9999), Box::new(Count(got.clone())));
        w.set_daemon_hook(NodeId(0), Box::new(Beacon { left: 100, dst }));
        w.schedule_daemon_wake(NodeId(0), SimDuration::from_millis(1));
        // The monitored stream the beacons share the link with.
        w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(5001))));
        w.spawn(
            NodeId(0),
            "iperf",
            Box::new(BulkSender::new(
                NodeId(1),
                Port(5001),
                64 * 1024,
                SimDuration::from_millis(100),
            )),
        );
        w.run_until(SimTime::from_secs(1));
        assert_eq!(got.get(), 100, "every beacon arrived with its payload");
        assert!(
            w.inflight_data.is_empty(),
            "{} payload entries outlived their delivery",
            w.inflight_data.len()
        );
    }

    #[test]
    fn fault_injection_is_lossy_and_replays_bit_identically() {
        use simnet::{FaultPlan, LinkFaults};
        let run = || {
            let plan = FaultPlan::default().with_default_link(LinkFaults::lossy(0.05));
            let mut w = WorldBuilder::new(31)
                .node("a")
                .node("b")
                .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
                .faults(plan)
                .build()
                .unwrap();
            w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(80))));
            w.spawn(
                NodeId(0),
                "sender",
                Box::new(OneShotSender::new(NodeId(1), Port(80), 200_000)),
            );
            w.run_until(SimTime::from_secs(1));
            let s = w.node_stats(NodeId(1));
            let f = w.network().fault_stats();
            (s.bytes_received, s.packets_in, f.injected_losses)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same plan, same outcome");
        assert!(a.2 > 0, "5% loss over ~140 packets must hit at least once");
        let no_faults = {
            let mut w = two_nodes(31);
            w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(80))));
            w.spawn(
                NodeId(0),
                "sender",
                Box::new(OneShotSender::new(NodeId(1), Port(80), 200_000)),
            );
            w.run_until(SimTime::from_secs(1));
            w.node_stats(NodeId(1)).packets_in
        };
        assert!(a.1 < no_faults, "loss reduced arrivals");
    }

    #[test]
    fn spawn_from_program_creates_child() {
        struct Parent;
        impl Program for Parent {
            fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
                ctx.spawn(
                    "child",
                    Box::new(ComputeLoop::new(
                        SimDuration::from_millis(2),
                        SimDuration::from_millis(2),
                    )),
                );
                ctx.exit();
            }
        }
        let mut w = two_nodes(16);
        w.spawn(NodeId(0), "parent", Box::new(Parent));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(
            w.node_stats(NodeId(0)).cpu.user,
            SimDuration::from_millis(2),
            "child ran"
        );
    }
}
