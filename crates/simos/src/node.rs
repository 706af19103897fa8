//! Per-node kernel state and statistics.

use std::collections::VecDeque;

use kprof::{FileId, Kprof, Pid};
use simcore::hash::{HashMap, HashSet};
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{EndPoint, FlowKey, Port};

use crate::process::Process;
use crate::socket::{Socket, SocketId};
use crate::{cost, Disk, DiskSpec};

/// Cumulative CPU time by category. The categories add up to total busy
/// time; `monitor` is the perturbation SysProf itself causes — the paper's
/// overhead metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuUsage {
    /// Time in user mode (application compute).
    pub user: SimDuration,
    /// Time in kernel mode on behalf of processes (syscalls).
    pub kernel: SimDuration,
    /// Interrupt/softirq time (network stack processing).
    pub irq: SimDuration,
    /// Monitoring overhead (Kprof hooks, analyzer callbacks, daemon work).
    pub monitor: SimDuration,
}

impl CpuUsage {
    /// Total busy time.
    pub fn busy(&self) -> SimDuration {
        self.user + self.kernel + self.irq + self.monitor
    }
}

/// Observable per-node counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Application payload bytes delivered to user space (or kernel
    /// daemons) on this node.
    pub bytes_received: u64,
    /// Application payload bytes submitted for send on this node.
    pub bytes_sent: u64,
    /// Packets that arrived at the NIC.
    pub packets_in: u64,
    /// Packets handed to the NIC for transmit.
    pub packets_out: u64,
    /// Packets dropped at the NIC ring (receive livelock).
    pub ring_drops: u64,
    /// Packets dropped at socket receive buffers.
    pub socket_drops: u64,
    /// Packets that arrived while this node was crashed.
    pub crash_drops: u64,
    /// Complete application messages delivered.
    pub messages_delivered: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// CPU time breakdown.
    pub cpu: CpuUsage,
}

/// What the CPU is doing right now.
#[derive(Debug)]
pub(crate) struct RunningQuantum {
    pub pid: Pid,
    pub end_handle: simcore::EventHandle,
    pub end_time: SimTime,
    pub kind: crate::world::QuantumKind,
    /// The quantum's own planned work (excludes context-switch cost and
    /// any time stolen by interrupts/monitoring).
    pub work: SimDuration,
    /// Time stolen by interrupts/monitoring during this quantum (already
    /// included in `end_time` stretches; excluded from the quantum's own
    /// work accounting).
    pub stolen: SimDuration,
}

/// One simulated machine: kernel state + instrumentation.
pub(crate) struct Node {
    pub id: NodeId,
    pub kprof: Kprof,
    pub disk: Disk,
    pub procs: HashMap<Pid, Process>,
    /// How many entries of `procs` have `arm_enabled` set. Zero on every
    /// node of a black-box run, which lets a packet event skip resolving
    /// its flow to a socket and an owner just to learn that nobody opted
    /// in. An exit leaves the flag (and so the count) alone: the port an
    /// exited process listened on still auto-accepts flows for it, and
    /// their events keep the tag they always had. A crash clears both.
    pub arm_procs: u32,
    pub runq: VecDeque<Pid>,
    pub running: Option<RunningQuantum>,
    /// CPU committed through this time by interrupt work while idle.
    pub cpu_busy_until: SimTime,
    pub last_pid: Option<Pid>,
    pub dispatch_pending: bool,
    pub sockets: HashMap<SocketId, Socket>,
    /// Inbound flow (src=peer, dst=local) → socket.
    pub flows: HashMap<FlowKey, SocketId>,
    pub listeners: HashMap<Port, Pid>,
    /// Ports served by kernel sinks (dissemination/pub-sub endpoints).
    pub sink_ports: HashSet<Port>,
    /// Kernel-side assembly sockets for sink traffic, keyed by rx flow.
    pub sink_socks: HashMap<FlowKey, Socket>,
    pub next_sock: u64,
    pub next_msg: u64,
    pub next_ephemeral: u16,
    /// Device transmit queue occupancy (bytes), for send backpressure.
    pub tx_queue_bytes: u64,
    /// Pids blocked waiting for tx queue space.
    pub tx_waiters: Vec<Pid>,
    /// Softirq pipeline horizon.
    pub softirq_busy_until: SimTime,
    /// Packets in the NIC ring / softirq backlog.
    pub rx_backlog: u32,
    /// (pid, file) pairs that have already emitted FileOpen.
    pub opened: HashSet<(Pid, FileId)>,
    pub stats: NodeStats,
}

impl Node {
    pub fn new(id: NodeId, disk: DiskSpec) -> Self {
        Node {
            id,
            kprof: Kprof::new(id),
            disk: Disk::new(disk),
            procs: HashMap::default(),
            arm_procs: 0,
            runq: VecDeque::new(),
            running: None,
            cpu_busy_until: SimTime::ZERO,
            last_pid: None,
            dispatch_pending: false,
            sockets: HashMap::default(),
            flows: HashMap::default(),
            listeners: HashMap::default(),
            sink_ports: HashSet::default(),
            sink_socks: HashMap::default(),
            next_sock: 1,
            next_msg: 1,
            next_ephemeral: 32768,
            tx_queue_bytes: 0,
            tx_waiters: Vec::new(),
            softirq_busy_until: SimTime::ZERO,
            rx_backlog: 0,
            opened: HashSet::default(),
            stats: NodeStats::default(),
        }
    }

    /// Creates a socket for `owner`, carrying the owner's ARM opt-in.
    pub fn new_socket(&self, id: SocketId, owner: Pid, local: EndPoint, peer: EndPoint) -> Socket {
        let mut s = Socket::new(id, owner, local, peer, cost::SOCKET_RX_BYTES);
        s.owner_arm = self.arm_procs > 0 && self.procs.get(&owner).is_some_and(|p| p.arm_enabled);
        s
    }

    /// Allocates a node-local socket id.
    pub fn alloc_sock(&mut self) -> SocketId {
        let id = SocketId(self.next_sock);
        self.next_sock += 1;
        id
    }

    /// Allocates an ephemeral port.
    pub fn alloc_ephemeral(&mut self) -> Port {
        let p = Port(self.next_ephemeral);
        self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(32768);
        p
    }
}
