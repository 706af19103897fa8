//! The Local Performance Analyzer: message/interaction extraction and
//! resource attribution from raw Kprof events.
//!
//! §2 of the paper defines the black-box abstraction this module
//! implements: "A series of packets from node_A to node_B without any
//! intervening packets in the opposite direction constitute one
//! *message*. An *interaction* consists of a message pair in the opposite
//! direction." The LPA watches network events for message boundaries and
//! scheduling events for CPU attribution — it never reads application
//! payloads or ids (SysProf is a black-box monitor).
//!
//! Known, deliberate limitation (also the paper's): multiple interleaved
//! requests on one flow collapse into a single message, so their
//! interactions cannot be separated without domain knowledge.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use kprof::{
    Analyzer, AnalyzerOutcome, BlockReason, DoubleBuffer, Event, EventMask, EventPayload, Interest,
    NetPoint, Pid, Predicate,
};
use simcore::hash::HashMap;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{FlowKey, Ip, Port};

use crate::cost;
use crate::daemon::{CONTROL_PORT, DATA_PORT};
use crate::records::{ClassStats, ClassSummary, InteractionRecord};

/// A message with no packets for this long is considered closed — the
/// eviction that lets the *last* interaction of a conversation complete
/// without waiting for a next request. Applied by [`Lpa::flush_idle`],
/// which the dissemination daemon calls on its periodic wake.
const IDLE_CLOSE: SimDuration = SimDuration::from_millis(50);

/// Monitoring granularity, coarse → fine: what the LPA asks Kprof for and
/// what it keeps. Each level trades diagnostic detail against
/// perturbation (the "<1% … >10%" range of §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorLevel {
    /// Nothing: the LPA's interest is empty, so its instrumentation points
    /// cost only the disabled-hook branch. The daemon still reports load.
    Off,
    /// Per-class aggregates only; network events, no scheduling
    /// attribution, nothing staged per interaction.
    ClassAggregates,
    /// Per-interaction records with network events only (no user/blocked
    /// attribution).
    Interactions,
    /// Per-interaction records with full scheduling attribution.
    #[default]
    Full,
}

/// LPA configuration — the knobs the SysProf controller turns, at deploy
/// time (`MonitorConfig::lpa`) or at run time
/// ([`SysProf::reconfigure`](crate::SysProf::reconfigure)).
#[derive(Debug, Clone)]
pub struct LpaConfig {
    /// Double-buffer side capacity, in records, and the length of the
    /// recent-interaction window ("window size"); zero clamps to 1.
    pub window: usize,
    /// What the LPA watches and keeps: its Kprof interest and whether it
    /// stages per-interaction records (the controller's "statistics for
    /// some client class rather than for individual interactions" is
    /// [`MonitorLevel::ClassAggregates`]).
    pub level: MonitorLevel,
    /// Only diagnose flows touching one of these ports (None = all). It is
    /// the port dimension of the LPA's Kprof [`Predicate`], so a network
    /// event of any other flow is pruned before the LPA runs and counted
    /// in `KprofStats::predicate_rejections`; scheduling events are not
    /// pruned. A flow passes if either endpoint uses a listed port: one
    /// whose ephemeral port is listed passes too.
    pub service_ports: Option<BTreeSet<Port>>,
}

impl Default for LpaConfig {
    fn default() -> Self {
        LpaConfig {
            window: 256,
            level: MonitorLevel::Full,
            service_ports: None,
        }
    }
}

/// A pid-clock snapshot: (run, blocked, blocked_io).
type Snap = (SimDuration, SimDuration, SimDuration);

/// Message direction relative to the observing node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    In,
    Out,
}

/// Accumulator for the message currently growing on a flow.
#[derive(Debug, Clone)]
struct MsgAcc {
    dir: Dir,
    /// The directed flow of this message's packets.
    flow: FlowKey,
    first_wall: SimTime,
    last_wall: SimTime,
    packets: u32,
    bytes: u64,
    /// Inbound: wall time of the last user-space delivery seen.
    deliver_last: Option<SimTime>,
    /// Outbound: wall time of the last NIC-transmit-complete seen.
    tx_last_nic: Option<SimTime>,
    /// Serving/initiating process, when the stack knew it.
    pid: Option<Pid>,
}

impl MsgAcc {
    /// A message's first packet.
    fn start(dir: Dir, flow: FlowKey, wall: SimTime, size: u32, pid: Option<Pid>) -> MsgAcc {
        MsgAcc {
            dir,
            flow,
            first_wall: wall,
            last_wall: wall,
            packets: 1,
            bytes: size as u64,
            deliver_last: None,
            tx_last_nic: None,
            pid,
        }
    }

    /// A further packet of the same message.
    fn extend(&mut self, wall: SimTime, size: u32, pid: Option<Pid>) {
        self.last_wall = wall;
        self.packets += 1;
        self.bytes += size as u64;
        self.pid = self.pid.or(pid);
    }

    /// The inbound message reached user space.
    fn delivered(&mut self, wall: SimTime, pid: Option<Pid>) {
        self.deliver_last = Some(wall);
        self.pid = self.pid.or(pid);
    }
}

/// A closed message, kept as the candidate first half of an interaction.
#[derive(Debug, Clone)]
struct ClosedMsg {
    acc: MsgAcc,
    /// Pid-clock snapshot at the message's "request delivered" moment —
    /// basis for user/blocked attribution.
    snap: Option<Snap>,
    /// How many interaction windows of the serving process were open when
    /// this message's window closed — the fair-share divisor for run-time
    /// attribution across interleaved requests.
    share: u32,
}

/// An interaction's attribution window, open from the request's delivery
/// until its response starts: the serving pid whose count in
/// `Lpa::open_windows` it holds, and the pid-clock snapshot taken at
/// delivery. Both trackers keep one per exchange; its methods are the
/// only place a pid's open-window count changes.
#[derive(Debug, Default)]
struct Window {
    pid: Option<Pid>,
    snap: Option<Snap>,
}

impl Window {
    /// Opens the window for `pid`, unless it is open already.
    fn open(&mut self, open_windows: &mut HashMap<Pid, u32>, pid: Option<Pid>) {
        if let (None, Some(p)) = (self.pid, pid) {
            self.pid = Some(p);
            *open_windows.entry(p).or_insert(0) += 1;
        }
    }

    /// `request` reached the socket buffer, the only delivery a kernel
    /// daemon has: a fallback that real deliveries override. The first
    /// snapshot opens the window; a later one replaces it unless
    /// `keep_first`.
    fn buffered(
        &mut self,
        open_windows: &mut HashMap<Pid, u32>,
        request: &mut MsgAcc,
        pid: Option<Pid>,
        snap: Option<Snap>,
        keep_first: bool,
    ) {
        request.pid = request.pid.or(pid);
        if request.deliver_last.is_some() {
            return;
        }
        if self.snap.is_none() {
            self.open(open_windows, pid.or(request.pid));
            self.snap = snap;
        } else if !keep_first {
            self.snap = snap.or(self.snap);
        }
    }

    /// `request` was delivered to the serving process at `wall`: opens the
    /// window and takes the latest snapshot.
    fn delivered(
        &mut self,
        open_windows: &mut HashMap<Pid, u32>,
        request: &mut MsgAcc,
        wall: SimTime,
        pid: Option<Pid>,
        snap: Option<Snap>,
    ) {
        request.delivered(wall, pid);
        self.open(open_windows, pid.or(request.pid));
        self.snap = snap.or(self.snap);
    }

    /// The response started: closes the window and returns the fair-share
    /// divisor, the windows its pid had open (this one included).
    fn close(&mut self, open_windows: &mut HashMap<Pid, u32>) -> u32 {
        let Some(p) = self.pid.take() else {
            return 1;
        };
        let n = open_windows.entry(p).or_insert(1);
        let share = (*n).max(1);
        *n = n.saturating_sub(1);
        share
    }

    /// The exchange ended without a response: gives the count back.
    fn release(&mut self, open_windows: &mut HashMap<Pid, u32>) {
        if let Some(p) = self.pid.take() {
            if let Some(n) = open_windows.get_mut(&p) {
                *n = n.saturating_sub(1);
            }
        }
    }

    /// Drops the pids whose count reached zero: `or_insert` recreates
    /// exactly those, so no record changes.
    fn sweep(open_windows: &mut HashMap<Pid, u32>) {
        open_windows.retain(|_, open| *open > 0);
    }
}

#[derive(Debug, Default)]
struct FlowState {
    cur: Option<MsgAcc>,
    prev: Option<ClosedMsg>,
    /// The current inbound message's attribution window.
    window: Window,
}

impl FlowState {
    /// Nothing accumulated and nothing owed: indistinguishable from the
    /// state a first packet would create.
    fn is_empty(&self) -> bool {
        self.cur.is_none()
            && self.prev.is_none()
            && self.window.pid.is_none()
            && self.window.snap.is_none()
    }

    /// The current message, if inbound, with its attribution window.
    fn inbound(&mut self) -> Option<(&mut MsgAcc, &mut Window)> {
        let cur = self.cur.as_mut().filter(|c| c.dir == Dir::In)?;
        Some((cur, &mut self.window))
    }
}

/// The black-box tracker's flow states: a slab addressed through one keyed
/// index, with the last flow looked up and its slot remembered. A
/// conversation's packets arrive in runs (a message is "a series of
/// packets … without any intervening packets in the opposite direction",
/// and its stack events follow it), so most lookups repeat the previous
/// one and cost a key compare, not a probe; any other costs one probe.
#[derive(Debug, Default)]
struct FlowTable {
    index: HashMap<FlowKey, usize>,
    /// A slot that no key indexes holds an empty state, ready for reuse.
    slots: Vec<FlowState>,
    free: Vec<usize>,
    last: Option<(FlowKey, usize)>,
    /// Lookups, and those the remembered slot answered without a probe.
    lookups: u64,
    hits: u64,
}

impl FlowTable {
    /// The remembered slot, if the last lookup was of `canon`. Counts the
    /// lookup either way.
    fn remembered(&mut self, canon: FlowKey) -> Option<usize> {
        self.lookups += 1;
        let (_, slot) = self.last.filter(|(key, _)| *key == canon)?;
        self.hits += 1;
        Some(slot)
    }

    /// `canon`'s slot and state, created empty if absent.
    fn state(&mut self, canon: FlowKey) -> (usize, &mut FlowState) {
        let slot = match self.remembered(canon) {
            Some(slot) => slot,
            None => {
                let (slots, free) = (&mut self.slots, &mut self.free);
                let slot = *self.index.entry(canon).or_insert_with(|| {
                    free.pop().unwrap_or_else(|| {
                        slots.push(FlowState::default());
                        slots.len() - 1
                    })
                });
                self.last = Some((canon, slot));
                slot
            }
        };
        (slot, &mut self.slots[slot])
    }

    /// `canon`'s state, if it has one.
    fn get_mut(&mut self, canon: FlowKey) -> Option<&mut FlowState> {
        let slot = match self.remembered(canon) {
            Some(slot) => slot,
            None => {
                let slot = *self.index.get(&canon)?;
                self.last = Some((canon, slot));
                slot
            }
        };
        Some(&mut self.slots[slot])
    }

    /// Frees every empty state: a first packet recreates exactly that
    /// state, so no record changes.
    fn sweep(&mut self) {
        let (slots, free) = (&self.slots, &mut self.free);
        self.index.retain(|_, slot| {
            let live = !slots[*slot].is_empty();
            if !live {
                free.push(*slot);
            }
            live
        });
        self.last = None;
    }
}

/// Per-correlator tracking state for events that carry an ARM-style
/// application correlator (their process opted in via
/// `World::enable_arm`): the request and response accumulate
/// independently per application message id, so interleaved requests on
/// one flow stay separate — the paper's §2 caveat: "Multiple requests may
/// interleave, in which case domain-specific knowledge and/or ARM support
/// would be necessary." Events without a correlator take black-box
/// message pairing.
#[derive(Debug)]
struct ArmState {
    req: Option<MsgAcc>,
    resp: Option<MsgAcc>,
    /// Opened only for a request served here, at its first snapshot.
    window: Window,
    share: u32,
    last_wall: SimTime,
}

/// Per-process run/block clocks, maintained from scheduling events.
#[derive(Debug, Default, Clone, Copy)]
struct PidClock {
    running_since: Option<SimTime>,
    blocked_since: Option<(SimTime, BlockReason)>,
    cum_run: SimDuration,
    cum_blocked: SimDuration,
    cum_blocked_io: SimDuration,
}

impl PidClock {
    /// Closes the open run span at `now`.
    fn stop_running(&mut self, now: SimTime) {
        if let Some(since) = self.running_since.take() {
            self.cum_run += now.saturating_since(since);
        }
    }

    /// Closes the open blocked span at `now`.
    fn stop_blocked(&mut self, now: SimTime) {
        if let Some((since, reason)) = self.blocked_since.take() {
            let d = now.saturating_since(since);
            self.cum_blocked += d;
            if reason == BlockReason::DiskIo {
                self.cum_blocked_io += d;
            }
        }
    }

    /// The cumulative clocks as of `now`, open spans included.
    fn snapshot(mut self, now: SimTime) -> Snap {
        self.stop_running(now);
        self.stop_blocked(now);
        (self.cum_run, self.cum_blocked, self.cum_blocked_io)
    }
}

/// The keys of `table` whose entry's latest packet (`last`) is at least
/// `IDLE_CLOSE` before `now`, in key order: each close emits a record,
/// and record order must be identical across replays of the same seed.
fn idle_keys<K: Copy + Ord, V>(
    table: &HashMap<K, V>,
    now: SimTime,
    last: impl Fn(&V) -> Option<SimTime>,
) -> Vec<K> {
    let mut keys: Vec<K> = table
        .iter()
        .filter(|(_, v)| last(v).is_some_and(|t| now.saturating_since(t) >= IDLE_CLOSE))
        .map(|(k, _)| *k)
        .collect();
    keys.sort_unstable();
    keys
}

/// The Local Performance Analyzer. One per monitored node; registered
/// with the node's [`kprof::Kprof`].
pub struct Lpa {
    node: NodeId,
    node_ip: Ip,
    config: LpaConfig,
    /// Black-box tracking, keyed by canonical flow.
    flows: FlowTable,
    /// ARM-correlated tracking, keyed by (canonical flow, correlator):
    /// a flow's correlators are one contiguous range, in record order.
    arm_flows: BTreeMap<(FlowKey, u64), ArmState>,
    pids: HashMap<Pid, PidClock>,
    /// Interaction windows currently open per pid (request delivered,
    /// response not yet started). Used to fair-share run-time attribution
    /// across concurrently served requests; only [`Window`] changes it.
    open_windows: HashMap<Pid, u32>,
    buffers: DoubleBuffer<InteractionRecord>,
    /// Losses counted by buffers that `reconfigure` has since replaced.
    overwritten_before: u64,
    /// ARM correlators evicted idle without a response.
    arm_dropped: u64,
    /// "a window containing the past several interactions" — queryable
    /// recent history for procfs.
    window: VecDeque<InteractionRecord>,
    /// Per-class statistics since the daemon last took them: every
    /// interaction completed is recorded here, once.
    class_window: HashMap<Port, ClassStats>,
    /// The merge of every window the daemon took.
    class_taken: BTreeMap<Port, ClassStats>,
    records_completed: u64,
    events_seen: u64,
    /// Set when a buffer switch happened while handling the current event
    /// (surfaced as `buffer_full` in the analyzer outcome).
    pending_switch: bool,
}

impl Lpa {
    /// Creates an LPA for `node` (whose interfaces carry `node_ip`); a
    /// zero window clamps to 1, as it does at run time.
    pub fn new(node: NodeId, node_ip: Ip, mut config: LpaConfig) -> Self {
        config.window = config.window.max(1);
        let buffers = DoubleBuffer::new(config.window);
        Lpa {
            node,
            node_ip,
            config,
            flows: FlowTable::default(),
            arm_flows: BTreeMap::new(),
            pids: HashMap::default(),
            open_windows: HashMap::default(),
            buffers,
            overwritten_before: 0,
            arm_dropped: 0,
            window: VecDeque::new(),
            class_window: HashMap::default(),
            class_taken: BTreeMap::new(),
            records_completed: 0,
            events_seen: 0,
            pending_switch: false,
        }
    }

    /// Reconfigures at run time; a zero window clamps to 1. A new window
    /// size applies to a new buffer; staged records move to it, and those
    /// a smaller buffer cannot hold are counted as overwritten there. The
    /// caller re-reads [`Analyzer::interest`] (`SysProf::reconfigure` does
    /// both), which carries `service_ports` to Kprof.
    pub(crate) fn reconfigure(&mut self, mut config: LpaConfig) {
        config.window = config.window.max(1);
        if config.window != self.config.window {
            let staged = self.buffers.drain_all();
            self.overwritten_before += self.buffers.overwritten();
            let mut fresh = DoubleBuffer::new(config.window);
            for r in staged {
                fresh.push(r);
            }
            self.buffers = fresh;
        }
        let excess = self.window.len().saturating_sub(config.window);
        self.window.drain(..excess);
        self.config = config;
    }

    /// The current configuration.
    pub fn config(&self) -> &LpaConfig {
        &self.config
    }

    /// Drains every staged record (what the dissemination daemon copies
    /// out on a wake).
    pub fn drain(&mut self) -> Vec<InteractionRecord> {
        self.buffers.drain_all()
    }

    /// Closes messages that have been idle for at least `IDLE_CLOSE`
    /// (50 ms), completing any interactions they end.
    /// Returns how many messages were closed. Called by the dissemination
    /// daemon's periodic wake (the "window contents are evicted … after
    /// some time" behavior of §2).
    pub fn flush_idle(&mut self, now: SimTime) -> usize {
        let mut closed = 0;
        let slots = &self.flows.slots;
        let idle = idle_keys(&self.flows.index, now, |&slot| {
            slots[slot].cur.as_ref().map(|c| c.last_wall)
        });
        for canon in idle {
            let slot = self.flows.index[&canon];
            if let Some(acc) = self.flows.slots[slot].cur.take() {
                closed += 1;
                self.close_message(slot, acc);
            }
        }
        // An idle correlator with both halves completes; one without a
        // response is dropped (and counted).
        let idle_arm: Vec<(FlowKey, u64)> = self
            .arm_flows
            .iter()
            .filter(|(_, st)| now.saturating_since(st.last_wall) >= IDLE_CLOSE)
            .map(|(k, _)| *k)
            .collect();
        for key in idle_arm {
            if self.arm_finish(key) {
                closed += 1;
            }
        }
        // A flow that ended leaves an empty state behind, and a window
        // count that reached zero a dead entry; a first packet and
        // `or_insert` recreate exactly those, so dropping them changes no
        // record while keeping both tables (and this scan) at the size of
        // the live conversations rather than of every port ever seen.
        self.flows.sweep();
        Window::sweep(&mut self.open_windows);
        closed
    }

    /// Records lost because the daemon was too slow ("if the data is not
    /// picked up in a timely fashion, it may be overwritten").
    pub fn overwritten(&self) -> u64 {
        self.overwritten_before + self.buffers.overwritten()
    }

    /// ARM correlators the idle sweep dropped without a response: a
    /// response that starts after the next daemon wake is never recorded
    /// (its late packets open a fresh state, which is dropped in turn),
    /// where the black-box tracker parks the request and pairs it.
    pub fn arm_dropped(&self) -> u64 {
        self.arm_dropped
    }

    /// Total interaction records completed.
    pub fn records_completed(&self) -> u64 {
        self.records_completed
    }

    /// Total events this analyzer processed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Flow-state lookups of the black-box tracker, and how many of them
    /// the remembered slot of the previous lookup answered without a
    /// probe of the flow index.
    pub fn flow_lookups(&self) -> (u64, u64) {
        (self.flows.lookups, self.flows.hits)
    }

    /// The recent-interaction window (most recent last).
    pub fn window_snapshot(&self) -> impl Iterator<Item = &InteractionRecord> {
        self.window.iter()
    }

    /// Per-class statistics of every interaction completed (all that
    /// [`MonitorLevel::ClassAggregates`] keeps; kept at every level), by
    /// port: the windows the daemon took merged with the open one.
    pub fn class_summaries(&self) -> Vec<ClassSummary> {
        let mut all = self.class_taken.clone();
        let open: BTreeMap<&Port, &ClassStats> = self.class_window.iter().collect();
        for (port, stats) in open {
            all.entry(*port).or_default().merge(stats);
        }
        all.iter()
            .map(|(port, stats)| stats.summary(self.node, *port))
            .collect()
    }

    /// Takes the open window's per-class statistics, by port (the
    /// daemon's periodic wake), and merges them into the cumulative view.
    pub(crate) fn take_class_window(&mut self) -> BTreeMap<Port, ClassStats> {
        let window: BTreeMap<Port, ClassStats> = self.class_window.drain().collect();
        for (port, stats) in &window {
            self.class_taken.entry(*port).or_default().merge(stats);
        }
        window
    }

    // ------------------------------------------------------------------

    fn dir_of(&self, flow: &FlowKey) -> Dir {
        if flow.dst.ip == self.node_ip {
            Dir::In
        } else {
            Dir::Out
        }
    }

    /// SysProf's own dissemination traffic must not be diagnosed as
    /// interactions.
    fn excluded(flow: &FlowKey) -> bool {
        let monitor = |p: Port| p == DATA_PORT || p == CONTROL_PORT;
        monitor(flow.src.port) || monitor(flow.dst.port)
    }

    fn pid_snapshot(&self, pid: Option<Pid>, now: SimTime) -> Option<Snap> {
        // A process with no scheduling history yet has a zero clock (it
        // simply has not run since monitoring started) — that is a valid
        // snapshot, not an unknown one.
        let clock = self.pids.get(&pid?).copied().unwrap_or_default();
        Some(clock.snapshot(now))
    }

    /// Handles a packet observation that can open/extend/close messages.
    fn observe_packet(
        &mut self,
        flow: &FlowKey,
        wall: SimTime,
        size: u32,
        pid: Option<Pid>,
    ) -> bool {
        let dir = self.dir_of(flow);
        let (slot, state) = self.flows.state(flow.canonical());
        match &mut state.cur {
            Some(cur) if cur.dir == dir => {
                cur.extend(wall, size, pid);
                false
            }
            // Direction change (or first packet): close current, start new.
            cur => match cur.replace(MsgAcc::start(dir, *flow, wall, size, pid)) {
                Some(ended) => self.close_message(slot, ended),
                None => false,
            },
        }
    }

    /// The message `acc` of the flow in `slot` just ended, and its window
    /// with it. Pair it with the previous opposite message into an
    /// interaction, or hold it as the next candidate. Returns whether a
    /// record was completed.
    fn close_message(&mut self, slot: usize, acc: MsgAcc) -> bool {
        let state = &mut self.flows.slots[slot];
        let closed = ClosedMsg {
            acc,
            snap: state.window.snap.take(),
            share: state.window.close(&mut self.open_windows),
        };
        match state.prev.take() {
            Some(first) if first.acc.dir != closed.acc.dir => {
                self.complete_interaction(first, closed);
                true
            }
            // No candidate yet, or two same-direction messages in a row
            // (idle flush closed a request whose response never arrived,
            // then another request): the stale candidate had no partner,
            // and the fresh message is the new candidate.
            _ => {
                state.prev = Some(closed);
                false
            }
        }
    }

    /// Builds and stages the interaction record for a (first, second)
    /// message pair.
    fn complete_interaction(&mut self, first: ClosedMsg, second: ClosedMsg) {
        let responder_side = first.acc.dir == Dir::In;
        let request = &first.acc;
        let response = &second.acc;

        let class_port = request.flow.dst.port;
        let start = request.first_wall;
        let mut resp_end = response
            .tx_last_nic
            .unwrap_or(response.last_wall)
            .max(response.last_wall)
            // Adversarially reordered streams can present a "response" that
            // predates its request; clamp so spans never run backwards.
            .max(start);
        // Initiator-side observations: the interaction truly ends when the
        // response is delivered to the local application, which can be
        // after its last packet hits the wire/NIC.
        if let Some(d) = response.deliver_last {
            resp_end = resp_end.max(d);
        }

        let (kernel_in, user_us, kernel_out, blocked, blocked_io, pid) = if responder_side {
            // Full attribution: we are where the server runs.
            let deliver = request.deliver_last;
            let kernel_in = deliver
                .unwrap_or(response.first_wall)
                .saturating_since(request.first_wall);
            let kernel_out = resp_end.saturating_since(response.first_wall);
            let pid = request.pid.or(response.pid);
            // User/blocked: pid-clock delta between request delivery and
            // response submission.
            // Fair-share attribution: the pid clock's run time inside the
            // window includes work for every concurrently open interaction
            // of this process; divide by the number of windows open when
            // this one closed. (The paper acknowledges interleaved
            // requests cannot be separated without domain knowledge; this
            // is the even-split heuristic.)
            let share = (first.share as u64).max(1);
            let (user, blocked, blocked_io) =
                match (first.snap, self.pid_snapshot(pid, response.first_wall)) {
                    (Some((run0, blk0, io0)), Some((run1, blk1, io1))) => (
                        run1.saturating_sub(run0) / share,
                        blk1.saturating_sub(blk0) / share,
                        io1.saturating_sub(io0) / share,
                    ),
                    _ => (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO),
                };
            (kernel_in, user, kernel_out, blocked, blocked_io, pid)
        } else {
            // Initiator side: we see the round trip; response delivery
            // time is the local kernel share.
            let kernel_in = second
                .acc
                .deliver_last
                .map(|d| d.saturating_since(response.first_wall))
                .unwrap_or(SimDuration::ZERO);
            (
                kernel_in,
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimDuration::ZERO,
                request.pid.or(response.pid),
            )
        };

        let record = InteractionRecord {
            node: self.node,
            flow: request.flow,
            class_port,
            pid: pid.map(|p| p.0).unwrap_or(0),
            start_us: start.as_micros(),
            end_us: resp_end.as_micros(),
            req_packets: request.packets,
            req_bytes: request.bytes,
            resp_packets: response.packets,
            resp_bytes: response.bytes,
            kernel_in_us: kernel_in.as_micros(),
            user_us: user_us.as_micros(),
            kernel_out_us: kernel_out.as_micros(),
            blocked_us: blocked.as_micros(),
            blocked_io_us: blocked_io.as_micros(),
        };

        self.records_completed += 1;

        // Recent-history window.
        self.window.push_back(record);
        while self.window.len() > self.config.window {
            self.window.pop_front();
        }

        // Class statistics are kept at every level: one record into the
        // flush window (daemon load reports; procfs merges the taken ones).
        self.class_window
            .entry(class_port)
            .or_default()
            .record(&record);

        if self.config.level != MonitorLevel::ClassAggregates {
            self.pending_switch |= self.buffers.push(record);
        }
    }

    fn sched_event(&mut self, ev: &Event) {
        let now = ev.wall;
        match ev.payload {
            EventPayload::ContextSwitch { from, to } => {
                if let Some(pid) = from {
                    self.pids.entry(pid).or_default().stop_running(now);
                }
                if let Some(pid) = to {
                    let clock = self.pids.entry(pid).or_default();
                    clock.running_since = Some(now);
                    // Switching in ends any blocked span (wake may have
                    // been missed if masks changed at runtime).
                    clock.stop_blocked(now);
                }
            }
            EventPayload::ProcessBlock { pid, reason } => {
                let clock = self.pids.entry(pid).or_default();
                clock.stop_running(now);
                clock.blocked_since = Some((now, reason));
            }
            EventPayload::ProcessWake { pid } => {
                self.pids.entry(pid).or_default().stop_blocked(now);
            }
            EventPayload::ProcessExit { pid } => {
                self.pids.remove(&pid);
            }
            _ => {}
        }
    }

    fn net_event(&mut self, ev: &Event) -> bool {
        // Matched by reference: each field is read where the event lies,
        // when it is needed, not copied out of the payload first.
        let EventPayload::Net {
            point,
            ref flow,
            size,
            pid,
            arm,
            ..
        } = ev.payload
        else {
            return false;
        };
        if Self::excluded(flow) {
            return false;
        }
        if let Some(arm) = arm {
            return match point {
                NetPoint::RxNic | NetPoint::TxFromUser => {
                    self.arm_packet(flow, ev.wall, size, pid, arm)
                }
                NetPoint::TxDeviceQueue | NetPoint::Drop => false,
                _ => {
                    self.arm_stack_event(point, (flow.canonical(), arm), ev.wall, pid);
                    false
                }
            };
        }
        match point {
            NetPoint::RxNic | NetPoint::TxFromUser => self.observe_packet(flow, ev.wall, size, pid),
            NetPoint::RxSocketBuffer => {
                let snap = self.pid_snapshot(pid, ev.wall);
                if let Some((cur, window)) = self
                    .flows
                    .get_mut(flow.canonical())
                    .and_then(FlowState::inbound)
                {
                    // The black-box tracker keeps the last snapshot.
                    window.buffered(&mut self.open_windows, cur, pid, snap, false);
                }
                false
            }
            NetPoint::RxDeliverUser => {
                let snap = self.pid_snapshot(pid, ev.wall);
                if let Some((cur, window)) = self
                    .flows
                    .get_mut(flow.canonical())
                    .and_then(FlowState::inbound)
                {
                    // Inbound is the request here and the response at an
                    // initiator; either opens a window.
                    window.delivered(&mut self.open_windows, cur, ev.wall, pid, snap);
                }
                false
            }
            NetPoint::TxNicDone => {
                let cur = self
                    .flows
                    .get_mut(flow.canonical())
                    .and_then(|state| state.cur.as_mut());
                if let Some(cur) = cur.filter(|c| c.dir == Dir::Out) {
                    cur.tx_last_nic = Some(ev.wall);
                }
                false
            }
            NetPoint::TxDeviceQueue | NetPoint::Drop => false,
        }
    }

    /// A packet observation that carries an ARM correlator: extends this
    /// correlator's request or response run, after finishing any other
    /// correlator on the same flow (responses are contiguous per send, so
    /// a packet of a different id ends them). Returns whether an
    /// interaction record completed.
    fn arm_packet(
        &mut self,
        flow: &FlowKey,
        wall: SimTime,
        size: u32,
        pid: Option<Pid>,
        arm: u64,
    ) -> bool {
        let dir = self.dir_of(flow);
        let canon = flow.canonical();
        let completed = self.arm_complete_others(canon, arm);
        let st = self
            .arm_flows
            .entry((canon, arm))
            .or_insert_with(|| ArmState {
                req: None,
                resp: None,
                window: Window::default(),
                share: 1,
                last_wall: wall,
            });
        st.last_wall = wall;
        // The first message of a correlator is its request, whatever its
        // direction: inbound where the server runs, outbound at the
        // initiator. The opposite run answers it.
        let responding = st.req.as_ref().is_some_and(|req| req.dir != dir);
        let slot = if responding {
            &mut st.resp
        } else {
            &mut st.req
        };
        match slot {
            Some(acc) => acc.extend(wall, size, pid),
            None => {
                *slot = Some(MsgAcc::start(dir, *flow, wall, size, pid));
                // The response starting closes this correlator's
                // attribution window.
                if responding {
                    st.share = st.window.close(&mut self.open_windows);
                }
            }
        }
        completed
    }

    /// A socket-buffer, delivery or NIC-done observation of an ARM
    /// correlator's packet.
    fn arm_stack_event(
        &mut self,
        point: NetPoint,
        key: (FlowKey, u64),
        wall: SimTime,
        pid: Option<Pid>,
    ) {
        let snap = self.pid_snapshot(pid, wall);
        let Some(st) = self.arm_flows.get_mut(&key) else {
            return;
        };
        st.last_wall = wall;
        match point {
            // Only a request served here opens an attribution window; the
            // initiator's inbound run is the response.
            NetPoint::RxSocketBuffer => {
                if let Some(req) = st.req.as_mut().filter(|m| m.dir == Dir::In) {
                    // The ARM tracker keeps the first snapshot.
                    st.window
                        .buffered(&mut self.open_windows, req, pid, snap, true);
                }
            }
            NetPoint::RxDeliverUser => match (&mut st.req, &mut st.resp) {
                // A request delivery after its response started can only
                // come from a reordered stream; it must not stretch the
                // attribution window.
                (Some(req), None) if req.dir == Dir::In => {
                    st.window
                        .delivered(&mut self.open_windows, req, wall, pid, snap);
                }
                (_, Some(resp)) if resp.dir == Dir::In => resp.delivered(wall, pid),
                _ => {}
            },
            NetPoint::TxNicDone => {
                if let Some(resp) = st.resp.as_mut().filter(|m| m.dir == Dir::Out) {
                    resp.tx_last_nic = Some(wall);
                }
            }
            _ => {}
        }
    }

    /// Completes every *other* correlator on `canon` that already has a
    /// response (a packet of a different id means their response run is
    /// over). Returns whether any record completed.
    fn arm_complete_others(&mut self, canon: FlowKey, current: u64) -> bool {
        // Only this flow's range, already in key order (the order
        // arm_finish must emit records in).
        let ready: Vec<(FlowKey, u64)> = self
            .arm_flows
            .range((canon, 0)..=(canon, u64::MAX))
            .filter(|((_, id), st)| *id != current && st.req.is_some() && st.resp.is_some())
            .map(|(k, _)| *k)
            .collect();
        let mut any = false;
        for key in ready {
            any |= self.arm_finish(key);
        }
        any
    }

    /// Ends a correlator's state: emits its interaction record if it has
    /// both halves, else drops it (counted in `arm_dropped`).
    fn arm_finish(&mut self, key: (FlowKey, u64)) -> bool {
        let Some(mut st) = self.arm_flows.remove(&key) else {
            return false;
        };
        // Release an unclosed window (response never started).
        st.window.release(&mut self.open_windows);
        let (Some(req), Some(resp)) = (st.req, st.resp) else {
            self.arm_dropped += 1;
            return false;
        };
        let first = ClosedMsg {
            acc: req,
            snap: st.window.snap,
            share: st.share,
        };
        let second = ClosedMsg {
            acc: resp,
            snap: None,
            share: 1,
        };
        self.complete_interaction(first, second);
        true
    }
}

impl Analyzer for Lpa {
    fn name(&self) -> &str {
        "lpa"
    }

    fn interest(&self) -> Interest {
        let mask = match self.config.level {
            MonitorLevel::Off => EventMask::NONE,
            MonitorLevel::ClassAggregates | MonitorLevel::Interactions => EventMask::NETWORK,
            MonitorLevel::Full => EventMask::NETWORK | EventMask::SCHEDULING,
        };
        let predicate = match &self.config.service_ports {
            Some(ports) => Predicate::new().ports(ports.iter().copied()),
            None => Predicate::new(),
        };
        Interest { mask, predicate }
    }

    fn on_event(&mut self, event: &Event) -> AnalyzerOutcome {
        self.events_seen += 1;
        self.pending_switch = false;
        let mut cost = cost::LPA_EVENT;
        match event.class() {
            kprof::EventClass::Scheduling => self.sched_event(event),
            kprof::EventClass::Network if self.net_event(event) => {
                cost += cost::LPA_RECORD;
            }
            _ => {}
        }
        AnalyzerOutcome {
            cost,
            buffer_full: self.pending_switch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;
    use simnet::{EndPoint, PacketId};

    const ME: Ip = Ip(0x0A000002);
    const CLIENT: Ip = Ip(0x0A000001);

    fn lpa() -> Lpa {
        Lpa::new(NodeId(1), ME, LpaConfig::default())
    }

    fn req_flow() -> FlowKey {
        FlowKey::new(
            EndPoint::new(CLIENT, Port(40000)),
            EndPoint::new(ME, Port(2049)),
        )
    }

    fn ev(wall_us: u64, payload: EventPayload) -> Event {
        Event {
            seq: 0,
            node: NodeId(1),
            cpu: 0,
            wall: SimTime::from_micros(wall_us),
            payload,
        }
    }

    fn net(wall_us: u64, point: NetPoint, flow: FlowKey, size: u32, pid: Option<Pid>) -> Event {
        ev(
            wall_us,
            EventPayload::Net {
                point,
                flow,
                packet: PacketId(wall_us),
                size,
                pid,
                arm: None,
            },
        )
    }

    /// Feeds one full request/response exchange on the default flow.
    fn one_exchange(l: &mut Lpa, base_us: u64) {
        exchange_on(l, req_flow(), base_us);
    }

    /// Feeds one full request/response exchange whose request runs on `rf`.
    fn exchange_on(l: &mut Lpa, rf: FlowKey, base_us: u64) {
        for e in exchange_events(rf, base_us) {
            l.on_event(&e);
        }
    }

    /// The events of one full request/response exchange on `rf`.
    fn exchange_events(rf: FlowKey, base_us: u64) -> Vec<Event> {
        let tf = rf.reversed();
        let pid = Some(Pid(7));
        vec![
            // Request: two packets arrive, get buffered, get delivered.
            net(base_us, NetPoint::RxNic, rf, 1500, None),
            net(base_us + 12, NetPoint::RxNic, rf, 600, None),
            net(base_us + 20, NetPoint::RxSocketBuffer, rf, 1500, pid),
            net(base_us + 25, NetPoint::RxSocketBuffer, rf, 600, pid),
            net(base_us + 300, NetPoint::RxDeliverUser, rf, 1500, pid),
            net(base_us + 305, NetPoint::RxDeliverUser, rf, 600, pid),
            // Server computes 100 µs (scheduling events drive the pid clock).
            ev(
                base_us + 310,
                EventPayload::ContextSwitch {
                    from: None,
                    to: pid,
                },
            ),
            ev(
                base_us + 410,
                EventPayload::ContextSwitch {
                    from: pid,
                    to: None,
                },
            ),
            // Response: one packet out.
            net(base_us + 420, NetPoint::TxFromUser, tf, 200, pid),
            net(base_us + 440, NetPoint::TxNicDone, tf, 200, None),
        ]
    }

    #[test]
    fn interaction_completes_on_next_request() {
        let mut l = lpa();
        one_exchange(&mut l, 1_000);
        assert_eq!(l.records_completed(), 0, "pair still open");
        // Next request closes the response message.
        l.on_event(&net(5_000, NetPoint::RxNic, req_flow(), 800, None));
        assert_eq!(l.records_completed(), 1);
        let rec = l.window_snapshot().next().unwrap();
        assert_eq!(rec.class_port, Port(2049));
        assert_eq!(rec.pid, 7);
        assert_eq!(rec.req_packets, 2);
        assert_eq!(rec.req_bytes, 2100);
        assert_eq!(rec.resp_packets, 1);
        assert_eq!(rec.start_us, 1_000);
        assert_eq!(rec.end_us, 1_440, "ends at NIC tx done");
        // kernel_in: first RxNic (1000) -> last deliver (1305).
        assert_eq!(rec.kernel_in_us, 305);
        // user: pid ran 100 µs between delivery and send.
        assert_eq!(rec.user_us, 100);
        // kernel_out: TxFromUser (1420) -> TxNicDone (1440).
        assert_eq!(rec.kernel_out_us, 20);
    }

    #[test]
    fn idle_flush_completes_trailing_interaction() {
        let mut l = lpa();
        one_exchange(&mut l, 1_000);
        assert_eq!(l.records_completed(), 0);
        // Too early: nothing is idle long enough.
        assert_eq!(l.flush_idle(SimTime::from_micros(2_000)), 0);
        // 50 ms later the response message is stale and closes.
        assert_eq!(l.flush_idle(SimTime::from_millis(60)), 1);
        assert_eq!(l.records_completed(), 1);
    }

    #[test]
    fn back_to_back_interactions_all_complete() {
        let mut l = lpa();
        for i in 0..10 {
            one_exchange(&mut l, 1_000 + i * 10_000);
        }
        l.flush_idle(SimTime::from_secs(1));
        assert_eq!(l.records_completed(), 10);
        let drained = l.drain();
        assert_eq!(drained.len(), 10);
    }

    #[test]
    fn kernel_buffer_queueing_grows_kernel_in() {
        // Delay delivery (proxy busy): kernel_in grows, user stays.
        let mut l = lpa();
        let rf = req_flow();
        let tf = rf.reversed();
        let pid = Some(Pid(9));
        l.on_event(&net(1_000, NetPoint::RxNic, rf, 500, None));
        // Sits in the socket buffer for 5 ms before delivery.
        l.on_event(&net(6_000, NetPoint::RxDeliverUser, rf, 500, pid));
        l.on_event(&net(6_100, NetPoint::TxFromUser, tf, 100, pid));
        l.on_event(&net(6_120, NetPoint::TxNicDone, tf, 100, None));
        l.flush_idle(SimTime::from_secs(1));
        let rec = l.window_snapshot().next().unwrap();
        assert_eq!(rec.kernel_in_us, 5_000, "queueing shows up in kernel time");
    }

    #[test]
    fn kernel_daemon_has_zero_user_time() {
        // No RxDeliverUser events (in-kernel NFS server): everything
        // becomes kernel time.
        let mut l = lpa();
        let rf = req_flow();
        let tf = rf.reversed();
        let pid = Some(Pid(3));
        l.on_event(&net(1_000, NetPoint::RxNic, rf, 800, None));
        l.on_event(&net(1_010, NetPoint::RxSocketBuffer, rf, 800, pid));
        // 8 ms later (disk I/O) the reply goes out.
        l.on_event(&net(9_000, NetPoint::TxFromUser, tf, 100, pid));
        l.on_event(&net(9_020, NetPoint::TxNicDone, tf, 100, None));
        l.flush_idle(SimTime::from_secs(1));
        let rec = l.window_snapshot().next().unwrap();
        assert_eq!(rec.user_us, 0);
        assert_eq!(rec.kernel_in_us, 8_000, "rx -> response start");
        assert_eq!(rec.pid, 3);
    }

    #[test]
    fn blocked_time_attributed_from_sched_events() {
        let mut l = lpa();
        let rf = req_flow();
        let tf = rf.reversed();
        let pid = Pid(4);
        l.on_event(&net(1_000, NetPoint::RxNic, rf, 500, None));
        l.on_event(&net(1_100, NetPoint::RxDeliverUser, rf, 500, Some(pid)));
        // Process blocks on disk for 3 ms inside the window.
        l.on_event(&ev(
            1_200,
            EventPayload::ProcessBlock {
                pid,
                reason: BlockReason::DiskIo,
            },
        ));
        l.on_event(&ev(4_200, EventPayload::ProcessWake { pid }));
        l.on_event(&net(4_300, NetPoint::TxFromUser, tf, 100, Some(pid)));
        l.on_event(&net(4_320, NetPoint::TxNicDone, tf, 100, None));
        l.flush_idle(SimTime::from_secs(1));
        let rec = l.window_snapshot().next().unwrap();
        assert_eq!(rec.blocked_us, 3_000);
        assert_eq!(rec.blocked_io_us, 3_000);
    }

    #[test]
    fn monitoring_ports_are_excluded() {
        let mut l = lpa();
        let daemon_flow = FlowKey::new(
            EndPoint::new(CLIENT, Port(9997)),
            EndPoint::new(ME, Port(9999)),
        );
        l.on_event(&net(1_000, NetPoint::RxNic, daemon_flow, 500, None));
        l.on_event(&net(
            2_000,
            NetPoint::TxFromUser,
            daemon_flow.reversed(),
            500,
            None,
        ));
        l.on_event(&net(3_000, NetPoint::RxNic, daemon_flow, 500, None));
        l.flush_idle(SimTime::from_secs(1));
        assert_eq!(l.records_completed(), 0, "own traffic never diagnosed");
    }

    /// `service_ports` prunes in Kprof: one stream of exchanges on two
    /// ports, emitted through one Kprof, reaches the LPA restricted to
    /// port 2049 as that port's network events plus every scheduling
    /// event; Kprof rejects the rest, and the restricted LPA records
    /// port 2049 exactly as the unrestricted one does.
    #[test]
    fn service_ports_prune_in_kprof() {
        let mut kprof = kprof::Kprof::new(NodeId(1));
        let restricted = LpaConfig {
            service_ports: Some([Port(2049)].into_iter().collect()),
            ..Default::default()
        };
        let only = kprof.register(Box::new(Lpa::new(NodeId(1), ME, restricted)));
        let all = kprof.register(Box::new(lpa()));
        let other = FlowKey::new(
            EndPoint::new(CLIENT, Port(40_001)),
            EndPoint::new(ME, Port(80)),
        );
        let (mut listed, mut pruned, mut sched) = (0, 0, 0);
        for i in 0..10u64 {
            let flow = if i % 2 == 0 { req_flow() } else { other };
            for e in exchange_events(flow, 1_000 + i * 10_000) {
                match e.class() {
                    kprof::EventClass::Network if flow == other => pruned += 1,
                    kprof::EventClass::Network => listed += 1,
                    _ => sched += 1,
                }
                kprof.emit(&e);
            }
        }
        assert_eq!(kprof.stats().predicate_rejections, pruned);
        let mut seen_and_drained = |id| {
            let l = kprof.analyzer_as_mut::<Lpa>(id).unwrap();
            l.flush_idle(SimTime::from_secs(1));
            (l.events_seen(), l.drain())
        };
        let (seen, records) = seen_and_drained(only);
        let (seen_all, mut records_all) = seen_and_drained(all);
        assert_eq!(seen, listed + sched);
        assert_eq!(seen_all, listed + pruned + sched);
        assert_eq!(records.len(), 5);
        records_all.retain(|r| r.class_port == Port(2049));
        assert_eq!(records, records_all);
    }

    #[test]
    fn class_aggregates_level_aggregates_without_staging() {
        let cfg = LpaConfig {
            level: MonitorLevel::ClassAggregates,
            ..Default::default()
        };
        let mut l = Lpa::new(NodeId(1), ME, cfg);
        for i in 0..5 {
            one_exchange(&mut l, 1_000 + i * 10_000);
        }
        l.flush_idle(SimTime::from_secs(1));
        assert_eq!(l.records_completed(), 5);
        assert!(l.drain().is_empty(), "nothing staged per interaction");
        let classes = l.class_summaries();
        assert_eq!(classes.len(), 1);
        assert_eq!((classes[0].class_port, classes[0].count), (Port(2049), 5));
        // take drains the flush window but leaves the cumulative view.
        assert_eq!(l.take_class_window().len(), 1);
        assert!(l.take_class_window().is_empty(), "window drained");
        assert_eq!(l.class_summaries().len(), 1, "cumulative view persists");
    }

    /// The cumulative view is the taken windows merged with the open one:
    /// after a take every few exchanges, on three classes, it counts what
    /// a sequential record of every completed interaction counts, and
    /// means agree to rounding.
    #[test]
    fn cumulative_class_view_matches_a_sequential_record() {
        let mut l = lpa();
        let mut reference: BTreeMap<Port, ClassStats> = BTreeMap::new();
        for i in 0..40u64 {
            let port = Port(2049 + (i % 3) as u16);
            let flow = FlowKey::new(EndPoint::new(CLIENT, Port(40_000)), EndPoint::new(ME, port));
            exchange_on(&mut l, flow, 1_000 + i * 100_000);
            l.flush_idle(SimTime::from_micros(i * 100_000 + 60_000));
            for r in l.drain() {
                reference.entry(r.class_port).or_default().record(&r);
            }
            if i % 7 == 6 {
                l.take_class_window();
            }
        }
        let view = l.class_summaries();
        assert_eq!(view.len(), 3);
        for (s, (port, stats)) in view.iter().zip(&reference) {
            let want = stats.summary(NodeId(1), *port);
            assert_eq!(
                (s.node, s.class_port, s.count),
                (want.node, want.class_port, want.count)
            );
            for (got, want) in [
                (s.mean_kernel_in_us, want.mean_kernel_in_us),
                (s.mean_user_us, want.mean_user_us),
                (s.mean_total_us, want.mean_total_us),
            ] {
                assert!((got - want).abs() < 1e-9, "{port}: {got} vs {want}");
            }
            assert_eq!(s.p99_total_us, want.p99_total_us);
        }
        assert_eq!(view.iter().map(|s| s.count).sum::<u64>(), 40);
    }

    #[test]
    fn interleaved_requests_collapse_into_one_message() {
        // The paper's documented limitation: two requests back to back
        // with no intervening response form ONE message.
        let mut l = lpa();
        let rf = req_flow();
        let tf = rf.reversed();
        l.on_event(&net(1_000, NetPoint::RxNic, rf, 500, None)); // req A
        l.on_event(&net(1_050, NetPoint::RxNic, rf, 500, None)); // req B (interleaved)
        l.on_event(&net(2_000, NetPoint::TxFromUser, tf, 100, Some(Pid(1)))); // resp A
        l.on_event(&net(2_050, NetPoint::TxFromUser, tf, 100, Some(Pid(1)))); // resp B
        l.flush_idle(SimTime::from_secs(1));
        assert_eq!(
            l.records_completed(),
            1,
            "two interleaved exchanges look like one interaction"
        );
        let rec = l.window_snapshot().next().unwrap();
        assert_eq!(rec.req_packets, 2);
        assert_eq!(rec.resp_packets, 2);
    }

    #[test]
    fn initiator_side_records_round_trip() {
        // Observing from the client node: Out(req) then In(resp).
        let mut l = Lpa::new(NodeId(0), CLIENT, LpaConfig::default());
        let rf = req_flow(); // CLIENT -> ME: outbound from CLIENT's view
        let back = rf.reversed();
        l.on_event(&net(1_000, NetPoint::TxFromUser, rf, 300, Some(Pid(2))));
        l.on_event(&net(1_020, NetPoint::TxNicDone, rf, 300, None));
        l.on_event(&net(3_000, NetPoint::RxNic, back, 150, None));
        l.on_event(&net(
            3_200,
            NetPoint::RxDeliverUser,
            back,
            150,
            Some(Pid(2)),
        ));
        l.flush_idle(SimTime::from_secs(1));
        assert_eq!(l.records_completed(), 1);
        let rec = l.window_snapshot().next().unwrap();
        // Request flow oriented from the initiator.
        assert_eq!(rec.flow.src.ip, CLIENT);
        assert_eq!(rec.class_port, Port(2049));
        assert_eq!(rec.user_us, 0, "initiator cannot attribute server time");
        assert!(rec.end_us > rec.start_us);
    }

    #[test]
    fn window_is_bounded() {
        let run = |window| {
            let cfg = LpaConfig {
                window,
                ..Default::default()
            };
            let mut l = Lpa::new(NodeId(1), ME, cfg);
            for i in 0..10 {
                one_exchange(&mut l, 1_000 + i * 10_000);
            }
            l.flush_idle(SimTime::from_secs(1));
            let history = l.window_snapshot().count();
            (l.config().window, history, l.overwritten(), l.drain())
        };
        assert_eq!(run(3).1, 3, "window keeps the last N");
        // A zero window is a window of 1, at creation as at reconfigure.
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn buffer_full_notification_fires() {
        let cfg = LpaConfig {
            window: 2, // tiny buffers
            ..Default::default()
        };
        let mut l = Lpa::new(NodeId(1), ME, cfg);
        let mut notified = false;
        for i in 0..6 {
            one_exchange(&mut l, 1_000 + i * 10_000);
            let boundary = net(
                1_000 + (i + 1) * 10_000 - 100,
                NetPoint::RxNic,
                req_flow(),
                1,
                None,
            );
            let out = l.on_event(&boundary);
            notified |= out.buffer_full;
        }
        assert!(notified, "small buffers must fill and notify");
    }

    fn net_arm(
        wall_us: u64,
        point: NetPoint,
        flow: FlowKey,
        size: u32,
        pid: Option<Pid>,
        arm: u64,
    ) -> Event {
        ev(
            wall_us,
            EventPayload::Net {
                point,
                flow,
                packet: PacketId(wall_us),
                size,
                pid,
                arm: Some(arm),
            },
        )
    }

    #[test]
    fn arm_hints_separate_interleaved_requests() {
        // The exact scenario the black-box tracker collapses (see
        // interleaved_requests_collapse_into_one_message): two pipelined
        // requests on one flow. With ARM correlators they separate.
        let mut l = lpa();
        let rf = req_flow();
        let tf = rf.reversed();
        let pid = Some(Pid(1));
        l.on_event(&net_arm(1_000, NetPoint::RxNic, rf, 500, None, 11)); // req A
        l.on_event(&net_arm(1_050, NetPoint::RxNic, rf, 500, None, 22)); // req B (interleaved)
        l.on_event(&net_arm(1_100, NetPoint::RxDeliverUser, rf, 500, pid, 11));
        l.on_event(&net_arm(1_150, NetPoint::RxDeliverUser, rf, 500, pid, 22));
        l.on_event(&net_arm(2_000, NetPoint::TxFromUser, tf, 100, pid, 11)); // resp A
        l.on_event(&net_arm(2_400, NetPoint::TxFromUser, tf, 100, pid, 22)); // resp B
        l.flush_idle(SimTime::from_secs(1));
        assert_eq!(
            l.records_completed(),
            2,
            "ARM hints split the interleaved exchanges into two interactions"
        );
        let recs: Vec<_> = l.window_snapshot().collect();
        assert_eq!(recs[0].req_packets, 1);
        assert_eq!(recs[1].req_packets, 1);
        // Each interaction got its own timing, not a merged span.
        assert_eq!(recs[0].start_us, 1_000);
        assert_eq!(recs[1].start_us, 1_050);
    }

    /// The ARM twin of `initiator_side_records_round_trip`: tagging the
    /// exchange changes nothing about what the client's node records.
    #[test]
    fn arm_initiator_side_records_round_trip() {
        let exchange = |arm: Option<u64>| {
            let mut l = Lpa::new(NodeId(0), CLIENT, LpaConfig::default());
            let rf = req_flow(); // CLIENT -> ME: outbound from CLIENT's view
            let back = rf.reversed();
            for (wall, point, flow, size, pid) in [
                (1_000, NetPoint::TxFromUser, rf, 300, Some(Pid(2))),
                (1_020, NetPoint::TxNicDone, rf, 300, None),
                (3_000, NetPoint::RxNic, back, 150, None),
                (3_200, NetPoint::RxDeliverUser, back, 150, Some(Pid(2))),
            ] {
                l.on_event(&match arm {
                    Some(id) => net_arm(wall, point, flow, size, pid, id),
                    None => net(wall, point, flow, size, pid),
                });
            }
            l.flush_idle(SimTime::from_secs(1));
            assert_eq!(l.records_completed(), 1);
            let rec = *l.window_snapshot().next().unwrap();
            rec
        };
        let rec = exchange(Some(5));
        assert_eq!(rec.flow.src.ip, CLIENT, "oriented from the initiator");
        assert_eq!(rec.class_port, Port(2049));
        assert_eq!((rec.start_us, rec.end_us), (1_000, 3_200));
        assert_eq!((rec.req_bytes, rec.resp_bytes), (300, 150));
        assert_eq!(rec.user_us, 0, "initiator cannot attribute server time");
        assert_eq!(rec, exchange(None), "same record as the black-box path");
    }

    #[test]
    fn arm_completion_triggers_on_next_correlator() {
        let mut l = lpa();
        let rf = req_flow();
        let tf = rf.reversed();
        // Full exchange for id 1…
        l.on_event(&net_arm(1_000, NetPoint::RxNic, rf, 500, None, 1));
        l.on_event(&net_arm(
            2_000,
            NetPoint::TxFromUser,
            tf,
            100,
            Some(Pid(1)),
            1,
        ));
        assert_eq!(l.records_completed(), 0, "still open");
        // …a packet of id 2 finishes it eagerly (no idle flush needed).
        l.on_event(&net_arm(3_000, NetPoint::RxNic, rf, 500, None, 2));
        assert_eq!(l.records_completed(), 1);
    }

    #[test]
    fn arm_kernel_and_user_attribution() {
        let mut l = lpa();
        let rf = req_flow();
        let tf = rf.reversed();
        let pid = Pid(5);
        l.on_event(&net_arm(1_000, NetPoint::RxNic, rf, 500, None, 9));
        l.on_event(&net_arm(
            1_400,
            NetPoint::RxDeliverUser,
            rf,
            500,
            Some(pid),
            9,
        ));
        l.on_event(&ev(
            1_500,
            EventPayload::ContextSwitch {
                from: None,
                to: Some(pid),
            },
        ));
        l.on_event(&ev(
            1_700,
            EventPayload::ContextSwitch {
                from: Some(pid),
                to: None,
            },
        ));
        l.on_event(&net_arm(1_800, NetPoint::TxFromUser, tf, 100, Some(pid), 9));
        l.on_event(&net_arm(1_820, NetPoint::TxNicDone, tf, 100, None, 9));
        l.flush_idle(SimTime::from_secs(1));
        let rec = l.window_snapshot().next().unwrap();
        assert_eq!(rec.kernel_in_us, 400, "rx -> deliver");
        assert_eq!(rec.user_us, 200, "pid ran 200us inside the window");
        assert_eq!(rec.kernel_out_us, 20);
    }

    #[test]
    fn arm_request_without_response_is_evicted_and_counted() {
        let mut l = lpa();
        l.on_event(&net_arm(1_000, NetPoint::RxNic, req_flow(), 500, None, 7));
        l.flush_idle(SimTime::from_secs(1));
        assert_eq!((l.records_completed(), l.arm_dropped()), (0, 1));
        // The state is gone: a later response for the same id cannot pair.
        l.on_event(&net_arm(
            2_000_000,
            NetPoint::TxFromUser,
            req_flow().reversed(),
            100,
            Some(Pid(1)),
            7,
        ));
        l.flush_idle(SimTime::from_secs(10));
        assert_eq!(l.records_completed(), 0, "orphan response never pairs");
        assert_eq!(l.arm_dropped(), 2, "and is dropped in turn");
    }

    /// A server that answers 200 ms after the request, the daemon waking
    /// every 100 ms. The black-box tracker parks the request at the first
    /// wake and pairs it with the response; the ARM tracker drops the
    /// unanswered correlator there, so the same exchange tagged is never
    /// recorded (ROADMAP 5(d), 5(e)).
    #[test]
    fn a_response_after_the_next_wake_is_dropped_by_arm_and_paired_black_box() {
        let run = |arm: Option<u64>| {
            let mut l = lpa();
            let (rf, pid) = (req_flow(), Some(Pid(1)));
            let at = |wall, point, flow, pid, id: Option<u64>| match id {
                Some(id) => net_arm(wall, point, flow, 200, pid, id),
                None => net(wall, point, flow, 200, pid),
            };
            l.on_event(&at(1_000, NetPoint::RxNic, rf, None, arm));
            l.on_event(&at(1_300, NetPoint::RxDeliverUser, rf, pid, arm));
            l.flush_idle(SimTime::from_millis(100));
            l.flush_idle(SimTime::from_millis(200));
            l.on_event(&at(201_300, NetPoint::TxFromUser, rf.reversed(), pid, arm));
            l.on_event(&at(201_320, NetPoint::TxNicDone, rf.reversed(), None, arm));
            // The client's next request ends the response run.
            let next = arm.map(|id| id + 1);
            l.on_event(&at(202_000, NetPoint::RxNic, rf, None, next));
            (l.records_completed(), l.arm_dropped())
        };
        assert_eq!(run(None), (1, 0), "black-box pairs the parked request");
        assert_eq!(run(Some(1)), (0, 1), "ARM dropped it at the 100 ms wake");
    }

    /// The level is the LPA's Kprof interest and whether it stages
    /// records; every level keeps class aggregates.
    #[test]
    fn the_level_sets_interest_and_staging() {
        for (level, mask, staged) in [
            (MonitorLevel::Off, EventMask::NONE, 1),
            (MonitorLevel::ClassAggregates, EventMask::NETWORK, 0),
            (MonitorLevel::Interactions, EventMask::NETWORK, 1),
            (
                MonitorLevel::Full,
                EventMask::NETWORK | EventMask::SCHEDULING,
                1,
            ),
        ] {
            let cfg = LpaConfig {
                level,
                ..Default::default()
            };
            let mut l = Lpa::new(NodeId(1), ME, cfg);
            assert_eq!(l.interest().mask, mask, "{level:?}");
            one_exchange(&mut l, 1_000);
            l.flush_idle(SimTime::from_secs(1));
            assert_eq!(l.drain().len(), staged, "{level:?}");
            assert_eq!(l.class_summaries().len(), 1, "{level:?}");
        }
    }

    #[test]
    fn untagged_flows_fall_back_to_blackbox_pairing() {
        let mut l = lpa();
        // Another client's process on this node links against ARM: its
        // exchange is tracked per correlator…
        let tagged = FlowKey::new(
            EndPoint::new(CLIENT, Port(40001)),
            EndPoint::new(ME, Port(2049)),
        );
        l.on_event(&net_arm(900, NetPoint::RxNic, tagged, 500, None, 1));
        l.on_event(&net_arm(
            1_900,
            NetPoint::TxFromUser,
            tagged.reversed(),
            100,
            Some(Pid(1)),
            1,
        ));
        // …while the correlator-free flow beside it still pairs black-box.
        one_exchange(&mut l, 1_000);
        l.on_event(&net(50_000, NetPoint::RxNic, req_flow(), 1, None));
        assert_eq!(l.records_completed(), 1, "black-box path still works");
        assert_eq!(l.window_snapshot().next().unwrap().flow, req_flow());
        l.flush_idle(SimTime::from_secs(1));
        assert_eq!(l.records_completed(), 2, "and the tagged exchange closed");
    }

    #[test]
    fn reconfigure_preserves_staged_records() {
        let mut l = lpa();
        one_exchange(&mut l, 1_000);
        l.flush_idle(SimTime::from_secs(1));
        assert_eq!(l.records_completed(), 1);
        let mut cfg = l.config().clone();
        cfg.window = 16;
        l.reconfigure(cfg);
        assert_eq!(l.drain().len(), 1, "record survives reconfiguration");
    }

    #[test]
    fn reconfigure_keeps_the_loss_count() {
        let cfg = LpaConfig {
            window: 4,
            ..Default::default()
        };
        let mut l = Lpa::new(NodeId(1), ME, cfg);
        // Nobody drains: 20 records through 2 x 4 slots overflow.
        for i in 0..20 {
            one_exchange(&mut l, 1_000 + i * 10_000);
        }
        l.flush_idle(SimTime::from_secs(1));
        assert_eq!(l.records_completed(), 20);
        let lost = l.overwritten();
        assert!(lost > 0, "the small buffers overflowed");
        // Shrinking keeps what was lost and adds what no longer fits.
        let mut cfg = l.config().clone();
        cfg.window = 1;
        l.reconfigure(cfg);
        assert!(
            l.overwritten() > lost,
            "staged records met a smaller buffer"
        );
        // The recent-interaction history shrinks with it, at once.
        assert!(
            l.window_snapshot().count() <= 1,
            "history longer than the window"
        );
        let mut drained = l.drain().len() as u64;
        assert_eq!(drained + l.overwritten(), 20);
        // Growing again loses nothing and forgets nothing.
        let mut cfg = l.config().clone();
        cfg.window = 64;
        l.reconfigure(cfg);
        for i in 20..30 {
            one_exchange(&mut l, 1_000 + i * 10_000);
        }
        l.flush_idle(SimTime::from_secs(2));
        drained += l.drain().len() as u64;
        assert_eq!(drained + l.overwritten(), l.records_completed());
    }

    /// FNV-1a over the raw rows: a fingerprint of a record stream that
    /// needs nothing from the code under test.
    fn fingerprint(records: &[InteractionRecord], mut h: u64) -> u64 {
        let mut row = Vec::new();
        for r in records {
            r.to_raw_row(&mut row);
            for byte in row.iter().flat_map(|v| v.to_le_bytes()) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// A conversation's events after its first reach its state without a
    /// probe: one exchange is eight network events on one flow, so seven
    /// of its eight lookups are answered by the remembered slot, and a
    /// second flow's exchange costs one probe more.
    #[test]
    fn a_continuing_conversation_is_not_probed() {
        let mut l = lpa();
        one_exchange(&mut l, 1_000);
        assert_eq!(l.flow_lookups(), (8, 7));
        let other = FlowKey::new(
            EndPoint::new(CLIENT, Port(40_001)),
            EndPoint::new(ME, Port(2049)),
        );
        exchange_on(&mut l, other, 2_000);
        assert_eq!(l.flow_lookups(), (16, 14));
        // The four scheduling events look up nothing.
        assert_eq!(l.events_seen(), 20);
    }

    /// A wake frees an ended flow's slot and forgets the remembered one:
    /// the same flow's next request gets a fresh state through the index,
    /// and the next new flow does not inherit it. (Remembering a freed
    /// slot would leave A's new request in it, unindexed, for B's first
    /// packet to extend: B's exchange would be recorded under A's flow.)
    #[test]
    fn a_freed_slot_is_not_remembered() {
        let b = FlowKey::new(
            EndPoint::new(CLIENT, Port(40_001)),
            EndPoint::new(ME, Port(2049)),
        );
        let mut alone = lpa();
        exchange_on(&mut alone, b, 200_000);
        alone.flush_idle(SimTime::from_secs(1));
        let want = alone.drain();

        let mut l = lpa();
        one_exchange(&mut l, 1_000);
        l.flush_idle(SimTime::from_millis(100));
        assert_eq!(l.drain().len(), 1);
        assert!(l.flows.index.is_empty(), "the ended flow's slot is free");
        l.on_event(&net(150_000, NetPoint::RxNic, req_flow(), 100, None));
        exchange_on(&mut l, b, 200_000);
        l.flush_idle(SimTime::from_secs(1));
        let mut got = l.drain();
        got.retain(|r| r.flow == b);
        assert_eq!(got, want);
        assert_eq!(l.flows.index.len(), 1, "A's lone request is still held");
    }

    #[test]
    fn ended_flows_leave_the_table_and_records_do_not_change() {
        let mut l = lpa();
        let server = EndPoint::new(ME, Port(2049));
        let client = |i: u64| EndPoint::new(CLIENT, Port(20_000 + (i % 7_000) as u16));
        let (mut count, mut print) = (0, 0xCBF2_9CE4_8422_2325);
        let mut peak = 0;
        // 10,000 one-exchange connections, 1 ms apart, on ephemeral ports
        // that come round again after 7,000; the daemon wakes every 100.
        for i in 0..10_000u64 {
            exchange_on(&mut l, FlowKey::new(client(i), server), i * 1_000);
            if i % 100 == 99 {
                l.flush_idle(SimTime::from_micros(i * 1_000 + 500));
                let records = l.drain();
                count += records.len();
                print = fingerprint(&records, print);
                peak = peak.max(l.flows.index.len());
            }
        }
        // Only conversations younger than `IDLE_CLOSE` (50 ms = 50 of
        // them) are live at a wake, and one pid ever had a window open.
        assert!(peak <= 51, "{peak} flow states held at a daemon wake");
        assert!(l.open_windows.len() <= 1);
        // Three conversations stop half way; everything else ends.
        for i in 10_000..10_003u64 {
            let rf = FlowKey::new(client(i), server);
            l.on_event(&net(20_000_000, NetPoint::RxNic, rf, 100, None));
        }
        l.flush_idle(SimTime::from_micros(20_010_000));
        let records = l.drain();
        count += records.len();
        print = fingerprint(&records, print);
        assert_eq!(l.flows.index.len(), 3, "the live flows, nothing else");
        assert!(l.open_windows.is_empty());
        // The same stream through the parent commit's table, which never
        // forgot a flow, gives this count and this fingerprint.
        assert_eq!(count, 10_000);
        assert_eq!(print, 0x1906_619F_0DBE_15D6);
    }

    /// One event of a seeded stream, in `proptests::arb_event`'s shapes: a
    /// packet of `inbound` or its reverse at one of the five network points
    /// (or dropped), or a scheduling event of `pid`.
    fn seeded_event(
        rng: &mut SimRng,
        wall_us: u64,
        inbound: FlowKey,
        pid: Pid,
        arm: Option<u64>,
    ) -> Event {
        let size = rng.uniform_u64(64, 1_500) as u32;
        let net = |point, flow, pid| EventPayload::Net {
            point,
            flow,
            packet: PacketId(wall_us),
            size,
            pid,
            arm,
        };
        let payload = match rng.index(10) {
            0 => net(NetPoint::RxNic, inbound, None),
            1 => net(NetPoint::RxSocketBuffer, inbound, Some(pid)),
            2 => net(NetPoint::RxDeliverUser, inbound, Some(pid)),
            3 => net(NetPoint::TxFromUser, inbound.reversed(), Some(pid)),
            4 => net(NetPoint::TxNicDone, inbound.reversed(), None),
            5 => EventPayload::ContextSwitch {
                from: None,
                to: Some(pid),
            },
            6 => EventPayload::ContextSwitch {
                from: Some(pid),
                to: None,
            },
            7 => EventPayload::ProcessBlock {
                pid,
                reason: BlockReason::DiskIo,
            },
            8 => EventPayload::ProcessWake { pid },
            _ => net(NetPoint::Drop, inbound, None),
        };
        ev(wall_us, payload)
    }

    /// The exactness check of both trackers: 300 seeded streams of 300
    /// events (over 20 ms, 200 ms or 2 s; no ARM ids, half of them or all
    /// of them tagged 0..4), the last 100 with this node also initiating
    /// (ME:30000+pid → peer:80) from the pids it serves with, the daemon
    /// waking every 20 ms. Count and fingerprint are the parent commit's
    /// (2ce6f26), before the two trackers shared one attribution window.
    #[test]
    fn seeded_streams_match_the_parent() {
        const WAKE: SimDuration = SimDuration::from_millis(20);
        let (mut count, mut print) = (0, 0xCBF2_9CE4_8422_2325);
        for stream in 0..300u64 {
            let mut rng = SimRng::seed(stream);
            let span = [20_000, 200_000, 2_000_000][(stream % 3) as usize];
            let tagged = [0.0, 0.5, 1.0][(stream / 3 % 3) as usize];
            let initiates = stream >= 200;
            let mut events: Vec<Event> = (0..300)
                .map(|_| {
                    let wall = rng.uniform_u64(0, span);
                    let pid = Pid(1 + rng.index(3) as u32);
                    let peer = Ip(1 + rng.index(3) as u32);
                    let arm = rng.chance(tagged).then(|| rng.uniform_u64(0, 4));
                    let inbound = if initiates && rng.chance(0.5) {
                        let ephemeral = EndPoint::new(ME, Port(30_000 + pid.0 as u16));
                        FlowKey::new(EndPoint::new(peer, Port(80)), ephemeral)
                    } else {
                        FlowKey::new(
                            EndPoint::new(peer, Port(40_000)),
                            EndPoint::new(ME, Port(2049)),
                        )
                    };
                    seeded_event(&mut rng, wall, inbound, pid, arm)
                })
                .collect();
            events.sort_by_key(|e| e.wall);
            let mut l = lpa();
            let mut records = Vec::new();
            let mut next_wake = SimTime::ZERO + WAKE;
            for e in &events {
                while e.wall >= next_wake {
                    l.flush_idle(next_wake);
                    records.extend(l.drain());
                    next_wake += WAKE;
                }
                l.on_event(e);
            }
            l.flush_idle(SimTime::from_secs(10));
            records.extend(l.drain());
            count += records.len();
            print = fingerprint(&records, print);
        }
        assert_eq!(count, 3_781);
        assert_eq!(print, 0x39E3_D9AB_1000_8AD5);
    }
}

#[cfg(test)]
#[allow(unused)] // a typecheck-only proptest elides macro bodies, orphaning these helpers
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use simnet::{EndPoint, PacketId};

    const ME: Ip = Ip(0x0A000002);

    /// Generates an arbitrary (but plausible) kernel event.
    fn arb_event() -> impl Strategy<Value = Event> {
        let ep = |ip: u32, port: u16| EndPoint::new(Ip(ip), Port(port));
        (
            0u64..2_000_000,           // wall µs
            0u8..10,                   // payload selector
            1u32..4,                   // pid
            0u32..3,                   // peer ip selector
            prop::option::of(0u64..4), // arm id
            64u32..1500,               // size
        )
            .prop_map(move |(wall, sel, pid, peer, arm, size)| {
                let pid = Pid(pid);
                let inbound = FlowKey::new(ep(peer + 1, 40_000), ep(0x0A00_0002, 2049));
                let outbound = inbound.reversed();
                let payload = match sel {
                    0 => EventPayload::Net {
                        point: NetPoint::RxNic,
                        flow: inbound,
                        packet: PacketId(wall),
                        size,
                        pid: None,
                        arm,
                    },
                    1 => EventPayload::Net {
                        point: NetPoint::RxSocketBuffer,
                        flow: inbound,
                        packet: PacketId(wall),
                        size,
                        pid: Some(pid),
                        arm,
                    },
                    2 => EventPayload::Net {
                        point: NetPoint::RxDeliverUser,
                        flow: inbound,
                        packet: PacketId(wall),
                        size,
                        pid: Some(pid),
                        arm,
                    },
                    3 => EventPayload::Net {
                        point: NetPoint::TxFromUser,
                        flow: outbound,
                        packet: PacketId(wall),
                        size,
                        pid: Some(pid),
                        arm,
                    },
                    4 => EventPayload::Net {
                        point: NetPoint::TxNicDone,
                        flow: outbound,
                        packet: PacketId(wall),
                        size,
                        pid: None,
                        arm,
                    },
                    5 => EventPayload::ContextSwitch {
                        from: None,
                        to: Some(pid),
                    },
                    6 => EventPayload::ContextSwitch {
                        from: Some(pid),
                        to: None,
                    },
                    7 => EventPayload::ProcessBlock {
                        pid,
                        reason: BlockReason::DiskIo,
                    },
                    8 => EventPayload::ProcessWake { pid },
                    _ => EventPayload::Net {
                        point: NetPoint::Drop,
                        flow: inbound,
                        packet: PacketId(wall),
                        size,
                        pid: None,
                        arm,
                    },
                };
                Event {
                    seq: wall,
                    node: NodeId(1),
                    cpu: 0,
                    wall: SimTime::from_micros(wall),
                    payload,
                }
            })
    }

    /// One event of a conversation between `peer` and this node's port
    /// 2049, served by `pid`, at `wall_us`: a packet observation at one of
    /// the five network points, or a scheduling event of `pid`.
    fn conversation_event(wall_us: u64, sel: u8, size: u32, peer: EndPoint, pid: Pid) -> Event {
        let inbound = FlowKey::new(peer, EndPoint::new(ME, Port(2049)));
        let net = |point, flow, pid| EventPayload::Net {
            point,
            flow,
            packet: PacketId(wall_us),
            size,
            pid,
            arm: None,
        };
        let payload = match sel {
            0 | 1 => net(NetPoint::RxNic, inbound, None),
            2 => net(NetPoint::RxSocketBuffer, inbound, Some(pid)),
            3 => net(NetPoint::RxDeliverUser, inbound, Some(pid)),
            4 | 5 => net(NetPoint::TxFromUser, inbound.reversed(), Some(pid)),
            6 => net(NetPoint::TxNicDone, inbound.reversed(), None),
            7 => EventPayload::ContextSwitch {
                from: None,
                to: Some(pid),
            },
            8 => EventPayload::ContextSwitch {
                from: Some(pid),
                to: None,
            },
            9 => EventPayload::ProcessBlock {
                pid,
                reason: BlockReason::DiskIo,
            },
            _ => EventPayload::ProcessWake { pid },
        };
        Event {
            seq: wall_us,
            node: NodeId(1),
            cpu: 0,
            wall: SimTime::from_micros(wall_us),
            payload,
        }
    }

    /// Runs `events` (in wall order) with the daemon waking every 20 ms,
    /// and returns the records whose request ran from `peer`.
    fn records_of(peer: EndPoint, events: &[Event]) -> Vec<InteractionRecord> {
        const WAKE: SimDuration = SimDuration::from_millis(20);
        let mut lpa = Lpa::new(NodeId(1), ME, LpaConfig::default());
        let mut out = Vec::new();
        let mut next_wake = SimTime::ZERO + WAKE;
        for ev in events {
            while ev.wall >= next_wake {
                lpa.flush_idle(next_wake);
                out.extend(lpa.drain());
                next_wake += WAKE;
            }
            lpa.on_event(ev);
        }
        lpa.flush_idle(SimTime::from_secs(10));
        out.extend(lpa.drain());
        out.retain(|r| r.flow.src == peer || r.flow.dst == peer);
        out
    }

    proptest! {
        /// What the LPA reports about one conversation does not depend on
        /// what else the node is doing: events of other flows and other
        /// processes between its packets change none of its records, and
        /// neither do the daemon wakes evicting ended flows in between.
        #[test]
        fn prop_records_ignore_unrelated_interleaving(
            subject in proptest::collection::vec((0u64..300_000, 0u8..11, 64u32..1500), 1..120),
            noise in proptest::collection::vec(
                (0u64..300_000, 0u8..11, 64u32..1500, 1u16..5, 10u32..14),
                0..240,
            ),
        ) {
            let peer = EndPoint::new(Ip(0x0A00_0001), Port(40_000));
            let mut alone: Vec<Event> = subject
                .iter()
                .map(|&(wall, sel, size)| conversation_event(2 * wall, sel, size, peer, Pid(1)))
                .collect();
            alone.sort_by_key(|e| e.wall);
            // Other clients (same address, other ports: the table tells
            // them apart by port alone) served by other processes, at odd
            // microseconds so the merge order is unambiguous.
            let mut mixed = alone.clone();
            mixed.extend(noise.iter().map(|&(wall, sel, size, port, pid)| {
                let other = EndPoint::new(peer.ip, Port(peer.port.0 + port));
                conversation_event(2 * wall + 1, sel, size, other, Pid(pid))
            }));
            mixed.sort_by_key(|e| e.wall);
            prop_assert_eq!(records_of(peer, &alone), records_of(peer, &mixed));
        }

        /// The LPA is total: any event sequence (in any order, including
        /// time going backwards between flows) processes without panics,
        /// and every produced record satisfies basic invariants.
        #[test]
        fn prop_lpa_total_and_records_sane(
            mut events in proptest::collection::vec(arb_event(), 0..300),
        ) {
            // Deliver in wall order (the kernel emits in order).
            events.sort_by_key(|e| e.wall);
            let mut lpa = Lpa::new(NodeId(1), ME, LpaConfig::default());
            for (i, ev) in events.iter().enumerate() {
                let out = lpa.on_event(ev);
                prop_assert!(out.cost > SimDuration::ZERO);
                // Occasionally flush mid-stream, as the daemon would.
                if i % 37 == 36 {
                    lpa.flush_idle(ev.wall + SimDuration::from_secs(1));
                    lpa.drain();
                }
            }
            lpa.flush_idle(SimTime::from_secs(10));
            for rec in lpa.drain() {
                prop_assert!(rec.end_us >= rec.start_us, "span sane");
                prop_assert!(rec.req_packets >= 1);
                prop_assert!(rec.resp_packets >= 1);
                prop_assert!(
                    rec.kernel_in_us <= rec.end_us - rec.start_us + 1,
                    "kernel-in {} inside span {}",
                    rec.kernel_in_us,
                    rec.end_us - rec.start_us
                );
                prop_assert_eq!(rec.node, NodeId(1));
            }
        }
    }
}
