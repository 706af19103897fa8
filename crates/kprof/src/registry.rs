//! The per-node Kprof registry: event generation, selective dispatch, and
//! overhead accounting.

use std::any::Any;

use simcore::hash::HashMap;
use simcore::{NodeId, SimDuration, SimTime};

use crate::{
    cost, Analyzer, AnalyzerId, Event, EventKind, EventMask, EventPayload, GroupId, Pid, Predicate,
};

/// Counters describing what the monitoring layer did on this node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KprofStats {
    /// Events whose kind was enabled and that were built and dispatched.
    pub events_generated: u64,
    /// Total analyzer deliveries (one event may go to several analyzers).
    pub events_delivered: u64,
    /// Instrumentation-point hits whose kind no analyzer wanted.
    pub events_suppressed: u64,
    /// Deliveries suppressed by a predicate mismatch.
    pub predicate_rejections: u64,
    /// Total monitoring CPU time charged to this node.
    pub total_overhead: SimDuration,
}

struct Slot {
    id: AnalyzerId,
    mask: EventMask,
    /// The analyzer's predicate as of registration or the last
    /// `update_interest`, so the emit loop never asks for an [`Interest`].
    predicate: Predicate,
    analyzer: Box<dyn Analyzer>,
}

/// Result of emitting one event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmitResult {
    /// CPU time the emission consumed (hook + deliveries + analyzer work);
    /// the kernel charges this to the current CPU.
    pub cost: SimDuration,
    /// Analyzers whose active buffer filled during this emission; the
    /// kernel should wake the dissemination daemon for each.
    pub buffer_full: Vec<AnalyzerId>,
}

/// The per-node monitoring registry.
///
/// Owns the registered analyzers, knows which event kinds are wanted
/// (union of analyzer interests, gated by a global mask),
/// maintains the pid→group table predicates need, and accounts every
/// nanosecond of monitoring overhead.
pub struct Kprof {
    node: NodeId,
    /// Global gate; intersected with analyzer interest.
    global_mask: EventMask,
    slots: Vec<Slot>,
    effective_mask: EventMask,
    /// Per-kind dispatch table: `dispatch[kind as usize]` holds the slot
    /// indices of the analyzers interested in that kind, in registration
    /// order. Rebuilt on every registration, interest update, or
    /// global-mask change — so `emit` walks exactly the interested
    /// analyzers instead of scanning every slot. An analyzer whose
    /// interest is empty is off.
    dispatch: Vec<Vec<u32>>,
    /// Scratch for buffer-full notifications, reused across emissions so
    /// the hot path performs no heap allocation.
    full_scratch: Vec<AnalyzerId>,
    next_analyzer: u32,
    next_seq: u64,
    stats: KprofStats,
    pid_groups: HashMap<Pid, GroupId>,
}

impl Kprof {
    /// Creates a registry for `node` with all event kinds globally enabled
    /// (but nothing subscribed).
    pub fn new(node: NodeId) -> Self {
        Kprof {
            node,
            global_mask: EventMask::ALL,
            slots: Vec::new(),
            effective_mask: EventMask::NONE,
            dispatch: vec![Vec::new(); EventKind::ALL.len()],
            full_scratch: Vec::new(),
            next_analyzer: 0,
            next_seq: 0,
            stats: KprofStats::default(),
            pid_groups: HashMap::default(),
        }
    }

    /// The node this registry instruments.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registers an analyzer; its [`Interest`](crate::Interest) is read
    /// immediately. Returns the id used for later updates.
    pub fn register(&mut self, analyzer: Box<dyn Analyzer>) -> AnalyzerId {
        let id = AnalyzerId(self.next_analyzer);
        self.next_analyzer += 1;
        let interest = analyzer.interest();
        self.slots.push(Slot {
            id,
            mask: interest.mask,
            predicate: interest.predicate,
            analyzer,
        });
        self.recompute_mask();
        id
    }

    /// Re-reads an analyzer's interest after a runtime reconfiguration
    /// (an empty interest turns it off). Returns false if the id is
    /// unknown.
    pub fn update_interest(&mut self, id: AnalyzerId) -> bool {
        let Some(slot) = self.slots.iter_mut().find(|s| s.id == id) else {
            return false;
        };
        let interest = slot.analyzer.interest();
        slot.mask = interest.mask;
        slot.predicate = interest.predicate;
        self.recompute_mask();
        true
    }

    /// Sets the global gate mask. Events outside it are suppressed
    /// regardless of analyzer interest.
    pub fn set_global_mask(&mut self, mask: EventMask) {
        self.global_mask = mask;
        self.recompute_mask();
    }

    /// The union of analyzer interests, gated by the global mask —
    /// the set of kinds that will actually generate events.
    pub fn effective_mask(&self) -> EventMask {
        self.effective_mask
    }

    /// Recomputes the effective mask and rebuilds the per-kind dispatch
    /// table. Called on every registry mutation; `emit` only reads.
    fn recompute_mask(&mut self) {
        let mut m = EventMask::NONE;
        for slot in &self.slots {
            m |= slot.mask;
        }
        self.effective_mask = m.intersect(self.global_mask);
        for (kind, table) in EventKind::ALL.iter().zip(self.dispatch.iter_mut()) {
            table.clear();
            for (idx, slot) in self.slots.iter().enumerate() {
                if slot.mask.contains(*kind) {
                    table.push(idx as u32);
                }
            }
        }
    }

    /// Builds an event stamped with this node's identity and the given
    /// wall-clock time. (The caller — the simulated kernel — converts true
    /// time to wall time via the node clock before calling.)
    pub fn make_event(&mut self, wall: SimTime, cpu: u16, payload: EventPayload) -> Event {
        let seq = self.next_seq;
        self.next_seq += 1;
        Event {
            seq,
            node: self.node,
            cpu,
            wall,
            payload,
        }
    }

    /// Emits an event through the instrumentation point: dispatches it to
    /// every interested analyzer and returns the total CPU cost
    /// plus any buffer-full notifications.
    ///
    /// Also maintains the pid→group table from `ProcessCreate` /
    /// `ProcessExit` events (needed by group-id predicates), whether or
    /// not any analyzer wants them.
    ///
    /// This is the hook itself, and it is `#[inline(always)]` so every
    /// caller's event loop compiles it in: a hit whose kind nobody wants
    /// costs a mask test and two counter bumps, not a call. Delivery to
    /// the interested analyzers is the private `dispatch` behind it.
    #[inline(always)]
    pub fn emit(&mut self, event: &Event) -> EmitResult {
        // Bookkeeping reads are free: they model state the kernel already
        // maintains. It comes before the mask test because group
        // predicates read the table for events that are delivered later.
        match event.payload {
            EventPayload::ProcessCreate { pid, gid, .. } => {
                self.pid_groups.insert(pid, gid);
            }
            EventPayload::ProcessExit { pid } => {
                self.pid_groups.remove(&pid);
            }
            _ => {}
        }

        let kind = event.kind();
        if !self.effective_mask.contains(kind) {
            self.stats.events_suppressed += 1;
            self.stats.total_overhead += cost::DISABLED_HOOK;
            return EmitResult {
                cost: cost::DISABLED_HOOK,
                buffer_full: Vec::new(),
            };
        }
        self.dispatch(event, kind)
    }

    /// Delivers an enabled event of `kind` to every analyzer interested
    /// in it, in registration order, and accounts the cost. `#[inline]`
    /// lets a caller's hot loop take it in with the hook; out of line
    /// it read slower on `node_hotpath` (EXPERIMENTS S11).
    #[inline]
    fn dispatch(&mut self, event: &Event, kind: EventKind) -> EmitResult {
        let mut cost = cost::ENABLED_HOOK;
        self.stats.events_generated += 1;

        // Split borrows: the dispatch table and pid table are read while
        // slots are borrowed mutably; buffer-full ids go to the reusable
        // scratch so the common path never touches the heap.
        debug_assert!(self.full_scratch.is_empty());
        let pid_groups = &self.pid_groups;
        for &idx in &self.dispatch[kind as usize] {
            let slot = &mut self.slots[idx as usize];
            cost += cost::PER_DELIVERY;
            if !slot
                .predicate
                .matches(event, |pid| pid_groups.get(&pid).copied())
            {
                self.stats.predicate_rejections += 1;
                continue;
            }
            let outcome = slot.analyzer.on_event(event);
            cost += outcome.cost;
            self.stats.events_delivered += 1;
            if outcome.buffer_full {
                self.full_scratch.push(slot.id);
            }
        }

        self.stats.total_overhead += cost;
        let buffer_full = if self.full_scratch.is_empty() {
            Vec::new()
        } else {
            // Rare path: hand the accumulated ids to the caller. The
            // scratch is left empty (and re-grows its small capacity on
            // the next buffer-full emission).
            std::mem::take(&mut self.full_scratch)
        };
        EmitResult { cost, buffer_full }
    }

    /// Monitoring counters for this node.
    pub fn stats(&self) -> &KprofStats {
        &self.stats
    }

    /// The group a live process belongs to, if known.
    pub fn group_of(&self, pid: Pid) -> Option<GroupId> {
        self.pid_groups.get(&pid).copied()
    }

    /// Borrows a registered analyzer for inspection.
    pub fn analyzer_ref(&self, id: AnalyzerId) -> Option<&dyn Analyzer> {
        self.slots
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.analyzer.as_ref())
    }

    /// Mutably borrows a registered analyzer (e.g. for the daemon to drain
    /// its buffers).
    pub fn analyzer_mut(&mut self, id: AnalyzerId) -> Option<&mut (dyn Analyzer + 'static)> {
        self.slots
            .iter_mut()
            .find(|s| s.id == id)
            .map(|s| s.analyzer.as_mut())
    }

    /// Borrows a registered analyzer downcast to its concrete type.
    pub fn analyzer_as<T: 'static>(&self, id: AnalyzerId) -> Option<&T> {
        (self.analyzer_ref(id)? as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrows a registered analyzer downcast to its concrete type.
    pub fn analyzer_as_mut<T: 'static>(&mut self, id: AnalyzerId) -> Option<&mut T> {
        (self.analyzer_mut(id)? as &mut dyn Any).downcast_mut::<T>()
    }
}

impl std::fmt::Debug for Kprof {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kprof")
            .field("node", &self.node)
            .field("analyzers", &self.slots.len())
            .field("effective_mask", &self.effective_mask)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyzerOutcome, BlockReason, CountingAnalyzer, Interest, Predicate};
    use simcore::SimTime;

    fn wake(kprof: &mut Kprof, pid: u32) -> EmitResult {
        let ev = kprof.make_event(
            SimTime::from_micros(1),
            0,
            EventPayload::ProcessWake { pid: Pid(pid) },
        );
        kprof.emit(&ev)
    }

    #[test]
    fn no_subscribers_means_disabled_hook_cost() {
        let mut kprof = Kprof::new(NodeId(0));
        let r = wake(&mut kprof, 1);
        assert_eq!(r.cost, cost::DISABLED_HOOK);
        assert_eq!(kprof.stats().events_suppressed, 1);
        assert_eq!(kprof.stats().events_generated, 0);
    }

    #[test]
    fn subscriber_receives_and_costs_accrue() {
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(CountingAnalyzer::new(EventMask::SCHEDULING)));
        let r = wake(&mut kprof, 1);
        assert_eq!(
            r.cost,
            cost::ENABLED_HOOK + cost::PER_DELIVERY + cost::COUNTING_EVENT
        );
        assert_eq!(kprof.stats().events_delivered, 1);
    }

    #[test]
    fn mask_mismatch_suppresses_event() {
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(CountingAnalyzer::new(EventMask::FILESYSTEM)));
        let r = wake(&mut kprof, 1);
        assert_eq!(r.cost, cost::DISABLED_HOOK);
        assert_eq!(kprof.stats().events_suppressed, 1);
    }

    #[test]
    fn global_mask_gates_everything() {
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(CountingAnalyzer::new(EventMask::ALL)));
        kprof.set_global_mask(EventMask::NONE);
        assert!(kprof.effective_mask().is_empty());
        let r = wake(&mut kprof, 1);
        assert_eq!(r.cost, cost::DISABLED_HOOK);
    }

    /// An analyzer whose mask the test turns, as an LPA's level does.
    struct Switchable {
        mask: EventMask,
    }

    impl Analyzer for Switchable {
        fn name(&self) -> &str {
            "switchable"
        }
        fn interest(&self) -> Interest {
            Interest::mask(self.mask)
        }
        fn on_event(&mut self, _e: &Event) -> AnalyzerOutcome {
            AnalyzerOutcome {
                cost: SimDuration::ZERO,
                buffer_full: true,
            }
        }
    }

    fn switch(kprof: &mut Kprof, id: AnalyzerId, mask: EventMask) -> bool {
        kprof.analyzer_as_mut::<Switchable>(id).unwrap().mask = mask;
        kprof.update_interest(id)
    }

    #[test]
    fn empty_interest_is_off() {
        let mut kprof = Kprof::new(NodeId(0));
        let id = kprof.register(Box::new(Switchable {
            mask: EventMask::SCHEDULING,
        }));
        assert!(switch(&mut kprof, id, EventMask::NONE));
        assert_eq!(wake(&mut kprof, 1).cost, cost::DISABLED_HOOK);
        assert_eq!(kprof.stats().events_generated, 0);
        assert!(switch(&mut kprof, id, EventMask::SCHEDULING));
        wake(&mut kprof, 1);
        assert_eq!(kprof.stats().events_delivered, 1);
        assert!(!kprof.update_interest(AnalyzerId(99)));
    }

    /// Analyzer with a predicate, for registry-level predicate tests.
    struct PidFiltered {
        seen: u64,
        pid: Pid,
    }

    impl Analyzer for PidFiltered {
        fn name(&self) -> &str {
            "pid-filtered"
        }
        fn interest(&self) -> Interest {
            Interest {
                mask: EventMask::SCHEDULING,
                predicate: Predicate::new().pids([self.pid]),
            }
        }
        fn on_event(&mut self, _e: &Event) -> AnalyzerOutcome {
            self.seen += 1;
            AnalyzerOutcome::cost(SimDuration::from_nanos(50))
        }
    }

    #[test]
    fn predicate_rejections_counted() {
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(PidFiltered {
            seen: 0,
            pid: Pid(42),
        }));
        wake(&mut kprof, 1); // rejected by predicate
        wake(&mut kprof, 42); // delivered
        assert_eq!(kprof.stats().predicate_rejections, 1);
        assert_eq!(kprof.stats().events_delivered, 1);
    }

    #[test]
    fn pid_group_table_tracks_create_and_exit() {
        let mut kprof = Kprof::new(NodeId(0));
        let create = kprof.make_event(
            SimTime::ZERO,
            0,
            EventPayload::ProcessCreate {
                pid: Pid(9),
                parent: None,
                gid: GroupId(4),
            },
        );
        kprof.emit(&create);
        assert_eq!(kprof.group_of(Pid(9)), Some(GroupId(4)));
        let exit = kprof.make_event(SimTime::ZERO, 0, EventPayload::ProcessExit { pid: Pid(9) });
        kprof.emit(&exit);
        assert_eq!(kprof.group_of(Pid(9)), None);
    }

    #[test]
    fn gid_predicate_uses_registry_table() {
        struct GidFiltered {
            seen: u64,
        }
        impl Analyzer for GidFiltered {
            fn name(&self) -> &str {
                "gid-filtered"
            }
            fn interest(&self) -> Interest {
                Interest {
                    mask: EventMask::SCHEDULING,
                    predicate: Predicate::new().gids([GroupId(7)]),
                }
            }
            fn on_event(&mut self, _e: &Event) -> AnalyzerOutcome {
                self.seen += 1;
                AnalyzerOutcome::default()
            }
        }
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(GidFiltered { seen: 0 }));
        let create = kprof.make_event(
            SimTime::ZERO,
            0,
            EventPayload::ProcessCreate {
                pid: Pid(1),
                parent: None,
                gid: GroupId(7),
            },
        );
        kprof.emit(&create);
        // ProcessCreate itself matched (pid 1 is in gid 7 by then).
        wake(&mut kprof, 1);
        assert_eq!(kprof.stats().events_delivered, 2);
        wake(&mut kprof, 2); // unknown pid -> rejected
        assert_eq!(kprof.stats().predicate_rejections, 1);
    }

    /// The hook keeps the pid→group table before it tests the mask: a
    /// process's create and exit change what a group predicate admits
    /// even when no analyzer subscribes to scheduling events.
    #[test]
    fn suppressed_create_and_exit_still_move_group_predicates() {
        struct NetGid;
        impl Analyzer for NetGid {
            fn name(&self) -> &str {
                "net-gid"
            }
            fn interest(&self) -> Interest {
                Interest {
                    mask: EventMask::NETWORK,
                    predicate: Predicate::new().gids([GroupId(7)]),
                }
            }
            fn on_event(&mut self, _e: &Event) -> AnalyzerOutcome {
                AnalyzerOutcome::default()
            }
        }
        fn net(kprof: &mut Kprof) -> EmitResult {
            let flow = simnet::FlowKey::new(
                simnet::EndPoint::new(simnet::Ip(1), simnet::Port(5000)),
                simnet::EndPoint::new(simnet::Ip(2), simnet::Port(80)),
            );
            let ev = kprof.make_event(
                SimTime::ZERO,
                0,
                EventPayload::Net {
                    point: crate::NetPoint::RxNic,
                    flow,
                    packet: simnet::PacketId(1),
                    size: 64,
                    pid: Some(Pid(5)),
                    arm: None,
                },
            );
            kprof.emit(&ev)
        }
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(NetGid));
        let create = kprof.make_event(
            SimTime::ZERO,
            0,
            EventPayload::ProcessCreate {
                pid: Pid(5),
                parent: None,
                gid: GroupId(7),
            },
        );
        assert_eq!(kprof.emit(&create).cost, cost::DISABLED_HOOK);
        let delivered = net(&mut kprof);
        assert_eq!(kprof.stats().events_delivered, 1);

        let exit = kprof.make_event(SimTime::ZERO, 0, EventPayload::ProcessExit { pid: Pid(5) });
        assert_eq!(kprof.emit(&exit).cost, cost::DISABLED_HOOK);
        let rejected = net(&mut kprof);
        let stats = *kprof.stats();
        assert_eq!((stats.events_delivered, stats.predicate_rejections), (1, 1));
        assert_eq!((stats.events_suppressed, stats.events_generated), (2, 2));
        assert_eq!(delivered.cost, cost::ENABLED_HOOK + cost::PER_DELIVERY);
        assert_eq!(rejected.cost, cost::ENABLED_HOOK + cost::PER_DELIVERY);
        assert_eq!(
            stats.total_overhead,
            cost::DISABLED_HOOK * 2 + (cost::ENABLED_HOOK + cost::PER_DELIVERY) * 2
        );
    }

    #[test]
    fn buffer_full_ids_survive_scratch_reuse() {
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(CountingAnalyzer::new(EventMask::SCHEDULING)));
        let full = kprof.register(Box::new(Switchable {
            mask: EventMask::SCHEDULING,
        }));
        // The scratch is drained into each result, never carried over.
        for _ in 0..3 {
            let r = wake(&mut kprof, 1);
            assert_eq!(r.buffer_full, vec![full]);
        }
        switch(&mut kprof, full, EventMask::NONE);
        let r = wake(&mut kprof, 1);
        assert!(r.buffer_full.is_empty());
    }

    #[test]
    fn seq_numbers_are_monotone() {
        let mut kprof = Kprof::new(NodeId(0));
        let a = kprof.make_event(SimTime::ZERO, 0, EventPayload::ProcessWake { pid: Pid(1) });
        let b = kprof.make_event(
            SimTime::ZERO,
            0,
            EventPayload::ProcessBlock {
                pid: Pid(1),
                reason: BlockReason::Sleep,
            },
        );
        assert!(b.seq > a.seq);
    }

    #[test]
    fn overhead_accumulates_in_stats() {
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(CountingAnalyzer::new(EventMask::SCHEDULING)));
        let before = kprof.stats().total_overhead;
        let r = wake(&mut kprof, 1);
        assert_eq!(kprof.stats().total_overhead, before + r.cost);
    }
}
