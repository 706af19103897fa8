//! Process and node lifecycle on [`World`]: spawning, fail-stop crash and
//! warm restart.

use kprof::{EventPayload, GroupId, Pid};
use simcore::{NodeId, SimDuration, SimTime};

use super::{Ev, World};
use crate::cost;
use crate::process::{ProcState, Process};
use crate::program::Program;

impl World {
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

    pub(super) fn spawn_with(
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

    pub(super) fn do_crash(&mut self, node: NodeId, now: SimTime) {
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

    pub(super) fn do_restart(&mut self, node: NodeId, now: SimTime) {
        if !self.down[node.0 as usize] {
            return;
        }
        self.down[node.0 as usize] = false;
        // The daemon's periodic wake chain died with the node; re-kick it
        // after a short boot delay so dissemination resumes.
        if self.daemon_hooks.contains_key(&node) {
            self.queue.schedule(
                now + cost::RESTART_BOOT,
                Ev::DaemonWake {
                    node,
                    analyzer: None,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use simnet::{EndPoint, LinkSpec, Port};

    use super::super::tests::*;
    use super::*;
    use crate::WorldBuilder;

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
}
