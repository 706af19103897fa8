//! The scheduler side of [`World`]: dispatch, quanta, and what a finished
//! syscall or kernel→program delivery does to its process.

use kprof::{BlockReason, EventPayload, GroupId, NetPoint, Pid, SyscallKind};
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{EndPoint, Packet, Port};

use super::{Ev, QuantumKind, World};
use crate::cost;
use crate::node::RunningQuantum;
use crate::process::{PendingWork, ProcState};
use crate::program::{Action, Callback, ProcCtx};
use crate::socket::SocketId;

impl World {
    /// Ensures a Dispatch event is pending if the CPU could start work.
    pub(super) fn try_dispatch(&mut self, node: NodeId, now: SimTime) {
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
    pub(super) fn dispatch(&mut self, node: NodeId, now: SimTime) {
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
    pub(super) fn start_quantum(
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
            total += cost::CONTEXT_SWITCH;
            n.stats.cpu.kernel += cost::CONTEXT_SWITCH;
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
    pub(super) fn next_quantum(
        &mut self,
        node: NodeId,
        pid: Pid,
    ) -> Option<(QuantumKind, SimDuration, Option<SyscallKind>)> {
        let n = &mut self.nodes[node.0 as usize];
        let p = n.procs.get_mut(&pid).filter(|p| !p.is_exited())?;
        let blocked_on = loop {
            // Resume preempted compute first.
            if !p.remaining_compute.is_zero() {
                p.state = ProcState::Running;
                let work = p.remaining_compute.min(cost::TIMESLICE);
                return Some((QuantumKind::Compute, work, None));
            }

            // Next queued op. Sends block first on tx backpressure.
            if matches!(p.ops.front(), Some(Action::Send { .. }))
                && n.tx_queue_bytes >= cost::SOCKET_TX_BYTES
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
                            cost::SYSCALL_BASE + cost::copy_cost(*bytes) + cost::TX_STACK * packets,
                            SyscallKind::Send,
                        )
                    }
                    Action::Listen { .. } => (cost::SYSCALL_BASE, SyscallKind::Open),
                    Action::Connect { .. } => (cost::SYSCALL_BASE * 2, SyscallKind::Open),
                    Action::Close { .. } => (cost::SYSCALL_BASE, SyscallKind::Close),
                    Action::FileRead { bytes, .. } => (
                        cost::SYSCALL_BASE + cost::copy_cost(*bytes),
                        SyscallKind::Read,
                    ),
                    Action::FileWrite { bytes, .. } => (
                        cost::SYSCALL_BASE + cost::copy_cost(*bytes),
                        SyscallKind::Write,
                    ),
                    Action::Sleep { .. } => (cost::SYSCALL_BASE, SyscallKind::Sleep),
                    Action::Spawn { .. } => (cost::SPAWN, SyscallKind::Fork),
                    Action::Exit => (cost::SYSCALL_BASE, SyscallKind::Exit),
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
                                let work = if p.kernel_daemon {
                                    cost::SYSCALL_BASE
                                } else {
                                    cost::SYSCALL_BASE
                                        + cost::RX_DELIVER * npackets as u64
                                        + cost::copy_cost(msg.bytes)
                                };
                                (work, Some(SyscallKind::Recv))
                            }
                            // Stale notification (socket closed or message
                            // already consumed): skip it and look again.
                            None => continue,
                        }
                    }
                    PendingWork::Start
                    | PendingWork::Connected(_)
                    | PendingWork::IoDone(_)
                    | PendingWork::Timer(_) => (cost::SYSCALL_BASE, None),
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
    pub(super) fn quantum_end(&mut self, node: NodeId, now: SimTime) {
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

    /// Applies a completed syscall op. Returns true if the process blocked.
    pub(super) fn apply_op(&mut self, node: NodeId, pid: Pid, op: Action, now: SimTime) -> bool {
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

    pub(super) fn apply_connect(
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
    pub(super) fn try_connect(
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
                now + cost::SYN_RETRY,
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
            .unwrap_or(cost::CONN_SETUP);
        self.queue
            .schedule(now + delay, Ev::ConnEstablished { node, pid, sock });
    }

    /// Synchronous file I/O: charge the disk and block the caller.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn file_io(
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

    pub(super) fn emit_file_open_once(&mut self, node: NodeId, pid: Pid, file: kprof::FileId) {
        if self.nodes[node.0 as usize].opened.insert((pid, file)) {
            self.emit_ev(node, EventPayload::FileOpen { pid, file });
        }
    }

    pub(super) fn apply_exit(&mut self, node: NodeId, pid: Pid) {
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

    pub(super) fn block(&mut self, node: NodeId, pid: Pid, reason: BlockReason) {
        if let Some(p) = self.nodes[node.0 as usize].procs.get_mut(&pid) {
            p.state = ProcState::Blocked(reason);
        }
        self.emit_ev(node, EventPayload::ProcessBlock { pid, reason });
    }

    pub(super) fn wake(&mut self, node: NodeId, pid: Pid, now: SimTime) {
        self.post(node, pid, None, now);
    }

    /// Queues kernel→program work for `pid` (`times` copies of it) and
    /// wakes the process if it was blocked, on one process-table probe.
    pub(super) fn post(
        &mut self,
        node: NodeId,
        pid: Pid,
        work: Option<(PendingWork, usize)>,
        now: SimTime,
    ) {
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

    pub(super) fn apply_deliver(&mut self, node: NodeId, pid: Pid, item: PendingWork) {
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
    pub(super) fn invoke_program(&mut self, node: NodeId, pid: Pid, cb: Callback) {
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
    use super::super::tests::*;
    use super::*;
    use crate::Program;

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
