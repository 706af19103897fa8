//! The calendar side of [`World`]: the event loop, the dispatch of one
//! calendar event to its handler, and the two places every handler charges
//! CPU time through — [`World::emit_ev`] and [`World::steal`].

use kprof::{Event, EventPayload};
use simcore::{CalendarStats, NodeId, SimDuration, SimTime};

use super::{CpuCat, Ev, World};
use crate::cost;
use crate::process::PendingWork;

impl World {
    /// What the event calendar has done so far: exact counts of events
    /// scheduled, fired, cancelled and stretched in place, and of the heap
    /// traffic that took.
    pub fn calendar_stats(&self) -> CalendarStats {
        self.queue.stats()
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
        while let Some((now, ev)) = self.queue.pop_until(t) {
            self.handle(now, ev);
        }
        self.reached = self.reached.max(t);
    }

    /// Runs for a further duration of simulated time, measured from the
    /// instant the previous run reached (or from [`World::now`], if an
    /// event past that has fired since), not from the last event fired.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.reached.max(self.now()) + d;
        self.run_until(t);
    }

    /// Emits a Kprof event on `node` at the current instant. This front
    /// half is compiled into every instrumentation point: it wall-stamps
    /// the hit and builds the [`Event`] in the caller's frame, where the
    /// caller writes the payload, and hands the hook a reference to it
    /// (DESIGN §3, decision 9).
    #[inline(always)]
    pub(super) fn emit_ev(&mut self, node: NodeId, payload: EventPayload) {
        let now = self.now();
        let wall = self.net.clock(node).wall(now);
        let ev = self.nodes[node.0 as usize]
            .kprof
            .make_event(wall, 0, payload);
        self.deliver_ev(node, now, &ev);
    }

    /// The back half of [`World::emit_ev`], one copy out of line: runs
    /// the Kprof hook on `ev`, charges its cost, and schedules daemon
    /// wakes for any buffer-full notifications.
    #[inline(never)]
    fn deliver_ev(&mut self, node: NodeId, now: SimTime, ev: &Event) {
        let result = self.nodes[node.0 as usize].kprof.emit(ev);
        self.steal(node, now, result.cost, CpuCat::Monitor);
        for analyzer in result.buffer_full {
            self.queue.schedule(
                now + cost::BUFFER_FULL_WAKE,
                Ev::DaemonWake {
                    node,
                    analyzer: Some(analyzer),
                },
            );
        }
    }

    /// Charges `cost` of CPU time on `node` at `now`: stretches the
    /// running quantum (preemption) or extends the idle-CPU busy horizon.
    /// Inlined, so the hook's charge in [`World::deliver_ev`] costs no
    /// call of its own.
    #[inline(always)]
    pub(super) fn steal(&mut self, node: NodeId, now: SimTime, cost: SimDuration, cat: CpuCat) {
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

    pub(super) fn handle(&mut self, now: SimTime, ev: Ev) {
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
                if let Some((_, hook)) = self.daemon_hooks.get_mut(&node) {
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

#[cfg(test)]
mod tests {
    use kprof::{AnalyzerId, Kprof, KprofStats};
    use simnet::Port;

    use super::super::tests::*;
    use super::*;
    use crate::{DaemonHook, KernelOutput, NodeStats};

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
            None,
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

    /// FNV-1a over `bytes`, continuing from `h`.
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Folds every delivered event's `(seq, node, cpu, wall, payload)`
    /// into one FNV-1a hash, and reports a full buffer every 64th event,
    /// so the hook's buffer-full wakes are on the pinned path too.
    struct Recorder {
        hash: std::rc::Rc<std::cell::Cell<u64>>,
        seen: u64,
    }
    impl kprof::Analyzer for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn interest(&self) -> kprof::Interest {
            kprof::Interest::mask(EventMask::ALL)
        }
        fn on_event(&mut self, e: &kprof::Event) -> kprof::AnalyzerOutcome {
            let mut h = self.hash.get();
            h = fnv(h, &e.seq.to_le_bytes());
            h = fnv(h, &e.node.0.to_le_bytes());
            h = fnv(h, &e.cpu.to_le_bytes());
            h = fnv(h, &e.wall.as_nanos().to_le_bytes());
            h = fnv(h, format!("{:?}", e.payload).as_bytes());
            self.hash.set(h);
            self.seen += 1;
            kprof::AnalyzerOutcome {
                cost: SimDuration::from_nanos(100),
                buffer_full: self.seen.is_multiple_of(64),
            }
        }
    }

    /// Pins the whole event stream a small world emits, so a change to
    /// how a hit is built or handed to the hook (`emit_ev`, `make_event`,
    /// `Kprof::emit`) must keep every stamp and payload, every charge and
    /// every count. The sender's node gates scheduling and file events
    /// off globally: those hits are suppressed but still take a sequence
    /// number, so the delivered seqs have gaps that an event built only
    /// after the mask test would close.
    #[test]
    fn the_event_stream_is_pinned() {
        let hash = std::rc::Rc::new(std::cell::Cell::new(0xcbf2_9ce4_8422_2325));
        let mut w = two_nodes(3);
        for node in [NodeId(0), NodeId(1)] {
            w.kprof_mut(node).register(Box::new(Recorder {
                hash: hash.clone(),
                seen: 0,
            }));
        }
        w.kprof_mut(NodeId(0))
            .set_global_mask(EventMask::NETWORK | EventMask::SYSCALL);
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
        w.run_until(SimTime::from_millis(30));
        assert_eq!(hash.get(), 0x5a64_aa91_33fc_f445);
        assert_eq!(
            *w.kprof(NodeId(0)).stats(),
            KprofStats {
                events_generated: 7_977,
                events_delivered: 7_977,
                events_suppressed: 114,
                predicate_rejections: 0,
                total_overhead: SimDuration::from_nanos(2_792_520),
            }
        );
        assert_eq!(
            *w.kprof(NodeId(1)).stats(),
            KprofStats {
                events_generated: 6_589,
                events_delivered: 6_589,
                events_suppressed: 0,
                predicate_rejections: 0,
                total_overhead: SimDuration::from_nanos(2_306_150),
            }
        );
    }

    #[test]
    fn run_for_measures_from_where_the_last_run_stopped() {
        let bulk = || {
            let mut w = two_nodes(3);
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
            w
        };
        let mut stepped = bulk();
        for _ in 0..10 {
            stepped.run_for(SimDuration::from_millis(3));
        }
        let mut once = bulk();
        once.run_until(SimTime::from_millis(30));
        assert!(once.calendar_stats().fired > 1_000);
        assert_eq!(stepped.calendar_stats(), once.calendar_stats());
        assert_eq!(stepped.now(), once.now());
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
}
