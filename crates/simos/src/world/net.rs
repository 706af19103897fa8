//! The packet path of [`World`]: segmentation and transmit, NIC and
//! softirq receive, socket reassembly, and the kernel sinks the
//! dissemination daemon's channels end in.

use bytes::Bytes;
use kprof::{EventPayload, NetPoint, Pid};
use simcore::{NodeId, SimTime};
use simnet::{EndPoint, FlowKey, NetOutcome, Packet, PacketId, PayloadTag, Port};

use super::{CpuCat, Ev, KernelOutput, World};
use crate::cost;
use crate::process::PendingWork;
use crate::socket::{Socket, SocketId};

impl World {
    /// The ARM correlator for a packet on `flow`, if the process that owns
    /// the matching socket opted in.
    pub(super) fn arm_of_flow(&self, node: NodeId, flow: FlowKey, msg_id: u64) -> Option<u64> {
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
    pub(super) fn arm_of_proc(&self, node: NodeId, pid: Pid, msg_id: u64) -> Option<u64> {
        let n = &self.nodes[node.0 as usize];
        if n.arm_procs == 0 {
            return None;
        }
        n.procs.get(&pid).filter(|p| p.arm_enabled).map(|_| msg_id)
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

    /// Segments and transmits an application message. `kernel` marks
    /// monitoring traffic (cost charged as monitor; no TxFromUser event).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn transmit_message(
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
            self.steal(node, now, cost::TX_STACK * npackets, CpuCat::Monitor);
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
                self.queue
                    .schedule(now + cost::LOOPBACK, Ev::PacketArrival { node, packet });
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
                    self.nodes[node.0 as usize].tx_queue_bytes += packet.size as u64;
                    self.queue
                        .schedule(departure, Ev::NicTxDone { node, packet });
                    // One arrival per surviving copy. None at all is a
                    // silent in-flight loss: the sender paid the full
                    // transmit cost and learns nothing.
                    for arrival in arrivals.into_iter().flatten() {
                        self.queue.schedule(
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

    pub(super) fn nic_tx_done(&mut self, node: NodeId, packet: Packet, now: SimTime) {
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
        if n.tx_queue_bytes < cost::SOCKET_TX_BYTES / 2 && !n.tx_waiters.is_empty() {
            for pid in std::mem::take(&mut n.tx_waiters) {
                self.wake(node, pid, now);
            }
        }
    }

    pub(super) fn packet_arrival(&mut self, node: NodeId, packet: Packet, now: SimTime) {
        let n = &mut self.nodes[node.0 as usize];
        n.stats.packets_in += 1;
        if n.rx_backlog >= cost::RX_RING_PACKETS {
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
        self.steal(node, now, cost::RX_IRQ, CpuCat::Irq);
        // Softirq protocol processing pipeline.
        let n = &mut self.nodes[node.0 as usize];
        let done = now.max(n.softirq_busy_until) + cost::RX_STACK;
        n.softirq_busy_until = done;
        self.steal(node, now, cost::RX_STACK, CpuCat::Irq);
        self.queue.schedule(done, Ev::RxStackDone { node, packet });
    }

    pub(super) fn rx_stack_done(&mut self, node: NodeId, packet: Packet, now: SimTime) {
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

    pub(super) fn sink_ingest(&mut self, node: NodeId, packet: Packet, now: SimTime) {
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
        let sock = n.sink_socks.entry(flow).or_insert_with(|| {
            let (id, owner) = (SocketId(u64::MAX), Pid(0));
            Socket::new(id, owner, flow.dst, flow.src, cost::SINK_RX_BYTES)
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
        let (src, port) = (flow.src, flow.dst.port);
        let sink = self.sinks.get_mut(&(node, port));
        let out = match (sink, self.daemon_hooks.get_mut(&node)) {
            (Some(sink), _) => sink.on_message(wall, node, src, msg, data),
            (None, Some((hook_port, hook))) if *hook_port == Some(port) => {
                let kprof = &mut self.nodes[node.0 as usize].kprof;
                hook.on_message(wall, node, src, msg, data, kprof)
            }
            _ => return,
        };
        self.apply_kernel_output(node, out, now);
    }

    pub(super) fn apply_kernel_output(&mut self, node: NodeId, out: KernelOutput, now: SimTime) {
        self.steal(node, now, out.cost, CpuCat::Monitor);
        for send in out.sends {
            self.kernel_send(node, send.src_port, send.dst, send.kind, send.data);
        }
    }
}

#[cfg(test)]
mod tests {
    use kprof::{AnalyzerId, Kprof};
    use simcore::SimDuration;
    use simnet::LinkSpec;

    use super::super::tests::*;
    use super::*;
    use crate::{
        DaemonHook, KernelSend, KernelSink, Message, NodeStats, ProcCtx, Program, WorldBuilder,
    };

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
        w.set_daemon_hook(NodeId(0), None, Box::new(Beacon { left: 100, dst }));
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

    /// Logs every wake and message it sees, with the node its Kprof
    /// belongs to and the events that Kprof generated by then; answers
    /// each message with a 10-byte reply and a rearm, which a message
    /// does not get (three wakes, however many messages).
    struct Answering {
        log: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
        wakes: u32,
    }
    impl DaemonHook for Answering {
        fn on_wake(
            &mut self,
            now: SimTime,
            _node: NodeId,
            analyzer: Option<AnalyzerId>,
            kprof: &mut Kprof,
            _stats: &NodeStats,
        ) -> KernelOutput {
            self.wakes += 1;
            let line = format!("wake {now} {analyzer:?} on {:?}", kprof.node());
            self.log.borrow_mut().push(line);
            KernelOutput {
                cost: SimDuration::from_micros(1),
                sends: Vec::new(),
                rearm_after: (self.wakes < 3).then_some(SimDuration::from_millis(10)),
            }
        }
        fn on_message(
            &mut self,
            _now: SimTime,
            node: NodeId,
            src: EndPoint,
            msg: Message,
            data: Bytes,
            kprof: &mut Kprof,
        ) -> KernelOutput {
            let events = kprof.stats().events_generated;
            let line = format!(
                "message kind {} of {} bytes from {src:?} at {node:?} on {:?}, {} events",
                msg.kind,
                data.len(),
                kprof.node(),
                if events > 0 { "after" } else { "before" }
            );
            self.log.borrow_mut().push(line);
            KernelOutput {
                cost: SimDuration::from_micros(2),
                sends: vec![KernelSend {
                    dst: src,
                    src_port: Port(9998),
                    kind: 9,
                    data: Bytes::from(vec![1u8; 10]),
                }],
                rearm_after: Some(SimDuration::from_secs(1)),
            }
        }
    }

    #[test]
    fn a_hook_on_a_port_answers_its_messages_with_the_nodes_kprof() {
        struct Replies(std::rc::Rc<std::cell::Cell<usize>>);
        impl KernelSink for Replies {
            fn on_message(
                &mut self,
                _now: SimTime,
                _node: NodeId,
                _src: EndPoint,
                msg: Message,
                data: Bytes,
            ) -> KernelOutput {
                assert_eq!((msg.kind, data.len()), (9, 10));
                self.0.set(self.0.get() + 1);
                KernelOutput::default()
            }
        }
        let run = |port: Option<Port>| {
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let replies = std::rc::Rc::new(std::cell::Cell::new(0));
            let mut w = two_nodes(34);
            w.kprof_mut(NodeId(1))
                .register(Box::new(CountingAnalyzer::new(EventMask::ALL)));
            let hook = Answering {
                log: log.clone(),
                wakes: 0,
            };
            w.set_daemon_hook(NodeId(1), port, Box::new(hook));
            w.schedule_daemon_wake(NodeId(1), SimDuration::from_millis(1));
            w.install_sink(NodeId(0), Port(9997), Box::new(Replies(replies.clone())));
            let ip = w.network().node_ip(NodeId(1));
            // A multi-packet message to the hook's port, and one to a
            // port nobody claimed.
            let to = |port| EndPoint::new(ip, Port(port));
            w.kernel_send(NodeId(0), Port(9997), to(9998), 42, vec![0u8; 5000]);
            w.kernel_send(NodeId(0), Port(9997), to(9996), 43, vec![0u8; 50]);
            w.run_until(SimTime::from_secs(1));
            // Monitor time beside what the node's Kprof charged.
            let kprof = w.kprof(NodeId(1)).stats().total_overhead;
            let monitor = w.node_stats(NodeId(1)).cpu.monitor - kprof;
            (log.take(), replies.get(), monitor)
        };

        let (log, replies, monitor) = run(Some(Port(9998)));
        let from = EndPoint::new(two_nodes(34).network().node_ip(NodeId(0)), Port(9997));
        let messages: Vec<&String> = log.iter().filter(|l| l.starts_with("message")).collect();
        assert_eq!(
            messages,
            [&format!(
                "message kind 42 of 5000 bytes from {from:?} at NodeId(1) on NodeId(1), after events"
            )]
        );
        assert_eq!(replies, 1, "the hook's output was applied");

        // The hook's wakes are what they are without a port; beside Kprof,
        // exactly the message's 2 µs and its one-packet reply's transmit
        // were added.
        let (bare, no_replies, bare_monitor) = run(None);
        let wakes: Vec<&String> = log.iter().filter(|l| l.starts_with("wake")).collect();
        assert_eq!(wakes, bare.iter().collect::<Vec<_>>());
        assert_eq!(wakes.len(), 3);
        assert!(wakes.iter().all(|l| l.ends_with("None on NodeId(1)")));
        assert_eq!(no_replies, 0);
        let added = SimDuration::from_micros(2) + cost::TX_STACK;
        assert_eq!(monitor, bare_monitor + added);
    }

    #[test]
    #[should_panic(expected = "the daemon hook answers on it")]
    fn a_sink_cannot_take_the_hooks_port() {
        let mut w = two_nodes(35);
        let hook = Answering {
            log: Default::default(),
            wakes: 0,
        };
        w.set_daemon_hook(NodeId(1), Some(Port(9998)), Box::new(hook));
        w.install_sink(NodeId(1), Port(9998), Box::new(Ignore));
    }

    #[test]
    #[should_panic(expected = "a sink answers on it")]
    fn a_hook_cannot_take_a_sinks_port() {
        let mut w = two_nodes(36);
        w.install_sink(NodeId(1), Port(9998), Box::new(Ignore));
        let hook = Answering {
            log: Default::default(),
            wakes: 0,
        };
        w.set_daemon_hook(NodeId(1), Some(Port(9998)), Box::new(hook));
    }

    /// A sink that drops what it gets.
    struct Ignore;
    impl KernelSink for Ignore {
        fn on_message(
            &mut self,
            _now: SimTime,
            _node: NodeId,
            _src: EndPoint,
            _msg: Message,
            _data: Bytes,
        ) -> KernelOutput {
            KernelOutput::default()
        }
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
}
