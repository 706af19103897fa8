//! The Iperf microbenchmark (§3.1).
//!
//! "Bandwidth was measured between two nodes, first with SysProf disabled
//! and later enabling it. The measured bandwidth in the later case (~810
//! Mbps) was almost 13% less than that of the former (~930 Mbps). This
//! reduction in bandwidth was due to overhead incurred by examining
//! packets at such high speed and not due to SysProf network usage. In a
//! 100 Mbps LAN, this overhead came down to 3%."
//!
//! The model: a bulk TCP-like stream saturating the link. On the paper's
//! hardware (2.8 GHz P4, no NIC offloads, Linux 2.4), gigabit receive
//! processing consumes most of the CPU, so per-packet monitoring cost
//! pushes the receiver past saturation: the NIC ring overflows and
//! goodput falls. At 100 Mbps the CPU has ~10× headroom and the same
//! per-packet cost is absorbed.

use serde::Serialize;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{LinkSpec, Port};
use simos::{Message, ProcCtx, Program, SocketId, World, WorldBuilder};
use sysprof::SysProf;

use crate::scenario::{Diagnosis, Placement, ScenarioRun, ScenarioSpec};

const KIND_DATA: u32 = 10;
const KIND_ACK: u32 = 11;

/// The Iperf receiver: consumes data messages and acks each one (the
/// app-level stand-in for TCP's receive-window flow control — the sender
/// can never overrun a CPU-bound receiver, losses never occur, and
/// goodput settles at whatever the receiver can drain).
pub struct IperfServer {
    port: Port,
}

impl IperfServer {
    /// A receiver listening on `port`.
    pub fn new(port: Port) -> Self {
        IperfServer { port }
    }
}

impl Program for IperfServer {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(self.port);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        if msg.kind == KIND_DATA {
            ctx.send_with_id(sock, 1, KIND_ACK, msg.msg_id);
        }
    }
}

/// The Iperf sender: keeps a window of unacknowledged data messages in
/// flight for the duration of the test.
pub struct IperfClient {
    remote: NodeId,
    port: Port,
    msg_bytes: u64,
    window: usize,
    duration: SimDuration,
    sock: Option<SocketId>,
    started_at: Option<SimTime>,
    inflight: usize,
}

impl IperfClient {
    /// A sender streaming `msg_bytes`-sized messages to `remote:port` with
    /// `window` unacknowledged messages in flight, for `duration`.
    pub fn new(
        remote: NodeId,
        port: Port,
        msg_bytes: u64,
        window: usize,
        duration: SimDuration,
    ) -> Self {
        IperfClient {
            remote,
            port,
            msg_bytes,
            window,
            duration,
            sock: None,
            started_at: None,
            inflight: 0,
        }
    }
}

impl IperfClient {
    fn fill_window(&mut self, ctx: &mut ProcCtx<'_>) {
        let Some(sock) = self.sock else { return };
        let started = self.started_at.expect("set on connect");
        if ctx.now().saturating_since(started) >= self.duration {
            if self.inflight == 0 {
                ctx.exit();
            }
            return;
        }
        while self.inflight < self.window {
            ctx.send(sock, self.msg_bytes, KIND_DATA);
            self.inflight += 1;
        }
    }
}

impl Program for IperfClient {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.connect(self.remote, self.port);
    }

    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        self.sock = Some(sock);
        self.started_at = Some(ctx.now());
        self.fill_window(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, _sock: SocketId, msg: Message) {
        if msg.kind == KIND_ACK {
            self.inflight = self.inflight.saturating_sub(1);
            self.fill_window(ctx);
        }
    }
}

/// Result of one Iperf run.
#[derive(Debug, Clone, Serialize)]
pub struct IperfResult {
    /// Application-level goodput measured at the receiver, Mbps.
    pub goodput_mbps: f64,
    /// Receiver CPU utilization over the run.
    pub receiver_cpu_utilization: f64,
    /// Packets dropped at the receiver NIC ring.
    pub ring_drops: u64,
    /// Monitoring CPU overhead fraction on the receiver.
    pub overhead_fraction: f64,
    /// Monitoring bytes SysProf itself sent from the receiver (to show
    /// the bandwidth loss is *not* network usage).
    pub monitor_bytes_sent: u64,
}

/// The Iperf microbenchmark as a [`ScenarioSpec`]: a bulk stream from
/// node 0 to node 1 whose diagnosis shows the monitoring tax is receiver
/// CPU, not network usage. Node 2 hosts the GPA over separate links so
/// monitoring traffic does not share the measured one.
#[derive(Debug, Clone)]
pub struct IperfScenario {
    /// The measured link.
    pub link: LinkSpec,
    /// Stream duration.
    pub duration: SimDuration,
}

impl Default for IperfScenario {
    fn default() -> Self {
        IperfScenario {
            link: LinkSpec::gigabit_lan(),
            duration: SimDuration::from_secs(2),
        }
    }
}

impl ScenarioSpec for IperfScenario {
    type Output = IperfResult;
    type Probes = ();

    fn name(&self) -> &'static str {
        "iperf"
    }

    fn topology(&self, nodes: WorldBuilder) -> (WorldBuilder, Placement) {
        (
            nodes
                .node("sender")
                .node("receiver")
                .node("gpa")
                .link(NodeId(0), NodeId(1), self.link)
                // Monitoring plane on its own gigabit links.
                .link(NodeId(0), NodeId(2), LinkSpec::gigabit_lan())
                .link(NodeId(1), NodeId(2), LinkSpec::gigabit_lan()),
            Placement {
                monitored: vec![NodeId(0), NodeId(1)],
                gpa: NodeId(2),
            },
        )
    }

    fn spawn(&self, world: &mut World, _monitor: Option<&SysProf>) {
        world.spawn(
            NodeId(1),
            "iperf-server",
            Box::new(IperfServer::new(Port(5001))),
        );
        world.spawn(
            NodeId(0),
            "iperf-client",
            Box::new(IperfClient::new(
                NodeId(1),
                Port(5001),
                64 * 1024,
                8,
                self.duration,
            )),
        );
    }

    fn stop_at(&self) -> SimTime {
        SimTime::ZERO + self.duration + SimDuration::from_secs(1)
    }

    fn collect(&self, world: &World, monitor: Option<&SysProf>, _: &()) -> IperfResult {
        let stats = world.node_stats(NodeId(1));
        IperfResult {
            goodput_mbps: stats.bytes_received as f64 * 8.0 / self.duration.as_secs_f64() / 1e6,
            receiver_cpu_utilization: stats.cpu.busy().as_secs_f64() / world.now().as_secs_f64(),
            ring_drops: stats.ring_drops,
            overhead_fraction: stats.cpu.monitor.as_secs_f64() / world.now().as_secs_f64(),
            monitor_bytes_sent: monitor
                .and_then(|s| s.daemon_stats(NodeId(1)))
                .map_or(0, |d| d.bytes_sent),
        }
    }

    fn diagnose(&self, run: &ScenarioRun<IperfResult>) -> Diagnosis {
        let r = &run.output;
        let verdict = if r.ring_drops > 0 {
            format!(
                "receiver CPU-bound: {:.0}% utilized, {} ring drops — bandwidth lost to packet examination, not monitor traffic",
                100.0 * r.receiver_cpu_utilization,
                r.ring_drops
            )
        } else {
            format!(
                "receiver has headroom: {:.0}% utilized, monitoring tax absorbed",
                100.0 * r.receiver_cpu_utilization
            )
        };
        Diagnosis {
            verdict,
            evidence: vec![
                format!("goodput {:.0} Mbps", r.goodput_mbps),
                format!(
                    "monitoring CPU fraction {:.1}%",
                    100.0 * r.overhead_fraction
                ),
                format!("monitor bytes sent from receiver: {}", r.monitor_bytes_sent),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_baseline_approaches_line_rate() {
        let (_, r) = IperfScenario::default().run_unmonitored(7);
        assert!(r.goodput_mbps > 850.0, "baseline {} Mbps", r.goodput_mbps);
        assert!(r.goodput_mbps < 1000.0);
    }

    #[test]
    fn monitoring_reduces_gigabit_goodput() {
        let (_, off) = IperfScenario::default().run_unmonitored(7);
        let on = IperfScenario::default().run(7).output;
        assert!(
            on.goodput_mbps < off.goodput_mbps,
            "monitored {} vs baseline {}",
            on.goodput_mbps,
            off.goodput_mbps
        );
    }

    #[test]
    fn fast_ethernet_overhead_is_small() {
        let spec = IperfScenario {
            link: LinkSpec::fast_ethernet(),
            ..IperfScenario::default()
        };
        let (_, off) = spec.run_unmonitored(7);
        let on = spec.run(7).output;
        let loss = (off.goodput_mbps - on.goodput_mbps) / off.goodput_mbps;
        assert!(loss < 0.05, "100 Mbps loss {loss}");
    }
}
