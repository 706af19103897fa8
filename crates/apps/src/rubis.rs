//! The RUBiS multi-tier auction site with DWCS scheduling (§3.3,
//! Figures 6 and 7).
//!
//! Two request classes share a pair of servlet servers:
//!
//! * **bidding** — CPU-intensive at the servlet tier, real-time deadlines,
//!   tight window constraint (high priority);
//! * **comment** — network-intensive (large responses), loose constraint.
//!
//! An open-loop httperf-style generator produces Poisson arrivals for
//! both classes (λ = 150 req/s each, as in the paper). A DWCS scheduler
//! on the client machine orders dispatches; requests whose deadlines
//! expire in the queue are dropped (the throughput loss in Figure 6).
//! Halfway through the run a background load lands on one server.
//!
//! Plain DWCS dispatches round-robin and suffers; **RA-DWCS** subscribes
//! to SysProf's per-server load reports and routes around the loaded
//! server, keeping the high-priority bidding class nearly unaffected
//! (Figure 7) at < 2% monitoring cost.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dwcs::ra::{RaDispatcher, ServerLoad};
use dwcs::{Scheduler, StreamId, StreamSpec, WindowConstraint};
use pubsub::reliable::{Receiver, GAP_NACK_LIMIT};
use serde::Serialize;
use simcore::stats::RateMeter;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{EndPoint, FaultPlan, Port};
use simos::programs::ComputeLoop;
use simos::{KernelOutput, KernelSink, Message, ProcCtx, Program, SocketId, World, WorldBuilder};
use sysprof::{LoadRecord, MonitorConfig, SysProf, LOAD_TOPIC};

use crate::scenario::{on_gigabit_lan, Diagnosis, Placement, ScenarioRun, ScenarioSpec};

/// Servlet server port.
pub const SERVLET_PORT: Port = Port(8009);
/// Port on the client node receiving load reports for RA-DWCS.
pub const RA_FEED_PORT: Port = Port(9996);

const KIND_BID: u32 = 1;
const KIND_COMMENT: u32 = 2;
const RESP_OFFSET: u32 = 100;

/// Offered load per class, requests/second.
const RATE_PER_CLASS: f64 = 150.0;

/// RUBiS as a [`ScenarioSpec`]: the background load lands on servlet-a
/// halfway through the run, and the GPA's load reports must indict it.
/// Run monitored, SysProf sits on the two servlet servers; Figure 6's
/// plain DWCS is the unmonitored run.
#[derive(Debug, Clone)]
pub struct RubisScenario {
    /// Use resource-aware dispatch (Figure 7) instead of round-robin
    /// (Figure 6). RA-DWCS steers by SysProf's load reports: run
    /// unmonitored it has none, and every server scores the same.
    pub resource_aware: bool,
    /// Run length.
    pub duration: SimDuration,
}

impl Default for RubisScenario {
    fn default() -> Self {
        RubisScenario {
            resource_aware: false,
            duration: SimDuration::from_secs(20),
        }
    }
}

/// Per-class outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ClassOutcome {
    /// Mean completed throughput over the whole run, responses/sec.
    pub mean_rps: f64,
    /// Mean throughput before the disturbance.
    pub first_half_rps: f64,
    /// Mean throughput after the disturbance.
    pub second_half_rps: f64,
    /// Completed responses.
    pub completed: u64,
    /// Requests dropped by DWCS (deadline expired in queue).
    pub dropped: u64,
    /// Window-constraint violations recorded by the scheduler.
    pub violations: u64,
    /// Per-second throughput series `(second, responses)`.
    pub series: Vec<(f64, f64)>,
}

/// Measured outcome of one RUBiS run.
#[derive(Debug, Clone, Serialize)]
pub struct RubisResult {
    /// The bidding (high-priority) class.
    pub bid: ClassOutcome,
    /// The comment (low-priority) class.
    pub comment: ClassOutcome,
    /// Aggregate mean throughput, responses/sec.
    pub total_rps: f64,
    /// Monitoring overhead fraction on the servlet servers (mean).
    pub server_overhead_fraction: f64,
}

// ---------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------

/// A servlet server: per-class service compute and response sizes.
struct ServletServer;

impl Program for ServletServer {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(SERVLET_PORT);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        match msg.kind {
            KIND_BID => {
                // CPU-intensive: consult the database, compute the bid.
                ctx.compute(SimDuration::from_millis(7));
                ctx.send_with_id(sock, 2 * 1024, KIND_BID + RESP_OFFSET, msg.msg_id);
            }
            KIND_COMMENT => {
                // Network-intensive: small compute, large page.
                ctx.compute(SimDuration::from_micros(1500));
                ctx.send_with_id(sock, 30 * 1024, KIND_COMMENT + RESP_OFFSET, msg.msg_id);
            }
            _ => {}
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Req {
    class: u32,
    /// Plain DWCS: the statically assigned server (the paper's URL-prefix
    /// dispatch). RA-DWCS: `None`, chosen at dispatch time from SysProf
    /// load reports.
    target: Option<NodeId>,
}

/// The two request classes, bidding first. A class's message kind is
/// also its arrival timer's token.
const CLASSES: [u32; 2] = [KIND_BID, KIND_COMMENT];
const TOKEN_POLL: u64 = 3;

/// Observable state of one class at the client driver.
#[derive(Default)]
struct ClassShared {
    meter: Option<RateMeter>,
    completed: u64,
    dropped: u64,
    violations: u64,
}

/// Shared observable state of the client driver, in [`CLASSES`] order.
type DriverShared = [ClassShared; 2];

/// The httperf + DWCS driver on the client machine.
struct RubisDriver {
    servers: Vec<NodeId>,
    socks: HashMap<NodeId, SocketId>,
    connected: usize,
    sched: Scheduler<Req>,
    /// The DWCS stream of each class, in [`CLASSES`] order.
    streams: [StreamId; 2],
    duration: SimDuration,
    outstanding: HashMap<NodeId, usize>,
    resource_aware: bool,
    loads: Rc<RefCell<RaDispatcher>>,
    shared: Rc<RefCell<DriverShared>>,
    rr: usize,
    max_outstanding_per_server: usize,
    started: bool,
}

impl RubisDriver {
    fn arm_arrival(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        let gap = ctx
            .rng()
            .exponential_duration(SimDuration::from_secs_f64(1.0 / RATE_PER_CLASS));
        ctx.sleep(gap, token);
    }

    fn has_capacity(&self, server: NodeId) -> bool {
        self.outstanding.get(&server).copied().unwrap_or(0) < self.max_outstanding_per_server
    }

    /// Where the head-of-line request would go, or `None` if that target
    /// has no capacity right now.
    fn choose_target(&self, req: &Req) -> Option<NodeId> {
        match req.target {
            // Plain DWCS: statically assigned; if the assigned server has
            // no connection capacity, the dispatch pipe stalls (head of
            // line) — the blindness RA-DWCS fixes.
            Some(server) => self.has_capacity(server).then_some(server),
            // RA-DWCS: least-loaded server with capacity, per the latest
            // SysProf reports.
            None => {
                let loads = self.loads.borrow();
                let score =
                    |s: &NodeId| -> f64 { loads.load_of(*s).map(ServerLoad::score).unwrap_or(0.5) };
                self.servers
                    .iter()
                    .copied()
                    .filter(|s| self.has_capacity(*s))
                    .min_by(|a, b| score(a).partial_cmp(&score(b)).expect("finite scores"))
            }
        }
    }

    /// The server a newly arrived request is assigned to in plain mode
    /// (alternating, like per-request URL prefixes).
    fn static_target(&mut self) -> Option<NodeId> {
        if self.resource_aware {
            None
        } else {
            let s = self.servers[self.rr % self.servers.len()];
            self.rr += 1;
            Some(s)
        }
    }

    fn pump(&mut self, ctx: &mut ProcCtx<'_>) {
        // Count expirations, then dispatch while capacity exists.
        let now = ctx.now();
        let dropped = self.sched.expire(now);
        {
            let mut sh = self.shared.borrow_mut();
            for (stream, _req) in dropped {
                let c = self.streams.iter().position(|&s| s == stream);
                sh[c.expect("a stream of ours")].dropped += 1;
            }
            for (class, &stream) in sh.iter_mut().zip(&self.streams) {
                class.violations = self.sched.stats(stream).violations;
            }
        }
        while let Some((_stream, head)) = self.sched.peek(now) {
            let head = *head;
            let Some(server) = self.choose_target(&head) else {
                break; // head-of-line: its target (or every server) is full
            };
            let (_stream, req) = self.sched.next(now).expect("peeked");
            let sock = self.socks[&server];
            let bytes = match req.class {
                KIND_BID => 512,
                _ => 1024,
            };
            ctx.send(sock, bytes, req.class);
            *self.outstanding.entry(server).or_insert(0) += 1;
        }
    }
}

impl Program for RubisDriver {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        for &s in &self.servers.clone() {
            let sock = ctx.connect(s, SERVLET_PORT);
            self.socks.insert(s, sock);
        }
    }

    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, _sock: SocketId) {
        self.connected += 1;
        if self.connected == self.servers.len() && !self.started {
            self.started = true;
            for class in self.shared.borrow_mut().iter_mut() {
                class.meter = Some(RateMeter::new(ctx.now(), SimDuration::from_secs(1)));
            }
            for kind in CLASSES {
                self.arm_arrival(ctx, kind as u64);
            }
            ctx.sleep(SimDuration::from_millis(5), TOKEN_POLL);
        }
    }

    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        let now = ctx.now();
        let over = now.saturating_since(SimTime::ZERO) >= self.duration;
        match CLASSES.iter().position(|&kind| kind as u64 == token) {
            Some(c) if !over => {
                let class = CLASSES[c];
                let target = self.static_target();
                self.sched
                    .enqueue(self.streams[c], Req { class, target }, now);
                self.arm_arrival(ctx, token);
            }
            None if token == TOKEN_POLL && (!over || self.sched.pending() > 0) => {
                ctx.sleep(SimDuration::from_millis(5), TOKEN_POLL);
            }
            _ => {}
        }
        self.pump(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        // A response frees capacity on its server. Reverse-map the socket
        // through the deployment-ordered server list rather than scanning
        // the HashMap, so lookups never depend on hash iteration order.
        if let Some(&server) = self
            .servers
            .iter()
            .find(|n| self.socks.get(n) == Some(&sock))
        {
            if let Some(o) = self.outstanding.get_mut(&server) {
                *o = o.saturating_sub(1);
            }
        }
        if let Some(c) = CLASSES.iter().position(|&k| k + RESP_OFFSET == msg.kind) {
            let class = &mut self.shared.borrow_mut()[c];
            class.completed += 1;
            if let Some(m) = class.meter.as_mut() {
                m.record(ctx.now());
            }
        }
        self.pump(ctx);
    }
}

/// Every load report the RA feed applied, with when it applied it.
type FeedLog = Vec<(SimTime, LoadRecord)>;

/// Kernel sink on the client node that feeds SysProf load reports into
/// the RA dispatcher's view: the subscriber end of each servlet
/// daemon's load stream.
struct LoadFeed {
    loads: Rc<RefCell<RaDispatcher>>,
    rx: Receiver,
    /// This sink's own endpoint, the subscriber the daemons' streams name.
    self_ep: EndPoint,
    applied: Rc<RefCell<FeedLog>>,
}

impl KernelSink for LoadFeed {
    fn on_message(
        &mut self,
        now_wall: SimTime,
        _node: NodeId,
        src: EndPoint,
        _msg: Message,
        data: simos::Bytes,
    ) -> KernelOutput {
        let mut on_batch = |_seq, rows: &[Vec<i64>]| {
            for load in LoadRecord::from_raw_rows(&rows[0]) {
                self.loads.borrow_mut().update_load(
                    load.node,
                    ServerLoad {
                        cpu_utilization: load.cpu_utilization,
                        kernel_time_us: load.mean_kernel_us,
                        reported_at: now_wall,
                    },
                );
                self.applied.borrow_mut().push((now_wall, load));
            }
        };
        sysprof::receive_stream(
            &mut self.rx,
            now_wall,
            self.self_ep,
            src,
            &data,
            &mut on_batch,
        )
    }
}

/// Lands the mid-run disturbance: after `delay`, three CPU-bound jobs —
/// enough contention that the servlet can no longer cover its offered
/// load on this server.
struct DisturbanceSpawner {
    delay: SimDuration,
    work: SimDuration,
}

impl Program for DisturbanceSpawner {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.sleep(self.delay, 0);
    }
    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, _token: u64) {
        for i in 0..3 {
            ctx.spawn(
                &format!("background-load-{i}"),
                Box::new(ComputeLoop::new(self.work, SimDuration::from_millis(4))),
            );
        }
        ctx.exit();
    }
}

// ---------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------

const CLIENT: NodeId = NodeId(0);
const SERVERS: [NodeId; 2] = [NodeId(1), NodeId(2)];

/// What a RUBiS run leaves behind besides its result.
pub struct RubisProbes {
    driver: Rc<RefCell<DriverShared>>,
    applied: Rc<RefCell<FeedLog>>,
}

/// A monitored RUBiS run under a fault plan, and every load report the
/// RA feed applied (none unless `spec.resource_aware`) with when it
/// applied it, in that order.
pub fn run_rubis_under(
    spec: RubisScenario,
    seed: u64,
    faults: FaultPlan,
) -> (ScenarioRun<RubisResult>, Vec<(SimTime, LoadRecord)>) {
    let staged = spec.stage(seed, faults, spec.monitor_config());
    let applied = staged.probes.applied.clone();
    (staged.finish(&spec), applied.take())
}

impl ScenarioSpec for RubisScenario {
    type Output = RubisResult;
    type Probes = RubisProbes;

    fn name(&self) -> &'static str {
        "rubis"
    }

    fn topology(&self, nodes: WorldBuilder) -> (WorldBuilder, Placement) {
        let nodes = nodes.node("client").node("servlet-a").node("servlet-b");
        on_gigabit_lan(nodes, SERVERS.to_vec(), NodeId(3))
    }

    fn monitor_config(&self) -> MonitorConfig {
        let mut mc = MonitorConfig::default();
        // Load reports every 50 ms keep RA-DWCS responsive.
        mc.daemon.flush_interval = SimDuration::from_millis(50);
        mc
    }

    fn spawn(&self, world: &mut World, monitor: Option<&SysProf>) -> RubisProbes {
        let loads = Rc::new(RefCell::new(RaDispatcher::new()));
        let applied = Rc::new(RefCell::new(FeedLog::new()));
        if let (true, Some(sp)) = (self.resource_aware, monitor) {
            let reply_to = EndPoint::new(world.network().node_ip(CLIENT), RA_FEED_PORT);
            world.install_sink(
                CLIENT,
                RA_FEED_PORT,
                Box::new(LoadFeed {
                    loads: loads.clone(),
                    rx: Receiver::new(vec![LoadRecord::schema()], GAP_NACK_LIMIT),
                    self_ep: reply_to,
                    applied: applied.clone(),
                }),
            );
            for s in SERVERS {
                sp.subscribe(world, CLIENT, s, LOAD_TOPIC, reply_to, None);
            }
        }

        for s in SERVERS {
            world.spawn(s, "servlet", Box::new(ServletServer));
        }

        // DWCS streams: bidding tight (can lose 1 of 20 deadlines), comments
        // loose (can lose 3 of 5).
        let mut sched: Scheduler<Req> = Scheduler::new();
        let bidding = sched.add_stream(StreamSpec {
            name: "bidding".into(),
            period: SimDuration::from_millis(150),
            window: WindowConstraint { x: 1, y: 20 },
        });
        let comments = sched.add_stream(StreamSpec {
            name: "comment".into(),
            period: SimDuration::from_millis(400),
            window: WindowConstraint { x: 3, y: 5 },
        });

        let driver = Rc::new(RefCell::new(DriverShared::default()));
        world.spawn(
            CLIENT,
            "httperf+dwcs",
            Box::new(RubisDriver {
                servers: SERVERS.to_vec(),
                socks: HashMap::new(),
                connected: 0,
                sched,
                streams: [bidding, comments],
                duration: self.duration,
                outstanding: HashMap::new(),
                resource_aware: self.resource_aware,
                loads,
                shared: driver.clone(),
                rr: 0,
                max_outstanding_per_server: 8,
                started: false,
            }),
        );

        // The mid-run disturbance: a background job lands on servlet-a.
        world.spawn(
            SERVERS[0],
            "disturbance",
            Box::new(DisturbanceSpawner {
                delay: self.duration / 2,
                // Enough CPU-bound work to stay saturating past the run's end.
                work: self.duration,
            }),
        );
        RubisProbes { driver, applied }
    }

    fn stop_at(&self) -> SimTime {
        SimTime::ZERO + self.duration + SimDuration::from_secs(3)
    }

    fn collect(
        &self,
        world: &World,
        monitor: Option<&SysProf>,
        probes: &RubisProbes,
    ) -> RubisResult {
        let sh = probes.driver.borrow();
        let half_sec = (self.duration / 2).as_secs_f64();
        let duration_s = self.duration.as_secs_f64();
        let outcome = |class: &ClassShared| {
            let series: Vec<(f64, f64)> = class
                .meter
                .as_ref()
                .map(|m| {
                    m.rates_per_sec()
                        .into_iter()
                        .map(|(t, r)| (t.as_secs_f64(), r))
                        .collect()
                })
                .unwrap_or_default();
            let in_run: Vec<&(f64, f64)> = series.iter().filter(|(t, _)| *t < duration_s).collect();
            let first: Vec<f64> = in_run
                .iter()
                .filter(|(t, _)| *t < half_sec)
                .map(|(_, r)| *r)
                .collect();
            let second: Vec<f64> = in_run
                .iter()
                .filter(|(t, _)| *t >= half_sec)
                .map(|(_, r)| *r)
                .collect();
            let mean = |v: &[f64]| {
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            };
            ClassOutcome {
                mean_rps: class.completed as f64 / duration_s,
                first_half_rps: mean(&first),
                second_half_rps: mean(&second),
                completed: class.completed,
                dropped: class.dropped,
                violations: class.violations,
                series,
            }
        };
        let (bid, comment) = (outcome(&sh[0]), outcome(&sh[1]));
        RubisResult {
            total_rps: bid.mean_rps + comment.mean_rps,
            bid,
            comment,
            server_overhead_fraction: monitor.map_or(0.0, |sp| {
                SERVERS
                    .iter()
                    .map(|&s| sp.overhead_fraction(world, s))
                    .sum::<f64>()
                    / SERVERS.len() as f64
            }),
        }
    }

    fn diagnose(&self, run: &ScenarioRun<RubisResult>) -> Diagnosis {
        let gpa = run.sysprof.gpa();
        let gpa = gpa.borrow();
        let servers = SERVERS;
        let names = ["servlet-a", "servlet-b"];
        // The disturbance saturates one server from mid-run on, so its
        // *latest* load report separates the servers far more sharply
        // than the whole-run mean.
        let latest: Vec<f64> = servers
            .iter()
            .map(|&s| gpa.node_load(s).map_or(0.0, |v| v.latest.cpu_utilization))
            .collect();
        let loaded = if latest[0] >= latest[1] { 0 } else { 1 };
        let evidence: Vec<String> = servers
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let view = gpa.node_load(s);
                let (mean, reports) = view
                    .as_ref()
                    .map_or((0.0, 0), |v| (v.mean_utilization, v.reports));
                let total = gpa
                    .class_summary(s, SERVLET_PORT)
                    .map_or(0.0, |c| c.mean_total_us);
                format!(
                    "{}: latest cpu {:.0}%, mean {:.0}% over {} reports, mean servlet time {:.0}µs",
                    names[i],
                    100.0 * latest[i],
                    100.0 * mean,
                    reports,
                    total
                )
            })
            .collect();
        Diagnosis {
            verdict: format!(
                "background load on {} (node {}): cpu {:.0}% vs {:.0}% on its peer",
                names[loaded],
                servers[loaded].0,
                100.0 * latest[loaded],
                100.0 * latest[1 - loaded]
            ),
            evidence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 6 (plain DWCS, no monitor) or Figure 7 (RA-DWCS over a
    /// deployed SysProf).
    fn quick(ra: bool, seed: u64) -> RubisResult {
        let spec = RubisScenario {
            resource_aware: ra,
            ..RubisScenario::default()
        };
        if ra {
            spec.run(seed).output
        } else {
            spec.run_unmonitored(seed).1
        }
    }

    #[test]
    fn throughput_approaches_offered_load_before_disturbance() {
        let r = quick(false, 3);
        assert!(
            r.bid.first_half_rps > 120.0,
            "bid first half {}",
            r.bid.first_half_rps
        );
        assert!(
            r.comment.first_half_rps > 120.0,
            "comment first half {}",
            r.comment.first_half_rps
        );
    }

    #[test]
    fn plain_dwcs_degrades_after_disturbance() {
        let r = quick(false, 3);
        assert!(
            r.bid.second_half_rps < r.bid.first_half_rps - 5.0,
            "bid {} -> {}",
            r.bid.first_half_rps,
            r.bid.second_half_rps
        );
        assert!(
            r.bid.dropped + r.comment.dropped > 0,
            "DWCS must drop under overload"
        );
    }

    #[test]
    fn ra_dwcs_protects_the_bidding_class() {
        let plain = quick(false, 3);
        let ra = quick(true, 3);
        assert!(
            ra.bid.second_half_rps > plain.bid.second_half_rps,
            "ra {} vs plain {}",
            ra.bid.second_half_rps,
            plain.bid.second_half_rps
        );
        assert!(
            ra.total_rps > plain.total_rps,
            "ra total {} vs plain {}",
            ra.total_rps,
            plain.total_rps
        );
    }

    /// What the RA dispatcher is fed. Once batches carried a sequence
    /// header the feed's own decoder decoded nothing and ACKed nothing,
    /// and each daemon retransmitted every report until it was evicted.
    #[test]
    fn ra_feed_applies_every_report_and_acks_every_batch() {
        let (run, applied) = run_rubis_under(
            RubisScenario {
                resource_aware: true,
                duration: SimDuration::from_secs(10),
            },
            3,
            FaultPlan::default(),
        );
        let sysprof = run.sysprof;
        let feed = EndPoint::new(run.world.network().node_ip(NodeId(0)), RA_FEED_PORT);
        let flush = SimDuration::from_millis(50);
        for server in [NodeId(1), NodeId(2)] {
            let applied = applied.iter().filter(|(_, load)| load.node == server);
            let (reported_at, _) = applied
                .clone()
                .next_back()
                .expect("the dispatcher saw this server");
            assert!(
                run.world.now().saturating_since(*reported_at) <= flush + flush,
                "{server}'s load was last refreshed at {reported_at}"
            );
            let daemon = sysprof.daemon_stats(server).expect("deployed");
            assert_eq!(daemon.retransmits, 0, "{daemon:?}");
            // The sender's side of the feed stream: every batch it
            // sealed (one load report each) was applied once and is
            // acknowledged, but for the one sealed as the run stops.
            let streams = sysprof::procfs::render_streams(sysprof.sender(server).as_deref(), None);
            let value = |key: &str| -> u64 {
                let line = format!("tx[{feed}].{key}: ");
                let at = streams.find(&line).expect("a feed stream") + line.len();
                let rest = &streams[at..];
                rest[..rest.find('\n').expect("a whole line")]
                    .parse()
                    .expect("a count")
            };
            assert!(value("acked_upto") > 100, "{streams}");
            assert_eq!(value("acked_upto"), applied.count() as u64, "{streams}");
            assert_eq!(value("next_seq") - 1, value("acked_upto") + 1, "{streams}");
        }
    }

    #[test]
    fn monitoring_cost_is_small() {
        let ra = quick(true, 4);
        assert!(
            ra.server_overhead_fraction < 0.02,
            "overhead {}",
            ra.server_overhead_fraction
        );
    }
}
