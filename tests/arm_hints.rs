//! End-to-end test of the ARM-hints extension: pipelined (interleaved)
//! requests on one flow are inseparable for the black-box monitor — the
//! paper's §2 caveat — but separate cleanly when the application opts
//! into ARM-style tagging.

use simcore::{NodeId, SimDuration, SimTime};
use simnet::{LinkSpec, Port};
use simos::programs::EchoServer;
use simos::{Message, ProcCtx, Program, SocketId, WorldBuilder};
use sysprof::{MonitorConfig, SysProf};

/// Keeps `depth` requests in flight on one socket (pipelining).
struct PipelinedClient {
    server: NodeId,
    depth: usize,
    total: u32,
    sent: u32,
    received: std::rc::Rc<std::cell::Cell<u32>>,
    sock: Option<SocketId>,
}

impl Program for PipelinedClient {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.connect(self.server, Port(80));
    }
    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        self.sock = Some(sock);
        for _ in 0..self.depth {
            ctx.send(sock, 2_000, 1);
            self.sent += 1;
        }
    }
    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, _m: Message) {
        self.received.set(self.received.get() + 1);
        if self.sent < self.total {
            ctx.send(sock, 2_000, 1);
            self.sent += 1;
        }
    }
}

/// Runs the pipelined exchange with the monitor deployed on `monitored`
/// and returns the responses the client received. `use_arm` is whether
/// both applications "link against ARM" (`World::enable_arm`), so their
/// packets carry correlators; the monitor is deployed identically either
/// way.
fn run_on(use_arm: bool, monitored: &[NodeId]) -> (u32, simos::World, SysProf) {
    let mut world = WorldBuilder::new(31)
        .node("client")
        .node("server")
        .node("gpa")
        .full_mesh(LinkSpec::gigabit_lan())
        .build()
        .unwrap();
    let sysprof = SysProf::deploy(&mut world, monitored, NodeId(2), MonitorConfig::default());

    // Slow enough that pipelined requests genuinely queue at the server.
    let server_pid = world.spawn(
        NodeId(1),
        "echo",
        Box::new(EchoServer::new(Port(80), 300, SimDuration::from_millis(2))),
    );
    let received = std::rc::Rc::new(std::cell::Cell::new(0));
    let client_pid = world.spawn(
        NodeId(0),
        "pipelined",
        Box::new(PipelinedClient {
            server: NodeId(1),
            depth: 4,
            total: 60,
            sent: 0,
            received: received.clone(),
            sock: None,
        }),
    );
    if use_arm {
        world.enable_arm(NodeId(0), client_pid);
        world.enable_arm(NodeId(1), server_pid);
    }
    world.run_until(SimTime::from_secs(5));
    (received.get(), world, sysprof)
}

/// The server node monitored alone: (responses received, LPA records,
/// mean interaction total µs).
fn run(use_arm: bool) -> (u32, u64, f64) {
    let (received, world, sysprof) = run_on(use_arm, &[NodeId(1)]);
    let records = sysprof
        .lpa(&world, NodeId(1))
        .expect("deployed")
        .records_completed();
    let mean_total = sysprof
        .gpa()
        .borrow()
        .class_summary(NodeId(1), Port(80))
        .map(|s| s.mean_total_us)
        .unwrap_or(0.0);
    (received, records, mean_total)
}

#[test]
fn black_box_mispairs_pipelined_requests() {
    // With depth-4 pipelining and 2 ms service, the true per-request
    // latency is ~4 service times (queueing behind the pipeline) ≈ 8 ms.
    // The black-box monitor pairs each arriving request with the *next*
    // response — which answers an earlier request — so its measured spans
    // are mostly one service gap (~2 ms): systematically wrong.
    let (received, records, mean_total) = run(false);
    assert_eq!(received, 60, "application completed");
    assert_eq!(records, 57, "a run of pipelined requests pairs as one");
    assert!(
        mean_total < 5_000.0,
        "black-box underestimates pipelined latency: measured {mean_total} µs"
    );
}

#[test]
fn arm_hints_recover_true_pipelined_latency() {
    let (received, records, mean_total) = run(true);
    assert_eq!(received, 60);
    assert_eq!(records, 60, "ARM hints separate all 60 interactions");
    assert!(
        mean_total > 6_000.0,
        "true per-request latency includes pipeline queueing: {mean_total} µs"
    );
    // And the two monitors disagree by design.
    let (_, _, blackbox_mean) = run(false);
    assert!(
        mean_total > blackbox_mean * 2.0,
        "ARM {mean_total} vs black-box {blackbox_mean}"
    );
}

/// The initiating node sees each tagged exchange as Out(request) then
/// In(response). Its records must come out oriented like the server's —
/// class port 80, one per request — and span the server's.
#[test]
fn arm_hints_at_the_initiator_are_oriented_from_the_client() {
    let (received, world, sysprof) = run_on(true, &[NodeId(0), NodeId(1)]);
    assert_eq!(received, 60);
    let lpa = sysprof.lpa(&world, NodeId(0)).expect("deployed");
    assert_eq!(lpa.records_completed(), 60);
    let client_ip = world.network().node_ip(NodeId(0));
    assert!(lpa
        .window_snapshot()
        .all(|r| r.flow.src.ip == client_ip && r.class_port == Port(80) && r.end_us > r.start_us));
    let gpa = sysprof.gpa();
    let gpa = gpa.borrow();
    let at_client = gpa.class_summary(NodeId(0), Port(80)).expect("class 80");
    let at_server = gpa.class_summary(NodeId(1), Port(80)).expect("class 80");
    assert_eq!((at_client.count, at_server.count), (60, 60));
    assert!(
        at_client.mean_total_us > at_server.mean_total_us,
        "the round trip contains the service span: {} vs {}",
        at_client.mean_total_us,
        at_server.mean_total_us
    );
}

#[test]
fn arm_interactions_have_sane_per_request_latency() {
    let mut world = WorldBuilder::new(32)
        .node("client")
        .node("server")
        .node("gpa")
        .full_mesh(LinkSpec::gigabit_lan())
        .build()
        .unwrap();
    let sysprof = SysProf::deploy(
        &mut world,
        &[NodeId(1)],
        NodeId(2),
        MonitorConfig::default(),
    );
    let server_pid = world.spawn(
        NodeId(1),
        "echo",
        Box::new(EchoServer::new(
            Port(80),
            300,
            SimDuration::from_micros(200),
        )),
    );
    let received = std::rc::Rc::new(std::cell::Cell::new(0));
    let client_pid = world.spawn(
        NodeId(0),
        "pipelined",
        Box::new(PipelinedClient {
            server: NodeId(1),
            depth: 3,
            total: 30,
            sent: 0,
            received,
            sock: None,
        }),
    );
    world.enable_arm(NodeId(0), client_pid);
    world.enable_arm(NodeId(1), server_pid);
    world.run_until(SimTime::from_secs(3));

    let gpa = sysprof.gpa();
    let gpa = gpa.borrow();
    let summary = gpa
        .class_summary(NodeId(1), Port(80))
        .expect("interactions observed");
    // Depth-3 pipeline, 200 µs service: true spans are sub-ms and every
    // request gets its own record.
    assert!(
        summary.mean_total_us < 5_000.0,
        "per-request spans, not merged batches: mean {} µs",
        summary.mean_total_us
    );
    assert!(summary.count >= 25);
}
