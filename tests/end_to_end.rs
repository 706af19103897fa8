//! Whole-stack integration tests: kernel events → LPA → daemon → wire →
//! GPA, across a multi-tier topology with imperfect clocks.

use simcore::{NodeId, SimDuration, SimTime};
use simnet::{ClockSpec, LinkSpec, Port};
use simos::programs::EchoServer;
use simos::{DiskSpec, Message, ProcCtx, Program, SocketId, World, WorldBuilder};
use sysprof::{procfs, GpaConfig, MonitorConfig, SysProf};

/// In a happy-path run on an uncongested LAN no link queue should ever
/// overflow — monitoring traffic included.
fn assert_no_link_drops(world: &World, nodes: u32) {
    for a in 0..nodes {
        for b in (a + 1)..nodes {
            if let Some(link) = world.network().link_between(NodeId(a), NodeId(b)) {
                assert_eq!(link.drops(), (0, 0), "queue drops on link {a}-{b}");
            }
        }
    }
}

/// A client issuing `count` sequential requests.
struct SerialClient {
    server: NodeId,
    port: Port,
    bytes: u64,
    count: u32,
    done: std::rc::Rc<std::cell::Cell<u32>>,
}

impl Program for SerialClient {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.connect(self.server, self.port);
    }
    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        ctx.send(sock, self.bytes, 1);
    }
    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, _m: Message) {
        self.done.set(self.done.get() + 1);
        if self.done.get() < self.count {
            ctx.send(sock, self.bytes, 1);
        } else {
            ctx.exit();
        }
    }
}

/// A middle tier: forwards each request to a backend, relays the reply.
struct Relay {
    listen: Port,
    backend: NodeId,
    backend_port: Port,
    backend_sock: Option<SocketId>,
    client: Option<SocketId>,
}

impl Program for Relay {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(self.listen);
        self.backend_sock = Some(ctx.connect(self.backend, self.backend_port));
    }
    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        if Some(sock) == self.backend_sock {
            if let Some(client) = self.client {
                ctx.compute(SimDuration::from_micros(30));
                ctx.send(client, msg.bytes, 2);
            }
        } else {
            self.client = Some(sock);
            ctx.compute(SimDuration::from_micros(50));
            ctx.send(self.backend_sock.expect("connected"), msg.bytes, 1);
        }
    }
}

#[test]
fn gpa_receives_interactions_over_the_wire() {
    let mut world = WorldBuilder::new(5)
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

    world.spawn(
        NodeId(1),
        "echo",
        Box::new(EchoServer::new(
            Port(80),
            256,
            SimDuration::from_micros(100),
        )),
    );
    let done = std::rc::Rc::new(std::cell::Cell::new(0));
    world.spawn(
        NodeId(0),
        "client",
        Box::new(SerialClient {
            server: NodeId(1),
            port: Port(80),
            bytes: 4_000,
            count: 50,
            done: done.clone(),
        }),
    );
    world.run_until(SimTime::from_secs(3));

    assert_eq!(done.get(), 50, "application completed");
    let gpa = sysprof.gpa();
    let gpa = gpa.borrow();
    // The last interaction may still sit in an unflushed buffer; nearly
    // all must have made it across the monitoring channel.
    assert!(
        gpa.interaction_count() >= 45,
        "GPA saw {} interactions",
        gpa.interaction_count()
    );
    assert_eq!(gpa.decode_failures(), 0, "clean wire decode");
    let summary = gpa
        .class_summary(NodeId(1), Port(80))
        .expect("class exists");
    assert!(
        summary.mean_user_us >= 90.0,
        "user time includes the 100µs compute: {}",
        summary.mean_user_us
    );
    assert!(summary.mean_total_us > summary.mean_user_us);
    // Load reports flowed too.
    assert!(gpa.node_load(NodeId(1)).is_some(), "load reports arrived");
    assert_no_link_drops(&world, 3);
}

#[test]
fn gpa_correlates_across_tiers_with_clock_skew() {
    // client -> relay -> backend, every node on a skewed NTP clock.
    let clock = |off: i64| ClockSpec {
        offset_ns: off,
        drift_ppm: 0.5,
    };
    let mut world = WorldBuilder::new(9)
        .node_with("client", DiskSpec::default(), clock(150_000))
        .node_with("relay", DiskSpec::default(), clock(-200_000))
        .node_with("backend", DiskSpec::default(), clock(80_000))
        .node("gpa")
        .full_mesh(LinkSpec::gigabit_lan())
        .build()
        .unwrap();
    let mc = MonitorConfig {
        gpa: GpaConfig {
            clock_error_bound: SimDuration::from_millis(1),
            ..GpaConfig::default()
        },
        ..Default::default()
    };
    let sysprof = SysProf::deploy(&mut world, &[NodeId(1), NodeId(2)], NodeId(3), mc);

    world.spawn(
        NodeId(2),
        "backend",
        Box::new(EchoServer::new(Port(90), 512, SimDuration::from_millis(2))),
    );
    world.spawn(
        NodeId(1),
        "relay",
        Box::new(Relay {
            listen: Port(80),
            backend: NodeId(2),
            backend_port: Port(90),
            backend_sock: None,
            client: None,
        }),
    );
    let done = std::rc::Rc::new(std::cell::Cell::new(0));
    world.spawn(
        NodeId(0),
        "client",
        Box::new(SerialClient {
            server: NodeId(1),
            port: Port(80),
            bytes: 2_000,
            count: 30,
            done: done.clone(),
        }),
    );
    world.run_until(SimTime::from_secs(5));
    assert_eq!(done.get(), 30);

    let gpa = sysprof.gpa();
    let gpa = gpa.borrow();
    // Interactions were measured at both tiers.
    assert!(
        gpa.class_summary(NodeId(1), Port(80)).is_some(),
        "relay tier measured"
    );
    assert!(
        gpa.class_summary(NodeId(2), Port(90)).is_some(),
        "backend tier measured"
    );

    // Correlation: client->relay interactions contain relay->backend ones,
    // despite each log carrying a differently-skewed wall clock.
    let paths = gpa.correlate();
    assert!(
        paths.len() >= 20,
        "correlated {} end-to-end paths",
        paths.len()
    );
    let p = &paths[0];
    assert_eq!(p.parent.node, NodeId(1));
    assert!(p.children.iter().all(|c| c.node == NodeId(2)));
    // The backend share explains part of the parent latency.
    let parent_us = p.parent.end_us - p.parent.start_us;
    assert!(p.downstream_us() > 0 && p.downstream_us() <= parent_us + 2_000);
    assert_no_link_drops(&world, 4);
}

#[test]
fn procfs_views_render_after_a_run() {
    let mut world = WorldBuilder::new(11)
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
    world.spawn(
        NodeId(1),
        "echo",
        Box::new(EchoServer::new(Port(80), 128, SimDuration::from_micros(50))),
    );
    let done = std::rc::Rc::new(std::cell::Cell::new(0));
    world.spawn(
        NodeId(0),
        "client",
        Box::new(SerialClient {
            server: NodeId(1),
            port: Port(80),
            bytes: 1_000,
            count: 20,
            done,
        }),
    );
    world.run_until(SimTime::from_secs(2));

    let lpa = sysprof.lpa(&world, NodeId(1)).unwrap();
    let interactions = procfs::render_interactions(lpa);
    assert!(interactions.lines().count() > 10, "window has content");
    let classes = procfs::render_classes(lpa);
    assert!(
        classes.contains("80"),
        "class table lists port 80:\n{classes}"
    );
    let status = procfs::render_status(NodeId(1), world.kprof(NodeId(1)), lpa);
    assert!(status.contains("events_generated"), "{status}");
    let gpa = sysprof.gpa();
    let dump = gpa.borrow().dump_json();
    let parsed: serde_json::Value = serde_json::from_str(&dump).unwrap();
    assert!(parsed["interaction_count"].as_u64().unwrap() > 0);
}

#[test]
fn deterministic_gpa_state_across_identical_runs() {
    let run = || {
        let mut world = WorldBuilder::new(77)
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
        world.spawn(
            NodeId(1),
            "echo",
            Box::new(EchoServer::new(
                Port(80),
                256,
                SimDuration::from_micros(150),
            )),
        );
        let done = std::rc::Rc::new(std::cell::Cell::new(0));
        world.spawn(
            NodeId(0),
            "client",
            Box::new(SerialClient {
                server: NodeId(1),
                port: Port(80),
                bytes: 3_000,
                count: 40,
                done,
            }),
        );
        world.run_until(SimTime::from_secs(3));
        let gpa = sysprof.gpa();
        let dump = gpa.borrow().dump_json();
        dump
    };
    assert_eq!(run(), run(), "bit-identical GPA dumps from the same seed");
}
