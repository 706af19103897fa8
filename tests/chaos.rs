//! Chaos tests: the dissemination path (daemon → wire → subscriber, the
//! GPA or RA-DWCS's load feed) must survive packet loss, duplication,
//! reordering, timed partitions and forged sequence numbers on the
//! monitoring links without ever delivering a record twice — and the
//! whole degraded run must replay bit-identically from its seed.

use pubsub::control::ControlMsg;
use pubsub::reliable::encode_batch;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{EndPoint, FaultPlan, Ip, LinkFaults, LinkSpec, Port};
use simos::programs::EchoServer;
use simos::{Message, ProcCtx, Program, SocketId, WorldBuilder};
use sysprof::{procfs, Gpa, GpaConfig, MonitorConfig, SysProf};
use sysprof_apps::rubis::{run_rubis_under, RA_FEED_PORT};
use sysprof_apps::{KvStoreScenario, RubisScenario, ScenarioSpec};
use testkit::{chaos_report, check_invariants, fault_matrix, stream_value, uniform_loss};

/// A client issuing `count` sequential requests (NFS-proxy-style load).
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

/// The NFS-proxy middle tier: forwards requests, relays replies.
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

/// Runs the proxy scenario with a hostile monitoring path: every
/// daemon→GPA link loses, duplicates, reorders and jitters packets, and
/// the relay's link to the GPA is partitioned outright for 600ms
/// mid-run. Application links stay clean (the app itself has no
/// transport-level retry), so lost monitoring traffic is purely the
/// reliability protocol's problem. Returns the deterministic report.
fn proxy_under_chaos(seed: u64) -> String {
    let client = NodeId(0);
    let relay = NodeId(1);
    let backend = NodeId(2);
    let gpa_node = NodeId(3);

    let monitoring = LinkFaults {
        loss: 0.03,
        duplicate: 0.02,
        reorder: 0.02,
        jitter: SimDuration::from_micros(200),
        reorder_delay: SimDuration::from_millis(1),
    };
    let plan = uniform_loss(0.0)
        .with_link(relay, gpa_node, monitoring)
        .with_link(backend, gpa_node, monitoring)
        .with_partition(
            vec![relay],
            vec![gpa_node],
            SimTime::from_millis(600),
            SimTime::from_millis(1200),
        );

    let mut world = WorldBuilder::new(seed)
        .node("client")
        .node("relay")
        .node("backend")
        .node("gpa")
        .full_mesh(LinkSpec::gigabit_lan())
        .faults(plan)
        .build()
        .unwrap();
    let sysprof = SysProf::deploy(
        &mut world,
        &[relay, backend],
        gpa_node,
        MonitorConfig::default(),
    );

    world.spawn(
        backend,
        "backend",
        Box::new(EchoServer::new(
            Port(90),
            512,
            SimDuration::from_micros(200),
        )),
    );
    world.spawn(
        relay,
        "relay",
        Box::new(Relay {
            listen: Port(80),
            backend,
            backend_port: Port(90),
            backend_sock: None,
            client: None,
        }),
    );
    let done = std::rc::Rc::new(std::cell::Cell::new(0));
    world.spawn(
        client,
        "client",
        Box::new(SerialClient {
            server: relay,
            port: Port(80),
            bytes: 2_000,
            count: 120,
            done: done.clone(),
        }),
    );
    // Long tail after the partition heals so backed-off retransmits and
    // the final ACK exchange drain completely.
    world.run_until(SimTime::from_secs(6));
    assert_eq!(done.get(), 120, "application finished despite the chaos");

    let gpa = sysprof.gpa();
    {
        let g = gpa.borrow();

        // The network really was hostile.
        let faults = world.network().fault_stats();
        assert!(faults.injected_losses > 0, "losses injected: {faults:?}");
        assert!(faults.partition_drops > 0, "partition dropped: {faults:?}");
        assert!(faults.duplicates > 0, "duplicates injected: {faults:?}");
        // And its books balance exactly: every packet offered to the
        // injector either reached a receiver (possibly as an extra
        // duplicate copy) or is accounted to a specific loss cause.
        assert_eq!(
            faults.packets_offered + faults.duplicates,
            faults.total_losses() + faults.delivered_copies,
            "fault accounting must balance exactly: {faults:?}"
        );
        assert!(faults.balances(), "balances() agrees: {faults:?}");

        // The protocol noticed and repaired it.
        let gs = g.gpa_stats();
        assert!(gs.gaps_detected > 0, "loss opened gaps: {gs:?}");
        assert_eq!(
            gs.gaps_detected,
            gs.gaps_recovered + gs.gaps_abandoned,
            "every gap was retransmitted or explicitly abandoned: {gs:?}"
        );
        assert!(gs.duplicate_batches > 0, "dedup exercised: {gs:?}");
        let retransmits: u64 = [relay, backend]
            .iter()
            .filter_map(|&n| sysprof.daemon_stats(n))
            .map(|d| d.retransmits)
            .sum();
        assert!(retransmits > 0, "daemons retransmitted");
        let shared_bytes: u64 = [relay, backend]
            .iter()
            .filter_map(|&n| sysprof.daemon_stats(n))
            .map(|d| d.resend_bytes_shared)
            .sum();
        assert!(
            shared_bytes > 0,
            "every retransmit was served from the shared resend buffers"
        );

        // Delivery invariants: exactly-once, in-order, fully converged.
        let distinct = check_invariants(&g);
        assert!(
            distinct >= 100,
            "GPA saw most interactions despite 3% loss + partition: {distinct}"
        );
        assert_eq!(g.decode_failures(), 0, "no corrupted batches ingested");
    }
    chaos_report(&world, &sysprof)
}

#[test]
fn nfs_proxy_survives_loss_duplication_and_partition() {
    let report = proxy_under_chaos(1234);
    assert!(report.contains("gaps_detected"), "report digest:\n{report}");
}

#[test]
fn chaos_run_replays_bit_identically_from_the_same_seed() {
    assert_eq!(
        proxy_under_chaos(99),
        proxy_under_chaos(99),
        "same seed + same fault plan = byte-identical run"
    );
}

#[test]
fn crashed_and_restarted_node_resumes_publishing() {
    let run = |seed: u64| {
        let client = NodeId(0);
        let server = NodeId(1);
        let gpa_node = NodeId(2);
        // 2% loss on the monitoring link, plus the monitored server
        // fail-stops at 800ms and comes back at 1.2s.
        let plan = uniform_loss(0.0)
            .with_link(server, gpa_node, LinkFaults::lossy(0.02))
            .with_crash(
                server,
                SimTime::from_millis(800),
                Some(SimTime::from_millis(1200)),
            );
        let mut world = WorldBuilder::new(seed)
            .node("client")
            .node("server")
            .node("gpa")
            .full_mesh(LinkSpec::gigabit_lan())
            .faults(plan)
            .build()
            .unwrap();
        let sysprof = SysProf::deploy(&mut world, &[server], gpa_node, MonitorConfig::default());
        world.spawn(
            server,
            "echo",
            Box::new(EchoServer::new(
                Port(80),
                256,
                SimDuration::from_micros(100),
            )),
        );
        let done = std::rc::Rc::new(std::cell::Cell::new(0));
        world.spawn(
            client,
            "client",
            Box::new(SerialClient {
                server,
                port: Port(80),
                bytes: 2_000,
                count: 1_000, // will be cut short by the crash
                done,
            }),
        );
        world.run_until(SimTime::from_millis(900));
        assert!(world.node_is_down(server), "server is mid-outage");
        world.run_until(SimTime::from_secs(4));
        assert!(!world.node_is_down(server), "server restarted");
        let gpa = sysprof.gpa();
        {
            let g = gpa.borrow();
            check_invariants(&g);
            // The warm-restarted daemon kept its streams going: load
            // reports span the outage.
            let d = sysprof.daemon_stats(server).expect("daemon stats");
            assert!(d.loads_published > 0, "daemon resumed publishing: {d:?}");
            assert!(g.node_load(server).is_some(), "GPA heard from the server");
            let faults = world.network().fault_stats();
            assert!(
                faults.balances(),
                "fault accounting balances across the crash window: {faults:?}"
            );
        }
        chaos_report(&world, &sysprof)
    };
    assert_eq!(run(7), run(7), "crash/restart replays deterministically");
}

/// RA-DWCS's load feed, the second subscriber of the servlet daemons'
/// streams, under faults. The client↔servlet links carry the
/// application too, which has no transport-level retry: a lost request
/// leaks a dispatch slot for good. So the lossy mix goes on the links to
/// the GPA, the feed's links duplicate and reorder (by more than a flush
/// interval, so a late report really arrives behind its successor), and
/// the partition that does drop feed traffic comes after the last
/// request, while the daemons still report.
#[test]
fn ra_dwcs_load_feed_survives_reordering_duplication_and_a_partition() {
    let (client, gpa_node) = (NodeId(0), NodeId(3));
    let servlets = [NodeId(1), NodeId(2)];
    let mix = LinkFaults {
        loss: 0.03,
        duplicate: 0.02,
        reorder: 0.02,
        jitter: SimDuration::from_micros(200),
        reorder_delay: SimDuration::from_millis(1),
    };
    let late = LinkFaults {
        loss: 0.0,
        reorder_delay: SimDuration::from_millis(60),
        ..mix
    };
    let to_gpa = servlets.iter().fold(FaultPlan::default(), |plan, &s| {
        plan.with_link(s, gpa_node, mix)
    });
    let mixed = servlets
        .iter()
        .fold(to_gpa.clone(), |plan, &s| plan.with_link(s, client, late));
    let partitioned = to_gpa.with_partition(
        servlets.to_vec(),
        vec![client],
        SimTime::from_millis(10_600),
        SimTime::from_millis(11_400),
    );
    let config = |resource_aware| RubisScenario {
        resource_aware,
        duration: SimDuration::from_secs(10),
    };

    for (name, plan) in [("mix", mixed), ("partition", partitioned)] {
        let plain = run_rubis_under(config(false), 3, plan.clone()).0.output;
        let (run, applied) = run_rubis_under(config(true), 3, plan);
        let faults = run.world.network().fault_stats();
        assert!(faults.balances(), "{name}: {faults:?}");
        assert!(faults.injected_losses > 0, "{name}: {faults:?}");
        match name {
            "mix" => assert!(faults.duplicates > 500 && faults.reorders > 500),
            _ => assert!(faults.partition_drops > 0, "{faults:?}"),
        }
        check_invariants(&run.sysprof.gpa().borrow());

        // The feed's streams converged: all but the report sealed as
        // the run stops is acknowledged, after real repair work.
        let feed = EndPoint::new(run.world.network().node_ip(client), RA_FEED_PORT);
        let mut repaired = 0;
        for &server in &servlets {
            let streams = run.sysprof.sender(server).expect("deployed").streams();
            let value = |key| stream_value(&streams, feed, key);
            assert_eq!(value("next_seq") - 1, value("acked_upto") + 1, "{name}");
            assert_eq!(value("evictions"), 0, "{name}");
            repaired += value("retransmits");
            // Every acknowledged report was applied exactly once and in
            // the order it was measured, whatever order it arrived in.
            let reports: Vec<u64> = applied
                .iter()
                .filter(|(_, load)| load.node == server)
                .map(|(_, load)| load.wall_us)
                .collect();
            assert_eq!(reports.len() as u64, value("acked_upto"), "{name}");
            assert!(reports.windows(2).all(|w| w[0] < w[1]), "{name}");
        }
        assert!(repaired > 0, "{name}: the plan never touched the feed");
        assert!(applied.windows(2).all(|w| w[0].0 <= w[1].0), "{name}");

        // And the dispatcher it feeds still protects the bidding class.
        let ra = run.output;
        assert_eq!(ra.bid.dropped, 0, "{name}");
        assert!(
            ra.bid.second_half_rps > 0.95 * ra.bid.first_half_rps,
            "{name}: bids {} -> {}",
            ra.bid.first_half_rps,
            ra.bid.second_half_rps
        );
        assert!(
            ra.bid.second_half_rps > plain.bid.second_half_rps && ra.total_rps > plain.total_rps,
            "{name}: ra {} vs plain {}",
            ra.bid.second_half_rps,
            plain.bid.second_half_rps
        );
    }
}

/// A peer names any sequence number it likes. Five copies of one batch
/// numbered `u64::MAX` used to spend the gap budget and skip the stream
/// to the end of the sequence space: a panic in a debug build, a wrapped
/// stream that ACKs `u64::MAX` in a release one.
#[test]
fn forged_sequence_numbers_cannot_wedge_or_advance_the_gpa() {
    let me = EndPoint::new(Ip(99), Port(9999));
    let src = EndPoint::new(Ip(1), Port(9997));
    let ack = |upto| ControlMsg::DataAck {
        subscriber: me,
        upto,
    };
    let mut gpa = Gpa::new(GpaConfig::default());
    let forged = encode_batch(u64::MAX, &[]);
    for i in 1..=5 {
        let (n, replies) = gpa.ingest_wire(SimTime::from_millis(10 * i), me, src, &forged);
        assert_eq!((n, replies), (0, vec![ack(0)]), "copy {i}");
    }
    let stats = gpa.gpa_stats();
    assert_eq!((stats.out_of_window, stats.nacks_sent), (5, 0), "{stats:?}");
    assert!(gpa.streams_converged());
    let (_, replies) = gpa.ingest_wire(SimTime::from_millis(60), me, src, &encode_batch(1, &[]));
    assert_eq!(replies, [ack(1)], "an honest batch is still delivered");
}

/// `procfs::render_streams` after the chaos mix on a kvstore run: the
/// hot shard's daemon, whose last two batches are still on the wire as
/// the run stops, and the GPA, which has taken all but those.
#[test]
fn stream_render_is_golden_on_a_faulted_kvstore_run() {
    let (_, plan) = fault_matrix().pop().expect("the chaos mix is last");
    let run = KvStoreScenario::default().run_under(7, plan);
    let shard = run.sysprof.monitored()[0];
    assert_eq!(
        procfs::render_streams(run.sysprof.sender(shard).as_deref(), None),
        "tx[10.0.0.8:9999].acked_upto: 16\n\
         tx[10.0.0.8:9999].buffered_bytes: 54\n\
         tx[10.0.0.8:9999].evictions: 0\n\
         tx[10.0.0.8:9999].next_seq: 19\n\
         tx[10.0.0.8:9999].retransmits: 1\n"
    );
    let gpa = run.sysprof.gpa();
    let rx = procfs::render_streams(None, Some(gpa.borrow().receiver()));
    let per_source = |ip: u8, next_expected: u64| {
        format!(
            "rx[10.0.0.{ip}:9997].abandoned: 0\n\
             rx[10.0.0.{ip}:9997].gap_open: 0\n\
             rx[10.0.0.{ip}:9997].nacks_for_gap: 0\n\
             rx[10.0.0.{ip}:9997].next_expected: {next_expected}\n\
             rx[10.0.0.{ip}:9997].pending: 0\n"
        )
    };
    let golden: String = [(3, 17), (4, 18), (5, 18), (6, 18), (7, 18)]
        .into_iter()
        .map(|(ip, next)| per_source(ip, next))
        .collect();
    assert_eq!(rx, golden);
}
