//! The verifier at the system boundaries: CPA installation and remote
//! filter subscription both reject bad E-Code *before* it touches
//! anything — no Kprof registration, no wire shipping — and the
//! rejection is observable (structured NACKs, daemon counters) rather
//! than silent.

use kprof::EventMask;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::LinkSpec;
use simos::programs::{EchoServer, OneShotSender};
use simos::WorldBuilder;
use sysprof::{MonitorConfig, SysProf, INTERACTION_TOPIC};

fn small_world(nodes: u32) -> simos::World {
    let mut b = WorldBuilder::new(1);
    for i in 0..nodes {
        b = b.node(&format!("n{i}"));
    }
    b.full_mesh(LinkSpec::gigabit_lan()).build().expect("world")
}

/// A loop-free program whose longest path still exceeds the default
/// 2000-instruction CPA budget.
fn over_budget_source() -> String {
    let mut src = String::from("static int s = 0;\n");
    for _ in 0..700 {
        src.push_str("s = s + 1;\n");
    }
    src.push_str("return s;\n");
    src
}

#[test]
fn install_cpa_rejects_over_budget_program_before_registration() {
    let mut world = small_world(2);
    let sysprof = SysProf::deploy(
        &mut world,
        &[NodeId(0)],
        NodeId(1),
        MonitorConfig::default(),
    );

    let big = over_budget_source();
    let err = sysprof
        .install_cpa(&mut world, NodeId(0), "hog", &big, EventMask::ALL)
        .unwrap_err();
    assert!(
        err.0.diagnostics.iter().any(|d| d.code == "E0003"),
        "expected a fuel-bound rejection, got {:#?}",
        err.0.diagnostics
    );
    assert!(
        err.to_string().contains("exceeds the host budget 2000"),
        "got: {err}"
    );

    // Proof nothing was registered: analyzer ids are sequential, and the
    // id a rejected program would have taken goes to the next success.
    let a = sysprof
        .install_cpa(
            &mut world,
            NodeId(0),
            "a",
            "return size;",
            EventMask::NETWORK,
        )
        .expect("valid CPA installs");
    sysprof
        .install_cpa(&mut world, NodeId(0), "hog2", &big, EventMask::ALL)
        .unwrap_err();
    let b = sysprof
        .install_cpa(
            &mut world,
            NodeId(0),
            "b",
            "return size;",
            EventMask::NETWORK,
        )
        .expect("valid CPA installs");
    assert_eq!(
        b.0,
        a.0 + 1,
        "a rejected program must not consume an analyzer id"
    );
}

#[test]
fn install_cpa_rejects_guaranteed_trap_with_line_number() {
    let mut world = small_world(2);
    let sysprof = SysProf::deploy(
        &mut world,
        &[NodeId(0)],
        NodeId(1),
        MonitorConfig::default(),
    );
    let err = sysprof
        .install_cpa(
            &mut world,
            NodeId(0),
            "trap",
            "int ok = 1;\nreturn size / 0;",
            EventMask::NETWORK,
        )
        .unwrap_err();
    let d = err
        .0
        .diagnostics
        .iter()
        .find(|d| d.code == "E0001")
        .expect("guaranteed trap diagnosed");
    assert_eq!(d.line, 2);
}

#[test]
fn bad_remote_filter_nacks_are_observable_at_daemon_and_gpa() {
    let mut world = small_world(2);
    let config = MonitorConfig {
        interaction_filter: Some("return kernel_in_us / 0;".into()),
        ..Default::default()
    };
    let sysprof = SysProf::deploy(&mut world, &[NodeId(0)], NodeId(1), config);
    world.run_until(SimTime::from_millis(100));

    // The daemon counted the rejection (the unfiltered load subscription
    // still succeeded) …
    let stats = sysprof.daemon_stats(NodeId(0)).expect("stats");
    assert_eq!(stats.subscribes_rejected, 1, "{stats:#?}");
    assert_eq!(stats.subscribes_ok, 1, "{stats:#?}");

    // … and the NACK travelled back over the wire to the GPA with the
    // verifier's diagnostics attached.
    let gpa = sysprof.gpa();
    let gpa = gpa.borrow();
    let failures = gpa.subscription_failures();
    assert_eq!(failures.len(), 1, "{failures:#?}");
    assert_eq!(failures[0].topic, INTERACTION_TOPIC);
    assert!(
        failures[0].diagnostics.iter().any(|d| d.contains("E0001")),
        "NACK should carry the division-by-zero diagnostic: {:#?}",
        failures[0].diagnostics
    );
}

#[test]
fn verified_filter_ships_records_and_exposes_its_fuel_bound() {
    let mut world = small_world(3);
    world.spawn(
        NodeId(1),
        "echo",
        Box::new(EchoServer::new(
            simnet::Port(80),
            512,
            SimDuration::from_micros(100),
        )),
    );
    world.spawn(
        NodeId(0),
        "client",
        Box::new(OneShotSender::new(NodeId(1), simnet::Port(80), 2_000)),
    );
    let config = MonitorConfig {
        interaction_filter: Some("return req_bytes >= 0;".into()),
        ..Default::default()
    };
    let sysprof = SysProf::deploy(&mut world, &[NodeId(1)], NodeId(2), config);
    world.run_until(SimTime::from_secs(2));

    let stats = sysprof.daemon_stats(NodeId(1)).expect("stats");
    assert_eq!(stats.subscribes_rejected, 0, "{stats:#?}");
    assert_eq!(stats.subscribes_ok, 2, "{stats:#?}");
    assert!(
        stats.filter_fuel_bound > 0,
        "the proven per-record bound should be visible: {stats:#?}"
    );
    assert!(sysprof.gpa().borrow().interaction_count() >= 1);
    assert!(sysprof.gpa().borrow().subscription_failures().is_empty());
}

/// A remote Subscribe carrying source built to overflow a recursive
/// parser (10,000 nested parentheses: 20 KB, which used to abort the
/// process) is answered like any other bad filter — NACKed and counted —
/// and the daemon goes on to accept the next valid Subscribe.
#[test]
fn hostile_filter_source_is_nacked_and_the_daemon_keeps_serving() {
    let mut world = small_world(2);
    let hostile = format!("return {}1{} > 0;", "(".repeat(10_000), ")".repeat(10_000));
    let config = MonitorConfig {
        interaction_filter: Some(hostile),
        ..Default::default()
    };
    let sysprof = SysProf::deploy(&mut world, &[NodeId(0)], NodeId(1), config);
    world.run_until(SimTime::from_millis(100));

    let stats = sysprof.daemon_stats(NodeId(0)).expect("stats");
    assert_eq!(stats.subscribes_rejected, 1, "{stats:#?}");
    {
        let gpa = sysprof.gpa();
        let gpa = gpa.borrow();
        let failures = gpa.subscription_failures();
        assert_eq!(failures.len(), 1, "{failures:#?}");
        assert!(
            failures[0]
                .diagnostics
                .iter()
                .any(|d| d.contains("E0004") && d.contains("nesting deeper")),
            "NACK should say why: {:#?}",
            failures[0].diagnostics
        );
    }

    // Same daemon, next Subscribe: a valid filter is admitted.
    let before = stats.subscribes_ok;
    let reply_to = simnet::EndPoint::new(world.network().node_ip(NodeId(1)), simnet::Port(9_999));
    sysprof.subscribe(
        &mut world,
        NodeId(1),
        NodeId(0),
        INTERACTION_TOPIC,
        reply_to,
        Some("return req_bytes >= 0;"),
    );
    world.run_until(SimTime::from_millis(200));
    let stats = sysprof.daemon_stats(NodeId(0)).expect("stats");
    assert_eq!(stats.subscribes_ok, before + 1, "{stats:#?}");
    assert_eq!(stats.subscribes_rejected, 1, "{stats:#?}");
}
