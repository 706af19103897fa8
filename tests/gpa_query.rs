//! Remote GPA queries over the simulated wire: "Other nodes in the system
//! can query the GPA" (§2).

use proptest::prelude::*;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{EndPoint, LinkSpec, Port};
use simos::programs::{EchoServer, OneShotSender};
use simos::WorldBuilder;
use sysprof::{
    GpaAnswer, GpaQuery, MonitorConfig, QueryClient, SysProf, QUERY_PORT, QUERY_REPLY_PORT,
};

fn monitored_world() -> (simos::World, SysProf) {
    let mut world = WorldBuilder::new(21)
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
    world.spawn(
        NodeId(0),
        "client",
        Box::new(OneShotSender::new(NodeId(1), Port(80), 20_000)),
    );
    (world, sysprof)
}

#[test]
fn remote_node_queries_interaction_count() {
    let (mut world, _sysprof) = monitored_world();
    world.run_until(SimTime::from_secs(1));

    let mut client = QueryClient::install(&mut world, NodeId(0), NodeId(2));
    let id = client.send(&mut world, GpaQuery::InteractionCount);
    assert!(client.answer(id).is_none(), "the answer takes network time");

    world.run_for(SimDuration::from_millis(50));
    match client.answer(id) {
        Some(GpaAnswer::InteractionCount(n)) => assert!(n >= 1, "count {n}"),
        other => panic!("unexpected answer {other:?}"),
    }
}

#[test]
fn remote_node_queries_class_summary_and_load() {
    let (mut world, _sysprof) = monitored_world();
    world.run_until(SimTime::from_secs(1));

    let mut client = QueryClient::install(&mut world, NodeId(0), NodeId(2));
    let q1 = client.send(
        &mut world,
        GpaQuery::ClassSummary {
            node: NodeId(1),
            class_port: 80,
        },
    );
    let q2 = client.send(&mut world, GpaQuery::NodeLoad { node: NodeId(1) });
    let q3 = client.send(
        &mut world,
        GpaQuery::ClassSummary {
            node: NodeId(1),
            class_port: 9_999, // never used as a service class
        },
    );
    world.run_for(SimDuration::from_millis(50));

    match client.answer(q1) {
        Some(GpaAnswer::ClassSummary(Some(s))) => {
            assert_eq!(s.node, NodeId(1));
            assert!(s.count >= 1);
            assert!(s.mean_total_us > 0.0);
        }
        other => panic!("unexpected answer {other:?}"),
    }
    match client.answer(q2) {
        Some(GpaAnswer::NodeLoad(Some(view))) => {
            assert!(view.reports >= 1);
        }
        other => panic!("unexpected answer {other:?}"),
    }
    match client.answer(q3) {
        Some(GpaAnswer::ClassSummary(None)) => {}
        other => panic!("unexpected answer {other:?}"),
    }
    assert_eq!(client.answers_received(), 3);
}

#[test]
fn all_class_summaries_round_trip() {
    let (mut world, _sysprof) = monitored_world();
    world.run_until(SimTime::from_secs(1));
    let mut client = QueryClient::install(&mut world, NodeId(0), NodeId(2));
    let id = client.send(&mut world, GpaQuery::AllClassSummaries);
    world.run_for(SimDuration::from_millis(50));
    match client.answer(id) {
        Some(GpaAnswer::AllClassSummaries(all)) => {
            assert!(!all.is_empty());
            assert!(all.iter().any(|s| s.class_port == Port(80)));
        }
        other => panic!("unexpected answer {other:?}"),
    }
}

/// Client, bystander and GPA with nothing monitored: no daemon reports
/// to the GPA, so its monitoring CPU is what the query plane costs it.
fn quiet_world() -> (simos::World, SysProf) {
    let mut world = WorldBuilder::new(22)
        .node("client")
        .node("bystander")
        .node("gpa")
        .full_mesh(LinkSpec::gigabit_lan())
        .build()
        .unwrap();
    let sysprof = SysProf::deploy(&mut world, &[], NodeId(2), MonitorConfig::default());
    (world, sysprof)
}

/// 200 KB of `[` on the query port: the JSON parser refuses the nesting
/// instead of recursing off the stack (`ci.sh --jit` runs this on a
/// 256 KB stack), the GPA charges the lookup, answers nothing and keeps
/// serving.
#[test]
fn hostile_deep_nesting_on_the_query_port_is_charged_and_left_unanswered() {
    let (mut world, _sysprof) = quiet_world();
    let mut client = QueryClient::install(&mut world, NodeId(0), NodeId(2));
    let gpa_ep = EndPoint::new(world.network().node_ip(NodeId(2)), QUERY_PORT);
    world.kernel_send(NodeId(0), QUERY_REPLY_PORT, gpa_ep, 0, vec![b'['; 200_000]);
    world.run_for(SimDuration::from_millis(50));
    // One query's charge, plus the Kprof hooks' few ns per packet of
    // the 200 KB.
    let charged = world.node_stats(NodeId(2)).cpu.monitor;
    let query = sysprof::cost::GPA_QUERY;
    assert!(charged >= query && charged < query + query, "{charged:?}");
    assert_eq!(world.node_stats(NodeId(0)).bytes_received, 0);
    assert_eq!(client.answers_received(), 0);

    let id = client.send(&mut world, GpaQuery::InteractionCount);
    world.run_for(SimDuration::from_millis(50));
    assert!(matches!(
        client.answer(id),
        Some(GpaAnswer::InteractionCount(0))
    ));
}

proptest! {
    /// Both query-plane sinks face the network. Arbitrary bytes and
    /// envelopes that are valid, truncated or have one byte overwritten
    /// never panic either of them, and the client keeps at most one
    /// answer per id it sent however many are forged or replayed.
    #[test]
    fn prop_hostile_bytes_never_panic_a_sink_or_grow_the_answer_table(
        sent in 0usize..4,
        messages in proptest::collection::vec(
            (
                any::<bool>(),
                0usize..5,
                proptest::collection::vec(any::<u8>(), 0..48),
                0usize..80,
                any::<u8>(),
            ),
            0..12,
        ),
    ) {
        let (mut world, _sysprof) = quiet_world();
        let mut client = QueryClient::install(&mut world, NodeId(0), NodeId(2));
        let ids: Vec<u64> = (0..sent)
            .map(|_| client.send(&mut world, GpaQuery::AllClassSummaries))
            .collect();
        let client_ip = world.network().node_ip(NodeId(0));
        let gpa_ep = EndPoint::new(world.network().node_ip(NodeId(2)), QUERY_PORT);
        let reply_ep = EndPoint::new(client_ip, QUERY_REPLY_PORT);
        for (to_gpa, shape, raw, at, byte) in messages {
            let mut bytes = match shape {
                0 => raw,
                1 => format!(
                    r#"{{"id":{at},"reply_to":{{"ip":{},"port":{}}},"query":"InteractionCount"}}"#,
                    client_ip.0, QUERY_REPLY_PORT.0
                )
                .into_bytes(),
                // Ids inside and outside what the client sent, replayed.
                _ => format!(r#"{{"id":{},"answer":{{"InteractionCount":{at}}}}}"#, at % 6)
                    .into_bytes(),
            };
            match shape {
                3 => bytes.truncate(at),
                4 if !bytes.is_empty() => {
                    let i = at % bytes.len();
                    bytes[i] = byte;
                }
                _ => {}
            }
            let dst = if to_gpa { gpa_ep } else { reply_ep };
            world.kernel_send(NodeId(1), QUERY_PORT, dst, 0, bytes);
        }
        world.run_for(SimDuration::from_millis(100));
        prop_assert!(client.answers_received() <= sent);
        for id in 1..8u64 {
            prop_assert!(client.answer(id).is_none() || ids.contains(&id));
        }
    }
}
