//! Reusable chaos-test harness for the SysProf stack.
//!
//! Runs a deployed [`SysProf`] world under a [`FaultPlan`] and checks the
//! reliability invariants the dissemination protocol promises:
//!
//! * **exactly-once** — no interaction record is delivered to the GPA
//!   twice, no matter how much the network duplicates or retransmits,
//! * **in-order** — per-subscription sequence numbers observed by the GPA
//!   are strictly increasing,
//! * **convergence** — once the network heals and retransmits drain, no
//!   stream is left with an open gap or buffered out-of-order batches,
//! * **determinism** — the same seed and fault plan produce a
//!   byte-identical [`chaos_report`] on every run.
//!
//! The harness is intentionally thin: scenarios build their own worlds
//! and workloads, then call [`check_invariants`] and compare
//! [`chaos_report`] strings across same-seed runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use simnet::{FaultPlan, LinkFaults};
use simos::World;
use sysprof::{Gpa, SysProf};

/// A [`FaultPlan`] that drops each packet on every link with probability
/// `loss` — the simplest useful chaos configuration.
pub fn uniform_loss(loss: f64) -> FaultPlan {
    FaultPlan::default().with_default_link(LinkFaults::lossy(loss))
}

/// The standard chaos matrix every scenario must survive: a clean
/// network, mild uniform loss, and a nasty mix of loss + duplication +
/// reordering + jitter on every link. Used by
/// [`scenario_matrix!`](crate::scenario_matrix) and runnable directly.
pub fn fault_matrix() -> Vec<(&'static str, FaultPlan)> {
    let mix = LinkFaults {
        loss: 0.02,
        duplicate: 0.02,
        reorder: 0.05,
        jitter: simcore::SimDuration::from_micros(200),
        reorder_delay: simcore::SimDuration::from_micros(500),
    };
    vec![
        ("clean", FaultPlan::default()),
        ("loss1pct", uniform_loss(0.01)),
        ("chaos-mix", FaultPlan::default().with_default_link(mix)),
    ]
}

/// Renders a deterministic, human-readable digest of everything the run
/// produced: per-node kernel counters, per-daemon dissemination counters,
/// injected-fault totals, and the GPA's view of the world. Two runs from
/// the same seed must produce byte-identical reports; any divergence is a
/// determinism bug.
pub fn chaos_report(world: &World, sysprof: &SysProf) -> String {
    let mut out = String::new();
    out.push_str(&format!("sim_now_us={}\n", world.now().as_micros()));

    let mut monitored: Vec<_> = sysprof.monitored().to_vec();
    monitored.sort();
    for node in 0..world.node_count() {
        let node = simcore::NodeId(node as u32);
        let s = world.node_stats(node);
        out.push_str(&format!(
            "node[{}] tx={} rx={} pkts_in={} pkts_out={} ring_drops={} \
             socket_drops={} crash_drops={}\n",
            node.0,
            s.bytes_sent,
            s.bytes_received,
            s.packets_in,
            s.packets_out,
            s.ring_drops,
            s.socket_drops,
            s.crash_drops,
        ));
    }
    for &node in &monitored {
        if let Some(d) = sysprof.daemon_stats(node) {
            out.push_str(&format!("daemon[{}] {:?}\n", node.0, d));
        }
    }
    // Only the *perturbation* counters go into the report. The traffic
    // counters (packets_offered / delivered_copies) count every transmit
    // once an injector is installed, so they would make a no-injector run
    // differ from an installed-but-empty plan — which must stay
    // bit-identical. `balances()` folds them in order-independently: it
    // holds trivially (0=0) with no injector and exactly with one.
    let f = world.network().fault_stats();
    out.push_str(&format!(
        "faults losses={} partition_drops={} duplicates={} reorders={} jittered={} balanced={}\n",
        f.injected_losses,
        f.partition_drops,
        f.duplicates,
        f.reorders,
        f.jittered,
        f.balances(),
    ));

    let gpa = sysprof.gpa();
    let gpa = gpa.borrow();
    out.push_str(&format!(
        "gpa interactions={} decode_failures={} {:?}\n",
        gpa.interaction_count(),
        gpa.decode_failures(),
        gpa.gpa_stats(),
    ));
    // Per-subscription stream positions, keyed by (sorted) source endpoint.
    let mut last: BTreeMap<_, (u64, u64)> = BTreeMap::new();
    for &(src, seq) in gpa.delivery_log() {
        let e = last.entry(src).or_insert((0, 0));
        e.0 = seq;
        e.1 += 1;
    }
    for (src, (seq, count)) in &last {
        out.push_str(&format!(
            "stream[{:?}] last_seq={} delivered={}\n",
            src, seq, count
        ));
    }
    out
}

/// Asserts no interaction record reached the GPA twice. Records are keyed
/// by everything that identifies a measurement (node, flow, class, pid,
/// start/end timestamps); the dissemination layer may retransmit batches,
/// but the reassembly layer must deduplicate them. Returns the number of
/// distinct records checked.
pub fn assert_no_duplicate_interactions(gpa: &Gpa) -> usize {
    let mut keys: Vec<String> = gpa
        .interactions()
        .iter()
        .map(|r| {
            format!(
                "{:?}|{:?}|{:?}|{}|{}|{}",
                r.node, r.flow, r.class_port, r.pid, r.start_us, r.end_us
            )
        })
        .collect();
    keys.sort();
    for w in keys.windows(2) {
        assert_ne!(
            w[0], w[1],
            "duplicate interaction record delivered: {}",
            w[0]
        );
    }
    keys.len()
}

/// Asserts the GPA's delivery log is strictly monotonic per source
/// endpoint: sequence `n` is never delivered after `m >= n` from the same
/// subscription stream.
pub fn assert_monotonic_delivery(gpa: &Gpa) {
    let mut last: BTreeMap<_, u64> = BTreeMap::new();
    for &(src, seq) in gpa.delivery_log() {
        let prev = last.insert(src, seq).unwrap_or(0);
        assert!(
            seq > prev,
            "stream {:?} delivered seq {} after {}",
            src,
            seq,
            prev
        );
    }
}

/// Asserts every subscription stream has fully converged: no open gaps
/// and nothing buffered out of order. Call after the fault window has
/// closed and retransmits have had time to drain.
pub fn assert_streams_converged(gpa: &Gpa) {
    assert!(
        gpa.streams_converged(),
        "GPA streams did not converge: {:?}",
        gpa.gpa_stats()
    );
}

/// Runs every delivery invariant in one call; returns the number of
/// distinct interaction records seen, for scenario-level assertions. A
/// GPA that received batches must have logged deliveries, so the
/// in-order audit never passes without reading one.
pub fn check_invariants(gpa: &Gpa) -> usize {
    let received = gpa.gpa_stats().batches_received;
    assert!(
        received == 0 || !gpa.delivery_log().is_empty(),
        "{received} batches received and no delivery logged"
    );
    assert_monotonic_delivery(gpa);
    assert_streams_converged(gpa);
    assert_no_duplicate_interactions(gpa)
}

/// One named value of the stream to or from `peer`, out of what
/// `Sender::streams` or `Receiver::streams` returned. Panics if there is
/// no such stream or name.
pub fn stream_value(
    streams: &[(simnet::EndPoint, [(&'static str, u64); 5])],
    peer: simnet::EndPoint,
    key: &str,
) -> u64 {
    let (_, state) = streams
        .iter()
        .find(|(ep, _)| *ep == peer)
        .unwrap_or_else(|| panic!("no stream with {peer}"));
    let (_, value) = state
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("a stream has no {key}"));
    *value
}

/// Asserts the mean end-to-end interaction time the GPA measured for one
/// tier (a `(node, class_port)` request class) stays within `budget_us`.
/// The per-tier latency budget is how scenario tests pin "this tier is
/// fast" without caring about individual samples. Panics if the GPA saw
/// no interactions for the class at all — a silent empty class would
/// vacuously pass any budget.
pub fn assert_tier_latency_budget(
    gpa: &Gpa,
    node: simcore::NodeId,
    port: simnet::Port,
    budget_us: f64,
) {
    let summary = gpa.class_summary(node, port).unwrap_or_else(|| {
        panic!(
            "no interactions measured at node {} port {}",
            node.0, port.0
        )
    });
    assert!(
        summary.mean_total_us <= budget_us,
        "tier (node {}, port {}) blew its latency budget: mean {:.1}µs > {:.1}µs over {} interactions",
        node.0,
        port.0,
        summary.mean_total_us,
        budget_us,
        summary.count
    );
}

/// Fraction of correlated paths rooted at `(node, port)` that carry at
/// least `min_children` nested downstream interactions — the GPA's
/// *path completeness* for a fan-out tier. 1.0 means every root the
/// correlator found has its full downstream story; low values mean the
/// cross-node correlation lost children (clock bounds too tight, records
/// dropped, or pairing broke). Returns `None` when no paths are rooted
/// there at all.
pub fn path_completeness(
    gpa: &Gpa,
    node: simcore::NodeId,
    port: simnet::Port,
    min_children: usize,
) -> Option<f64> {
    let (mut rooted, mut complete) = (0usize, 0usize);
    for p in gpa.correlate() {
        if p.parent.node == node && p.parent.class_port == port {
            rooted += 1;
            complete += usize::from(p.children.len() >= min_children);
        }
    }
    (rooted > 0).then(|| complete as f64 / rooted as f64)
}

/// Asserts at least `min_fraction` of the paths rooted at `(node, port)`
/// carry `min_children`+ downstream interactions (see
/// [`path_completeness`]).
pub fn assert_path_completeness(
    gpa: &Gpa,
    node: simcore::NodeId,
    port: simnet::Port,
    min_children: usize,
    min_fraction: f64,
) {
    let frac = path_completeness(gpa, node, port, min_children).unwrap_or_else(|| {
        panic!(
            "no correlated paths rooted at node {} port {}",
            node.0, port.0
        )
    });
    assert!(
        frac >= min_fraction,
        "path completeness at (node {}, port {}) is {:.2}, needed {:.2} (>= {} children per path)",
        node.0,
        port.0,
        frac,
        min_fraction,
        min_children
    );
}

/// Runs a `ScenarioSpec`-shaped value across a seed × fault-plan matrix
/// and checks, for every cell:
///
/// * the dissemination invariants ([`check_invariants`]) hold,
/// * a same-seed, same-plan re-run produces a byte-identical
///   [`chaos_report`] (bit-exact replay).
///
/// Duck-typed on purpose: the macro only needs `run_under(seed, plan)`
/// returning something with `.world` and `.sysprof` fields, so `testkit`
/// never depends on the crate defining the scenario trait.
///
/// ```ignore
/// scenario_matrix!(KvStoreScenario::default(), seeds = [7, 21]);
/// ```
#[macro_export]
macro_rules! scenario_matrix {
    ($spec:expr) => {
        $crate::scenario_matrix!($spec, seeds = [7, 21]);
    };
    ($spec:expr, seeds = [$($seed:expr),+ $(,)?]) => {{
        let spec = $spec;
        for (plan_name, plan) in $crate::fault_matrix() {
            for seed in [$($seed),+] {
                let run = spec.run_under(seed, plan.clone());
                {
                    let gpa = run.sysprof.gpa();
                    $crate::check_invariants(&gpa.borrow());
                }
                let report = $crate::chaos_report(&run.world, &run.sysprof);
                let replay = spec.run_under(seed, plan.clone());
                let replay_report = $crate::chaos_report(&replay.world, &replay.sysprof);
                assert_eq!(
                    report, replay_report,
                    "scenario replay diverged (seed {seed}, plan {plan_name})"
                );
            }
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{NodeId, SimDuration, SimTime};
    use simnet::{LinkSpec, Port};
    use simos::programs::{EchoServer, OneShotSender};
    use simos::WorldBuilder;
    use sysprof::{GpaConfig, MonitorConfig};

    fn run(seed: u64) -> String {
        let mut world = WorldBuilder::new(seed)
            .node("client")
            .node("server")
            .node("gpa")
            .full_mesh(LinkSpec::gigabit_lan())
            .faults(uniform_loss(0.02))
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
            Box::new(OneShotSender::new(NodeId(1), Port(80), 100_000)),
        );
        world.run_until(SimTime::from_secs(2));

        let gpa = sysprof.gpa();
        check_invariants(&gpa.borrow());
        chaos_report(&world, &sysprof)
    }

    #[test]
    fn smoke_report_is_deterministic_under_loss() {
        let a = run(7);
        assert!(a.contains("faults"), "report has a fault section:\n{a}");
        assert_eq!(a, run(7), "same seed, same report");
    }

    /// A GPA that received a batch and logged no delivery (a cap of 0
    /// keeps none) fails the audit instead of passing it unread.
    #[test]
    #[should_panic(expected = "no delivery logged")]
    fn an_unlogged_delivery_fails_the_audit() {
        let mut gpa = Gpa::new(GpaConfig {
            max_records: 0,
            ..GpaConfig::default()
        });
        let daemon = simnet::EndPoint::new(simnet::Ip(1), Port(9997));
        // The stream's first batch: sequence number 1 (one varint byte),
        // no records.
        gpa.ingest_wire(SimTime::ZERO, daemon, daemon, &[1]);
        assert_eq!(gpa.gpa_stats().batches_received, 1);
        check_invariants(&gpa);
    }

    #[test]
    fn uniform_loss_plan_perturbs() {
        assert!(uniform_loss(0.05).perturbs_network());
        assert!(!FaultPlan::default().perturbs_network());
    }
}
