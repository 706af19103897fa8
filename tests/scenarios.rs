//! Scenario-library integration tests: golden GPA diagnoses, the
//! seed × fault-plan chaos matrix, and targeted partition/crash runs.
//!
//! The golden tests pin the *exact* verdict string each scenario's
//! diagnosis renders for a fixed seed. If a code change shifts the GPA's
//! attribution — a different shard indicted, a different leaf blamed, a
//! different straggler named — the string changes and the test fails.
//! Numbers inside the verdict are part of the contract on purpose: the
//! attribution is only trustworthy if it is bit-stable under replay.

use simcore::{NodeId, SimDuration, SimTime};
use simnet::{FaultPlan, LinkFaults};
use sysprof::{LpaConfig, MonitorConfig, MonitorLevel};
use sysprof_apps::{
    allreduce, fanout, kvstore, AllreduceScenario, CdnScenario, FanoutScenario, IperfScenario,
    KvStoreScenario, LinpackScenario, RubisScenario, ScenarioSpec, StorageScenario,
};
use testkit::{
    assert_path_completeness, assert_tier_latency_budget, check_invariants, scenario_matrix,
    uniform_loss,
};

// ---------------------------------------------------------------------
// Golden diagnoses (seed 7, default specs)
// ---------------------------------------------------------------------

#[test]
fn kvstore_golden_diagnosis() {
    let spec = KvStoreScenario::default();
    let run = spec.run(7);
    let d = spec.diagnose(&run);
    assert_eq!(
        d.verdict,
        "hot shard 0: 43% of shard traffic (1492/3476 interactions)"
    );
    // The GPA's indictment agrees with the application's own counters.
    assert_eq!(run.output.hot_shard, 0);
}

#[test]
fn fanout_golden_diagnosis() {
    let spec = FanoutScenario::default();
    let run = spec.run(7);
    let d = spec.diagnose(&run);
    assert_eq!(
        d.verdict,
        "slow leaf 4 (node 9): mean user 487µs vs leaf-tier median 66µs"
    );
    assert_eq!(
        fanout::SLOW_LEAF,
        4,
        "the verdict names the configured leaf"
    );
}

#[test]
fn allreduce_golden_diagnosis() {
    let spec = AllreduceScenario::default();
    let run = spec.run(7);
    let d = spec.diagnose(&run);
    assert_eq!(
        d.verdict,
        "straggler rank 2: mean reduce 88µs vs ring median 63µs"
    );
    assert_eq!(
        allreduce::STRAGGLER,
        2,
        "the verdict names the configured rank"
    );
}

#[test]
fn cdn_golden_diagnosis() {
    let spec = CdnScenario::default();
    let run = spec.run(7);
    let d = spec.diagnose(&run);
    assert_eq!(
        d.verdict,
        "origin-bound tail: edge p95/p50 = 32x, misses blocked on origin disk (1497µs mean)"
    );
}

// ---------------------------------------------------------------------
// Legacy apps through the same trait
// ---------------------------------------------------------------------

#[test]
fn storage_scenario_diagnoses_the_disk_bound_backend() {
    let spec = StorageScenario::default();
    let run = spec.run(7);
    let d = spec.diagnose(&run);
    assert!(
        d.verdict.starts_with("disk-bound back end"),
        "verdict {:?}",
        d.verdict
    );
    let gpa = run.sysprof.gpa();
    check_invariants(&gpa.borrow());
}

#[test]
fn rubis_scenario_diagnoses_the_disturbed_server() {
    let spec = RubisScenario::default();
    let run = spec.run(7);
    let d = spec.diagnose(&run);
    // The background load lands on servlet-a (node 1), halfway through.
    assert!(
        d.verdict
            .starts_with("background load on servlet-a (node 1)"),
        "verdict {:?}\nevidence {:?}",
        d.verdict,
        d.evidence
    );
}

#[test]
fn iperf_and_linpack_scenarios_run_monitored() {
    let iperf = IperfScenario {
        duration: SimDuration::from_millis(500),
        ..IperfScenario::default()
    };
    let run = iperf.run(7);
    let d = iperf.diagnose(&run);
    assert!(
        d.verdict.contains("receiver"),
        "iperf verdict {:?}",
        d.verdict
    );

    let linpack = LinpackScenario;
    let run = linpack.run(7);
    let d = linpack.diagnose(&run);
    assert!(
        d.verdict.starts_with("compute-bound, monitoring-neutral"),
        "linpack verdict {:?}",
        d.verdict
    );
}

// ---------------------------------------------------------------------
// Chaos matrix: every scenario × {clean, loss, chaos-mix} × seeds,
// invariants checked and replay compared bit-for-bit in every cell.
// ---------------------------------------------------------------------

fn quick_kv() -> KvStoreScenario {
    KvStoreScenario {
        duration: SimDuration::from_millis(300),
    }
}

fn quick_fanout() -> FanoutScenario {
    FanoutScenario {
        duration: SimDuration::from_millis(300),
        ..FanoutScenario::default()
    }
}

fn quick_allreduce() -> AllreduceScenario {
    AllreduceScenario {
        iterations: 3,
        ..AllreduceScenario::default()
    }
}

fn quick_cdn() -> CdnScenario {
    CdnScenario {
        duration: SimDuration::from_millis(300),
        ..CdnScenario::default()
    }
}

#[test]
fn kvstore_survives_the_fault_matrix() {
    scenario_matrix!(quick_kv());
}

#[test]
fn fanout_survives_the_fault_matrix() {
    scenario_matrix!(quick_fanout());
}

#[test]
fn allreduce_survives_the_fault_matrix() {
    scenario_matrix!(quick_allreduce());
}

#[test]
fn cdn_survives_the_fault_matrix() {
    scenario_matrix!(quick_cdn());
}

#[test]
fn storage_survives_the_fault_matrix() {
    scenario_matrix!(StorageScenario {
        duration: SimDuration::from_secs(1),
        ..StorageScenario::default()
    });
}

#[test]
fn iperf_survives_the_fault_matrix() {
    scenario_matrix!(IperfScenario {
        duration: SimDuration::from_millis(300),
        ..IperfScenario::default()
    });
}

// ---------------------------------------------------------------------
// Monitoring configuration as the third axis (ROADMAP item 1(a), first
// column): scenario × LPA rung, through the runner's override
// ---------------------------------------------------------------------

/// The LPA's rungs, fine to coarse: every `MonitorLevel`, each deployed
/// as `LpaConfig::level`.
const LPA_RUNGS: [MonitorLevel; 4] = [
    MonitorLevel::Full,
    MonitorLevel::Interactions,
    MonitorLevel::ClassAggregates,
    MonitorLevel::Off,
];

/// Runs `spec` on every rung. Perturbation (mean monitoring CPU fraction
/// over the monitored nodes) must not rise as the rungs coarsen, and
/// class aggregates must ship fewer bytes than either per-interaction
/// rung. Bytes are *not* monotone between the two per-interaction rungs:
/// these workloads are closed loops, so a cheaper monitor lets more
/// requests finish and each one is still a record on the wire. `Off`
/// generates no event on any monitored node, still reports load to the
/// GPA, and ships no more than class aggregates. Returns the coarsest
/// rung whose verdict is still the full-monitoring verdict, character for
/// character, and the verdict at every rung, finest first.
fn coarsest_rung_keeping_the_verdict<S: ScenarioSpec>(spec: &S) -> (MonitorLevel, Vec<String>) {
    let mut kept = MonitorLevel::Full;
    let mut verdicts: Vec<String> = Vec::new();
    let mut finer: Vec<(f64, u64)> = Vec::new();
    for level in LPA_RUNGS {
        let config = MonitorConfig {
            lpa: LpaConfig {
                level,
                ..LpaConfig::default()
            },
            ..spec.monitor_config()
        };
        let run = spec.run_with(7, FaultPlan::default(), config);
        let nodes = run.sysprof.monitored();
        let overhead = nodes
            .iter()
            .map(|&n| run.sysprof.overhead_fraction(&run.world, n))
            .sum::<f64>()
            / nodes.len() as f64;
        let bytes: u64 = nodes
            .iter()
            .map(|&n| run.sysprof.daemon_stats(n).expect("deployed").bytes_sent)
            .sum();
        assert!(
            finer.last().is_none_or(|&(o, _)| overhead <= o),
            "{} at {level:?}: overhead {overhead} after {finer:?}",
            spec.name()
        );
        match level {
            MonitorLevel::ClassAggregates => assert!(
                finer.iter().all(|&(_, b)| bytes < b),
                "{}: class aggregates shipped {bytes} bytes after {finer:?}",
                spec.name()
            ),
            MonitorLevel::Off => {
                let (_, class_bytes) = finer.last().expect("class aggregates ran");
                assert!(
                    bytes <= *class_bytes,
                    "{}: off shipped {bytes}",
                    spec.name()
                );
                let gpa = run.sysprof.gpa();
                for &n in nodes {
                    let stats = run.world.kprof(n).stats();
                    assert_eq!(stats.events_generated, 0, "{} node {n}", spec.name());
                    assert!(
                        gpa.borrow().node_load(n).is_some(),
                        "{} node {n}",
                        spec.name()
                    );
                }
            }
            _ => {}
        }
        finer.push((overhead, bytes));
        let verdict = spec.diagnose(&run).verdict;
        if verdicts.first().is_none_or(|full| *full == verdict) {
            kept = level;
        }
        verdicts.push(verdict);
    }
    (kept, verdicts)
}

/// The first column of the frontier table. Every verdict carries the
/// measurements behind it, so none survives a coarser rung to the
/// character: without scheduling events the user/blocked attribution the
/// fan-out, allreduce and CDN verdicts quote reads zero, and the KV
/// store's counts move with the perturbation itself. All sixteen
/// verdicts are pinned, the degenerate ones too (EXPERIMENTS.md S3): they
/// are what the detector's tie, median and zero rules produce on empty
/// summaries.
#[test]
fn coarser_lpa_rungs_cost_less_and_keep_these_verdicts() {
    let table = [
        ("kvstore", coarsest_rung_keeping_the_verdict(&quick_kv())),
        ("fanout", coarsest_rung_keeping_the_verdict(&quick_fanout())),
        (
            "allreduce",
            coarsest_rung_keeping_the_verdict(&quick_allreduce()),
        ),
        ("cdn", coarsest_rung_keeping_the_verdict(&quick_cdn())),
    ];
    let kv_empty = "hot shard 0: 0% of shard traffic (0/0 interactions)";
    let leaf_empty = "slow leaf 0 (node 5): mean user 0µs vs leaf-tier median 0µs";
    let rank_empty = "straggler rank 0: mean reduce 0µs vs ring median 0µs";
    let cdn_empty =
        "origin-bound tail: edge p95/p50 = 0x, misses blocked on origin disk (0µs mean)";
    let golden: [(&str, [&str; 4]); 4] = [
        (
            "kvstore",
            [
                "hot shard 0: 46% of shard traffic (521/1142 interactions)",
                "hot shard 0: 45% of shard traffic (633/1411 interactions)",
                kv_empty,
                kv_empty,
            ],
        ),
        (
            "fanout",
            [
                "slow leaf 4 (node 9): mean user 487µs vs leaf-tier median 66µs",
                leaf_empty,
                leaf_empty,
                leaf_empty,
            ],
        ),
        (
            "allreduce",
            [
                "straggler rank 2: mean reduce 84µs vs ring median 63µs",
                rank_empty,
                rank_empty,
                rank_empty,
            ],
        ),
        (
            "cdn",
            [
                "origin-bound tail: edge p95/p50 = 32x, misses blocked on origin disk (1497µs mean)",
                "origin-bound tail: edge p95/p50 = 32x, misses blocked on origin disk (0µs mean)",
                cdn_empty,
                cdn_empty,
            ],
        ),
    ];
    for ((name, (kept, verdicts)), (golden_name, golden_verdicts)) in table.iter().zip(golden) {
        assert_eq!(*name, golden_name);
        assert_eq!(*kept, MonitorLevel::Full, "{name}");
        assert_eq!(
            verdicts, &golden_verdicts,
            "{name}: full, interactions, class-aggregates, off"
        );
    }
}

/// The kv world with no monitor deployed (ROADMAP item 10(c)): the
/// workload runs to completion, and every instrumentation point it hits
/// takes the suppressed path — no node generates an event.
#[test]
fn unmonitored_kvstore_completes_and_generates_no_events() {
    let (world, output) = quick_kv().run_unmonitored(7);
    assert!(output.ops_completed > 0, "{output:?}");
    let mut suppressed = 0;
    for node in 0..world.node_count() {
        let stats = world.kprof(NodeId(node as u32)).stats();
        assert_eq!(stats.events_generated, 0, "node {node}: {stats:?}");
        suppressed += stats.events_suppressed;
    }
    assert!(suppressed > 0, "the workload hit instrumentation points");
}

// ---------------------------------------------------------------------
// Tier budgets and path completeness
// ---------------------------------------------------------------------

#[test]
fn fanout_paths_are_complete_and_healthy_leaves_meet_budget() {
    let spec = quick_fanout();
    let run = spec.run(7);
    let gpa = run.sysprof.gpa();
    let gpa = gpa.borrow();
    // Every request fans out through both mids: the frontend's
    // correlated paths must carry at least `mids` children each.
    assert_path_completeness(
        &gpa,
        spec.frontend_node(),
        fanout::FRONT_PORT,
        fanout::MIDS,
        0.95,
    );
    // Healthy leaves answer well under a millisecond on average; the
    // configured slow leaf blows that budget by design.
    for l in 0..fanout::MIDS * fanout::LEAVES_PER_MID {
        if l == fanout::SLOW_LEAF {
            continue;
        }
        assert_tier_latency_budget(&gpa, spec.leaf_node(l), fanout::LEAF_PORT, 1_000.0);
    }
}

#[test]
fn kvstore_shard_tier_meets_its_latency_budget() {
    let spec = quick_kv();
    let run = spec.run(7);
    let gpa = run.sysprof.gpa();
    let gpa = gpa.borrow();
    for s in 0..kvstore::SHARDS {
        assert_tier_latency_budget(&gpa, spec.shard_node(s), kvstore::SHARD_PORT, 1_000.0);
    }
}

// ---------------------------------------------------------------------
// Targeted partition and crash runs
// ---------------------------------------------------------------------

/// A mid-run partition cuts the GPA off from every leaf's monitoring
/// stream; after it heals, dissemination must recover and the diagnosis
/// must still indict the configured slow leaf.
#[test]
fn fanout_diagnosis_survives_a_monitoring_partition() {
    let spec = quick_fanout();
    let leaves: Vec<NodeId> = (0..fanout::MIDS * fanout::LEAVES_PER_MID)
        .map(|l| spec.leaf_node(l))
        .collect();
    let plan = uniform_loss(0.01).with_partition(
        leaves,
        vec![spec.gpa_node()],
        SimTime::from_millis(100),
        SimTime::from_millis(200),
    );
    let run = spec.run_under(7, plan);
    {
        let gpa = run.sysprof.gpa();
        check_invariants(&gpa.borrow());
    }
    let d = spec.diagnose(&run);
    assert!(
        d.verdict.starts_with("slow leaf 4"),
        "diagnosis after partition: {:?}",
        d.verdict
    );
}

/// A shard fail-stops mid-run (its process never comes back; only the
/// monitoring daemon warm-restarts). The application keeps serving the
/// other shards, the dissemination invariants hold, and the run replays
/// bit-identically.
#[test]
fn kvstore_survives_a_shard_crash() {
    let run_once = || {
        let spec = quick_kv();
        let plan = uniform_loss(0.0)
            .with_link(spec.router_node(), spec.gpa_node(), LinkFaults::lossy(0.02))
            .with_crash(
                spec.shard_node(3),
                SimTime::from_millis(150),
                Some(SimTime::from_millis(200)),
            );
        let run = spec.run_under(7, plan);
        {
            let gpa = run.sysprof.gpa();
            check_invariants(&gpa.borrow());
        }
        assert!(
            run.output.ops_completed > 50,
            "ops continued on surviving shards: {:?}",
            run.output
        );
        testkit::chaos_report(&run.world, &run.sysprof)
    };
    assert_eq!(run_once(), run_once(), "crash run replays bit-identically");
}

/// The straggler's monitoring link is lossy and the ring partitions from
/// the GPA briefly; the collective still finishes and the diagnosis
/// still names the straggler.
#[test]
fn allreduce_diagnosis_survives_monitoring_chaos() {
    let spec = quick_allreduce();
    let plan = uniform_loss(0.0)
        .with_link(
            spec.rank_node(allreduce::STRAGGLER),
            spec.gpa_node(),
            LinkFaults {
                loss: 0.05,
                duplicate: 0.02,
                reorder: 0.02,
                jitter: SimDuration::from_micros(200),
                reorder_delay: SimDuration::from_millis(1),
            },
        )
        .with_partition(
            vec![spec.rank_node(0), spec.rank_node(1)],
            vec![spec.gpa_node()],
            SimTime::from_millis(20),
            SimTime::from_millis(60),
        );
    let run = spec.run_under(7, plan);
    {
        let gpa = run.sysprof.gpa();
        check_invariants(&gpa.borrow());
    }
    assert_eq!(
        run.output.iterations_completed, spec.iterations as u64,
        "collective finished despite monitoring chaos"
    );
    let d = spec.diagnose(&run);
    assert!(
        d.verdict.starts_with("straggler rank 2"),
        "diagnosis under chaos: {:?}",
        d.verdict
    );
}
