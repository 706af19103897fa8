//! Runs every workload scenario in the library and prints the GPA's
//! diagnosis next to the application's own truth — the demo of SysProf
//! doing its actual job: naming the hot shard, the slow leaf, the
//! straggler rank, and the origin-bound tail from kernel-event streams
//! alone.
//!
//! ```text
//! cargo run --example scenario_diagnosis
//! ```

use sysprof_apps::{
    allreduce, fanout, AllreduceScenario, CdnScenario, FanoutScenario, KvStoreScenario,
    ScenarioSpec,
};

const SEED: u64 = 7;

fn show<S: ScenarioSpec>(spec: &S, truth: impl FnOnce(&S::Output) -> String) {
    let run = spec.run(SEED);
    let diagnosis = spec.diagnose(&run);
    println!("=== {} (seed {SEED}) ===", spec.name());
    println!("application truth: {}", truth(&run.output));
    println!("GPA diagnosis:     {diagnosis}");
}

fn main() {
    show(&KvStoreScenario::default(), |r| {
        format!(
            "shard {} served {:.0}% of {} ops",
            r.hot_shard,
            100.0 * r.hot_shard_share,
            r.ops_completed
        )
    });
    show(&FanoutScenario::default(), |r| {
        format!(
            "slow leaf is index {}; {} requests, p50 {}µs, p99 {}µs",
            fanout::SLOW_LEAF,
            r.requests_completed,
            r.p50_us,
            r.p99_us
        )
    });
    show(&AllreduceScenario::default(), |r| {
        format!(
            "straggler is rank {}; {} iterations, mean {:.0}µs each",
            allreduce::STRAGGLER,
            r.iterations_completed,
            r.mean_iteration_us
        )
    });
    show(&CdnScenario::default(), |r| {
        format!(
            "hit ratio {:.0}%, {} origin fetches, p50 {}µs, p95 {}µs",
            100.0 * r.hit_ratio,
            r.origin_fetches,
            r.p50_us,
            r.p95_us
        )
    });
}
