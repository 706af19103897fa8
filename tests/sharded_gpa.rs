//! Sharded GPA digest evaluation over a real scenario workload.
//!
//! The shard-safety analysis (`ecode::analysis::merge`) promises that a
//! fully-mergeable digest program evaluated as K partitioned replicas
//! folds back to *bit-identical* statics versus one sequential
//! instance. The unit sweeps prove this for generated programs and
//! synthetic events; this test closes the loop end-to-end: a kvstore
//! scenario produces thousands of genuine interaction records, and the
//! same digest runs sequentially and sharded over that record stream.
//!
//! The numbers asserted here back the sharded-vs-sequential row in
//! EXPERIMENTS.md.

use sysprof::{procfs, Gpa, GpaConfig, InteractionRecord};
use sysprof_apps::{KvStoreScenario, ScenarioSpec};

/// A representative GPA digest: request volume, byte totals, worst
/// service time, and an SLO-breach counter — each a different lattice
/// class (counter, counter, max-fold, gated counter).
const DIGEST: &str = "
    static int requests = 0;
    static int bytes = 0;
    static int worst_us = 0;
    static int slo_misses = 0;
    requests = requests + 1;
    bytes = bytes + req_bytes + resp_bytes;
    worst_us = max(worst_us, end_us - start_us);
    if (end_us - start_us > 1000) { slo_misses = slo_misses + 1; }
    return requests;
";

fn kvstore_records() -> Vec<InteractionRecord> {
    let spec = KvStoreScenario::default();
    let run = spec.run(7);
    let gpa = run.sysprof.gpa();
    let gpa = gpa.borrow();
    gpa.interactions().to_vec()
}

fn digest_gpa(records: &[InteractionRecord], shards: usize) -> Gpa {
    let mut gpa = Gpa::new(GpaConfig::default());
    gpa.install_digest(DIGEST, shards).expect("digest verifies");
    for rec in records {
        gpa.ingest_record(rec);
    }
    gpa
}

#[test]
fn kvstore_digest_folds_shards_to_the_sequential_answer() {
    let records = kvstore_records();
    assert!(
        records.len() > 3_000,
        "the scenario produced a real workload ({} records)",
        records.len()
    );

    let sequential = digest_gpa(&records, 1);
    for k in [2usize, 3, 8] {
        let sharded = digest_gpa(&records, k);
        let stats = sharded.digest_stats().unwrap();
        assert!(stats.sharded, "plan admitted sharding: {stats:?}");
        assert_eq!(stats.shards, k);
        assert_eq!(stats.events, records.len() as u64);
        assert_eq!(stats.aborted, 0);
        assert_eq!(stats.skipped, 0);
        assert!(
            stats.per_shard_events.iter().filter(|&&n| n > 0).count() > 1,
            "flow partitioning spread the records: {stats:?}"
        );
        for name in ["requests", "bytes", "worst_us", "slo_misses"] {
            assert_eq!(
                sharded.digest_global(name),
                sequential.digest_global(name),
                "K={k}: \"{name}\" must fold bit-identically"
            );
        }
    }

    // The measured values backing the EXPERIMENTS.md row (visible with
    // `cargo test --test sharded_gpa -- --nocapture`).
    for name in ["requests", "bytes", "worst_us", "slo_misses"] {
        println!(
            "kvstore digest {name} = {:?} (identical for K in {{1, 2, 3, 8}})",
            sequential.digest_global(name).unwrap()
        );
    }

    // Pin the sequential answers themselves: the digest is only useful
    // if it reports the workload, not just self-consistency.
    let requests = sequential.digest_global("requests").unwrap();
    assert_eq!(requests, ecode::Value::Int(records.len() as i64));
    let ecode::Value::Int(bytes) = sequential.digest_global("bytes").unwrap() else {
        panic!("bytes is an int static");
    };
    assert!(bytes > 0, "the kvstore moved bytes");
}

#[test]
fn sharded_digest_is_replay_stable() {
    // Same records, same shard count, two independent digest GPAs:
    // shard placement (FNV-1a of the flow key) and the fold must both
    // be deterministic, or replay debugging of a sharded GPA is dead.
    let records = kvstore_records();
    let a = digest_gpa(&records, 8);
    let b = digest_gpa(&records, 8);
    assert_eq!(
        a.digest_stats().unwrap().per_shard_events,
        b.digest_stats().unwrap().per_shard_events,
        "shard placement replays identically"
    );
    for name in ["requests", "bytes", "worst_us", "slo_misses"] {
        assert_eq!(a.digest_global(name), b.digest_global(name));
    }
}

/// The digest explains itself: what it compiled to, why, and what it
/// cost, from one deterministic surface.
#[test]
fn digest_render_is_golden() {
    let records = kvstore_records();
    assert_eq!(
        procfs::render_digest(&digest_gpa(&records, 1)),
        "aborted: 0\n\
         evaluator: vectorized\n\
         events: 10428\n\
         events_per_replica: 10428\n\
         fuel_bound: 28\n\
         fuel_per_record: 24.0\n\
         replicas_requested: 1\n\
         replicas_running: 1\n\
         skipped: 0\n\
         tier: compiled\n"
    );
    assert_eq!(
        procfs::render_digest(&digest_gpa(&records, 3)),
        "aborted: 0\n\
         evaluator: vectorized\n\
         events: 10428\n\
         events_per_replica: 2670 6460 1298\n\
         fuel_bound: 28\n\
         fuel_per_record: 24.0\n\
         replicas_requested: 3\n\
         replicas_running: 3\n\
         skipped: 0\n\
         tier: compiled\n"
    );

    // A static scaled by its own state cannot be folded: one replica,
    // the scalar VM, and the slot that decided it named with its reason.
    let mut opaque = Gpa::new(GpaConfig::default());
    opaque
        .install_digest(
            "static int acc = 0; acc = acc * 2 + req_bytes; return acc;",
            3,
        )
        .expect("digest verifies");
    opaque.ingest_records(&records);
    assert_eq!(
        procfs::render_digest(&opaque),
        "aborted: 0\n\
         evaluator: scalar (merge plan is not fully shard-safe)\n\
         events: 10428\n\
         events_per_replica: 10428\n\
         fuel_bound: 8\n\
         fuel_per_record: 8.0\n\
         replicas_requested: 3\n\
         replicas_running: 1\n\
         skipped: 0\n\
         tier: compiled\n\
         unmergeable.acc: value stored in the block at pc 0 depends on static state\n"
    );
}
