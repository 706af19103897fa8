//! Measures the per-event hot path (emit → dispatch → E-Code VM → PBIO
//! encode → batch seal) plus E1/E2/F6 end-to-end wall-clock, and writes
//! `BENCH_hotpath.json` at the repo root.
//!
//! ```text
//! hotpath [--smoke] [--events N] [--seed N] [--out PATH]
//! ```
//!
//! `--smoke` shortens everything ~10× for CI (`ci.sh bench-smoke`); the
//! default run is what the committed baseline was produced with. The
//! binary re-reads and validates the JSON it wrote, so a malformed file
//! fails the process (and therefore CI).

use std::io::Write as _;
use std::time::Instant;

use serde::Serialize;
use simcore::SimDuration;
use sysprof_bench::hotpath::{
    compile_digest, cpa_eval_instance, pump_cpa, pump_cpa_reference, pump_digest,
    pump_digest_stream, CpaEventStream, CpaFingerprint, DigestStream, HotPipeline, HotpathCounters,
    BASELINE_CPA_EVENTS_PER_SEC, BASELINE_EVENTS_PER_SEC, CPA_EVAL_SET, CPA_RING_EVENTS,
    DIGEST_GLOBALS,
};
use sysprof_bench::{exp_e1_linpack, exp_e2_iperf, exp_f6_dwcs};

#[derive(Serialize)]
struct EndToEndWallMs {
    e1_linpack: f64,
    e2_iperf: f64,
    f6_dwcs: f64,
}

#[derive(Serialize)]
struct ShardedGpaBench {
    shards: usize,
    records: u64,
    seq_records_per_sec: f64,
    sharded_records_per_sec: f64,
    sharded_vs_seq: f64,
    merged_bit_identical: bool,
}

#[derive(Serialize)]
struct CpaEvalBench {
    /// Events pumped through each program per rep.
    events: u64,
    /// Program names of the representative set, report order.
    programs: Vec<&'static str>,
    /// Aggregate over the set, best of 5 reps.
    compiled_events_per_sec: f64,
    /// Committed reference for `compiled_events_per_sec`.
    baseline_compiled_events_per_sec: f64,
    compiled_vs_baseline: f64,
    /// Every rep's fingerprint (flags, out() fold, fuel, statics)
    /// matched the `run_per_op` reference.
    bit_identical: bool,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    mode: &'static str,
    seed: u64,
    events: u64,
    events_per_sec: f64,
    ns_per_event: f64,
    baseline_events_per_sec: f64,
    speedup_vs_baseline: f64,
    end_to_end_wall_ms: EndToEndWallMs,
    sharded_gpa: ShardedGpaBench,
    cpa_eval: CpaEvalBench,
    counters: HotpathCounters,
}

struct Opts {
    smoke: bool,
    events: Option<u64>,
    seed: u64,
    out: String,
    /// Fail unless `speedup_vs_baseline` reaches this floor.
    min_speedup: Option<f64>,
    /// Fail unless `sharded_gpa.sharded_vs_seq` reaches this floor.
    /// Defaults to 1.5 for full runs (the headline number this repo
    /// gates on); smoke runs gate only when asked.
    min_sharded: Option<f64>,
    /// Fail unless `cpa_eval.compiled_vs_baseline` reaches this floor.
    min_cpa: Option<f64>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        smoke: false,
        events: None,
        seed: 42,
        out: "BENCH_hotpath.json".to_owned(),
        min_speedup: None,
        min_sharded: None,
        min_cpa: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--events" => opts.events = args.next().and_then(|s| s.parse().ok()),
            "--seed" => opts.seed = args.next().and_then(|s| s.parse().ok()).unwrap_or(42),
            "--out" => opts.out = args.next().unwrap_or_else(|| "BENCH_hotpath.json".into()),
            "--min-speedup" => opts.min_speedup = args.next().and_then(|s| s.parse().ok()),
            "--min-sharded" => opts.min_sharded = args.next().and_then(|s| s.parse().ok()),
            "--min-cpa" => opts.min_cpa = args.next().and_then(|s| s.parse().ok()),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: hotpath [--smoke] [--events N] [--seed N] [--out PATH] \
                     [--min-speedup F] [--min-sharded F] [--min-cpa F]"
                );
                std::process::exit(2);
            }
        }
    }
    if opts.min_sharded.is_none() && !opts.smoke {
        opts.min_sharded = Some(1.5);
    }
    opts
}

fn main() {
    let opts = parse_args();
    let events = opts
        .events
        .unwrap_or(if opts.smoke { 400_000 } else { 4_000_000 });

    // Warm up a throwaway pipeline (fills allocator pools, JITs nothing —
    // this is Rust — but stabilizes caches), then measure a fresh one.
    let mut warm = HotPipeline::new();
    warm.pump(events / 10);

    let mut pipe = HotPipeline::new();
    let t0 = Instant::now();
    pipe.pump(events);
    let elapsed = t0.elapsed();
    let counters = pipe.counters();
    let events_per_sec = events as f64 / elapsed.as_secs_f64();
    let ns_per_event = elapsed.as_nanos() as f64 / events as f64;

    println!(
        "hot path: {events} events in {:.3} s -> {:.0} events/sec ({:.1} ns/event)",
        elapsed.as_secs_f64(),
        events_per_sec,
        ns_per_event
    );
    println!(
        "  vs committed baseline {BASELINE_EVENTS_PER_SEC:.0} events/sec: {:.2}x",
        events_per_sec / BASELINE_EVENTS_PER_SEC
    );

    // End-to-end wall-clock: the paper experiments, timed as whole
    // simulations (simulated durations fixed per mode, so the simulated
    // results are seed-deterministic while wall-clock tracks our speed).
    let wall = |label: &str, f: &dyn Fn()| {
        let t = Instant::now();
        f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        println!("  e2e {label}: {ms:.0} ms");
        ms
    };
    let seed = opts.seed;
    let e1_ms = wall("e1_linpack", &|| {
        let _ = exp_e1_linpack(seed);
    });
    let e2_dur = SimDuration::from_millis(if opts.smoke { 200 } else { 2_000 });
    let e2_ms = wall("e2_iperf", &|| {
        let _ = exp_e2_iperf(e2_dur, seed);
    });
    let f6_dur = SimDuration::from_secs(if opts.smoke { 2 } else { 20 });
    let f6_ms = wall("f6_dwcs", &|| {
        let _ = exp_f6_dwcs(f6_dur, seed);
    });

    // Sharded-GPA digest: one pre-generated record stream (flow keys +
    // raw rows) fed to a 1-replica digest and an 8-replica parallel
    // digest plane through the identical `ingest_raw` entry point. Both
    // timed arms end with the merge barrier, so the sharded arm pays
    // its flush + drain + fold inside the measurement. The correctness
    // claim (merged statics bit-identical to sequential) is asserted,
    // not trusted. A cross-check against the full GPA ingest path keeps
    // the direct arms honest about what they feed the digest.
    let digest_records = events / 4;
    let shards = 8usize;
    let stream = DigestStream::generate(digest_records);

    // Warm both engines once (thread spawn, allocator pools) before the
    // timed arms.
    let mut warm = compile_digest(shards);
    pump_digest_stream(&mut warm, &DigestStream::generate(digest_records / 10));
    drop(warm);

    // Best of five timed repetitions per arm: a single ~50 ms sample
    // on a shared box is hostage to scheduler mood, and the fastest rep
    // is the least-perturbed measurement of the engine itself. The arms
    // alternate so slow drift (thermal, co-tenants) lands on both
    // equally. Every rep starts from a fresh engine, and every rep's
    // fold must be bit-identical to the previous ones — repetition for
    // variance must not hide nondeterminism.
    let mut seq_s = f64::INFINITY;
    let mut sharded_s = f64::INFINITY;
    let mut seq_globals: Vec<i64> = Vec::new();
    let mut sharded_globals: Vec<i64> = Vec::new();
    for _ in 0..5 {
        let mut seq_digest = compile_digest(1);
        let t = Instant::now();
        let g = pump_digest_stream(&mut seq_digest, &stream);
        seq_s = seq_s.min(t.elapsed().as_secs_f64());
        assert!(
            seq_globals.is_empty() || seq_globals == g,
            "sequential digest replay diverged"
        );
        seq_globals = g;

        let mut sharded_digest = compile_digest(shards);
        let t = Instant::now();
        let g = pump_digest_stream(&mut sharded_digest, &stream);
        sharded_s = sharded_s.min(t.elapsed().as_secs_f64());
        assert!(
            sharded_globals.is_empty() || sharded_globals == g,
            "sharded digest replay diverged"
        );
        sharded_globals = g;
        let stats = sharded_digest.stats();
        assert!(stats.sharded && stats.shards == shards, "{stats:?}");
        assert_eq!(stats.events, digest_records, "{stats:?}");
    }

    let merged_bit_identical = seq_globals == sharded_globals;
    assert!(
        merged_bit_identical,
        "sharded digest fold diverged from sequential evaluation"
    );

    // Cross-check: the GPA-level ingest path (records through
    // `Gpa::ingest_record`) folds to the same statics the direct arms
    // produced, on a slice of the stream.
    let gpa = pump_digest(shards, digest_records.min(100_000));
    let gpa_seq = pump_digest(1, digest_records.min(100_000));
    for name in DIGEST_GLOBALS {
        assert_eq!(
            gpa.digest_global(name),
            gpa_seq.digest_global(name),
            "GPA ingest path diverged on {name}"
        );
    }

    let sharded_gpa = ShardedGpaBench {
        shards,
        records: digest_records,
        seq_records_per_sec: digest_records as f64 / seq_s,
        sharded_records_per_sec: digest_records as f64 / sharded_s,
        sharded_vs_seq: seq_s / sharded_s,
        merged_bit_identical,
    };
    println!(
        "  sharded gpa: {digest_records} records, seq {:.0}/s vs {shards}-shard {:.0}/s ({:.2}x), merged bit-identical",
        sharded_gpa.seq_records_per_sec, sharded_gpa.sharded_records_per_sec, sharded_gpa.sharded_vs_seq
    );
    if let Some(floor) = opts.min_sharded {
        assert!(
            sharded_gpa.sharded_vs_seq >= floor,
            "sharded digest speedup {:.2}x is below the {floor:.2}x floor",
            sharded_gpa.sharded_vs_seq
        );
    }
    if let Some(floor) = opts.min_speedup {
        assert!(
            events_per_sec / BASELINE_EVENTS_PER_SEC >= floor,
            "hot-path speedup {:.2}x vs baseline is below the {floor:.2}x floor",
            events_per_sec / BASELINE_EVENTS_PER_SEC
        );
    }

    // Compiled-tier CPA evaluation: the representative CPA set over a
    // fixed event window. Instance creation (which includes the jit
    // lowering) and event-row synthesis both stay outside the timer —
    // installs are rare, rows come off the ring pre-formed, runs are
    // the hot path. The window is ring-buffer sized and replayed to
    // cover the event budget: the deployment drains a bounded
    // cache-resident ring in place, and a one-shot multi-hundred-MB
    // array would floor at DRAM bandwidth instead of measuring
    // evaluation. Best of 5 reps; every rep's fingerprint (flags, out()
    // fold, fuel, statics) must match the `run_per_op` reference —
    // repetition for variance must not hide nondeterminism.
    let ring_events = CPA_RING_EVENTS.min(events / 2).max(1);
    let cpa_reps = (events / 2 / ring_events).max(1);
    let cpa_events = ring_events * cpa_reps;
    let cpa_stream = CpaEventStream::generate(0, ring_events);
    let reference: Vec<CpaFingerprint> = CPA_EVAL_SET
        .iter()
        .map(|(_, src)| {
            let (mut inst, fuel) = cpa_eval_instance(src);
            pump_cpa_reference(&mut inst, &cpa_stream, fuel, cpa_reps)
        })
        .collect();
    let run_set = || -> (f64, Vec<CpaFingerprint>) {
        let mut total = 0.0;
        let mut fps = Vec::new();
        for (_, src) in CPA_EVAL_SET {
            let (mut inst, fuel) = cpa_eval_instance(src);
            let t = Instant::now();
            let fp = pump_cpa(&mut inst, &cpa_stream, fuel, cpa_reps);
            total += t.elapsed().as_secs_f64();
            fps.push(fp);
        }
        (total, fps)
    };
    let _ = run_set(); // warm-up
    let mut compiled_s = f64::INFINITY;
    for _ in 0..5 {
        let (cs, cfp) = run_set();
        assert_eq!(
            cfp, reference,
            "compiled tier fingerprint diverged from run_per_op"
        );
        compiled_s = compiled_s.min(cs);
    }
    let set_events = cpa_events * CPA_EVAL_SET.len() as u64;
    let compiled_events_per_sec = set_events as f64 / compiled_s;
    let cpa_eval = CpaEvalBench {
        events: cpa_events,
        programs: CPA_EVAL_SET.iter().map(|(name, _)| *name).collect(),
        compiled_events_per_sec,
        baseline_compiled_events_per_sec: BASELINE_CPA_EVENTS_PER_SEC,
        compiled_vs_baseline: compiled_events_per_sec / BASELINE_CPA_EVENTS_PER_SEC,
        bit_identical: true, // asserted above; a divergence aborts the run
    };
    println!(
        "  cpa eval: {} events x {} programs, compiled {:.0}/s ({:.2}x of baseline {BASELINE_CPA_EVENTS_PER_SEC:.0}/s), bit-identical to run_per_op",
        cpa_eval.events,
        CPA_EVAL_SET.len(),
        cpa_eval.compiled_events_per_sec,
        cpa_eval.compiled_vs_baseline
    );
    if let Some(floor) = opts.min_cpa {
        assert!(
            cpa_eval.compiled_vs_baseline >= floor,
            "compiled-tier CPA eval {:.2}x vs baseline is below the {floor:.2}x floor",
            cpa_eval.compiled_vs_baseline
        );
    }

    let report = BenchReport {
        bench: "hotpath",
        mode: if opts.smoke { "smoke" } else { "full" },
        seed: opts.seed,
        events,
        events_per_sec,
        ns_per_event,
        baseline_events_per_sec: BASELINE_EVENTS_PER_SEC,
        speedup_vs_baseline: events_per_sec / BASELINE_EVENTS_PER_SEC,
        end_to_end_wall_ms: EndToEndWallMs {
            e1_linpack: e1_ms,
            e2_iperf: e2_ms,
            f6_dwcs: f6_ms,
        },
        sharded_gpa,
        cpa_eval,
        counters,
    };
    let pretty = serde_json::to_string_pretty(&report).expect("serializes");
    let mut f = std::fs::File::create(&opts.out).expect("create output file");
    f.write_all(pretty.as_bytes()).expect("write output file");
    f.write_all(b"\n").expect("write output file");
    drop(f);

    // Validate what we wrote: re-read, parse, and check the keys CI (and
    // future PRs comparing against the baseline) depend on.
    let back = std::fs::read_to_string(&opts.out).expect("re-read output file");
    let parsed: serde_json::Value = serde_json::from_str(&back).expect("output file is valid JSON");
    for key in [
        "events_per_sec",
        "baseline_events_per_sec",
        "speedup_vs_baseline",
        "sharded_gpa",
        "cpa_eval",
        "counters",
    ] {
        assert!(
            parsed.get(key).is_some(),
            "{} is missing key {key}",
            opts.out
        );
    }
    println!("wrote {}", opts.out);
}
