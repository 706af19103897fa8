//! Regenerates every table and figure of the SysProf paper's evaluation
//! (§3) and prints paper-style tables. Results are also written as JSON
//! under `results/`.
//!
//! ```text
//! figures [--exp e1|e2|t0|f4|f5|f6|f7|cost|all|wall|node|calib] [--quick] [--seed N]
//! ```
//!
//! `--quick` shortens run durations ~4× (for CI); default durations match
//! the experiment configs used in EXPERIMENTS.md.
//!
//! `--exp wall` is not a paper artifact and not part of `all`: it times
//! the host, not the model. It runs sysbench's two cluster shapes,
//! monitored and unmonitored, [`WALL_ROUNDS`] times interleaved, and
//! prints each one's minimum, lower quartile and median wall time with
//! the hit rates they give: an in-process best-of for an effect the
//! host's process-to-process noise hides.
//!
//! `--exp node` and `--exp calib` time the host too, and are not in
//! `all` either. `node` is the per-layer ledger of one node's monitor
//! ([`sysprof_bench::node`]): every cut of the pipeline run
//! [`NODE_ROUNDS`] times interleaved, the fastest pass of each in ns per
//! emitted event, and the layer rows that difference gives. `calib`
//! prints one host-speed figure, the fastest of [`CALIB_ROUNDS`] passes
//! of a fixed integer loop in ns per iteration, which
//! `ci.sh --bench-history` records beside each benchmark line.

use std::io::Write;
use std::time::Instant;

use simcore::{NodeId, SimDuration};
use simnet::LinkSpec;
use simos::World;
use sysprof_apps::{IperfScenario, KvStoreScenario, ScenarioSpec};
use sysprof_bench::*;

struct Opts {
    exp: String,
    quick: bool,
    seed: u64,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        exp: "all".to_owned(),
        quick: false,
        seed: 42,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--exp" => opts.exp = args.next().unwrap_or_else(|| "all".into()),
            "--quick" => opts.quick = true,
            "--seed" => opts.seed = args.next().and_then(|s| s.parse().ok()).unwrap_or(42),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: figures [--exp e1|e2|t0|f4|f5|f6|f7|cost|all|wall|node|calib] [--quick] [--seed N]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

fn save_json(name: &str, value: &impl serde::Serialize) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = f.write_all(
            serde_json::to_string_pretty(value)
                .expect("serializes")
                .as_bytes(),
        );
        println!("  -> wrote {}", path.display());
    }
}

fn main() {
    let opts = parse_args();
    let q = |full_s: u64, quick_s: u64| {
        SimDuration::from_secs(if opts.quick { quick_s } else { full_s })
    };
    let want = |id: &str| opts.exp == "all" || opts.exp == id || (id == "f4" && opts.exp == "f5");

    if want("e1") {
        println!("== E1: linpack microbenchmark (§3.1) ==");
        println!("paper: no change in MFLOPS with SysProf enabled");
        let r = exp_e1_linpack(opts.seed);
        println!(
            "  SysProf off: {:>8.1} MFLOPS   (events on node: {})",
            r.off.mflops, r.off.events_generated
        );
        println!(
            "  SysProf on : {:>8.1} MFLOPS   (events on node: {}, overhead {:.3}%)",
            r.on.mflops,
            r.on.events_generated,
            r.on.overhead_fraction * 100.0
        );
        println!(
            "  change: {:+.3}%",
            (r.on.mflops / r.off.mflops - 1.0) * 100.0
        );
        save_json("e1_linpack", &r);
        println!();
    }

    if want("e2") {
        println!("== E2: Iperf bandwidth microbenchmark (§3.1) ==");
        println!("paper: 1 Gbps 930 -> 810 Mbps (~13%); 100 Mbps: ~3%");
        let r = exp_e2_iperf(q(10, 2), opts.seed);
        println!(
            "  1 Gbps  : off {:>6.1} Mbps  on {:>6.1} Mbps  overhead {:>5.1}%  (receiver cpu {:.0}%, monitoring traffic {} B)",
            r.gigabit_off.goodput_mbps,
            r.gigabit_on.goodput_mbps,
            r.gigabit_overhead() * 100.0,
            r.gigabit_off.receiver_cpu_utilization * 100.0,
            r.gigabit_on.monitor_bytes_sent
        );
        println!(
            "  100 Mbps: off {:>6.1} Mbps  on {:>6.1} Mbps  overhead {:>5.1}%",
            r.fast_ethernet_off.goodput_mbps,
            r.fast_ethernet_on.goodput_mbps,
            r.fast_ethernet_overhead() * 100.0
        );
        save_json("e2_iperf", &r);
        println!();
    }

    if want("t0") {
        println!("== T0: monitoring-granularity sweep (§3.1 '<1% … >10%') ==");
        let rows = exp_t0_granularity(q(5, 2), opts.seed);
        println!(
            "  {:<18} {:>10} {:>10} {:>12}",
            "level", "Mbps", "overhead", "events"
        );
        for row in &rows {
            println!(
                "  {:<18} {:>10.1} {:>9.2}% {:>12}",
                row.level,
                row.goodput_mbps,
                row.overhead_fraction * 100.0,
                row.events
            );
        }
        save_json("t0_granularity", &rows);
        println!();
    }

    if want("f4") || want("f5") {
        println!("== Figures 4 & 5: virtual storage service (§3.2) ==");
        println!(
            "paper: proxy user flat, proxy kernel grows; back-end kernel >10x proxy; RTT < 0.3 ms"
        );
        let rows = exp_f4_f5_storage(q(20, 5), opts.seed);
        println!(
            "  {:>7} | {:>14} {:>16} | {:>18} | {:>8} {:>9}",
            "threads", "proxy user ms", "proxy kernel ms", "backend kernel ms", "reqs", "rtt ms"
        );
        for row in &rows {
            let r = &row.result;
            println!(
                "  {:>7} | {:>14.3} {:>16.3} | {:>18.2} | {:>8} {:>9.3}",
                row.threads,
                r.proxy_user_ms,
                r.proxy_kernel_ms,
                r.backend_kernel_ms,
                r.requests_completed,
                r.network_rtt_ms
            );
        }
        save_json("f4_f5_storage", &rows);
        println!();
    }

    if want("f6") {
        println!("== Figure 6: plain DWCS on RUBiS (§3.3) ==");
        println!("paper: bidding avg 145/s, comment avg 134/s of 150/s offered; degradation after mid-run load");
        let r = exp_f6_dwcs(q(60, 20), opts.seed);
        print_rubis("plain DWCS", &r);
        save_json("f6_dwcs", &r);
        println!();
    }

    if want("f7") {
        println!("== Figure 7: RA-DWCS on RUBiS (§3.3) ==");
        println!("paper: bidding class nearly unaffected; >14% aggregate gain over plain DWCS");
        let plain = exp_f6_dwcs(q(60, 20), opts.seed);
        let ra = exp_f7_ra_dwcs(q(60, 20), opts.seed);
        print_rubis("plain DWCS", &plain);
        print_rubis("RA-DWCS", &ra);
        println!(
            "  aggregate gain: {:+.1}%  (plain {:.1} -> RA {:.1} responses/s)",
            (ra.total_rps / plain.total_rps - 1.0) * 100.0,
            plain.total_rps,
            ra.total_rps
        );
        println!(
            "  SysProf overhead on servlet servers: {:.2}%",
            ra.server_overhead_fraction * 100.0
        );
        save_json("f7_ra_dwcs", &ra);
        println!();
    }

    if want("cost") {
        println!("== Monitoring cost on RUBiS (§3.3 '<2%') ==");
        let (off, on) = exp_monitoring_cost_on_rubis(q(60, 20), opts.seed);
        println!(
            "  unmonitored total: {:.1}/s   monitored total: {:.1}/s   decrease {:.2}%",
            off.total_rps,
            on.total_rps,
            (1.0 - on.total_rps / off.total_rps) * 100.0
        );
        println!(
            "  monitoring CPU on servers: {:.2}%",
            on.server_overhead_fraction * 100.0
        );
        save_json("cost_rubis", &(off, on));
        println!();
    }

    match opts.exp.as_str() {
        "wall" => wall(opts.seed),
        "node" => node(opts.seed),
        "calib" => println!("calib_ns_per_iter {:.4}", calib()),
        _ => {}
    }
}

/// Rounds of `--exp node`; each runs every cut once, in the same order.
const NODE_ROUNDS: usize = 30;

fn node(seed: u64) {
    use sysprof_bench::node::{event_ring, ledger_rows, Cut, NodePipeline, NODE_EVENTS};
    let ring = event_ring(seed);
    let events = NODE_EVENTS - NODE_EVENTS % ring.len() as u64;
    let mut best = [f64::MAX; 8];
    for _ in 0..NODE_ROUNDS {
        for (i, cut) in Cut::ALL.into_iter().enumerate() {
            let mut pipeline = NodePipeline::new(cut);
            let start = Instant::now();
            std::hint::black_box(pipeline.run(&ring, events));
            let ns = start.elapsed().as_nanos() as f64 / events as f64;
            best[i] = best[i].min(ns);
        }
    }
    println!(
        "== node: in-process ledger, seed {seed}, {events} events per pass, fastest of {NODE_ROUNDS} =="
    );
    for (cut, ns) in Cut::ALL.iter().zip(best) {
        println!("  pass {:<48} {ns:>7.2} ns/event", format!("{cut:?}"));
    }
    for (row, ns) in ledger_rows(&best) {
        println!("  row  {row:<48} {ns:>7.2} ns/event");
    }
}

/// Passes of `--exp calib`.
const CALIB_ROUNDS: usize = 21;
/// Iterations of one calibration pass.
const CALIB_ITERS: u64 = 20_000_000;

/// The fastest pass of a fixed, latency-bound integer loop, in ns per
/// iteration: a figure of the host's speed at the time, not of the code.
fn calib() -> f64 {
    let mut best = f64::MAX;
    for _ in 0..CALIB_ROUNDS {
        let start = Instant::now();
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..std::hint::black_box(CALIB_ITERS) {
            x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
        }
        std::hint::black_box(x);
        best = best.min(start.elapsed().as_nanos() as f64 / CALIB_ITERS as f64);
    }
    best
}

/// Rounds of `--exp wall`. Each round runs every case once, in the same
/// order, so a host that changes speed part-way slows every case alike.
/// Odd, so the median and the lower quartile are single runs.
const WALL_ROUNDS: usize = 21;

/// Instrumentation-point hits in a finished world: every hook call,
/// suppressed or not, on every node (sysbench's cluster unit).
fn hits(world: &World) -> u64 {
    (0..world.node_count())
        .map(|n| {
            let s = world.kprof(NodeId(n as u32)).stats();
            s.events_generated + s.events_suppressed
        })
        .sum()
}

/// One case of `--exp wall`: a scenario run monitored (the default
/// deployment, as sysbench runs it) or unmonitored. Returns the wall
/// time of the run in ns and its hits; the finished world is dropped
/// after the clock stops.
fn timed<S: ScenarioSpec>(spec: &S, seed: u64, monitored: bool) -> (u64, u64) {
    let start = Instant::now();
    if monitored {
        let run = spec.run(seed);
        let ns = start.elapsed().as_nanos() as u64;
        (ns, hits(&run.world))
    } else {
        let (world, _) = spec.run_unmonitored(seed);
        let ns = start.elapsed().as_nanos() as u64;
        (ns, hits(&world))
    }
}

fn wall(seed: u64) {
    let kv = KvStoreScenario {
        duration: SimDuration::from_millis(1_000),
    };
    let iperf = IperfScenario {
        link: LinkSpec::gigabit_lan(),
        duration: SimDuration::from_millis(500),
    };
    let cases = [
        "cluster_kv (kv 1000 ms)",
        "  unmonitored",
        "cluster_iperf (gigabit 500 ms)",
        "  unmonitored",
    ];
    let mut ns = vec![Vec::with_capacity(WALL_ROUNDS); cases.len()];
    let mut hit_counts = [0u64; 4];
    for _ in 0..WALL_ROUNDS {
        let runs = [
            timed(&kv, seed, true),
            timed(&kv, seed, false),
            timed(&iperf, seed, true),
            timed(&iperf, seed, false),
        ];
        for (i, (t, h)) in runs.into_iter().enumerate() {
            ns[i].push(t);
            hit_counts[i] = h;
        }
    }
    println!("== wall: in-process best-of, seed {seed}, {WALL_ROUNDS} rounds interleaved ==");
    println!(
        "  {:<32} {:>10} {:>8} {:>8} {:>8} {:>12} {:>12}",
        "case", "hits", "min ms", "q1 ms", "med ms", "M hits/s@min", "M hits/s@med"
    );
    for ((name, times), hits) in cases.iter().zip(&mut ns).zip(hit_counts) {
        times.sort_unstable();
        let (min, q1, med) = (times[0], times[WALL_ROUNDS / 4], times[WALL_ROUNDS / 2]);
        let ms = |t: u64| t as f64 / 1e6;
        let rate = |t: u64| hits as f64 / t as f64 * 1e3;
        println!(
            "  {:<32} {:>10} {:>8.2} {:>8.2} {:>8.2} {:>12.2} {:>12.2}",
            name,
            hits,
            ms(min),
            ms(q1),
            ms(med),
            rate(min),
            rate(med)
        );
    }
}

fn print_rubis(name: &str, r: &sysprof_apps::RubisResult) {
    println!(
        "  {:<11} bidding: {:>5.1}/s avg ({:>5.1} before, {:>5.1} after disturbance, {} dropped)",
        name, r.bid.mean_rps, r.bid.first_half_rps, r.bid.second_half_rps, r.bid.dropped
    );
    println!(
        "  {:<11} comment: {:>5.1}/s avg ({:>5.1} before, {:>5.1} after disturbance, {} dropped)",
        "",
        r.comment.mean_rps,
        r.comment.first_half_rps,
        r.comment.second_half_rps,
        r.comment.dropped
    );
}
