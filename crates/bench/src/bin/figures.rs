//! Regenerates every table and figure of the SysProf paper's evaluation
//! (§3) and prints paper-style tables. Results are also written as JSON
//! under `results/`.
//!
//! ```text
//! figures [--exp e1|e2|t0|f4|f5|f6|f7|cost|all|wall|node|gpa|calib] [--quick] [--seed N]
//! ```
//!
//! `--quick` shortens run durations ~4× (for CI); default durations match
//! the experiment configs used in EXPERIMENTS.md.
//!
//! `--exp wall` is not a paper artifact and not part of `all`: it times
//! the host, not the model. It is the cluster ledger
//! ([`sysprof_bench::cluster`]) on sysbench's two cluster shapes: the
//! whole run, the scenario's own unmonitored world, three monitor
//! rungs, the run's records through the send half and its batches
//! through the GPA, [`WALL_ROUNDS`] times interleaved; it prints each
//! pass's fastest and median wall time and the rows the fastest passes
//! give, with what they leave unexplained.
//!
//! `--exp node`, `--exp gpa` and `--exp calib` time the host too, and
//! are not in `all` either. `node` is the per-layer ledger of one node's
//! monitor ([`sysprof_bench::node`]): every cut of the pipeline run
//! [`NODE_ROUNDS`] times interleaved, the fastest pass of each in ns per
//! emitted event, and the layer rows that difference gives. `gpa` is the
//! same for the GPA's receive half ([`sysprof_bench::gpa`]) in ns per
//! record, on `gpa_wire`'s shape and then on `gpa_wire_large`'s, with
//! the minor page faults per record of the passes that fill a store
//! (read from `/proc/self/stat`, as the clock is read here).
//! `calib`
//! prints one host-speed figure, the fastest of [`CALIB_ROUNDS`] passes
//! of a fixed integer loop in ns per iteration, which
//! `ci.sh --bench-history` records beside each benchmark line.

use std::io::Write;
use std::time::Instant;

use simcore::SimDuration;
use sysprof_apps::ScenarioSpec;
use sysprof_bench::cluster::{self, ledger_rows, Cluster, Cut};
use sysprof_bench::gpa::Shape;
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
                    "usage: figures [--exp e1|e2|t0|f4|f5|f6|f7|cost|all|wall|node|gpa|calib] [--quick] [--seed N]"
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
        "gpa" => gpa(opts.seed),
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

/// `--exp gpa`'s shapes and the rounds each runs; a round runs every
/// cut once, in the same order.
const GPA_SHAPES: [(Shape, usize); 2] = [(Shape::Wire, 30), (Shape::Large, 12)];

fn gpa(seed: u64) {
    use sysprof_bench::gpa::{ledger_rows, Cut, GpaPipeline, Stream};
    for (shape, rounds) in GPA_SHAPES {
        let stream = Stream::new(seed, shape);
        let records = stream.records();
        let mut best = [f64::MAX; 9];
        let mut faults = [u64::MAX; 9];
        for _ in 0..rounds {
            for (i, cut) in Cut::ALL.into_iter().enumerate() {
                let mut pipeline = GpaPipeline::new(cut, &stream);
                let before = minor_faults();
                let start = Instant::now();
                std::hint::black_box(pipeline.run());
                let ns = start.elapsed().as_nanos() as f64 / records as f64;
                best[i] = best[i].min(ns);
                faults[i] = faults[i].min(minor_faults().saturating_sub(before));
            }
        }
        println!(
            "== gpa: in-process ledger, {shape:?} shape, seed {seed}, {records} records per pass, fastest of {rounds} =="
        );
        for ((cut, ns), faults) in Cut::ALL.iter().zip(best).zip(faults) {
            print!("  pass {:<52} {ns:>7.2} ns/record", format!("{cut:?}"));
            // The store's first touch of fresh pages: the passes that
            // fill one.
            if matches!(cut, Cut::Store | Cut::Whole) {
                print!(
                    "  {:.4} minor faults/record",
                    faults as f64 / records as f64
                );
            }
            println!();
        }
        for (row, ns) in ledger_rows(&best) {
            println!("  row  {row:<52} {ns:>7.2} ns/record");
        }
    }
}

/// This process's minor page faults so far: field 10 of
/// `/proc/self/stat`, or 0 where it cannot be read.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name, field 2, may hold spaces; it ends at the last ')'.
    let fields = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    fields
        .split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
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

/// Rounds of `--exp wall`. Each round runs every cut of both shapes
/// once, in the same order, so a host that changes speed part-way slows
/// every cut alike. Odd, so the median is a single pass.
const WALL_ROUNDS: usize = 15;

/// One shape's passes of `--exp wall`: every cut's times and hits.
struct WallShape<S: ScenarioSpec> {
    name: &'static str,
    cluster: Cluster<S>,
    ns: Vec<Vec<u64>>,
    hits: [u64; 7],
}

impl<S: ScenarioSpec> WallShape<S> {
    fn new(name: &'static str, spec: S, seed: u64) -> WallShape<S> {
        WallShape {
            name,
            cluster: Cluster::new(spec, seed),
            ns: vec![Vec::with_capacity(WALL_ROUNDS); Cut::ALL.len()],
            hits: [0; 7],
        }
    }

    /// Runs every cut once; a finished world is dropped after the clock
    /// stops.
    fn round(&mut self) {
        for (i, cut) in Cut::ALL.into_iter().enumerate() {
            let mut pass = self.cluster.pass(cut);
            let start = Instant::now();
            let done = pass.run();
            self.ns[i].push(start.elapsed().as_nanos() as u64);
            self.hits[i] = done.hits();
        }
    }

    fn print(&mut self) {
        let (records, wakes) = (self.cluster.records(), self.cluster.wakes());
        println!(
            "-- {}: {} hits, {records} interaction records in {wakes} wakes",
            self.name, self.hits[0]
        );
        let mut best = [0f64; 7];
        for (i, times) in self.ns.iter_mut().enumerate() {
            times.sort_unstable();
            let (min, med) = (times[0], times[times.len() / 2]);
            best[i] = min as f64;
            println!(
                "  pass {:<20} {:>9.3} ms min {:>9.3} ms med {:>10} hits",
                format!("{:?}", Cut::ALL[i]),
                min as f64 / 1e6,
                med as f64 / 1e6,
                self.hits[i]
            );
        }
        let whole = best[0] / 1e6;
        for (row, ms) in ledger_rows(&best, &self.hits) {
            println!(
                "  row  {row:<50} {ms:>9.3} ms {:>7.2} %",
                ms / whole * 100.0
            );
        }
        let per_record = |ns: f64| ns / records.max(1) as f64;
        println!(
            "  send side {:.1} ns/record, GPA ingest {:.1} ns/record",
            per_record(best[5]),
            per_record(best[6])
        );
    }
}

/// `--exp wall`: the cluster ledger ([`sysprof_bench::cluster`]) on both
/// of sysbench's cluster shapes, their rounds interleaved.
fn wall(seed: u64) {
    let mut kv = WallShape::new("cluster_kv (kv 1000 ms)", cluster::kv(), seed);
    let mut iperf = WallShape::new("cluster_iperf (gigabit 500 ms)", cluster::iperf(), seed);
    for _ in 0..WALL_ROUNDS {
        kv.round();
        iperf.round();
    }
    println!("== wall: cluster ledger, seed {seed}, {WALL_ROUNDS} rounds interleaved ==");
    kv.print();
    iperf.print();
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
