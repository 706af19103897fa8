//! One time-boxed run of one workload.
//!
//! Protocol: set the workload up from the seed and run one untimed
//! warm-up repetition, then repeat the workload's fixed work until the
//! time box is spent and report the fastest repetition. The set-up is
//! made several times over (seven; three for the large size class),
//! spread across the time box, because `setup_s` is reported as the
//! median of those set-ups.
//!
//! Fastest, not median: the reference host is a 2-vCPU microVM whose
//! neighbours slow it by 20–40 % for seconds to minutes at a time, and
//! the slowdown is one-sided. Over ten 15-second runs the median
//! repetition rate spread 10–41 % (quartile distance over median) on
//! every workload; the fastest repetition spread 2–10 %. A repetition
//! is short (tens of milliseconds) so that a run holds a few hundred
//! of them and some fall into a quiet moment. What the fastest
//! repetition cannot see — a cost that only some repetitions pay, such
//! as a periodic rehash — shows in the median and the slowest-tenth
//! rate, which the suite table, `--compare` and the traced run report
//! beside it (`work_per_s.median`, `work_per_s.p10`).
//!
//! With tracing on, part of the box goes to untraced repetitions (the
//! base for `trace.overhead_share`), five repetitions are recorded span
//! by span, and the stage-isolated replays fill in the per-layer
//! metrics.

use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::fingerprint::{self, Fingerprint};
use crate::metrics::Contract;
use crate::procfs;
use crate::stats;
use crate::trace::{Clock, Tracer};
use crate::workloads::{self, RepOut, Whole, Workload};

/// Fewest timed repetitions, however short the time box.
const MIN_REPS: usize = 3;
/// Share of a traced run's time box spent on untraced repetitions.
const UNTRACED_SHARE: f64 = 0.4;
/// Repetitions recorded span by span in a traced run.
const TRACED_REPS: usize = 5;
/// Spans preallocated for a traced run.
const SPAN_CAPACITY: usize = 1 << 17;

/// Where the harness finds its files, relative to the repository root.
#[derive(Debug, Clone)]
pub struct Paths {
    /// `BENCHMARK.json`.
    pub contract: PathBuf,
    /// Directory of reference fingerprints.
    pub expected: PathBuf,
    /// Directory results and traces are written to (git-ignored).
    pub results: PathBuf,
}

impl Paths {
    /// The layout under `root` (the repository root).
    pub fn under(root: &Path) -> Paths {
        Paths {
            contract: root.join("BENCHMARK.json"),
            expected: root.join("benchmark/expected"),
            results: root.join("benchmark/results"),
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Time box, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or end-to-end run.
    pub trace: bool,
    /// Small sizes.
    pub quick: bool,
    /// Rewrite the reference fingerprint.
    pub bless: bool,
}

/// Everything one run measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// What a unit of work is: hits, events, records, passes, installs.
    pub work_unit: String,
    /// Units of work per second, one sample per untraced repetition.
    pub work_per_s: Vec<f64>,
    /// Seconds per set-up (input generation + prefill + warm-up).
    pub setup_s: Vec<f64>,
    /// `VmHWM` after the first set-up and warm-up repetition, MB: what
    /// a fresh process needs to run the workload once. Read that early
    /// because glibc raises its mmap threshold after the first large
    /// free, and from then on the high-water mark depends on where
    /// later worlds happen to land in the heap (15 or 21 MB for the
    /// same kv world, run to run).
    pub peak_rss_mb: f64,
    /// Operations attempted across the timed repetitions.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Fingerprint matched its reference and every invariant held.
    pub correct: bool,
    /// Differing fingerprint keys and broken invariants.
    pub problems: Vec<String>,
    /// Exact figures and layer counters of the last repetition.
    pub counts: Vec<(String, f64)>,
    /// Per-layer metrics (traced runs only), contract order.
    pub per_layer: Vec<(String, f64)>,
}

impl RunResult {
    /// The value of one end-to-end metric of the contract:
    /// `work_per_s` is the fastest repetition's rate (see the module
    /// documentation), `setup_s` the median set-up.
    pub fn end_to_end(&self, name: &str) -> Option<f64> {
        match name {
            "work_per_s" => Some(self.work_per_s.iter().copied().fold(0.0, f64::max)),
            "setup_s" => Some(stats::median(&self.setup_s)),
            "peak_rss_mb" => Some(self.peak_rss_mb),
            _ => None,
        }
    }

    /// The median repetition's rate: moves when most repetitions slow
    /// down, whether or not the best one does.
    pub fn median_rate(&self) -> f64 {
        stats::median(&self.work_per_s)
    }

    /// The rate the slowest tenth of the repetitions stayed below:
    /// moves when a few repetitions pay for something the rest do not.
    pub fn p10_rate(&self) -> f64 {
        stats::percentile(&self.work_per_s, 10.0)
    }

    /// The detailed result file a suite round reads back.
    pub fn to_json(&self) -> Value {
        let floats = |v: &[f64]| Value::Array(v.iter().map(|x| Value::F64(*x)).collect());
        let pairs = |v: &[(String, f64)]| {
            Value::Object(v.iter().map(|(k, x)| (k.clone(), Value::F64(*x))).collect())
        };
        Value::Object(vec![
            ("workload".into(), Value::String(self.workload.clone())),
            ("work_unit".into(), Value::String(self.work_unit.clone())),
            ("work_per_s".into(), floats(&self.work_per_s)),
            ("setup_s".into(), floats(&self.setup_s)),
            ("peak_rss_mb".into(), Value::F64(self.peak_rss_mb)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("correct".into(), Value::Bool(self.correct)),
            (
                "problems".into(),
                Value::Array(self.problems.iter().cloned().map(Value::String).collect()),
            ),
            ("counts".into(), pairs(&self.counts)),
            ("per_layer".into(), pairs(&self.per_layer)),
        ])
    }

    /// Parses [`to_json`](RunResult::to_json) output.
    pub fn from_json(v: &Value) -> Option<RunResult> {
        let floats = |key: &str| -> Option<Vec<f64>> {
            v.get(key)?.as_array()?.iter().map(Value::as_f64).collect()
        };
        let pairs = |key: &str| -> Option<Vec<(String, f64)>> {
            match v.get(key)? {
                Value::Object(entries) => entries
                    .iter()
                    .map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                    .collect(),
                _ => None,
            }
        };
        Some(RunResult {
            workload: v.get("workload")?.as_str()?.to_owned(),
            work_unit: v.get("work_unit")?.as_str()?.to_owned(),
            work_per_s: floats("work_per_s")?,
            setup_s: floats("setup_s")?,
            peak_rss_mb: v.get("peak_rss_mb")?.as_f64()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            correct: matches!(v.get("correct")?, Value::Bool(true)),
            problems: v
                .get("problems")?
                .as_array()?
                .iter()
                .filter_map(|p| p.as_str().map(str::to_owned))
                .collect(),
            counts: pairs("counts")?,
            per_layer: pairs("per_layer")?,
        })
    }

    /// The one-line result the benchmark driver reads: `correct`,
    /// `attempted`, `failed` and the metrics of the run's kind.
    pub fn driver_line(&self, contract: &Contract, trace: bool) -> String {
        let metric = |name: &str, unit: &str, value: f64| {
            (
                name.to_owned(),
                Value::Object(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::String(unit.to_owned())),
                ]),
            )
        };
        let metrics = if trace {
            self.per_layer
                .iter()
                .filter_map(|(name, v)| Some(metric(name, &contract.per_layer(name)?.unit, *v)))
                .collect()
        } else {
            contract
                .end_to_end
                .iter()
                .map(|m| metric(&m.name, &m.unit, self.end_to_end(&m.name).unwrap_or(0.0)))
                .collect()
        };
        serde_json::to_string(&Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]))
        .expect("result serializes")
    }
}

fn seconds_since(tr: &Tracer, t0: u64) -> f64 {
    tr.now().saturating_sub(t0) as f64 / 1e9
}

/// Checks one repetition against the run's first: same seed, same
/// work, so every fingerprint must be the same.
fn note(rep: &RepOut, first: &mut Option<Fingerprint>, problems: &mut Vec<String>) {
    for v in &rep.violations {
        if !problems.contains(v) {
            problems.push(v.clone());
        }
    }
    match first {
        None => *first = Some(rep.fingerprint.clone()),
        Some(f) => {
            for d in rep.fingerprint.diff(f) {
                let d = format!("repetitions disagree: {d}");
                if !problems.contains(&d) {
                    problems.push(d);
                }
            }
        }
    }
}

/// Runs one workload as configured. `Err` is a usage or I/O failure;
/// a wrong output is `Ok` with `correct == false`.
pub fn run(
    cfg: &RunConfig,
    paths: &Paths,
    contract: &Contract,
    clock: Clock,
) -> Result<RunResult, String> {
    if !contract.workloads.contains(&cfg.workload) {
        return Err(format!(
            "unknown workload {:?}; the contract names {}",
            cfg.workload,
            contract.workloads.join(", ")
        ));
    }
    let mut tr = Tracer::new(clock, if cfg.trace { SPAN_CAPACITY } else { 0 });
    let mut first: Option<Fingerprint> = None;
    let mut problems = Vec::new();

    // One set-up: build from the seed, one untimed warm-up repetition.
    let mut setup_s = Vec::new();
    let mut set_up = |tr: &mut Tracer| -> Result<(Box<dyn Workload>, RepOut), String> {
        let t0 = tr.now();
        let mut w = workloads::build(&cfg.workload, cfg.seed, cfg.quick)
            .ok_or_else(|| format!("workload {:?} is not implemented", cfg.workload))?;
        let warm = w.rep(tr);
        setup_s.push(seconds_since(tr, t0));
        Ok((w, warm))
    };
    let (mut w, warm) = set_up(&mut tr)?;
    note(&warm, &mut first, &mut problems);
    let peak_rss_mb = procfs::peak_rss_mb();
    let wanted_setups = w.setups();
    let work_unit = w.unit().to_owned();

    // Timed repetitions, tracing off. The remaining set-ups are spread
    // evenly over the time box (the workload is dropped and built
    // again), so their median samples the host at several moments
    // instead of one half-second at the start.
    let budget = if cfg.trace {
        cfg.seconds * UNTRACED_SHARE
    } else {
        cfg.seconds
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut work_per_s = Vec::new();
    let mut fastest_wall = u64::MAX;
    let mut setups = 1;
    let t0 = tr.now();
    let mut last;
    loop {
        let rep = w.rep(&mut tr);
        note(&rep, &mut first, &mut problems);
        attempted += rep.attempted;
        failed += rep.failed;
        work_per_s.push(rep.units as f64 / (rep.wall_ns.max(1) as f64 / 1e9));
        fastest_wall = fastest_wall.min(rep.wall_ns);
        last = rep;
        let elapsed = seconds_since(&tr, t0);
        if setups < wanted_setups && elapsed >= budget * setups as f64 / wanted_setups as f64 {
            // Dropped before the next is built: peak memory must not
            // depend on how many set-ups a run makes.
            drop(w);
            let warm;
            (w, warm) = set_up(&mut tr)?;
            note(&warm, &mut first, &mut problems);
            setups += 1;
        } else if setups == wanted_setups && work_per_s.len() >= MIN_REPS && elapsed >= budget {
            break;
        }
    }

    // Traced repetition and the stage-isolated replays.
    let mut per_layer = Vec::new();
    if cfg.trace {
        tr.set_recording(true);
        let mut traced_wall = u64::MAX;
        let mut traced = None;
        for k in 0..TRACED_REPS {
            tr.set_rep((work_per_s.len() + k) as u32);
            let rep = w.rep(&mut tr);
            note(&rep, &mut first, &mut problems);
            attempted += rep.attempted;
            failed += rep.failed;
            traced_wall = traced_wall.min(rep.wall_ns);
            traced = Some(rep);
        }
        let traced = traced.expect("at least one traced repetition");
        // Fastest against fastest, like the end-to-end metric.
        let whole = Whole {
            wall_ns: fastest_wall as f64,
        };
        let mut reported: Vec<(&'static str, f64)> = traced.counts.clone();
        reported.extend(w.layers(&mut tr, whole, &traced));
        tr.set_recording(false);
        reported.push((
            "trace.overhead_share",
            traced_wall as f64 / whole.wall_ns.max(1.0) - 1.0,
        ));
        reported.push(("work_per_s.median", stats::median(&work_per_s)));
        reported.push(("work_per_s.p10", stats::percentile(&work_per_s, 10.0)));
        reported.push(("harness.cpu_s", procfs::cpu_seconds()));
        for (name, _) in &reported {
            if contract.per_layer(name).is_none() {
                return Err(format!("{name} is not a per-layer metric of the contract"));
            }
        }
        // Every per-layer metric of the contract, in its order; a layer
        // this workload does not exercise reads 0.
        per_layer = contract
            .per_layer
            .iter()
            .map(|m| {
                let v = reported.iter().rev().find(|(n, _)| *n == m.name);
                (m.name.clone(), v.map_or(0.0, |(_, v)| *v))
            })
            .collect();
        last = traced;

        std::fs::create_dir_all(&paths.results).map_err(|e| e.to_string())?;
        let file = paths.results.join(format!("{}.trace.json", cfg.workload));
        let text = serde_json::to_string(&tr.to_json(&cfg.workload)).expect("trace serializes");
        std::fs::write(&file, text).map_err(|e| format!("{}: {e}", file.display()))?;
    }

    // Reference fingerprint: seeds 7 and 11 have one; other seeds are
    // checked against the invariants only.
    let fp = first.expect("at least one repetition ran");
    let expected = fingerprint::expected_path(&paths.expected, &cfg.workload, cfg.quick, cfg.seed);
    if cfg.bless {
        fingerprint::write_expected(&expected, &fp).map_err(|e| e.to_string())?;
    } else if let Some(reference) = fingerprint::load_expected(&expected) {
        problems.extend(fp.diff(&reference));
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }

    Ok(RunResult {
        workload: cfg.workload.clone(),
        work_unit,
        work_per_s,
        setup_s,
        peak_rss_mb,
        attempted,
        failed,
        correct: problems.is_empty(),
        problems,
        counts: last
            .counts
            .iter()
            .map(|(k, v)| ((*k).to_owned(), *v))
            .collect(),
        per_layer,
    })
}
