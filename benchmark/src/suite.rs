//! The whole suite in one command: every workload in its own process,
//! in interleaved rounds, pooled and printed by name — plus the
//! comparison of two such result sets under the contract's bounds.
//!
//! Rounds interleave the workloads instead of running one workload's
//! runs back to back: the 2-processor reference host slows down by
//! 20–40 % for seconds to minutes at a time, so neighbouring-in-time
//! samples are not independent. A sample is one run's figure (its
//! fastest repetition, its median set-up), the same figure the
//! benchmark driver reads. Metrics go by their `BENCHMARK.json` names;
//! `work_per_s` is printed with the workload's unit of work, and its
//! median and slowest-tenth repetition rates (`work_per_s.median`,
//! `work_per_s.p10`) stand beside the fastest one under the same bound.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

use crate::metrics::Contract;
use crate::procfs;
use crate::runner::{Paths, RunResult};
use crate::stats::{self, Summary};

/// Rounds per suite run: one sample per workload and round.
const ROUNDS: usize = 5;
/// Time box of one workload's run within a round, seconds (full size).
const ROUND_SECONDS: f64 = 3.0;

/// What the suite should do.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Input seed.
    pub seed: u64,
    /// Small sizes, a handful of repetitions per round.
    pub quick: bool,
    /// Add one traced run per workload.
    pub trace: bool,
    /// Rewrite the reference fingerprints.
    pub bless: bool,
    /// Run only this workload.
    pub only: Option<String>,
}

/// Exact, seed-determined figures shown beside the timed metrics.
const EXACT: [(&str, &str); 2] = [
    ("sim_overhead_pct", "%"),
    ("wire_bytes_per_record", "bytes"),
];

fn summary_json(unit: &str, higher: bool, bound: f64, s: &Summary) -> Value {
    Value::Object(vec![
        ("unit".into(), Value::String(unit.into())),
        (
            "better".into(),
            Value::String(if higher { "higher" } else { "lower" }.into()),
        ),
        ("bound".into(), Value::F64(bound)),
        ("n".into(), Value::U64(s.n as u64)),
        ("min".into(), Value::F64(s.min)),
        ("q1".into(), Value::F64(s.q1)),
        ("median".into(), Value::F64(s.median)),
        ("q3".into(), Value::F64(s.q3)),
        ("max".into(), Value::F64(s.max)),
    ])
}

fn child(
    exe: &Path,
    root: &Path,
    cfg: &SuiteConfig,
    workload: &str,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<RunResult, String> {
    let mut cmd = Command::new(exe);
    cmd.current_dir(root)
        .arg("--workload")
        .arg(workload)
        .arg("--seed")
        .arg(cfg.seed.to_string())
        .arg("--seconds")
        .arg(seconds.to_string())
        .arg("--trace")
        .arg(if trace { "1" } else { "0" })
        .arg("--out")
        .arg(out);
    if cfg.quick {
        cmd.arg("--quick");
    }
    if cfg.bless {
        cmd.arg("--bless");
    }
    // A result left by an earlier invocation must never stand in for
    // this run's: remove it first, and accept only a run that ended by
    // itself with 0 (correct) or 1 (wrong output, which it reports).
    match std::fs::remove_file(out) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("{}: {e}", out.display()));
        }
        _ => {}
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let failure = |what: &str| {
        format!(
            "{workload}: run {what} ({}):\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    };
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(failure("crashed"));
    }
    let text = std::fs::read_to_string(out).map_err(|_| failure("left no result"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", out.display()))?;
    RunResult::from_json(&v).ok_or_else(|| format!("{}: not a run result", out.display()))
}

/// Runs the suite and writes `benchmark/results/sysbench.<tag>.json`.
/// Returns that path and whether every output was correct.
pub fn run_suite(
    cfg: &SuiteConfig,
    root: &Path,
    exe: &Path,
    tag: &str,
) -> Result<(PathBuf, bool), String> {
    let paths = Paths::under(root);
    let contract = Contract::load(&paths.contract)?;
    let names: Vec<String> = match &cfg.only {
        Some(w) if contract.workloads.contains(w) => vec![w.clone()],
        Some(w) => return Err(format!("unknown workload {w:?}")),
        None => contract.workloads.clone(),
    };
    let scratch = paths.results.join("rounds");
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let seconds = if cfg.quick { 0.0 } else { ROUND_SECONDS };

    let mut pooled: BTreeMap<String, Vec<RunResult>> = BTreeMap::new();
    for round in 0..ROUNDS {
        for w in &names {
            eprintln!("round {}/{ROUNDS}: {w}", round + 1);
            let out = scratch.join(format!("{w}.{tag}.r{round}.json"));
            pooled
                .entry(w.clone())
                .or_default()
                .push(child(exe, root, cfg, w, seconds, false, &out)?);
        }
    }
    let mut traced: BTreeMap<String, RunResult> = BTreeMap::new();
    if cfg.trace {
        for w in &names {
            eprintln!("traced run: {w}");
            let out = scratch.join(format!("{w}.{tag}.trace.json"));
            traced.insert(w.clone(), child(exe, root, cfg, w, seconds, true, &out)?);
        }
    }

    let mut all_correct = true;
    let mut report = Vec::new();
    println!(
        "sysbench: seed {}, {} size, nproc {}",
        cfg.seed,
        if cfg.quick { "quick" } else { "full" },
        procfs::nproc()
    );
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>14} {:>14} {:>4}  unit",
        "workload", "metric", "median", "q1", "q3", "min", "n"
    );
    for w in &names {
        let runs = &pooled[w];
        let work_unit = format!("{}/s", runs[0].work_unit);
        let figure =
            |name: &str| -> Vec<f64> { runs.iter().filter_map(|r| r.end_to_end(name)).collect() };
        let medians: Vec<f64> = runs.iter().map(RunResult::median_rate).collect();
        let p10s: Vec<f64> = runs.iter().map(RunResult::p10_rate).collect();
        // (name, unit, contract metric whose direction and bound apply, samples)
        let rows = [
            (
                "work_per_s",
                work_unit.as_str(),
                "work_per_s",
                figure("work_per_s"),
            ),
            (
                "work_per_s.median",
                work_unit.as_str(),
                "work_per_s",
                medians,
            ),
            ("work_per_s.p10", work_unit.as_str(), "work_per_s", p10s),
            ("setup_s", "s", "setup_s", figure("setup_s")),
            ("peak_rss_mb", "MB", "peak_rss_mb", figure("peak_rss_mb")),
        ];
        let mut metrics = Vec::new();
        for (name, unit, contract_metric, samples) in &rows {
            let def = contract
                .end_to_end(contract_metric)
                .ok_or_else(|| format!("{contract_metric} is not in the contract"))?;
            let s = stats::summarize(samples);
            println!(
                "{w:<16} {name:<24} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>4}  {unit}",
                s.median, s.q1, s.q3, s.min, s.n
            );
            metrics.push((
                (*name).to_owned(),
                summary_json(unit, def.higher_is_better, def.bound.unwrap_or(0.0), &s),
            ));
        }

        // Exact figures: equal in every round, or it is a defect.
        let mut problems: Vec<String> = runs.iter().flat_map(|r| r.problems.clone()).collect();
        let mut exact = Vec::new();
        for (name, unit) in EXACT {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            let Some(&first) = values.first() else {
                continue;
            };
            if values.iter().any(|v| v.to_bits() != first.to_bits()) {
                problems.push(format!("{name} differs between rounds: {values:?}"));
            }
            println!(
                "{w:<16} {name:<24} {first:>14.6} {:>61}  {unit} (exact)",
                ""
            );
            exact.push((name.to_owned(), Value::F64(first)));
        }
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let failed_share = failed as f64 / attempted.max(1) as f64;
        println!(
            "{w:<16} {:<24} {failed_share:>14.6} {:>61}  share (exact, {failed}/{attempted})",
            "failed_ops_share", ""
        );
        exact.push(("failed_ops_share".to_owned(), Value::F64(failed_share)));

        problems.sort();
        problems.dedup();
        let correct = runs.iter().all(|r| r.correct) && problems.is_empty();
        all_correct &= correct;
        for p in &problems {
            println!("{w:<16} MISMATCH {p}");
        }
        let mut entry = vec![
            ("metrics".to_owned(), Value::Object(metrics)),
            ("exact".to_owned(), Value::Object(exact)),
            ("correct".to_owned(), Value::Bool(correct)),
            (
                "problems".to_owned(),
                Value::Array(problems.into_iter().map(Value::String).collect()),
            ),
        ];
        if let Some(t) = traced.get(w) {
            all_correct &= t.correct;
            println!("{w:<16} per-layer (traced run; 0 = layer not exercised here):");
            for (name, v) in t.per_layer.iter().filter(|(_, v)| *v != 0.0) {
                let unit = contract.per_layer(name).map_or("", |m| m.unit.as_str());
                println!("{w:<16}   {name:<44} {v:>16.4}  {unit}");
            }
            entry.push((
                "per_layer".to_owned(),
                Value::Object(
                    t.per_layer
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::F64(*v)))
                        .collect(),
                ),
            ));
        }
        report.push((w.clone(), Value::Object(entry)));
    }

    let file = paths.results.join(format!("sysbench.{tag}.json"));
    let doc = Value::Object(vec![
        ("bench".into(), Value::String("sysbench".into())),
        ("seed".into(), Value::U64(cfg.seed)),
        (
            "size".into(),
            Value::String(if cfg.quick { "quick" } else { "full" }.into()),
        ),
        ("nproc".into(), Value::U64(procfs::nproc() as u64)),
        ("rounds".into(), Value::U64(ROUNDS as u64)),
        ("all_correct".into(), Value::Bool(all_correct)),
        ("workloads".into(), Value::Object(report)),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("report serializes");
    text.push('\n');
    std::fs::write(&file, text).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    Ok((file, all_correct))
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(e) => e,
        _ => &[],
    }
}

/// Compares result set `b` (the change) with `a` (the parent): one row
/// per workload × metric under that metric's bound. A timed metric
/// whose quartile spread exceeds the bound on either side is
/// `unresolved`, never `unchanged`; exact figures must be equal.
/// Returns whether `b` is acceptable (nothing regressed or changed).
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "spreadA", "spreadB", "bound"
    );
    for (w, wa) in entries(&a["workloads"]) {
        let wb = &b["workloads"][w.as_str()];
        for (name, ma) in entries(&wa["metrics"]) {
            let mb = &wb["metrics"][name.as_str()];
            let num = |m: &Value, k: &str| m[k].as_f64().unwrap_or(f64::NAN);
            let (med_a, med_b, bound) = (num(ma, "median"), num(mb, "median"), num(ma, "bound"));
            let spread = |m: &Value| (num(m, "q3") - num(m, "q1")) / num(m, "median").abs();
            let (sa, sb) = (spread(ma), spread(mb));
            let higher = ma["better"] == "higher";
            let worse = if higher { med_a - med_b } else { med_b - med_a } / med_a.abs();
            let verdict = if !med_b.is_finite() {
                ok = false;
                "MISSING"
            } else if sa > bound || sb > bound {
                "unresolved"
            } else if worse > bound {
                ok = false;
                "REGRESSED"
            } else if worse < -bound {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{w:<16} {name:<24} {med_a:>14.4} {med_b:>14.4} {:>7.1}% {:>7.1}% {:>6.0}%  {verdict}",
                100.0 * sa,
                100.0 * sb,
                100.0 * bound
            );
        }
        for (name, xa) in entries(&wa["exact"]) {
            let xb = &wb["exact"][name.as_str()];
            let same = xa.as_f64().map(f64::to_bits) == xb.as_f64().map(f64::to_bits);
            ok &= same;
            println!(
                "{w:<16} {name:<24} {:>14.6} {:>14.6} {:>26}  {}",
                xa.as_f64().unwrap_or(f64::NAN),
                xb.as_f64().unwrap_or(f64::NAN),
                "exact",
                if same { "equal" } else { "CHANGED" }
            );
        }
        for side in [wa, wb] {
            if !matches!(side["correct"], Value::Bool(true)) {
                ok = false;
                println!("{w:<16} fingerprint mismatch on one side");
            }
        }
    }
    Ok(ok)
}
