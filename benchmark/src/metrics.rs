//! The benchmark's contract, read from `BENCHMARK.json`.
//!
//! That file is the single list of workloads, end-to-end metrics (with
//! their regression bounds) and per-layer metrics; the harness reads it
//! instead of carrying a second copy, and refuses to report a metric
//! the file does not name.

use std::path::Path;

use serde_json::Value;

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
    /// Seconds one run measures for.
    pub run_seconds: u64,
}

fn metric(v: &Value) -> Result<MetricDef, String> {
    let text = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("metric entry lacks {key:?}"))
    };
    let better = text("better")?;
    if better != "higher" && better != "lower" {
        return Err(format!(
            "metric direction {better:?} is neither higher nor lower"
        ));
    }
    Ok(MetricDef {
        name: text("name")?,
        unit: text("unit")?,
        higher_is_better: better == "higher",
        bound: v.get("bound").and_then(Value::as_f64),
    })
}

impl Contract {
    /// Parses `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Contract, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{} lacks the {key:?} list", path.display()))
        };
        let metrics = |key: &str| list(key)?.iter().map(metric).collect::<Result<Vec<_>, _>>();
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| "workload entry lacks a name".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Contract {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: v.get("run_seconds").and_then(Value::as_u64).unwrap_or(10),
        })
    }

    /// The end-to-end metric called `name`.
    pub fn end_to_end(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    /// The per-layer metric called `name`.
    pub fn per_layer(&self, name: &str) -> Option<&MetricDef> {
        self.per_layer.iter().find(|m| m.name == name)
    }
}
