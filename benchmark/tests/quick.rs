//! Runs the whole suite at `--quick` size and validates what it wrote:
//! the result file and `BENCHMARK.json` stay inside the limits the
//! benchmark contract sets, and every fingerprint matches.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(e) => e,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn assert_name(name: &str) {
    assert!(
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
        "name {name:?} is outside [A-Za-z0-9_.-]{{1,64}}"
    );
}

#[test]
fn contract_file_is_within_its_limits() {
    let c = load(&repo_root().join("BENCHMARK.json"));
    let list = |key: &str| {
        c[key]
            .as_array()
            .unwrap_or_else(|| panic!("{key} is a list"))
    };
    assert!((2..=8).contains(&list("workloads").len()));
    assert!((1..=16).contains(&list("end_to_end").len()));
    assert!((1..=128).contains(&list("per_layer").len()));
    let mut seen = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for item in list(key) {
            let name = item["name"].as_str().expect("name");
            assert_name(name);
            assert!(seen.insert(name.to_owned()), "{name} is used twice");
        }
    }
    for w in list("workloads") {
        let why = w["why"].as_str().expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why:?}");
    }
    for m in list("end_to_end") {
        let bound = m["bound"].as_f64().expect("bound");
        assert!((0.0..=0.25).contains(&bound));
    }
    for m in list("end_to_end").iter().chain(list("per_layer")) {
        let unit = m["unit"].as_str().expect("unit");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {unit:?}"
        );
        assert!(m["better"] == "higher" || m["better"] == "lower");
    }
    assert!(list("end_to_end")
        .iter()
        .any(|m| m["name"] == "setup_s" && m["unit"] == "s" && m["better"] == "lower"));
    assert!((1..=60).contains(&c["run_seconds"].as_u64().expect("run_seconds")));
}

#[test]
fn quick_suite_runs_and_its_result_file_is_well_formed() {
    let root = repo_root();
    let status = Command::new(env!("CARGO_BIN_EXE_sysbench"))
        .current_dir(&root)
        .args(["--quick", "--trace", "--seed", "7"])
        .status()
        .expect("sysbench starts");
    assert!(status.success(), "quick suite failed: {status}");

    let contract = load(&root.join("BENCHMARK.json"));
    let result = load(&root.join("benchmark/results/sysbench.quick.seed7.json"));
    assert!(matches!(result["all_correct"], Value::Bool(true)));
    assert_eq!(result["size"], "quick");
    let workloads = entries(&result["workloads"]);
    assert_eq!(
        workloads.len(),
        contract["workloads"].as_array().expect("list").len()
    );
    assert!(workloads.len() <= 8);
    for (name, w) in workloads {
        assert_name(name);
        let metrics = entries(&w["metrics"]);
        assert!((1..=16).contains(&metrics.len()));
        for (metric, m) in metrics {
            assert_name(metric);
            assert!(
                m["unit"].as_str().is_some_and(|u| !u.is_empty()),
                "{metric} unit"
            );
            assert!(
                m["better"] == "higher" || m["better"] == "lower",
                "{metric}"
            );
            assert!(m["bound"].as_f64().is_some(), "{metric} bound");
            assert!(
                m["n"].as_u64().is_some_and(|n| n >= 3),
                "{metric} sample count"
            );
            assert!(
                m["median"].as_f64().is_some_and(|v| v > 0.0),
                "{metric} is 0"
            );
        }
        let per_layer = entries(&w["per_layer"]);
        assert!((1..=128).contains(&per_layer.len()));
        for (metric, _) in per_layer {
            assert_name(metric);
        }
        assert!(root
            .join(format!("benchmark/results/{name}.trace.json"))
            .is_file());
    }
}
