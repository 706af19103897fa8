//! The analyzer eats its own dog food: the whole workspace — this
//! crate included — must analyze clean against the checked-in
//! `analyzer.toml`. This is the same invocation `ci.sh` gates on, so a
//! regression shows up in `cargo test` before it ever reaches CI.

use std::path::PathBuf;

use sysprof_analyzer::{analyze_workspace, waiver};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_zero_unwaived_findings() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("analyzer.toml")).unwrap();
    let waivers = waiver::parse(&text).unwrap();
    let report = analyze_workspace(&root, &waivers).unwrap();

    let blocking: Vec<String> = report.blocking().map(|d| d.to_string()).collect();
    assert!(
        blocking.is_empty(),
        "unwaived analyzer findings in the workspace:\n{}",
        blocking.join("\n")
    );
    assert!(
        report.unused_waivers.is_empty(),
        "stale waivers in analyzer.toml: {:?}",
        report.unused_waivers
    );
    // Sanity: the scan actually covered the workspace.
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    // Every waiver is exercised (they matched, or unused_waivers would
    // be non-empty) and every waived finding keeps its justification.
    for d in &report.diagnostics {
        if let Some(label) = &d.waived_by {
            assert!(label.contains("analyzer.toml:"), "{label}");
        }
    }
}

/// The scenario library is exactly the code the determinism rules exist
/// for (diagnosis strings are pinned byte-for-byte in golden tests), so
/// its coverage is asserted explicitly: every scenario source is in the
/// scan set and analyzes clean on its own, with no waiver absorbing a
/// finding there.
#[test]
fn scan_covers_the_scenario_library_and_it_is_clean() {
    let root = workspace_root();
    let files = sysprof_analyzer::scan::rust_sources(&root).unwrap();
    for f in [
        "scenario.rs",
        "kvstore.rs",
        "fanout.rs",
        "allreduce.rs",
        "cdn.rs",
    ] {
        let rel = PathBuf::from("crates/apps/src").join(f);
        assert!(
            files.contains(&rel),
            "scan missed scenario-library file {rel:?}"
        );
    }
    for rel in files.iter().filter(|p| p.starts_with("crates/apps")) {
        let src = std::fs::read_to_string(root.join(rel)).unwrap();
        let diags = sysprof_analyzer::analyze_source(rel, &src);
        assert!(diags.is_empty(), "findings in {rel:?}:\n{diags:#?}");
    }
}

/// E-Code executes inside the event hot path, where a determinism or
/// hygiene slip would corrupt results silently — so its coverage is
/// asserted explicitly, like the scenario library's: every file of the
/// crate is in the scan set, analyzes clean on its own with no waiver
/// absorbing a finding there, and contains no `unsafe` (the indexing
/// the interpreter and the jit rely on is pre-proven by `validate`).
#[test]
fn scan_covers_ecode_and_it_is_clean_and_safe() {
    let root = workspace_root();
    let files = sysprof_analyzer::scan::rust_sources(&root).unwrap();
    let ecode: Vec<&PathBuf> = files
        .iter()
        .filter(|p| p.starts_with("crates/ecode/src"))
        .collect();
    for f in ["jit.rs", "vm.rs", "batch.rs"] {
        let rel = PathBuf::from("crates/ecode/src").join(f);
        assert!(ecode.contains(&&rel), "scan missed executor file {rel:?}");
    }
    for rel in ecode {
        let src = std::fs::read_to_string(root.join(rel)).unwrap();
        let diags = sysprof_analyzer::analyze_source(rel, &src);
        assert!(diags.is_empty(), "findings in {rel:?}:\n{diags:#?}");
        assert!(
            !src.contains("unsafe {") && !src.contains("unsafe fn") && !src.contains("unsafe impl"),
            "{rel:?} grew unsafe code"
        );
    }
}
