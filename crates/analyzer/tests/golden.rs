//! Golden diagnostics per rule: each fixture under `tests/fixtures/`
//! must produce exactly the expected (code, line) pairs — no more, no
//! fewer. The fixtures also carry decoys (strings, comments, look-alike
//! method names) that must stay silent, so these tests pin both the
//! hit and the miss behavior of every rule.

use std::path::PathBuf;

use sysprof_analyzer::{analyze_source, analyze_sources};

/// Analyzes a fixture as if it lived at a normal workspace path (rule
/// path-exemptions must not apply to it).
fn findings(fixture: &str, src: &str) -> Vec<(String, u32)> {
    let rel = PathBuf::from("crates/fixture/src").join(fixture);
    analyze_source(&rel, src)
        .into_iter()
        .map(|d| (d.code.to_string(), d.line))
        .collect()
}

fn expect(fixture: &str, src: &str, want: &[(&str, u32)]) {
    let got = findings(fixture, src);
    let want: Vec<(String, u32)> = want.iter().map(|(c, l)| (c.to_string(), *l)).collect();
    assert_eq!(
        got, want,
        "fixture {fixture}: expected {want:?}, got {got:?}"
    );
}

#[test]
fn d0001_wall_clock_golden() {
    // The `::now()` call sites (lines 8 and 13) additionally trip the
    // path-exemption-free call rule D0005.
    expect(
        "d0001.rs",
        include_str!("fixtures/d0001_wall_clock.rs"),
        &[
            ("D0001", 5),
            ("D0001", 8),
            ("D0005", 8),
            ("D0001", 12),
            ("D0001", 13),
            ("D0005", 13),
        ],
    );
}

#[test]
fn d0005_wall_clock_calls_golden() {
    expect(
        "d0005.rs",
        include_str!("fixtures/d0005_wall_clock_calls.rs"),
        &[
            ("D0001", 7),
            ("D0005", 7),
            ("D0001", 11),
            ("D0001", 12),
            ("D0005", 12),
            ("D0001", 16),
        ],
    );
}

#[test]
fn d0005_fires_even_in_bench_paths() {
    let src = include_str!("fixtures/d0005_wall_clock_calls.rs");
    let diags = analyze_source(&PathBuf::from("crates/bench/src/bin/figures.rs"), src);
    let got: Vec<(&str, u32)> = diags.iter().map(|d| (d.code, d.line)).collect();
    // D0001 honors the bench exemption; D0005 does not.
    assert_eq!(got, vec![("D0005", 7), ("D0005", 12)]);
}

#[test]
fn d0002_hash_order_golden() {
    expect(
        "d0002.rs",
        include_str!("fixtures/d0002_hash_order.rs"),
        &[("D0002", 14), ("D0002", 32), ("D0002", 37)],
    );
}

#[test]
fn d0002_fixed_hasher_alias_golden() {
    // `simcore::hash::{HashMap, HashSet}` keep std's names so the rule
    // keeps seeing them, by import, by full path and by `default()`.
    expect(
        "d0002_alias.rs",
        include_str!("fixtures/d0002_fixed_hasher_alias.rs"),
        &[("D0002", 26), ("D0002", 39), ("D0002", 47)],
    );
}

#[test]
fn d0003_entropy_golden() {
    expect(
        "d0003.rs",
        include_str!("fixtures/d0003_entropy.rs"),
        &[("D0003", 5), ("D0003", 9), ("D0003", 10)],
    );
}

#[test]
fn d0004_threads_golden() {
    expect(
        "d0004.rs",
        include_str!("fixtures/d0004_threads.rs"),
        &[("D0004", 4), ("D0004", 6), ("D0004", 9)],
    );
}

#[test]
fn u0001_safety_comments_golden() {
    expect(
        "u0001.rs",
        include_str!("fixtures/u0001_safety_comments.rs"),
        &[("U0001", 5)],
    );
}

#[test]
fn u0002_ptr_math_golden() {
    expect(
        "u0002.rs",
        include_str!("fixtures/u0002_ptr_math.rs"),
        &[("U0002", 7), ("U0002", 12)],
    );
}

#[test]
fn d0001_is_silent_in_bench_and_bin_paths() {
    let src = include_str!("fixtures/d0001_wall_clock.rs");
    for path in [
        "crates/bench/src/lib.rs",
        "crates/bench/src/bin/figures.rs",
        "src/bin/cli.rs",
    ] {
        let diags = analyze_source(&PathBuf::from(path), src);
        assert!(diags.iter().all(|d| d.code != "D0001"), "{path}: {diags:?}");
    }
}

#[test]
fn excerpts_point_at_the_offending_line() {
    let src = include_str!("fixtures/u0001_safety_comments.rs");
    let diags = analyze_source(&PathBuf::from("crates/fixture/src/u0001.rs"), src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].excerpt.as_deref(), Some("    unsafe { *p }"));
    // Rendered output carries code, span, rationale, and fix hint.
    let rendered = diags[0].render();
    assert!(rendered.contains("error[U0001]"));
    assert!(rendered.contains("--> crates/fixture/src/u0001.rs:5"));
    assert!(rendered.contains("= why:"));
    assert!(rendered.contains("= fix:"));
}

#[test]
fn scenario_library_fixture_golden() {
    expect(
        "scenario_library.rs",
        include_str!("fixtures/scenario_library.rs"),
        &[
            ("D0001", 6),
            ("D0001", 16),
            ("D0005", 16),
            ("D0002", 26),
            ("D0002", 44),
            ("D0003", 50),
        ],
    );
}

/// P0001 is the one cross-file rule: the fixture is two files, product
/// source and a caller, analyzed as one workspace.
#[test]
fn p0001_unreachable_pub_golden() {
    let files = [
        (
            PathBuf::from("crates/fixture/src/p0001.rs"),
            include_str!("fixtures/p0001_unreachable_pub.rs").to_owned(),
        ),
        (
            PathBuf::from("tests/p0001_callers.rs"),
            include_str!("fixtures/p0001_callers.rs").to_owned(),
        ),
    ];
    let got: Vec<(String, &str, u32)> = analyze_sources(&files)
        .into_iter()
        .map(|d| (d.file.display().to_string(), d.code, d.line))
        .collect();
    let src = "crates/fixture/src/p0001.rs".to_owned();
    let want: Vec<(String, &str, u32)> = [5, 9, 11, 13, 17]
        .into_iter()
        .map(|line| (src.clone(), "P0001", line))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn p0001_reads_callers_everywhere_but_audits_only_crate_sources() {
    // The same product file with no caller file: everything only the
    // caller named (two fns, the colliding `len`, `Knobs`) is a finding too.
    let alone = [(
        PathBuf::from("crates/fixture/src/p0001.rs"),
        include_str!("fixtures/p0001_unreachable_pub.rs").to_owned(),
    )];
    let lines: Vec<u32> = analyze_sources(&alone).iter().map(|d| d.line).collect();
    assert_eq!(lines, [5, 9, 11, 13, 17, 19, 23, 29, 31]);
    // Outside crates/*/src nothing is audited, whatever it defines.
    for path in [
        "tests/p0001.rs",
        "benchmark/src/p0001.rs",
        "examples/p0001.rs",
    ] {
        let elsewhere = [(PathBuf::from(path), alone[0].1.clone())];
        assert!(analyze_sources(&elsewhere).is_empty(), "{path}");
    }
}
