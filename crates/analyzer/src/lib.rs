//! sysprof-analyzer: workspace determinism, unsafe-code hygiene and
//! the public-surface census.
//!
//! The reproduction's headline property is that a scenario seed fully
//! determines every trace, dump, and wire byte. That property is easy
//! to lose one innocuous line at a time — a `HashMap` iterated into a
//! report here, an `Instant::now()` there — and such regressions are
//! invisible to `cargo test` until two runs happen to disagree. This
//! crate makes the property checkable: a token-level static pass over
//! the whole workspace with a small rule catalog, run by `ci.sh` as a
//! hard gate.
//!
//! Rule catalog (see [`rules`] for the heuristics):
//!
//! | code  | guards against |
//! |-------|----------------|
//! | D0001 | wall-clock time sources outside bench/CLI code |
//! | D0002 | hash-ordered iteration observable in output/wire/scheduling |
//! | D0003 | OS entropy bypassing the seeded `SimRng` streams |
//! | D0004 | real threads/atomics outside the simulation model |
//! | D0005 | `Instant::now()`/`SystemTime::now()` calls anywhere (no path exemption) |
//! | U0001 | `unsafe` without an adjacent `// SAFETY:` comment |
//! | U0002 | raw-pointer arithmetic (no file is exempt) |
//! | P0001 | `pub` items under `crates/*/src` that nothing outside their own unit tests names |
//!
//! Findings are fixed, not silenced; the rare genuinely-sound site is
//! waived in `analyzer.toml` with a written justification ([`waiver`]).
//! A waiver that no longer matches anything is itself a hard failure
//! (see [`gate`]): stale waivers are standing permission for a class of
//! finding nobody is looking at.
#![forbid(unsafe_code)]

pub mod diag;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod scan;
pub mod waiver;

use std::io;
use std::path::{Path, PathBuf};

use diag::Diagnostic;
use waiver::Waiver;

/// The outcome of analyzing a workspace.
#[derive(Debug)]
pub struct Report {
    /// Every finding, waived ones included, in (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Waivers that matched nothing — stale config worth cleaning up.
    pub unused_waivers: Vec<Waiver>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that fail the CI gate (errors without a waiver).
    pub fn blocking(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_blocking())
    }

    pub fn waived_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.waived_by.is_some())
            .count()
    }
}

/// Maps a report to the CLI exit code.
///
/// Stale waivers (entries in `analyzer.toml` that matched no finding)
/// are a *configuration* failure — exit 2, same class as a malformed
/// waiver file — unless `allow_stale_waivers` is set. A stale waiver is
/// standing permission for a finding class at a site that no longer
/// exhibits it; left in place, it will silently absorb the next,
/// possibly unrelated, finding that appears there. The escape hatch
/// exists for transitional states (a waived file mid-rename), not as a
/// mode to run CI in.
pub fn gate(report: &Report, allow_stale_waivers: bool) -> u8 {
    if !allow_stale_waivers && !report.unused_waivers.is_empty() {
        return 2;
    }
    if report.blocking().next().is_some() {
        1
    } else {
        0
    }
}

/// Analyzes a single file's source text with the per-file rules
/// (workspace-relative `rel` path decides path-based rule exemptions).
/// Excerpts are captured; waivers are applied by the caller.
pub fn analyze_source(rel: &Path, src: &str) -> Vec<Diagnostic> {
    let mut diags = rules::run_all(rel, &lexer::lex(src), src);
    capture_excerpts(&mut diags, src);
    diags
}

fn capture_excerpts(diags: &mut [Diagnostic], src: &str) {
    let lines: Vec<&str> = src.lines().collect();
    for d in diags {
        d.excerpt = lines
            .get(d.line.saturating_sub(1) as usize)
            .map(|l| l.to_string());
    }
}

/// Analyzes a set of `(workspace-relative path, source)` files as one
/// workspace: the per-file rules on each, then the cross-file
/// public-surface census ([`rules::p0001`]) over all of them.
/// Diagnostics come back in (file, line, code) order.
pub fn analyze_sources(files: &[(PathBuf, String)]) -> Vec<Diagnostic> {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let mut diagnostics = Vec::new();
    for ((rel, src), lexed) in files.iter().zip(&lexed) {
        let mut diags = rules::run_all(rel, lexed, src);
        capture_excerpts(&mut diags, src);
        diagnostics.extend(diags);
    }
    let scan_set: Vec<(&Path, &lexer::Lexed)> = files
        .iter()
        .zip(&lexed)
        .map(|((rel, _), lexed)| (rel.as_path(), lexed))
        .collect();
    for mut d in rules::p0001(&scan_set) {
        if let Some((_, src)) = files.iter().find(|(rel, _)| *rel == d.file) {
            capture_excerpts(std::slice::from_mut(&mut d), src);
        }
        diagnostics.push(d);
    }
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    diagnostics
}

/// Runs the full pass: discover sources under `root`, analyze them as
/// one workspace, then apply `waivers` (first matching waiver wins per
/// finding).
pub fn analyze_workspace(root: &Path, waivers: &[Waiver]) -> io::Result<Report> {
    let mut files = Vec::new();
    for rel in scan::rust_sources(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    let files_scanned = files.len();
    let mut diagnostics = analyze_sources(&files);
    let mut used = vec![false; waivers.len()];
    for d in &mut diagnostics {
        if let Some((i, w)) = waivers.iter().enumerate().find(|(_, w)| w.covers(d)) {
            d.waived_by = Some(w.label());
            used[i] = true;
        }
    }
    let unused_waivers = waivers
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(w, _)| w.clone())
        .collect();
    Ok(Report {
        diagnostics,
        unused_waivers,
        files_scanned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_source_captures_excerpts() {
        let src = "fn f() {\n    let t = Instant::now();\n}\n";
        let diags = analyze_source(&PathBuf::from("crates/x/src/lib.rs"), src);
        // The wall-clock call trips the type rule and the call rule.
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].code, "D0001");
        assert_eq!(diags[1].code, "D0005");
        for d in &diags {
            assert_eq!(d.excerpt.as_deref(), Some("    let t = Instant::now();"));
        }
    }

    #[test]
    fn waiver_application_marks_used_and_unused() {
        let src = "fn f() {\n    let t = Instant::now();\n}\n";
        let dir = std::env::temp_dir().join("analyzer-lib-test");
        let crate_dir = dir.join("src");
        std::fs::create_dir_all(&crate_dir).unwrap();
        std::fs::write(crate_dir.join("lib.rs"), src).unwrap();
        let waivers = vec![
            Waiver {
                rule: "D0001".into(),
                file: "src/lib.rs".into(),
                context: Some("Instant::now".into()),
                justification: "test".into(),
                defined_at: 1,
            },
            Waiver {
                rule: "D0005".into(),
                file: "src/lib.rs".into(),
                context: Some("Instant::now".into()),
                justification: "test".into(),
                defined_at: 3,
            },
            Waiver {
                rule: "D0003".into(),
                file: "nope.rs".into(),
                context: None,
                justification: "stale".into(),
                defined_at: 5,
            },
        ];
        let report = analyze_workspace(&dir, &waivers).unwrap();
        assert_eq!(report.blocking().count(), 0);
        assert_eq!(report.waived_count(), 2);
        assert_eq!(report.unused_waivers.len(), 1);
        assert_eq!(report.unused_waivers[0].rule, "D0003");
        // The stale D0003 waiver is a hard failure unless allowed.
        assert_eq!(gate(&report, false), 2);
        assert_eq!(gate(&report, true), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_orders_stale_config_above_findings() {
        let mk = |blocking: bool, stale: bool| {
            let mut d =
                diag::Diagnostic::error("D0001", PathBuf::from("x.rs"), 1, "m".into(), "r", "f");
            if !blocking {
                d.waived_by = Some("w".into());
            }
            Report {
                diagnostics: vec![d],
                unused_waivers: if stale {
                    vec![Waiver {
                        rule: "D0001".into(),
                        file: "gone.rs".into(),
                        context: None,
                        justification: "j".into(),
                        defined_at: 1,
                    }]
                } else {
                    Vec::new()
                },
                files_scanned: 1,
            }
        };
        assert_eq!(gate(&mk(false, false), false), 0);
        assert_eq!(gate(&mk(true, false), false), 1);
        assert_eq!(gate(&mk(false, true), false), 2);
        assert_eq!(gate(&mk(true, true), false), 2);
        assert_eq!(gate(&mk(true, true), true), 1);
    }
}
