//! Structured diagnostics, following the house style of the E-Code
//! verifier (`ecode::analysis::diag`): a stable rule code, a precise
//! span, a one-line message — extended here with the *rationale* (why
//! this pattern threatens determinism or memory safety) and a concrete
//! *fix hint*, because analyzer findings are meant to be fixed, not
//! silenced.

use std::fmt;
use std::path::PathBuf;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails CI unless waived.
    Error,
    /// Reported, never fails CI (unused waivers, etc.).
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stable rule code (`D0001`..`U0002`, `P0001`).
    pub code: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line of the offending token.
    pub line: u32,
    /// What was found, one line.
    pub message: String,
    /// Why the pattern is a problem in this codebase.
    pub rationale: &'static str,
    /// How to fix it properly (waivers are the exception, not the fix).
    pub fix: &'static str,
    /// Set when a waiver in analyzer.toml covers this finding.
    pub waived_by: Option<String>,
    /// The offending source line, captured at analysis time so reports
    /// can render without re-reading files.
    pub excerpt: Option<String>,
}

impl Diagnostic {
    pub fn error(
        code: &'static str,
        file: PathBuf,
        line: u32,
        message: String,
        rationale: &'static str,
        fix: &'static str,
    ) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            file,
            line,
            message,
            rationale,
            fix,
            waived_by: None,
            excerpt: None,
        }
    }

    /// Whether this finding fails the CI gate.
    pub fn is_blocking(&self) -> bool {
        self.severity == Severity::Error && self.waived_by.is_none()
    }

    /// Renders the diagnostic with a source excerpt, rustc-style:
    ///
    /// ```text
    /// error[D0002] unsorted HashMap iteration reaches emitted records
    ///   --> crates/core/src/lpa.rs:290
    ///    |
    /// 290|        let stale: Vec<FlowKey> = self.flows.iter()
    ///    |
    ///    = why: HashMap order depends on per-process hash seeds ...
    ///    = fix: collect keys and sort before iterating
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let head = if let Some(w) = &self.waived_by {
            format!("waived[{}] ({w})", self.code)
        } else {
            format!("{}[{}]", self.severity, self.code)
        };
        out.push_str(&format!("{head} {}\n", self.message));
        out.push_str(&format!("  --> {}:{}\n", self.file.display(), self.line));
        if let Some(text) = &self.excerpt {
            let gutter = format!("{}", self.line);
            let pad = " ".repeat(gutter.len());
            out.push_str(&format!("{pad} |\n"));
            out.push_str(&format!("{gutter} | {}\n", text.trim_end()));
            out.push_str(&format!("{pad} |\n"));
        }
        out.push_str(&format!("   = why: {}\n", self.rationale));
        out.push_str(&format!("   = fix: {}\n", self.fix));
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}: {}",
            self.severity,
            self.code,
            self.file.display(),
            self.line,
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_with_gutter_and_hints() {
        let mut d = Diagnostic::error(
            "D0001",
            PathBuf::from("crates/x/src/lib.rs"),
            3,
            "wall-clock read via Instant::now".into(),
            "wall time varies across runs",
            "use SimTime from the event loop",
        );
        d.excerpt = Some("    let t = Instant::now();".into());
        let r = d.render();
        assert!(r.contains("error[D0001]"));
        assert!(r.contains("--> crates/x/src/lib.rs:3"));
        assert!(r.contains("3 |     let t = Instant::now();"));
        assert!(r.contains("= why:"));
        assert!(r.contains("= fix:"));
        assert_eq!(
            d.to_string(),
            "error[D0001] crates/x/src/lib.rs:3: wall-clock read via Instant::now"
        );
    }
}
