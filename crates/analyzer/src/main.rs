//! CLI for the workspace analyzer.
//!
//! ```text
//! cargo run -p sysprof-analyzer             # analyze ., waivers from ./analyzer.toml
//! cargo run -p sysprof-analyzer -- --root DIR [--config FILE] [--quiet] [--json] \
//!                                  [--allow-stale-waivers]
//! ```
//!
//! Exit codes: 0 clean (all findings waived), 1 unwaived findings,
//! 2 configuration or I/O error — including *stale* waivers (entries
//! that matched no finding), unless `--allow-stale-waivers` is passed.
//! `ci.sh` treats nonzero as a hard failure. `--json` emits the
//! machine-readable report (schema pinned in `tests/json_golden.rs`).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut config: Option<PathBuf> = None;
    let mut quiet = false;
    let mut json = false;
    let mut allow_stale = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--config" => match args.next() {
                Some(v) => config = Some(PathBuf::from(v)),
                None => return usage("--config needs a value"),
            },
            "--quiet" | "-q" => quiet = true,
            "--json" => json = true,
            "--allow-stale-waivers" => allow_stale = true,
            "--help" | "-h" => {
                println!(
                    "sysprof-analyzer [--root DIR] [--config FILE] [--quiet] [--json] \
                     [--allow-stale-waivers]\n\
                     Static determinism (D-rules), unsafe-hygiene (U-rules) and\n\
                     public-surface (P-rules) pass.\n\
                     Exit: 0 clean, 1 unwaived findings, 2 config/I-O error.\n\
                     Stale (unmatched) waivers exit 2 unless --allow-stale-waivers."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let config_path = config.unwrap_or_else(|| root.join("analyzer.toml"));
    let waivers = match std::fs::read_to_string(&config_path) {
        Ok(text) => match sysprof_analyzer::waiver::parse(&text) {
            Ok(ws) => ws,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        // No waiver file is a valid (stricter) configuration.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            eprintln!("error: reading {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };

    let report = match sysprof_analyzer::analyze_workspace(&root, &waivers) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let code = sysprof_analyzer::gate(&report, allow_stale);

    if json {
        print!("{}", sysprof_analyzer::json::render(&report));
        return ExitCode::from(code);
    }

    let blocking: Vec<_> = report.blocking().collect();
    if !quiet {
        for d in &report.diagnostics {
            println!("{}", d.render());
        }
    } else {
        for d in &blocking {
            println!("{d}");
        }
    }
    for w in &report.unused_waivers {
        let verdict = if allow_stale {
            "allowed by --allow-stale-waivers"
        } else {
            "hard failure; remove or fix it"
        };
        println!(
            "error: stale waiver analyzer.toml:{} ({} @ {}) matched nothing — {verdict}",
            w.defined_at, w.rule, w.file
        );
    }

    println!(
        "analyzer: {} files scanned, {} findings ({} waived), {} unwaived, {} stale waivers",
        report.files_scanned,
        report.diagnostics.len(),
        report.waived_count(),
        blocking.len(),
        report.unused_waivers.len(),
    );
    ExitCode::from(code)
}

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "error: {err}\nusage: sysprof-analyzer [--root DIR] [--config FILE] [--quiet] \
         [--json] [--allow-stale-waivers]"
    );
    ExitCode::from(2)
}
