//! Command-line arguments.
//!
//! ```text
//! run.sh [--seed N] [--quick] [--trace] [--workload NAME] [--bless]
//! run.sh --compare A.json B.json
//! run.sh --selfcheck [--quick]
//! run.sh --workload NAME --seed N --seconds S --trace 0|1    (one run)
//! ```
//!
//! `--seconds` selects a single run of one workload, which prints one
//! JSON object as its last line; without it the harness runs the whole
//! suite in interleaved rounds of such runs.

use std::path::PathBuf;

/// What the invocation asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// One time-boxed run of one workload.
    Single {
        /// Seconds to measure for.
        seconds: f64,
    },
    /// Every workload (or the named one) in interleaved rounds.
    Suite,
    /// Compare two suite result files.
    Compare(PathBuf, PathBuf),
    /// Run the suite twice and compare the two sets.
    Selfcheck,
}

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// What to do.
    pub mode: Mode,
    /// Workload name, if one was given.
    pub workload: Option<String>,
    /// Input seed (7 by default; 11 is the held-out seed).
    pub seed: u64,
    /// Record spans and run the stage-isolated replays.
    pub trace: bool,
    /// Small sizes: every repetition well under a second.
    pub quick: bool,
    /// Rewrite the reference fingerprints instead of checking them.
    pub bless: bool,
    /// Where a single run writes its detailed result.
    pub out: Option<PathBuf>,
}

/// Usage text.
pub const USAGE: &str =
    "usage: benchmark/run.sh [--seed N] [--quick] [--trace] [--workload NAME] [--bless]
       benchmark/run.sh --compare A.json B.json
       benchmark/run.sh --selfcheck [--quick] [--seed N]
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1";

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        mode: Mode::Suite,
        workload: None,
        seed: 7,
        trace: false,
        quick: false,
        bless: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => out.workload = Some(value(&mut it, a)?),
            "--seed" => {
                out.seed = value(&mut it, a)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                let seconds: f64 = value(&mut it, a)?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_owned())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds is out of range".to_owned());
                }
                out.mode = Mode::Single { seconds };
            }
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // form the benchmark driver uses.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => out.quick = true,
            "--bless" => out.bless = true,
            "--out" => out.out = Some(PathBuf::from(value(&mut it, a)?)),
            "--compare" => {
                let a_path = PathBuf::from(value(&mut it, a)?);
                let b_path = PathBuf::from(value(&mut it, a)?);
                out.mode = Mode::Compare(a_path, b_path);
            }
            "--selfcheck" => out.mode = Mode::Selfcheck,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if matches!(out.mode, Mode::Single { .. }) && out.workload.is_none() {
        return Err("--seconds needs --workload".to_owned());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_form_and_human_form_both_parse() {
        let a = parse(&args("--workload gpa_wire --seed 11 --seconds 8 --trace 1")).unwrap();
        assert_eq!(a.mode, Mode::Single { seconds: 8.0 });
        assert_eq!((a.seed, a.trace), (11, true));
        let a = parse(&args("--workload gpa_wire --seed 3 --seconds 8 --trace 0")).unwrap();
        assert!(!a.trace);
        let a = parse(&args("--trace --quick")).unwrap();
        assert_eq!(a.mode, Mode::Suite);
        assert!(a.trace && a.quick && a.seed == 7);
        assert!(parse(&args("--seconds 3")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }
}
