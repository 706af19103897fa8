//! Static verification and optimization of E-Code programs.
//!
//! E-Code runs in the kernel fast path, where the paper requires that
//! analyzers "never block and be computationally small". The original
//! design enforced this only *at runtime* — a fuel meter aborts runaway
//! programs with [`OutOfFuel`](crate::EcodeError::OutOfFuel) after they
//! have already perturbed the monitored node. This module moves the
//! enforcement to *load time*, the way an eBPF verifier does: a program
//! is analyzed once, before installation, and either rejected with
//! line-numbered [`Diagnostic`]s or admitted as a [`Verified<Program>`]
//! whose worst-case cost is a machine-checked bound.
//!
//! [`verify`] runs five passes:
//!
//! 1. **Compile** — lex/parse/type errors become `E0004` diagnostics.
//! 2. **Check** — an abstract interpreter with interval reasoning finds
//!    guaranteed traps (`E0001` division by zero, `E0002` out-of-range
//!    `out()` slots) and lints (possible traps, unused state, dead
//!    branches, unreachable code, uninitialized reads, inconsistent
//!    returns).
//! 3. **Optimize** — constant folding, dead-branch elimination, and
//!    unreachable-code removal shrink the program while preserving its
//!    observable behavior exactly.
//! 4. **Bound** — because E-Code has no loops, compiled bytecode only
//!    jumps forward; the worst-case fuel is the longest path through the
//!    DAG, computed exactly and proven to fit the host's budget
//!    (`E0003` otherwise).
//! 5. **Merge** — a shard-safety dataflow over the program's lowering
//!    (`crate::ir`; of the passes only 4 walks stack ops) classifies
//!    every static slot into the merge lattice ([`MergeClass`]; all
//!    `Opaque` when the lowering refused the program), producing the
//!    [`MergePlan`] the sharded GPA uses to fold replica instances.
//!    Advisory by default (`W0009` for write-only mergeable state);
//!    with [`VerifyLimits::require_mergeable`] a non-mergeable slot
//!    rejects the program with `M0001`.
//!
//! The bound in the resulting [`VerifyReport`] is a guarantee: running
//! the verified program with that much fuel can never abort.

mod check;
mod diag;
pub(crate) mod fuel;
pub(crate) mod merge;
mod opt;

pub use diag::{Diagnostic, Severity};
pub use merge::{MergeClass, MergePlan, MinMaxOp, SlotPlan};

use crate::compile::{compile_stmts, Program, Type};
use crate::parser::parse;
use crate::EcodeError;
use std::fmt;

/// Host-imposed resource limits a program must be proven to respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyLimits {
    /// Worst-case fuel the host is willing to spend per event.
    pub max_fuel: u64,
    /// Highest `out()` slot the host accepts (slots are `0..=max_out_slot`;
    /// hosts keep one cell per slot, so this bounds per-analyzer memory).
    pub max_out_slot: i64,
    /// Reject programs whose [`MergePlan`] is not fully shard-safe
    /// (`M0001`). Off by default: single-instance hosts run
    /// non-mergeable programs just fine.
    pub require_mergeable: bool,
}

impl Default for VerifyLimits {
    fn default() -> Self {
        VerifyLimits {
            max_fuel: 2_000,
            max_out_slot: 63,
            require_mergeable: false,
        }
    }
}

impl VerifyLimits {
    /// Default limits with a specific fuel budget.
    pub fn with_max_fuel(max_fuel: u64) -> Self {
        VerifyLimits {
            max_fuel,
            ..Default::default()
        }
    }

    /// Same limits, but demanding a fully shard-safe [`MergePlan`].
    pub fn require_mergeable(mut self) -> Self {
        self.require_mergeable = true;
        self
    }
}

/// What the verifier proved about an admitted program.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Exact worst-case fuel of the (optimized) program. Running with
    /// this much fuel can never abort with `OutOfFuel`.
    pub fuel_bound: u64,
    /// Worst-case fuel before optimization, for overhead reporting.
    pub unoptimized_fuel_bound: u64,
    /// Instruction count after optimization.
    pub code_len: usize,
    /// Instruction count before optimization.
    pub unoptimized_code_len: usize,
    /// Shard-safety classification of every static slot, in slot order.
    /// [`MergePlan::fully_mergeable`] decides whether the program may be
    /// evaluated as replicas and folded with `Instance::merge_from`.
    pub merge_plan: MergePlan,
    /// Non-fatal findings (severity [`Severity::Warning`]).
    pub warnings: Vec<Diagnostic>,
}

/// A program that passed verification, carrying its [`VerifyReport`].
///
/// The only way to construct one is [`verify`], so holding a
/// `Verified<Program>` is proof the checks ran.
#[derive(Debug, Clone)]
pub struct Verified<T> {
    value: T,
    report: VerifyReport,
}

impl<T> Verified<T> {
    /// The verified value.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// What the verifier proved.
    pub fn report(&self) -> &VerifyReport {
        &self.report
    }

    /// Consumes the wrapper, returning the value and its report.
    pub fn into_parts(self) -> (T, VerifyReport) {
        (self.value, self.report)
    }
}

/// Verification failure: at least one error-severity [`Diagnostic`].
///
/// `diagnostics` holds every finding (errors *and* warnings) in source
/// order; [`fmt::Display`] renders them rustc-style with source excerpts.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// All findings, errors first within each line, in line order.
    pub diagnostics: Vec<Diagnostic>,
    rendered: String,
}

impl VerifyError {
    fn new(src: &str, diagnostics: Vec<Diagnostic>) -> VerifyError {
        let rendered = diagnostics
            .iter()
            .map(|d| d.render(src))
            .collect::<Vec<_>>()
            .join("\n");
        VerifyError {
            diagnostics,
            rendered,
        }
    }

    /// Only the rejecting (error-severity) findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered)
    }
}

impl std::error::Error for VerifyError {}

/// Converts a compile failure into its `E0004` diagnostic.
fn compile_diag(err: &EcodeError) -> Diagnostic {
    match err {
        EcodeError::Lex { line, msg }
        | EcodeError::Parse { line, msg }
        | EcodeError::Types { line, msg } => {
            Diagnostic::error("E0004", *line, format!("does not compile: {msg}"))
        }
        other => Diagnostic::error("E0004", 0, format!("does not compile: {other}")),
    }
}

/// Verifies and optimizes an E-Code program against `limits`.
///
/// On success the returned [`Verified<Program>`] holds the *optimized*
/// program plus a [`VerifyReport`] whose `fuel_bound` is an exact
/// worst-case: running with that much fuel can never hit `OutOfFuel`.
/// On failure every finding is returned, sorted by source line, with
/// errors carrying the lines that caused rejection.
///
/// # Example
///
/// ```
/// use ecode::{verify, Type, VerifyLimits};
///
/// let v = verify(
///     "static int n = 0; n = n + 1; return n % 10 == 0;",
///     &[("size", Type::Int)],
///     &VerifyLimits::default(),
/// )
/// .expect("verifies");
/// assert!(v.report().fuel_bound <= 2_000);
///
/// let err = verify("return 1 / 0;", &[], &VerifyLimits::default())
///     .expect_err("guaranteed trap is rejected");
/// assert_eq!(err.errors().next().unwrap().code, "E0001");
/// ```
pub fn verify(
    src: &str,
    inputs: &[(&str, Type)],
    limits: &VerifyLimits,
) -> Result<Verified<Program>, VerifyError> {
    // Pass 1: compile. Anything the compiler rejects is E0004; the later
    // passes may then assume a well-typed AST.
    let stmts = match parse(src) {
        Ok(stmts) => stmts,
        Err(e) => return Err(VerifyError::new(src, vec![compile_diag(&e)])),
    };
    let unoptimized = match compile_stmts(&stmts, inputs) {
        Ok(p) => p,
        Err(e) => return Err(VerifyError::new(src, vec![compile_diag(&e)])),
    };
    let unoptimized_fuel_bound = fuel::max_fuel(&unoptimized.code);
    let unoptimized_code_len = unoptimized.code.len();

    // Pass 2: safety checks and lints on the original AST.
    let mut diagnostics = check::check(&stmts, inputs, limits);

    // Pass 3: optimize and recompile. The optimizer is semantics-
    // preserving by construction; if its output somehow fails to
    // recompile, fall back to the unoptimized program rather than
    // rejecting a valid one.
    let (program, fuel_bound, code_len) = match compile_stmts(&opt::optimize(&stmts), inputs) {
        Ok(p) => {
            let b = fuel::max_fuel(&p.code);
            let l = p.code.len();
            (p, b, l)
        }
        Err(_) => (unoptimized, unoptimized_fuel_bound, unoptimized_code_len),
    };

    // Pass 4: the fuel bound must fit the host budget. Checked against
    // the optimized program — what would actually be installed.
    if fuel_bound > limits.max_fuel {
        diagnostics.push(Diagnostic::error(
            "E0003",
            0,
            format!(
                "worst-case fuel {} exceeds the host budget {}",
                fuel_bound, limits.max_fuel
            ),
        ));
    }

    // Pass 5: shard-safety. Classified on the program that would
    // actually be installed (its lowering, which `Instance::new` then
    // finds cached), so optimizations (constant folding, dead branches)
    // can only make slots *more* mergeable, never less.
    let merge_plan = merge::classify(&program);
    for slot in &merge_plan.slots {
        match &slot.class {
            MergeClass::Opaque { reason, .. } if limits.require_mergeable => {
                diagnostics.push(Diagnostic::error(
                    "M0001",
                    0,
                    format!(
                        "static variable \"{}\" is not shard-mergeable: {}",
                        slot.name, reason
                    ),
                ));
            }
            MergeClass::LastWriteWins if limits.require_mergeable => {
                diagnostics.push(Diagnostic::error(
                    "M0001",
                    0,
                    format!(
                        "static variable \"{}\" is not shard-mergeable: last write \
                         wins across shards and no tiebreak key is available",
                        slot.name
                    ),
                ));
            }
            class if class.shard_safe() && *class != MergeClass::ReadOnly && !slot.escapes => {
                diagnostics.push(Diagnostic::warning(
                    "W0009",
                    0,
                    format!(
                        "static variable \"{}\" is mergeable ({}) but its value never \
                         escapes — it feeds no output, return, branch, or other static",
                        slot.name,
                        class.describe()
                    ),
                ));
            }
            _ => {}
        }
    }

    // Program-wide findings (line 0) sort after line-anchored ones;
    // within a line, errors lead. The sort is stable, so same-line
    // same-severity findings keep discovery order.
    diagnostics.sort_by_key(|d| (d.line == 0, d.line, std::cmp::Reverse(d.severity)));

    if diagnostics.iter().any(|d| d.severity == Severity::Error) {
        return Err(VerifyError::new(src, diagnostics));
    }
    Ok(Verified {
        value: program,
        report: VerifyReport {
            fuel_bound,
            unoptimized_fuel_bound,
            code_len,
            unoptimized_code_len,
            merge_plan,
            warnings: diagnostics,
        },
    })
}
