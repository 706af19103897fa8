//! E-Code: the language custom performance analyzers (CPAs) are written
//! in.
//!
//! The paper's CPAs are "specified in the form of E-Code (a language
//! subset of C), compiled through run-time code generation" and installed
//! into the running kernel. This crate reproduces that capability with a
//! C-subset language compiled to a compact stack bytecode executed by a
//! **fuel-metered** VM: callbacks run in the kernel fast path and "must
//! never block and be computationally small", so every instruction is
//! counted and a program exceeding its budget is aborted. The consumed
//! fuel converts to simulated CPU time, charged as monitoring overhead.
//!
//! # The language
//!
//! ```c
//! // persistent state across events
//! static int count = 0;
//! static double total_us = 0.0;
//!
//! // per-event inputs are declared by the host (e.g. kind, size, pid)
//! if (kind == 8 && size > 1000) {
//!     count = count + 1;
//!     total_us = total_us + 1.5 * size;
//!     out(0, total_us / count);   // publish a computed metric
//! }
//! return count % 100 == 0;        // 1 = flag this event to the host
//! ```
//!
//! Types: `int` (i64), `double` (f64), `bool`. Implicit `int`→`double`
//! promotion in mixed arithmetic. Statements: declarations, assignment,
//! `if`/`else`, blocks, `return`, expression statements. Builtins:
//! `abs`, `min`, `max`, `out(slot, value)`.
//!
//! # The verifier
//!
//! Fuel metering alone catches a misbehaving program only *after* it has
//! run — and perturbed — the monitored node. [`verify`] moves that to
//! load time, the way an eBPF verifier does: it statically proves a
//! worst-case fuel bound (E-Code has no loops, so the compiled bytecode
//! is a forward-jump DAG and the longest path is computed exactly),
//! rejects guaranteed traps (division by zero, out-of-range `out()`
//! slots) via interval reasoning, lints suspicious code (dead branches,
//! unreachable statements, unused state, uninitialized reads), and
//! constant-folds/dead-code-eliminates the program to shrink its
//! per-event cost. Accepted programs come back as a
//! [`Verified<Program>`] with a [`VerifyReport`] (before/after fuel
//! bounds, warnings); rejected ones as a [`VerifyError`] of
//! line-numbered [`Diagnostic`]s rendered rustc-style. Hosts should
//! install only verified programs and size fuel budgets from
//! [`VerifyReport::fuel_bound`] (or [`Program::static_fuel_bound`]).
//!
//! # Example
//!
//! ```
//! use ecode::{Program, Instance, Type, Value};
//!
//! let src = r#"
//!     static int n = 0;
//!     n = n + 1;
//!     return n;
//! "#;
//! let program = Program::compile(src, &[("size", Type::Int)])?;
//! let mut inst = Instance::new(&program);
//! assert_eq!(inst.run(&[Value::Int(10)], 1_000)?.ret, 1);
//! assert_eq!(inst.run(&[Value::Int(20)], 1_000)?.ret, 2);
//! # Ok::<(), ecode::EcodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod batch;
mod compile;
mod ir;
pub mod jit;
mod lexer;
mod parser;
mod vm;

pub use batch::{BatchBail, BatchEval};

pub use analysis::{
    verify, Diagnostic, MergeClass, MergePlan, MinMaxOp, Severity, SlotPlan, Verified, VerifyError,
    VerifyLimits, VerifyReport,
};
pub use compile::{Program, Type};
pub use ir::Bail;
pub use vm::{ExecTier, Instance, MergeError, RunOutcome, Value};

use std::fmt;

/// Compilation or execution error.
#[derive(Debug, Clone, PartialEq)]
pub enum EcodeError {
    /// Lexical error with line number.
    Lex {
        /// 1-based source line.
        line: u32,
        /// What went wrong.
        msg: String,
    },
    /// Parse error with line number.
    Parse {
        /// 1-based source line.
        line: u32,
        /// What went wrong.
        msg: String,
    },
    /// Type error with line number.
    Types {
        /// 1-based source line.
        line: u32,
        /// What went wrong.
        msg: String,
    },
    /// The program exceeded its fuel budget and was aborted.
    OutOfFuel,
    /// Division or modulo by zero at runtime.
    DivideByZero,
    /// Wrong number or type of input values supplied by the host.
    BadInputs(String),
}

impl fmt::Display for EcodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcodeError::Lex { line, msg } => write!(f, "lex error (line {line}): {msg}"),
            EcodeError::Parse { line, msg } => write!(f, "parse error (line {line}): {msg}"),
            EcodeError::Types { line, msg } => write!(f, "type error (line {line}): {msg}"),
            EcodeError::OutOfFuel => f.write_str("fuel budget exhausted"),
            EcodeError::DivideByZero => f.write_str("division by zero"),
            EcodeError::BadInputs(msg) => write!(f, "bad inputs: {msg}"),
        }
    }
}

impl std::error::Error for EcodeError {}
