//! The E-Code verifier: what happens when an administrator submits a bad
//! Custom Performance Analyzer, and what the machine-checked report for
//! an admitted one looks like.
//!
//! A CPA runs in the kernel fast path on every matching event, so the
//! paper requires analyzers that "never block and be computationally
//! small". The verifier enforces that *before installation*, the way an
//! eBPF verifier does: guaranteed traps and over-budget programs are
//! rejected with line-numbered diagnostics, and admitted programs carry a
//! proven worst-case fuel bound.
//!
//! ```text
//! cargo run --example verify_cpa
//! ```

use ecode::{verify, BatchEval, ExecTier, Instance, Program, VerifyLimits};
use sysprof::EVENT_INPUTS;

/// First attempt: a per-port byte ratio. Three problems hide in it — a
/// divisor interval reasoning proves is always zero, an out() slot
/// beyond what the host retains, and a static that is never read.
const BAD: &str = r#"static int reqs = 0;
static int total = 0;
static int debug = 0;
int scale = 2 - 2;
if (port_dst == 2049) {
    reqs = reqs + 1;
}
total = total + size;
out(500, total / scale);
return 0;
"#;

/// The fixed version: `max(reqs, 1)` gives the divisor an interval that
/// provably excludes zero, and slot 0 is within the host's range. The
/// `1 == 1` guard is deliberate clutter for the optimizer to fold away.
const GOOD: &str = r#"static int reqs = 0;
static int total = 0;
if (port_dst == 2049) {
    reqs = reqs + 1;
}
total = total + size;
if (1 == 1) {
    out(0, total / max(reqs, 1));
}
return reqs;
"#;

/// An analyzer the loader admits but does not lower: four comparisons
/// pending beneath a short-circuit join are more stack than a block
/// boundary carries.
const DEEP_JOIN: &str =
    "return size > 0 == (pid > 0 == (size > 1 == (pid > 1 == (size > 2 && pid > 2))));";

/// Prints which execution path the loader chose for `program`, and why.
fn explain_paths(name: &str, program: &Program) {
    let inst = Instance::new(program);
    match (inst.tier(), inst.compile_bail()) {
        (ExecTier::Compiled, _) => println!("  {name}: compiled tier"),
        (ExecTier::Fused, Some(why)) => println!("  {name}: interpreter — {why}"),
        (ExecTier::Fused, None) => println!("  {name}: interpreter (by request)"),
    }
    match BatchEval::compile(program) {
        Ok(_) => println!("  {name}: a digest would evaluate it column-wise"),
        Err(why) => println!("  {name}: no column evaluation — {why}"),
    }
}

fn main() {
    let limits = VerifyLimits::default();

    println!("submitting the buggy analyzer:\n");
    match verify(BAD, &EVENT_INPUTS, &limits) {
        Ok(_) => unreachable!("the buggy program must be rejected"),
        Err(e) => println!("{e}\n"),
    }

    println!("submitting the fixed analyzer:\n");
    let verified = verify(GOOD, &EVENT_INPUTS, &limits).expect("the fixed program is admitted");
    let r = verified.report();
    println!(
        "admitted: worst-case fuel {} (was {} before optimization),",
        r.fuel_bound, r.unoptimized_fuel_bound
    );
    println!(
        "          {} bytecode instructions (was {}),",
        r.code_len, r.unoptimized_code_len
    );
    println!("          {} warning(s):", r.warnings.len());
    for w in &r.warnings {
        println!("            {w}");
    }
    println!();
    println!(
        "the host can now charge at most {} instructions per event — a",
        r.fuel_bound
    );
    println!("machine-checked bound, not a runtime abort after the fact.");

    println!("\nand the loader says which path each program takes, and why:\n");
    let counter = "static int big = 0; if (size > 1000) { big = big + 1; } return 0;";
    for (name, src) in [
        ("fixed analyzer", GOOD),
        ("deep join", DEEP_JOIN),
        ("gated counter", counter),
    ] {
        let verified = verify(src, &EVENT_INPUTS, &limits).expect("admitted");
        explain_paths(name, verified.get());
    }
}
