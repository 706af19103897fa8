//! Verifier acceptance tests.
//!
//! Two halves and a boundary:
//!
//! 1. **Golden diagnostics** — one test per diagnostic code, pinning the
//!    code, severity, line number, and message wording. These are the
//!    contract operators script against; change them deliberately.
//! 2. **Soundness** — a seeded generator produces random well-formed
//!    programs; for each one the static fuel bound must dominate the
//!    fuel the VM actually consumes, and the optimized program must be
//!    observationally identical to the original (same returns, same
//!    `out()` stream, same trap behavior) across persistent-static runs.
//!    The same programs (generators in `gen/`) drive the shard sweep and
//!    the column backend's differential against the scalar row loop.
//!
//! Plus the hostile-source limits: text built to overflow a recursive
//! parser is a parse error, on a stack smaller than any the product uses.

use ecode::{
    verify, BatchEval, Diagnostic, ExecTier, Instance, MergeClass, MinMaxOp, Program, Severity,
    Type, Value, VerifyLimits,
};

mod gen;
use gen::{Gen, MergeGen, Rng};

const INPUTS: [(&str, Type); 2] = [("size", Type::Int), ("port", Type::Int)];

/// All findings for `src` under default limits, whether or not the
/// program was admitted.
fn diags(src: &str) -> Vec<Diagnostic> {
    match verify(src, &INPUTS, &VerifyLimits::default()) {
        Ok(v) => v.report().warnings.clone(),
        Err(e) => e.diagnostics,
    }
}

fn find<'a>(diags: &'a [Diagnostic], code: &str) -> &'a Diagnostic {
    diags
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("expected a {code} diagnostic, got {diags:#?}"))
}

#[test]
fn e0001_guaranteed_division_by_zero() {
    let ds = diags("return size / 0;");
    let d = find(&ds, "E0001");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.line, 1);
    assert_eq!(d.message, "division by zero: the divisor is always 0");
}

#[test]
fn e0001_guaranteed_modulo_by_zero_via_folded_divisor() {
    // The divisor is not literally zero, but interval analysis proves it.
    let ds = diags("int z = 2 - 2;\nreturn size % z;");
    let d = find(&ds, "E0001");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.line, 2);
    assert_eq!(d.message, "modulo by zero: the divisor is always 0");
}

#[test]
fn e0002_out_slot_always_out_of_range() {
    let ds = diags("out(99, 1.0);\nreturn 0;");
    let d = find(&ds, "E0002");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.line, 1);
    assert_eq!(
        d.message,
        "out() slot is always out of range: 99..=99 vs allowed 0..=63"
    );
}

#[test]
fn e0003_fuel_bound_over_budget() {
    let err = verify(
        "int a = size + 1;\nreturn a + a + a;",
        &INPUTS,
        &VerifyLimits::with_max_fuel(3),
    )
    .unwrap_err();
    let d = find(&err.diagnostics, "E0003");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.line, 0, "a fuel bound is a program-wide finding");
    assert!(
        d.message.contains("exceeds the host budget 3"),
        "got {:?}",
        d.message
    );
}

#[test]
fn e0004_compile_error_carries_line() {
    let ds = diags("int x = 1;\nint y = ;\nreturn x;");
    let d = find(&ds, "E0004");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.line, 2);
    assert!(
        d.message.starts_with("does not compile:"),
        "{:?}",
        d.message
    );
}

#[test]
fn w0001_possible_division_by_zero() {
    let ds = diags("return size / port;");
    let d = find(&ds, "W0001");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, 1);
    assert!(
        d.message.contains("division divisor may be zero"),
        "got {:?}",
        d.message
    );
}

#[test]
fn w0002_out_slot_may_be_out_of_range() {
    let ds = diags("out(size, 1.0);\nreturn 0;");
    let d = find(&ds, "W0002");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, 1);
    assert!(
        d.message.contains("out() slot may fall outside 0..=63"),
        "got {:?}",
        d.message
    );
}

#[test]
fn w0003_unused_static() {
    let ds = diags("static int n = 0;\nreturn size;");
    let d = find(&ds, "W0003");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, 1);
    assert_eq!(d.message, "static variable \"n\" is never read");
}

/// Unused statics sharing a line come out in declaration order, every
/// time: the rendered text reaches a `SubscribeNack`'s wire bytes, so
/// it may not follow a hash map's per-process iteration order.
#[test]
fn w0003_same_line_statics_keep_declaration_order() {
    let src = "static int a = 0; static int b = 0; static int c = 0; static int d = 0; return 0;";
    for _ in 0..50 {
        let names: Vec<String> = diags(src)
            .into_iter()
            .filter(|d| d.code == "W0003")
            .map(|d| d.message)
            .collect();
        assert_eq!(
            names,
            ["a", "b", "c", "d"].map(|n| format!("static variable \"{n}\" is never read")),
        );
    }
}

/// A static declared in a branch that returns is still declared: the
/// join forgets the branch's state, not the declaration.
#[test]
fn w0003_static_in_a_returning_branch() {
    let ds = diags("if (size > 0) {\nstatic int a = 0;\nreturn 1;\n}\nreturn 0;");
    let d = find(&ds, "W0003");
    assert_eq!(d.line, 2);
    assert_eq!(d.message, "static variable \"a\" is never read");
}

#[test]
fn w0004_unused_inputs_combined() {
    let ds = diags("return size;");
    let d = find(&ds, "W0004");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, 0);
    assert_eq!(d.message, "unused inputs: port");
}

#[test]
fn w0004_suppressed_when_no_input_is_read() {
    // Constant filters legitimately ignore every field.
    let ds = diags("return 1;");
    assert!(
        !ds.iter().any(|d| d.code == "W0004"),
        "constant programs must not warn about inputs: {ds:#?}"
    );
}

#[test]
fn w0005_dead_branch() {
    let ds = diags("if (2 < 1) { return 1; }\nreturn 0;");
    let d = find(&ds, "W0005");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, 1);
    assert_eq!(
        d.message,
        "condition is always false: the then branch never runs"
    );
}

/// A literal leg that decides `&&` / `||` makes the branch dead when
/// the other leg cannot trap or publish: the optimizer deletes it, and
/// the lint says so. A leg that can trap keeps its evaluation, and the
/// lint stays quiet as the optimizer keeps the branch.
#[test]
fn w0005_a_deciding_literal_leg_beside_a_pure_one() {
    let dead = |src: &str| diags(src).iter().any(|d| d.code == "W0005");
    assert!(dead("if (size > 0 && 1 > 2) { out(0, size); }\nreturn 0;"));
    assert!(dead(
        "if (size > 0 || 2 > 1) { return 1; } else { return 2; }"
    ));
    assert!(!dead(
        "if (size / port > 0 && 1 > 2) { out(0, size); }\nreturn 0;"
    ));
    assert!(!dead(
        "if (size > 0 && port > 2) { out(0, size); }\nreturn 0;"
    ));
}

#[test]
fn w0006_unreachable_after_return() {
    let ds = diags("return 0;\nreturn 1;");
    let d = find(&ds, "W0006");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, 2);
    assert_eq!(d.message, "unreachable code: every path already returned");
}

#[test]
fn w0007_uninitialized_local_read() {
    let ds = diags("int x;\nreturn x + size;");
    let d = find(&ds, "W0007");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, 2);
    assert!(
        d.message.contains("read before any assignment"),
        "got {:?}",
        d.message
    );
}

#[test]
fn w0008_inconsistent_returns() {
    let ds = diags("if (size > 0) { return 1; }\nreturn;");
    let d = find(&ds, "W0008");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, 2);
    assert!(d.message.contains("host sees 0"), "got {:?}", d.message);
}

#[test]
fn w0008_fall_off_the_end() {
    let ds = diags("if (size > 0) { return 1; }");
    let d = find(&ds, "W0008");
    assert_eq!(d.line, 0);
    assert!(
        d.message.contains("fall off the end"),
        "got {:?}",
        d.message
    );
}

#[test]
fn rejection_renders_rustc_style_with_source_excerpt() {
    let err = verify("return size / 0;", &INPUTS, &VerifyLimits::default()).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("error[E0001]"), "got:\n{text}");
    assert!(text.contains("--> line 1"), "got:\n{text}");
    assert!(text.contains("return size / 0;"), "got:\n{text}");
}

#[test]
fn report_shows_optimization_shrinking_the_bound() {
    let v = verify(
        "if (1 < 2) { return size; }\nreturn port;",
        &INPUTS,
        &VerifyLimits::default(),
    )
    .unwrap();
    let r = v.report();
    assert!(
        r.fuel_bound < r.unoptimized_fuel_bound,
        "dead-branch elimination should shrink the bound: {r:#?}"
    );
    assert!(r.code_len < r.unoptimized_code_len, "{r:#?}");
}

/// A guard leg that folds to `false` under `&&` decides the branch: a
/// pure other leg folds away with it, and so does the dead body, so the
/// bound is the fuel a run can actually spend, not that plus the guard
/// and a body no run reaches.
#[test]
fn a_folded_false_leg_takes_its_branch_out_of_the_bound() {
    let src = "static int s0 = 5;\nstatic int s1 = -2;\nstatic double d = 0.5;\n\
               d = d + size;\ns1 = port;\n\
               if (-9223372036854775807 != port && 0 == 9223372036854775807) {\n\
               s0 = s0 + -1;\nout(0, d / s1);\nreturn 1;\n}\nreturn 800 < s0;\n";
    let v = verify(src, &INPUTS, &VerifyLimits::default()).expect("verifies");
    let report = v.report();
    let mut most = 0;
    let mut inst = Instance::new(v.get());
    for (size, port) in [(0, 0), (1, -9223372036854775807), (7, 9), (-1, i64::MAX)] {
        let run = inst.run(&[Value::Int(size), Value::Int(port)], report.fuel_bound);
        most = most.max(run.expect("runs within its bound").fuel_used);
    }
    assert_eq!((report.fuel_bound, most), (11, 11));
}

// ---------------------------------------------------------------------
// Merge analysis: golden diagnostics and lattice classification.
// ---------------------------------------------------------------------

/// The merge plan for `src` under limits that admit everything else.
fn merge_plan(src: &str) -> ecode::MergePlan {
    let limits = VerifyLimits {
        max_fuel: u64::MAX,
        ..VerifyLimits::default()
    };
    verify(src, &INPUTS, &limits)
        .unwrap_or_else(|e| panic!("program should verify: {e}\n{src}"))
        .report()
        .merge_plan
        .clone()
}

fn class_of<'a>(plan: &'a ecode::MergePlan, name: &str) -> &'a MergeClass {
    &plan
        .slots
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no slot {name} in {plan:#?}"))
        .class
}

#[test]
fn merge_plan_classifies_the_lattice() {
    let plan = merge_plan(
        "static int hits = 0;\n\
         static int lo = 1000;\n\
         static int hi = 0;\n\
         static int flag = 0;\n\
         static int last = 0;\n\
         static int weird = 0;\n\
         hits = hits + 1;\n\
         lo = min(lo, size);\n\
         hi = max(hi, size - port);\n\
         if (size > 100) { flag = 7; }\n\
         last = size;\n\
         weird = weird * 2;\n\
         out(0, hits);\n\
         return lo + hi + last + weird;",
    );
    assert_eq!(class_of(&plan, "hits"), &MergeClass::Counter);
    assert_eq!(class_of(&plan, "lo"), &MergeClass::MinMax(MinMaxOp::Min));
    assert_eq!(class_of(&plan, "hi"), &MergeClass::MinMax(MinMaxOp::Max));
    assert_eq!(
        class_of(&plan, "flag"),
        &MergeClass::GatedWrite { value_bits: 7 }
    );
    assert_eq!(class_of(&plan, "last"), &MergeClass::LastWriteWins);
    assert!(
        matches!(class_of(&plan, "weird"), MergeClass::Opaque { .. }),
        "{plan:#?}"
    );
    assert!(!plan.fully_mergeable());
    let blocked: Vec<&str> = plan.unsafe_slots().map(|s| s.name.as_str()).collect();
    assert_eq!(blocked, ["last", "weird"]);
}

#[test]
fn merge_plan_read_only_and_unread_statics() {
    let plan = merge_plan("static int cfg = 9;\nreturn size + cfg;");
    assert_eq!(class_of(&plan, "cfg"), &MergeClass::ReadOnly);
    assert!(plan.fully_mergeable());
}

#[test]
fn float_accumulation_is_opaque_but_gated_doubles_merge() {
    // IEEE addition is not associative: the fold would drift per shard
    // count, so a float accumulator must force single-instance fallback.
    let plan = merge_plan("static double acc = 0.0;\nacc = acc + size;\nout(0, acc);\nreturn 0;");
    let MergeClass::Opaque { reason, .. } = class_of(&plan, "acc") else {
        panic!("float accumulator must be opaque: {plan:#?}");
    };
    assert!(reason.contains("floating-point"), "{reason}");

    // A gated write of a double constant is compared as raw bits — exact.
    let plan =
        merge_plan("static double seen = 0.0;\nif (size > 0) { seen = 2.5; }\nreturn seen > 1.0;");
    assert_eq!(
        class_of(&plan, "seen"),
        &MergeClass::GatedWrite {
            value_bits: 2.5f64.to_bits() as i64
        }
    );
}

/// The early-return shape that breaks naive "mark the branch body"
/// control-dependence schemes: the counter bump sits *after* the
/// static-guarded `if`, but only runs when the guard let execution fall
/// through — it is control-dependent and must not classify as Counter.
#[test]
fn store_after_a_static_guarded_early_return_is_opaque() {
    let plan = merge_plan(
        "static int g = 0;\n\
         static int count = 0;\n\
         if (g > 0) { return 1; }\n\
         count = count + 1;\n\
         return 0;",
    );
    assert!(
        matches!(class_of(&plan, "count"), MergeClass::Opaque { .. }),
        "store is control-dependent on g: {plan:#?}"
    );
}

/// Converse precision check: once a static-guarded branch rejoins,
/// later independent branches are *not* poisoned by it.
#[test]
fn rejoined_control_flow_does_not_poison_later_updates() {
    let plan = merge_plan(
        "static int g = 0;\n\
         static int c = 0;\n\
         if (g > 0) { out(0, 1); }\n\
         if (size > 0) { c = c + 1; }\n\
         return c + g;",
    );
    assert_eq!(class_of(&plan, "c"), &MergeClass::Counter, "{plan:#?}");
}

/// The join-laundering shape: both arms of a static-conditioned branch
/// assign a local an input-only value. The two cells abstract equal
/// (untainted `Mixed`), but the runtime value depends on which way the
/// static branch went — the delta fed to the counter is path-dependent,
/// so the slot must not classify as shard-safe.
#[test]
fn equal_looking_join_of_path_dependent_values_is_opaque() {
    let plan = merge_plan(
        "static int g = 0;\n\
         static int acc = 0;\n\
         int x = 0;\n\
         if (g > 0) { x = size; } else { x = port; }\n\
         acc = acc + x;\n\
         g = g + 1;\n\
         return acc;",
    );
    let MergeClass::Opaque { reason, .. } = class_of(&plan, "acc") else {
        panic!("path-dependent delta must be opaque: {plan:#?}");
    };
    assert!(reason.contains("depends on static state"), "{reason}");
    // The bump after the rejoin is path-independent and stays a counter.
    assert_eq!(class_of(&plan, "g"), &MergeClass::Counter, "{plan:#?}");

    // Converse precision: the same shape under an input-only condition
    // picks the delta from the event alone — still a mergeable counter.
    let plan = merge_plan(
        "static int acc = 0;\n\
         int x = 0;\n\
         if (size > 0) { x = size; } else { x = port; }\n\
         acc = acc + x;\n\
         return acc;",
    );
    assert_eq!(class_of(&plan, "acc"), &MergeClass::Counter, "{plan:#?}");
}

#[test]
fn m0001_opaque_slot_golden() {
    // Hand-written Opaque program: the increment is gated on the
    // counter's own value, so shards diverge on when the gate closes.
    let src = "static int n = 0;\nif (n < 100) { n = n + size; }\nreturn n;";
    // Without `require_mergeable` the program is admitted (plan Opaque).
    let v = verify(src, &INPUTS, &VerifyLimits::default()).expect("admissible single-instance");
    assert!(!v.report().merge_plan.fully_mergeable());
    // With it, rejection is a golden M0001.
    let err = verify(src, &INPUTS, &VerifyLimits::default().require_mergeable()).unwrap_err();
    let d = find(&err.diagnostics, "M0001");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.line, 0, "merge findings are program-wide");
    assert_eq!(
        d.message,
        "static variable \"n\" is not shard-mergeable: \
         store in the block at pc 4 is control-dependent on static state"
    );
}

/// One rule for a program the lowering refuses (here: over its 4096-op
/// limit): it runs on the checked interpreter, is never vectorized and
/// never sharded — every slot is `Opaque`, and the reason is the bail.
#[test]
fn m0001_not_lowered_golden() {
    let mut src = String::from("static int n = 0;\nstatic int hi = 0;\n");
    for d in 0..1024 {
        src.push_str(&format!("n = n + size % {};\n", d % 61 + 2));
    }
    src.push_str("hi = max(hi, port);\nreturn n;");
    let limits = VerifyLimits::with_max_fuel(10_000);
    let v = verify(&src, &INPUTS, &limits).expect("admissible single-instance");
    assert!(v.get().code_len() > 4096);
    assert_eq!(v.report().merge_plan.slots.len(), 2);
    for slot in &v.report().merge_plan.slots {
        let MergeClass::Opaque { reason, .. } = &slot.class else {
            panic!("unlowered program classified {slot:?}");
        };
        assert_eq!(reason, "not lowered: more than 4096 bytecode ops");
    }
    let err = verify(&src, &INPUTS, &limits.require_mergeable()).unwrap_err();
    assert_eq!(
        find(&err.diagnostics, "M0001").message,
        "static variable \"n\" is not shard-mergeable: \
         not lowered: more than 4096 bytecode ops"
    );
}

#[test]
fn m0001_last_write_wins_golden() {
    let src = "static int last = 0;\nlast = size;\nreturn last;";
    let err = verify(src, &INPUTS, &VerifyLimits::default().require_mergeable()).unwrap_err();
    let d = find(&err.diagnostics, "M0001");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.line, 0);
    assert_eq!(
        d.message,
        "static variable \"last\" is not shard-mergeable: last write wins \
         across shards and no tiebreak key is available"
    );
}

#[test]
fn w0009_mergeable_but_unused_golden() {
    let ds = diags("static int n = 0;\nn = n + 1;\nreturn size;");
    let d = find(&ds, "W0009");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, 0);
    assert_eq!(
        d.message,
        "static variable \"n\" is mergeable (counter) but its value never \
         escapes — it feeds no output, return, branch, or other static"
    );
    // Reading the counter anywhere silences the lint.
    let ds = diags("static int n = 0;\nn = n + 1;\nreturn n;");
    assert!(!ds.iter().any(|d| d.code == "W0009"), "{ds:#?}");
}

// ---------------------------------------------------------------------
// Hostile source: program text arrives over the wire, and every pass
// after the parser recurses on the AST. Past the fixed limits the answer
// must be a parse error (E0004 → SubscribeNack), never a stack overflow
// — which is an abort, not a panic, and takes the daemon with it.
// ---------------------------------------------------------------------

/// The four shapes that used to overflow the stack, `n` levels deep:
/// nested parentheses, a `!` tower, nested `if`s and a left-leaning
/// `1 + 1 + …` spine.
fn hostile_shapes(n: usize) -> [String; 4] {
    [
        format!("return {}1{};", "(".repeat(n), ")".repeat(n)),
        format!("return {}true;", "!".repeat(n)),
        format!("{}{}return 0;", "if (true) {".repeat(n), "}".repeat(n)),
        format!("return 1{};", " + 1".repeat(n)),
    ]
}

// These run on the harness's own test thread: 2 MiB by default, which
// the old parser overflowed at ~2,500 levels; `ci.sh` reruns them under
// `RUST_MIN_STACK=262144`, a stack smaller than any the product uses,
// to show the limits themselves are safe.

#[test]
fn hostile_source_is_a_parse_error_not_a_stack_overflow() {
    // 100,000 trips the byte limit; 5,000 fits in it and must trip the
    // depth limit instead.
    for n in [100_000, 5_000] {
        for src in hostile_shapes(n) {
            let compiled = Program::compile(&src, &INPUTS);
            assert!(
                matches!(compiled, Err(ecode::EcodeError::Parse { .. })),
                "n={n}: {compiled:?}"
            );
            let err = verify(&src, &INPUTS, &VerifyLimits::default())
                .expect_err("hostile source verified");
            assert_eq!(err.errors().next().unwrap().code, "E0004", "n={n}");
        }
    }
}

#[test]
fn hostile_limits_admit_everything_up_to_the_limit() {
    // Exactly at the depth limit every shape still compiles and
    // verifies; one level more does not.
    for src in hostile_shapes(32) {
        Program::compile(&src, &INPUTS).unwrap_or_else(|e| panic!("{e}\n{src}"));
        verify(&src, &INPUTS, &VerifyLimits::with_max_fuel(10_000))
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
    }
    for src in hostile_shapes(33) {
        assert!(Program::compile(&src, &INPUTS).is_err(), "{src}");
    }
    // A long flat program is not deep: size is bounded by bytes alone.
    let flat = format!(
        "static int n = 0;\n{}return n;",
        "n = n + 1;\n".repeat(4_000)
    );
    assert!(flat.len() < 64 * 1024);
    Program::compile(&flat, &INPUTS).expect("flat program compiles");
}

// ---------------------------------------------------------------------
// Soundness: generated programs.
// ---------------------------------------------------------------------

/// Differential soundness for one program over one input history
/// (statics persist across the runs, so order matters):
///
/// * the static fuel bound dominates observed fuel, for both the
///   original and the optimized program;
/// * the optimized program is observationally identical to the original
///   (return value, `out()` stream, and trap behavior per run);
/// * the tier `Instance::new` selects agrees with the per-op reference
///   on every observable, at the full budget and at starved budgets
///   that force mid-program aborts.
///
/// Returns whether the (unoptimized) program landed on the compiled
/// tier, so sweeps can assert a coverage floor — a silent
/// nothing-compiles regression would otherwise keep this green by
/// comparing the interpreter with itself.
fn check_soundness(src: &str, history: &[(i64, i64)]) -> bool {
    let orig = Program::compile(src, &INPUTS)
        .unwrap_or_else(|e| panic!("generator emitted invalid program: {e}\n{src}"));
    let orig_bound = orig.static_fuel_bound();

    let limits = VerifyLimits {
        max_fuel: u64::MAX,
        ..VerifyLimits::default()
    };
    let verified = verify(src, &INPUTS, &limits)
        .unwrap_or_else(|e| panic!("generator tripped the verifier: {e}\n{src}"));
    let (opt, report) = verified.into_parts();
    assert_eq!(report.unoptimized_fuel_bound, orig_bound, "{src}");
    assert!(
        report.fuel_bound <= report.unoptimized_fuel_bound,
        "optimization must never raise the bound: {report:#?}\n{src}"
    );

    let mut orig_inst = Instance::new(&orig);
    let mut opt_inst = Instance::new(&opt);
    for &(a, b) in history {
        let inputs = [Value::Int(a), Value::Int(b)];
        let r_orig = orig_inst.run(&inputs, orig_bound);
        let r_opt = opt_inst.run(&inputs, report.fuel_bound);
        match (r_orig, r_opt) {
            (Ok(o), Ok(p)) => {
                assert!(o.fuel_used <= orig_bound, "bound unsound on\n{src}");
                assert!(p.fuel_used <= report.fuel_bound, "bound unsound on\n{src}");
                assert_eq!(o.ret, p.ret, "inputs ({a}, {b}) on\n{src}");
                assert_eq!(o.outputs, p.outputs, "inputs ({a}, {b}) on\n{src}");
            }
            (Err(eo), Err(ep)) => assert_eq!(eo, ep, "inputs ({a}, {b}) on\n{src}"),
            (o, p) => panic!("trap divergence on inputs ({a}, {b}): {o:?} vs {p:?}\n{src}"),
        }
    }

    // Tier exactness: the closure-compiled tier (when selected) and
    // the checked per-op reference must report identical results,
    // outputs, statics, traps, and fuel. Over the same history, at the
    // full bound and at starved budgets that force mid-program aborts
    // (which also drive the compiled tier's per-op fallback).
    let tier = Instance::new(&orig).tier();
    for budget in [orig_bound, orig_bound / 2 + 1, 3, 1] {
        let mut top_inst = Instance::new(&orig); // compiled when eligible
        let mut ref_inst = Instance::new(&orig);
        assert_eq!(
            top_inst.tier(),
            tier,
            "tier selection must be deterministic"
        );
        for &(a, b) in history {
            let inputs = [Value::Int(a), Value::Int(b)];
            let r_top = run_sig(top_inst.run(&inputs, budget));
            let r_ref = run_sig(ref_inst.run_per_op(&inputs, budget));
            assert_eq!(
                r_top, r_ref,
                "{tier:?} tier diverged from per-op reference (budget {budget}, inputs ({a}, {b})) on\n{src}"
            );
            if let Ok((_, fuel, _)) = &r_ref {
                assert!(*fuel <= budget, "metering overdraft on\n{src}");
            }
            assert_eq!(top_inst.raw_globals(), ref_inst.raw_globals(), "{src}");
        }
    }
    tier == ExecTier::Compiled
}

/// Collapses a run result to its observable signature: ret, fuel used,
/// and the published outputs (trap results compare as the error).
#[allow(clippy::type_complexity)]
fn run_sig(
    r: Result<ecode::RunOutcome<'_>, ecode::EcodeError>,
) -> Result<(i64, u64, Vec<(i64, f64)>), ecode::EcodeError> {
    r.map(|o| (o.ret, o.fuel_used, o.outputs.to_vec()))
}

#[test]
fn generated_programs_bound_sound_and_optimizer_equivalent() {
    let mut sweep = Rng::new(0x5157_0f00d);
    let mut compiled = 0usize;
    for seed in 0..300u64 {
        let src = Gen::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1).program();
        let mut history = vec![
            (0, 0),
            (1, -1),
            (i64::MAX, i64::MIN),
            (-1, i64::MAX),
            (4096, 7),
        ];
        for _ in 0..3 {
            history.push((sweep.next() as i64, sweep.next() as i64));
        }
        if check_soundness(&src, &history) {
            compiled += 1;
        }
    }
    // Every generated program compiles today. One that stops compiling
    // lands on the interpreter — slower, and no longer a jit test — so a
    // lowering regression must fail here rather than slip under a floor.
    assert_eq!(
        compiled, 300,
        "only {compiled}/300 generated programs compiled; jit coverage regressed"
    );
}

// ---------------------------------------------------------------------
// Shard-differential soundness: any program the analysis calls fully
// mergeable must produce bit-identical statics under sequential vs.
// K-shard evaluation, for arbitrary event partitions. A mismatch here
// is a soundness bug in the classifier, not in the test.
// ---------------------------------------------------------------------

/// Runs the differential check on a fully mergeable program. Returns the
/// plan either way (coverage and precision accounting).
fn check_shard_exactness(src: &str, history: &[(i64, i64)], rng: &mut Rng) -> ecode::MergePlan {
    let limits = VerifyLimits {
        max_fuel: u64::MAX,
        ..VerifyLimits::default()
    };
    let verified = verify(src, &INPUTS, &limits)
        .unwrap_or_else(|e| panic!("generator tripped the verifier: {e}\n{src}"));
    let (program, report) = verified.into_parts();
    let plan = &report.merge_plan;
    if !plan.fully_mergeable() {
        return report.merge_plan;
    }
    let mut seq = Instance::new(&program);
    let mut seq_ref = Instance::new(&program);
    for &(a, b) in history {
        // Generated programs never trap (divisors are provably nonzero),
        // so the trap-free precondition of the exactness claim holds.
        seq.run(&[Value::Int(a), Value::Int(b)], report.fuel_bound)
            .unwrap_or_else(|e| panic!("generated program trapped: {e}\n{src}"));
        seq_ref
            .run_per_op(&[Value::Int(a), Value::Int(b)], report.fuel_bound)
            .unwrap();
    }
    // The sharded fold below is compared against the tier `Instance::new`
    // selected; the per-op reference must agree with it bit-for-bit
    // first, so shard exactness holds regardless of which tier replicas
    // run on.
    assert_eq!(
        seq.raw_globals(),
        seq_ref.raw_globals(),
        "tier divergence in sequential statics on\n{src}"
    );
    for k in [2usize, 3, 8] {
        let mut shards: Vec<Instance> = (0..k).map(|_| Instance::new(&program)).collect();
        for &(a, b) in history {
            // Arbitrary partition: shard-safety may not depend on *how*
            // events are split, only that each runs exactly once.
            let s = rng.below(k as u64) as usize;
            shards[s]
                .run(&[Value::Int(a), Value::Int(b)], report.fuel_bound)
                .unwrap();
        }
        // Fold in a rotated order too, so merge-order independence is
        // exercised along with the partition.
        let start = rng.below(k as u64) as usize;
        let mut merged = Instance::new(&program);
        for i in 0..k {
            merged
                .merge_from(&shards[(start + i) % k])
                .unwrap_or_else(|e| panic!("mergeable plan refused to fold: {e}\n{src}"));
        }
        assert_eq!(
            merged.raw_globals(),
            seq.raw_globals(),
            "K={k} shard fold diverged from sequential on\n{src}\nplan: {plan:#?}"
        );
    }
    report.merge_plan
}

#[test]
fn generated_mergeable_programs_shard_exactly() {
    let mut rng = Rng::new(0xd1f7_5eed);
    let (mut mergeable, mut fallback, mut read_only_plans) = (0u32, 0u32, 0u32);
    let mut slots = std::collections::BTreeMap::<&str, u32>::new();
    for seed in 0..300u64 {
        let per = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1;
        // Both generators share the sweep's seed schedule: MergeGen for
        // lattice coverage, Gen for adversarial shapes it doesn't emit.
        for src in [MergeGen::new(per).program(), Gen::new(per).program()] {
            let mut history = vec![(0, 0), (1, -1), (i64::MAX, i64::MIN), (4096, 7)];
            for _ in 0..8 {
                history.push((rng.next() as i64, rng.next() as i64 % 10_000));
            }
            let plan = check_shard_exactness(&src, &history, &mut rng);
            for slot in &plan.slots {
                *slots.entry(slot.class.describe()).or_default() += 1;
            }
            if !plan.fully_mergeable() {
                fallback += 1;
            } else if plan.slots.iter().any(|s| s.class != MergeClass::ReadOnly) {
                mergeable += 1;
            } else {
                read_only_plans += 1;
            }
        }
    }
    // Coverage floors: both the sharded path and the fallback path must
    // be exercised substantially, or the sweep is vacuous.
    assert!(mergeable >= 50, "only {mergeable} mergeable programs swept");
    assert!(fallback >= 50, "only {fallback} fallback programs swept");
    assert_eq!(mergeable + read_only_plans + fallback, 600);
    // Precision, not just soundness: a classifier that answered `Opaque`
    // everywhere would pass every check above. Generators and seeds are
    // fixed, so these are exact; they move only when the classifier (or
    // a generator) deliberately changes, with the reason stated.
    assert_eq!(
        (mergeable, read_only_plans, fallback),
        (184, 207, 209),
        "plans: updatable and fully mergeable, all read-only, not mergeable"
    );
    let want = [
        ("counter", 193),
        ("gated write", 76),
        ("last-write-wins", 132),
        ("max-fold", 107),
        ("min-fold", 119),
        ("opaque", 118),
        ("read-only", 471),
    ];
    assert_eq!(slots.into_iter().collect::<Vec<_>>(), want);
}

// ---------------------------------------------------------------------
// Column-backend differential: any program `BatchEval` accepts must leave
// statics and total fuel bit-identical to the scalar row loop, whatever
// the batch width. Same 600 programs as the shard sweep above.
// ---------------------------------------------------------------------

/// Runs `history` through `BatchEval` as columns (three batch widths)
/// and through the scalar `run_raw` row loop. Returns whether the
/// program vectorized at all (coverage accounting).
fn check_batch_exactness(src: &str, history: &[[i64; 2]]) -> bool {
    let limits = VerifyLimits {
        max_fuel: u64::MAX,
        ..VerifyLimits::default()
    };
    let verified = verify(src, &INPUTS, &limits)
        .unwrap_or_else(|e| panic!("generator tripped the verifier: {e}\n{src}"));
    let (program, report) = verified.into_parts();
    let Ok(mut be) = BatchEval::compile(&program) else {
        return false;
    };
    let mut scalar = Instance::new(&program);
    let mut scalar_fuel = 0u64;
    for row in history {
        // An accepted program has only constant nonzero divisors and a
        // fuel bound within budget, so the scalar loop cannot trap.
        scalar_fuel += scalar
            .run_raw(row, report.fuel_bound)
            .unwrap_or_else(|e| panic!("vectorized program trapped on the scalar path: {e}\n{src}"))
            .fuel_used;
    }
    let cols: [Vec<i64>; 2] = [
        history.iter().map(|r| r[0]).collect(),
        history.iter().map(|r| r[1]).collect(),
    ];
    // Width 1 (degenerate lanes), 7 (odd, never a SIMD multiple) and
    // the digest's chunk size of 4096 with a ragged tail.
    for width in [1usize, 7, 4096] {
        let mut vector = Instance::new(&program);
        let mut vector_fuel = 0u64;
        let mut at = 0;
        while at < history.len() {
            let n = width.min(history.len() - at);
            let batch = [&cols[0][at..at + n], &cols[1][at..at + n]];
            vector_fuel += be.run(&mut vector, &batch, n);
            at += n;
        }
        assert_eq!(
            vector.raw_globals(),
            scalar.raw_globals(),
            "statics diverge at batch width {width} on\n{src}"
        );
        assert_eq!(
            vector_fuel, scalar_fuel,
            "fuel diverges at batch width {width} on\n{src}"
        );
    }
    true
}

#[test]
fn generated_programs_batch_eval_matches_scalar_rows() {
    let mut rng = Rng::new(0xba7c_4e7a1);
    let mut history = vec![
        [0, 0],
        [1, -1],
        [i64::MAX, i64::MIN],
        [i64::MIN, i64::MAX],
        [-1, i64::MAX],
        [4096, 7],
    ];
    // Past one full 4096-row flush, so the widest mode splits too.
    while history.len() < 4096 + 37 {
        history.push([rng.next() as i64, rng.next() as i64 % 10_000]);
    }
    let mut vectorized = 0u32;
    for seed in 0..300u64 {
        let per = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1;
        for src in [MergeGen::new(per).program(), Gen::new(per).program()] {
            vectorized += check_batch_exactness(&src, &history) as u32;
        }
    }
    // Floor pinned at the count the stack-walking vectorizer accepted
    // before the shared lowering existed: the column backend may learn
    // to accept more, never fewer.
    assert!(
        vectorized >= 76,
        "only {vectorized}/600 generated programs vectorized (floor 76)"
    );
}

// ---------------------------------------------------------------------
// Near-valid wire text: program text arrives over the wire, and `verify`
// runs it through `validate` and the lowering, whose internal `expect`s
// assume compiler output. Random bytes (`prop_verify_total`) die in the
// parser; sweep programs with a token or two edited do not.
// ---------------------------------------------------------------------

/// `src` split the way the lexer would, near enough to edit: runs of
/// word characters (identifiers, keywords, literals), two-character
/// operators, and single punctuation marks.
fn tokens(src: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let word = |c: char| c.is_alphanumeric() || c == '_' || c == '.';
    let mut prev = ' ';
    for c in src.chars() {
        let joins = (word(prev) && word(c))
            || (matches!(prev, '=' | '!' | '<' | '>') && c == '=')
            || (matches!(prev, '&' | '|') && c == prev);
        match out.last_mut() {
            Some(last) if joins => last.push(c),
            _ if !c.is_whitespace() => out.push(c.to_string()),
            _ => {}
        }
        prev = c;
    }
    out
}

/// One token-level edit: delete, duplicate, swap two, or overwrite a
/// literal (any token, if there is no literal) with an extreme one.
fn mutate(tokens: &mut Vec<String>, rng: &mut Rng) {
    const EXTREME: [&str; 8] = [
        "0",
        "9223372036854775807",
        "9223372036854775808",
        "4294967296",
        "65536",
        "0.0",
        "1e308",
        "1e-320",
    ];
    if tokens.is_empty() {
        return;
    }
    let n = tokens.len() as u64;
    let at = rng.below(n) as usize;
    match rng.below(4) {
        0 => drop(tokens.remove(at)),
        1 => tokens.insert(at, tokens[at].clone()),
        2 => tokens.swap(at, rng.below(n) as usize),
        _ => {
            let literals: Vec<usize> = (0..tokens.len())
                .filter(|&i| tokens[i].starts_with(|c: char| c.is_ascii_digit()))
                .collect();
            let at = match literals.len() {
                0 => at,
                n => literals[rng.below(n as u64) as usize],
            };
            tokens[at] = EXTREME[rng.below(8) as usize].to_owned();
        }
    }
}

/// 64 seeds × 2 generators × 16 mutants, each a sweep program with one
/// or two token-level edits, in sweep order.
fn mutants() -> Vec<String> {
    let mut rng = Rng::new(0x6d75_7461_7465);
    let mut out = Vec::with_capacity(2048);
    for seed in 0..64u64 {
        let per = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1;
        for base in [Gen::new(per).program(), MergeGen::new(per).program()] {
            let tokens = tokens(&base);
            for _ in 0..16 {
                let mut mutant = tokens.clone();
                for _ in 0..1 + rng.below(2) {
                    mutate(&mut mutant, &mut rng);
                }
                out.push(mutant.join(" "));
            }
        }
    }
    out
}

/// A panic anywhere fails the test; the floor keeps it from going
/// vacuous (mutants that no longer parse exercise nothing past the
/// parser).
#[test]
fn generated_programs_mutated_never_panic_the_verifier() {
    let (mut cases, mut compiled) = (0u32, 0u32);
    for src in mutants() {
        let _ = verify(&src, &INPUTS, &VerifyLimits::default().require_mergeable());
        cases += 1;
        compiled += Program::compile(&src, &INPUTS).is_ok() as u32;
    }
    assert_eq!(cases, 2048);
    assert!(
        compiled >= 200,
        "only {compiled} of {cases} mutants compiled"
    );
}

/// FNV-1a, 64-bit, over a sequence of strings (each closed by a 0xff
/// byte, which UTF-8 never contains).
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, s: &str) {
        for b in s.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// What `verify` says about `src`: the rendered rejection, or the whole
/// report (fuel bounds, code lengths, merge plan, warnings), the
/// admitted program's `Debug` (its bytecode, input and static layout)
/// and what its executors are built as ([`executors`]).
fn verify_outcome(src: &str, limits: &VerifyLimits) -> String {
    match verify(src, &INPUTS, limits) {
        Ok(v) => {
            let (program, report) = v.into_parts();
            format!("ok {report:?}\n{program:?}\n{}", executors(&program))
        }
        Err(e) => format!("err {e}"),
    }
}

/// What `Program::compile` says about `src`, and for a program it
/// accepts what its executors are built as.
fn compile_outcome(src: &str) -> String {
    match Program::compile(src, &INPUTS) {
        Ok(p) => format!("ok {p:?}\n{}", executors(&p)),
        Err(e) => format!("err {e}"),
    }
}

/// The executors an install builds from `program`: the compiled tier's
/// shape (whole path, specialized and reachable blocks) and bail, and
/// the column backend's vector ops and pools, or why it refused.
fn executors(program: &Program) -> String {
    let inst = Instance::new(program);
    format!(
        "{:?} {:?} {:?}",
        inst.compiled_shape(),
        inst.compile_bail(),
        BatchEval::compile(program)
    )
}

/// The verifier's whole transcript over the sweep corpus, as one hash:
/// the 2,048 mutants (verified as the never-panic sweep does) and the
/// generators' 600 programs (under default limits), each also through
/// `Program::compile`. A front-end change that keeps every diagnostic,
/// bound and bytecode keeps this value; one that moves any of them
/// states why here.
///
/// Pinned with the unused-static order fixed (declaration order), then
/// re-pinned once for the optimizer's `e && false` / `e || true` fold,
/// which changed the admitted bytecode of 6 of these programs (and the
/// outcome of no `Program::compile`). Re-pinned once more when the
/// checker took the optimizer's pure-leg rule (`W0005` on 4 programs;
/// 2 of them also lost the `W0001`s of a body now known dead, and one
/// of those gained a `W0007` for a local that body declared) and
/// `W0003` came to read declarations (no program here moved): no
/// bytecode, bound, plan or accept/reject outcome changed.
/// Re-based when `Program`'s `Debug` stopped printing its cached
/// lowering (IR, compiled graph, merge plan) and the transcript took
/// each accepted program's executors instead ([`executors`]): a
/// per-program dump before and after showed no diagnostic, bytecode,
/// bound or merge plan moved. A change to the lowering that keeps the
/// compiled shapes, bails and column ops keeps this value.
#[test]
fn verifier_transcript_is_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut programs = 0u32;
    let require = VerifyLimits::default().require_mergeable();
    for src in mutants() {
        h.add(&verify_outcome(&src, &require));
        h.add(&compile_outcome(&src));
        programs += 1;
    }
    for seed in 0..300u64 {
        let per = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1;
        for src in [Gen::new(per).program(), MergeGen::new(per).program()] {
            h.add(&verify_outcome(&src, &VerifyLimits::default()));
            h.add(&compile_outcome(&src));
            programs += 1;
        }
    }
    assert_eq!(programs, 2648);
    assert_eq!(
        h.0, 0xa21c_1e98_2399_6cf4,
        "verifier transcript moved: {:#018x}",
        h.0
    );
}

#[cfg(test)]
mod merge_props {
    use super::*;
    use proptest::prelude::*;

    /// One program per shard-safe lattice class (label, source).
    const CLASS_PROGRAMS: [(&str, &str); 4] = [
        (
            "counter",
            "static int s = 5;\ns = s + size;\ns = s - port;\nreturn s;",
        ),
        (
            "min-fold",
            "static int s = 1000;\ns = min(s, size);\nreturn s;",
        ),
        (
            "max-fold",
            "static int s = -1000;\ns = max(s, size);\nreturn s;",
        ),
        (
            "gated",
            "static int s = 3;\nif (size > port) { s = 42; }\nreturn s;",
        ),
    ];

    fn fold(a: &Instance, b: &Instance) -> Instance {
        let mut x = a.clone();
        x.merge_from(b).expect("shard-safe plan folds");
        x
    }

    proptest! {
        /// Per lattice class: the merge fold is commutative and
        /// associative on raw bits, with the fresh instance as identity.
        /// These are exactly the properties that make "fold shards in
        /// any order" equal to sequential evaluation.
        #[test]
        fn prop_merge_fold_is_assoc_comm_with_identity(
            events in proptest::collection::vec((any::<i64>(), any::<i64>(), 0usize..3), 0..24),
        ) {
            for (label, src) in CLASS_PROGRAMS {
                let v = verify(src, &INPUTS, &VerifyLimits::default().require_mergeable())
                    .expect(label);
                let (program, report) = v.into_parts();
                let mut insts =
                    [Instance::new(&program), Instance::new(&program), Instance::new(&program)];
                for &(x, y, which) in &events {
                    insts[which]
                        .run(&[Value::Int(x), Value::Int(y)], report.fuel_bound)
                        .expect("lattice programs never trap");
                }
                let [a, b, c] = &insts;
                let ab = fold(a, b);
                let ba = fold(b, a);
                prop_assert_eq!(ab.raw_globals(), ba.raw_globals(), "{} commutes", label);
                let ab_c = fold(&ab, c);
                let bc = fold(b, c);
                let a_bc = fold(a, &bc);
                prop_assert_eq!(ab_c.raw_globals(), a_bc.raw_globals(), "{} associates", label);
                let fresh = Instance::new(&program);
                let a_id = fold(a, &fresh);
                prop_assert_eq!(a_id.raw_globals(), a.raw_globals(), "{} identity", label);
            }
        }

        /// Proptest arm of the shard-differential sweep: random seeds,
        /// random histories, random partitions.
        #[test]
        fn prop_mergeable_programs_shard_exactly(
            seed in any::<u64>(),
            part_seed in any::<u64>(),
            history in proptest::collection::vec((any::<i64>(), any::<i64>()), 0..12),
        ) {
            let mut rng = Rng::new(part_seed);
            let src = MergeGen::new(seed).program();
            check_shard_exactness(&src, &history, &mut rng);
        }
    }
}

#[cfg(test)]
mod props {
    #[allow(unused_imports)]
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Fuel-bound soundness and optimizer equivalence over
        /// proptest-chosen seeds and inputs (the deterministic sweep
        /// above covers fixed seeds; this explores further).
        #[test]
        fn prop_bound_sound_and_optimizer_equivalent(
            seed in any::<u64>(),
            a in any::<i64>(),
            b in any::<i64>(),
            c in any::<i64>(),
            d in any::<i64>(),
        ) {
            let src = Gen::new(seed).program();
            let _ = check_soundness(&src, &[(a, b), (c, d), (b, a), (0, 0)]);
        }

        /// The verifier is total: arbitrary source never panics it.
        #[test]
        fn prop_verify_total(src in ".{0,200}") {
            let _ = verify(&src, &INPUTS, &VerifyLimits::default());
        }
    }
}
