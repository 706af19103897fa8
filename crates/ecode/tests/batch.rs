//! Batch-entry and strength-reduction differentials.
//!
//! `Instance::run_raw_batch` is documented as *exactly* a per-row
//! `run_raw` loop with the per-call setup hoisted — same outcomes, same
//! statics evolution, and the same trap at the same row. These tests
//! hold it to that contract compiled and not compiled, across budgets
//! that exercise the whole-program fast path (budget ≥ worst-case path)
//! and the per-block driver (starved budgets, mid-window aborts).
//!
//! The divisibility tests pin the compiled tier's strength-reduced
//! `g % c == 0` (mask + multiplicative-inverse, no hardware division)
//! against the per-op reference on the values where such reductions
//! classically go wrong: negatives, `i64::MIN`, powers of two, odd and
//! mixed divisors, and `c == 1`.

use ecode::{EcodeError, ExecTier, Instance, Program, Type, Value};

const INPUTS: [(&str, Type); 2] = [("size", Type::Int), ("port", Type::Int)];

/// Representative shapes for the batch contract: the guarded-reporter
/// whole-path shape, a divisibility-gated counter, a min/max fold, and
/// an input-dependent trap (division by a sometimes-zero input).
const BATCH_PROGRAMS: [&str; 4] = [
    "static int n = 0;\nstatic double acc = 0.0;\nn = n + 1;\nacc = acc + size;\nif (size > 800 && port == 80) { out(0, acc / n); return 1; }\nreturn 0;",
    "static int seen = 0;\nseen = seen + 1;\nreturn seen % 100 == 0;",
    "static int lo = 9223372036854775807;\nstatic int hi = 0;\nlo = min(lo, size);\nhi = max(hi, size);\nreturn hi - lo;",
    "return size / port;",
];

type Sig = (
    Vec<(i64, u64, Vec<(i64, f64)>)>,
    Option<EcodeError>,
    Vec<i64>,
);

fn batch_sig(inst: &mut Instance, rows: &[i64], fuel: u64) -> Sig {
    let mut sunk = Vec::new();
    let err = inst
        .run_raw_batch(rows, fuel, |o| {
            sunk.push((o.ret, o.fuel_used, o.outputs.to_vec()))
        })
        .err();
    (sunk, err, inst.raw_globals().to_vec())
}

fn scalar_sig(inst: &mut Instance, rows: &[i64], fuel: u64) -> Sig {
    let mut sunk = Vec::new();
    let mut err = None;
    for row in rows.chunks_exact(2) {
        match inst.run_raw(row, fuel) {
            Ok(o) => sunk.push((o.ret, o.fuel_used, o.outputs.to_vec())),
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    (sunk, err, inst.raw_globals().to_vec())
}

fn window() -> Vec<i64> {
    // 257 rows (not a power of two) mixing guard hits (size > 800 with
    // port == 80), misses, and zero ports (trap rows for `size / port`).
    let mut rows = Vec::with_capacity(2 * 257);
    for i in 0..257i64 {
        rows.push(200 + (i % 9) * 150);
        rows.push(if i % 3 == 0 { 80 } else { i % 5 });
    }
    rows
}

#[test]
fn run_raw_batch_matches_per_row_run_raw() {
    let rows = window();
    for src in BATCH_PROGRAMS {
        let p = Program::compile(src, &INPUTS).unwrap();
        let bound = p.static_fuel_bound();
        // Budgets straddling the whole-path gate (≥ worst-case path uses
        // the straight-line fast path; anything lower drives per block)
        // plus starved budgets that abort mid-program.
        for budget in [bound, bound.saturating_sub(2), bound / 2 + 1, 3] {
            for mk in [
                Instance::new as fn(&Program) -> Instance,
                Instance::new_fused,
            ] {
                let b = batch_sig(&mut mk(&p), &rows, budget);
                let s = scalar_sig(&mut mk(&p), &rows, budget);
                assert_eq!(
                    b, s,
                    "batch diverged from per-row scalar (budget {budget}) on\n{src}"
                );
            }
        }
    }
}

#[test]
fn run_raw_batch_rejects_ragged_windows() {
    let p = Program::compile(BATCH_PROGRAMS[0], &INPUTS).unwrap();
    let bound = p.static_fuel_bound();
    let mut inst = Instance::new(&p);
    let before = inst.raw_globals().to_vec();
    let mut sunk = 0usize;
    let err = inst.run_raw_batch(&[1, 2, 3], bound, |_| sunk += 1);
    assert!(matches!(err, Err(EcodeError::BadInputs(_))), "{err:?}");
    assert_eq!(sunk, 0, "a ragged window must execute nothing");
    assert_eq!(inst.raw_globals(), &before[..], "statics must be untouched");
}

#[test]
fn divisibility_tests_match_reference_on_edge_values() {
    // Divisors by reduction class: 1 (always divisible), powers of two
    // (mask only), odd (inverse only), mixed even (mask + inverse), and
    // the largest odd divisor.
    let divisors: [i64; 7] = [1, 2, 7, 8, 100, 4096, i64::MAX];
    let values: [i64; 18] = [
        0,
        1,
        -1,
        2,
        -2,
        7,
        -7,
        8,
        -8,
        100,
        -100,
        4095,
        4096,
        -4096,
        i64::MAX,
        i64::MAX - 1,
        i64::MIN,
        i64::MIN + 1,
    ];
    for c in divisors {
        for op in ["==", "!="] {
            let src = format!("static int g = 0;\ng = size;\nreturn g % {c} {op} 0;");
            let p = Program::compile(&src, &INPUTS).unwrap();
            let bound = p.static_fuel_bound();
            let mut comp = Instance::new(&p);
            assert_eq!(
                comp.tier(),
                ExecTier::Compiled,
                "divisibility shape must take the compiled tier:\n{src}"
            );
            let mut refr = Instance::new(&p);
            for v in values {
                let want = refr
                    .run_per_op(&[Value::Int(v), Value::Int(0)], bound)
                    .map(|o| o.ret)
                    .unwrap();
                assert_eq!(want, ((v % c == 0) == (op == "==")) as i64, "reference");
                let got = comp.run_raw(&[v, 0], bound).map(|o| o.ret).unwrap();
                assert_eq!(got, want, "compiled diverged at g = {v} on\n{src}");
            }
        }
    }
}
