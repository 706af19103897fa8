//! Static worst-case fuel bound.
//!
//! E-Code has no loops, so compiled bytecode only ever jumps **forward**:
//! the program is a DAG and the most expensive execution is the longest
//! root-to-`Ret` path. One backwards dynamic-programming sweep computes it
//! exactly — `bound[pc]` is the worst-case number of instructions executed
//! starting at `pc` (each instruction costs 1 fuel, matching the VM).

use crate::vm::Op;

/// Exact worst-case fuel for a compiled program.
///
/// The VM charges 1 fuel per instruction before executing it, so a run
/// with `fuel >= max_fuel(code)` can never abort with `OutOfFuel`.
pub(crate) fn max_fuel(code: &[Op]) -> u64 {
    let n = code.len();
    // bound[n] = 0 lets straight-line fall-through index one past the end
    // without a branch (the compiler always terminates code with RetVoid,
    // so the slot is never actually reached).
    let mut bound = vec![0u64; n + 1];
    for pc in (0..n).rev() {
        // The compiler only emits forward jumps; clamp defensively so a
        // malformed target can never make the analysis loop or panic.
        let fwd = |t: u32| -> u64 { bound[(t as usize).clamp(pc + 1, n)] };
        bound[pc] = 1 + match code[pc] {
            Op::Ret | Op::RetVoid => 0,
            Op::Jmp(t) => fwd(t),
            Op::JmpIfFalse(t) => bound[pc + 1].max(fwd(t)),
            _ => bound[pc + 1],
        };
    }
    bound[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Instance, Program, Type, Value};

    fn bound_of(src: &str, inputs: &[(&str, Type)]) -> (Program, u64) {
        let p = Program::compile(src, inputs).expect("compiles");
        let b = max_fuel(p.code());
        (p, b)
    }

    #[test]
    fn straight_line_bound_is_exact() {
        let (p, bound) = bound_of("return 2 + 3;", &[]);
        let mut inst = Instance::new(&p);
        let used = inst.run(&[], 1_000).unwrap().fuel_used;
        assert_eq!(bound, used, "no branches: bound is the exact cost");
    }

    #[test]
    fn branch_bound_covers_the_expensive_arm() {
        let src = r#"
            int y = 0;
            if (x > 0) { y = x * 2 + 1; } else { y = 1; }
            return y;
        "#;
        let (p, bound) = bound_of(src, &[("x", Type::Int)]);
        let mut costly_inst = Instance::new(&p);
        let costly = costly_inst.run(&[Value::Int(5)], 1_000).unwrap().fuel_used;
        let mut cheap_inst = Instance::new(&p);
        let cheap = cheap_inst.run(&[Value::Int(-5)], 1_000).unwrap().fuel_used;
        assert!(costly > cheap);
        assert_eq!(bound, costly, "bound equals the longest path");
    }

    #[test]
    fn bound_is_sufficient_fuel() {
        let src = "static int n = 0; if (x > 10 && x < 100) { n = n + 1; } return n;";
        let (p, bound) = bound_of(src, &[("x", Type::Int)]);
        for x in [-5i64, 0, 11, 50, 99, 100, 1_000] {
            let mut inst = Instance::new(&p);
            let r = inst.run(&[Value::Int(x)], bound);
            assert!(r.is_ok(), "bound fuel must always suffice (x={x}): {r:?}");
        }
    }

    #[test]
    fn dead_code_after_return_does_not_inflate_the_bound() {
        let (_, with_dead) = bound_of("return 1; 2 + 2;", &[]);
        let (_, without) = bound_of("return 1;", &[]);
        assert_eq!(with_dead, without);
    }
}
