//! AST-level optimizations: constant folding and dead-code elimination.
//!
//! The optimizer only rewrites what it can prove with *literal* operands
//! and mirrors the VM's semantics exactly (wrapping `i64` arithmetic,
//! short-circuit evaluation, `int` → `double` promotion), so an optimized
//! program is observationally equivalent to its original — same return
//! value and same `out()` stream — while costing less fuel.
//!
//! One subtlety: E-Code has a **flat variable namespace** (a declaration
//! inside an `if` branch is visible to everything after it), and locals
//! are zero-initialized whether or not their declaration executes. Dead
//! code is therefore not simply deleted — its declarations are *hoisted*
//! (locals lose their initializer, statics keep their constant one) so
//! later references still resolve and behave identically.

use crate::parser::{BinOp, Expr, Stmt, UnOp};

/// Optimizes a whole program (statement list).
pub(crate) fn optimize(stmts: &[Stmt]) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    block(stmts, &mut out);
    out
}

/// Optimizes one block into `out`, handling unreachable-after-return.
fn block(stmts: &[Stmt], out: &mut Vec<Stmt>) {
    let mut returned = false;
    for s in stmts {
        if returned {
            // Everything after a return only matters for name resolution.
            hoist_decls(std::slice::from_ref(s), out);
            continue;
        }
        returned = stmt(s, out);
    }
}

/// Optimizes one statement into `out`; returns whether it definitely
/// returns (so the caller can prune what follows).
fn stmt(s: &Stmt, out: &mut Vec<Stmt>) -> bool {
    match s {
        Stmt::Decl {
            is_static,
            ty,
            name,
            init,
            line,
        } => {
            out.push(Stmt::Decl {
                is_static: *is_static,
                ty: *ty,
                name: name.clone(),
                init: init.as_ref().map(fold),
                line: *line,
            });
            false
        }
        Stmt::Assign { name, expr, line } => {
            out.push(Stmt::Assign {
                name: name.clone(),
                expr: fold(expr),
                line: *line,
            });
            false
        }
        Stmt::If {
            cond,
            then_block,
            else_block,
            line,
        } => match fold(cond) {
            // A literal condition selects one branch at compile time; the
            // other branch contributes only its (hoisted) declarations.
            Expr::Bool(true) => {
                hoist_decls(else_block, out);
                let mut ret = false;
                for s in then_block {
                    if ret {
                        hoist_decls(std::slice::from_ref(s), out);
                    } else {
                        ret = stmt(s, out);
                    }
                }
                ret
            }
            Expr::Bool(false) => {
                hoist_decls(then_block, out);
                let mut ret = false;
                for s in else_block {
                    if ret {
                        hoist_decls(std::slice::from_ref(s), out);
                    } else {
                        ret = stmt(s, out);
                    }
                }
                ret
            }
            cond => {
                let mut then_opt = Vec::with_capacity(then_block.len());
                block(then_block, &mut then_opt);
                let mut else_opt = Vec::with_capacity(else_block.len());
                block(else_block, &mut else_opt);
                out.push(Stmt::If {
                    cond,
                    then_block: then_opt,
                    else_block: else_opt,
                    line: *line,
                });
                false
            }
        },
        Stmt::Return { expr, line } => {
            out.push(Stmt::Return {
                expr: expr.as_ref().map(fold),
                line: *line,
            });
            true
        }
        Stmt::Expr { expr, line } => {
            let expr = fold(expr);
            // An expression statement with no observable effect (no
            // `out()`, cannot trap) is pure fuel waste.
            if has_effect(&expr) {
                out.push(Stmt::Expr { expr, line: *line });
            }
            false
        }
    }
}

/// Emits only the declarations from dead statements, recursively. Locals
/// lose their initializer (they are zero-initialized either way, and the
/// initializer never ran); statics keep theirs (it is a compile-time
/// constant registered whether or not the code executes).
fn hoist_decls(stmts: &[Stmt], out: &mut Vec<Stmt>) {
    for s in stmts {
        match s {
            Stmt::Decl {
                is_static,
                ty,
                name,
                init,
                line,
            } => out.push(Stmt::Decl {
                is_static: *is_static,
                ty: *ty,
                name: name.clone(),
                init: if *is_static { init.clone() } else { None },
                line: *line,
            }),
            Stmt::If {
                then_block,
                else_block,
                ..
            } => {
                hoist_decls(then_block, out);
                hoist_decls(else_block, out);
            }
            _ => {}
        }
    }
}

/// Could evaluating this expression be observed? `out()` publishes;
/// `/` and `%` can trap (the optimizer has no type information here, so
/// it conservatively treats even float division as effectful).
fn has_effect(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Double(_) | Expr::Bool(_) | Expr::Var(_) => false,
        Expr::Un { expr, .. } => has_effect(expr),
        Expr::Bin { op, lhs, rhs, .. } => {
            matches!(op, BinOp::Div | BinOp::Mod) || has_effect(lhs) || has_effect(rhs)
        }
        Expr::Call { name, args, .. } => name == "out" || args.iter().any(has_effect),
    }
}

/// Constant-folds an expression bottom-up. Only all-literal subtrees are
/// rewritten, with the VM's exact semantics; anything else is preserved.
fn fold(e: &Expr) -> Expr {
    match e {
        Expr::Int(_) | Expr::Double(_) | Expr::Bool(_) | Expr::Var(_) => e.clone(),
        Expr::Un { op, expr, line } => {
            let inner = fold(expr);
            match (op, &inner) {
                (UnOp::Neg, Expr::Int(v)) => Expr::Int(v.wrapping_neg()),
                (UnOp::Neg, Expr::Double(v)) => Expr::Double(-v),
                (UnOp::Not, Expr::Bool(v)) => Expr::Bool(!v),
                _ => Expr::Un {
                    op: *op,
                    expr: Box::new(inner),
                    line: *line,
                },
            }
        }
        Expr::Bin { op, lhs, rhs, line } => fold_bin(*op, lhs, rhs, *line),
        Expr::Call { name, args, line } => {
            let args: Vec<Expr> = args.iter().map(fold).collect();
            fold_call(name, args, *line)
        }
    }
}

fn fold_bin(op: BinOp, lhs: &Expr, rhs: &Expr, line: u32) -> Expr {
    let l = fold(lhs);

    // Short-circuit operators: the VM never evaluates the rhs when the
    // lhs decides, so a literal lhs folds without touching the rhs.
    if matches!(op, BinOp::And | BinOp::Or) {
        return match (op, &l) {
            (BinOp::And, Expr::Bool(false)) => Expr::Bool(false),
            (BinOp::Or, Expr::Bool(true)) => Expr::Bool(true),
            (BinOp::And, Expr::Bool(true)) | (BinOp::Or, Expr::Bool(false)) => fold(rhs),
            _ => Expr::Bin {
                op,
                lhs: Box::new(l),
                rhs: Box::new(fold(rhs)),
                line,
            },
        };
    }

    let r = fold(rhs);
    let keep = |l: Expr, r: Expr| Expr::Bin {
        op,
        lhs: Box::new(l),
        rhs: Box::new(r),
        line,
    };

    match (&l, &r) {
        (Expr::Int(a), Expr::Int(b)) => {
            let (a, b) = (*a, *b);
            match op {
                BinOp::Add => Expr::Int(a.wrapping_add(b)),
                BinOp::Sub => Expr::Int(a.wrapping_sub(b)),
                BinOp::Mul => Expr::Int(a.wrapping_mul(b)),
                // Never fold a division by literal zero: the runtime trap
                // (and the checker's E0001) is the defined behavior.
                BinOp::Div if b != 0 => Expr::Int(a.wrapping_div(b)),
                BinOp::Mod if b != 0 => Expr::Int(a.wrapping_rem(b)),
                BinOp::Div | BinOp::Mod => keep(l, r),
                BinOp::Eq => Expr::Bool(a == b),
                BinOp::Ne => Expr::Bool(a != b),
                BinOp::Lt => Expr::Bool(a < b),
                BinOp::Le => Expr::Bool(a <= b),
                BinOp::Gt => Expr::Bool(a > b),
                BinOp::Ge => Expr::Bool(a >= b),
                BinOp::And | BinOp::Or => keep(l, r),
            }
        }
        (Expr::Bool(a), Expr::Bool(b)) => match op {
            // The compiler types `bool == bool` as int 0/1, so fold to an
            // int literal to preserve the expression's type.
            BinOp::Eq => Expr::Int((a == b) as i64),
            BinOp::Ne => Expr::Int((a != b) as i64),
            _ => keep(l, r),
        },
        // Mixed or double arithmetic: the VM promotes int to f64 first.
        _ => {
            let (Some(a), Some(b)) = (as_f64(&l), as_f64(&r)) else {
                return keep(l, r);
            };
            match op {
                BinOp::Add => Expr::Double(a + b),
                BinOp::Sub => Expr::Double(a - b),
                BinOp::Mul => Expr::Double(a * b),
                BinOp::Div => Expr::Double(a / b),
                BinOp::Eq => Expr::Bool(a == b),
                BinOp::Ne => Expr::Bool(a != b),
                BinOp::Lt => Expr::Bool(a < b),
                BinOp::Le => Expr::Bool(a <= b),
                BinOp::Gt => Expr::Bool(a > b),
                BinOp::Ge => Expr::Bool(a >= b),
                BinOp::Mod | BinOp::And | BinOp::Or => keep(l, r),
            }
        }
    }
}

/// Numeric literal as f64, for mixed-type folding.
fn as_f64(e: &Expr) -> Option<f64> {
    match e {
        Expr::Int(v) => Some(*v as f64),
        Expr::Double(v) => Some(*v),
        _ => None,
    }
}

fn fold_call(name: &str, args: Vec<Expr>, line: u32) -> Expr {
    // `out` and anything unexpected fall through to `None` untouched.
    let folded = match (name, args.as_slice()) {
        ("abs", [Expr::Int(v)]) => Some(Expr::Int(v.wrapping_abs())),
        ("abs", [Expr::Double(v)]) => Some(Expr::Double(v.abs())),
        ("min", [Expr::Int(a), Expr::Int(b)]) => Some(Expr::Int(*a.min(b))),
        ("max", [Expr::Int(a), Expr::Int(b)]) => Some(Expr::Int(*a.max(b))),
        ("min" | "max", [a, b]) => match (as_f64(a), as_f64(b)) {
            (Some(x), Some(y)) => Some(Expr::Double(if name == "min" {
                x.min(y)
            } else {
                x.max(y)
            })),
            _ => None,
        },
        _ => None,
    };
    folded.unwrap_or_else(|| Expr::Call {
        name: name.to_owned(),
        args,
        line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn opt(src: &str) -> Vec<Stmt> {
        optimize(&parse(src).unwrap())
    }

    #[test]
    fn folds_arithmetic_and_comparisons() {
        let stmts = opt("return 2 * 3 + 4;");
        assert_eq!(stmts.len(), 1);
        let Stmt::Return {
            expr: Some(Expr::Int(10)),
            ..
        } = &stmts[0]
        else {
            panic!("not folded: {stmts:?}");
        };
    }

    #[test]
    fn never_folds_division_by_literal_zero() {
        let stmts = opt("return 1 / 0;");
        let Stmt::Return {
            expr: Some(Expr::Bin { op: BinOp::Div, .. }),
            ..
        } = &stmts[0]
        else {
            panic!("1/0 must stay a runtime trap: {stmts:?}");
        };
    }

    #[test]
    fn dead_branch_is_eliminated_but_its_decls_survive() {
        let stmts = opt("if (1 > 2) { int x = 5; } else { x = 0; } return x;");
        // then-branch is dead: `int x` is hoisted without its initializer,
        // the else branch is spliced inline.
        assert!(matches!(
            &stmts[0],
            Stmt::Decl {
                name,
                init: None,
                is_static: false,
                ..
            } if name == "x"
        ));
        assert!(matches!(&stmts[1], Stmt::Assign { name, .. } if name == "x"));
        assert!(matches!(&stmts[2], Stmt::Return { .. }));
    }

    #[test]
    fn short_circuit_folds_only_on_literal_lhs() {
        // `false && (1/0 == 1)` folds to false without touching the rhs.
        let stmts = opt("bool b = false && 1 / 0 == 1; return 0;");
        assert!(matches!(
            &stmts[0],
            Stmt::Decl {
                init: Some(Expr::Bool(false)),
                ..
            }
        ));
        // An unknown lhs keeps the whole expression.
        let stmts = opt("bool b = x > 0 && true; return 0;");
        assert!(matches!(
            &stmts[0],
            Stmt::Decl {
                init: Some(Expr::Bin { op: BinOp::And, .. }),
                ..
            }
        ));
    }

    #[test]
    fn unreachable_code_after_return_is_dropped() {
        let stmts = opt("return 1; 2 + 2; int y = 9;");
        assert_eq!(stmts.len(), 2, "expr dropped, decl hoisted: {stmts:?}");
        assert!(matches!(&stmts[0], Stmt::Return { .. }));
        assert!(matches!(
            &stmts[1],
            Stmt::Decl {
                name,
                init: None,
                ..
            } if name == "y"
        ));
    }

    #[test]
    fn pure_expression_statements_are_dropped_but_out_survives() {
        let stmts = opt("1 + 2; out(0, 1.0); return 0;");
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        assert!(matches!(
            &stmts[0],
            Stmt::Expr {
                expr: Expr::Call { name, .. },
                ..
            } if name == "out"
        ));
    }

    #[test]
    fn bool_eq_folds_to_int_literal() {
        // The compiler types `bool == bool` as int; folding must preserve
        // that or the optimized program would fail to recompile.
        let stmts = opt("return true == false;");
        assert!(matches!(
            &stmts[0],
            Stmt::Return {
                expr: Some(Expr::Int(0)),
                ..
            }
        ));
    }
}
