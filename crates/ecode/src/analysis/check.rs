//! Safety checks and lints over the E-Code AST.
//!
//! A small abstract interpreter walks the program once, tracking an
//! interval for every `int` expression and constants for `double`/`bool`
//! ones. Inputs and `static` variables are unknown (statics persist
//! across runs); locals are tracked exactly through straight-line code
//! and joined at `if`/`else` merges. The interval reasoning is what lets
//! the verifier reject `x / 0` while staying quiet about
//! `x / max(1, y)`.

use std::collections::{HashMap, HashSet};

use crate::analysis::diag::Diagnostic;
use crate::analysis::opt::has_effect;
use crate::analysis::VerifyLimits;
use crate::compile::Type;
use crate::parser::{BinOp, Expr, Stmt, UnOp};

/// An inclusive `int` range, widened to `TOP` whenever a bound would
/// leave `i64` (the VM wraps, so any overflowing op forgets everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    lo: i128,
    hi: i128,
}

const I64_MIN: i128 = i64::MIN as i128;
const I64_MAX: i128 = i64::MAX as i128;

impl Interval {
    const TOP: Interval = Interval {
        lo: I64_MIN,
        hi: I64_MAX,
    };

    fn exact(v: i64) -> Interval {
        Interval {
            lo: v as i128,
            hi: v as i128,
        }
    }

    fn of(lo: i128, hi: i128) -> Interval {
        if lo < I64_MIN || hi > I64_MAX {
            Interval::TOP
        } else {
            Interval { lo, hi }
        }
    }

    fn as_exact(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo as i64)
    }

    fn contains(self, v: i64) -> bool {
        self.lo <= v as i128 && v as i128 <= self.hi
    }

    fn is_exactly(self, v: i64) -> bool {
        self.as_exact() == Some(v)
    }

    fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn add(self, o: Interval) -> Interval {
        Interval::of(self.lo + o.lo, self.hi + o.hi)
    }

    fn sub(self, o: Interval) -> Interval {
        Interval::of(self.lo - o.hi, self.hi - o.lo)
    }

    fn mul(self, o: Interval) -> Interval {
        let products = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        Interval::of(
            products.iter().copied().min().unwrap(),
            products.iter().copied().max().unwrap(),
        )
    }

    fn neg(self) -> Interval {
        Interval::of(-self.hi, -self.lo)
    }

    fn abs(self) -> Interval {
        // wrapping_abs(i64::MIN) == i64::MIN, so give up on that corner.
        if self.lo <= I64_MIN {
            return Interval::TOP;
        }
        let lo = if self.lo <= 0 && self.hi >= 0 {
            0
        } else {
            self.lo.abs().min(self.hi.abs())
        };
        Interval::of(lo, self.lo.abs().max(self.hi.abs()))
    }

    /// Result range of `self / o`, assuming the VM did not trap (so zero
    /// divisors are excluded from `o`).
    fn div(self, o: Interval) -> Interval {
        if let (Some(l), Some(r)) = (self.as_exact(), o.as_exact()) {
            if r != 0 {
                return Interval::exact(l.wrapping_div(r));
            }
        }
        // |l / r| <= |l| for |r| >= 1: bound by the dividend's magnitude.
        let m = self.lo.abs().max(self.hi.abs());
        Interval::of(-m, m)
    }

    /// Result range of `self % o`, assuming no trap.
    fn rem(self, o: Interval) -> Interval {
        if let (Some(l), Some(r)) = (self.as_exact(), o.as_exact()) {
            if r != 0 {
                return Interval::exact(l.wrapping_rem(r));
            }
        }
        // |l % r| < |r|; also bounded by |l|.
        let m = o.lo.abs().max(o.hi.abs()).max(1) - 1;
        let m = m.min(self.lo.abs().max(self.hi.abs()));
        Interval::of(-m, m)
    }

    fn min_with(self, o: Interval) -> Interval {
        Interval::of(self.lo.min(o.lo), self.hi.min(o.hi))
    }

    fn max_with(self, o: Interval) -> Interval {
        Interval::of(self.lo.max(o.lo), self.hi.max(o.hi))
    }
}

/// Abstract value: interval for ints, constant-or-unknown for the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AbsVal {
    Int(Interval),
    Dbl(Option<f64>),
    Bool(Option<bool>),
}

impl AbsVal {
    fn top(ty: Type) -> AbsVal {
        match ty {
            Type::Int => AbsVal::Int(Interval::TOP),
            Type::Double => AbsVal::Dbl(None),
            Type::Bool => AbsVal::Bool(None),
        }
    }

    fn zero(ty: Type) -> AbsVal {
        match ty {
            Type::Int => AbsVal::Int(Interval::exact(0)),
            Type::Double => AbsVal::Dbl(Some(0.0)),
            Type::Bool => AbsVal::Bool(Some(false)),
        }
    }

    fn join(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Int(a), AbsVal::Int(b)) => AbsVal::Int(a.join(b)),
            (AbsVal::Dbl(a), AbsVal::Dbl(b)) => AbsVal::Dbl(if a == b { a } else { None }),
            (AbsVal::Bool(a), AbsVal::Bool(b)) => AbsVal::Bool(if a == b { a } else { None }),
            // Shouldn't happen on well-typed programs; forget everything.
            (a, _) => match a {
                AbsVal::Int(_) => AbsVal::Int(Interval::TOP),
                AbsVal::Dbl(_) => AbsVal::Dbl(None),
                AbsVal::Bool(_) => AbsVal::Bool(None),
            },
        }
    }

    /// Promotes to a double constant (mirrors the VM's `I2F`).
    fn as_dbl(self) -> Option<f64> {
        match self {
            AbsVal::Int(i) => i.as_exact().map(|v| v as f64),
            AbsVal::Dbl(d) => d,
            AbsVal::Bool(_) => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarKind {
    Static,
    Local,
}

/// A declared variable. Inputs are not entered: they are all unknown
/// and never assigned, so a read resolves them through the host's slice.
#[derive(Debug, Clone, Copy)]
struct Var {
    kind: VarKind,
    ty: Type,
    val: AbsVal,
    /// For locals: has any assignment (or initializer) executed yet?
    assigned: bool,
}

struct Checker<'s, 'i> {
    diags: Vec<Diagnostic>,
    /// Declared variables, by the name the source spells.
    env: HashMap<&'s str, Var>,
    /// The host's inputs, in position order.
    inputs: &'i [(&'i str, Type)],
    /// Variables (inputs too) whose value was ever read.
    reads: HashSet<&'s str>,
    /// Locals already warned about reading-before-assignment.
    warned_uninit: HashSet<&'s str>,
    max_out_slot: i64,
    value_return_lines: Vec<u32>,
    void_return_lines: Vec<u32>,
}

/// Runs every safety check and lint. Assumes the program already
/// compiled (well-typed); stays total on anything else.
pub(crate) fn check(
    stmts: &[Stmt<'_>],
    inputs: &[(&str, Type)],
    limits: &VerifyLimits,
) -> Vec<Diagnostic> {
    let mut c = Checker {
        diags: Vec::new(),
        env: HashMap::new(),
        inputs,
        reads: HashSet::new(),
        warned_uninit: HashSet::new(),
        max_out_slot: limits.max_out_slot,
        value_return_lines: Vec::new(),
        void_return_lines: Vec::new(),
    };
    let returns = c.block(stmts);
    c.finish(stmts, returns);
    c.diags
}

/// Value conversion applied when storing into a variable of type `to`
/// (mirrors the compiler's implicit `int` → `double` promotion).
fn coerce(val: AbsVal, to: Type) -> AbsVal {
    match (val, to) {
        (AbsVal::Int(i), Type::Double) => AbsVal::Dbl(i.as_exact().map(|v| v as f64)),
        (v, _) => v,
    }
}

/// Abstract `==` (`is_eq`) or `!=` on int intervals.
fn cmp_int(a: Interval, b: Interval, is_eq: bool) -> AbsVal {
    let disjoint = a.hi < b.lo || a.lo > b.hi;
    AbsVal::Bool(match (a.as_exact(), b.as_exact()) {
        (Some(x), Some(y)) => Some((x == y) == is_eq),
        _ if disjoint => Some(!is_eq),
        _ => None,
    })
}

fn stmt_line(s: &Stmt<'_>) -> u32 {
    match s {
        Stmt::Decl { line, .. }
        | Stmt::Assign { line, .. }
        | Stmt::If { line, .. }
        | Stmt::Return { line, .. }
        | Stmt::Expr { line, .. } => *line,
    }
}

impl<'s> Checker<'s, '_> {
    /// Analyzes a statement list; returns whether it definitely returns.
    fn block(&mut self, stmts: &[Stmt<'s>]) -> bool {
        let mut returned = false;
        for s in stmts {
            if returned {
                self.diags.push(Diagnostic::warning(
                    "W0006",
                    stmt_line(s),
                    "unreachable code: every path already returned",
                ));
                // Keep the names visible (the flat namespace means later
                // code may reference them) but skip value analysis.
                self.declare_only(std::slice::from_ref(s));
                continue;
            }
            returned = self.stmt(s);
        }
        returned
    }

    /// Registers declarations from skipped (dead/unreachable) statements
    /// without analyzing them, so later references still resolve.
    fn declare_only(&mut self, stmts: &[Stmt<'s>]) {
        for s in stmts {
            match s {
                Stmt::Decl {
                    is_static,
                    ty,
                    name,
                    ..
                } => {
                    let ty = Type::from(*ty);
                    self.env.entry(*name).or_insert(Var {
                        kind: if *is_static {
                            VarKind::Static
                        } else {
                            VarKind::Local
                        },
                        ty,
                        // Dead locals stay zero-initialized; dead statics
                        // still get their compile-time initial value but
                        // may be written by nothing, so treat as unknown.
                        val: if *is_static {
                            AbsVal::top(ty)
                        } else {
                            AbsVal::zero(ty)
                        },
                        assigned: false,
                    });
                }
                Stmt::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    self.declare_only(then_block);
                    self.declare_only(else_block);
                }
                _ => {}
            }
        }
    }

    fn stmt(&mut self, s: &Stmt<'s>) -> bool {
        match s {
            Stmt::Decl {
                is_static,
                ty,
                name,
                init,
                line,
            } => {
                let ty = Type::from(*ty);
                let (val, assigned) = if *is_static {
                    // Statics persist across runs: their value at entry is
                    // whatever the previous run left, i.e. unknown.
                    (AbsVal::top(ty), true)
                } else {
                    match init {
                        Some(e) => {
                            let v = self.eval(e, *line);
                            (coerce(v, ty), true)
                        }
                        None => (AbsVal::zero(ty), false),
                    }
                };
                self.env.insert(
                    *name,
                    Var {
                        kind: if *is_static {
                            VarKind::Static
                        } else {
                            VarKind::Local
                        },
                        ty,
                        val,
                        assigned,
                    },
                );
                false
            }
            Stmt::Assign { name, expr, line } => {
                let val = self.eval(expr, *line);
                if let Some(var) = self.env.get_mut(name) {
                    var.assigned = true;
                    var.val = coerce(val, var.ty);
                }
                false
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                line,
            } => {
                let cond_val = self.eval(cond, *line);
                match cond_val {
                    AbsVal::Bool(Some(true)) => {
                        if !else_block.is_empty() {
                            self.diags.push(Diagnostic::warning(
                                "W0005",
                                *line,
                                "condition is always true: the else branch never runs",
                            ));
                            self.declare_only(else_block);
                        }
                        self.block(then_block)
                    }
                    AbsVal::Bool(Some(false)) => {
                        self.diags.push(Diagnostic::warning(
                            "W0005",
                            *line,
                            "condition is always false: the then branch never runs",
                        ));
                        self.declare_only(then_block);
                        if else_block.is_empty() {
                            false
                        } else {
                            self.block(else_block)
                        }
                    }
                    _ => {
                        let before = self.env.clone();
                        let then_returns = self.block(then_block);
                        let after_then = std::mem::replace(&mut self.env, before);
                        let else_returns = if else_block.is_empty() {
                            false
                        } else {
                            self.block(else_block)
                        };
                        self.join_envs(after_then, then_returns, else_returns);
                        then_returns && else_returns
                    }
                }
            }
            Stmt::Return { expr, line } => {
                match expr {
                    Some(e) => {
                        let _ = self.eval(e, *line);
                        self.value_return_lines.push(*line);
                    }
                    None => self.void_return_lines.push(*line),
                }
                true
            }
            Stmt::Expr { expr, line } => {
                let _ = self.eval(expr, *line);
                false
            }
        }
    }

    /// Merges the then-branch environment (moved out) with the current
    /// else-branch environment. A branch that returned contributes no
    /// fall-through state.
    fn join_envs(&mut self, then_env: HashMap<&'s str, Var>, then_ret: bool, else_ret: bool) {
        if then_ret && !else_ret {
            return; // only the else state survives
        }
        // Merge in name order: join() is commutative today, but keeping
        // the walk deterministic means future diagnostics emitted from
        // here can never depend on hash-map iteration order.
        let mut merged: Vec<(&str, Var)> = then_env.into_iter().collect();
        merged.sort_by(|a, b| a.0.cmp(b.0));
        for (name, t_var) in merged {
            match self.env.get_mut(name) {
                Some(e_var) => {
                    if else_ret {
                        // Only the then state survives.
                        *e_var = t_var;
                    } else {
                        e_var.val = e_var.val.join(t_var.val);
                        e_var.assigned = e_var.assigned && t_var.assigned;
                    }
                }
                None => {
                    // Declared only in the then branch; flat namespace
                    // keeps the name alive afterwards.
                    self.env.insert(name, t_var);
                }
            }
        }
    }

    fn eval(&mut self, e: &Expr<'s>, line: u32) -> AbsVal {
        match e {
            Expr::Int(v) => AbsVal::Int(Interval::exact(*v)),
            Expr::Double(v) => AbsVal::Dbl(Some(*v)),
            Expr::Bool(v) => AbsVal::Bool(Some(*v)),
            Expr::Var(name) => {
                self.reads.insert(*name);
                match self.env.get(name) {
                    Some(var) => {
                        if var.kind == VarKind::Local
                            && !var.assigned
                            && self.warned_uninit.insert(*name)
                        {
                            self.diags.push(Diagnostic::warning(
                                "W0007",
                                line,
                                format!(
                                    "local {name:?} is read before any assignment (reads as 0)"
                                ),
                            ));
                        }
                        var.val
                    }
                    None => match self.inputs.iter().rfind(|(n, _)| n == name) {
                        Some((_, ty)) => AbsVal::top(*ty),
                        None => AbsVal::Int(Interval::TOP),
                    },
                }
            }
            Expr::Un { op, expr, line } => {
                let v = self.eval(expr, *line);
                match op {
                    UnOp::Neg => match v {
                        AbsVal::Int(i) => AbsVal::Int(i.neg()),
                        AbsVal::Dbl(d) => AbsVal::Dbl(d.map(|x| -x)),
                        AbsVal::Bool(_) => AbsVal::Bool(None),
                    },
                    UnOp::Not => match v {
                        AbsVal::Bool(b) => AbsVal::Bool(b.map(|x| !x)),
                        _ => AbsVal::Bool(None),
                    },
                }
            }
            Expr::Bin { op, lhs, rhs, line } => self.eval_bin(*op, lhs, rhs, *line),
            Expr::Call { name, args, line } => self.eval_call(name, args, *line),
        }
    }

    fn eval_bin(&mut self, op: BinOp, lhs: &Expr<'s>, rhs: &Expr<'s>, line: u32) -> AbsVal {
        // Short-circuit operators mirror the VM: a constant-false `&&`
        // lhs (or constant-true `||` lhs) means the rhs never evaluates,
        // so don't analyze it (its diagnostics would be phantoms).
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = self.eval(lhs, line);
            return match (op, l) {
                (BinOp::And, AbsVal::Bool(Some(false))) => AbsVal::Bool(Some(false)),
                (BinOp::Or, AbsVal::Bool(Some(true))) => AbsVal::Bool(Some(true)),
                (BinOp::And, AbsVal::Bool(Some(true))) | (BinOp::Or, AbsVal::Bool(Some(false))) => {
                    self.eval(rhs, line)
                }
                // A rhs that decides the result leaves the lhs only what
                // evaluating it does: the optimizer's own rule
                // (`opt::has_effect`) says when that is nothing, so the
                // lint and the optimizer agree on what is dead.
                _ => match (op, self.eval(rhs, line)) {
                    (BinOp::And, r @ AbsVal::Bool(Some(false)))
                    | (BinOp::Or, r @ AbsVal::Bool(Some(true)))
                        if !has_effect(lhs) =>
                    {
                        r
                    }
                    _ => AbsVal::Bool(None),
                },
            };
        }

        let l = self.eval(lhs, line);
        let r = self.eval(rhs, line);

        // Division/modulo safety: the one check with teeth.
        if matches!(op, BinOp::Div | BinOp::Mod) {
            let what = if op == BinOp::Div {
                "division"
            } else {
                "modulo"
            };
            match r {
                AbsVal::Int(i) if i.is_exactly(0) => self.diags.push(Diagnostic::error(
                    "E0001",
                    line,
                    format!("{what} by zero: the divisor is always 0"),
                )),
                AbsVal::Int(i) if i.contains(0) => self.diags.push(Diagnostic::warning(
                    "W0001",
                    line,
                    format!("{what} divisor may be zero (range {}..={})", i.lo, i.hi),
                )),
                AbsVal::Dbl(Some(0.0)) => self.diags.push(Diagnostic::warning(
                    "W0001",
                    line,
                    "division by the constant 0.0 yields infinity or NaN",
                )),
                _ => {}
            }
        }

        match (l, r) {
            (AbsVal::Int(a), AbsVal::Int(b)) => match op {
                BinOp::Add => AbsVal::Int(a.add(b)),
                BinOp::Sub => AbsVal::Int(a.sub(b)),
                BinOp::Mul => AbsVal::Int(a.mul(b)),
                BinOp::Div => AbsVal::Int(a.div(b)),
                BinOp::Mod => AbsVal::Int(a.rem(b)),
                BinOp::Eq => cmp_int(a, b, true),
                BinOp::Ne => cmp_int(a, b, false),
                BinOp::Lt => AbsVal::Bool(if a.hi < b.lo {
                    Some(true)
                } else if a.lo >= b.hi {
                    Some(false)
                } else {
                    None
                }),
                BinOp::Le => AbsVal::Bool(if a.hi <= b.lo {
                    Some(true)
                } else if a.lo > b.hi {
                    Some(false)
                } else {
                    None
                }),
                BinOp::Gt => AbsVal::Bool(if a.lo > b.hi {
                    Some(true)
                } else if a.hi <= b.lo {
                    Some(false)
                } else {
                    None
                }),
                BinOp::Ge => AbsVal::Bool(if a.lo >= b.hi {
                    Some(true)
                } else if a.hi < b.lo {
                    Some(false)
                } else {
                    None
                }),
                BinOp::And | BinOp::Or => AbsVal::Bool(None),
            },
            (AbsVal::Bool(a), AbsVal::Bool(b)) if matches!(op, BinOp::Eq | BinOp::Ne) => {
                // The compiler types `bool == bool` as int 0/1.
                AbsVal::Int(match (a, b) {
                    (Some(x), Some(y)) => Interval::exact(((x == y) == (op == BinOp::Eq)) as i64),
                    _ => Interval::of(0, 1),
                })
            }
            _ => {
                // Mixed/double arithmetic: constant-fold when both sides
                // are known constants, else unknown.
                let (a, b) = (l.as_dbl(), r.as_dbl());
                let fold = |f: fn(f64, f64) -> f64| match (a, b) {
                    (Some(x), Some(y)) => AbsVal::Dbl(Some(f(x, y))),
                    _ => AbsVal::Dbl(None),
                };
                let cmp = |f: fn(f64, f64) -> bool| match (a, b) {
                    (Some(x), Some(y)) => AbsVal::Bool(Some(f(x, y))),
                    _ => AbsVal::Bool(None),
                };
                match op {
                    BinOp::Add => fold(|x, y| x + y),
                    BinOp::Sub => fold(|x, y| x - y),
                    BinOp::Mul => fold(|x, y| x * y),
                    BinOp::Div => fold(|x, y| x / y),
                    BinOp::Eq => cmp(|x, y| x == y),
                    BinOp::Ne => cmp(|x, y| x != y),
                    BinOp::Lt => cmp(|x, y| x < y),
                    BinOp::Le => cmp(|x, y| x <= y),
                    BinOp::Gt => cmp(|x, y| x > y),
                    BinOp::Ge => cmp(|x, y| x >= y),
                    BinOp::Mod | BinOp::And | BinOp::Or => AbsVal::Bool(None),
                }
            }
        }
    }

    fn eval_call(&mut self, name: &str, args: &[Expr<'s>], line: u32) -> AbsVal {
        let vals: Vec<AbsVal> = args.iter().map(|a| self.eval(a, line)).collect();
        match (name, vals.as_slice()) {
            ("abs", [AbsVal::Int(i)]) => AbsVal::Int(i.abs()),
            ("abs", [AbsVal::Dbl(d)]) => AbsVal::Dbl(d.map(f64::abs)),
            ("min", [AbsVal::Int(a), AbsVal::Int(b)]) => AbsVal::Int(a.min_with(*b)),
            ("max", [AbsVal::Int(a), AbsVal::Int(b)]) => AbsVal::Int(a.max_with(*b)),
            ("min" | "max", [a, b]) => {
                let (x, y) = (a.as_dbl(), b.as_dbl());
                AbsVal::Dbl(match (x, y) {
                    (Some(x), Some(y)) => Some(if name == "min" { x.min(y) } else { x.max(y) }),
                    _ => None,
                })
            }
            ("out", [slot, _value]) => {
                if let AbsVal::Int(i) = slot {
                    let max = self.max_out_slot as i128;
                    if i.hi < 0 || i.lo > max {
                        self.diags.push(Diagnostic::error(
                            "E0002",
                            line,
                            format!(
                                "out() slot is always out of range: {}..={} vs allowed 0..={}",
                                i.lo, i.hi, self.max_out_slot
                            ),
                        ));
                    } else if i.lo < 0 || i.hi > max {
                        self.diags.push(Diagnostic::warning(
                            "W0002",
                            line,
                            format!(
                                "out() slot may fall outside 0..={} (range {}..={})",
                                self.max_out_slot, i.lo, i.hi
                            ),
                        ));
                    }
                }
                // out() leaves int 0 on the stack.
                AbsVal::Int(Interval::exact(0))
            }
            _ => AbsVal::Int(Interval::TOP),
        }
    }

    /// Warns once per declared static that nothing read, walking the
    /// declarations in source order. "Never read" is the declaration
    /// against `reads` alone: the environment forgets a static declared
    /// in a branch that returns, and the program still declares it.
    fn unused_statics(&mut self, stmts: &[Stmt<'s>]) {
        for s in stmts {
            match s {
                Stmt::Decl {
                    is_static: true,
                    name,
                    line,
                    ..
                } if !self.reads.contains(name) => {
                    self.diags.push(Diagnostic::warning(
                        "W0003",
                        *line,
                        format!("static variable {name:?} is never read"),
                    ));
                }
                Stmt::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    self.unused_statics(then_block);
                    self.unused_statics(else_block);
                }
                _ => {}
            }
        }
    }

    fn finish(&mut self, stmts: &[Stmt<'s>], program_returns: bool) {
        // Unused statics: one warning each, at the declaration, in source
        // order (line, then position on the line). The rendered text
        // reaches the wire in a NACK, so it must not follow hash order.
        self.unused_statics(stmts);

        // Unused inputs: one combined warning (filters routinely ignore
        // most record fields, so per-input warnings would drown signal).
        let unused: Vec<&str> = self
            .inputs
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.reads.contains(n))
            .collect();
        if !unused.is_empty() && unused.len() < self.inputs.len() {
            self.diags.push(Diagnostic::warning(
                "W0004",
                0,
                format!("unused inputs: {}", unused.join(", ")),
            ));
        }

        // Inconsistent returns: value returns mixed with void exits.
        if !self.value_return_lines.is_empty() {
            let void_line = self.void_return_lines.first().copied();
            if let Some(line) = void_line {
                self.diags.push(Diagnostic::warning(
                    "W0008",
                    line,
                    "this return yields no value but other paths return one (host sees 0)",
                ));
            } else if !program_returns {
                self.diags.push(Diagnostic::warning(
                    "W0008",
                    0,
                    "some paths return a value but the program can fall off the end (host sees 0)",
                ));
            }
        }
    }
}
