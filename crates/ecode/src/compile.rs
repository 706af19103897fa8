//! Type checking and bytecode generation.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::analysis::MergePlan;
use crate::ir::Lowered;
use crate::parser::{parse, AstType, BinOp, Expr, Stmt, UnOp};
use crate::vm::Op;
use crate::EcodeError;

/// Value types in the E-Code type system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Double,
    /// Boolean.
    Bool,
}

impl From<AstType> for Type {
    fn from(t: AstType) -> Type {
        match t {
            AstType::Int => Type::Int,
            AstType::Double => Type::Double,
            AstType::Bool => Type::Bool,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum VarSlot {
    Input(u16, Type),
    Global(u16, Type),
    Local(u16, Type),
}

impl VarSlot {
    fn ty(self) -> Type {
        match self {
            VarSlot::Input(_, t) | VarSlot::Global(_, t) | VarSlot::Local(_, t) => t,
        }
    }
}

/// A compiled E-Code program: bytecode plus variable layout. Immutable and
/// shareable; per-analyzer state lives in [`Instance`](crate::Instance).
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) code: Vec<Op>,
    pub(crate) inputs: Vec<(String, Type)>,
    pub(crate) globals: Vec<(String, Type, GlobalInit)>,
    pub(crate) n_locals: u16,
    /// Validation, lowering, compiled graph and merge plan, derived
    /// from `code` on first use and shared by every clone (see
    /// [`Program::lowered`]).
    lowered: Arc<OnceLock<Lowered>>,
}

/// Initial value of a static variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum GlobalInit {
    Int(i64),
    Double(f64),
    Bool(bool),
}

/// What the emitter produced for one statement list: bytecode plus the
/// static layout, named by the source's own text. [`Emitted::program`]
/// copies the names once, into the [`Program`] that keeps them.
pub(crate) struct Emitted<'s> {
    pub(crate) code: Vec<Op>,
    globals: Vec<(&'s str, Type, GlobalInit)>,
    n_locals: u16,
}

impl Emitted<'_> {
    /// The program this output is, against the inputs it was emitted for.
    pub(crate) fn program(self, inputs: &[(&str, Type)]) -> Program {
        Program::from_parts(
            self.code,
            inputs.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
            self.globals
                .into_iter()
                .map(|(n, t, init)| (n.to_owned(), t, init))
                .collect(),
            self.n_locals,
        )
    }
}

struct Compiler<'s, 'i> {
    code: Vec<Op>,
    /// Declared statics and locals. An input resolves through `inputs`,
    /// the host's own slice, so no pass copies the host's names.
    vars: HashMap<&'s str, VarSlot>,
    inputs: &'i [(&'i str, Type)],
    globals: Vec<(&'s str, Type, GlobalInit)>,
    n_locals: u16,
}

impl Program {
    /// Compiles source against the host-declared per-event inputs.
    ///
    /// # Errors
    ///
    /// Lex, parse, or type errors, each carrying a source line.
    pub fn compile(src: &str, inputs: &[(&str, Type)]) -> Result<Program, EcodeError> {
        Ok(compile_stmts(&parse(src)?, inputs)?.program(inputs))
    }

    /// Assembles a program from compiler (or hand-written test) output.
    pub(crate) fn from_parts(
        code: Vec<Op>,
        inputs: Vec<(String, Type)>,
        globals: Vec<(String, Type, GlobalInit)>,
        n_locals: u16,
    ) -> Program {
        Program {
            code,
            inputs,
            globals,
            n_locals,
            lowered: Arc::default(),
        }
    }

    /// What every executor built from this program shares: the
    /// load-time validation, the one lowering ([`crate::ir`]) and the
    /// compiled graph. Computed once, on first use, however many
    /// `Instance`s and `BatchEval`s (or clones of the program) ask.
    ///
    /// # Panics
    ///
    /// If the bytecode fails validation — a compiler bug, since a
    /// `Program` cannot be built outside this crate.
    pub(crate) fn lowered(&self) -> &Lowered {
        self.lowered.get_or_init(|| Lowered::new(self))
    }

    /// The shard-safety class of every static, proven on this program's
    /// lowering once, on first ask, and shared by every clone. It is
    /// what [`Instance::merge_from`](crate::Instance::merge_from) folds
    /// by and what [`BatchEval::compile`](crate::BatchEval::compile)
    /// vectorizes against; [`verify`](crate::verify) reports it as
    /// [`VerifyReport::merge_plan`](crate::VerifyReport::merge_plan).
    pub fn merge_plan(&self) -> &MergePlan {
        let lowered = self.lowered();
        lowered
            .merge_plan
            .get_or_init(|| crate::analysis::merge::classify(self))
    }

    /// Whether `other` is this program or a clone of it: the two share
    /// one lowering, and so one merge plan.
    pub(crate) fn is(&self, other: &Program) -> bool {
        Arc::ptr_eq(&self.lowered, &other.lowered)
    }

    /// The declared inputs (name, type) in positional order.
    pub fn inputs(&self) -> impl Iterator<Item = (&str, Type)> {
        self.inputs.iter().map(|(n, t)| (n.as_str(), *t))
    }

    /// Number of bytecode instructions (proxy for code size).
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Exact worst-case fuel for this program.
    ///
    /// E-Code has no loops, so the bound is the longest path through the
    /// bytecode's forward-jump DAG. Running with `fuel >=
    /// static_fuel_bound()` can never abort with
    /// [`OutOfFuel`](crate::EcodeError::OutOfFuel).
    pub fn static_fuel_bound(&self) -> u64 {
        crate::analysis::fuel::max_fuel(&self.code)
    }

    /// Which declared inputs the compiled code actually reads
    /// (`used[i]` for input position `i`). Hosts that marshal inputs
    /// per event can skip materializing unused ones — the VM never
    /// inspects their values.
    pub fn used_inputs(&self) -> Vec<bool> {
        let mut used = vec![false; self.inputs.len()];
        for op in &self.code {
            if let Op::LoadInput(i) = op {
                used[*i as usize] = true;
            }
        }
        used
    }
}

/// Type-checks and code-generates an already-parsed program. Shared by
/// [`Program::compile`] and the verifier (which compiles both the
/// original and the optimized AST, and keeps one as a [`Program`]).
pub(crate) fn compile_stmts<'s>(
    stmts: &[Stmt<'s>],
    inputs: &[(&str, Type)],
) -> Result<Emitted<'s>, EcodeError> {
    let mut c = Compiler {
        code: Vec::new(),
        vars: HashMap::new(),
        inputs,
        globals: Vec::new(),
        n_locals: 0,
    };
    c.stmts(stmts)?;
    c.code.push(Op::RetVoid);
    Ok(Emitted {
        code: c.code,
        globals: c.globals,
        n_locals: c.n_locals,
    })
}

fn terr(line: u32, msg: impl Into<String>) -> EcodeError {
    EcodeError::Types {
        line,
        msg: msg.into(),
    }
}

impl<'s> Compiler<'s, '_> {
    /// The slot `name` names: a declared variable, else a host input. A
    /// name the host lists twice resolves to its last position.
    fn slot(&self, name: &str) -> Option<VarSlot> {
        self.vars.get(name).copied().or_else(|| {
            let i = self.inputs.iter().rposition(|(n, _)| *n == name)?;
            Some(VarSlot::Input(i as u16, self.inputs[i].1))
        })
    }

    fn stmts(&mut self, stmts: &[Stmt<'s>]) -> Result<(), EcodeError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt<'s>) -> Result<(), EcodeError> {
        match s {
            Stmt::Decl {
                is_static,
                ty,
                name,
                init,
                line,
            } => {
                let ty = Type::from(*ty);
                if self.slot(name).is_some() {
                    return Err(terr(*line, format!("{name:?} is already declared")));
                }
                if *is_static {
                    let init = match init {
                        None => match ty {
                            Type::Int => GlobalInit::Int(0),
                            Type::Double => GlobalInit::Double(0.0),
                            Type::Bool => GlobalInit::Bool(false),
                        },
                        Some(e) => const_init(e, ty, *line)?,
                    };
                    let idx = self.globals.len() as u16;
                    self.globals.push((*name, ty, init));
                    self.vars.insert(*name, VarSlot::Global(idx, ty));
                } else {
                    let idx = self.n_locals;
                    self.n_locals += 1;
                    self.vars.insert(*name, VarSlot::Local(idx, ty));
                    if let Some(e) = init {
                        let et = self.expr(e)?;
                        self.coerce(et, ty, *line)?;
                        self.code.push(Op::StoreLocal(idx));
                    } else {
                        self.code.push(match ty {
                            Type::Double => Op::ConstF(0.0),
                            _ => Op::ConstI(0),
                        });
                        self.code.push(Op::StoreLocal(idx));
                    }
                }
                Ok(())
            }
            Stmt::Assign { name, expr, line } => {
                let slot = self
                    .slot(name)
                    .ok_or_else(|| terr(*line, format!("{name:?} is not declared")))?;
                let et = self.expr(expr)?;
                self.coerce(et, slot.ty(), *line)?;
                match slot {
                    VarSlot::Input(..) => {
                        return Err(terr(*line, format!("cannot assign to input {name:?}")))
                    }
                    VarSlot::Global(i, _) => self.code.push(Op::StoreGlobal(i)),
                    VarSlot::Local(i, _) => self.code.push(Op::StoreLocal(i)),
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                line,
            } => {
                let ct = self.expr(cond)?;
                if ct != Type::Bool {
                    return Err(terr(*line, "if condition must be bool"));
                }
                let jfalse = self.code.len();
                self.code.push(Op::JmpIfFalse(0));
                self.stmts(then_block)?;
                if else_block.is_empty() {
                    let target = self.code.len() as u32;
                    self.code[jfalse] = Op::JmpIfFalse(target);
                } else {
                    let jend = self.code.len();
                    self.code.push(Op::Jmp(0));
                    let else_start = self.code.len() as u32;
                    self.code[jfalse] = Op::JmpIfFalse(else_start);
                    self.stmts(else_block)?;
                    let end = self.code.len() as u32;
                    self.code[jend] = Op::Jmp(end);
                }
                Ok(())
            }
            Stmt::Return { expr, line } => {
                match expr {
                    None => self.code.push(Op::RetVoid),
                    Some(e) => {
                        let t = self.expr(e)?;
                        match t {
                            Type::Int | Type::Bool => self.code.push(Op::Ret),
                            Type::Double => {
                                return Err(terr(
                                    *line,
                                    "return value must be int or bool (host contract)",
                                ))
                            }
                        }
                    }
                }
                Ok(())
            }
            Stmt::Expr { expr, .. } => {
                self.expr(expr)?;
                self.code.push(Op::Pop);
                Ok(())
            }
        }
    }

    /// Inserts a conversion so a value of type `from` can be stored into
    /// `to`.
    fn coerce(&mut self, from: Type, to: Type, line: u32) -> Result<(), EcodeError> {
        match (from, to) {
            (a, b) if a == b => Ok(()),
            (Type::Int, Type::Double) => {
                self.code.push(Op::I2F);
                Ok(())
            }
            (a, b) => Err(terr(line, format!("cannot store {a:?} into {b:?}"))),
        }
    }

    /// Compiles an expression; returns its type, value left on stack.
    fn expr(&mut self, e: &Expr<'s>) -> Result<Type, EcodeError> {
        match e {
            Expr::Int(v) => {
                self.code.push(Op::ConstI(*v));
                Ok(Type::Int)
            }
            Expr::Double(v) => {
                self.code.push(Op::ConstF(*v));
                Ok(Type::Double)
            }
            Expr::Bool(v) => {
                self.code.push(Op::ConstI(*v as i64));
                Ok(Type::Bool)
            }
            Expr::Var(name) => {
                let slot = self
                    .slot(name)
                    .ok_or_else(|| terr(0, format!("{name:?} is not declared")))?;
                self.code.push(match slot {
                    VarSlot::Input(i, _) => Op::LoadInput(i),
                    VarSlot::Global(i, _) => Op::LoadGlobal(i),
                    VarSlot::Local(i, _) => Op::LoadLocal(i),
                });
                Ok(slot.ty())
            }
            Expr::Un { op, expr, line } => {
                let t = self.expr(expr)?;
                match op {
                    UnOp::Neg => match t {
                        Type::Int => {
                            self.code.push(Op::NegI);
                            Ok(Type::Int)
                        }
                        Type::Double => {
                            self.code.push(Op::NegF);
                            Ok(Type::Double)
                        }
                        Type::Bool => Err(terr(*line, "cannot negate bool")),
                    },
                    UnOp::Not => match t {
                        Type::Bool => {
                            self.code.push(Op::NotB);
                            Ok(Type::Bool)
                        }
                        _ => Err(terr(*line, "'!' requires bool")),
                    },
                }
            }
            Expr::Bin { op, lhs, rhs, line } => self.bin(*op, lhs, rhs, *line),
            Expr::Call { name, args, line } => self.call(name, args, *line),
        }
    }

    fn bin(
        &mut self,
        op: BinOp,
        lhs: &Expr<'s>,
        rhs: &Expr<'s>,
        line: u32,
    ) -> Result<Type, EcodeError> {
        // Short-circuit logical operators compile to jumps.
        if matches!(op, BinOp::And | BinOp::Or) {
            let lt = self.expr(lhs)?;
            if lt != Type::Bool {
                return Err(terr(line, "logical operator requires bool operands"));
            }
            match op {
                BinOp::And => {
                    // lhs false -> whole expr false without evaluating rhs.
                    let j = self.code.len();
                    self.code.push(Op::JmpIfFalse(0));
                    let rt = self.expr(rhs)?;
                    if rt != Type::Bool {
                        return Err(terr(line, "logical operator requires bool operands"));
                    }
                    let jend = self.code.len();
                    self.code.push(Op::Jmp(0));
                    let false_arm = self.code.len() as u32;
                    self.code[j] = Op::JmpIfFalse(false_arm);
                    self.code.push(Op::ConstI(0));
                    let end = self.code.len() as u32;
                    self.code[jend] = Op::Jmp(end);
                }
                BinOp::Or => {
                    // lhs true -> true; encode as: if (!lhs) rhs else true.
                    self.code.push(Op::NotB);
                    let j = self.code.len();
                    self.code.push(Op::JmpIfFalse(0)); // lhs was true
                    let rt = self.expr(rhs)?;
                    if rt != Type::Bool {
                        return Err(terr(line, "logical operator requires bool operands"));
                    }
                    let jend = self.code.len();
                    self.code.push(Op::Jmp(0));
                    let true_arm = self.code.len() as u32;
                    self.code[j] = Op::JmpIfFalse(true_arm);
                    self.code.push(Op::ConstI(1));
                    let end = self.code.len() as u32;
                    self.code[jend] = Op::Jmp(end);
                }
                _ => unreachable!(),
            }
            return Ok(Type::Bool);
        }

        let lt = self.expr(lhs)?;
        let rt = self.expr(rhs)?;
        let (t, float) = match (lt, rt) {
            (Type::Bool, Type::Bool) if matches!(op, BinOp::Eq | BinOp::Ne) => (Type::Int, false),
            (Type::Bool, _) | (_, Type::Bool) => {
                return Err(terr(line, "arithmetic/comparison on bool"))
            }
            (Type::Int, Type::Int) => (Type::Int, false),
            (Type::Double, Type::Double) => (Type::Double, true),
            (Type::Int, Type::Double) => {
                self.code.push(Op::I2FUnder);
                (Type::Double, true)
            }
            (Type::Double, Type::Int) => {
                self.code.push(Op::I2F);
                (Type::Double, true)
            }
        };
        let result = match op {
            BinOp::Add => {
                self.code.push(if float { Op::AddF } else { Op::AddI });
                t
            }
            BinOp::Sub => {
                self.code.push(if float { Op::SubF } else { Op::SubI });
                t
            }
            BinOp::Mul => {
                self.code.push(if float { Op::MulF } else { Op::MulI });
                t
            }
            BinOp::Div => {
                self.code.push(if float { Op::DivF } else { Op::DivI });
                t
            }
            BinOp::Mod => {
                if float {
                    return Err(terr(line, "'%' requires int operands"));
                }
                self.code.push(Op::ModI);
                t
            }
            BinOp::Eq => {
                self.code.push(if float { Op::EqF } else { Op::EqI });
                Type::Bool
            }
            BinOp::Ne => {
                self.code.push(if float { Op::NeF } else { Op::NeI });
                Type::Bool
            }
            BinOp::Lt => {
                self.code.push(if float { Op::LtF } else { Op::LtI });
                Type::Bool
            }
            BinOp::Le => {
                self.code.push(if float { Op::LeF } else { Op::LeI });
                Type::Bool
            }
            BinOp::Gt => {
                self.code.push(if float { Op::GtF } else { Op::GtI });
                Type::Bool
            }
            BinOp::Ge => {
                self.code.push(if float { Op::GeF } else { Op::GeI });
                Type::Bool
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        };
        Ok(result)
    }

    fn call(&mut self, name: &str, args: &[Expr<'s>], line: u32) -> Result<Type, EcodeError> {
        match name {
            "abs" => {
                if args.len() != 1 {
                    return Err(terr(line, "abs takes one argument"));
                }
                match self.expr(&args[0])? {
                    Type::Int => {
                        self.code.push(Op::AbsI);
                        Ok(Type::Int)
                    }
                    Type::Double => {
                        self.code.push(Op::AbsF);
                        Ok(Type::Double)
                    }
                    Type::Bool => Err(terr(line, "abs requires a numeric argument")),
                }
            }
            "min" | "max" => {
                if args.len() != 2 {
                    return Err(terr(line, format!("{name} takes two arguments")));
                }
                let lt = self.expr(&args[0])?;
                let rt = self.expr(&args[1])?;
                let float = match (lt, rt) {
                    (Type::Int, Type::Int) => false,
                    (Type::Double, Type::Double) => true,
                    (Type::Int, Type::Double) => {
                        self.code.push(Op::I2FUnder);
                        true
                    }
                    (Type::Double, Type::Int) => {
                        self.code.push(Op::I2F);
                        true
                    }
                    _ => return Err(terr(line, format!("{name} requires numeric arguments"))),
                };
                self.code.push(match (name, float) {
                    ("min", false) => Op::MinI,
                    ("min", true) => Op::MinF,
                    ("max", false) => Op::MaxI,
                    ("max", true) => Op::MaxF,
                    _ => unreachable!(),
                });
                Ok(if float { Type::Double } else { Type::Int })
            }
            "out" => {
                if args.len() != 2 {
                    return Err(terr(line, "out takes (slot, value)"));
                }
                if self.expr(&args[0])? != Type::Int {
                    return Err(terr(line, "out slot must be int"));
                }
                match self.expr(&args[1])? {
                    Type::Double => {}
                    Type::Int => self.code.push(Op::I2F),
                    Type::Bool => return Err(terr(line, "out value must be numeric")),
                }
                self.code.push(Op::Out);
                // out is a statement-like call; it leaves 0 on the stack so
                // expression-statement Pop stays uniform.
                self.code.push(Op::ConstI(0));
                Ok(Type::Int)
            }
            _ => Err(terr(line, format!("unknown function {name:?}"))),
        }
    }
}

fn const_init(e: &Expr<'_>, ty: Type, line: u32) -> Result<GlobalInit, EcodeError> {
    let fail = || {
        terr(
            line,
            "static initializer must be a constant literal (optionally negated)",
        )
    };
    let init = match e {
        Expr::Int(v) => GlobalInit::Int(*v),
        Expr::Double(v) => GlobalInit::Double(*v),
        Expr::Bool(v) => GlobalInit::Bool(*v),
        Expr::Un {
            op: UnOp::Neg,
            expr,
            ..
        } => match expr.as_ref() {
            Expr::Int(v) => GlobalInit::Int(-*v),
            Expr::Double(v) => GlobalInit::Double(-*v),
            _ => return Err(fail()),
        },
        _ => return Err(fail()),
    };
    // Allow int literal to initialize a double.
    let init = match (init, ty) {
        (GlobalInit::Int(v), Type::Double) => GlobalInit::Double(v as f64),
        (i, _) => i,
    };
    let matches_ty = matches!(
        (init, ty),
        (GlobalInit::Int(_), Type::Int)
            | (GlobalInit::Double(_), Type::Double)
            | (GlobalInit::Bool(_), Type::Bool)
    );
    if !matches_ty {
        return Err(terr(line, "static initializer type mismatch"));
    }
    Ok(init)
}

#[cfg(test)]
#[allow(unused)] // a typecheck-only proptest elides macro bodies, orphaning these imports
mod compile_fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The compiler is total on arbitrary input: every string either
        /// compiles or returns a typed error with a line number — it never
        /// panics. (CPA sources arrive from administrators at runtime.)
        #[test]
        fn prop_compile_total(src in ".{0,200}") {
            let _ = Program::compile(&src, &[("x", Type::Int)]);
        }

        /// Structured-ish garbage: fragments assembled from language
        /// tokens stress the parser deeper than uniform random text.
        #[test]
        fn prop_compile_total_tokenish(
            parts in proptest::collection::vec(
                prop::sample::select(vec![
                    "int", "double", "bool", "static", "if", "else",
                    "return", "x", "y", "0", "1.5", "(", ")", "{", "}",
                    ";", "=", "+", "-", "*", "/", "%", "==", "&&", "||",
                    "!", "<", ">", ",", "out", "min", "max", "abs",
                ]),
                0..60,
            )
        ) {
            let src = parts.join(" ");
            let _ = Program::compile(&src, &[("x", Type::Int)]);
        }
    }
}
