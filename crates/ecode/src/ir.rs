//! The one lowering: validated stack bytecode → basic blocks of
//! statement trees.
//!
//! Both fast backends — the compiled tier ([`crate::jit`]) and the column
//! evaluator ([`crate::batch`]) — and the verifier's shard-safety pass
//! (`analysis/merge.rs`) need the same three things the stack code
//! hides: where the basic blocks are, what each statement computes as a
//! tree, and how much fuel each block costs. [`lower`] derives them
//! once per [`Program`] (cached behind [`Program::lowered`], so the
//! verifier and every `Instance` and `BatchEval` built from one program
//! share it). Besides it, the only `Op` walkers are the reference
//! interpreter and `validate` (`vm.rs`), the longest-path fuel bound
//! (`analysis/fuel.rs`), [`Program::used_inputs`] and the emitter.
//!
//! # What a block is
//!
//! Blocks **partition** the reachable bytecode: a block starts at pc 0,
//! at every jump target and after every conditional branch, and ends at
//! its first terminator *or* just before the next block entry. The
//! second case is a fall-through, made explicit as a `Term::Jmp` that
//! costs no fuel. (The interpreter's notion of a block — entry through
//! the next real terminator — overlaps its successors at interior jump
//! targets; the compiled tier recovers those longer spans with
//! `merge_chains`, the column backend wants the partition as is.)
//!
//! Within a block, expression trees evaluate in bytecode push order
//! (left subtree, right subtree, operator) and statements flush in
//! program order. Values still on the operand stack at the terminator
//! are `carry_out`, evaluated before the branch condition or return
//! value; the successor reads them back as [`Ex::Carry`]. `fuel` is the
//! number of `Op`s the block covers — what the interpreter charges one
//! op at a time — so fuels summed along any path equal `fuel_used`.
//!
//! Operators get their single scalar meaning here too: [`Bin::apply`],
//! [`Un::apply`] and [`Cmp::eval`], with a lane-wise `sweep` generated
//! from the same table rows.

use std::fmt;
use std::sync::Arc;

use crate::compile::Program;
use crate::jit;
use crate::vm::Op;

/// Hard cap on operand-stack values carried across a block boundary.
/// Short-circuit joins in real E-Code carry one or two; a fixed cap lets
/// the compiled tier count carry reads in an array when it folds a join.
pub(crate) const MAX_CARRY: usize = 4;

/// Size limits gating the lowering. Programs beyond them still run — on
/// the checked interpreter — they just aren't worth a block graph
/// (compile time and memory scale with block count, and CPAs installed
/// on the event hot path are small by doctrine: the verifier already
/// bounds their fuel).
pub(crate) const MAX_OPS: usize = 4096;
pub(crate) const MAX_BLOCKS: usize = 256;

/// Why a program was not lowered, and therefore runs on the checked
/// interpreter ([`ExecTier::Fused`](crate::ExecTier::Fused)) and is
/// never vectorized. Read it from
/// [`Instance::compile_bail`](crate::Instance::compile_bail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bail {
    /// More bytecode than the lowering accepts (4096 ops).
    TooManyOps,
    /// More basic blocks than the lowering accepts (256).
    TooManyBlocks,
    /// More than four operand-stack values cross the block boundary at
    /// `pc` (deeply nested short-circuit joins).
    CarryOverflow {
        /// Bytecode pc of the boundary.
        pc: u32,
    },
    /// The store/`out()`/discard at `pc` would run with unevaluated
    /// operands beneath it; making it a statement would reorder them.
    StackResidue {
        /// Bytecode pc of the statement.
        pc: u32,
    },
}

impl fmt::Display for Bail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bail::TooManyOps => write!(f, "more than {MAX_OPS} bytecode ops"),
            Bail::TooManyBlocks => write!(f, "more than {MAX_BLOCKS} basic blocks"),
            Bail::CarryOverflow { pc } => write!(
                f,
                "more than {MAX_CARRY} stack values cross the block boundary at pc {pc}"
            ),
            Bail::StackResidue { pc } => {
                write!(f, "pending operands beneath the statement at pc {pc}")
            }
        }
    }
}

#[inline(always)]
pub(crate) fn f64_of(bits: i64) -> f64 {
    f64::from_bits(bits as u64)
}

#[inline(always)]
pub(crate) fn bits_of(v: f64) -> i64 {
    v.to_bits() as i64
}

/// Declares an operator enum from one table of `Variant => meaning`
/// rows: `total` is the scalar meaning, `sweep` the same expression over
/// whole columns with the operator match hoisted out of the lane loop
/// (so each arm is a monomorphic loop the compiler can vectorize).
macro_rules! operators {
    ($(#[$doc:meta])* $E:ident |$($x:ident),+| $table:tt) => {
        operators!(@table $(#[$doc])* $E ($($x),+) ($($x: i64),+) ($($x: &[i64]),+) $table);
    };
    (@table $(#[$doc:meta])* $E:ident $xs:tt ($($scalar:tt)+) ($($column:tt)+)
        { $($V:ident => $body:expr,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum $E { $($V),+ }

        impl $E {
            #[inline(always)]
            fn total(self, $($scalar)+) -> i64 {
                match self { $($E::$V => $body),+ }
            }

            /// `d[lane] = op(operands[lane])` for every lane of `d`.
            pub(crate) fn sweep(self, d: &mut [i64], $($column)+) {
                match self { $($E::$V => operators!(@lanes d $xs $body)),+ }
            }
        }
    };
    (@lanes $d:ident ($($x:ident),+) $body:expr) => {{
        $(let $x = &$x[..$d.len()];)+
        for i in 0..$d.len() {
            $(let $x = $x[i];)+
            $d[i] = $body;
        }
    }};
}

operators! {
    /// Two-operand operators over raw 64-bit words: wrapping integer
    /// arithmetic, IEEE doubles via `to_bits`/`from_bits`.
    Bin |l, r| {
        AddI => l.wrapping_add(r),
        SubI => l.wrapping_sub(r),
        MulI => l.wrapping_mul(r),
        // `apply` raises the zero-divisor trap; `sweep` callers hold a
        // proven-nonzero constant divisor.
        DivI => l.wrapping_div(r),
        ModI => l.wrapping_rem(r),
        AddF => bits_of(f64_of(l) + f64_of(r)),
        SubF => bits_of(f64_of(l) - f64_of(r)),
        MulF => bits_of(f64_of(l) * f64_of(r)),
        DivF => bits_of(f64_of(l) / f64_of(r)),
        MinI => l.min(r),
        MinF => bits_of(f64_of(l).min(f64_of(r))),
        MaxI => l.max(r),
        MaxF => bits_of(f64_of(l).max(f64_of(r))),
        // Comparisons produce 0/1: words as integers, or as IEEE doubles.
        EqI => Cmp::Eq.eval(l, r) as i64,
        NeI => Cmp::Ne.eval(l, r) as i64,
        LtI => Cmp::Lt.eval(l, r) as i64,
        LeI => Cmp::Le.eval(l, r) as i64,
        GtI => Cmp::Gt.eval(l, r) as i64,
        GeI => Cmp::Ge.eval(l, r) as i64,
        EqF => Cmp::Eq.eval(f64_of(l), f64_of(r)) as i64,
        NeF => Cmp::Ne.eval(f64_of(l), f64_of(r)) as i64,
        LtF => Cmp::Lt.eval(f64_of(l), f64_of(r)) as i64,
        LeF => Cmp::Le.eval(f64_of(l), f64_of(r)) as i64,
        GtF => Cmp::Gt.eval(f64_of(l), f64_of(r)) as i64,
        GeF => Cmp::Ge.eval(f64_of(l), f64_of(r)) as i64,
    }
}

operators! {
    /// One-operand operators.
    Un |v| {
        NegI => v.wrapping_neg(),
        NegF => bits_of(-f64_of(v)),
        NotB => (v == 0) as i64,
        AbsI => v.wrapping_abs(),
        AbsF => bits_of(f64_of(v).abs()),
        I2F => bits_of(v as f64),
    }
}

impl Bin {
    /// Only integer division and modulo trap; everything else (float
    /// ops included — IEEE divides by zero quietly) is total.
    pub(crate) fn can_trap(self) -> bool {
        matches!(self, Bin::DivI | Bin::ModI)
    }

    /// The comparison an integer-compare operator performs.
    pub(crate) fn int_cmp(self) -> Option<Cmp> {
        Some(match self {
            Bin::EqI => Cmp::Eq,
            Bin::NeI => Cmp::Ne,
            Bin::LtI => Cmp::Lt,
            Bin::LeI => Cmp::Le,
            Bin::GtI => Cmp::Gt,
            Bin::GeI => Cmp::Ge,
            _ => return None,
        })
    }

    /// The operator's value, or `None` for the divide-by-zero trap.
    #[inline(always)]
    pub(crate) fn apply(self, l: i64, r: i64) -> Option<i64> {
        if self.can_trap() && r == 0 {
            return None;
        }
        Some(self.total(l, r))
    }
}

impl Un {
    #[inline(always)]
    pub(crate) fn apply(self, v: i64) -> i64 {
        self.total(v)
    }
}

/// Comparison kind: the one meaning of `==`, `<`, … for the `Bin`
/// compare rows and the compiled tier's specialized conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    #[inline(always)]
    pub(crate) fn eval<T: PartialOrd>(self, l: T, r: T) -> bool {
        match self {
            Cmp::Eq => l == r,
            Cmp::Ne => l != r,
            Cmp::Lt => l < r,
            Cmp::Le => l <= r,
            Cmp::Gt => l > r,
            Cmp::Ge => l >= r,
        }
    }
}

/// Expression tree for one stack value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Ex {
    /// Value carried in from the predecessor block (slot of its
    /// `carry_out`).
    Carry(u8),
    ConstI(i64),
    ConstF(f64),
    Input(u16),
    Global(u16),
    Local(u16),
    Bin(Bin, Box<Ex>, Box<Ex>),
    Un(Un, Box<Ex>),
}

impl Ex {
    /// Whether evaluating the tree can raise a trap.
    pub(crate) fn can_trap(&self) -> bool {
        match self {
            Ex::Bin(op, l, r) => op.can_trap() || l.can_trap() || r.can_trap(),
            Ex::Un(_, e) => e.can_trap(),
            Ex::Carry(_)
            | Ex::ConstI(_)
            | Ex::ConstF(_)
            | Ex::Input(_)
            | Ex::Global(_)
            | Ex::Local(_) => false,
        }
    }
}

/// One statement's effect, in program order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Step {
    StoreGlobal(u16, Ex),
    StoreLocal(u16, Ex),
    /// `out(slot, value)` — slot evaluates first (it was pushed first).
    Out(Ex, Ex),
    /// Expression statement that can trap: evaluate for effect, discard.
    Eval(Ex),
}

/// Block terminator. Targets are block indices.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Term {
    Jmp(u32),
    /// `if (cond == 0) goto on_false else goto on_true` — `JmpIfFalse`
    /// with the fall-through edge made explicit (`on_true` is always the
    /// next block in pc order).
    Br {
        cond: Ex,
        on_false: u32,
        on_true: u32,
    },
    Ret(Ex),
    RetC(i64),
}

impl Term {
    /// A conditional branch, folded when the condition is a literal:
    /// `push 0; jump-if-false` is the `&&` false arm feeding an `if` —
    /// an unconditional jump.
    pub(crate) fn br(cond: Ex, on_false: u32, on_true: u32) -> Term {
        match cond {
            Ex::ConstI(0) => Term::Jmp(on_false),
            Ex::ConstI(_) => Term::Jmp(on_true),
            cond => Term::Br {
                cond,
                on_false,
                on_true,
            },
        }
    }

    pub(crate) fn ret(e: Ex) -> Term {
        match e {
            Ex::ConstI(c) => Term::RetC(c),
            e => Term::Ret(e),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Bytecode pc of the block entry.
    pub(crate) entry_pc: u32,
    /// Operand-stack depth on entry: the predecessor's `carry_out` length.
    pub(crate) carry_in: u8,
    pub(crate) steps: Vec<Step>,
    /// Stack values live across the terminator, bottom-up. For
    /// `Jmp`/`Br` they become the successor's carries; for returns they
    /// are evaluated for traps and discarded.
    pub(crate) carry_out: Vec<Ex>,
    pub(crate) term: Term,
    /// `Op`s covered — the fuel the interpreter charges for the block.
    pub(crate) fuel: u64,
}

/// A lowered program: blocks in ascending `entry_pc` order, block 0 at
/// pc 0.
#[derive(Debug)]
pub(crate) struct Ir {
    pub(crate) blocks: Vec<Block>,
    /// Bytecode pc → block index (`u32::MAX` where no block starts).
    pub(crate) pc2block: Vec<u32>,
}

/// Everything derived from a program's bytecode at first use: the
/// load-time validation result, the lowering (or why there is none) and
/// the compiled graph built from it.
#[derive(Debug)]
pub(crate) struct Lowered {
    /// Maximum operand-stack depth (`validate`).
    pub(crate) max_stack: usize,
    pub(crate) ir: Result<Ir, Bail>,
    pub(crate) compiled: Option<Arc<jit::CompiledProgram>>,
}

impl Lowered {
    pub(crate) fn new(program: &Program) -> Lowered {
        let (max_stack, depth_at) = crate::vm::validate(program);
        let ir = lower(program, &depth_at);
        let compiled = ir.as_ref().ok().map(|ir| Arc::new(jit::compile(ir)));
        Lowered {
            max_stack,
            ir,
            compiled,
        }
    }
}

/// Lowers every reachable basic block of `program`. `depth_at[pc]` is
/// the operand-stack depth on entry to `pc` computed by `validate`
/// (−1 = unreachable: dead code is never entered, never lowered).
pub(crate) fn lower(program: &Program, depth_at: &[i32]) -> Result<Ir, Bail> {
    let code = &program.code;
    if code.len() > MAX_OPS {
        return Err(Bail::TooManyOps);
    }
    let mut pc2block = vec![u32::MAX; code.len()];
    let mut mark = |pc: usize| {
        if depth_at[pc] >= 0 {
            pc2block[pc] = 0;
        }
    };
    mark(0);
    for (pc, op) in code.iter().enumerate() {
        if depth_at[pc] < 0 {
            continue;
        }
        match *op {
            Op::Jmp(t) => mark(t as usize),
            Op::JmpIfFalse(t) => {
                mark(t as usize);
                mark(pc + 1);
            }
            _ => {}
        }
    }
    let mut entries = Vec::new();
    for (pc, b) in pc2block.iter_mut().enumerate() {
        if *b == 0 {
            *b = entries.len() as u32;
            entries.push(pc);
        }
    }
    if entries.len() > MAX_BLOCKS {
        return Err(Bail::TooManyBlocks);
    }
    let blocks = entries
        .iter()
        .map(|&entry| lower_block(code, entry, depth_at[entry] as usize, &pc2block))
        .collect::<Result<_, _>>()?;
    Ok(Ir { blocks, pc2block })
}

fn pop(sym: &mut Vec<Ex>) -> Ex {
    sym.pop().expect("validate proved no stack underflow")
}

fn node2(sym: &mut Vec<Ex>, op: Bin) {
    let r = Box::new(pop(sym));
    let l = Box::new(pop(sym));
    sym.push(Ex::Bin(op, l, r));
}

fn node1(sym: &mut Vec<Ex>, op: Un) {
    let e = Box::new(pop(sym));
    sym.push(Ex::Un(op, e));
}

/// Symbolically executes one block, reconstructing per-statement
/// expression trees from the stack code.
fn lower_block(
    code: &[Op],
    entry: usize,
    carry_in: usize,
    pc2block: &[u32],
) -> Result<Block, Bail> {
    let mut sym: Vec<Ex> = (0..carry_in).map(|i| Ex::Carry(i as u8)).collect();
    let sym = &mut sym;
    let mut steps = Vec::new();
    let mut pc = entry;
    let term = loop {
        if pc > entry && pc2block[pc] != u32::MAX {
            break Term::Jmp(pc2block[pc]); // fall-through: costs no fuel
        }
        let at = pc as u32;
        let op = code[pc];
        pc += 1;
        // A statement must leave only entry carries pending beneath it:
        // anything else would evaluate *after* the store where the
        // bytecode ran it before. The compiler's statement discipline
        // guarantees this; bail, don't trust.
        let mut stmt = |sym: &[Ex], step: Option<Step>| {
            if !sym.iter().all(|e| matches!(e, Ex::Carry(_))) {
                return Err(Bail::StackResidue { pc: at });
            }
            steps.extend(step);
            Ok(())
        };
        match op {
            Op::ConstI(v) => sym.push(Ex::ConstI(v)),
            Op::ConstF(v) => sym.push(Ex::ConstF(v)),
            Op::LoadInput(i) => sym.push(Ex::Input(i)),
            Op::LoadGlobal(i) => sym.push(Ex::Global(i)),
            Op::LoadLocal(i) => sym.push(Ex::Local(i)),
            Op::StoreGlobal(g) => {
                let e = pop(sym);
                stmt(sym, Some(Step::StoreGlobal(g, e)))?;
            }
            Op::StoreLocal(l) => {
                let e = pop(sym);
                stmt(sym, Some(Step::StoreLocal(l, e)))?;
            }
            Op::Out => {
                let value = pop(sym);
                let slot = pop(sym);
                stmt(sym, Some(Step::Out(slot, value)))?;
            }
            Op::Pop => {
                // A discarded `1 / x` still traps; a trap-free discard
                // is dropped outright — nothing can observe it, and its
                // ops stay in the block's fuel either way.
                let e = pop(sym);
                stmt(sym, e.can_trap().then_some(Step::Eval(e)))?;
            }
            Op::I2FUnder => {
                let top = pop(sym);
                node1(sym, Un::I2F);
                sym.push(top);
            }
            Op::I2F => node1(sym, Un::I2F),
            Op::NegI => node1(sym, Un::NegI),
            Op::NegF => node1(sym, Un::NegF),
            Op::NotB => node1(sym, Un::NotB),
            Op::AbsI => node1(sym, Un::AbsI),
            Op::AbsF => node1(sym, Un::AbsF),
            Op::AddI => node2(sym, Bin::AddI),
            Op::SubI => node2(sym, Bin::SubI),
            Op::MulI => node2(sym, Bin::MulI),
            Op::DivI => node2(sym, Bin::DivI),
            Op::ModI => node2(sym, Bin::ModI),
            Op::AddF => node2(sym, Bin::AddF),
            Op::SubF => node2(sym, Bin::SubF),
            Op::MulF => node2(sym, Bin::MulF),
            Op::DivF => node2(sym, Bin::DivF),
            Op::MinI => node2(sym, Bin::MinI),
            Op::MinF => node2(sym, Bin::MinF),
            Op::MaxI => node2(sym, Bin::MaxI),
            Op::MaxF => node2(sym, Bin::MaxF),
            Op::EqI => node2(sym, Bin::EqI),
            Op::NeI => node2(sym, Bin::NeI),
            Op::LtI => node2(sym, Bin::LtI),
            Op::LeI => node2(sym, Bin::LeI),
            Op::GtI => node2(sym, Bin::GtI),
            Op::GeI => node2(sym, Bin::GeI),
            Op::EqF => node2(sym, Bin::EqF),
            Op::NeF => node2(sym, Bin::NeF),
            Op::LtF => node2(sym, Bin::LtF),
            Op::LeF => node2(sym, Bin::LeF),
            Op::GtF => node2(sym, Bin::GtF),
            Op::GeF => node2(sym, Bin::GeF),
            Op::Jmp(t) => break Term::Jmp(pc2block[t as usize]),
            Op::JmpIfFalse(t) => break Term::br(pop(sym), pc2block[t as usize], pc2block[pc]),
            Op::Ret => break Term::ret(pop(sym)),
            Op::RetVoid => break Term::RetC(0),
        }
    };
    if sym.len() > MAX_CARRY {
        return Err(Bail::CarryOverflow { pc: pc as u32 });
    }
    Ok(Block {
        entry_pc: entry as u32,
        carry_in: carry_in as u8,
        steps,
        carry_out: std::mem::take(sym),
        term,
        fuel: (pc - entry) as u64,
    })
}

// The sweeps' generators live with the integration tests; the IR is
// crate-private, so its checks over the same programs live here.
#[cfg(test)]
#[path = "../tests/gen/mod.rs"]
mod gen;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::GlobalInit;
    use crate::{Instance, Type, Value};

    use super::gen;

    const INPUTS: [(&str, Type); 2] = [("size", Type::Int), ("port", Type::Int)];

    fn lowered(src: &str) -> Program {
        let p = Program::compile(src, &INPUTS).unwrap_or_else(|e| panic!("{e}\n{src}"));
        p.lowered();
        p
    }

    // One test per `Bail` variant: a refusal always says why, and the
    // instance reports it.

    #[test]
    fn bail_too_many_ops() {
        let body = "n = n + size % 7;\n".repeat(MAX_OPS / 4);
        let p = lowered(&format!("static int n = 0;\n{body}return n;"));
        assert_eq!(p.lowered().ir.as_ref().unwrap_err(), &Bail::TooManyOps);
        assert_eq!(Instance::new(&p).compile_bail(), Some(Bail::TooManyOps));
    }

    #[test]
    fn bail_too_many_blocks() {
        // 130 guarded bumps: ~1,200 ops (under the op limit), 261 blocks.
        let body = "if (size > 3) { n = n + 1; }\n".repeat(130);
        let p = lowered(&format!("static int n = 0;\n{body}return n;"));
        assert!(p.code.len() <= MAX_OPS);
        assert_eq!(Instance::new(&p).compile_bail(), Some(Bail::TooManyBlocks));
    }

    #[test]
    fn bail_carry_overflow() {
        // Four pending booleans below the short-circuit join put five
        // values on the stack where the `&&` branches.
        let p = lowered(
            "return size > 0 == (port > 0 == (size > 1 == (port > 1 == (size > 2 && port > 2))));",
        );
        let why = Instance::new(&p).compile_bail().expect("does not lower");
        assert!(
            matches!(why, Bail::CarryOverflow { pc } if pc > 0),
            "{why:?}"
        );
        assert!(why.to_string().contains("block boundary"), "{why}");
    }

    #[test]
    fn bail_stack_residue() {
        // Hand-assembled: a store while an unevaluated constant is still
        // pending beneath it. The compiler's statement discipline never
        // emits this; the lowering must refuse rather than reorder.
        let code = vec![
            Op::ConstI(1),
            Op::ConstI(2),
            Op::StoreGlobal(0),
            Op::Pop,
            Op::RetVoid,
        ];
        let globals = vec![("g".to_owned(), Type::Int, GlobalInit::Int(0))];
        let p = Program::from_parts(code, vec![], globals, 0);
        assert_eq!(
            Instance::new(&p).compile_bail(),
            Some(Bail::StackResidue { pc: 2 })
        );
    }

    #[test]
    fn column_backend_bails_on_an_unblendable_join() {
        use crate::analysis::{MergeClass, MergePlan, SlotPlan};
        use crate::{BatchBail, BatchEval};
        // Hand-assembled: the two arms of a branch leave *different*
        // mutable statics on the stack for the join to pick from — a
        // value that depends on the path, which no lane blend can
        // express. (The compiler never emits this; the vectorizer must
        // still refuse it rather than trust that.)
        let code = vec![
            Op::LoadInput(0),
            Op::JmpIfFalse(4),
            Op::LoadGlobal(0),
            Op::Jmp(5),
            Op::LoadGlobal(1),
            Op::Pop,
            Op::RetVoid,
        ];
        let global = |n: &str| (n.to_owned(), Type::Int, GlobalInit::Int(0));
        let p = Program::from_parts(
            code,
            vec![("x".to_owned(), Type::Bool)],
            vec![global("a"), global("b")],
            0,
        );
        let slot = |n: &str| SlotPlan {
            name: n.to_owned(),
            class: MergeClass::Counter,
            escapes: false,
        };
        let plan = MergePlan {
            slots: vec![slot("a"), slot("b")],
        };
        assert_eq!(
            BatchEval::compile(&p, &plan, 1_000).unwrap_err(),
            BatchBail::JoinShape { pc: 5 }
        );
    }

    #[test]
    fn a_lowered_program_reports_no_bail() {
        let p = lowered("static int n = 0; n = n + 1; return n;");
        assert_eq!(Instance::new(&p).compile_bail(), None);
        assert_eq!(Instance::new_fused(&p).compile_bail(), None);
    }

    /// Reference evaluation of the IR itself (not of either backend):
    /// walks blocks from block 0 over `inputs`, returning the value
    /// returned and the fuels of the blocks entered, or `None` on a
    /// divide-by-zero trap.
    fn walk(ir: &Ir, globals: &mut [i64], n_locals: usize, inputs: &[i64]) -> Option<(i64, u64)> {
        struct Env<'a> {
            globals: &'a mut [i64],
            locals: Vec<i64>,
            inputs: &'a [i64],
            carry: Vec<i64>,
        }
        fn eval(e: &Ex, env: &Env<'_>) -> Option<i64> {
            Some(match e {
                Ex::Carry(i) => env.carry[*i as usize],
                Ex::ConstI(v) => *v,
                Ex::ConstF(v) => bits_of(*v),
                Ex::Input(i) => env.inputs[*i as usize],
                Ex::Global(i) => env.globals[*i as usize],
                Ex::Local(i) => env.locals[*i as usize],
                Ex::Bin(op, l, r) => op.apply(eval(l, env)?, eval(r, env)?)?,
                Ex::Un(op, e) => op.apply(eval(e, env)?),
            })
        }
        let mut env = Env {
            globals,
            locals: vec![0; n_locals],
            inputs,
            carry: Vec::new(),
        };
        let (mut bi, mut fuel) = (0usize, 0u64);
        loop {
            let b = &ir.blocks[bi];
            assert_eq!(
                env.carry.len(),
                b.carry_in as usize,
                "carry depth at block {bi}"
            );
            fuel += b.fuel;
            for s in &b.steps {
                match s {
                    Step::StoreGlobal(g, e) => env.globals[*g as usize] = eval(e, &env)?,
                    Step::StoreLocal(l, e) => env.locals[*l as usize] = eval(e, &env)?,
                    Step::Out(slot, value) => drop((eval(slot, &env)?, eval(value, &env)?)),
                    Step::Eval(e) => drop(eval(e, &env)?),
                }
            }
            let carries = b
                .carry_out
                .iter()
                .map(|e| eval(e, &env))
                .collect::<Option<Vec<_>>>()?;
            bi = match &b.term {
                Term::Jmp(t) => *t,
                Term::Br {
                    cond,
                    on_false,
                    on_true,
                } => {
                    if eval(cond, &env)? == 0 {
                        *on_false
                    } else {
                        *on_true
                    }
                }
                Term::Ret(e) => return Some((eval(e, &env)?, fuel)),
                Term::RetC(c) => return Some((*c, fuel)),
            } as usize;
            env.carry = carries;
        }
    }

    /// The IR's two structural promises, over the sweeps' generated
    /// programs (the tier sweep's 300 are the `Gen` half of the shard
    /// sweep's 600): blocks partition the reachable bytecode, and block
    /// fuels summed along the path a run takes equal what the per-op
    /// reference charges for it.
    #[test]
    fn generated_programs_lower_to_a_partition_with_exact_path_fuel() {
        let mut rng = gen::Rng::new(0x1e_70ad);
        let programs: Vec<String> = (0..300u64)
            .map(|seed| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1)
            .flat_map(|per| {
                [
                    gen::MergeGen::new(per).program(),
                    gen::Gen::new(per).program(),
                ]
            })
            .collect();
        let mut runs = 0;
        for src in &programs {
            let p = lowered(src);
            let (_, depth_at) = crate::vm::validate(&p);
            let ir = p
                .lowered()
                .ir
                .as_ref()
                .unwrap_or_else(|b| panic!("{b}\n{src}"));

            // Partition: walking each block's span marks every reachable
            // pc exactly once, and nothing unreachable.
            let mut owner = vec![u32::MAX; p.code.len()];
            for (bi, b) in ir.blocks.iter().enumerate() {
                assert_eq!(ir.pc2block[b.entry_pc as usize], bi as u32, "{src}");
                let end = b.entry_pc as usize + b.fuel as usize;
                for (pc, slot) in owner
                    .iter_mut()
                    .enumerate()
                    .take(end)
                    .skip(b.entry_pc as usize)
                {
                    assert_eq!(*slot, u32::MAX, "pc {pc} lies in two blocks\n{src}");
                    *slot = bi as u32;
                }
            }
            for (pc, depth) in depth_at.iter().enumerate() {
                assert_eq!(*depth >= 0, owner[pc] != u32::MAX, "pc {pc} on\n{src}");
            }

            // Path fuel: the IR walk and the per-op interpreter agree on
            // return value, fuel and statics, run after run.
            let mut reference = Instance::new_fused(&p);
            let mut globals = reference.raw_globals().to_vec();
            for _ in 0..6 {
                let (a, b) = (rng.next() as i64 % 5_000, rng.next() as i64 % 70_000);
                let want = reference
                    .run_per_op(&[Value::Int(a), Value::Int(b)], u64::MAX)
                    .ok()
                    .map(|o| (o.ret, o.fuel_used));
                let got = walk(ir, &mut globals, p.n_locals as usize, &[a, b]);
                assert_eq!(got, want, "inputs ({a}, {b}) on\n{src}");
                if want.is_none() {
                    break; // a trap leaves statics mid-statement
                }
                assert_eq!(globals, reference.raw_globals(), "{src}");
                runs += 1;
            }
        }
        assert!(runs > 3_000, "only {runs} trap-free runs checked");
    }
}
