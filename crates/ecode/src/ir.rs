//! The one lowering: validated stack bytecode → basic blocks of
//! statement trees.
//!
//! Both fast backends — the closure tier ([`crate::jit`]) and the column
//! evaluator ([`crate::batch`]) — need the same three things the stack
//! code hides: where the basic blocks are, what each statement computes
//! as a tree, and how much fuel each block costs. [`lower`] derives them
//! once per [`Program`] (cached behind [`Program::lowered`], so every
//! `Instance` and `BatchEval` built from one program shares it) and is
//! the only function outside the reference interpreter and `analysis/`
//! that walks `Op`s.
//!
//! # What a block is
//!
//! Blocks **partition** the reachable bytecode: a block starts at pc 0,
//! at every jump target and after every conditional branch, and ends at
//! its first terminator *or* just before the next block entry. The
//! second case is a fall-through, made explicit as a `Term::Jmp` that
//! costs no fuel. (The interpreter's notion of a block — entry through
//! the next real terminator — overlaps its successors at interior jump
//! targets; the closure tier recovers those longer spans with
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
//! [`Un::apply`], [`Cmp::eval`], each with a lane-wise `sweep` generated
//! from the same table.

use std::fmt;
use std::sync::Arc;

use crate::compile::Program;
use crate::jit;
use crate::vm::Op;

/// Hard cap on operand-stack values carried across a block boundary.
/// Short-circuit joins in real E-Code carry one or two; the array lives
/// in the driver's stack frame, so the cap keeps block entry/exit
/// allocation-free.
pub(crate) const MAX_CARRY: usize = 4;

/// Size limits gating the lowering. Programs beyond them still run — on
/// the checked interpreter — they just aren't worth a block graph
/// (compile time and memory scale with block count, and CPAs installed
/// on the event hot path are small by doctrine: the verifier already
/// bounds their fuel).
pub(crate) const MAX_OPS: usize = 4096;
const MAX_BLOCKS: usize = 256;

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

pub(crate) fn f64_of(bits: i64) -> f64 {
    f64::from_bits(bits as u64)
}

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

/// Comparison kind; [`Ex::CmpI`] compares words as integers, [`Ex::CmpF`]
/// as IEEE doubles. Both produce 0/1.
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

    /// Lane-wise comparison into 0/1, as integers or (`float`) doubles.
    pub(crate) fn sweep(self, float: bool, d: &mut [i64], l: &[i64], r: &[i64]) {
        #[inline(always)]
        fn lanes(d: &mut [i64], l: &[i64], r: &[i64], f: impl Fn(i64, i64) -> bool) {
            let n = d.len();
            for ((d, &x), &y) in d.iter_mut().zip(&l[..n]).zip(&r[..n]) {
                *d = f(x, y) as i64;
            }
        }
        macro_rules! hoist {
            ($($V:ident)+) => {
                match (self, float) {
                    $((Cmp::$V, false) => lanes(d, l, r, |x, y| Cmp::$V.eval(x, y)),
                    (Cmp::$V, true) => {
                        lanes(d, l, r, |x, y| Cmp::$V.eval(f64_of(x), f64_of(y)))
                    })+
                }
            };
        }
        hoist!(Eq Ne Lt Le Gt Ge)
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
    CmpI(Cmp, Box<Ex>, Box<Ex>),
    CmpF(Cmp, Box<Ex>, Box<Ex>),
}

impl Ex {
    /// Whether evaluating the tree can raise a trap.
    pub(crate) fn can_trap(&self) -> bool {
        match self {
            Ex::Bin(op, l, r) => op.can_trap() || l.can_trap() || r.can_trap(),
            Ex::Un(_, e) => e.can_trap(),
            Ex::CmpI(_, l, r) | Ex::CmpF(_, l, r) => l.can_trap() || r.can_trap(),
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
/// the closure graph built from it.
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

/// Replaces the top two stack values with the node `mk(k, left, right)`.
fn node2<K>(sym: &mut Vec<Ex>, k: K, mk: fn(K, Box<Ex>, Box<Ex>) -> Ex) {
    let r = Box::new(pop(sym));
    let l = Box::new(pop(sym));
    sym.push(mk(k, l, r));
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
            Op::AddI => node2(sym, Bin::AddI, Ex::Bin),
            Op::SubI => node2(sym, Bin::SubI, Ex::Bin),
            Op::MulI => node2(sym, Bin::MulI, Ex::Bin),
            Op::DivI => node2(sym, Bin::DivI, Ex::Bin),
            Op::ModI => node2(sym, Bin::ModI, Ex::Bin),
            Op::AddF => node2(sym, Bin::AddF, Ex::Bin),
            Op::SubF => node2(sym, Bin::SubF, Ex::Bin),
            Op::MulF => node2(sym, Bin::MulF, Ex::Bin),
            Op::DivF => node2(sym, Bin::DivF, Ex::Bin),
            Op::MinI => node2(sym, Bin::MinI, Ex::Bin),
            Op::MinF => node2(sym, Bin::MinF, Ex::Bin),
            Op::MaxI => node2(sym, Bin::MaxI, Ex::Bin),
            Op::MaxF => node2(sym, Bin::MaxF, Ex::Bin),
            Op::EqI => node2(sym, Cmp::Eq, Ex::CmpI),
            Op::NeI => node2(sym, Cmp::Ne, Ex::CmpI),
            Op::LtI => node2(sym, Cmp::Lt, Ex::CmpI),
            Op::LeI => node2(sym, Cmp::Le, Ex::CmpI),
            Op::GtI => node2(sym, Cmp::Gt, Ex::CmpI),
            Op::GeI => node2(sym, Cmp::Ge, Ex::CmpI),
            Op::EqF => node2(sym, Cmp::Eq, Ex::CmpF),
            Op::NeF => node2(sym, Cmp::Ne, Ex::CmpF),
            Op::LtF => node2(sym, Cmp::Lt, Ex::CmpF),
            Op::LeF => node2(sym, Cmp::Le, Ex::CmpF),
            Op::GtF => node2(sym, Cmp::Gt, Ex::CmpF),
            Op::GeF => node2(sym, Cmp::Ge, Ex::CmpF),
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
