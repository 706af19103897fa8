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
//! value; the successor reads them back as [`Node::Carry`]. `fuel` is
//! the number of `Op`s the block covers — what the interpreter charges
//! one op at a time — so fuels summed along any path equal `fuel_used`.
//!
//! # One node table
//!
//! The trees of every block live in one table per lowering,
//! [`Ir::nodes`]: a [`Node`] names its operands, and a statement, a
//! terminator or a carry names its tree, by [`NodeId`]. A lowering so
//! allocates per table and per block, not per expression node, and a
//! backend reads the trees where they lie: the compiled tier merges
//! jump chains over this table, adding only the nodes a carry
//! substitution creates (`jit::compile`).
//!
//! Operators get their single scalar meaning here too: [`Bin::apply`],
//! [`Un::apply`] and [`Cmp::eval`], with a lane-wise `sweep` generated
//! from the same table rows.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::analysis::MergePlan;
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

/// Index of a [`Node`] in its table.
pub(crate) type NodeId = u32;

/// One node of an expression tree; operands are ids in the same table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Node {
    /// Value carried in from the predecessor block (slot of its
    /// `carry_out`).
    Carry(u8),
    ConstI(i64),
    ConstF(f64),
    Input(u16),
    Global(u16),
    Local(u16),
    Bin(Bin, NodeId, NodeId),
    Un(Un, NodeId),
}

/// Read access to a node table: the lowering's own, or a backend's view
/// of it with the nodes it added.
pub(crate) trait Nodes {
    fn node(&self, id: NodeId) -> Node;

    /// Whether evaluating the tree at `id` can raise a trap.
    fn can_trap(&self, id: NodeId) -> bool {
        match self.node(id) {
            Node::Bin(op, l, r) => op.can_trap() || self.can_trap(l) || self.can_trap(r),
            Node::Un(_, e) => self.can_trap(e),
            Node::Carry(_)
            | Node::ConstI(_)
            | Node::ConstF(_)
            | Node::Input(_)
            | Node::Global(_)
            | Node::Local(_) => false,
        }
    }
}

impl Nodes for [Node] {
    fn node(&self, id: NodeId) -> Node {
        self[id as usize]
    }
}

/// One statement's effect, in program order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Step {
    StoreGlobal(u16, NodeId),
    StoreLocal(u16, NodeId),
    /// `out(slot, value)` — slot evaluates first (it was pushed first).
    Out(NodeId, NodeId),
    /// Expression statement that can trap: evaluate for effect, discard.
    Eval(NodeId),
}

/// Block terminator. Targets are block indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Term {
    Jmp(u32),
    /// `if (cond == 0) goto on_false else goto on_true` — `JmpIfFalse`
    /// with the fall-through edge made explicit (`on_true` is always the
    /// next block in pc order).
    Br {
        cond: NodeId,
        on_false: u32,
        on_true: u32,
    },
    Ret(NodeId),
    RetC(i64),
}

impl Term {
    /// A conditional branch on the tree `cond`, whose root is `node`,
    /// folded when the condition is a literal: `push 0; jump-if-false`
    /// is the `&&` false arm feeding an `if` — an unconditional jump.
    pub(crate) fn br(cond: NodeId, node: Node, on_false: u32, on_true: u32) -> Term {
        match node {
            Node::ConstI(0) => Term::Jmp(on_false),
            Node::ConstI(_) => Term::Jmp(on_true),
            _ => Term::Br {
                cond,
                on_false,
                on_true,
            },
        }
    }

    /// A return of the tree `e`, whose root is `node`.
    pub(crate) fn ret(e: NodeId, node: Node) -> Term {
        match node {
            Node::ConstI(c) => Term::RetC(c),
            _ => Term::Ret(e),
        }
    }
}

#[derive(Debug)]
pub(crate) struct Block {
    /// Bytecode pc of the block entry.
    pub(crate) entry_pc: u32,
    /// Operand-stack depth on entry: the predecessor's `carry_out` length.
    pub(crate) carry_in: u8,
    pub(crate) steps: Vec<Step>,
    /// Stack values live across the terminator, bottom-up. For
    /// `Jmp`/`Br` they become the successor's carries; for returns they
    /// are evaluated for traps and discarded.
    pub(crate) carry_out: Vec<NodeId>,
    pub(crate) term: Term,
    /// `Op`s covered — the fuel the interpreter charges for the block.
    pub(crate) fuel: u64,
}

/// A lowered program: blocks in ascending `entry_pc` order, block 0 at
/// pc 0, over one node table.
#[derive(Debug)]
pub(crate) struct Ir {
    /// Every block's expression nodes.
    pub(crate) nodes: Vec<Node>,
    pub(crate) blocks: Vec<Block>,
    /// Bytecode pc → block index (`u32::MAX` where no block starts).
    pub(crate) pc2block: Vec<u32>,
}

/// Everything derived from a program's bytecode at first use: the
/// load-time validation result and the lowering (or why there is
/// none), then on first ask the compiled graph built from it
/// ([`Lowered::compiled`]) and the shard-safety proof over it
/// ([`Program::merge_plan`]).
#[derive(Debug)]
pub(crate) struct Lowered {
    /// Maximum operand-stack depth (`validate`).
    pub(crate) max_stack: usize,
    pub(crate) ir: Result<Ir, Bail>,
    compiled: OnceLock<Option<Arc<jit::CompiledProgram>>>,
    pub(crate) merge_plan: OnceLock<MergePlan>,
}

impl Lowered {
    pub(crate) fn new(program: &Program) -> Lowered {
        let (max_stack, depth_at) = crate::vm::validate(program);
        Lowered {
            max_stack,
            ir: lower(program, &depth_at),
            compiled: OnceLock::new(),
            merge_plan: OnceLock::new(),
        }
    }

    /// The compiled graph, `None` when the program did not lower. Built
    /// by the first [`Instance::new`](crate::Instance::new) and shared by
    /// every instance after it, so a program that only the verifier
    /// saw — one it refused — never builds closures.
    pub(crate) fn compiled(&self) -> Option<&Arc<jit::CompiledProgram>> {
        let build = || {
            let ir = self.ir.as_ref().ok()?;
            #[cfg(test)]
            BUILT.with(|n| n.set(n.get() + 1));
            Some(Arc::new(jit::compile(ir)))
        };
        self.compiled.get_or_init(build).as_ref()
    }
}

/// Lowers every reachable basic block of `program`. `depth_at[pc]` is
/// the operand-stack depth on entry to `pc` computed by `validate`
/// (−1 = unreachable: dead code is never entered, never lowered).
pub(crate) fn lower(program: &Program, depth_at: &[i32]) -> Result<Ir, Bail> {
    let code = program.code();
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
    // Each op adds at most one node, and each block entry its carries.
    let carries: usize = entries.iter().map(|&e| depth_at[e] as usize).sum();
    let mut lowering = Lowering {
        code,
        pc2block: &pc2block,
        nodes: Vec::with_capacity(code.len() + carries),
        sym: Vec::new(),
    };
    let blocks = entries
        .iter()
        .map(|&entry| lowering.block(entry, depth_at[entry] as usize))
        .collect::<Result<_, _>>()?;
    let nodes = lowering.nodes;
    Ok(Ir {
        nodes,
        blocks,
        pc2block,
    })
}

/// The state of one lowering: the node table every block's trees go
/// into, and the symbolic operand stack, reused block after block.
struct Lowering<'a> {
    code: &'a [Op],
    pc2block: &'a [u32],
    nodes: Vec<Node>,
    sym: Vec<NodeId>,
}

impl Lowering<'_> {
    fn push(&mut self, n: Node) {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(n);
        self.sym.push(id);
    }

    fn pop(&mut self) -> NodeId {
        self.sym.pop().expect("validate proved no stack underflow")
    }

    fn node2(&mut self, op: Bin) {
        let r = self.pop();
        let l = self.pop();
        self.push(Node::Bin(op, l, r));
    }

    fn node1(&mut self, op: Un) {
        let e = self.pop();
        self.push(Node::Un(op, e));
    }

    /// Symbolically executes one block, reconstructing per-statement
    /// expression trees from the stack code.
    fn block(&mut self, entry: usize, carry_in: usize) -> Result<Block, Bail> {
        let (code, pc2block) = (self.code, self.pc2block);
        self.sym.clear();
        for i in 0..carry_in {
            self.push(Node::Carry(i as u8));
        }
        let mut steps = Vec::new();
        let mut pc = entry;
        let term = loop {
            if pc > entry && pc2block[pc] != u32::MAX {
                break Term::Jmp(pc2block[pc]); // fall-through: costs no fuel
            }
            let at = pc as u32;
            let op = code[pc];
            pc += 1;
            // A statement must leave only entry carries pending beneath
            // it: anything else would evaluate *after* the store where
            // the bytecode ran it before. The compiler's statement
            // discipline guarantees this; bail, don't trust.
            let mut stmt = |this: &Self, step: Option<Step>| {
                let nodes = &this.nodes;
                if !this
                    .sym
                    .iter()
                    .all(|&e| matches!(nodes[e as usize], Node::Carry(_)))
                {
                    return Err(Bail::StackResidue { pc: at });
                }
                steps.extend(step);
                Ok(())
            };
            match op {
                Op::ConstI(v) => self.push(Node::ConstI(v)),
                Op::ConstF(v) => self.push(Node::ConstF(v)),
                Op::LoadInput(i) => self.push(Node::Input(i)),
                Op::LoadGlobal(i) => self.push(Node::Global(i)),
                Op::LoadLocal(i) => self.push(Node::Local(i)),
                Op::StoreGlobal(g) => {
                    let e = self.pop();
                    stmt(self, Some(Step::StoreGlobal(g, e)))?;
                }
                Op::StoreLocal(l) => {
                    let e = self.pop();
                    stmt(self, Some(Step::StoreLocal(l, e)))?;
                }
                Op::Out => {
                    let value = self.pop();
                    let slot = self.pop();
                    stmt(self, Some(Step::Out(slot, value)))?;
                }
                Op::Pop => {
                    // A discarded `1 / x` still traps; a trap-free
                    // discard is dropped outright — nothing can observe
                    // it, and its ops stay in the block's fuel either
                    // way.
                    let e = self.pop();
                    let traps = self.nodes[..].can_trap(e);
                    stmt(self, traps.then_some(Step::Eval(e)))?;
                }
                Op::I2FUnder => {
                    let top = self.pop();
                    self.node1(Un::I2F);
                    self.sym.push(top);
                }
                Op::I2F => self.node1(Un::I2F),
                Op::NegI => self.node1(Un::NegI),
                Op::NegF => self.node1(Un::NegF),
                Op::NotB => self.node1(Un::NotB),
                Op::AbsI => self.node1(Un::AbsI),
                Op::AbsF => self.node1(Un::AbsF),
                Op::AddI => self.node2(Bin::AddI),
                Op::SubI => self.node2(Bin::SubI),
                Op::MulI => self.node2(Bin::MulI),
                Op::DivI => self.node2(Bin::DivI),
                Op::ModI => self.node2(Bin::ModI),
                Op::AddF => self.node2(Bin::AddF),
                Op::SubF => self.node2(Bin::SubF),
                Op::MulF => self.node2(Bin::MulF),
                Op::DivF => self.node2(Bin::DivF),
                Op::MinI => self.node2(Bin::MinI),
                Op::MinF => self.node2(Bin::MinF),
                Op::MaxI => self.node2(Bin::MaxI),
                Op::MaxF => self.node2(Bin::MaxF),
                Op::EqI => self.node2(Bin::EqI),
                Op::NeI => self.node2(Bin::NeI),
                Op::LtI => self.node2(Bin::LtI),
                Op::LeI => self.node2(Bin::LeI),
                Op::GtI => self.node2(Bin::GtI),
                Op::GeI => self.node2(Bin::GeI),
                Op::EqF => self.node2(Bin::EqF),
                Op::NeF => self.node2(Bin::NeF),
                Op::LtF => self.node2(Bin::LtF),
                Op::LeF => self.node2(Bin::LeF),
                Op::GtF => self.node2(Bin::GtF),
                Op::GeF => self.node2(Bin::GeF),
                Op::Jmp(t) => break Term::Jmp(pc2block[t as usize]),
                Op::JmpIfFalse(t) => {
                    let cond = self.pop();
                    let node = self.nodes[cond as usize];
                    break Term::br(cond, node, pc2block[t as usize], pc2block[pc]);
                }
                Op::Ret => {
                    let e = self.pop();
                    break Term::ret(e, self.nodes[e as usize]);
                }
                Op::RetVoid => break Term::RetC(0),
            }
        };
        if self.sym.len() > MAX_CARRY {
            return Err(Bail::CarryOverflow { pc: pc as u32 });
        }
        Ok(Block {
            entry_pc: entry as u32,
            carry_in: carry_in as u8,
            steps,
            carry_out: self.sym.clone(),
            term,
            fuel: (pc - entry) as u64,
        })
    }
}

#[cfg(test)]
thread_local! {
    /// Compiled graphs this thread has built, for the unit tests that
    /// pin when an install builds one.
    pub(crate) static BUILT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::GlobalInit;
    use crate::{Instance, Type, Value};

    use crate::gen;

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
        assert!(p.code().len() <= MAX_OPS);
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
        use crate::{BatchBail, BatchEval};
        // Hand-assembled: two counters, then the two arms of a branch
        // leave *different* mutable statics on the stack for the join
        // to pick from — a value that depends on the path, which no
        // lane blend can express. (The compiler never emits this; the
        // vectorizer must still refuse it rather than trust that.)
        let mut code = Vec::new();
        for g in 0..2 {
            code.extend([
                Op::LoadGlobal(g),
                Op::ConstI(1),
                Op::AddI,
                Op::StoreGlobal(g),
            ]);
        }
        code.extend([
            Op::LoadInput(0),
            Op::JmpIfFalse(12),
            Op::LoadGlobal(0),
            Op::Jmp(13),
            Op::LoadGlobal(1),
            Op::Pop,
            Op::RetVoid,
        ]);
        let global = |n: &str| (n.to_owned(), Type::Int, GlobalInit::Int(0));
        let p = Program::from_parts(
            code,
            vec![("x".to_owned(), Type::Bool)],
            vec![global("a"), global("b")],
            0,
        );
        assert!(p.merge_plan().fully_mergeable());
        assert_eq!(
            BatchEval::compile(&p).unwrap_err(),
            BatchBail::JoinShape { pc: 13 }
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
        fn eval(nodes: &[Node], e: NodeId, env: &Env<'_>) -> Option<i64> {
            let eval = |e| eval(nodes, e, env);
            Some(match nodes[e as usize] {
                Node::Carry(i) => env.carry[i as usize],
                Node::ConstI(v) => v,
                Node::ConstF(v) => bits_of(v),
                Node::Input(i) => env.inputs[i as usize],
                Node::Global(i) => env.globals[i as usize],
                Node::Local(i) => env.locals[i as usize],
                Node::Bin(op, l, r) => op.apply(eval(l)?, eval(r)?)?,
                Node::Un(op, e) => op.apply(eval(e)?),
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
            let n = &ir.nodes[..];
            for s in &b.steps {
                match *s {
                    Step::StoreGlobal(g, e) => env.globals[g as usize] = eval(n, e, &env)?,
                    Step::StoreLocal(l, e) => env.locals[l as usize] = eval(n, e, &env)?,
                    Step::Out(slot, value) => drop((eval(n, slot, &env)?, eval(n, value, &env)?)),
                    Step::Eval(e) => drop(eval(n, e, &env)?),
                }
            }
            let carries = b
                .carry_out
                .iter()
                .map(|&e| eval(n, e, &env))
                .collect::<Option<Vec<_>>>()?;
            bi = match b.term {
                Term::Jmp(t) => t,
                Term::Br {
                    cond,
                    on_false,
                    on_true,
                } => {
                    if eval(n, cond, &env)? == 0 {
                        on_false
                    } else {
                        on_true
                    }
                }
                Term::Ret(e) => return Some((eval(n, e, &env)?, fuel)),
                Term::RetC(c) => return Some((c, fuel)),
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
            let mut owner = vec![u32::MAX; p.code().len()];
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
                let got = walk(ir, &mut globals, p.n_locals() as usize, &[a, b]);
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
