//! The compiled execution tier: the scalar backend of the one lowering
//! (`ecode::ir`).
//!
//! The paper's CPAs were *natively* code-generated into the running
//! kernel; a bytecode interpreter taxes that path with a dispatch per
//! opcode. This module removes the tax for the shapes analyzers are
//! actually written in: the IR's basic blocks are merged back into
//! straight-line spans, and every span that fits a small universe of
//! forms — constant operands baked in, a whole `acc = acc + size;` as
//! one update instead of five dispatches — is recognized once
//! (`spec_node`) and built into closures monomorphized over those
//! forms: the code was generated when this crate was compiled, and
//! building a program wires it up. Such a block becomes a node of a
//! graph the driver walks without touching bytecode. A program whose
//! nodes form the canonical guarded-reporter shape is additionally
//! assembled, from those same forms, into a few closures with its
//! per-path fuel totals baked in (`Whole`), entered on the caller's
//! own input slice. No run matches on a recognized form.
//!
//! # Tier selection and fallback
//!
//! [`Instance::new`](crate::Instance::new) compiles every program the
//! lowering accepts; anything else transparently runs on the checked
//! per-op interpreter, and
//! [`Instance::compile_bail`](crate::Instance::compile_bail) says why.
//! Inside a compiled program, a block with no specialized form runs on
//! the interpreter too.
//!
//! # Observable equivalence
//!
//! The compiled tier is required to be **bit-identical** to the per-op
//! reference VM on every observable: return value, `fuel_used`, trap
//! kind and partial statics at the trap point, and `out()` ordering.
//! The driver ([`Instance::run`](crate::Instance::run) routes here when
//! a program compiled) precharges each block's op count, so fuel
//! accounting is identical by construction; when the remaining budget
//! cannot cover a block, the driver executes that one block on the
//! checked per-op interpreter instead, preserving exact abort points.
//! Specialized forms are trap-free by construction (they admit no
//! integer division by a runtime value), so every trap is raised by the
//! interpreter, at the interpreter's point.
//! The generative sweeps in `tests/verifier.rs` assert this equivalence
//! against the reference for hundreds of programs, and this module's
//! differential test holds the whole-program closures to it at and
//! just below their fuel gate.

use std::borrow::Cow;
use std::fmt;

use crate::ir::{
    self, bits_of, f64_of, Bin, Cmp, Ir, Node, NodeId, Nodes, Step, Term, Un, MAX_CARRY,
};

/// Mutable run state specialized code — or the interpreter, on a block
/// the driver hands it — executes against. Borrows the instance's
/// reusable arenas, so a compiled run allocates nothing post-warmup
/// (proven by `tests/zero_alloc.rs`).
pub(crate) struct Ctx<'a> {
    pub(crate) globals: &'a mut [i64],
    pub(crate) locals: &'a mut [i64],
    pub(crate) inputs: &'a [i64],
    pub(crate) outputs: &'a mut Vec<(i64, f64)>,
}

/// How specialized code handed control back. Specialized blocks are
/// trap-free by construction, so there is no trap exit; fuel is the
/// driver's job, input marshalling the caller's.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Exit {
    /// Continue at this block index.
    Jump(u32),
    /// The program returned this value.
    Ret(i64),
}

/// One block of the compiled program: the coordinates the driver needs
/// for fuel precharge and the checked per-op fallback, plus the block's
/// monomorphized form when it has one.
pub(crate) struct Block {
    /// Original-bytecode pc of the block entry.
    pub(crate) entry_pc: u32,
    /// Total fuel the block's span covers: its own ops plus every
    /// chain-merged successor's (see [`merge_chains`]). The driver
    /// precharges this against the remaining budget; when it doesn't
    /// fit, execution re-enters at `entry_pc` on the checked per-op
    /// interpreter, which meters the original unmerged ops — so merged
    /// and unmerged runs stay bit-identical on every abort path.
    pub(crate) fuel: u64,
    /// `None` runs the block on the interpreter: measured over the
    /// generated sweeps, walking an unspecialized block's trees was
    /// slower than interpreting its bytecode.
    pub(crate) spec: Option<SpecNode>,
}

/// A program lowered to a graph of specialized blocks. Built once per
/// [`Program`](crate::Program) behind an `Arc` (every instance of the
/// program shares it), immutable thereafter.
pub struct CompiledProgram {
    pub(crate) blocks: Vec<Block>,
    /// Original pc → block index (`u32::MAX` where no block starts);
    /// the per-op fallback uses it to re-enter compiled code at the
    /// next block boundary.
    pub(crate) pc2block: Vec<u32>,
    /// Whole-program straight-line fast path (see [`Whole`]), for
    /// programs matching the guarded-reporter shape. Taken only when
    /// the fuel budget covers `Whole::max_fuel`.
    pub(crate) whole: Option<Whole>,
    /// `(specialized, reachable)` block counts over the merged graph
    /// from block 0 — how much of what a covered budget runs is
    /// straight-line monomorphized code vs interpreted. Blocks that
    /// merging folded into all their predecessors (trampolines, joins)
    /// are entered only by the starved-budget fallback and not counted.
    pub(crate) specialization: (usize, usize),
}

impl CompiledProgram {
    /// Runs a specialized block, whose span the driver has already
    /// precharged, with `fuel_left` the budget remaining after it. The
    /// run keeps going through specialized successors, charging each
    /// one's span against `fuel_left` exactly as the driver's own
    /// precharge would, and reports that extra consumption in the
    /// returned `u64`; a successor that is not specialized or does not
    /// fit is not entered — `Exit::Jump` hands it to the driver, which
    /// re-decides there. So chained and unchained runs are bit-identical
    /// on every path, fuel-exhaustion aborts included.
    pub(crate) fn run_spec<'a>(
        &'a self,
        mut node: &'a SpecNode,
        ctx: &mut Ctx<'_>,
        mut fuel_left: u64,
    ) -> (u64, Exit) {
        let mut extra = 0u64;
        loop {
            let next = match (node.run)(ctx) {
                Exit::Jump(next) => next,
                ret => return (extra, ret),
            };
            let b = &self.blocks[next as usize];
            match &b.spec {
                Some(n) if b.fuel <= fuel_left => {
                    fuel_left -= b.fuel;
                    extra += b.fuel;
                    node = n;
                }
                _ => return (extra, Exit::Jump(next)),
            }
        }
    }
}

impl fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("blocks", &self.blocks.len())
            .field("specialized", &self.specialization)
            .field("whole", &self.whole.is_some())
            .finish()
    }
}

/// Builds the compiled form of a lowered program: the IR's fall-through
/// and jump chains are merged back into the interpreter's longer spans
/// ([`merge_chains`]), every merged block that fits the monomorphized
/// universe is specialized ([`spec_node`]), and the nodes are assembled
/// into the whole-program path when they form its shape
/// ([`Whole::assemble`]).
pub(crate) fn compile(ir: &Ir) -> CompiledProgram {
    // The IR stays unmerged — the column backend wants the partition —
    // so merging works on spans that borrow it, and adds to its node
    // table only the trees a carry substitution rewrites.
    let mut nodes = Table {
        ir: &ir.nodes,
        added: Vec::new(),
    };
    let mut spans: Vec<Span<'_>> = ir.blocks.iter().map(Span::of).collect();
    merge_chains(&mut spans, &mut nodes);
    let blocks: Vec<Block> = spans
        .iter()
        .map(|b| Block {
            entry_pc: b.entry_pc,
            fuel: b.fuel,
            spec: spec_node(&nodes, b),
        })
        .collect();
    // What a run with a covering budget can enter: the merged graph
    // from block 0.
    let mut reached = vec![false; spans.len()];
    let mut work = vec![0u32];
    while let Some(i) = work.pop() {
        if !std::mem::replace(&mut reached[i as usize], true) {
            match spans[i as usize].term {
                Term::Jmp(t) => work.push(t),
                Term::Br {
                    on_false, on_true, ..
                } => work.extend([on_false, on_true]),
                Term::Ret(_) | Term::RetC(_) => {}
            }
        }
    }
    let specialized = (blocks.iter().zip(&reached))
        .filter(|(b, r)| **r && b.spec.is_some())
        .count();
    CompiledProgram {
        specialization: (specialized, reached.iter().filter(|r| **r).count()),
        whole: Whole::assemble(&blocks),
        blocks,
        pc2block: ir.pc2block.clone(),
    }
}

/// The IR's node table as the compiled tier reads it: the lowering's
/// own nodes in place, then the ones carry substitution added while
/// merging (their ids continue the lowering's).
struct Table<'a> {
    ir: &'a [Node],
    added: Vec<Node>,
}

impl Nodes for Table<'_> {
    fn node(&self, id: NodeId) -> Node {
        let i = id as usize;
        match self.ir.get(i) {
            Some(n) => *n,
            None => self.added[i - self.ir.len()],
        }
    }
}

impl Table<'_> {
    fn add(&mut self, n: Node) -> NodeId {
        self.added.push(n);
        (self.ir.len() + self.added.len() - 1) as NodeId
    }
}

/// One block of the compiled graph before it is specialized: an IR
/// block read in place, or the span [`merge_chains`] made of it and its
/// jump successors, which owns its step and carry ids (never the trees
/// they name).
struct Span<'a> {
    entry_pc: u32,
    carry_in: u8,
    steps: Cow<'a, [Step]>,
    carry_out: Cow<'a, [NodeId]>,
    term: Term,
    fuel: u64,
}

impl<'a> Span<'a> {
    fn of(b: &'a ir::Block) -> Span<'a> {
        Span {
            entry_pc: b.entry_pc,
            carry_in: b.carry_in,
            steps: Cow::Borrowed(&b.steps),
            carry_out: Cow::Borrowed(&b.carry_out),
            term: b.term,
            fuel: b.fuel,
        }
    }
}

/// Inlines unconditional-jump chains: a block ending in `Jmp(T)` runs
/// `T` unconditionally, so `T`'s statements and terminator are appended
/// to the predecessor's span and the two blocks become one — the
/// short-circuit lowering's trampoline blocks (`[] → Jmp`, carry-compute
/// → join, `Jmp → RetC`) collapse into their destinations, saving an
/// indirect call per hop on every event.
///
/// `T` itself stays in the block list: other edges (and the per-op
/// fallback, which re-enters at original pc boundaries) still target it.
/// The merged block's `fuel` grows by `T`'s span, so the driver's
/// precharge covers exactly the ops the merged block executes — when
/// that doesn't fit the remaining budget, the driver re-enters at the
/// *original* entry pc per-op, which stops at the unmerged `Jmp` and
/// re-decides at `T`; both routes are bit-identical to the reference.
///
/// Carried values are substituted into the successor's expressions. Into
/// a successor with no steps that is a move ([`movable`]); past steps it
/// delays the evaluation, sound only when the expression is invariant
/// over anything a statement can write ([`invariant`]). Merging is
/// skipped otherwise.
fn merge_chains(spans: &mut [Span<'_>], nodes: &mut Table<'_>) {
    // Reverse order makes single-pass transitive: forward jump targets
    // are fully merged before their predecessors consider them.
    for i in (0..spans.len()).rev() {
        // A cycle of empty blocks could ping-pong; the fuse cap bounds
        // the work (and any real chain is far shorter).
        for _ in 0..8 {
            let Term::Jmp(j) = spans[i].term else {
                break;
            };
            let j = j as usize;
            if j == i {
                break;
            }
            let (pred, succ) = if i < j {
                let (head, tail) = spans.split_at_mut(j);
                (&mut head[i], &tail[0])
            } else {
                let (head, tail) = spans.split_at_mut(i);
                (&mut tail[0], &head[j])
            };
            let carries = &pred.carry_out;
            if !(movable(nodes, carries, succ) || carries.iter().all(|&c| invariant(nodes, c)))
                || pred.steps.len() + succ.steps.len() > 8
            {
                break;
            }
            debug_assert_eq!(succ.carry_in as usize, carries.len());
            let carries = std::mem::take(&mut pred.carry_out);
            let steps = pred.steps.to_mut();
            steps.extend(succ.steps.iter().map(|&s| subst_step(nodes, s, &carries)));
            let carry_out = succ.carry_out.iter().map(|&e| subst(nodes, e, &carries));
            pred.carry_out = Cow::Owned(carry_out.collect());
            // A substituted literal folds the branch, as it did when one
            // symbolic run covered both spans.
            pred.term = match succ.term {
                Term::Br {
                    cond,
                    on_false,
                    on_true,
                } => {
                    let cond = subst(nodes, cond, &carries);
                    Term::br(cond, nodes.node(cond), on_false, on_true)
                }
                Term::Ret(e) => {
                    let e = subst(nodes, e, &carries);
                    Term::ret(e, nodes.node(e))
                }
                t => t,
            };
            pred.fuel += succ.fuel;
        }
    }
}

/// The move rule: `succ` has no steps, so nothing can write between a
/// carry's evaluation at the end of the predecessor and its read in
/// `succ`'s carries or terminator — substituting moves the evaluation
/// without reordering it against any store, whatever the carry reads. A
/// stack value is read at most once; one that is never read folds only
/// if it cannot trap, because dropping it would drop the trap.
fn movable(nodes: &Table<'_>, carries: &[NodeId], succ: &Span<'_>) -> bool {
    if !succ.steps.is_empty() {
        return false;
    }
    fn count(nodes: &Table<'_>, e: NodeId, reads: &mut [u8; MAX_CARRY]) {
        match nodes.node(e) {
            Node::Carry(i) => reads[i as usize] += 1,
            Node::Bin(_, l, r) => {
                count(nodes, l, reads);
                count(nodes, r, reads);
            }
            Node::Un(_, e) => count(nodes, e, reads),
            _ => {}
        }
    }
    let mut reads = [0u8; MAX_CARRY];
    succ.carry_out
        .iter()
        .for_each(|&e| count(nodes, e, &mut reads));
    if let Term::Br { cond: e, .. } | Term::Ret(e) = succ.term {
        count(nodes, e, &mut reads);
    }
    let mut folds = carries.iter().zip(reads);
    folds.all(|(&c, n)| n == 1 || (n == 0 && !nodes.can_trap(c)))
}

/// Whether delaying `e`'s evaluation past arbitrary statements is
/// unobservable: only inputs and constants (inputs never change within
/// a run), combined trap-free.
fn invariant(nodes: &Table<'_>, e: NodeId) -> bool {
    match nodes.node(e) {
        Node::Input(_) | Node::ConstI(_) | Node::ConstF(_) => true,
        Node::Global(_) | Node::Local(_) | Node::Carry(_) => false,
        Node::Bin(op, l, r) => {
            !matches!(op, Bin::DivI | Bin::ModI) && invariant(nodes, l) && invariant(nodes, r)
        }
        Node::Un(_, e) => invariant(nodes, e),
    }
}

/// Replaces `Carry(i)` with the predecessor's carried expression. A
/// subtree that reads no carry is kept as it is; only the nodes above a
/// carry are rewritten, as new nodes.
fn subst(nodes: &mut Table<'_>, e: NodeId, carries: &[NodeId]) -> NodeId {
    match nodes.node(e) {
        Node::Carry(i) => carries[i as usize],
        Node::Bin(op, l, r) => {
            let (l2, r2) = (subst(nodes, l, carries), subst(nodes, r, carries));
            if (l2, r2) == (l, r) {
                e
            } else {
                nodes.add(Node::Bin(op, l2, r2))
            }
        }
        Node::Un(op, a) => match subst(nodes, a, carries) {
            a2 if a2 == a => e,
            a2 => nodes.add(Node::Un(op, a2)),
        },
        _ => e,
    }
}

fn subst_step(nodes: &mut Table<'_>, s: Step, carries: &[NodeId]) -> Step {
    match s {
        Step::StoreGlobal(g, e) => Step::StoreGlobal(g, subst(nodes, e, carries)),
        Step::StoreLocal(l, e) => Step::StoreLocal(l, subst(nodes, e, carries)),
        Step::Out(slot, value) => {
            let slot = subst(nodes, slot, carries);
            Step::Out(slot, subst(nodes, value, carries))
        }
        Step::Eval(e) => Step::Eval(subst(nodes, e, carries)),
    }
}

/// A trap-free scalar the specialized forms read directly — the
/// operand universe of the CPA hot path: inputs, globals and constants.
#[derive(Debug, Clone, Copy)]
enum Scal {
    In(u16),
    Gl(u16),
    C(i64),
}

fn as_scal(n: Node) -> Option<Scal> {
    Some(match n {
        Node::Input(i) => Scal::In(i),
        Node::Global(g) => Scal::Gl(g),
        Node::ConstI(c) => Scal::C(c),
        _ => return None,
    })
}

/// A trap-free int value: a scalar, an integer comparison of two
/// scalars (producing 0/1), or a strength-reduced divisibility test.
/// Serves as branch condition and return value; [`cond`] and [`leaf`]
/// turn it into code.
#[derive(Debug, Clone, Copy)]
enum ValK {
    S(Scal),
    Cmp(Cmp, Scal, Scal),
    /// `(global % c == 0)` (or `!=` when `ne`) with a constant divisor,
    /// computed without hardware division: `n` is divisible by
    /// `d = odd << k` iff its low `k` bits are zero and `n·odd⁻¹ (mod
    /// 2⁶⁴) ≤ ⌊(2⁶⁴−1)/odd⌋. The epoch tests CPAs gate their reports
    /// on (`events % 1000 == 0`) hit this every event, and `idiv` is
    /// the single most expensive instruction the hot path would
    /// otherwise retire; an interpreter can't do this because its
    /// divisor is a stack operand, not a compile-time capture.
    DivC {
        g: u16,
        ne: bool,
        /// Low-bit mask for the divisor's power-of-two factor.
        mask: u64,
        /// Modular inverse of the divisor's odd part (mod 2⁶⁴).
        inv: u64,
        /// `u64::MAX / odd_part` — divisibility threshold.
        thr: u64,
    },
}

/// Builds the divisibility test for constant divisor `c` (`None` only
/// for `c == 0`).
fn div_test(g: u16, c: i64, ne: bool) -> Option<ValK> {
    let d = c.unsigned_abs();
    if d == 0 {
        return None;
    }
    let k = d.trailing_zeros();
    let odd = d >> k;
    // Newton's iteration doubles correct low bits each round; five
    // rounds from a 4-bit-correct seed cover all 64.
    let mut inv: u64 = odd;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inv)));
    }
    debug_assert_eq!(odd.wrapping_mul(inv), 1);
    Some(ValK::DivC {
        g,
        ne,
        mask: (1u64 << k) - 1,
        inv,
        thr: u64::MAX / odd,
    })
}

fn as_valk(nodes: &Table<'_>, e: NodeId) -> Option<ValK> {
    let Node::Bin(op, l, r) = nodes.node(e) else {
        return Some(ValK::S(as_scal(nodes.node(e))?));
    };
    let cmp = op.int_cmp()?;
    let (l, r) = (nodes.node(l), nodes.node(r));
    // Strength-reduce `g % c == 0` / `!= 0` to a multiply-and-mask
    // divisibility test (either operand order; `c == 0` is left to the
    // generic path, which raises the trap).
    if let (Cmp::Eq | Cmp::Ne, (Node::ConstI(0), Node::Bin(Bin::ModI, g, c)))
    | (Cmp::Eq | Cmp::Ne, (Node::Bin(Bin::ModI, g, c), Node::ConstI(0))) = (cmp, (l, r))
    {
        if let (Node::Global(g), Node::ConstI(c)) = (nodes.node(g), nodes.node(c)) {
            return div_test(g, c, cmp == Cmp::Ne);
        }
    }
    Some(ValK::Cmp(cmp, as_scal(l)?, as_scal(r)?))
}

/// The published value of a specialized `out(const-slot, ...)` — the
/// reporting shapes CPAs produce.
#[derive(Debug, Clone, Copy)]
enum OutK {
    /// `double-global / int-global` — the ratio report.
    RatioFI { num: u16, den: u16 },
    /// An int global, promoted to double.
    IntGl(u16),
}

fn as_outk(nodes: &Table<'_>, e: NodeId) -> Option<OutK> {
    // The operand of an int-to-double promotion, when `e` is one.
    let promoted = |e: NodeId| match nodes.node(e) {
        Node::Un(Un::I2F, inner) => Some(nodes.node(inner)),
        _ => None,
    };
    Some(match (nodes.node(e), promoted(e)) {
        (_, Some(Node::Global(g))) => OutK::IntGl(g),
        (Node::Bin(Bin::DivF, l, r), _) => match (nodes.node(l), promoted(r)) {
            (Node::Global(num), Some(Node::Global(den))) => OutK::RatioFI { num, den },
            _ => return None,
        },
        _ => return None,
    })
}

/// One specialized, trap-free statement: a monomorphized global update
/// or an `out()` publication with a constant slot.
#[derive(Debug, Clone, Copy)]
enum FStep {
    U(GUpd),
    Pub { slot: i64, out: OutK },
}

/// Classifies every step as a packable trap-free statement, or refuses
/// the specialization (`None` → interpreted). Capped so a run stays a
/// few closures; longer runs are rare and the generic path handles them.
fn as_fsteps(nodes: &Table<'_>, steps: &[Step]) -> Option<Vec<FStep>> {
    if steps.len() > 6 {
        return None;
    }
    steps
        .iter()
        .map(|&s| match s {
            Step::StoreGlobal(..) => as_gupd(nodes, s).map(FStep::U),
            Step::Out(slot, value) => match nodes.node(slot) {
                Node::ConstI(slot) => as_outk(nodes, value).map(|out| FStep::Pub { slot, out }),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// A trap-free single-global update statement. These are the
/// statements CPAs spend their lives in. Fields are the updated
/// global's slot, then the operands.
#[derive(Debug, Clone, Copy)]
enum GUpd {
    /// `g = g + c` (int).
    IncC(u16, i64),
    /// `g = g + input` (int input promoted into a double global).
    AccInF(u16, u16),
    /// `g = min(g, input)` / `g = max(g, input)` (int).
    MinIn(u16, u16),
    MaxIn(u16, u16),
    /// `g = a - b` over two globals (int) — span/delta folds like
    /// `span = hi - lo`.
    SubGG(u16, u16, u16),
}

fn as_gupd(nodes: &Table<'_>, step: Step) -> Option<GUpd> {
    let Step::StoreGlobal(g, e) = step else {
        return None;
    };
    let Node::Bin(op, l, r) = nodes.node(e) else {
        return None;
    };
    Some(match (op, nodes.node(l), nodes.node(r)) {
        (Bin::SubI, Node::Global(a), Node::Global(b)) => GUpd::SubGG(g, a, b),
        // Everything else updates `g` from its own old value.
        (_, old, _) if old != Node::Global(g) => return None,
        (Bin::AddI, _, Node::ConstI(c)) => GUpd::IncC(g, c),
        (Bin::MinI, _, Node::Input(i)) => GUpd::MinIn(g, i),
        (Bin::MaxI, _, Node::Input(i)) => GUpd::MaxIn(g, i),
        (Bin::AddF, _, Node::Un(Un::I2F, inner)) => match nodes.node(inner) {
            Node::Input(i) => GUpd::AccInF(g, i),
            _ => return None,
        },
        _ => return None,
    })
}

/// A specialized block: what [`spec_node`] recognized (`fsteps`,
/// `term`; read again by [`Whole::assemble`], and by `Debug`) and the
/// code built from it once (`run`), which the driver calls. Everything
/// in a node is trap-free by construction ([`FStep`]/[`ValK`]/[`OutK`]
/// admit no int div/mod), so [`Exit`] has no trap case. Terminator
/// targets are block indices; control flows from node to node inside
/// [`CompiledProgram::run_spec`]'s loop instead of bouncing back to the
/// driver at every block boundary.
pub(crate) struct SpecNode {
    fsteps: Vec<FStep>,
    term: SpecTerm,
    run: NodeFn,
}

impl fmt::Debug for SpecNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecNode")
            .field("fsteps", &self.fsteps)
            .field("term", &self.term)
            .finish()
    }
}

#[derive(Debug, Clone, Copy)]
enum SpecTerm {
    RetC(i64),
    /// `return <scalar or cmp>;` — the `&&`/`||` join value or a final
    /// comparison returned directly.
    RetV(ValK),
    /// Guard branch — `if (size > 1000)`, `if (n % 100 == 0)`, the folded
    /// `&&` join re-branching on its second condition.
    Br {
        cond: ValK,
        f: u32,
        t: u32,
    },
}

/// Specializes one merged block, or returns `None` when any step or its
/// terminator falls outside the monomorphized universe — the block then
/// runs on the interpreter, which is correct for arbitrary shapes. This
/// is the tier's one recognizer: the driver's arena and [`Whole`] are
/// both built from its nodes.
///
/// A block that receives or leaves stack values is not specialized:
/// after [`merge_chains`] a join is entered with live carries only from
/// a predecessor it could not fold into, and both then run on the
/// interpreter with the values kept on its operand stack.
fn spec_node(nodes: &Table<'_>, b: &Span<'_>) -> Option<SpecNode> {
    if b.carry_in > 0 || !b.carry_out.is_empty() {
        return None;
    }
    let fsteps = as_fsteps(nodes, &b.steps)?;
    let term = match b.term {
        Term::RetC(c) => SpecTerm::RetC(c),
        Term::Ret(e) => SpecTerm::RetV(as_valk(nodes, e)?),
        Term::Br {
            cond,
            on_false,
            on_true,
        } => SpecTerm::Br {
            cond: as_valk(nodes, cond)?,
            f: on_false,
            t: on_true,
        },
        Term::Jmp(_) => return None,
    };
    let steps = seq(&fsteps, (0, 0));
    let run = match term {
        SpecTerm::RetC(c) => leaf(ValK::S(Scal::C(c)), NodeRet(steps)),
        SpecTerm::RetV(v) => leaf(v, NodeRet(steps)),
        SpecTerm::Br { cond: c, f, t } => cond(c, NodeBr { steps, f, t }),
    };
    Some(SpecNode { fsteps, term, run })
}

// ---------------------------------------------------------------------
// The code: closures built once per program from the recognized forms.
//
// Each form below is a small `Copy` struct whose `run`/`test`/`get` is
// the form's whole meaning, with its operands (slot indices, constants,
// a comparison folded into a range or an ordering set) captured at
// build time. A visitor (`stmt`, `cond`, `leaf`) is the one `match`
// from a recognized form to its struct; it runs when the program is
// built, and what it hands back is a closure monomorphized over the
// struct — so a run executes the statements and tests themselves, and
// an indirect call at each closure boundary, with no form dispatch.
// ---------------------------------------------------------------------

/// A specialized block: its statements, then where control goes.
type NodeFn = Box<dyn Fn(&mut Ctx<'_>) -> Exit + Send + Sync>;
/// A whole-program path from some point to its return: `(ret,
/// fuel_used)`, the path's fuel total baked in.
type PathFn = Box<dyn Fn(&mut Ctx<'_>) -> (i64, u64) + Send + Sync>;
/// A straight-line run of specialized statements ending in a constant
/// `(ret, fuel_used)`: the whole path when its path returns that
/// constant, else run for its effects and the result ignored.
type Seq = PathFn;
/// A return value.
type LeafFn = Box<dyn Fn(&Ctx<'_>) -> i64 + Send + Sync>;

/// A specialized statement.
trait Stmt: Copy + Send + Sync + 'static {
    fn run(self, ctx: &mut Ctx<'_>);
}

/// `g = g + c` (int).
#[derive(Clone, Copy)]
struct Inc(usize, i64);
/// `g = g + input` into a double global.
#[derive(Clone, Copy)]
struct AccF(usize, usize);
/// `g = min(g, input)`.
#[derive(Clone, Copy)]
struct MinIn(usize, usize);
/// `g = max(g, input)`.
#[derive(Clone, Copy)]
struct MaxIn(usize, usize);
/// `g = a - b` over two int globals.
#[derive(Clone, Copy)]
struct Sub(usize, usize, usize);
/// `out(slot, num / den)`: a double global over an int global.
#[derive(Clone, Copy)]
struct OutRatio(i64, usize, usize);
/// `out(slot, g)`: an int global, promoted.
#[derive(Clone, Copy)]
struct OutInt(i64, usize);

impl Stmt for Inc {
    #[inline(always)]
    fn run(self, ctx: &mut Ctx<'_>) {
        let p = &mut ctx.globals[self.0];
        *p = p.wrapping_add(self.1);
    }
}

impl Stmt for AccF {
    #[inline(always)]
    fn run(self, ctx: &mut Ctx<'_>) {
        let v = ctx.inputs[self.1] as f64;
        let p = &mut ctx.globals[self.0];
        *p = bits_of(f64_of(*p) + v);
    }
}

impl Stmt for MinIn {
    #[inline(always)]
    fn run(self, ctx: &mut Ctx<'_>) {
        let v = ctx.inputs[self.1];
        let p = &mut ctx.globals[self.0];
        *p = (*p).min(v);
    }
}

impl Stmt for MaxIn {
    #[inline(always)]
    fn run(self, ctx: &mut Ctx<'_>) {
        let v = ctx.inputs[self.1];
        let p = &mut ctx.globals[self.0];
        *p = (*p).max(v);
    }
}

impl Stmt for Sub {
    #[inline(always)]
    fn run(self, ctx: &mut Ctx<'_>) {
        ctx.globals[self.0] = ctx.globals[self.1].wrapping_sub(ctx.globals[self.2]);
    }
}

impl Stmt for OutRatio {
    #[inline(always)]
    fn run(self, ctx: &mut Ctx<'_>) {
        let v = f64_of(ctx.globals[self.1]) / ctx.globals[self.2] as f64;
        ctx.outputs.push((self.0, v));
    }
}

impl Stmt for OutInt {
    #[inline(always)]
    fn run(self, ctx: &mut Ctx<'_>) {
        let v = ctx.globals[self.1] as f64;
        ctx.outputs.push((self.0, v));
    }
}

/// What to build once a statement's form is known.
trait WithStmt {
    type Out;
    fn with<S: Stmt>(self, s: S) -> Self::Out;
}

/// The one dispatch from a recognized statement to its form.
fn stmt<W: WithStmt>(step: FStep, w: W) -> W::Out {
    let u = |x: u16| x as usize;
    match step {
        FStep::U(GUpd::IncC(g, c)) => w.with(Inc(u(g), c)),
        FStep::U(GUpd::AccInF(g, i)) => w.with(AccF(u(g), u(i))),
        FStep::U(GUpd::MinIn(g, i)) => w.with(MinIn(u(g), u(i))),
        FStep::U(GUpd::MaxIn(g, i)) => w.with(MaxIn(u(g), u(i))),
        FStep::U(GUpd::SubGG(g, a, b)) => w.with(Sub(u(g), u(a), u(b))),
        FStep::Pub {
            slot,
            out: OutK::RatioFI { num, den },
        } => w.with(OutRatio(slot, u(num), u(den))),
        FStep::Pub {
            slot,
            out: OutK::IntGl(g),
        } => w.with(OutInt(slot, u(g))),
    }
}

/// The code of a statement run ending in `out`, `None` when the run is
/// empty: one closure per two statements, monomorphized over both,
/// chained when the run is longer. The canonical CPAs' runs are one or
/// two statements long, so each is one closure — and a path that runs
/// statements and returns a constant is that one closure.
fn seq(steps: &[FStep], out: (i64, u64)) -> Option<Seq> {
    let mut chunks = steps.chunks(2).map(|chunk| match *chunk {
        [a] => stmt(a, One(out)),
        [a, b] => stmt(a, First(b, out)),
        _ => unreachable!("chunks of two"),
    });
    let first = chunks.next()?;
    Some(chunks.fold(first, |run, next| {
        Box::new(move |ctx| {
            run(ctx);
            next(ctx)
        })
    }))
}

/// Runs `steps`, if there are any.
#[inline(always)]
fn run_seq(steps: &Option<Seq>, ctx: &mut Ctx<'_>) {
    if let Some(steps) = steps {
        steps(ctx);
    }
}

struct One((i64, u64));

impl WithStmt for One {
    type Out = Seq;
    fn with<S: Stmt>(self, a: S) -> Seq {
        let out = self.0;
        Box::new(move |ctx| {
            a.run(ctx);
            out
        })
    }
}

/// The first of two statements known; the second is dispatched next.
struct First(FStep, (i64, u64));

impl WithStmt for First {
    type Out = Seq;
    fn with<S: Stmt>(self, a: S) -> Seq {
        stmt(self.0, Second(a, self.1))
    }
}

struct Second<A>(A, (i64, u64));

impl<A: Stmt> WithStmt for Second<A> {
    type Out = Seq;
    fn with<S: Stmt>(self, b: S) -> Seq {
        let Second(a, out) = self;
        Box::new(move |ctx| {
            a.run(ctx);
            b.run(ctx);
            out
        })
    }
}

/// A specialized, trap-free condition.
trait Cond: Copy + Send + Sync + 'static {
    fn test(self, ctx: &Ctx<'_>) -> bool;
}

/// An int value a form reads: an input, a static, a constant, or a
/// condition's truth (0/1).
trait Val: Copy + Send + Sync + 'static {
    fn get(self, ctx: &Ctx<'_>) -> i64;
}

#[derive(Clone, Copy)]
struct In(usize);
#[derive(Clone, Copy)]
struct Gl(usize);
#[derive(Clone, Copy)]
struct K(i64);
#[derive(Clone, Copy)]
struct Truth<C>(C);

impl Val for In {
    #[inline(always)]
    fn get(self, ctx: &Ctx<'_>) -> i64 {
        ctx.inputs[self.0]
    }
}

impl Val for Gl {
    #[inline(always)]
    fn get(self, ctx: &Ctx<'_>) -> i64 {
        ctx.globals[self.0]
    }
}

impl Val for K {
    #[inline(always)]
    fn get(self, _: &Ctx<'_>) -> i64 {
        self.0
    }
}

impl<C: Cond> Val for Truth<C> {
    #[inline(always)]
    fn get(self, ctx: &Ctx<'_>) -> i64 {
        self.0.test(ctx) as i64
    }
}

/// `(x, lo, span, neg)`: `lo <= x <= lo + span`, negated when `neg` —
/// what a comparison against a constant (and a scalar's truth,
/// `x != 0`) becomes. One unsigned compare of the offset, whichever
/// comparison it was.
#[derive(Clone, Copy)]
struct Range<X>(X, i64, u64, bool);

impl<X: Val> Cond for Range<X> {
    #[inline(always)]
    fn test(self, ctx: &Ctx<'_>) -> bool {
        let Range(x, lo, span, neg) = self;
        (x.get(ctx).wrapping_sub(lo) as u64 <= span) != neg
    }
}

/// `(l, r, accept)`: `l op r` over two runtime operands, the comparison
/// as the set of orderings it accepts (bit 0 less, bit 1 equal, bit 2
/// greater).
#[derive(Clone, Copy)]
struct Ord2<L, R>(L, R, u8);

impl<L: Val, R: Val> Cond for Ord2<L, R> {
    #[inline(always)]
    fn test(self, ctx: &Ctx<'_>) -> bool {
        let Ord2(l, r, accept) = self;
        accept >> (l.get(ctx).cmp(&r.get(ctx)) as i8 + 1) & 1 != 0
    }
}

/// The divisibility test of [`ValK::DivC`].
#[derive(Clone, Copy)]
struct Div {
    g: usize,
    ne: bool,
    mask: u64,
    inv: u64,
    thr: u64,
}

impl Cond for Div {
    #[inline(always)]
    fn test(self, ctx: &Ctx<'_>) -> bool {
        // Truncated `%` makes divisibility sign-independent, so test
        // the magnitude (`unsigned_abs` is exact even for i64::MIN).
        let n = ctx.globals[self.g].unsigned_abs();
        let divisible = n & self.mask == 0 && n.wrapping_mul(self.inv) <= self.thr;
        divisible != self.ne
    }
}

/// A condition the build already decided (two constants compared, a
/// constant's truth, a range no value falls in).
#[derive(Clone, Copy)]
struct Known(bool);

impl Cond for Known {
    #[inline(always)]
    fn test(self, _: &Ctx<'_>) -> bool {
        self.0
    }
}

/// What to build once a condition's form is known.
trait WithCond {
    type Out;
    fn with<C: Cond>(self, c: C) -> Self::Out;
}

/// A condition, normalized: what [`cond`] dispatches on.
#[derive(Clone, Copy)]
enum CondForm {
    Range(Scal, i64, u64, bool),
    Ord2(Scal, Scal, u8),
    Div(Div),
    Known(bool),
}

/// Normalizes a recognized condition: a constant operand goes to the
/// right, a comparison against it becomes a [`Range`], one between two
/// runtime operands an [`Ord2`].
fn cond_form(v: ValK) -> CondForm {
    let (cmp, l, r) = match v {
        ValK::S(s) => (Cmp::Ne, s, Scal::C(0)),
        ValK::Cmp(cmp, l, r) => (cmp, l, r),
        ValK::DivC {
            g,
            ne,
            mask,
            inv,
            thr,
        } => {
            let g = g as usize;
            return CondForm::Div(Div {
                g,
                ne,
                mask,
                inv,
                thr,
            });
        }
    };
    let (cmp, x, c) = match (l, r) {
        (Scal::C(a), Scal::C(b)) => return CondForm::Known(cmp.eval(a, b)),
        (x, Scal::C(c)) => (cmp, x, c),
        (Scal::C(c), x) => (mirror(cmp), x, c),
        (l, r) => {
            let accept = match cmp {
                Cmp::Lt => 0b001,
                Cmp::Eq => 0b010,
                Cmp::Le => 0b011,
                Cmp::Gt => 0b100,
                Cmp::Ne => 0b101,
                Cmp::Ge => 0b110,
            };
            return CondForm::Ord2(l, r, accept);
        }
    };
    // `x cmp c` as `x ∈ [lo, hi]` (negated for `!=`); an empty range is
    // a known `false`.
    let (lo, hi, neg) = match cmp {
        Cmp::Eq => (c, c, false),
        Cmp::Ne => (c, c, true),
        Cmp::Le => (i64::MIN, c, false),
        Cmp::Ge => (c, i64::MAX, false),
        Cmp::Lt => match c.checked_sub(1) {
            Some(hi) => (i64::MIN, hi, false),
            None => return CondForm::Known(false),
        },
        Cmp::Gt => match c.checked_add(1) {
            Some(lo) => (lo, i64::MAX, false),
            None => return CondForm::Known(false),
        },
    };
    CondForm::Range(x, lo, hi.wrapping_sub(lo) as u64, neg)
}

/// The one dispatch from a recognized condition to its form.
fn cond<W: WithCond>(v: ValK, w: W) -> W::Out {
    let u = |x: u16| x as usize;
    match cond_form(v) {
        CondForm::Range(Scal::In(i), lo, span, neg) => w.with(Range(In(u(i)), lo, span, neg)),
        CondForm::Range(Scal::Gl(g), lo, span, neg) => w.with(Range(Gl(u(g)), lo, span, neg)),
        CondForm::Ord2(Scal::In(a), Scal::In(b), k) => w.with(Ord2(In(u(a)), In(u(b)), k)),
        CondForm::Ord2(Scal::In(a), Scal::Gl(b), k) => w.with(Ord2(In(u(a)), Gl(u(b)), k)),
        CondForm::Ord2(Scal::Gl(a), Scal::In(b), k) => w.with(Ord2(Gl(u(a)), In(u(b)), k)),
        CondForm::Ord2(Scal::Gl(a), Scal::Gl(b), k) => w.with(Ord2(Gl(u(a)), Gl(u(b)), k)),
        CondForm::Div(d) => w.with(d),
        CondForm::Known(k) => w.with(Known(k)),
        CondForm::Range(Scal::C(_), ..) | CondForm::Ord2(..) => {
            unreachable!("constant operands are folded by cond_form")
        }
    }
}

/// `c op x` as `x op' c`.
fn mirror(cmp: Cmp) -> Cmp {
    match cmp {
        Cmp::Lt => Cmp::Gt,
        Cmp::Le => Cmp::Ge,
        Cmp::Gt => Cmp::Lt,
        Cmp::Ge => Cmp::Le,
        eq_or_ne => eq_or_ne,
    }
}

/// What to build once a return value's form is known.
trait WithLeaf {
    type Out;
    fn with<L: Val>(self, l: L) -> Self::Out;
}

/// The one dispatch from a recognized return value to its form.
fn leaf<W: WithLeaf>(v: ValK, w: W) -> W::Out {
    match v {
        ValK::S(Scal::C(c)) => w.with(K(c)),
        ValK::S(Scal::In(i)) => w.with(In(i as usize)),
        ValK::S(Scal::Gl(g)) => w.with(Gl(g as usize)),
        cmp_or_div => cond(cmp_or_div, AsLeaf(w)),
    }
}

/// Hands a condition on as the 0/1 leaf it returns.
struct AsLeaf<W>(W);

impl<W: WithLeaf> WithCond for AsLeaf<W> {
    type Out = W::Out;
    fn with<C: Cond>(self, c: C) -> W::Out {
        self.0.with(Truth(c))
    }
}

/// A block that runs its statements and returns.
struct NodeRet(Option<Seq>);

impl WithLeaf for NodeRet {
    type Out = NodeFn;
    fn with<L: Val>(self, l: L) -> NodeFn {
        let steps = self.0;
        Box::new(move |ctx| {
            run_seq(&steps, ctx);
            Exit::Ret(l.get(ctx))
        })
    }
}

/// A block that runs its statements and branches.
struct NodeBr {
    steps: Option<Seq>,
    f: u32,
    t: u32,
}

impl WithCond for NodeBr {
    type Out = NodeFn;
    fn with<C: Cond>(self, c: C) -> NodeFn {
        let NodeBr { steps, f, t } = self;
        Box::new(move |ctx| {
            run_seq(&steps, ctx);
            Exit::Jump(if c.test(ctx) { t } else { f })
        })
    }
}

/// Whole-program fast path: the "guarded reporter" shape canonical CPAs
/// lower to —
///
/// ```text
/// prologue updates;
/// if (c1 [&& c2]) { then-updates; [return k;] }
/// return <const | scalar | cond ? a : b>;
/// ```
///
/// — assembled from the specialized nodes ([`Whole::assemble`]) into a
/// handful of closures, with **per-path fuel totals baked in at compile
/// time**: the prologue is one statement run ([`seq`]), the guard's one
/// or two legs are one closure, and each way out of the guard is one
/// closure that returns its path's result (a run of statements that
/// returns a constant is the run itself). A run costs the statements
/// themselves, the guard's compares and two or three indirect calls: no
/// per-block dispatch, no driver round-trips, no fuel bookkeeping, no
/// match on a recognized form.
///
/// That last elision is only sound because `exec` is gated: the driver
/// takes this path **only when the caller's budget covers `max_fuel`**,
/// the worst-case path total. Under that precondition no fuel abort is
/// reachable on any path, every piece is trap-free by construction
/// ([`FStep`]/[`ValK`] admit no int div/mod), and the returned
/// `fuel_used` is the exact per-path block-span sum the block driver
/// would have precharged — so outcomes are bit-identical to the other
/// tiers. Budgets below `max_fuel` (and graphs of another shape) run
/// the per-block driver with its exact abort semantics instead.
pub(crate) struct Whole {
    /// The statements before the guard; `None` when there are none or
    /// there is no guard (then `run` covers block 0 itself).
    pro: Option<Seq>,
    /// The guard and the ways out of it, or the one path when there is
    /// no guard.
    run: PathFn,
    /// Worst-case path fuel; `exec` requires `budget >= max_fuel`.
    pub(crate) max_fuel: u64,
}

impl Whole {
    /// Runs the whole program. Caller must hold `budget >= max_fuel`.
    #[inline(always)]
    pub(crate) fn exec(&self, ctx: &mut Ctx<'_>) -> (i64, u64) {
        run_seq(&self.pro, ctx);
        (self.run)(ctx)
    }

    /// Assembles the whole-program shape from the classified nodes,
    /// walking from block 0, or `None` when they do not form it (the
    /// per-block driver remains fully general). Nothing is recognized
    /// here — statements and conditions are the forms [`spec_node`]
    /// chose — and `fuel` values are merged spans, so the per-path
    /// totals baked here are exactly the driver's precharge sums.
    fn assemble(blocks: &[Block]) -> Option<Whole> {
        let (n0, b0_fuel) = node(blocks, 0)?;
        let SpecTerm::Br {
            cond: c1,
            f: on_false,
            t: on_true,
        } = n0.term
        else {
            let (run, max_fuel) = path(blocks, 0, 0)?;
            return Some(Whole {
                pro: None,
                run,
                max_fuel,
            });
        };
        let (els, els_max) = path(blocks, on_false, b0_fuel)?;
        // The true edge is either the guard's second short-circuit leg
        // (the folded `&&` join: a bare re-branch before any statement
        // runs) or the then-block itself.
        let (tn, t_fuel) = node(blocks, on_true)?;
        let (run, max_fuel) = match tn.term {
            SpecTerm::Br { cond: c2, f, t } if tn.fsteps.is_empty() => {
                let pre = b0_fuel + t_fuel;
                let (leg_els, leg_max) = path(blocks, f, pre)?;
                let (then, then_max) = path(blocks, t, pre)?;
                let ways = Guard2 {
                    c2,
                    els,
                    leg_els,
                    then,
                };
                (cond(c1, ways), els_max.max(leg_max).max(then_max))
            }
            _ => {
                let (then, then_max) = path(blocks, on_true, b0_fuel)?;
                (cond(c1, Guard1 { els, then }), els_max.max(then_max))
            }
        };
        Some(Whole {
            pro: seq(&n0.fsteps, (0, 0)),
            run,
            max_fuel,
        })
    }
}

/// The specialized node at block `j` and the block-span fuel it covers.
fn node(blocks: &[Block], j: u32) -> Option<(&SpecNode, u64)> {
    let b = &blocks[j as usize];
    Some((b.spec.as_ref()?, b.fuel))
}

/// A return leaf at block `j`: a node that only returns.
fn ret_leaf(blocks: &[Block], j: u32) -> Option<(ValK, u64)> {
    let (n, fuel) = node(blocks, j)?;
    match n.term {
        _ if !n.fsteps.is_empty() => None,
        SpecTerm::RetC(c) => Some((ValK::S(Scal::C(c)), fuel)),
        SpecTerm::RetV(v) => Some((v, fuel)),
        SpecTerm::Br { .. } => None,
    }
}

/// The path from block `j`, entered having spent `base` fuel:
/// statements plus a return, where the return may be one
/// conditional-return level (the shape short-circuit return joins,
/// `return a && b;`, lower to). Returns the path's code and its
/// worst-case fuel total.
fn path(blocks: &[Block], j: u32, base: u64) -> Option<(PathFn, u64)> {
    let (n, fuel) = node(blocks, j)?;
    let at = base + fuel;
    Some(match n.term {
        SpecTerm::RetC(c) => match seq(&n.fsteps, (c, at)) {
            Some(run) => (run, at),
            None => (
                leaf(
                    ValK::S(Scal::C(c)),
                    PathRet {
                        steps: None,
                        fuel: at,
                    },
                ),
                at,
            ),
        },
        SpecTerm::RetV(v) => {
            let steps = seq(&n.fsteps, (0, 0));
            (leaf(v, PathRet { steps, fuel: at }), at)
        }
        SpecTerm::Br { cond: c, f, t } => {
            let (f, ff) = ret_leaf(blocks, f)?;
            let (t, ft) = ret_leaf(blocks, t)?;
            let tail = PathCond {
                steps: seq(&n.fsteps, (0, 0)),
                t: leaf(t, Boxed),
                ft: at + ft,
                f: leaf(f, Boxed),
                ff: at + ff,
            };
            (cond(c, tail), at + ft.max(ff))
        }
    })
}

/// A leaf as a closure of its own.
struct Boxed;

impl WithLeaf for Boxed {
    type Out = LeafFn;
    fn with<L: Val>(self, l: L) -> LeafFn {
        Box::new(move |ctx| l.get(ctx))
    }
}

/// A path that runs its statements and returns one value.
struct PathRet {
    steps: Option<Seq>,
    fuel: u64,
}

impl WithLeaf for PathRet {
    type Out = PathFn;
    fn with<L: Val>(self, l: L) -> PathFn {
        let PathRet { steps, fuel } = self;
        Box::new(move |ctx| {
            run_seq(&steps, ctx);
            (l.get(ctx), fuel)
        })
    }
}

/// A path that runs its statements and returns one of two values.
struct PathCond {
    steps: Option<Seq>,
    t: LeafFn,
    ft: u64,
    f: LeafFn,
    ff: u64,
}

impl WithCond for PathCond {
    type Out = PathFn;
    fn with<C: Cond>(self, c: C) -> PathFn {
        let PathCond {
            steps,
            t,
            ft,
            f,
            ff,
        } = self;
        Box::new(move |ctx| {
            run_seq(&steps, ctx);
            if c.test(ctx) {
                (t(ctx), ft)
            } else {
                (f(ctx), ff)
            }
        })
    }
}

/// `if (c1) { then } else { els }`.
struct Guard1 {
    els: PathFn,
    then: PathFn,
}

impl WithCond for Guard1 {
    type Out = PathFn;
    fn with<C: Cond>(self, c1: C) -> PathFn {
        let Guard1 { els, then } = self;
        Box::new(move |ctx| if c1.test(ctx) { then(ctx) } else { els(ctx) })
    }
}

/// `if (c1 && c2) { then }`, with the ways out of each leg: the first
/// leg's form is known here, the second's is dispatched next.
struct Guard2 {
    c2: ValK,
    els: PathFn,
    leg_els: PathFn,
    then: PathFn,
}

impl WithCond for Guard2 {
    type Out = PathFn;
    fn with<C: Cond>(self, c1: C) -> PathFn {
        let c2 = self.c2;
        cond(c2, Legs(c1, self))
    }
}

/// Both legs' forms known: the guard as one closure.
struct Legs<A>(A, Guard2);

impl<A: Cond> WithCond for Legs<A> {
    type Out = PathFn;
    fn with<B: Cond>(self, c2: B) -> PathFn {
        let Legs(
            c1,
            Guard2 {
                els, leg_els, then, ..
            },
        ) = self;
        Box::new(move |ctx| {
            if !c1.test(ctx) {
                els(ctx)
            } else if !c2.test(ctx) {
                leg_els(ctx)
            } else {
                then(ctx)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::ir::MAX_OPS;
    use crate::{ExecTier, Instance, Program, RunOutcome, Type, Value};

    const INPUTS: [(&str, Type); 2] = [("size", Type::Int), ("port", Type::Int)];

    /// The canonical counting-CPA shape: branches, float accumulation,
    /// an output, and a short-circuit join.
    const CPA_SRC: &str = r#"
        static int n = 0;
        static double total = 0.0;
        if (size > 1000 && port == 2049) {
            n = n + 1;
            total = total + size;
            out(0, total / n);
        }
        return n % 10 == 0 && n > 0;
    "#;

    /// One carried stack value across the short-circuit join.
    const CARRY_SRC: &str = "return port != 0 && size / port > 3;";

    fn program(src: &str) -> Program {
        Program::compile(src, &INPUTS).unwrap()
    }

    /// Runs `Instance::new`'s tier and the checked interpreter over the
    /// same input stream and asserts every observable matches
    /// bit-for-bit.
    fn assert_tiers_agree(src: &str) {
        let p = program(src);
        let mut compiled = Instance::new(&p);
        let mut interp = Instance::new_fused(&p);
        for i in 0..50i64 {
            let inputs = [
                Value::Int(i * 500 % 3000),
                Value::Int(if i % 3 == 0 { 2049 } else { 80 }),
            ];
            let a = compiled
                .run(&inputs, 1_000)
                .map(|o| (o.ret, o.fuel_used, o.outputs.to_vec()));
            let b = interp
                .run(&inputs, 1_000)
                .map(|o| (o.ret, o.fuel_used, o.outputs.to_vec()));
            assert_eq!(a, b, "tier divergence at event {i}");
            assert_eq!(compiled.raw_globals(), interp.raw_globals());
        }
    }

    /// The seven Kprof event inputs the canonical shapes are written over.
    const EVENT_INPUTS: [(&str, Type); 7] = [
        ("kind", Type::Int),
        ("pid", Type::Int),
        ("wall", Type::Int),
        ("size", Type::Int),
        ("aux", Type::Int),
        ("port_src", Type::Int),
        ("port_dst", Type::Int),
    ];

    const RATIO_SRC: &str = r#"
        static int n = 0;
        static double acc = 0.0;
        n = n + 1;
        acc = acc + size;
        if (size > 800 && port_dst == 80) {
            out(0, acc / n);
            return 1;
        }
        return 0;
    "#;

    /// Its return join carries `seen % 100 == 0`, which reads a static.
    const GATED_COUNTER_SRC: &str = r#"
        static int seen = 0;
        static int nfs = 0;
        static int big = 0;
        seen = seen + 1;
        if (port_dst == 2049 && size > 1000) {
            nfs = nfs + 1;
            big = max(big, size);
        }
        return nfs > 0 && seen % 100 == 0;
    "#;

    const LATENCY_MINMAX_SRC: &str = r#"
        static int events = 0;
        static int lo = 9223372036854775807;
        static int hi = 0;
        static int span = 0;
        events = events + 1;
        lo = min(lo, wall);
        hi = max(hi, wall);
        span = hi - lo;
        if (events % 1000 == 0) { out(1, span); }
        return 0;
    "#;

    /// The perf claim rests on the hot CPA idioms getting monomorphized
    /// forms, not the interpreter — pin it so a lowering or
    /// specialization change can't silently regress the compiled tier to
    /// 1x: every block a covered run can enter is specialized, and the
    /// nodes assemble into the whole-program path.
    #[test]
    fn canonical_cpa_shapes_fully_specialize() {
        for (name, src) in [
            ("ratio", RATIO_SRC),
            ("gated_counter", GATED_COUNTER_SRC),
            ("latency_minmax", LATENCY_MINMAX_SRC),
        ] {
            let p = Program::compile(src, &EVENT_INPUTS).unwrap();
            let inst = Instance::new(&p);
            assert_eq!(inst.tier(), ExecTier::Compiled, "{name} must compile");
            let (whole, spec, reachable) = inst.compiled_shape().unwrap();
            assert_eq!(
                spec, reachable,
                "{name}: only {spec}/{reachable} reachable blocks specialized"
            );
            assert!(whole, "{name} must assemble into the whole-program path");
        }
    }

    /// Debug dump of every specialized node of `src`'s compiled graph.
    fn nodes_of(src: &str, inputs: &[(&str, Type)]) -> String {
        let p = Program::compile(src, inputs).unwrap();
        let cp = p.lowered().compiled().cloned().expect("compiles");
        let nodes: Vec<_> = cp.blocks.iter().map(|b| b.spec.as_ref()).collect();
        format!("{nodes:?}")
    }

    /// The move rule: a join with no steps folds into both predecessors
    /// even though the carried `seen % 100 == 0` reads a static, so the
    /// two arms of the return become plain return leaves.
    #[test]
    fn stepless_join_with_a_static_reading_carry_folds_into_both_predecessors() {
        let src = "static int nfs = 0; static int seen = 0; return nfs > 0 && seen % 100 == 0;";
        let dump = nodes_of(src, &INPUTS);
        assert!(dump.contains("term: RetV(DivC"), "{dump}");
        assert!(dump.contains("term: RetC(0)"), "{dump}");
        let shape = Instance::new(&program(src)).compiled_shape();
        assert_eq!(shape, Some((true, 3, 3)), "{dump}");
        assert_tiers_agree(src);
    }

    /// A join that has steps keeps the invariance rule: the store could
    /// write what a delayed carry reads, so a static-reading carry stays
    /// a stack value, both blocks run interpreted, and the tiers agree.
    #[test]
    fn join_with_steps_and_a_mutable_carry_does_not_fold() {
        let src = r#"
            static int n = 0;
            static int m = 0;
            static bool f = false;
            n = n + 1;
            m = m + size;
            f = (n > 0 && m % 3 == 0);
            return f;
        "#;
        let (whole, spec, reachable) = Instance::new(&program(src)).compiled_shape().unwrap();
        assert!(!whole && spec < reachable, "{spec}/{reachable}");
        assert_tiers_agree(src);
    }

    /// The join of a discarded `&&` pops its carry unread. Folding it
    /// would drop `10 / port`'s trap with the value, so the arm stays an
    /// interpreted carry-compute block and the trap is raised.
    #[test]
    fn dropped_carry_that_can_trap_does_not_fold() {
        let src = "size > 0 && 10 / port > 3; return 1;";
        let p = program(src);
        let mut compiled = Instance::new(&p);
        let (_, spec, reachable) = compiled.compiled_shape().unwrap();
        assert!(spec < reachable, "{spec}/{reachable}");
        let mut reference = Instance::new_fused(&p);
        for (size, port) in [(0, 0), (5, 2), (5, 0), (0, 7)] {
            let inputs = [Value::Int(size), Value::Int(port)];
            let a = compiled.run(&inputs, 1_000).map(|o| (o.ret, o.fuel_used));
            let b = reference.run(&inputs, 1_000).map(|o| (o.ret, o.fuel_used));
            assert_eq!(a, b, "size={size} port={port}");
        }
        assert_eq!(
            compiled.run(&[Value::Int(5), Value::Int(0)], 1_000),
            Err(crate::EcodeError::DivideByZero)
        );
    }

    #[test]
    fn canonical_cpa_compiles_and_agrees_with_the_interpreter() {
        let p = program(CPA_SRC);
        assert_eq!(Instance::new(&p).tier(), ExecTier::Compiled);
        assert_eq!(Instance::new_fused(&p).tier(), ExecTier::Fused);
        assert_tiers_agree(CPA_SRC);
        assert_eq!(
            Instance::new(&program(CARRY_SRC)).tier(),
            ExecTier::Compiled
        );
        assert_tiers_agree(CARRY_SRC);
    }

    #[test]
    fn over_limit_program_falls_back_and_agrees() {
        // Enough straight-line statements to pass MAX_OPS: too big to be
        // worth a block graph, so it must run — and run correctly — on
        // the checked interpreter.
        let divisors: Vec<i64> = (0..MAX_OPS as i64 / 4).map(|k| k % 61 + 2).collect();
        let mut src = String::from("static int n = 0;\n");
        for d in &divisors {
            src.push_str(&format!("n = n + size % {d};\n"));
        }
        src.push_str("return n;");
        let p = program(&src);
        assert!(p.code().len() > MAX_OPS);
        let mut inst = Instance::new(&p);
        assert_eq!(inst.tier(), ExecTier::Fused);
        let mut reference = Instance::new(&p);
        let fuel = p.static_fuel_bound();
        let mut want = 0i64;
        for size in [0i64, 7, 1500] {
            want += divisors.iter().map(|d| size % d).sum::<i64>();
            let inputs = [Value::Int(size), Value::Int(80)];
            let a = inst.run(&inputs, fuel).map(|o| (o.ret, o.fuel_used));
            let b = reference
                .run_per_op(&inputs, fuel)
                .map(|o| (o.ret, o.fuel_used));
            assert_eq!(a, b, "size={size}");
            assert_eq!(a.unwrap().0, want);
        }
    }

    #[test]
    fn deep_carry_shape_falls_back_even_on_default_budget() {
        // Four pending booleans below the short-circuit join put five
        // values on the stack at the join entry — past MAX_CARRY. This
        // shape is non-compilable by design and must run on the
        // interpreter — correctly — without the host doing anything.
        let src =
            "return size > 0 == (port > 0 == (size > 1 == (port > 1 == (size > 2 && port > 2))));";
        let p = program(src);
        let inst = Instance::new(&p);
        assert_eq!(
            inst.tier(),
            ExecTier::Fused,
            "deeper-than-MAX_CARRY joins must fall back"
        );
        assert_tiers_agree(src);
    }

    #[test]
    fn compiled_runs_match_per_op_reference_under_tight_fuel() {
        // Precharge fallback: when the remaining budget cannot cover a
        // block, the compiled driver must degrade to checked per-op
        // execution with identical trap points and fuel accounting. At
        // every budget up to the bound, so a merged span is starved at
        // each original block boundary and re-enters through the folded
        // join blocks, which only the interpreter runs.
        for (src, inputs) in [
            (CPA_SRC, &INPUTS[..]),
            (CARRY_SRC, &INPUTS[..]),
            (GATED_COUNTER_SRC, &EVENT_INPUTS[..]),
        ] {
            let p = Program::compile(src, inputs).unwrap();
            let mut compiled = Instance::new(&p);
            let mut reference = Instance::new(&p);
            assert_eq!(compiled.tier(), ExecTier::Compiled);
            for fuel in 1..=p.static_fuel_bound() {
                for i in 0..20i64 {
                    // `size` cycles through the guards' thresholds; the
                    // last input is the port (2049, or 0 for the trap).
                    let mut row = vec![Value::Int(i * 700 % 2500); inputs.len()];
                    row[inputs.len() - 1] = Value::Int(if i % 5 == 4 { 0 } else { 2049 });
                    let a = compiled
                        .run(&row, fuel)
                        .map(|o| (o.ret, o.fuel_used, o.outputs.to_vec()));
                    let b = reference
                        .run_per_op(&row, fuel)
                        .map(|o| (o.ret, o.fuel_used, o.outputs.to_vec()));
                    assert_eq!(a, b, "fuel={fuel} event={i} on {src}");
                    assert_eq!(compiled.raw_globals(), reference.raw_globals());
                }
            }
        }
    }

    /// Rows that cross every threshold the generated programs use, plus
    /// the extremes a range or an ordering could get wrong.
    fn edge_rows(width: usize) -> Vec<Vec<Value>> {
        let vals = [
            0,
            1,
            -1,
            7,
            79,
            80,
            81,
            800,
            801,
            1000,
            2049,
            -9_000,
            i64::MAX,
            i64::MIN,
            i64::MAX - 1,
            i64::MIN + 1,
        ];
        (0..64usize)
            .map(|k| {
                (0..width)
                    .map(|j| Value::Int(vals[(k * (j + 3) + j * 5 + k / 7) % vals.len()]))
                    .collect()
            })
            .collect()
    }

    /// A guarded reporter drawn from `seed`: prologue statements, a
    /// one- or two-leg guard, then-statements that may return, and a
    /// final return of any leaf form — every statement form, every
    /// comparison, operand kind and constant extreme the closures
    /// specialize over.
    fn reporter(seed: u64) -> String {
        let mut rng = crate::gen::Rng::new(seed);
        let mut pick = |n: usize| rng.below(n as u64) as usize;
        // Negative literals and `i64::MIN` become constants once the
        // verifier folds them.
        const OPD: [&str; 10] = [
            "size",
            "port",
            "s0",
            "s1",
            "800",
            "-3",
            "0",
            "9223372036854775807",
            "-9223372036854775807",
            "(-9223372036854775807 - 1)",
        ];
        const CMP: [&str; 6] = ["<", "<=", ">", ">=", "==", "!="];
        let leg = |pick: &mut dyn FnMut(usize) -> usize| match pick(5) {
            0 => format!(
                "s{} % {} {} 0",
                pick(2),
                [3, 8, 1000, -6][pick(4)],
                ["==", "!="][pick(2)]
            ),
            _ => format!("{} {} {}", OPD[pick(10)], CMP[pick(6)], OPD[pick(10)]),
        };
        let stmt = |pick: &mut dyn FnMut(usize) -> usize| match pick(7) {
            0 => format!("s{} = s{} + {};", pick(2), 0, [1, -1, 5][pick(3)]),
            1 => "d = d + size;".to_owned(),
            2 => format!("s{0} = min(s{0}, {1});", pick(2), ["size", "port"][pick(2)]),
            3 => format!("s{0} = max(s{0}, {1});", pick(2), ["size", "port"][pick(2)]),
            4 => "s1 = s0 - s1;".to_owned(),
            5 => format!("out({}, d / s{});", pick(3), pick(2)),
            _ => format!("out({}, s{});", pick(3), pick(2)),
        };
        let mut src =
            String::from("static int s0 = 5;\nstatic int s1 = -2;\nstatic double d = 0.5;\n");
        // Self-updates only on the statement's own static: `s0 = s0 + c`.
        let fix = |st: String| st.replace("s1 = s0 + ", "s1 = s1 + ");
        for _ in 0..pick(4) {
            src.push_str(&fix(stmt(&mut pick)));
            src.push('\n');
        }
        let guard = match pick(2) {
            0 => leg(&mut pick),
            _ => format!("{} && {}", leg(&mut pick), leg(&mut pick)),
        };
        src.push_str(&format!("if ({guard}) {{\n"));
        for _ in 0..pick(3) {
            src.push_str(&fix(stmt(&mut pick)));
            src.push('\n');
        }
        if pick(2) == 0 {
            src.push_str(&format!("return {};\n", [1, 0, -7][pick(3)]));
        }
        src.push_str("}\n");
        let ret = match pick(4) {
            0 => format!("{}", [0, 1, 42][pick(3)]),
            1 => ["s0", "size", "s1"][pick(3)].to_owned(),
            2 => leg(&mut pick),
            _ => format!("{} && {}", leg(&mut pick), leg(&mut pick)),
        };
        src.push_str(&format!("return {ret};\n"));
        src
    }

    /// The closure path against the reference on every observable, for
    /// `src` as compiled and as the verifier optimizes it (which folds
    /// negative literals into constants): at a budget of `max_fuel` a
    /// program with a whole path runs its closures, and at
    /// `max_fuel - 1` it must take the per-block driver and stop where
    /// the reference stops. Returns how many of the two had a whole
    /// path.
    fn whole_agrees_with_per_op(src: &str) -> usize {
        let limits = crate::VerifyLimits::default();
        let verified = crate::verify(src, &INPUTS, &limits).ok();
        let optimized = verified.map(|v| v.into_parts().0);
        [Some(program(src)), optimized]
            .iter()
            .flatten()
            .filter(|p| agrees(p, src))
            .count()
    }

    fn agrees(p: &Program, src: &str) -> bool {
        let Some(cp) = p.lowered().compiled().cloned() else {
            return false;
        };
        let Some(max_fuel) = cp.whole.as_ref().map(|w| w.max_fuel) else {
            return false;
        };
        // The bound also counts paths a folded branch made unreachable.
        assert!(max_fuel <= p.static_fuel_bound(), "{src}");
        for budget in [max_fuel, max_fuel - 1] {
            let mut closures = Instance::new(p);
            let mut reference = Instance::new(p);
            for (i, row) in edge_rows(INPUTS.len()).iter().enumerate() {
                // Outputs bitwise, so a NaN compares equal to itself.
                let observe = |o: RunOutcome<'_>| {
                    let outs: Vec<_> = o.outputs.iter().map(|(s, v)| (*s, v.to_bits())).collect();
                    (o.ret, o.fuel_used, outs)
                };
                let a = closures.run(row, budget).map(observe);
                let b = reference.run_per_op(row, budget).map(observe);
                assert_eq!(a, b, "budget {budget}, row {i} of\n{src}");
                assert_eq!(closures.raw_globals(), reference.raw_globals(), "{src}");
            }
        }
        true
    }

    /// The closure path is held to the per-op reference: the three
    /// canonical shapes, 400 generated guarded reporters and the
    /// sweeps' generated programs that assemble a whole path.
    #[test]
    fn closure_path_matches_per_op_at_and_below_max_fuel() {
        for (src, inputs) in [
            (RATIO_SRC, &EVENT_INPUTS[..]),
            (GATED_COUNTER_SRC, &EVENT_INPUTS[..]),
            (LATENCY_MINMAX_SRC, &EVENT_INPUTS[..]),
        ] {
            // The canonical shapes read the event inputs; rename the two
            // the rows drive onto this module's pair.
            let _ = inputs;
            let src = src.replace("port_dst", "port").replace("wall", "size");
            assert_eq!(whole_agrees_with_per_op(&src), 2, "{src}");
        }
        let reporters: usize = (0..400)
            .map(|seed| whole_agrees_with_per_op(&reporter(seed)))
            .sum();
        assert!(
            reporters >= 400,
            "only {reporters} of 800 reporter builds assemble a whole path"
        );
        let generated: usize = (0..300u64)
            .flat_map(|seed| {
                [
                    crate::gen::Gen::new(seed).program(),
                    crate::gen::MergeGen::new(seed).program(),
                ]
            })
            .map(|src| whole_agrees_with_per_op(&src))
            .sum();
        eprintln!("whole paths checked: {reporters} reporter builds, {generated} generated");
        assert!(generated > 0, "no generated program assembles a whole path");
    }

    /// Every string the repo actually installs: the raw-string and
    /// named plain-string E-Code literals of the examples and of
    /// sysbench's `install_churn` corpus (what the benchmark installs is
    /// what a fast form must justify itself against), read from the
    /// files themselves so the census follows the traffic, plus this
    /// module's canonical CPA.
    fn traffic() -> Vec<String> {
        let files = [
            include_str!("../../../examples/custom_analyzer.rs"),
            include_str!("../../../examples/verify_cpa.rs"),
            include_str!("../../../benchmark/src/corpus.rs"),
        ];
        let mut out = vec![CPA_SRC.to_owned(), CARRY_SRC.to_owned()];
        for file in files {
            let mut rest = file;
            while let Some(at) = rest.find("r#\"") {
                let body = &rest[at + 3..];
                let end = body.find("\"#").expect("raw string closes");
                // The corpus's `latency_minmax` is a `format!` template
                // over the timestamp's name; `wall_us` is the product's.
                let mut src = body[..end].to_owned();
                if src.contains("{wall}") {
                    src = src.replace("{wall}", "wall_us");
                    src = src.replace("{{", "{").replace("}}", "}");
                }
                out.push(src);
                rest = &body[end..];
            }
            for name in ["FILTER_RESP", "DIGEST_FOUR", "DIGEST_SLO", "DIGEST_SEEN"] {
                if let Some(at) = file.find(&format!("const {name}: &str = \"")) {
                    let body = &file[at..][file[at..].find('"').unwrap() + 1..];
                    out.push(body[..body.find("\";").unwrap()].to_owned());
                }
            }
        }
        out
    }

    /// Fast-form census: which specialized variants the in-repo traffic
    /// reaches. A variant no program reaches is dead weight on the hot
    /// path's match arms — delete it rather than keep it for a shape
    /// nobody writes. (PR 16 deleted seven this way: `GUpd::{AccInI,
    /// SetC, SetIn}`, `OutK::{DblGl, Const}`, `Scal::GlModC`,
    /// `SpecTerm::Jump`.)
    #[test]
    fn every_fast_form_is_reached_by_in_repo_traffic() {
        // Event inputs and interaction-record fields together: names
        // only resolve loads, the forms do not depend on them.
        let names = [
            "kind",
            "pid",
            "wall_us",
            "size",
            "aux",
            "port_src",
            "port_dst",
            "port",
            "node",
            "src_ip",
            "src_port",
            "dst_ip",
            "dst_port",
            "class_port",
            "start_us",
            "end_us",
            "req_packets",
            "req_bytes",
            "resp_packets",
            "resp_bytes",
            "kernel_in_us",
            "user_us",
            "kernel_out_us",
            "blocked_us",
            "blocked_io_us",
        ];
        let inputs: Vec<(&str, Type)> = names.iter().map(|n| (*n, Type::Int)).collect();
        let mut census = std::collections::BTreeMap::new();
        let mut programs = 0;
        for src in traffic() {
            // Only what a host would install: the examples also hold a
            // deliberately rejected program.
            let Ok(v) = crate::verify(&src, &inputs, &crate::VerifyLimits::default()) else {
                continue;
            };
            programs += 1;
            let cp = v
                .get()
                .lowered()
                .compiled()
                .cloned()
                .expect("traffic compiles");
            let nodes: Vec<_> = cp.blocks.iter().filter_map(|b| b.spec.as_ref()).collect();
            // Variant names as the derived `Debug` spells them.
            let dump = format!("{nodes:?}");
            for (family, variants) in FORMS {
                for v in *variants {
                    let ends = [" {", "(", ","];
                    if ends.iter().any(|e| dump.contains(&format!("{v}{e}"))) {
                        *census.entry(format!("{family}::{v}")).or_insert(0) += 1;
                    }
                }
            }
        }
        eprintln!("fast forms reached, of {programs} programs: {census:#?}");
        assert!(
            programs >= 8,
            "traffic extraction broke: {programs} programs"
        );
        for (family, variants) in FORMS {
            for v in *variants {
                let form = format!("{family}::{v}");
                assert!(
                    census.contains_key(&form),
                    "no in-repo program lowers to {form}"
                );
            }
        }
    }

    const FORMS: &[(&str, &[&str])] = &[
        ("GUpd", &["IncC", "AccInF", "MinIn", "MaxIn", "SubGG"]),
        ("OutK", &["RatioFI", "IntGl"]),
        ("Scal", &["In", "Gl", "C"]),
        ("ValK", &["S", "Cmp", "DivC"]),
        ("SpecTerm", &["RetC", "RetV", "Br"]),
    ];
}
