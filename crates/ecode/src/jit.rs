//! The compiled execution tier: the scalar backend of the one lowering
//! (`ecode::ir`).
//!
//! The paper's CPAs were *natively* code-generated into the running
//! kernel; a bytecode interpreter taxes that path with a dispatch per
//! opcode. This module removes the tax for the shapes analyzers are
//! actually written in: the IR's basic blocks are merged back into
//! straight-line spans, and every span that fits a small universe of
//! **monomorphized forms** — constant operands baked in, a whole
//! `acc = acc + size;` as one update instead of five dispatches —
//! becomes a node of a graph the driver walks without touching
//! bytecode. A program whose nodes form the canonical guarded-reporter
//! shape is additionally assembled, from those same nodes, into one
//! straight-line structure with its fuel totals precomputed (`Whole`).
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
//! against the reference for hundreds of programs.

use std::fmt;

use crate::ir::{self, bits_of, f64_of, Bin, Cmp, Ex, Ir, Step, Term, Un, MAX_CARRY};

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
            run_fsteps(&node.fsteps, ctx);
            let next = match &node.term {
                SpecTerm::RetC(c) => return (extra, Exit::Ret(*c)),
                SpecTerm::RetV(v) => return (extra, Exit::Ret(v.get(ctx))),
                SpecTerm::Br { cond, f, t } => {
                    if cond.truthy(ctx) {
                        *t
                    } else {
                        *f
                    }
                }
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
    // The IR itself stays unmerged — the column backend wants the
    // partition — so merging rewrites a copy.
    let mut merged = ir.blocks.clone();
    merge_chains(&mut merged);
    let blocks: Vec<Block> = merged
        .iter()
        .map(|b| Block {
            entry_pc: b.entry_pc,
            fuel: b.fuel,
            spec: spec_node(b),
        })
        .collect();
    // What a run with a covering budget can enter: the merged graph
    // from block 0.
    let mut reached = vec![false; merged.len()];
    let mut work = vec![0u32];
    while let Some(i) = work.pop() {
        if !std::mem::replace(&mut reached[i as usize], true) {
            match &merged[i as usize].term {
                Term::Jmp(t) => work.push(*t),
                Term::Br {
                    on_false, on_true, ..
                } => work.extend([*on_false, *on_true]),
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

/// Inlines unconditional-jump chains: a block ending in `Jmp(T)` runs
/// `T` unconditionally, so `T`'s statements and terminator are copied
/// into the predecessor and the two blocks become one — the
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
fn merge_chains(lowered: &mut [ir::Block]) {
    // Reverse order makes single-pass transitive: forward jump targets
    // are fully merged before their predecessors consider them.
    for i in (0..lowered.len()).rev() {
        // A cycle of empty blocks could ping-pong; the fuse cap bounds
        // the work (and any real chain is far shorter).
        for _ in 0..8 {
            let Term::Jmp(j) = lowered[i].term else {
                break;
            };
            let j = j as usize;
            if j == i
                || !(movable(&lowered[i].carry_out, &lowered[j])
                    || lowered[i].carry_out.iter().all(invariant))
                || lowered[i].steps.len() + lowered[j].steps.len() > 8
            {
                break;
            }
            debug_assert_eq!(lowered[j].carry_in as usize, lowered[i].carry_out.len());
            let carries = std::mem::take(&mut lowered[i].carry_out);
            let steps: Vec<Step> = lowered[j]
                .steps
                .iter()
                .map(|s| subst_step(s, &carries))
                .collect();
            let carry_out: Vec<Ex> = lowered[j]
                .carry_out
                .iter()
                .map(|e| subst(e, &carries))
                .collect();
            // A substituted literal folds the branch, as it did when one
            // symbolic run covered both spans.
            let term = match &lowered[j].term {
                Term::Br {
                    cond,
                    on_false,
                    on_true,
                } => Term::br(subst(cond, &carries), *on_false, *on_true),
                Term::Ret(e) => Term::ret(subst(e, &carries)),
                t => t.clone(),
            };
            let fuel = lowered[j].fuel;
            let lb = &mut lowered[i];
            lb.steps.extend(steps);
            lb.carry_out = carry_out;
            lb.term = term;
            lb.fuel += fuel;
        }
    }
}

/// The move rule: `succ` has no steps, so nothing can write between a
/// carry's evaluation at the end of the predecessor and its read in
/// `succ`'s carries or terminator — substituting moves the evaluation
/// without reordering it against any store, whatever the carry reads. A
/// stack value is read at most once; one that is never read folds only
/// if it cannot trap, because dropping it would drop the trap.
fn movable(carries: &[Ex], succ: &ir::Block) -> bool {
    if !succ.steps.is_empty() {
        return false;
    }
    fn count(ex: &Ex, reads: &mut [u8; MAX_CARRY]) {
        match ex {
            Ex::Carry(i) => reads[*i as usize] += 1,
            Ex::Bin(_, l, r) => {
                count(l, reads);
                count(r, reads);
            }
            Ex::Un(_, e) => count(e, reads),
            _ => {}
        }
    }
    let mut reads = [0u8; MAX_CARRY];
    succ.carry_out.iter().for_each(|e| count(e, &mut reads));
    if let Term::Br { cond: e, .. } | Term::Ret(e) = &succ.term {
        count(e, &mut reads);
    }
    let mut folds = carries.iter().zip(reads);
    folds.all(|(c, n)| n == 1 || (n == 0 && !c.can_trap()))
}

/// Whether delaying `ex`'s evaluation past arbitrary statements is
/// unobservable: only inputs and constants (inputs never change within
/// a run), combined trap-free.
fn invariant(ex: &Ex) -> bool {
    match ex {
        Ex::Input(_) | Ex::ConstI(_) | Ex::ConstF(_) => true,
        Ex::Global(_) | Ex::Local(_) | Ex::Carry(_) => false,
        Ex::Bin(op, l, r) => !matches!(op, Bin::DivI | Bin::ModI) && invariant(l) && invariant(r),
        Ex::Un(_, e) => invariant(e),
    }
}

/// Replaces `Carry(i)` with the predecessor's carried expression.
fn subst(ex: &Ex, carries: &[Ex]) -> Ex {
    match ex {
        Ex::Carry(i) => carries[*i as usize].clone(),
        Ex::Bin(op, l, r) => Ex::Bin(
            *op,
            Box::new(subst(l, carries)),
            Box::new(subst(r, carries)),
        ),
        Ex::Un(op, e) => Ex::Un(*op, Box::new(subst(e, carries))),
        other => other.clone(),
    }
}

fn subst_step(s: &Step, carries: &[Ex]) -> Step {
    match s {
        Step::StoreGlobal(g, e) => Step::StoreGlobal(*g, subst(e, carries)),
        Step::StoreLocal(l, e) => Step::StoreLocal(*l, subst(e, carries)),
        Step::Out(slot, value) => Step::Out(subst(slot, carries), subst(value, carries)),
        Step::Eval(e) => Step::Eval(subst(e, carries)),
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

impl Scal {
    #[inline(always)]
    fn get(self, ctx: &Ctx<'_>) -> i64 {
        match self {
            Scal::In(i) => ctx.inputs[i as usize],
            Scal::Gl(g) => ctx.globals[g as usize],
            Scal::C(c) => c,
        }
    }
}

fn as_scal(ex: &Ex) -> Option<Scal> {
    Some(match ex {
        Ex::Input(i) => Scal::In(*i),
        Ex::Global(g) => Scal::Gl(*g),
        Ex::ConstI(c) => Scal::C(*c),
        _ => return None,
    })
}

/// A trap-free int value: a scalar, an integer comparison of two
/// scalars (producing 0/1), or a strength-reduced divisibility test.
/// Serves as branch condition (`truthy`) and return value (`get`).
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

impl ValK {
    #[inline(always)]
    fn get(self, ctx: &Ctx<'_>) -> i64 {
        match self {
            ValK::S(s) => s.get(ctx),
            ValK::Cmp(cmp, l, r) => cmp.eval(l.get(ctx), r.get(ctx)) as i64,
            ValK::DivC { .. } => self.truthy(ctx) as i64,
        }
    }

    #[inline(always)]
    fn truthy(self, ctx: &Ctx<'_>) -> bool {
        match self {
            ValK::S(s) => s.get(ctx) != 0,
            ValK::Cmp(cmp, l, r) => cmp.eval(l.get(ctx), r.get(ctx)),
            ValK::DivC {
                g,
                ne,
                mask,
                inv,
                thr,
            } => {
                // Truncated `%` makes divisibility sign-independent, so
                // test the magnitude (`unsigned_abs` is exact even for
                // i64::MIN).
                let n = ctx.globals[g as usize].unsigned_abs();
                let divisible = n & mask == 0 && n.wrapping_mul(inv) <= thr;
                divisible != ne
            }
        }
    }
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

fn as_valk(ex: &Ex) -> Option<ValK> {
    let Ex::Bin(op, l, r) = ex else {
        return Some(ValK::S(as_scal(ex)?));
    };
    let cmp = op.int_cmp()?;
    // Strength-reduce `g % c == 0` / `!= 0` to a multiply-and-mask
    // divisibility test (either operand order; `c == 0` is left to the
    // generic path, which raises the trap).
    if let (Cmp::Eq | Cmp::Ne, (Ex::ConstI(0), Ex::Bin(Bin::ModI, g, c)))
    | (Cmp::Eq | Cmp::Ne, (Ex::Bin(Bin::ModI, g, c), Ex::ConstI(0))) = (cmp, (&**l, &**r))
    {
        if let (Ex::Global(g), Ex::ConstI(c)) = (&**g, &**c) {
            return div_test(*g, *c, cmp == Cmp::Ne);
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

impl OutK {
    #[inline(always)]
    fn value(self, ctx: &Ctx<'_>) -> f64 {
        match self {
            OutK::RatioFI { num, den } => {
                f64_of(ctx.globals[num as usize]) / ctx.globals[den as usize] as f64
            }
            OutK::IntGl(g) => ctx.globals[g as usize] as f64,
        }
    }
}

fn as_outk(ex: &Ex) -> Option<OutK> {
    Some(match ex {
        Ex::Un(Un::I2F, inner) => match &**inner {
            Ex::Global(g) => OutK::IntGl(*g),
            _ => return None,
        },
        Ex::Bin(Bin::DivF, l, r) => match (&**l, &**r) {
            (Ex::Global(num), Ex::Un(Un::I2F, d)) => match &**d {
                Ex::Global(den) => OutK::RatioFI {
                    num: *num,
                    den: *den,
                },
                _ => return None,
            },
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

#[inline(always)]
fn run_fsteps(fsteps: &[FStep], ctx: &mut Ctx<'_>) {
    for s in fsteps {
        match *s {
            FStep::U(u) => u.apply(ctx),
            FStep::Pub { slot, out } => {
                let v = out.value(ctx);
                ctx.outputs.push((slot, v));
            }
        }
    }
}

/// Classifies every step as a packable trap-free statement, or refuses
/// the specialization (`None` → interpreted). Capped so the `Vec`
/// stays small; longer runs are rare and the generic path handles them.
fn as_fsteps(steps: &[Step]) -> Option<Vec<FStep>> {
    if steps.len() > 6 {
        return None;
    }
    steps
        .iter()
        .map(|s| match s {
            Step::StoreGlobal(..) => as_gupd(s).map(FStep::U),
            Step::Out(Ex::ConstI(slot), value) => {
                as_outk(value).map(|out| FStep::Pub { slot: *slot, out })
            }
            _ => None,
        })
        .collect()
}

/// A fully-monomorphized block body plus terminator. Everything in a
/// node is trap-free by construction ([`FStep`]/[`ValK`]/[`OutK`] admit
/// no int div/mod), so [`Exit`] has no trap case. Terminator targets
/// are block indices; control flows
/// from node to node inside [`CompiledProgram::run_spec`]'s loop
/// instead of bouncing back to the driver at every block boundary.
#[derive(Debug)]
pub(crate) struct SpecNode {
    fsteps: Vec<FStep>,
    term: SpecTerm,
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
fn spec_node(b: &ir::Block) -> Option<SpecNode> {
    if b.carry_in > 0 || !b.carry_out.is_empty() {
        return None;
    }
    let fsteps = as_fsteps(&b.steps)?;
    let term = match &b.term {
        Term::RetC(c) => SpecTerm::RetC(*c),
        Term::Ret(e) => SpecTerm::RetV(as_valk(e)?),
        Term::Br {
            cond,
            on_false,
            on_true,
        } => SpecTerm::Br {
            cond: as_valk(cond)?,
            f: *on_false,
            t: *on_true,
        },
        Term::Jmp(_) => return None,
    };
    Some(SpecNode { fsteps, term })
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
/// — assembled from the specialized nodes ([`Whole::assemble`]) into
/// one straight-line structure with **per-path fuel totals baked in at
/// compile time**. Executing it costs a couple of predictable branches
/// and the statements themselves: no per-block dispatch, no driver
/// round-trips, no fuel bookkeeping.
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
    pro: Box<[FStep]>,
    kind: WKind,
    /// Worst-case path fuel; `exec` requires `budget >= max_fuel`.
    pub(crate) max_fuel: u64,
}

/// A return leaf: the value the program exits with.
#[derive(Clone, Copy)]
enum WLeaf {
    C(i64),
    V(ValK),
}

impl WLeaf {
    #[inline(always)]
    fn get(self, ctx: &Ctx<'_>) -> i64 {
        match self {
            WLeaf::C(c) => c,
            WLeaf::V(v) => v.get(ctx),
        }
    }
}

/// How a continuation ends. `Cond` is one conditional-return level —
/// the shape short-circuit return joins (`return a && b;`) lower to —
/// with each side's remaining block fuel baked in.
enum WTail {
    Leaf(WLeaf),
    Cond {
        c: ValK,
        t: WLeaf,
        ft: u64,
        f: WLeaf,
        ff: u64,
    },
}

impl WTail {
    #[inline(always)]
    fn exec(&self, ctx: &mut Ctx<'_>, base: u64) -> (i64, u64) {
        match self {
            WTail::Leaf(l) => (l.get(ctx), base),
            WTail::Cond { c, t, ft, f, ff } => {
                if c.truthy(ctx) {
                    (t.get(ctx), base + ft)
                } else {
                    (f.get(ctx), base + ff)
                }
            }
        }
    }

    fn max_fuel(&self) -> u64 {
        match self {
            WTail::Leaf(_) => 0,
            WTail::Cond { ft, ff, .. } => (*ft).max(*ff),
        }
    }
}

/// One straight-line continuation: statements, then a tail. `fuel` is
/// the block-span total of every block the continuation covers (minus
/// `Cond`'s per-side extras, which the tail adds itself).
struct WCont {
    steps: Box<[FStep]>,
    tail: WTail,
    fuel: u64,
}

impl WCont {
    #[inline(always)]
    fn exec(&self, ctx: &mut Ctx<'_>, base: u64) -> (i64, u64) {
        run_fsteps(&self.steps, ctx);
        self.tail.exec(ctx, base + self.fuel)
    }

    fn max_fuel(&self) -> u64 {
        self.fuel + self.tail.max_fuel()
    }
}

/// The second leg of a short-circuit guard (`… && c`): its condition,
/// the fuel of the blocks the leg traverses, and where a false lands.
struct WLeg {
    c: ValK,
    fuel: u64,
    els: WCont,
}

// The size skew between the two variants is fine: one `WKind` exists
// per compiled program, not per run.
#[allow(clippy::large_enum_variant)]
enum WKind {
    /// No guard: prologue flows straight into the tail.
    Plain { tail: WTail, fuel: u64 },
    /// `if (c1 [&& leg2.c]) { then } else { els }` — the guard shape.
    Guard {
        b0_fuel: u64,
        c1: ValK,
        leg2: Option<WLeg>,
        then: WCont,
        els: WCont,
    },
}

impl Whole {
    /// Runs the whole program. Caller must hold `budget >= max_fuel`.
    #[inline(always)]
    pub(crate) fn exec(&self, ctx: &mut Ctx<'_>) -> (i64, u64) {
        run_fsteps(&self.pro, ctx);
        match &self.kind {
            WKind::Plain { tail, fuel } => tail.exec(ctx, *fuel),
            WKind::Guard {
                b0_fuel,
                c1,
                leg2,
                then,
                els,
            } => {
                if !c1.truthy(ctx) {
                    return els.exec(ctx, *b0_fuel);
                }
                let mut pre = *b0_fuel;
                if let Some(leg) = leg2 {
                    pre += leg.fuel;
                    if !leg.c.truthy(ctx) {
                        return leg.els.exec(ctx, pre);
                    }
                }
                then.exec(ctx, pre)
            }
        }
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
            let WCont { steps, tail, fuel } = cont(blocks, 0)?;
            return Some(Whole {
                pro: steps,
                max_fuel: fuel + tail.max_fuel(),
                kind: WKind::Plain { tail, fuel },
            });
        };
        let els = cont(blocks, on_false)?;
        // The true edge is either the guard's second short-circuit leg
        // (the folded `&&` join: a bare re-branch before any statement
        // runs) or the then-block itself.
        let (tn, t_fuel) = node(blocks, on_true)?;
        let (leg2, then) = match tn.term {
            SpecTerm::Br { cond, f, t } if tn.fsteps.is_empty() => (
                Some(WLeg {
                    c: cond,
                    fuel: t_fuel,
                    els: cont(blocks, f)?,
                }),
                cont(blocks, t)?,
            ),
            _ => (None, cont(blocks, on_true)?),
        };
        let inner = match &leg2 {
            Some(leg) => leg.fuel + then.max_fuel().max(leg.els.max_fuel()),
            None => then.max_fuel(),
        };
        let max_fuel = b0_fuel + els.max_fuel().max(inner);
        Some(Whole {
            pro: n0.fsteps.clone().into_boxed_slice(),
            kind: WKind::Guard {
                b0_fuel,
                c1,
                leg2,
                then,
                els,
            },
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
fn ret_leaf(blocks: &[Block], j: u32) -> Option<(WLeaf, u64)> {
    let (n, fuel) = node(blocks, j)?;
    match n.term {
        SpecTerm::RetC(c) if n.fsteps.is_empty() => Some((WLeaf::C(c), fuel)),
        SpecTerm::RetV(v) if n.fsteps.is_empty() => Some((WLeaf::V(v), fuel)),
        _ => None,
    }
}

/// A continuation starting at block `j`: statements plus a return tail,
/// where the tail may be one conditional-return level.
fn cont(blocks: &[Block], j: u32) -> Option<WCont> {
    let (n, fuel) = node(blocks, j)?;
    let tail = match n.term {
        SpecTerm::RetC(c) => WTail::Leaf(WLeaf::C(c)),
        SpecTerm::RetV(v) => WTail::Leaf(WLeaf::V(v)),
        SpecTerm::Br { cond, f, t } => {
            let (f, ff) = ret_leaf(blocks, f)?;
            let (t, ft) = ret_leaf(blocks, t)?;
            WTail::Cond {
                c: cond,
                t,
                ft,
                f,
                ff,
            }
        }
    };
    Some(WCont {
        steps: n.fsteps.clone().into_boxed_slice(),
        tail,
        fuel,
    })
}

/// A trap-free single-global update statement, monomorphized. These are
/// the statements CPAs spend their lives in; `apply` is branchless
/// straight-line code over validated indices. Fields are the updated
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

impl GUpd {
    #[inline(always)]
    fn apply(self, ctx: &mut Ctx<'_>) {
        match self {
            GUpd::IncC(g, c) => {
                let p = &mut ctx.globals[g as usize];
                *p = p.wrapping_add(c);
            }
            GUpd::AccInF(g, i) => {
                let v = ctx.inputs[i as usize] as f64;
                let p = &mut ctx.globals[g as usize];
                *p = bits_of(f64_of(*p) + v);
            }
            GUpd::MinIn(g, i) => {
                let v = ctx.inputs[i as usize];
                let p = &mut ctx.globals[g as usize];
                *p = (*p).min(v);
            }
            GUpd::MaxIn(g, i) => {
                let v = ctx.inputs[i as usize];
                let p = &mut ctx.globals[g as usize];
                *p = (*p).max(v);
            }
            GUpd::SubGG(g, a, b) => {
                let v = ctx.globals[a as usize].wrapping_sub(ctx.globals[b as usize]);
                ctx.globals[g as usize] = v;
            }
        }
    }
}

fn as_gupd(step: &Step) -> Option<GUpd> {
    let Step::StoreGlobal(g, Ex::Bin(op, l, r)) = step else {
        return None;
    };
    let g = *g;
    Some(match (op, &**l, &**r) {
        (Bin::SubI, Ex::Global(a), Ex::Global(b)) => GUpd::SubGG(g, *a, *b),
        // Everything else updates `g` from its own old value.
        (_, old, _) if *old != Ex::Global(g) => return None,
        (Bin::AddI, _, Ex::ConstI(c)) => GUpd::IncC(g, *c),
        (Bin::MinI, _, Ex::Input(i)) => GUpd::MinIn(g, *i),
        (Bin::MaxI, _, Ex::Input(i)) => GUpd::MaxIn(g, *i),
        (Bin::AddF, _, Ex::Un(Un::I2F, inner)) => match &**inner {
            Ex::Input(i) => GUpd::AccInF(g, *i),
            _ => return None,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use crate::ir::MAX_OPS;
    use crate::{ExecTier, Instance, Program, Type, Value};

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
        let cp = p.lowered().compiled.clone().expect("compiles");
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
        assert!(p.code.len() > MAX_OPS);
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
                .compiled
                .clone()
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
