//! The compiled execution tier: closure-compiled basic blocks.
//!
//! The paper's CPAs were *natively* code-generated into the running
//! kernel; a bytecode interpreter taxes that path with a dispatch per
//! opcode. This module removes the tax: [`compile`] lowers
//! already-validated bytecode into **one monomorphized Rust closure per
//! basic block** — constant operands baked into the closure's captures,
//! per-statement expression trees reconstructed from the stack code so a
//! whole `acc = acc + size;` costs one store instead of five dispatches
//! — chained by direct-threaded block indices (each block's closure
//! returns the next block to run).
//!
//! # Tier selection and fallback
//!
//! [`Instance::new`](crate::Instance::new) compiles every program that
//! passes `validate()` and stays within `MAX_OPS` / `MAX_BLOCKS`;
//! anything else transparently runs on the checked per-op interpreter.
//! The lowering itself also bails (returns `None`) on shapes it cannot
//! prove equivalent — an operand-stack residue at a store, or more
//! cross-block stack carries than `MAX_CARRY` — rather than guess.
//!
//! # Observable equivalence
//!
//! The compiled tier is required to be **bit-identical** to the per-op
//! reference VM on every observable: return value, `fuel_used`, trap
//! kind and partial statics at the trap point, and `out()` ordering.
//! The driver ([`Instance::run`](crate::Instance::run) routes here when
//! a program compiled) precharges each block's op count, so fuel
//! accounting is identical by construction; when the remaining budget
//! cannot cover a block, the driver spills the carried stack values and
//! executes that one block on the checked per-op interpreter instead,
//! preserving exact abort points. Within a block,
//! expression trees evaluate in bytecode push order (left subtree, right
//! subtree, operator), statements flush in program order, and values
//! carried across block boundaries (short-circuit `&&`/`||` joins)
//! evaluate before the branch condition — the same order the stack
//! machine produced them. The generative sweeps in
//! `tests/verifier.rs` assert this equivalence against the reference
//! for hundreds of programs.

use std::fmt;

use crate::ir::{self, bits_of, f64_of, Bin, Cmp, Ex, Ir, Step, Term, Un, MAX_CARRY};
use crate::EcodeError;

/// Mutable run state a block closure — or the interpreter, on a block
/// the driver hands it — executes against. Borrows the instance's
/// reusable arenas, so a compiled run allocates nothing post-warmup
/// (proven by `tests/zero_alloc.rs`).
pub(crate) struct Ctx<'a> {
    pub(crate) globals: &'a mut [i64],
    pub(crate) locals: &'a mut [i64],
    pub(crate) inputs: &'a [i64],
    pub(crate) outputs: &'a mut Vec<(i64, f64)>,
    /// Operand-stack values crossing the current block boundary.
    pub(crate) carry: &'a mut [i64; MAX_CARRY],
}

/// How a block closure left the block. Kept two words with no drop
/// glue — the driver matches on this once per block, so a `Result`
/// carrying the (String-bearing) `EcodeError` would put an allocation's
/// worth of move/drop bookkeeping on the hot path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Exit {
    /// Continue at this block index (direct-threaded chaining).
    Jump(u32),
    /// The program returned this value.
    Ret(i64),
    /// Integer division/modulo by zero — the only trap a block body can
    /// raise (fuel is the driver's job, input marshalling the caller's).
    Trap,
}

/// A block closure. The `u64` argument is the fuel budget remaining
/// *after* the block's own precharged span; specialized closures that
/// inlined conditional successors (see [`spec_node`]) charge each taken
/// arm against it and report the extra consumption in the returned
/// `u64` (always `0` for closures that never execute past their own
/// span). An arm that doesn't fit is not entered — the closure exits
/// with `Exit::Jump` at that boundary and the driver re-decides there,
/// exactly as if the arm had never been inlined.
type BlockFn = Box<dyn Fn(&mut Ctx<'_>, u64) -> (u64, Exit) + Send + Sync>;

/// One compiled basic block: the closure plus the coordinates the
/// driver needs for fuel precharge and the checked per-op fallback.
pub(crate) struct Block {
    /// Original-bytecode pc of the block entry.
    pub(crate) entry_pc: u32,
    /// Operand-stack values this block consumes from `Ctx::carry`.
    pub(crate) carry_in: u8,
    /// Whether [`specialize`] produced this closure (fully
    /// monomorphized straight-line code) as opposed to the generic
    /// tree-walking fallback. Introspection only — tests pin that the
    /// representative CPA shapes never regress to the tree-walker.
    pub(crate) specialized: bool,
    /// Total fuel this closure's span covers: the block's own ops plus
    /// every chain-merged successor's (see `merge_chains`). The driver
    /// precharges this against the remaining budget; when it doesn't
    /// fit, execution re-enters at `entry_pc` on the checked per-op
    /// interpreter, which meters the original unmerged ops — so merged
    /// and unmerged runs stay bit-identical on every abort path.
    pub(crate) fuel: u64,
    /// Executes the block body and terminator.
    pub(crate) run: BlockFn,
}

/// A program lowered to a graph of per-block closures. Built once at
/// [`Instance::new`](crate::Instance::new) behind an `Arc` (instances
/// clone into digest-plane worker threads), immutable thereafter.
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
}

impl CompiledProgram {
    /// `(specialized, total)` block counts — how much of the program is
    /// straight-line monomorphized code vs the generic tree-walker.
    pub(crate) fn specialization(&self) -> (usize, usize) {
        let spec = self.blocks.iter().filter(|b| b.specialized).count();
        (spec, self.blocks.len())
    }
}

impl fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (spec, total) = self.specialization();
        f.debug_struct("CompiledProgram")
            .field("blocks", &total)
            .field("specialized", &spec)
            .field("whole", &self.whole.is_some())
            .finish()
    }
}

/// Evaluates an expression tree against the run state. All indices were
/// proven in bounds by `validate` at instance creation, so the safe
/// slice indexing below never panics (and the branch predictor eats the
/// checks); this module deliberately contains no `unsafe`.
fn eval(ex: &Ex, ctx: &Ctx<'_>) -> Result<i64, EcodeError> {
    Ok(match ex {
        Ex::Carry(i) => ctx.carry[*i as usize],
        Ex::ConstI(v) => *v,
        Ex::ConstF(v) => bits_of(*v),
        Ex::Input(i) => ctx.inputs[*i as usize],
        Ex::Global(i) => ctx.globals[*i as usize],
        Ex::Local(i) => ctx.locals[*i as usize],
        Ex::Bin(op, l, r) => op
            .apply(eval(l, ctx)?, eval(r, ctx)?)
            .ok_or(EcodeError::DivideByZero)?,
        Ex::Un(op, e) => op.apply(eval(e, ctx)?),
        Ex::CmpI(cmp, l, r) => cmp.eval(eval(l, ctx)?, eval(r, ctx)?) as i64,
        Ex::CmpF(cmp, l, r) => cmp.eval(f64_of(eval(l, ctx)?), f64_of(eval(r, ctx)?)) as i64,
    })
}

fn exec_step(s: &Step, ctx: &mut Ctx<'_>) -> Result<(), EcodeError> {
    match s {
        Step::StoreGlobal(g, e) => {
            let v = eval(e, ctx)?;
            ctx.globals[*g as usize] = v;
        }
        Step::StoreLocal(l, e) => {
            let v = eval(e, ctx)?;
            ctx.locals[*l as usize] = v;
        }
        Step::Out(slot, value) => {
            let s = eval(slot, ctx)?;
            let v = eval(value, ctx)?;
            ctx.outputs.push((s, f64_of(v)));
        }
        Step::Eval(e) => {
            eval(e, ctx)?;
        }
    }
    Ok(())
}

/// Compiles every block of the lowered program to a closure: the IR's
/// fall-through and jump chains are merged back into the interpreter's
/// longer spans ([`merge_chains`]), merged blocks are specialized where
/// they fit the monomorphized universe, and the rest get the generic
/// tree-walking closure.
pub(crate) fn compile(ir: &Ir) -> CompiledProgram {
    // The IR itself stays unmerged — the column backend wants the
    // partition — so merging rewrites a copy.
    let mut blocks = ir.blocks.clone();
    merge_chains(&mut blocks);
    let whole = parse_whole(&blocks);
    let specs: Vec<Option<BlockFn>> = (0..blocks.len())
        .map(|i| {
            spec_node(&blocks, i, INLINE_DEPTH).map(|root| -> BlockFn {
                Box::new(move |ctx: &mut Ctx<'_>, fuel_left: u64| root.exec(ctx, fuel_left))
            })
        })
        .collect();
    CompiledProgram {
        blocks: blocks
            .into_iter()
            .zip(specs)
            .map(|(b, spec)| codegen(b, spec))
            .collect(),
        pc2block: ir.pc2block.clone(),
        whole,
    }
}

/// Inlines unconditional-jump chains: a block ending in `Jmp(T)` runs
/// `T` unconditionally, so `T`'s statements and terminator are copied
/// into the predecessor and the two closures become one — the
/// short-circuit lowering's trampoline blocks (`[] → Jmp`, carry-compute
/// → join, `Jmp → RetC`) collapse into their destinations, saving an
/// indirect call per hop on every event.
///
/// `T` itself stays in the block list: other edges (and the per-op
/// fallback, which re-enters at original pc boundaries) still target it.
/// The merged block's `fuel` grows by `T`'s span, so the driver's
/// precharge covers exactly the ops the merged closure executes — when
/// that doesn't fit the remaining budget, the driver re-enters at the
/// *original* entry pc per-op, which stops at the unmerged `Jmp` and
/// re-decides at `T`; both routes are bit-identical to the reference.
///
/// Carried values are substituted into the successor's expressions,
/// which delays their evaluation past the jump — sound only when the
/// expression is invariant over anything a statement can write (inputs
/// and constants; no globals/locals, no traps), so merging is skipped
/// otherwise.
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
                || !lowered[i].carry_out.iter().all(invariant)
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

/// Whether delaying `ex`'s evaluation past arbitrary statements is
/// unobservable: only inputs and constants (inputs never change within
/// a run), combined trap-free.
fn invariant(ex: &Ex) -> bool {
    match ex {
        Ex::Input(_) | Ex::ConstI(_) | Ex::ConstF(_) => true,
        Ex::Global(_) | Ex::Local(_) | Ex::Carry(_) => false,
        Ex::Bin(op, l, r) => !matches!(op, Bin::DivI | Bin::ModI) && invariant(l) && invariant(r),
        Ex::Un(_, e) => invariant(e),
        Ex::CmpI(_, l, r) | Ex::CmpF(_, l, r) => invariant(l) && invariant(r),
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
        Ex::CmpI(c, l, r) => Ex::CmpI(*c, Box::new(subst(l, carries)), Box::new(subst(r, carries))),
        Ex::CmpF(c, l, r) => Ex::CmpF(*c, Box::new(subst(l, carries)), Box::new(subst(r, carries))),
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

/// Turns one lowered block into its closure. The hot analyzer idioms
/// (counter bump + accumulate + guard, short-circuit arms and joins,
/// ratio publication, constant returns) get fully monomorphized
/// closures — straight-line machine code, one indirect call per block;
/// everything else gets the generic tree-walking closure, which is
/// still correct for arbitrary shapes.
fn codegen(lb: ir::Block, spec: Option<BlockFn>) -> Block {
    let ir::Block {
        entry_pc,
        carry_in,
        steps,
        carry_out,
        term,
        fuel,
    } = lb;
    let specialized = spec.is_some();
    let run = spec.unwrap_or_else(|| {
        Box::new(move |ctx: &mut Ctx<'_>, _fuel_left: u64| {
            for s in &steps {
                if exec_step(s, ctx).is_err() {
                    return (0, Exit::Trap);
                }
            }
            // Pre-terminator stack values evaluate before the
            // condition/return expression (bytecode computed them
            // first), into a scratch so reads of the *current* carries
            // still see entry values.
            let mut tmp = [0i64; MAX_CARRY];
            let k = carry_out.len();
            for (slot, e) in tmp.iter_mut().zip(carry_out.iter()) {
                match eval(e, ctx) {
                    Ok(v) => *slot = v,
                    Err(_) => return (0, Exit::Trap),
                }
            }
            let exit = match &term {
                Term::Jmp(t) => {
                    ctx.carry[..k].copy_from_slice(&tmp[..k]);
                    Exit::Jump(*t)
                }
                Term::Br {
                    cond,
                    on_false,
                    on_true,
                } => {
                    let c = match eval(cond, ctx) {
                        Ok(c) => c,
                        Err(_) => return (0, Exit::Trap),
                    };
                    ctx.carry[..k].copy_from_slice(&tmp[..k]);
                    Exit::Jump(if c == 0 { *on_false } else { *on_true })
                }
                Term::Ret(e) => match eval(e, ctx) {
                    Ok(v) => Exit::Ret(v),
                    Err(_) => return (0, Exit::Trap),
                },
                Term::RetC(c) => Exit::Ret(*c),
            };
            (0, exit)
        })
    });
    Block {
        entry_pc,
        carry_in,
        specialized,
        fuel,
        run,
    }
}

/// A trap-free scalar the specialized closures read directly — the
/// operand universe of the CPA hot path: inputs, globals, constants,
/// carried join values, and the `global % nonzero-const` epoch test.
#[derive(Debug, Clone, Copy)]
enum Scal {
    In(u16),
    Gl(u16),
    C(i64),
    Carry(u8),
    /// `global % c` with a nonzero constant — trap-free by construction
    /// (`as_scal` refuses `c == 0` so the generic path raises the trap).
    GlModC(u16, i64),
}

impl Scal {
    #[inline(always)]
    fn get(self, ctx: &Ctx<'_>) -> i64 {
        match self {
            Scal::In(i) => ctx.inputs[i as usize],
            Scal::Gl(g) => ctx.globals[g as usize],
            Scal::C(c) => c,
            Scal::Carry(i) => ctx.carry[i as usize],
            Scal::GlModC(g, c) => ctx.globals[g as usize].wrapping_rem(c),
        }
    }
}

fn as_scal(ex: &Ex) -> Option<Scal> {
    Some(match ex {
        Ex::Input(i) => Scal::In(*i),
        Ex::Global(g) => Scal::Gl(*g),
        Ex::ConstI(c) => Scal::C(*c),
        Ex::Carry(i) => Scal::Carry(*i),
        Ex::Bin(Bin::ModI, l, r) => match (&**l, &**r) {
            (Ex::Global(g), Ex::ConstI(c)) if *c != 0 => Scal::GlModC(*g, *c),
            _ => return None,
        },
        _ => return None,
    })
}

/// A trap-free int value: a scalar, an integer comparison of two
/// scalars (producing 0/1), or a strength-reduced divisibility test.
/// Serves as branch condition (`truthy`), carried join value, and
/// return value (`get`).
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
/// for `c == 0`, which `as_scal` already refused).
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
    if let Ex::CmpI(cmp, l, r) = ex {
        let l = as_scal(l)?;
        let r = as_scal(r)?;
        // Strength-reduce `g % c == 0` / `!= 0` to a multiply-and-mask
        // divisibility test (either operand order).
        match (*cmp, l, r) {
            (Cmp::Eq | Cmp::Ne, Scal::GlModC(g, c), Scal::C(0))
            | (Cmp::Eq | Cmp::Ne, Scal::C(0), Scal::GlModC(g, c)) => {
                return div_test(g, c, *cmp == Cmp::Ne)
            }
            _ => {}
        }
        return Some(ValK::Cmp(*cmp, l, r));
    }
    Some(ValK::S(as_scal(ex)?))
}

/// The published value of a specialized `out(const-slot, ...)` — the
/// reporting shapes CPAs produce.
#[derive(Debug, Clone, Copy)]
enum OutK {
    /// `double-global / int-global` — the ratio report.
    RatioFI { num: u16, den: u16 },
    /// An int global, promoted to double.
    IntGl(u16),
    /// A double global, raw bits.
    DblGl(u16),
    /// A constant.
    Const(f64),
}

impl OutK {
    #[inline(always)]
    fn value(self, ctx: &Ctx<'_>) -> f64 {
        match self {
            OutK::RatioFI { num, den } => {
                f64_of(ctx.globals[num as usize]) / ctx.globals[den as usize] as f64
            }
            OutK::IntGl(g) => ctx.globals[g as usize] as f64,
            OutK::DblGl(g) => f64_of(ctx.globals[g as usize]),
            OutK::Const(v) => v,
        }
    }
}

fn as_outk(ex: &Ex) -> Option<OutK> {
    Some(match ex {
        Ex::ConstF(v) => OutK::Const(*v),
        Ex::Un(Un::I2F, inner) => match &**inner {
            Ex::Global(g) => OutK::IntGl(*g),
            Ex::ConstI(c) => OutK::Const(*c as f64),
            _ => return None,
        },
        Ex::Global(g) => OutK::DblGl(*g),
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
/// the specialization (`None` → generic closure). Capped so the `Vec`
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

/// How deep [`spec_node`] follows branch/carry edges when inlining
/// specialized successors into one closure. Three levels cover the
/// canonical CPA control shapes (guard → `&&` arm → join → report)
/// end-to-end, so a whole event costs one indirect call.
const INLINE_DEPTH: usize = 3;

/// A fully-monomorphized block body plus terminator — the unit
/// [`spec_node`] builds and one closure executes. Unlike the generic
/// tree-walker, a node's terminator can *inline* its successors (see
/// [`SpecArm`]), so control flows through `exec`'s loop instead of
/// bouncing back to the driver at every block boundary. Everything in a
/// node is trap-free by construction ([`FStep`]/[`ValK`]/[`OutK`] admit
/// no int div/mod), so specialized closures never exit with
/// [`Exit::Trap`].
struct SpecNode {
    fsteps: Vec<FStep>,
    term: SpecTerm,
}

enum SpecTerm {
    /// Unconditional handoff to the driver (target not inlined —
    /// `merge_chains` already folded the foldable ones).
    Jump(u32),
    RetC(i64),
    /// `return <scalar or cmp>;` — the `&&`/`||` join value or a final
    /// comparison returned directly.
    RetV(ValK),
    /// The `&&` middle arm: compute the carried value (usually a
    /// comparison flag) into carry slot 0, then continue into the join.
    CarryJmp {
        v: ValK,
        arm: SpecArm,
    },
    /// Guard branch — `if (size > 1000)`, `if (n % 100 == 0)`, the `&&`
    /// join on a carried flag.
    Br {
        cond: ValK,
        f: SpecArm,
        t: SpecArm,
    },
}

/// One successor edge of a specialized terminator. When the target
/// block specialized too (`node` is `Some`), taking the edge *enters*
/// the target inside the same closure invocation — after charging the
/// target's full precharge span (`fuel`, its merged-span fuel, exactly
/// what the driver would have precharged on dispatch) against the
/// remaining budget. When the target didn't specialize, or the charge
/// doesn't fit, the closure exits with `Exit::Jump(block)` *without
/// executing any of the target*, and the driver re-decides there — so
/// inlined and non-inlined runs are bit-identical on every path,
/// including fuel-exhaustion aborts.
struct SpecArm {
    fuel: u64,
    block: u32,
    node: Option<Box<SpecNode>>,
}

impl SpecArm {
    #[inline(always)]
    fn enter(&self, fuel_left: &mut u64, extra: &mut u64) -> Option<&SpecNode> {
        let node = self.node.as_deref()?;
        if self.fuel > *fuel_left {
            return None;
        }
        *fuel_left -= self.fuel;
        *extra += self.fuel;
        Some(node)
    }
}

impl SpecNode {
    /// Executes the node graph iteratively. `fuel_left` is the budget
    /// remaining after the root block's own precharged span; the
    /// returned `u64` is the extra fuel charged for inlined successors
    /// that were entered.
    fn exec(&self, ctx: &mut Ctx<'_>, mut fuel_left: u64) -> (u64, Exit) {
        let mut extra = 0u64;
        let mut cur = self;
        loop {
            run_fsteps(&cur.fsteps, ctx);
            match &cur.term {
                SpecTerm::Jump(t) => return (extra, Exit::Jump(*t)),
                SpecTerm::RetC(c) => return (extra, Exit::Ret(*c)),
                SpecTerm::RetV(v) => return (extra, Exit::Ret(v.get(ctx))),
                SpecTerm::CarryJmp { v, arm } => {
                    // The carry materializes whether or not the arm is
                    // entered: on a bail the driver (or the per-op
                    // fallback, which spills it) picks it up from `ctx`.
                    ctx.carry[0] = v.get(ctx);
                    match arm.enter(&mut fuel_left, &mut extra) {
                        Some(node) => cur = node,
                        None => return (extra, Exit::Jump(arm.block)),
                    }
                }
                SpecTerm::Br { cond, f, t } => {
                    let arm = if cond.truthy(ctx) { t } else { f };
                    match arm.enter(&mut fuel_left, &mut extra) {
                        Some(node) => cur = node,
                        None => return (extra, Exit::Jump(arm.block)),
                    }
                }
            }
        }
    }
}

/// Builds the specialized node graph for block `i`, inlining successor
/// blocks up to `depth` edges deep. Returns `None` when any step or
/// terminator falls outside the monomorphized universe — the block gets
/// the generic tree-walking closure instead, which is still correct for
/// arbitrary shapes. Runs after `merge_chains` and terminator linking,
/// so targets are block indices and `fuel` values are merged spans.
fn spec_node(lowered: &[ir::Block], i: usize, depth: usize) -> Option<SpecNode> {
    let lb = &lowered[i];
    let fsteps = as_fsteps(&lb.steps)?;
    // Carried values feeding a successor must be materialized; the
    // specialized shapes handle the two carry layouts the short-circuit
    // lowering produces (none, or one trap-free value).
    let term = match (&lb.carry_out[..], &lb.term) {
        ([], Term::Jmp(t)) => SpecTerm::Jump(*t),
        ([], Term::RetC(c)) => SpecTerm::RetC(*c),
        ([], Term::Ret(e)) => SpecTerm::RetV(as_valk(e)?),
        (
            [],
            Term::Br {
                cond,
                on_false,
                on_true,
            },
        ) => SpecTerm::Br {
            cond: as_valk(cond)?,
            f: spec_arm(lowered, *on_false, depth),
            t: spec_arm(lowered, *on_true, depth),
        },
        ([one], Term::Jmp(t)) => SpecTerm::CarryJmp {
            v: as_valk(one)?,
            arm: spec_arm(lowered, *t, depth),
        },
        _ => return None,
    };
    Some(SpecNode { fsteps, term })
}

fn spec_arm(lowered: &[ir::Block], block: u32, depth: usize) -> SpecArm {
    let node = if depth > 0 {
        spec_node(lowered, block as usize, depth - 1).map(Box::new)
    } else {
        None
    };
    SpecArm {
        fuel: lowered[block as usize].fuel,
        block,
        node,
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
/// — parsed off the linked block graph into one straight-line structure
/// with **per-path fuel totals baked in at compile time**. Executing it
/// costs a couple of predictable branches and the statements themselves:
/// no per-block dispatch, no driver round-trips, no fuel bookkeeping.
///
/// That last elision is only sound because `exec` is gated: the driver
/// takes this path **only when the caller's budget covers `max_fuel`**,
/// the worst-case path total. Under that precondition no fuel abort is
/// reachable on any path, every piece is trap-free by construction
/// ([`FStep`]/[`ValK`] admit no int div/mod), and the returned
/// `fuel_used` is the exact per-path block-span sum the block driver
/// would have precharged — so outcomes are bit-identical to the other
/// tiers. Budgets below `max_fuel` (and shapes that don't parse) run
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
    #[inline]
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
}

/// A return leaf at block `j`: a bare return, or the carry-compute →
/// `return carry` join pair the short-circuit lowering leaves when the
/// carried value reads mutable state (so `merge_chains` couldn't fold
/// it). Returns the leaf and the block-span fuel it covers.
fn parse_ret_leaf(lowered: &[ir::Block], j: u32) -> Option<(WLeaf, u64)> {
    let b = &lowered[j as usize];
    if b.carry_in != 0 || !b.steps.is_empty() {
        return None;
    }
    match (&b.carry_out[..], &b.term) {
        ([], Term::RetC(c)) => Some((WLeaf::C(*c), b.fuel)),
        ([], Term::Ret(e)) => Some((WLeaf::V(as_valk(e)?), b.fuel)),
        ([e], Term::Jmp(jj)) => {
            let jb = &lowered[*jj as usize];
            if jb.carry_in == 1
                && jb.steps.is_empty()
                && jb.carry_out.is_empty()
                && matches!(&jb.term, Term::Ret(Ex::Carry(0)))
            {
                Some((WLeaf::V(as_valk(e)?), b.fuel + jb.fuel))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// A continuation starting at block `j`: statements plus a return tail,
/// where the tail may be one conditional-return level (both the merged
/// `Br`-on-condition form and the unmerged carry-compute → `Br`-on-carry
/// join form).
fn parse_cont(lowered: &[ir::Block], j: u32) -> Option<WCont> {
    let b = &lowered[j as usize];
    if b.carry_in != 0 {
        return None;
    }
    let steps = as_fsteps(&b.steps)?.into_boxed_slice();
    let (tail, fuel) = match (&b.carry_out[..], &b.term) {
        ([], Term::RetC(c)) => (WTail::Leaf(WLeaf::C(*c)), b.fuel),
        ([], Term::Ret(e)) => (WTail::Leaf(WLeaf::V(as_valk(e)?)), b.fuel),
        (
            [],
            Term::Br {
                cond,
                on_false,
                on_true,
            },
        ) => {
            let (f, ff) = parse_ret_leaf(lowered, *on_false)?;
            let (t, ft) = parse_ret_leaf(lowered, *on_true)?;
            (
                WTail::Cond {
                    c: as_valk(cond)?,
                    t,
                    ft,
                    f,
                    ff,
                },
                b.fuel,
            )
        }
        ([e], Term::Jmp(jj)) => {
            let jb = &lowered[*jj as usize];
            if jb.carry_in != 1 || !jb.steps.is_empty() {
                return None;
            }
            match (&jb.carry_out[..], &jb.term) {
                ([], Term::Ret(Ex::Carry(0))) => {
                    (WTail::Leaf(WLeaf::V(as_valk(e)?)), b.fuel + jb.fuel)
                }
                (
                    [],
                    Term::Br {
                        cond: Ex::Carry(0),
                        on_false,
                        on_true,
                    },
                ) => {
                    let (f, ff) = parse_ret_leaf(lowered, *on_false)?;
                    let (t, ft) = parse_ret_leaf(lowered, *on_true)?;
                    (
                        WTail::Cond {
                            c: as_valk(e)?,
                            t,
                            ft,
                            f,
                            ff,
                        },
                        b.fuel + jb.fuel,
                    )
                }
                _ => return None,
            }
        }
        _ => return None,
    };
    Some(WCont { steps, tail, fuel })
}

/// Parses the linked block graph into the whole-program shape, or
/// `None` when the program doesn't fit it (the per-block driver remains
/// fully general). Runs after `merge_chains` and linking, so `fuel`
/// values are merged spans and targets are block indices — the per-path
/// totals baked here are exactly the driver's precharge sums.
fn parse_whole(lowered: &[ir::Block]) -> Option<Whole> {
    let b0 = &lowered[0];
    let (cond, on_false, on_true) = match &b0.term {
        Term::Br {
            cond,
            on_false,
            on_true,
        } if b0.carry_out.is_empty() => (cond, *on_false, *on_true),
        _ => {
            let cont = parse_cont(lowered, 0)?;
            let max_fuel = cont.max_fuel();
            return Some(Whole {
                pro: cont.steps,
                kind: WKind::Plain {
                    tail: cont.tail,
                    fuel: cont.fuel,
                },
                max_fuel,
            });
        }
    };
    let pro = as_fsteps(&b0.steps)?.into_boxed_slice();
    let c1 = as_valk(cond)?;
    let els = parse_cont(lowered, on_false)?;
    // The true edge is either the guard's second short-circuit leg
    // (re-branching before any statement runs) or the then-block itself.
    let tb = &lowered[on_true as usize];
    let (leg2, then) = match (&tb.steps[..], &tb.carry_out[..], &tb.term) {
        // `merge_chains` folded the `&&` join: a bare re-branch.
        (
            [],
            [],
            Term::Br {
                cond,
                on_false: f2,
                on_true: t2,
            },
        ) => (
            Some(WLeg {
                c: as_valk(cond)?,
                fuel: tb.fuel,
                els: parse_cont(lowered, *f2)?,
            }),
            parse_cont(lowered, *t2)?,
        ),
        // Unmerged leg: carry-compute into the join's branch-on-carry.
        ([], [e2], Term::Jmp(jj))
            if matches!(
                &lowered[*jj as usize].term,
                Term::Br {
                    cond: Ex::Carry(0),
                    ..
                }
            ) && lowered[*jj as usize].carry_in == 1
                && lowered[*jj as usize].steps.is_empty()
                && lowered[*jj as usize].carry_out.is_empty() =>
        {
            let Term::Br {
                on_false: f2,
                on_true: t2,
                ..
            } = &lowered[*jj as usize].term
            else {
                unreachable!("matched above");
            };
            (
                Some(WLeg {
                    c: as_valk(e2)?,
                    fuel: tb.fuel + lowered[*jj as usize].fuel,
                    els: parse_cont(lowered, *f2)?,
                }),
                parse_cont(lowered, *t2)?,
            )
        }
        _ => (None, parse_cont(lowered, on_true)?),
    };
    let inner = match &leg2 {
        Some(leg) => leg.fuel + then.max_fuel().max(leg.els.max_fuel()),
        None => then.max_fuel(),
    };
    let max_fuel = b0.fuel + els.max_fuel().max(inner);
    Some(Whole {
        pro,
        kind: WKind::Guard {
            b0_fuel: b0.fuel,
            c1,
            leg2,
            then,
            els,
        },
        max_fuel,
    })
}

/// A trap-free single-global update statement, monomorphized. These are
/// the statements CPAs spend their lives in; `apply` is branchless
/// straight-line code over validated indices.
#[derive(Debug, Clone, Copy)]
enum GUpd {
    /// `g = g + c` (int).
    IncC {
        g: u16,
        c: i64,
    },
    /// `g = g + input` (int).
    AccInI {
        g: u16,
        i: u16,
    },
    /// `g = g + input` (int input promoted into a double global).
    AccInF {
        g: u16,
        i: u16,
    },
    /// `g = min(g, input)` / `g = max(g, input)` (int).
    MinIn {
        g: u16,
        i: u16,
    },
    MaxIn {
        g: u16,
        i: u16,
    },
    /// `g = a - b` over two globals (int) — span/delta folds like
    /// `span = hi - lo`.
    SubGG {
        g: u16,
        a: u16,
        b: u16,
    },
    /// `g = <constant>` (raw bits — int, bool, or double).
    SetC {
        g: u16,
        raw: i64,
    },
    /// `g = input` (raw bits match: int/bool input into same-typed global).
    SetIn {
        g: u16,
        i: u16,
    },
}

impl GUpd {
    #[inline(always)]
    fn apply(self, ctx: &mut Ctx<'_>) {
        match self {
            GUpd::IncC { g, c } => {
                let p = &mut ctx.globals[g as usize];
                *p = p.wrapping_add(c);
            }
            GUpd::AccInI { g, i } => {
                let v = ctx.inputs[i as usize];
                let p = &mut ctx.globals[g as usize];
                *p = p.wrapping_add(v);
            }
            GUpd::AccInF { g, i } => {
                let v = ctx.inputs[i as usize] as f64;
                let p = &mut ctx.globals[g as usize];
                *p = bits_of(f64_of(*p) + v);
            }
            GUpd::MinIn { g, i } => {
                let v = ctx.inputs[i as usize];
                let p = &mut ctx.globals[g as usize];
                *p = (*p).min(v);
            }
            GUpd::MaxIn { g, i } => {
                let v = ctx.inputs[i as usize];
                let p = &mut ctx.globals[g as usize];
                *p = (*p).max(v);
            }
            GUpd::SubGG { g, a, b } => {
                let v = ctx.globals[a as usize].wrapping_sub(ctx.globals[b as usize]);
                ctx.globals[g as usize] = v;
            }
            GUpd::SetC { g, raw } => ctx.globals[g as usize] = raw,
            GUpd::SetIn { g, i } => ctx.globals[g as usize] = ctx.inputs[i as usize],
        }
    }
}

fn as_gupd(step: &Step) -> Option<GUpd> {
    let Step::StoreGlobal(g, ex) = step else {
        return None;
    };
    let g = *g;
    match ex {
        Ex::ConstI(c) => Some(GUpd::SetC { g, raw: *c }),
        Ex::ConstF(v) => Some(GUpd::SetC {
            g,
            raw: bits_of(*v),
        }),
        Ex::Input(i) => Some(GUpd::SetIn { g, i: *i }),
        Ex::Bin(op, l, r) => match (op, &**l, &**r) {
            (Bin::AddI, Ex::Global(g2), Ex::ConstI(c)) if *g2 == g => Some(GUpd::IncC { g, c: *c }),
            (Bin::AddI, Ex::Global(g2), Ex::Input(i)) if *g2 == g => {
                Some(GUpd::AccInI { g, i: *i })
            }
            (Bin::AddF, Ex::Global(g2), Ex::Un(Un::I2F, inner)) if *g2 == g => {
                if let Ex::Input(i) = &**inner {
                    Some(GUpd::AccInF { g, i: *i })
                } else {
                    None
                }
            }
            (Bin::MinI, Ex::Global(g2), Ex::Input(i)) if *g2 == g => Some(GUpd::MinIn { g, i: *i }),
            (Bin::MaxI, Ex::Global(g2), Ex::Input(i)) if *g2 == g => Some(GUpd::MaxIn { g, i: *i }),
            (Bin::SubI, Ex::Global(a), Ex::Global(b)) => Some(GUpd::SubGG { g, a: *a, b: *b }),
            _ => None,
        },
        _ => None,
    }
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

    /// The perf claim rests on the hot CPA idioms getting monomorphized
    /// closures, not the generic tree-walker — pin it so a lowering or
    /// specialization change can't silently regress `cpa_eval` to 1x.
    #[test]
    fn canonical_cpa_shapes_fully_specialize() {
        let inputs: [(&str, Type); 7] = [
            ("kind", Type::Int),
            ("pid", Type::Int),
            ("wall", Type::Int),
            ("size", Type::Int),
            ("aux", Type::Int),
            ("port_src", Type::Int),
            ("port_dst", Type::Int),
        ];
        for (name, src) in [
            (
                "ratio",
                r#"
                static int n = 0;
                static double acc = 0.0;
                n = n + 1;
                acc = acc + size;
                if (size > 800 && port_dst == 80) {
                    out(0, acc / n);
                    return 1;
                }
                return 0;
            "#,
            ),
            (
                "gated_counter",
                r#"
                static int seen = 0;
                static int nfs = 0;
                static int big = 0;
                seen = seen + 1;
                if (port_dst == 2049 && size > 1000) {
                    nfs = nfs + 1;
                    big = max(big, size);
                }
                return nfs > 0 && seen % 100 == 0;
            "#,
            ),
            (
                "latency_minmax",
                r#"
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
            "#,
            ),
        ] {
            let p = Program::compile(src, &inputs).unwrap();
            let inst = Instance::new(&p);
            assert_eq!(inst.tier(), ExecTier::Compiled, "{name} must compile");
            let (spec, total) = inst.compiled_specialization().unwrap();
            assert_eq!(
                spec, total,
                "{name}: only {spec}/{total} blocks specialized"
            );
            assert_eq!(
                inst.compiled_whole_path(),
                Some(true),
                "{name} must parse into the whole-program fast path"
            );
        }
    }

    #[test]
    fn canonical_cpa_compiles_and_agrees_with_the_interpreter() {
        let p = program(CPA_SRC);
        assert_eq!(Instance::new(&p).tier(), ExecTier::Compiled);
        assert_eq!(Instance::new_fused(&p).tier(), ExecTier::Fused);
        assert_tiers_agree(CPA_SRC);
        // One carried stack value across the short-circuit join.
        let carry = "return port != 0 && size / port > 3;";
        assert_eq!(Instance::new(&program(carry)).tier(), ExecTier::Compiled);
        assert_tiers_agree(carry);
    }

    #[test]
    fn over_limit_program_falls_back_and_agrees() {
        // Enough straight-line statements to pass MAX_OPS: too big to be
        // worth a closure graph, so it must run — and run correctly — on
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
        // execution with identical trap points and fuel accounting.
        let p = program(CPA_SRC);
        let bound = p.static_fuel_bound();
        let mut compiled = Instance::new(&p);
        let mut reference = Instance::new(&p);
        assert_eq!(compiled.tier(), ExecTier::Compiled);
        for fuel in [bound, bound / 2 + 1, 3, 1] {
            for i in 0..20i64 {
                let inputs = [Value::Int(i * 700 % 2500), Value::Int(2049)];
                let a = compiled
                    .run(&inputs, fuel)
                    .map(|o| (o.ret, o.fuel_used, o.outputs.to_vec()));
                let b = reference
                    .run_per_op(&inputs, fuel)
                    .map(|o| (o.ret, o.fuel_used, o.outputs.to_vec()));
                assert_eq!(a, b, "fuel={fuel} event={i}");
                assert_eq!(compiled.raw_globals(), reference.raw_globals());
            }
        }
    }
}
