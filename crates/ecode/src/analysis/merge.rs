//! Shard-safety (merge) analysis.
//!
//! The sharded GPA wants to evaluate one analyzer program on N replica
//! instances — events partitioned by flow key — and fold the replicas'
//! statics back into the value a single sequential instance would have
//! produced. That fold is only legal when every static's update pattern
//! commutes across the partition. This pass *proves* the property per
//! slot at load time, with a forward abstract interpretation over the
//! program's lowering ([`crate::ir`]: basic blocks of statement trees,
//! the same ones the compiled tier and the column evaluator run).
//! E-Code has no loops, so the blocks are a forward-jump DAG and a
//! single pass in block order visits every block after all of its
//! predecessors. A program the lowering refuses has no block graph to
//! classify on: every slot is `Opaque`, and it runs single-instance.
//!
//! Classification is deliberately bit-exact, not approximately-right:
//!
//! * integer `+`/`-` accumulation merges by summing deltas
//!   (`wrapping_add` is associative and commutative on `i64`);
//! * integer `min`/`max` folds merge by `min`/`max`;
//! * same-constant gated writes merge by "any side wrote";
//! * **float** accumulation is classified [`MergeClass::Opaque`] — IEEE
//!   addition is not associative, and `f64::min`/`max` have
//!   implementation-defined NaN/±0.0 behavior — so a program using
//!   `acc = acc + size` on a `double` falls back to single-instance
//!   evaluation instead of silently drifting per shard count.
//!
//! Control dependence is handled with real post-dominators: a store
//! that executes only when a static-influenced branch goes one way is
//! not a mergeable update even if the stored value itself is
//! input-only. Data joins at merge points inherit taint from the
//! branch that caused the divergence — including joins where the two
//! sides *look* equal: abstract equality of provenance-free cells
//! (`Mixed`, `Upd`) does not prove the runtime values agree, so at a
//! join reached via a static-influenced edge only identical constants
//! and identical whole-global cells survive untainted.
//!
//! The result is a [`MergePlan`] the program keeps beside its lowering
//! (`Program::merge_plan`, classified once on first ask; the
//! `VerifyReport` carries a copy). The VM folds by it in
//! `Instance::merge_from` and the column backend vectorizes against it
//! in `BatchEval::compile`, each reading the program's own. Soundness is enforced
//! differentially by the generative sweep in `tests/verifier.rs`: every
//! program classified fully mergeable is run sequentially and as K
//! shards over random event partitions, and the folded statics must be
//! bit-identical. One caveat is inherited from the VM's trap semantics:
//! the equivalence claim assumes trap-free runs (a mid-event trap
//! leaves statics partially updated, sequentially or sharded).

use crate::compile::Program;
use crate::ir::{bits_of, Bin, Block, Ex, Step, Term, Un, MAX_BLOCKS};

/// Which fold a [`MergeClass::MinMax`] slot uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinMaxOp {
    /// Every store is `g = min(g, <input-only>)`.
    Min,
    /// Every store is `g = max(g, <input-only>)`.
    Max,
}

/// How one static slot may be folded across shard replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeClass {
    /// Never stored: every replica holds the initial value.
    ReadOnly,
    /// Every store adds (or subtracts) an input-only delta: replicas
    /// merge by summing their deltas (`a + b - init`, wrapping).
    Counter,
    /// Every store is the same-polarity `min`/`max` fold of the slot
    /// with an input-only value: replicas merge by `min`/`max`.
    MinMax(MinMaxOp),
    /// Every store writes the same constant (possibly under input-only
    /// conditions) — a "has any event matched?" latch. Replicas merge
    /// by keeping the written constant if either side stored it.
    GatedWrite {
        /// Raw bits of the constant every site stores (`f64::to_bits`
        /// for doubles, so equality is bit-exact).
        value_bits: i64,
    },
    /// Every store writes an input-only value, so the sequential result
    /// is "value from the last event" — which sharding erases. Not
    /// shard-safe without a tiebreak key the engine does not have.
    LastWriteWins,
    /// Not shard-safe: the update pattern reads static state, mixes
    /// update families, accumulates floats, or executes under a
    /// static-influenced branch.
    Opaque {
        /// Entry pc of the basic block holding the offending store (the
        /// [`BatchBail`](crate::BatchBail) convention; 0 when the whole
        /// program is refused).
        pc: u32,
        /// Human-readable explanation, naming that block.
        reason: String,
    },
}

impl MergeClass {
    /// Whether replicas of a slot with this class can be folded into the
    /// exact sequential result.
    pub fn shard_safe(&self) -> bool {
        matches!(
            self,
            MergeClass::ReadOnly
                | MergeClass::Counter
                | MergeClass::MinMax(_)
                | MergeClass::GatedWrite { .. }
        )
    }

    /// Short lowercase name used in diagnostics.
    pub fn describe(&self) -> &'static str {
        match self {
            MergeClass::ReadOnly => "read-only",
            MergeClass::Counter => "counter",
            MergeClass::MinMax(MinMaxOp::Min) => "min-fold",
            MergeClass::MinMax(MinMaxOp::Max) => "max-fold",
            MergeClass::GatedWrite { .. } => "gated write",
            MergeClass::LastWriteWins => "last-write-wins",
            MergeClass::Opaque { .. } => "opaque",
        }
    }
}

/// One static slot's classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotPlan {
    /// The static variable's declared name.
    pub name: String,
    /// Its merge class.
    pub class: MergeClass,
    /// Whether the slot's value is observable outside its own update —
    /// it reaches an `out()`, a `return`, a branch condition, or another
    /// slot. A mergeable slot that never escapes is write-only state
    /// (`W0009`).
    pub escapes: bool,
}

/// Per-program merge plan: one [`SlotPlan`] per static, in declaration
/// order (the VM's global slot order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergePlan {
    /// Slot classifications, indexed by global slot.
    pub slots: Vec<SlotPlan>,
}

impl MergePlan {
    /// Whether *every* slot is shard-safe — the precondition for running
    /// the program as N replicas and folding with `Instance::merge_from`.
    pub fn fully_mergeable(&self) -> bool {
        self.slots.iter().all(|s| s.class.shard_safe())
    }

    /// Slots that block sharded evaluation.
    pub fn unsafe_slots(&self) -> impl Iterator<Item = &SlotPlan> {
        self.slots.iter().filter(|s| !s.class.shard_safe())
    }
}

// ---------------------------------------------------------------------
// The abstract domain
// ---------------------------------------------------------------------

/// Update family an accumulator expression belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Upd {
    /// Integer `g + d` / `g - d` (wrapping add of a signed delta).
    Add,
    /// Integer `min(g, d)`.
    Min,
    /// Integer `max(g, d)`.
    Max,
    /// Any float fold of `g` (`+`, `-`, `min`, `max`) — tracked so the
    /// diagnostic can say *why* the slot is opaque, but never mergeable.
    FloatAcc,
}

/// Abstract value of one stack/local cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Abs {
    /// Known constant (raw bits; doubles via `to_bits`).
    Const(i64),
    /// Exactly the current value of global slot `g`.
    Global(u16),
    /// Slot `g` folded with input-only data via one update family.
    Upd(u16, Upd),
    /// Anything else. `tainted` = some global influenced the value.
    Mixed { tainted: bool },
}

impl Abs {
    fn tainted(self) -> bool {
        match self {
            Abs::Const(_) => false,
            Abs::Global(_) | Abs::Upd(..) => true,
            Abs::Mixed { tainted } => tainted,
        }
    }

    /// The slot this value is an exact function of, if any.
    fn slot(self) -> Option<u16> {
        match self {
            Abs::Global(g) | Abs::Upd(g, _) => Some(g),
            _ => None,
        }
    }

    /// Computable from the event's inputs and constants alone.
    fn input_only(self) -> bool {
        matches!(self, Abs::Const(_) | Abs::Mixed { tainted: false })
    }
}

/// If `v` can serve as the accumulator side of a `fam` update, the slot
/// it accumulates.
fn acc_side(v: Abs, fam: Upd) -> Option<u16> {
    match v {
        Abs::Global(g) => Some(g),
        Abs::Upd(g, f) if f == fam => Some(g),
        _ => None,
    }
}

/// Abstract machine state on entry to a block.
#[derive(Debug, Clone, PartialEq)]
struct State {
    /// The operand-stack values the predecessor left for this block
    /// (its `carry_out`), bottom-up.
    carries: Vec<Abs>,
    locals: Vec<Abs>,
}

/// What one `StoreGlobal` site does to its slot.
#[derive(Debug, Clone, PartialEq)]
enum SiteKind {
    Counter,
    Min,
    Max,
    Gated(i64),
    Lww,
    Opaque(String),
}

#[derive(Debug, Clone)]
struct Site {
    /// Entry pc of the block holding the store.
    pc: u32,
    kind: SiteKind,
}

// ---------------------------------------------------------------------
// Post-dominators and control-dependence regions
// ---------------------------------------------------------------------

fn set_bit(s: &mut [u64], i: usize) {
    s[i / 64] |= 1 << (i % 64);
}

fn get_bit(s: &[u64], i: usize) -> bool {
    s[i / 64] & (1 << (i % 64)) != 0
}

/// Out-edges of a block, fall-through first.
fn successors(term: &Term) -> impl Iterator<Item = usize> {
    let (a, b) = match *term {
        Term::Jmp(t) => (Some(t), None),
        Term::Br {
            on_true, on_false, ..
        } => (Some(on_true), Some(on_false)),
        Term::Ret(_) | Term::RetC(_) => (None, None),
    };
    a.into_iter().chain(b).map(|t| t as usize)
}

/// A set of blocks; the lowering caps a program at [`MAX_BLOCKS`].
type BlockSet = [u64; MAX_BLOCKS / 64];

/// `pd[b]`: the blocks that lie on *every* path from `b` to program
/// exit. Because all jumps are forward, one reverse pass computes the
/// exact solution: `pd(b) = {b} ∪ ⋂ pd(succ)`.
fn postdominators(blocks: &[Block]) -> Vec<BlockSet> {
    let mut pd = vec![BlockSet::default(); blocks.len()];
    for b in (0..blocks.len()).rev() {
        let mut set = successors(&blocks[b].term)
            .map(|s| pd[s])
            .reduce(|x, y| std::array::from_fn(|w| x[w] & y[w]))
            .unwrap_or_default();
        set_bit(&mut set, b);
        pd[b] = set;
    }
    pd
}

// ---------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------

struct Pass<'a> {
    blocks: &'a [Block],
    /// Static names, for the reasons.
    names: Vec<&'a str>,
    /// Post-dominator sets (see [`postdominators`]).
    pd: Vec<BlockSet>,
    /// `in_state[b]`: joined abstract state on entry (None = no live
    /// in-edge).
    in_state: Vec<Option<State>>,
    /// Blocks control-dependent on a static-influenced branch. Branches
    /// end blocks and their targets start them, so a block is
    /// control-dependent as a whole.
    ctrl_tainted: Vec<bool>,
    /// `edge_tainted[b]`: some incoming edge leaves a ctrl-tainted block,
    /// so differing cells at this join diverge because of static state.
    edge_tainted: Vec<bool>,
    /// Per-slot: value observed outside its own update.
    escapes: Vec<bool>,
    /// Per-slot store sites.
    sites: Vec<Vec<Site>>,
}

impl<'a> Pass<'a> {
    fn new(program: &'a Program, blocks: &'a [Block]) -> Pass<'a> {
        Pass {
            blocks,
            names: program.globals.iter().map(|(n, _, _)| &n[..]).collect(),
            pd: postdominators(blocks),
            in_state: vec![None; blocks.len()],
            ctrl_tainted: vec![false; blocks.len()],
            edge_tainted: vec![false; blocks.len()],
            escapes: vec![false; program.globals.len()],
            sites: vec![Vec::new(); program.globals.len()],
        }
    }

    /// `v` is consumed by something other than its own slot's update —
    /// its slot (if any) becomes observable.
    fn observe(&mut self, v: Abs) {
        if let Some(g) = v.slot() {
            self.escapes[g as usize] = true;
        }
    }

    /// Result of a binary op that destroys structure: both operands are
    /// observed, taint is the union.
    fn opaque2(&mut self, a: Abs, b: Abs) -> Abs {
        self.observe(a);
        self.observe(b);
        Abs::Mixed {
            tainted: a.tainted() || b.tainted(),
        }
    }

    /// Accumulation-forming binary op (`lhs op rhs`). When one side is
    /// the `fam`-accumulator of a slot and the other is input-only, the
    /// result stays in the family; otherwise structure is destroyed.
    /// `rhs_may_acc` is false for non-commutative ops (`-`): `x - g` is
    /// not a counter update of `g`.
    fn upd2(&mut self, lhs: Abs, rhs: Abs, fam: Upd, rhs_may_acc: bool) -> Abs {
        if let Some(g) = acc_side(lhs, fam) {
            if rhs.input_only() {
                return Abs::Upd(g, fam);
            }
        }
        if rhs_may_acc {
            if let Some(g) = acc_side(rhs, fam) {
                if lhs.input_only() {
                    return Abs::Upd(g, fam);
                }
            }
        }
        self.opaque2(lhs, rhs)
    }

    /// Abstract value of the tree `e` in state `st`.
    fn eval(&mut self, e: &Ex, st: &State) -> Abs {
        match e {
            Ex::Carry(i) => st.carries[*i as usize],
            Ex::ConstI(k) => Abs::Const(*k),
            Ex::ConstF(v) => Abs::Const(bits_of(*v)),
            Ex::Input(_) => Abs::Mixed { tainted: false },
            Ex::Global(g) => Abs::Global(*g),
            Ex::Local(i) => st.locals[*i as usize],
            Ex::Bin(op, l, r) => {
                let (a, b) = (self.eval(l, st), self.eval(r, st));
                let (fam, rhs_may_acc) = match op {
                    Bin::AddI => (Upd::Add, true),
                    // `g - d` adds the delta `-d`; `d - g` is not a counter.
                    Bin::SubI => (Upd::Add, false),
                    Bin::MinI => (Upd::Min, true),
                    Bin::MaxI => (Upd::Max, true),
                    // Float folds stay in the (never-mergeable) FloatAcc
                    // family so the store site can explain *why* it is
                    // opaque.
                    Bin::AddF | Bin::MinF | Bin::MaxF => (Upd::FloatAcc, true),
                    Bin::SubF => (Upd::FloatAcc, false),
                    // Structure-destroying binary ops: multiplication
                    // scales the accumulated state, comparisons observe
                    // it, etc.
                    _ => return self.opaque2(a, b),
                };
                match (a, b) {
                    (Abs::Const(x), Abs::Const(y)) if fam != Upd::FloatAcc => {
                        Abs::Const(op.apply(x, y).expect("integer add/sub/min/max is total"))
                    }
                    _ => self.upd2(a, b, fam, rhs_may_acc),
                }
            }
            Ex::Un(op, e) => match (op, self.eval(e, st)) {
                (Un::NegI | Un::I2F, Abs::Const(k)) => Abs::Const(op.apply(k)),
                (_, v) => {
                    self.observe(v);
                    Abs::Mixed {
                        tainted: v.tainted(),
                    }
                }
            },
        }
    }

    /// Marks every block control-dependent (transitively) on the branch
    /// ending block `b`: reachable from `b` without first passing a
    /// post-dominator of `b`. Handles both balanced if/else regions and
    /// early-return arms (where everything after the branch is
    /// control-dependent).
    fn mark_ctrl_region(&mut self, b: usize) {
        // Never entered: a post-dominator executes no matter which way
        // `b` went; nodes beyond it are controlled by later branches,
        // not `b`.
        let mut seen = self.pd[b];
        let mut work: Vec<usize> = successors(&self.blocks[b].term).collect();
        while let Some(p) = work.pop() {
            if get_bit(&seen, p) {
                continue;
            }
            set_bit(&mut seen, p);
            self.ctrl_tainted[p] = true;
            work.extend(successors(&self.blocks[p].term));
        }
    }

    /// Propagates `st` along the edge `from → to`, joining cell-wise
    /// with whatever already flowed into `to`.
    fn flow(&mut self, from: usize, to: usize, st: &State) {
        self.edge_tainted[to] |= self.ctrl_tainted[from];
        let edge_tainted = self.edge_tainted[to];
        let Some(mut existing) = self.in_state[to].take() else {
            self.in_state[to] = Some(st.clone());
            return;
        };
        let join_cells = |pass: &mut Pass, a: &mut [Abs], b: &[Abs]| {
            for (x, y) in a.iter_mut().zip(b) {
                if *x != *y {
                    // The cell's value depends on which path ran.
                    pass.observe(*x);
                    pass.observe(*y);
                    *x = Abs::Mixed {
                        tainted: x.tainted() || y.tainted() || edge_tainted,
                    };
                } else if edge_tainted && !matches!(*x, Abs::Const(_) | Abs::Global(_)) {
                    // Equal abstractions are not equal values.
                    // `Mixed` and `Upd` cells carry no provenance:
                    // `x = size` in one arm and `x = port` in the
                    // other both abstract to Mixed{tainted:false}
                    // and compare equal, yet the runtime value
                    // depends on which way the static-influenced
                    // branch went. Only identical `Const` bits
                    // (the same value outright) and identical
                    // `Global` (the same slot's current value on
                    // either path) are provably path-invariant;
                    // everything else degrades to tainted.
                    pass.observe(*x);
                    *x = Abs::Mixed { tainted: true };
                }
            }
        };
        join_cells(self, &mut existing.carries, &st.carries);
        join_cells(self, &mut existing.locals, &st.locals);
        self.in_state[to] = Some(existing);
    }

    /// Classifies the store of `v` to slot `g` in block `b`.
    fn store_global(&mut self, b: usize, g: u16, v: Abs) {
        let pc = self.blocks[b].entry_pc;
        let kind = if v == Abs::Global(g) {
            return; // `g = g;` — a no-op, not an update site.
        } else if self.ctrl_tainted[b] {
            self.observe(v);
            SiteKind::Opaque(format!(
                "store in the block at pc {pc} is control-dependent on static state"
            ))
        } else {
            match v {
                Abs::Global(h) => {
                    self.observe(v);
                    SiteKind::Opaque(format!(
                        "store in the block at pc {pc} copies static \"{}\"",
                        self.names[h as usize]
                    ))
                }
                Abs::Upd(h, fam) if h == g => match fam {
                    Upd::Add => SiteKind::Counter,
                    Upd::Min => SiteKind::Min,
                    Upd::Max => SiteKind::Max,
                    Upd::FloatAcc => SiteKind::Opaque(format!(
                        "floating-point fold in the block at pc {pc} is not bit-exact \
                         across shard counts"
                    )),
                },
                Abs::Upd(h, _) => {
                    self.observe(v);
                    SiteKind::Opaque(format!(
                        "store in the block at pc {pc} mixes in static \"{}\"",
                        self.names[h as usize]
                    ))
                }
                Abs::Const(k) => SiteKind::Gated(k),
                Abs::Mixed { tainted: false } => SiteKind::Lww,
                Abs::Mixed { tainted: true } => SiteKind::Opaque(format!(
                    "value stored in the block at pc {pc} depends on static state"
                )),
            }
        };
        self.sites[g as usize].push(Site { pc, kind });
    }

    /// One pass in block order: blocks sit in ascending pc order and
    /// every jump is forward, so each block is visited after all of its
    /// predecessors.
    fn run(&mut self, n_locals: usize) {
        self.in_state[0] = Some(State {
            carries: Vec::new(),
            // The VM zeroes locals at the start of every run.
            locals: vec![Abs::Const(0); n_locals],
        });
        for (b, block) in self.blocks.iter().enumerate() {
            // `Term::br` folds literal conditions, so a lowered block
            // can have no live in-edge.
            let Some(mut st) = self.in_state[b].take() else {
                continue;
            };
            for step in &block.steps {
                match step {
                    Step::StoreLocal(i, e) => st.locals[*i as usize] = self.eval(e, &st),
                    Step::StoreGlobal(g, e) => {
                        let v = self.eval(e, &st);
                        self.store_global(b, *g, v);
                    }
                    Step::Out(slot, value) => {
                        let (slot, value) = (self.eval(slot, &st), self.eval(value, &st));
                        self.observe(slot);
                        self.observe(value);
                    }
                    // Evaluated for what it observes; the value itself
                    // is discarded, not observed.
                    Step::Eval(e) => drop(self.eval(e, &st)),
                }
            }
            // `carry_out` and the terminator's operand both read the
            // *incoming* carries; only the out-edges see the new ones.
            let carries = block.carry_out.iter().map(|e| self.eval(e, &st)).collect();
            match &block.term {
                Term::Br { cond, .. } => {
                    let cond = self.eval(cond, &st);
                    self.observe(cond);
                    if cond.tainted() {
                        self.mark_ctrl_region(b);
                    }
                }
                Term::Ret(e) => {
                    let v = self.eval(e, &st);
                    self.observe(v);
                }
                Term::Jmp(_) | Term::RetC(_) => {}
            }
            st.carries = carries;
            for to in successors(&block.term) {
                self.flow(b, to, &st);
            }
        }
    }

    /// Folds a slot's store sites into its final class.
    fn combine(&self, slot: usize) -> MergeClass {
        #[derive(PartialEq, Clone, Copy)]
        enum Fam {
            Counter,
            Min,
            Max,
            Write,
        }
        let fam = |k: &SiteKind| match k {
            SiteKind::Counter => Fam::Counter,
            SiteKind::Min => Fam::Min,
            SiteKind::Max => Fam::Max,
            SiteKind::Gated(_) | SiteKind::Lww => Fam::Write,
            SiteKind::Opaque(_) => unreachable!("opaque handled before families"),
        };
        let sites = &self.sites[slot];
        let Some(first) = sites.first() else {
            return MergeClass::ReadOnly;
        };
        if let Some(s) = sites.iter().find(|s| matches!(s.kind, SiteKind::Opaque(_))) {
            let SiteKind::Opaque(reason) = &s.kind else {
                unreachable!()
            };
            return MergeClass::Opaque {
                pc: s.pc,
                reason: reason.clone(),
            };
        }
        let f0 = fam(&first.kind);
        if let Some(s) = sites.iter().find(|s| fam(&s.kind) != f0) {
            // E.g. a counter bump at one site and a reset at another:
            // the sequential interleaving can't be reconstructed.
            return MergeClass::Opaque {
                pc: s.pc,
                reason: format!(
                    "conflicting update patterns (blocks at pc {} and pc {})",
                    first.pc, s.pc
                ),
            };
        }
        match f0 {
            Fam::Counter => MergeClass::Counter,
            Fam::Min => MergeClass::MinMax(MinMaxOp::Min),
            Fam::Max => MergeClass::MinMax(MinMaxOp::Max),
            Fam::Write => {
                let mut bits: Option<i64> = None;
                for s in sites {
                    match s.kind {
                        SiteKind::Gated(k) => {
                            if bits.get_or_insert(k) != &k {
                                return MergeClass::LastWriteWins;
                            }
                        }
                        SiteKind::Lww => return MergeClass::LastWriteWins,
                        _ => unreachable!("family filtered above"),
                    }
                }
                MergeClass::GatedWrite {
                    value_bits: bits.expect("non-empty gated site list"),
                }
            }
        }
    }
}

/// A plan with `slot(i)` as the class and `escapes` of static `i`.
fn plan(program: &Program, mut slot: impl FnMut(usize) -> (MergeClass, bool)) -> MergePlan {
    let slots = program.globals.iter().enumerate();
    let slots = slots.map(|(i, (name, _, _))| {
        let (class, escapes) = slot(i);
        SlotPlan {
            name: name.clone(),
            class,
            escapes,
        }
    });
    MergePlan {
        slots: slots.collect(),
    }
}

/// Classifies every static slot of `program` on its lowering
/// ([`Program::lowered`], so stack discipline and operand indices are
/// already proven). Called once per program, by
/// [`Program::merge_plan`], which keeps the result. One rule for a program the lowering refused: not
/// lowered ⇒ checked interpreter, never vectorized, never sharded —
/// every slot is [`MergeClass::Opaque`] with the [`Bail`](crate::Bail)
/// as the reason.
pub(crate) fn classify(program: &Program) -> MergePlan {
    // Every slot Opaque: the conservative answer when there is no block
    // graph to classify on.
    let opaque_all = |reason: String| {
        let class = MergeClass::Opaque { pc: 0, reason };
        plan(program, |_| (class.clone(), true))
    };
    let ir = match &program.lowered().ir {
        Ok(ir) => ir,
        Err(bail) => return opaque_all(format!("not lowered: {bail}")),
    };
    // The whole pass (and `postdominators`) relies on the compiler's
    // forward-jump invariant; double-check it instead of trusting it.
    for (b, block) in ir.blocks.iter().enumerate() {
        if successors(&block.term).any(|to| to <= b || to >= ir.blocks.len()) {
            return opaque_all("control flow is not a forward DAG".to_owned());
        }
    }
    let mut pass = Pass::new(program, &ir.blocks);
    pass.run(program.n_locals as usize);
    plan(program, |i| (pass.combine(i), pass.escapes[i]))
}
