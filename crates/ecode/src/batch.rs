//! Vectorized batch evaluation for fully-mergeable digest programs: the
//! column backend of the one lowering ([`crate::ir`]).
//!
//! The GPA's digest feeds each shard replica *columns* of raw input bits
//! (one `&[i64]` per declared input, one lane per record). Running the
//! scalar VM row-at-a-time from those columns pays interpreter dispatch,
//! stack traffic, and fuel checks per record. This module compiles the
//! program's block graph once into a short linear program of *vector
//! ops* that each sweep a whole batch, so the dispatch cost amortizes
//! across ~1k lanes and the inner loops autovectorize.
//!
//! # Why this is legal, and exactly when
//!
//! Vectorization reorders evaluation: all lanes execute vector op `i`
//! before any lane executes op `i + 1`, where the scalar VM runs each
//! record to completion before the next. The merge analysis
//! ([`Program::merge_plan`], DESIGN.md §10) is what makes that
//! reordering invisible. In a fully-mergeable program every read of
//! mutable static state occurs *only* inside that static's own
//! accumulation pattern (`g = g + d`, `g = min(g, v)`, gated constant
//! writes), every delta and every branch condition is input-only, and
//! each accumulation fold is associative and commutative on the bit
//! level (`wrapping_add`, `i64::min`/`max`, "any lane stored the
//! constant"). So per-lane computations depend only on that lane's
//! inputs — they evaluate full-width with no cross-lane hazard — and
//! static updates become masked *reductions* whose fold order cannot
//! change the result.
//! Anything outside that shape makes [`BatchEval::compile`] refuse with
//! a [`BatchBail`] saying what and where, and the caller falls back to
//! the scalar VM.
//!
//! # Bit-exactness contract
//!
//! For a batch of `n` rows, [`BatchEval::run`] leaves the instance's
//! statics bit-identical to `n` scalar [`Instance::run_raw`] calls in
//! row order, and returns the exact total `fuel_used` those calls would
//! have reported with a budget that covers the program's proven
//! worst case ([`Program::static_fuel_bound`], the `fuel_bound` the
//! verifier reports) — the budget every host passes. Control flow is
//! compiled to 0/1 lane masks (a branch splits a mask, joins OR them
//! back and blend divergent carried values), and fuel is metered
//! exactly: each IR block charges its `fuel` — the ops it covers — once
//! per lane that enters it, as `fuel × popcount(mask)`. Under a covering
//! budget no row can run out of fuel, and because non-constant divisors
//! bail at compile time no row can trap, so the vector path needs no
//! per-lane abort story and takes no budget. Return values and `out()`
//! are *not* produced: the digest only observes statics and fuel.

use std::collections::HashMap;
use std::fmt;

use crate::analysis::{MergeClass, MergePlan, MinMaxOp};
use crate::compile::Program;
use crate::ir::{bits_of, Bail, Bin, Block, Ex, Ir, Step, Term, Un};
use crate::vm::Instance;

/// Why a program was not vectorized, and therefore runs row-at-a-time
/// on the scalar VM. `pc` fields are the bytecode pc of the basic block
/// the offending construct sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchBail {
    /// The program's merge plan is not fully shard-safe: lanes could
    /// observe each other through a static.
    NotMergeable,
    /// The program was not lowered at all; the reason is the scalar
    /// tier's too.
    NotLowered(Bail),
    /// `out()` publishes a per-row stream the batch path does not
    /// reproduce.
    Out {
        /// Entry pc of the block.
        pc: u32,
    },
    /// An integer division or modulo whose divisor is not a nonzero
    /// constant: one zero lane would have to trap mid-batch.
    NonConstDivisor {
        /// Entry pc of the block.
        pc: u32,
    },
    /// Mutable static `slot` is read outside its own accumulation
    /// pattern.
    MutableRead {
        /// Global slot index.
        slot: u16,
        /// Entry pc of the block.
        pc: u32,
    },
    /// Control-flow edges meet with carried values that cannot be
    /// blended lane-wise.
    JoinShape {
        /// Entry pc of the join block.
        pc: u32,
    },
}

impl fmt::Display for BatchBail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchBail::NotMergeable => f.write_str("merge plan is not fully shard-safe"),
            BatchBail::NotLowered(b) => write!(f, "not lowered: {b}"),
            BatchBail::Out { pc } => write!(f, "out() in the block at pc {pc}"),
            BatchBail::NonConstDivisor { pc } => {
                write!(f, "non-constant divisor in the block at pc {pc}")
            }
            BatchBail::MutableRead { slot, pc } => write!(
                f,
                "static slot {slot} read outside its accumulation in the block at pc {pc}"
            ),
            BatchBail::JoinShape { pc } => {
                write!(f, "carried values cannot be blended at the join at pc {pc}")
            }
        }
    }
}

/// Where a vector operand's column lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Src {
    /// Caller-provided input column (index into the `cols` argument).
    Input(u16),
    /// Scratch register column written by an earlier vector op (SSA).
    Reg(u16),
    /// Per-lane local-variable column (mutable; zeroed each batch).
    Local(u16),
    /// Pool column: a broadcast constant or a read-only static splat.
    Pool(u16),
}

/// Lane mask: `None` means "all lanes", otherwise a 0/1 column.
type Mask = Option<Src>;

/// Mask algebra over 0/1 lanes.
#[derive(Debug, Clone, Copy)]
enum MaskK {
    And,
    /// `a AND NOT b` — the else-mask split.
    AndNot,
    /// The join.
    Or,
}

/// A compiled vector instruction. The lane-wise ones are unmasked:
/// lane-pure values may be computed for lanes that never use them.
#[derive(Debug, Clone, Copy)]
enum VOp {
    /// `dst[l] = op(a[l], b[l])`.
    Bin {
        op: Bin,
        a: Src,
        b: Src,
        dst: u16,
    },
    /// `dst[l] = op(a[l])`.
    Un {
        op: Un,
        a: Src,
        dst: u16,
    },
    Mask {
        k: MaskK,
        a: Src,
        b: Src,
        dst: u16,
    },
    /// `dst[l] = if m[l] != 0 { b[l] } else { a[l] }` — carried-value join.
    Blend {
        m: Src,
        a: Src,
        b: Src,
        dst: u16,
    },
    /// `dst[l] = a[l]` — materializes a local snapshot before the local
    /// is overwritten.
    Copy {
        a: Src,
        dst: u16,
    },
    /// `local[l] = a[l]` where the mask is set.
    StoreLocal {
        local: u16,
        a: Src,
        m: Mask,
    },
    /// Static fold over masked lanes: `g += Σ v[l]` (wrapping),
    /// `g = min(g, v[l])` or `g = max(g, v[l])`.
    Reduce {
        k: AccK,
        slot: u16,
        v: Src,
        m: Mask,
    },
    /// Gated latch: `g = bits` if any masked lane reached the store.
    GatedStore {
        slot: u16,
        bits: i64,
        m: Mask,
    },
    /// Fuel meter: charge `ops` per lane in the mask.
    Fuel {
        ops: u32,
        m: Mask,
    },
}

/// How a pool column gets its value.
#[derive(Debug, Clone, Copy)]
enum PoolEntry {
    /// Broadcast constant (raw bits); filled when the pool is (re)sized.
    Const(i64),
    /// Splat of a read-only static's current value; refilled every run
    /// so the batch sees exactly what the scalar VM would read.
    Global(u16),
}

/// A pure per-lane value: a known constant or a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PV {
    C(i64),
    S(Src),
}

/// Which accumulation family an in-flight static update belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccK {
    Add,
    Min,
    Max,
}

/// What an IR tree evaluates to during vectorization.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Cell {
    /// Lane-pure value.
    P(PV),
    /// Read of a mutable static, not yet folded into an update.
    G(u16),
    /// Partially-built accumulation: `global[slot] <fold> operand`.
    A { slot: u16, k: AccK, d: PV },
}

/// A control-flow edge parked at its (forward) target block.
#[derive(Debug, Clone)]
struct Edge {
    mask: Mask,
    stack: Vec<Cell>,
}

/// A digest program compiled for whole-batch evaluation, plus its
/// reusable column arenas. Create one with
/// [`compile`](BatchEval::compile); call
/// [`run`](BatchEval::run) per batch.
#[derive(Debug, Clone)]
pub struct BatchEval {
    vops: Vec<VOp>,
    n_inputs: usize,
    /// Input positions the program reads; only these columns are
    /// touched (and length-checked) by [`run`](BatchEval::run).
    used_inputs: Vec<u16>,
    pool_init: Vec<PoolEntry>,
    /// Pool entries that splat statics, refreshed every run.
    gsplats: Vec<(u16, u16)>,
    regs: Vec<Vec<i64>>,
    locals: Vec<Vec<i64>>,
    pool: Vec<Vec<i64>>,
    width: usize,
}

impl BatchEval {
    /// Compiles `program` for batch evaluation against its own
    /// [`Program::merge_plan`], or says why it is outside the
    /// vectorizable class — the caller must then evaluate rows with the
    /// scalar VM. [`run`](BatchEval::run) matches rows run with a budget
    /// that covers the program's proven worst case (module docs).
    pub fn compile(program: &Program) -> Result<BatchEval, BatchBail> {
        // First, so the refusal names the cause: an unlowered program's
        // plan is all-`Opaque` *because* it did not lower.
        let ir = program.lowered().ir.as_ref();
        let ir = ir.map_err(|b| BatchBail::NotLowered(*b))?;
        if !program.merge_plan().fully_mergeable() {
            return Err(BatchBail::NotMergeable);
        }
        Vectorizer::new(program).compile(ir)
    }

    /// [`compile`](BatchEval::compile) without the reason, in the form
    /// the benchmark harness calls with the verifier's report for
    /// `program`. `None` also when `plan` is not the program's own or
    /// `fuel_budget` does not cover its worst case.
    pub fn try_compile(program: &Program, plan: &MergePlan, fuel_budget: u64) -> Option<BatchEval> {
        let own = plan == program.merge_plan() && fuel_budget >= program.static_fuel_bound();
        own.then(|| Self::compile(program).ok()).flatten()
    }

    /// Evaluates `rows` lanes against `inst`'s statics and returns the
    /// exact total fuel the scalar VM would have used. `cols` holds one
    /// column of raw input bits per declared input (same contract as
    /// [`Instance::run_raw`]), each at least `rows` long — except
    /// columns of inputs the program never reads
    /// ([`Program::used_inputs`]), which may be left empty.
    pub fn run(&mut self, inst: &mut Instance, cols: &[&[i64]], rows: usize) -> u64 {
        assert_eq!(cols.len(), self.n_inputs, "input column count mismatch");
        assert!(
            self.used_inputs
                .iter()
                .all(|&i| cols[i as usize].len() >= rows),
            "short input column"
        );
        if rows == 0 {
            return 0;
        }
        self.ensure_width(rows);
        for &(pix, slot) in &self.gsplats {
            let v = inst.raw_globals()[slot as usize];
            self.pool[pix as usize][..rows].fill(v);
        }
        for col in &mut self.locals {
            col[..rows].fill(0);
        }

        let mut fuel_used = 0u64;
        for vi in 0..self.vops.len() {
            match self.vops[vi] {
                // Divisors are compile-time constants proven nonzero,
                // so the full-lane sweep cannot trap.
                VOp::Bin { op, a, b, dst } => self.lanes_to_reg(dst, rows, |s, d| {
                    op.sweep(d, s.col(a, cols), s.col(b, cols));
                }),
                VOp::Un { op, a, dst } => {
                    self.lanes_to_reg(dst, rows, |s, d| op.sweep(d, s.col(a, cols)));
                }
                VOp::Mask { k, a, b, dst } => self.lanes_to_reg(dst, rows, |s, d| {
                    let lanes = d.iter_mut().zip(s.col(a, cols)).zip(s.col(b, cols));
                    match k {
                        MaskK::And => lanes.for_each(|((d, &x), &y)| *d = x & y),
                        MaskK::AndNot => lanes.for_each(|((d, &x), &y)| *d = x & (y ^ 1)),
                        MaskK::Or => lanes.for_each(|((d, &x), &y)| *d = x | y),
                    }
                }),
                VOp::Blend { m, a, b, dst } => self.lanes_to_reg(dst, rows, |s, d| {
                    let (m, a, b) = (s.col(m, cols), s.col(a, cols), s.col(b, cols));
                    for l in 0..rows {
                        d[l] = if m[l] != 0 { b[l] } else { a[l] };
                    }
                }),
                VOp::Copy { a, dst } => {
                    self.lanes_to_reg(dst, rows, |s, d| d.copy_from_slice(&s.col(a, cols)[..rows]));
                }
                VOp::StoreLocal { local, a, m } => {
                    let mut d = std::mem::take(&mut self.locals[local as usize]);
                    let a = self.col(a, cols);
                    match m.map(|m| self.col(m, cols)) {
                        None => d[..rows].copy_from_slice(&a[..rows]),
                        Some(m) => {
                            for l in 0..rows {
                                if m[l] != 0 {
                                    d[l] = a[l];
                                }
                            }
                        }
                    }
                    self.locals[local as usize] = d;
                }
                VOp::Reduce { k, slot, v, m } => {
                    let v = &self.col(v, cols)[..rows];
                    let m = m.map(|m| &self.col(m, cols)[..rows]);
                    let g = &mut inst.globals_mut()[slot as usize];
                    *g = match k {
                        AccK::Add => fold(v, m, *g, 0, i64::wrapping_add),
                        AccK::Min => fold(v, m, *g, i64::MAX, i64::min),
                        AccK::Max => fold(v, m, *g, i64::MIN, i64::max),
                    };
                }
                VOp::GatedStore { slot, bits, m } => {
                    let fired = match m.map(|m| self.col(m, cols)) {
                        None => true,
                        Some(m) => m[..rows].iter().any(|&v| v != 0),
                    };
                    if fired {
                        inst.globals_mut()[slot as usize] = bits;
                    }
                }
                VOp::Fuel { ops, m } => {
                    let lanes = match m.map(|m| self.col(m, cols)) {
                        None => rows as u64,
                        Some(m) => m[..rows].iter().map(|&v| (v != 0) as u64).sum(),
                    };
                    fuel_used += ops as u64 * lanes;
                }
            }
        }
        fuel_used
    }

    /// Runs one lane-wise op into register `dst`. The column is taken
    /// out of the arena for the duration so operands can be borrowed
    /// from `self`; SSA register allocation guarantees `dst` is never
    /// also an operand of the same op.
    #[inline(always)]
    fn lanes_to_reg(&mut self, dst: u16, rows: usize, op: impl FnOnce(&Self, &mut [i64])) {
        let mut d = std::mem::take(&mut self.regs[dst as usize]);
        op(self, &mut d[..rows]);
        self.regs[dst as usize] = d;
    }

    fn ensure_width(&mut self, rows: usize) {
        if self.width >= rows {
            return;
        }
        self.width = rows;
        for r in &mut self.regs {
            r.resize(rows, 0);
        }
        for l in &mut self.locals {
            l.resize(rows, 0);
        }
        for (col, entry) in self.pool.iter_mut().zip(&self.pool_init) {
            col.resize(rows, 0);
            if let PoolEntry::Const(bits) = entry {
                col.fill(*bits);
            }
        }
    }

    fn col<'a>(&'a self, src: Src, cols: &'a [&'a [i64]]) -> &'a [i64] {
        match src {
            Src::Input(i) => cols[i as usize],
            Src::Reg(i) => &self.regs[i as usize],
            Src::Local(i) => &self.locals[i as usize],
            Src::Pool(i) => &self.pool[i as usize],
        }
    }
}

/// Folds the lanes of `v` that mask `m` selects into `acc` with `f`;
/// masked-off lanes contribute the fold's identity `id`.
#[inline(always)]
fn fold(v: &[i64], m: Option<&[i64]>, mut acc: i64, id: i64, f: impl Fn(i64, i64) -> i64) -> i64 {
    match m {
        None => {
            for &x in v {
                acc = f(acc, x);
            }
        }
        Some(m) => {
            for (&x, &on) in v.iter().zip(m) {
                acc = f(acc, if on != 0 { x } else { id });
            }
        }
    }
    acc
}

/// Lowers the IR's block graph to [`VOp`]s, one pass in `entry_pc`
/// order (every edge is forward, so each block's incoming edges are all
/// parked before it is reached).
struct Vectorizer<'a> {
    program: &'a Program,
    /// The program's own plan: which statics are read-only, and the
    /// fold each mutable one promises.
    plan: &'a MergePlan,
    vops: Vec<VOp>,
    n_regs: u16,
    pool_init: Vec<PoolEntry>,
    pool_ix: HashMap<i64, u16>,
    gsplat_ix: HashMap<u16, u16>,
    /// Lanes executing the current block, the values they carried in,
    /// and whether any lane got here at all.
    cur_mask: Mask,
    stack: Vec<Cell>,
    live: bool,
    /// Edges parked per target block.
    pending: Vec<Vec<Edge>>,
    /// Entry pc of the current block, for bail reasons.
    pc: u32,
}

impl<'a> Vectorizer<'a> {
    fn new(program: &'a Program) -> Self {
        Vectorizer {
            program,
            plan: program.merge_plan(),
            vops: Vec::new(),
            n_regs: 0,
            pool_init: Vec::new(),
            pool_ix: HashMap::new(),
            gsplat_ix: HashMap::new(),
            cur_mask: None,
            stack: Vec::new(),
            live: true,
            pending: Vec::new(),
            pc: 0,
        }
    }

    fn cpool(&mut self, bits: i64) -> Src {
        if let Some(&ix) = self.pool_ix.get(&bits) {
            return Src::Pool(ix);
        }
        let ix = self.pool_init.len() as u16;
        self.pool_init.push(PoolEntry::Const(bits));
        self.pool_ix.insert(bits, ix);
        Src::Pool(ix)
    }

    fn gpool(&mut self, slot: u16) -> Src {
        if let Some(&ix) = self.gsplat_ix.get(&slot) {
            return Src::Pool(ix);
        }
        let ix = self.pool_init.len() as u16;
        self.pool_init.push(PoolEntry::Global(slot));
        self.gsplat_ix.insert(slot, ix);
        Src::Pool(ix)
    }

    fn src(&mut self, pv: PV) -> Src {
        match pv {
            PV::C(bits) => self.cpool(bits),
            PV::S(s) => s,
        }
    }

    /// Emits a lane-wise op writing a fresh register.
    fn emit(&mut self, mk: impl FnOnce(u16) -> VOp) -> Src {
        let dst = self.n_regs;
        self.n_regs += 1;
        self.vops.push(mk(dst));
        Src::Reg(dst)
    }

    /// A lane-wise binary op, constant-folded when both operands are
    /// known. Division vectorizes only under a constant nonzero divisor:
    /// anything else can hit a zero lane the scalar path would trap on.
    fn bin(&mut self, op: Bin, a: PV, b: PV) -> Result<PV, BatchBail> {
        if op.can_trap() && !matches!(b, PV::C(c) if c != 0) {
            return Err(BatchBail::NonConstDivisor { pc: self.pc });
        }
        if let (PV::C(x), PV::C(y)) = (a, b) {
            let folded = op.apply(x, y).expect("divisor checked nonzero");
            return Ok(PV::C(folded));
        }
        let (a, b) = (self.src(a), self.src(b));
        Ok(PV::S(self.emit(|dst| VOp::Bin { op, a, b, dst })))
    }

    fn un(&mut self, op: Un, a: PV) -> PV {
        match a {
            PV::C(x) => PV::C(op.apply(x)),
            PV::S(a) => PV::S(self.emit(|dst| VOp::Un { op, a, dst })),
        }
    }

    fn mask(&mut self, k: MaskK, a: Src, b: Src) -> Src {
        self.emit(|dst| VOp::Mask { k, a, b, dst })
    }

    /// Evaluates a tree in bytecode order (left, right, operator).
    fn cell(&mut self, e: &Ex) -> Result<Cell, BatchBail> {
        Ok(match e {
            Ex::Carry(i) => self.stack[*i as usize].clone(),
            Ex::ConstI(v) => Cell::P(PV::C(*v)),
            Ex::ConstF(v) => Cell::P(PV::C(bits_of(*v))),
            Ex::Input(i) => Cell::P(PV::S(Src::Input(*i))),
            Ex::Local(i) => Cell::P(PV::S(Src::Local(*i))),
            Ex::Global(i) => match self.plan.slots[*i as usize].class {
                MergeClass::ReadOnly => Cell::P(PV::S(self.gpool(*i))),
                _ => Cell::G(*i),
            },
            Ex::Bin(op, l, r) => {
                let (l, r) = (self.cell(l)?, self.cell(r)?);
                self.acc_or_bin(*op, l, r)?
            }
            Ex::Un(op, e) => {
                let a = self.pv(e)?;
                Cell::P(self.un(*op, a))
            }
        })
    }

    /// Evaluates a tree that must be lane-pure.
    fn pv(&mut self, e: &Ex) -> Result<PV, BatchBail> {
        let cell = self.cell(e)?;
        self.pure(cell)
    }

    fn pure(&self, cell: Cell) -> Result<PV, BatchBail> {
        match cell {
            Cell::P(pv) => Ok(pv),
            Cell::G(slot) | Cell::A { slot, .. } => {
                Err(BatchBail::MutableRead { slot, pc: self.pc })
            }
        }
    }

    /// A binary op over cells that may carry an in-flight accumulation.
    /// Compositions mirror the fold algebra: `(g + a) + b ≡ g + (a + b)`
    /// (wrapping), `g - a ≡ g + (-a)`, `min(min(g,a),b) ≡ min(g,
    /// min(a,b))`, so collapsing the operand side is exact.
    fn acc_or_bin(&mut self, op: Bin, l: Cell, r: Cell) -> Result<Cell, BatchBail> {
        let fam = match op {
            Bin::AddI | Bin::SubI => Some(AccK::Add),
            Bin::MinI => Some(AccK::Min),
            Bin::MaxI => Some(AccK::Max),
            _ => None,
        };
        // Subtraction only folds with the static on the left.
        let commutes = op != Bin::SubI;
        Ok(match (fam, l, r) {
            (_, Cell::P(l), Cell::P(r)) => Cell::P(self.bin(op, l, r)?),
            (Some(k), Cell::G(slot), Cell::P(p)) => {
                let d = if commutes { p } else { self.un(Un::NegI, p) };
                Cell::A { slot, k, d }
            }
            (Some(k), Cell::P(d), Cell::G(slot)) if commutes => Cell::A { slot, k, d },
            (Some(k), Cell::A { slot, k: k2, d }, Cell::P(p)) if k == k2 => Cell::A {
                slot,
                k,
                d: self.bin(op, d, p)?,
            },
            (Some(k), Cell::P(p), Cell::A { slot, k: k2, d }) if k == k2 && commutes => Cell::A {
                slot,
                k,
                d: self.bin(op, d, p)?,
            },
            (_, l, r) => {
                // Whichever side is impure names the escaping static.
                self.pure(l)?;
                return Err(self.pure(r).expect_err("one side is impure"));
            }
        })
    }

    fn step(&mut self, s: &Step) -> Result<(), BatchBail> {
        let m = self.cur_mask;
        match s {
            Step::StoreLocal(i, e) => {
                let pv = self.pv(e)?;
                let a = self.src(pv);
                // `x = x` is the identity under any mask.
                if a != Src::Local(*i) {
                    self.protect_local(*i);
                    self.vops.push(VOp::StoreLocal { local: *i, a, m });
                }
            }
            Step::StoreGlobal(s, e) => {
                let (s, cell) = (*s, self.cell(e)?);
                match (cell, &self.plan.slots[s as usize].class) {
                    // `g = g` — identity.
                    (Cell::G(t), _) if t == s => {}
                    (Cell::A { slot, k, d }, class) if slot == s => {
                        let fits = matches!(
                            (k, class),
                            (AccK::Add, MergeClass::Counter)
                                | (AccK::Min, MergeClass::MinMax(MinMaxOp::Min))
                                | (AccK::Max, MergeClass::MinMax(MinMaxOp::Max))
                        );
                        if !fits {
                            return Err(BatchBail::MutableRead { slot, pc: self.pc });
                        }
                        let v = self.src(d);
                        self.vops.push(VOp::Reduce { k, slot, v, m });
                    }
                    (Cell::P(PV::C(bits)), MergeClass::GatedWrite { value_bits })
                        if *value_bits == bits =>
                    {
                        self.vops.push(VOp::GatedStore { slot: s, bits, m })
                    }
                    // A store whose shape is not the fold its class
                    // promises on the lanes.
                    _ => {
                        return Err(BatchBail::MutableRead {
                            slot: s,
                            pc: self.pc,
                        })
                    }
                }
            }
            Step::Out(..) => return Err(BatchBail::Out { pc: self.pc }),
            // Evaluated for its bails only: it cannot trap here, and a
            // discarded value (even a static read) has no side effect.
            Step::Eval(e) => {
                self.cell(e)?;
            }
        }
        Ok(())
    }

    /// A local is about to be overwritten: any live reference to its
    /// column (current carries, parked edges) still means the *old*
    /// value, so snapshot it into a register first. Masks never
    /// reference locals (conditions are copied to registers before
    /// becoming masks), so only cells need rewriting.
    fn protect_local(&mut self, local: u16) {
        fn refers(c: &mut Cell, local: u16) -> Option<&mut PV> {
            match c {
                Cell::P(pv) | Cell::A { d: pv, .. } if *pv == PV::S(Src::Local(local)) => Some(pv),
                _ => None,
            }
        }
        let parked = self.pending.iter_mut().flatten().flat_map(|e| &mut e.stack);
        let mut cells: Vec<&mut PV> = self
            .stack
            .iter_mut()
            .chain(parked)
            .filter_map(|c| refers(c, local))
            .collect();
        if cells.is_empty() {
            return;
        }
        // `emit`, inlined: `cells` holds the borrow of `self`.
        let dst = self.n_regs;
        self.n_regs += 1;
        let a = Src::Local(local);
        self.vops.push(VOp::Copy { a, dst });
        for pv in &mut cells {
            **pv = PV::S(Src::Reg(dst));
        }
    }

    /// Merges every edge parked at block `bi` into the live state. Rows
    /// arrive via exactly one incoming path, so blending per-edge is
    /// exact and merge order cannot matter.
    fn merge_at(&mut self, bi: usize) -> Result<(), BatchBail> {
        let bail = BatchBail::JoinShape { pc: self.pc };
        for edge in std::mem::take(&mut self.pending[bi]) {
            if !self.live {
                self.cur_mask = edge.mask;
                self.stack = edge.stack;
                self.live = true;
                continue;
            }
            if edge.stack.len() != self.stack.len() {
                return Err(bail);
            }
            for (i, inc) in edge.stack.into_iter().enumerate() {
                if self.stack[i] == inc {
                    continue;
                }
                // Divergent values must be lane-pure to blend; the
                // incoming edge always carries a real mask (a fall-
                // through with all lanes leaves nothing to park).
                let (Cell::P(a), Cell::P(b), Some(m)) = (self.stack[i].clone(), inc, edge.mask)
                else {
                    return Err(bail);
                };
                let (a, b) = (self.src(a), self.src(b));
                self.stack[i] = Cell::P(PV::S(self.emit(|dst| VOp::Blend { m, a, b, dst })));
            }
            self.cur_mask = match (self.cur_mask, edge.mask) {
                (Some(x), Some(y)) => Some(self.mask(MaskK::Or, x, y)),
                _ => None,
            };
        }
        Ok(())
    }

    /// Hands the current lanes to block `target`: the next block in
    /// order simply stays live, any other edge is parked.
    fn goto(&mut self, target: u32, next: usize) {
        if target as usize != next {
            let edge = Edge {
                mask: self.cur_mask,
                stack: std::mem::take(&mut self.stack),
            };
            self.pending[target as usize].push(edge);
            self.live = false;
        }
    }

    fn block(&mut self, b: &Block, next: usize) -> Result<(), BatchBail> {
        self.vops.push(VOp::Fuel {
            ops: b.fuel as u32,
            m: self.cur_mask,
        });
        for s in &b.steps {
            self.step(s)?;
        }
        let carries = b
            .carry_out
            .iter()
            .map(|e| self.cell(e))
            .collect::<Result<Vec<_>, _>>()?;
        match &b.term {
            Term::Jmp(t) => {
                self.stack = carries;
                self.goto(*t, next);
            }
            Term::Br {
                cond,
                on_false,
                on_true,
            } => {
                let cond = self.pv(cond)?;
                self.stack = carries;
                match cond {
                    // A condition that folded: every live lane goes one way.
                    PV::C(0) => self.goto(*on_false, next),
                    PV::C(_) => self.goto(*on_true, next),
                    PV::S(c) => {
                        // A condition becoming part of mask algebra must
                        // not alias a mutable local column.
                        let c = match c {
                            Src::Local(_) => self.emit(|dst| VOp::Copy { a: c, dst }),
                            c => c,
                        };
                        let (m_then, m_else) = match self.cur_mask {
                            None => {
                                let op = Un::NotB;
                                (c, self.emit(|dst| VOp::Un { op, a: c, dst }))
                            }
                            Some(m) => {
                                (self.mask(MaskK::And, m, c), self.mask(MaskK::AndNot, m, c))
                            }
                        };
                        self.pending[*on_false as usize].push(Edge {
                            mask: Some(m_else),
                            stack: self.stack.clone(),
                        });
                        self.cur_mask = Some(m_then);
                        self.goto(*on_true, next);
                    }
                }
            }
            // Return values are not observable through the batch API,
            // but the tree is still held to the lane-purity rules.
            Term::Ret(e) => {
                self.cell(e)?;
                self.live = false;
            }
            Term::RetC(_) => self.live = false,
        }
        Ok(())
    }

    fn compile(mut self, ir: &Ir) -> Result<BatchEval, BatchBail> {
        self.pending = vec![Vec::new(); ir.blocks.len()];
        for (bi, b) in ir.blocks.iter().enumerate() {
            self.pc = b.entry_pc;
            self.merge_at(bi)?;
            // No lane reaches a block whose every predecessor folded away.
            if self.live {
                self.block(b, bi + 1)?;
            }
        }
        // Forward edges are all consumed by now; a parked one means the
        // bytecode jumped backwards — not vectorizable, not UB.
        if self.live || self.pending.iter().any(|p| !p.is_empty()) {
            return Err(BatchBail::JoinShape { pc: self.pc });
        }
        let gsplats = self
            .pool_init
            .iter()
            .enumerate()
            .filter_map(|(ix, e)| match e {
                PoolEntry::Global(slot) => Some((ix as u16, *slot)),
                PoolEntry::Const(_) => None,
            })
            .collect();
        Ok(BatchEval {
            vops: self.vops,
            n_inputs: self.program.inputs.len(),
            used_inputs: self
                .program
                .used_inputs()
                .iter()
                .enumerate()
                .filter(|(_, &u)| u)
                .map(|(i, _)| i as u16)
                .collect(),
            gsplats,
            regs: vec![Vec::new(); self.n_regs as usize],
            locals: vec![Vec::new(); self.program.n_locals as usize],
            pool: vec![Vec::new(); self.pool_init.len()],
            pool_init: self.pool_init,
            width: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{verify, VerifyLimits};
    use crate::{Instance, Type};

    const BUDGET: u64 = 10_000;

    fn compiled(src: &str, inputs: &[(&str, Type)]) -> Program {
        let v = verify(src, inputs, &VerifyLimits::default()).expect("verifies");
        v.into_parts().0
    }

    /// Runs `rows` through both engines and asserts statics + fuel match
    /// bit-for-bit.
    fn differential(src: &str, inputs: &[(&str, Type)], rows: &[Vec<i64>]) {
        let program = compiled(src, inputs);
        let mut be = BatchEval::compile(&program).expect("program should vectorize");

        let mut scalar = Instance::new(&program);
        let mut scalar_fuel = 0u64;
        for row in rows {
            let out = scalar.run_raw(row, BUDGET).expect("scalar run");
            scalar_fuel += out.fuel_used;
        }

        let mut vector = Instance::new(&program);
        let n = rows.len();
        let mut cols: Vec<Vec<i64>> = vec![Vec::with_capacity(n); inputs.len()];
        for row in rows {
            for (c, v) in cols.iter_mut().zip(row) {
                c.push(*v);
            }
        }
        let col_refs: Vec<&[i64]> = cols.iter().map(|c| c.as_slice()).collect();
        // Split into two uneven batches to cover batch-boundary reuse.
        let cut = n / 3;
        let head: Vec<&[i64]> = col_refs.iter().map(|c| &c[..cut]).collect();
        let tail: Vec<&[i64]> = col_refs.iter().map(|c| &c[cut..]).collect();
        let mut vector_fuel = be.run(&mut vector, &head, cut);
        vector_fuel += be.run(&mut vector, &tail, n - cut);

        assert_eq!(
            scalar.raw_globals(),
            vector.raw_globals(),
            "statics diverge"
        );
        assert_eq!(scalar_fuel, vector_fuel, "fuel diverges");
    }

    fn det_rows(n: usize, width: usize) -> Vec<Vec<i64>> {
        // Deterministic pseudo-random rows (splitmix64).
        let mut s = 0x9e37_79b9_97f4_a7c1_u64;
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as i64
        };
        (0..n)
            .map(|_| (0..width).map(|_| next().rem_euclid(1000)).collect())
            .collect()
    }

    #[test]
    fn counters_minmax_and_gates_match_scalar() {
        let src = r#"
            static int requests = 0;
            static int bytes = 0;
            static int worst = 0;
            static int best = 1000000;
            static int seen_big = 0;
            if (kind == 2 && status == 0) {
                requests = requests + 1;
                bytes = bytes + size;
                worst = max(worst, rtt);
                best = min(best, rtt);
                if (size > 600) { seen_big = 1; }
            }
            return requests;
        "#;
        let inputs = &[
            ("kind", Type::Int),
            ("status", Type::Int),
            ("size", Type::Int),
            ("rtt", Type::Int),
        ];
        let mut rows = det_rows(500, 4);
        for r in rows.iter_mut() {
            r[0] %= 4; // kind hits 2 often
            r[1] %= 2;
        }
        differential(src, inputs, &rows);
    }

    #[test]
    fn locals_branches_and_arithmetic_match_scalar() {
        let src = r#"
            static int total = 0;
            static int spikes = 0;
            int d = end - start;
            if (d < 0) { d = 0 - d; }
            int weighted = d * 3 + size / 8;
            if (weighted > 500 || kind == 7) {
                spikes = spikes + 1;
            }
            total = total + weighted % 97;
            return total;
        "#;
        let inputs = &[
            ("start", Type::Int),
            ("end", Type::Int),
            ("size", Type::Int),
            ("kind", Type::Int),
        ];
        let mut rows = det_rows(333, 4);
        for r in rows.iter_mut() {
            r[3] %= 9;
        }
        differential(src, inputs, &rows);
    }

    #[test]
    fn short_circuit_joins_match_scalar() {
        let src = r#"
            static int hits = 0;
            if (a > 10 && b > 20 || c == 0) {
                hits = hits + a + b;
            }
            return hits;
        "#;
        let inputs = &[("a", Type::Int), ("b", Type::Int), ("c", Type::Int)];
        let mut rows = det_rows(257, 3);
        for r in rows.iter_mut() {
            r[0] %= 30;
            r[1] %= 40;
            r[2] %= 3;
        }
        differential(src, inputs, &rows);
    }

    /// Why `src` (which verifies) is refused by the column backend.
    fn bail(src: &str, inputs: &[(&str, Type)]) -> BatchBail {
        let limits = VerifyLimits::with_max_fuel(BUDGET);
        let p = verify(src, inputs, &limits)
            .expect("verifies")
            .into_parts()
            .0;
        BatchEval::compile(&p).expect_err("must not vectorize")
    }

    // One test per `BatchBail` variant: a refusal always says why.

    #[test]
    fn bail_out_stream() {
        let why = bail(
            "static int n = 0; n = n + 1; if (x > 3) { out(0, 1.0); } return n;",
            &[("x", Type::Int)],
        );
        assert!(matches!(why, BatchBail::Out { pc } if pc > 0), "{why:?}");
        assert!(why.to_string().contains("out()"), "{why}");
    }

    #[test]
    fn bail_non_constant_divisor() {
        let ab = [("a", Type::Int), ("b", Type::Int)];
        let why = bail("static int n = 0; n = n + a / b; return n;", &ab);
        assert_eq!(why, BatchBail::NonConstDivisor { pc: 0 });
    }

    /// The harness's form answers for the program's own plan and a
    /// covering budget only: a budget a row could run out of, or
    /// another program's plan, gets no evaluator.
    #[test]
    fn try_compile_takes_only_the_programs_own_plan_and_bound() {
        let p = compiled(
            "static int n = 0; n = n + 1; return n;",
            &[("x", Type::Int)],
        );
        let bound = p.static_fuel_bound();
        assert!(BatchEval::try_compile(&p, p.merge_plan(), bound).is_some());
        assert!(BatchEval::try_compile(&p, p.merge_plan(), bound - 1).is_none());
        let other = compiled("return x;", &[("x", Type::Int)]);
        assert!(BatchEval::try_compile(&p, other.merge_plan(), bound).is_none());
    }

    #[test]
    fn bail_not_mergeable() {
        // Last write wins: lanes would race on `last`.
        let why = bail(
            "static int last = 0; last = x; return 0;",
            &[("x", Type::Int)],
        );
        assert_eq!(why, BatchBail::NotMergeable);
    }

    #[test]
    fn bail_mutable_read_outside_the_accumulation() {
        // `n` is a sound counter and returning it is fine, but scaling
        // the read needs its per-row value, which lanes do not have.
        let why = bail(
            "static int n = 0; n = n + x; return n * 2;",
            &[("x", Type::Int)],
        );
        assert_eq!(why, BatchBail::MutableRead { slot: 0, pc: 0 });
    }

    #[test]
    fn bail_not_lowered() {
        // Over the lowering's op limit: no IR for either backend.
        let mut src = String::from("static int n = 0;\n");
        for d in 0..crate::ir::MAX_OPS / 4 {
            src.push_str(&format!("n = n + x % {};\n", d % 61 + 2));
        }
        src.push_str("return n;");
        let why = bail(&src, &[("x", Type::Int)]);
        assert_eq!(why, BatchBail::NotLowered(Bail::TooManyOps));
    }

    // `BatchBail::JoinShape` needs hand-assembled bytecode the compiler
    // never emits; its test sits with the other hand-assembled program
    // in `ir.rs`, the one module that may name stack ops.

    #[test]
    fn empty_batch_is_a_no_op() {
        let p = compiled(
            "static int n = 0; n = n + 1; return n;",
            &[("x", Type::Int)],
        );
        let mut be = BatchEval::compile(&p).unwrap();
        let mut inst = Instance::new(&p);
        let empty: &[i64] = &[];
        assert_eq!(be.run(&mut inst, &[empty], 0), 0);
        assert_eq!(inst.raw_globals(), Instance::new(&p).raw_globals());
    }

    #[test]
    fn float_lane_math_matches_scalar_bitwise() {
        let src = r#"
            static int slow = 0;
            double us = dur * 0.001;
            if (us > 1.5) { slow = slow + 1; }
            return slow;
        "#;
        let rows = det_rows(200, 1);
        differential(src, &[("dur", Type::Int)], &rows);
    }
}
