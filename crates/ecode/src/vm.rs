//! The fuel-metered stack VM.

use std::sync::Arc;

use crate::analysis::{MergeClass, MinMaxOp};
use crate::compile::{GlobalInit, Program, Type};
use crate::ir::Bail;
use crate::jit;
use crate::EcodeError;

/// A static's raw bits at instance creation (`f64::to_bits` for doubles).
fn init_raw(init: &GlobalInit) -> i64 {
    match init {
        GlobalInit::Int(v) => *v,
        GlobalInit::Double(v) => v.to_bits() as i64,
        GlobalInit::Bool(v) => *v as i64,
    }
}

/// Why [`Instance::merge_from`] refused to fold two replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The other instance runs a different program (one not built from
    /// this instance's [`Program`] or a clone of it), so its slots are
    /// not this program's slots.
    OtherProgram,
    /// A slot is classified `LastWriteWins` or `Opaque`; the program
    /// must be evaluated on a single instance instead.
    NotShardSafe {
        /// Global slot index.
        slot: usize,
        /// The static variable's name.
        name: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::OtherProgram => f.write_str("the other instance runs a different program"),
            MergeError::NotShardSafe { slot, name } => {
                write!(f, "static \"{name}\" (slot {slot}) is not shard-safe")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Bytecode instructions. Typed variants keep the stack representation a
/// plain 64-bit word (floats stored via `to_bits`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    ConstI(i64),
    ConstF(f64),
    LoadInput(u16),
    LoadGlobal(u16),
    LoadLocal(u16),
    StoreGlobal(u16),
    StoreLocal(u16),
    AddI,
    SubI,
    MulI,
    DivI,
    ModI,
    NegI,
    AddF,
    SubF,
    MulF,
    DivF,
    NegF,
    /// Convert top of stack int → double.
    I2F,
    /// Convert second-of-stack int → double (for promoting a left operand
    /// after the right operand is already pushed).
    I2FUnder,
    EqI,
    NeI,
    LtI,
    LeI,
    GtI,
    GeI,
    EqF,
    NeF,
    LtF,
    LeF,
    GtF,
    GeF,
    NotB,
    AbsI,
    AbsF,
    MinI,
    MinF,
    MaxI,
    MaxF,
    /// Pops value (f64) then slot (i64); appends to the run's outputs.
    Out,
    Jmp(u32),
    JmpIfFalse(u32),
    Pop,
    Ret,
    RetVoid,
}

/// A host-supplied input value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer input.
    Int(i64),
    /// Double input.
    Double(f64),
    /// Boolean input.
    Bool(bool),
}

impl Value {
    fn ty(&self) -> Type {
        match self {
            Value::Int(_) => Type::Int,
            Value::Double(_) => Type::Double,
            Value::Bool(_) => Type::Bool,
        }
    }

    fn raw(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Double(v) => v.to_bits() as i64,
            Value::Bool(v) => *v as i64,
        }
    }
}

/// The result of one program run.
///
/// `outputs` borrows the instance's reusable output arena, so the hot
/// path produces no allocation per run; copy anything you need to keep
/// before running the instance again.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome<'a> {
    /// Value of the executed `return` (0 if the program fell off the end).
    pub ret: i64,
    /// Instructions executed — the host converts this to CPU time and
    /// charges it as monitoring overhead. Identical whether fuel is
    /// metered per basic block (the default) or per op
    /// ([`Instance::run_per_op`]).
    pub fuel_used: u64,
    /// Values published via `out(slot, value)` during this run.
    pub outputs: &'a [(i64, f64)],
}

/// Operand-stack discipline of one opcode: values it reads from the
/// stack, and its net depth change. The load-time pass in
/// [`Instance::new`] folds these over every control-flow path.
fn stack_effect(op: Op) -> (u32, i32) {
    use Op::*;
    match op {
        ConstI(_) | ConstF(_) | LoadInput(_) | LoadGlobal(_) | LoadLocal(_) => (0, 1),
        StoreGlobal(_) | StoreLocal(_) | Pop => (1, -1),
        AddI | SubI | MulI | DivI | ModI | AddF | SubF | MulF | DivF | EqI | NeI | LtI | LeI
        | GtI | GeI | EqF | NeF | LtF | LeF | GtF | GeF | MinI | MinF | MaxI | MaxF => (2, -1),
        NegI | NegF | I2F | NotB | AbsI | AbsF => (1, 0),
        I2FUnder => (2, 0),
        Out => (2, -2),
        Jmp(_) => (0, 0),
        JmpIfFalse(_) | Ret => (1, -1),
        RetVoid => (0, 0),
    }
}

/// Load-time bytecode validation: walks every control-flow path once,
/// proving (1) all jump targets and fall-throughs stay inside `code`,
/// (2) the operand stack never underflows and has one consistent depth
/// at every pc, and (3) every input/global/local operand index is in
/// bounds. Returns the maximum operand-stack depth.
///
/// The compiler upholds all of this by construction; validating it here
/// turns that contract into a checked invariant the interpreter can
/// rely on: its `expect`s and indexing, and the compiled tier's, can
/// then only fail on a bug in this crate. A violation is a compiler bug
/// ([`Program`] cannot be built outside this crate), so it panics at
/// instance creation rather than surfacing mid-run.
///
/// Also returns the per-pc entry depths (`-1` = unreachable): the
/// compiled tier seeds its cross-block carry tracking from them.
pub(crate) fn validate(program: &Program) -> (usize, Vec<i32>) {
    let code = program.code();
    assert!(!code.is_empty(), "E-Code compiler emitted no code");
    let n_inputs = program.n_inputs();
    let n_globals = program.globals().len();
    let n_locals = program.n_locals() as usize;
    // depth_at[pc]: operand-stack depth on entry to pc (-1 = not yet seen).
    let mut depth_at = vec![-1i32; code.len()];
    let mut work = vec![(0usize, 0i32)];
    let mut max_depth = 0i32;
    while let Some((pc, depth)) = work.pop() {
        assert!(pc < code.len(), "E-Code control flow escapes the code");
        if depth_at[pc] >= 0 {
            assert_eq!(
                depth_at[pc], depth,
                "E-Code stack depth diverges at pc {pc}"
            );
            continue;
        }
        depth_at[pc] = depth;
        let op = code[pc];
        let (reads, delta) = stack_effect(op);
        assert!(
            depth >= reads as i32,
            "E-Code operand stack underflows at pc {pc}"
        );
        let next = depth + delta;
        max_depth = max_depth.max(next);
        match op {
            Op::LoadInput(i) => assert!((i as usize) < n_inputs, "input index out of range"),
            Op::LoadGlobal(i) | Op::StoreGlobal(i) => {
                assert!((i as usize) < n_globals, "global index out of range")
            }
            Op::LoadLocal(i) | Op::StoreLocal(i) => {
                assert!((i as usize) < n_locals, "local index out of range")
            }
            _ => {}
        }
        match op {
            Op::Jmp(t) => work.push((t as usize, next)),
            Op::JmpIfFalse(t) => {
                work.push((t as usize, next));
                work.push((pc + 1, next));
            }
            Op::Ret | Op::RetVoid => {}
            _ => work.push((pc + 1, next)),
        }
    }
    (max_depth as usize, depth_at)
}

/// Which execution tier an [`Instance`] selected at creation.
///
/// Tier selection is an implementation detail for correctness (all
/// tiers are bit-identical on every observable) but an operational fact
/// hosts report: a CPA running compiled costs measurably less per
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// Specialized basic blocks ([`crate::jit`]); a block falls back to
    /// the checked per-op interpreter mid-run when it has no specialized
    /// form or the remaining fuel budget cannot cover it.
    Compiled,
    /// Not compiled: every block runs on the checked per-op
    /// interpreter. (The name predates the interpreter it now denotes;
    /// the benchmark harness matches on it, so the spelling stays.)
    Fused,
}

/// Per-analyzer program state: the persistent `static` variables plus
/// the reusable run arenas (operand stack, locals, the inputs
/// [`run`](Instance::run) marshals, outputs).
/// Create one instance per installed CPA; run it once per event — after
/// the first run the hot path never allocates.
#[derive(Debug, Clone)]
pub struct Instance {
    program: Program,
    globals: Vec<i64>,
    /// The compiled tier, when the program lowered
    /// ([`Program::lowered`]) — `None` means every run uses the checked
    /// interpreter. One graph per program, built by its first instance
    /// and shared by every instance.
    compiled: Option<Arc<jit::CompiledProgram>>,
    stack: Vec<i64>,
    locals: Vec<i64>,
    raw_inputs: Vec<i64>,
    outputs: Vec<(i64, f64)>,
}

impl Instance {
    /// Creates an instance with statics at their declared initial values.
    /// The instance shares the program (a clone is a reference count),
    /// and the first instance of a program builds the compiled graph
    /// every later one shares.
    ///
    /// Every program the lowering accepts runs on the compiled
    /// tier; the rest run on the checked per-op interpreter. Both are
    /// bit-identical on every observable ([`tier`](Instance::tier)
    /// reports which one was selected,
    /// [`compile_bail`](Instance::compile_bail) why).
    pub fn new(program: &Program) -> Self {
        Self::build(program, true)
    }

    /// Creates an instance that is never compiled: every run uses the
    /// checked per-op interpreter, the tier [`ExecTier::Fused`] names.
    /// The differential tests and benches use this to run one program
    /// on both tiers; hosts want [`new`](Instance::new).
    pub fn new_fused(program: &Program) -> Self {
        Self::build(program, false)
    }

    fn build(program: &Program, compile: bool) -> Self {
        let globals = program
            .globals()
            .iter()
            .map(|(_, _, i)| init_raw(i))
            .collect();
        let lowered = program.lowered();
        Instance {
            program: program.clone(),
            globals,
            compiled: if compile {
                lowered.compiled().cloned()
            } else {
                None
            },
            stack: Vec::with_capacity(lowered.max_stack),
            locals: Vec::new(),
            raw_inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// What the program compiled to, `None` when the instance is not
    /// compiled: whether it runs as the whole-program straight-line
    /// path, then the `(specialized, reachable)` counts of blocks that
    /// have a monomorphized form among those a run with a covering
    /// budget can enter (the rest run on the per-op interpreter).
    pub fn compiled_shape(&self) -> Option<(bool, usize, usize)> {
        let cp = self.compiled.as_deref()?;
        let (specialized, reachable) = cp.specialization;
        Some((cp.whole.is_some(), specialized, reachable))
    }

    /// Which execution tier [`run`](Instance::run) uses for this
    /// instance.
    pub fn tier(&self) -> ExecTier {
        if self.compiled.is_some() {
            ExecTier::Compiled
        } else {
            ExecTier::Fused
        }
    }

    /// Why the program could not be lowered — the reason
    /// [`new`](Instance::new) selected [`ExecTier::Fused`] — or `None`
    /// when it was (an instance built with
    /// [`new_fused`](Instance::new_fused) is interpreted by request, not
    /// by bail).
    pub fn compile_bail(&self) -> Option<Bail> {
        self.program.lowered().ir.as_ref().err().copied()
    }

    /// Resets the `static` variables to their declared initial values, as
    /// if the instance were freshly created — without reallocating the
    /// program or arenas. Hosts that want fresh statics per evaluation
    /// (e.g. subscription data filters) call this before each run.
    pub fn reset_globals(&mut self) {
        for (g, (_, _, init)) in self.globals.iter_mut().zip(self.program.globals().iter()) {
            *g = init_raw(init);
        }
    }

    /// Raw bits of every static, in slot order (`f64::to_bits` for
    /// doubles). This is the representation shard-differential tests
    /// compare: bitwise, so `NaN == NaN` and `0.0 != -0.0`.
    pub fn raw_globals(&self) -> &[i64] {
        &self.globals
    }

    /// Folds another replica's statics into this instance per the
    /// program's own [`Program::merge_plan`] — the "spend the proof"
    /// half of the shard-safety analysis. Both instances must be built
    /// from one [`Program`] (or clones of it), so the plan that proves
    /// the fold is the one both replicas ran.
    ///
    /// The folds are exact, not approximate: `Counter` sums deltas with
    /// wrapping arithmetic, `MinMax` takes the integer min/max,
    /// `GatedWrite` keeps the written constant if either side stored it,
    /// `ReadOnly` keeps the (identical) initial value. Each is
    /// associative and commutative on raw bits, and a fresh instance is
    /// the fold's identity — so any shard count and any merge order
    /// reproduce the sequential statics bit-for-bit (assuming trap-free
    /// runs).
    ///
    /// # Errors
    ///
    /// * [`MergeError::OtherProgram`] if `other` runs a different
    ///   program, even one with the same static layout.
    /// * [`MergeError::NotShardSafe`] if any slot is `LastWriteWins` or
    ///   `Opaque` — callers must fall back to single-instance evaluation.
    pub fn merge_from(&mut self, other: &Instance) -> Result<(), MergeError> {
        if !self.program.is(&other.program) {
            return Err(MergeError::OtherProgram);
        }
        let plan = self.program.merge_plan();
        // Validate everything before mutating anything: a failed merge
        // must not leave `self` half-folded.
        for (slot, sp) in plan.slots.iter().enumerate() {
            if !sp.class.shard_safe() {
                return Err(MergeError::NotShardSafe {
                    slot,
                    name: sp.name.clone(),
                });
            }
        }
        for (slot, sp) in plan.slots.iter().enumerate() {
            let a = self.globals[slot];
            let b = other.globals[slot];
            let init = init_raw(&self.program.globals()[slot].2);
            self.globals[slot] = match &sp.class {
                MergeClass::ReadOnly => a,
                // a and b each hold init + (their shard's delta sum).
                MergeClass::Counter => a.wrapping_add(b).wrapping_sub(init),
                MergeClass::MinMax(MinMaxOp::Min) => a.min(b),
                MergeClass::MinMax(MinMaxOp::Max) => a.max(b),
                // Whichever side left init wrote the gated constant (or
                // both still hold init and the pick is a no-op).
                MergeClass::GatedWrite { .. } => {
                    if a != init {
                        a
                    } else {
                        b
                    }
                }
                MergeClass::LastWriteWins | MergeClass::Opaque { .. } => {
                    unreachable!("rejected by the shard_safe pre-check")
                }
            };
        }
        Ok(())
    }

    /// Reads a static variable's current value by name (for host-side
    /// inspection of accumulated state).
    pub fn global(&self, name: &str) -> Option<Value> {
        let idx = self
            .program
            .globals()
            .iter()
            .position(|(n, _, _)| n == name)?;
        let (_, ty, _) = &self.program.globals()[idx];
        let raw = self.globals[idx];
        Some(match ty {
            Type::Int => Value::Int(raw),
            Type::Double => Value::Double(f64::from_bits(raw as u64)),
            Type::Bool => Value::Bool(raw != 0),
        })
    }

    /// Runs the program once over `inputs` with the given fuel budget.
    ///
    /// On the compiled tier fuel is metered per basic block: on entering
    /// a block whose straight-line cost fits the remaining budget, the
    /// per-op fuel comparison is skipped for the whole block. `fuel_used`
    /// and the abort point are bit-identical to per-op metering
    /// ([`run_per_op`](Instance::run_per_op) is the reference).
    ///
    /// # Errors
    ///
    /// * [`EcodeError::BadInputs`] if inputs don't match the declaration.
    /// * [`EcodeError::OutOfFuel`] if the budget is exhausted (statics may
    ///   have been partially updated; a CPA host counts the abort and
    ///   charges the whole budget).
    /// * [`EcodeError::DivideByZero`] on integer division/modulo by zero.
    pub fn run(&mut self, inputs: &[Value], fuel: u64) -> Result<RunOutcome<'_>, EcodeError> {
        self.marshal(inputs)?;
        self.execute(None, fuel, false)
    }

    /// Reference path: the checked interpreter on every block, whatever
    /// tier the instance selected — fuel charged and checked before every
    /// opcode. Exists so tests can pin `run`'s exactness claim; hosts
    /// should call [`run`](Instance::run).
    pub fn run_per_op(
        &mut self,
        inputs: &[Value],
        fuel: u64,
    ) -> Result<RunOutcome<'_>, EcodeError> {
        self.marshal(inputs)?;
        self.execute(None, fuel, true)
    }

    /// Runs the program over pre-marshalled raw input bits, skipping the
    /// per-value type check. The caller owns the contract
    /// [`run`](Instance::run) enforces dynamically: `raw[i]` must hold
    /// the bit pattern of declared input `i` (ints/bools as-is, doubles
    /// via `f64::to_bits`). Hot ingest paths that produce columns of raw
    /// bits use this to avoid building `Value`s per record. The run
    /// reads `raw` where it lies: nothing is copied into the instance.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Instance::run), except `BadInputs` only triggers on
    /// a length mismatch.
    #[inline]
    pub fn run_raw(&mut self, raw: &[i64], fuel: u64) -> Result<RunOutcome<'_>, EcodeError> {
        if raw.len() != self.program.n_inputs() {
            return Err(bad_arity(self.program.n_inputs(), raw.len()));
        }
        self.execute(Some(raw), fuel, false)
    }

    /// One pass validates input types and marshals the raw bits into the
    /// reusable `raw_inputs` arena.
    fn marshal(&mut self, inputs: &[Value]) -> Result<(), EcodeError> {
        if inputs.len() != self.program.n_inputs() {
            return Err(bad_arity(self.program.n_inputs(), inputs.len()));
        }
        self.raw_inputs.clear();
        for (v, (name, ty)) in inputs.iter().zip(self.program.inputs()) {
            if v.ty() != ty {
                return Err(EcodeError::BadInputs(format!(
                    "input {name:?} expects {ty:?}, got {:?}",
                    v.ty()
                )));
            }
            self.raw_inputs.push(v.raw());
        }
        Ok(())
    }

    /// Direct mutable view of the static (global) slots, for the batch
    /// evaluator's masked reductions. Crate-internal: external callers go
    /// through [`raw_globals`](Instance::raw_globals) / `merge_from`.
    pub(crate) fn globals_mut(&mut self) -> &mut [i64] {
        &mut self.globals
    }

    /// One event on the tier selected at creation, or — for the
    /// `per_op` reference — on the checked interpreter regardless. The
    /// inputs are `raw` when the caller holds them, else the ones
    /// [`marshal`](Instance::marshal) left in the arena. Arenas are
    /// reused, so post-warmup this performs no heap allocation.
    #[inline]
    fn execute(
        &mut self,
        raw: Option<&[i64]>,
        fuel: u64,
        per_op: bool,
    ) -> Result<RunOutcome<'_>, EcodeError> {
        let Instance {
            program,
            globals,
            compiled,
            stack,
            locals,
            raw_inputs,
            outputs,
        } = self;
        let cp = compiled.as_deref().filter(|_| !per_op);
        let inputs = raw.unwrap_or(raw_inputs);
        outputs.clear();
        // Whole-program fast path: valid only when the budget covers the
        // worst-case path, so no fuel abort is reachable anywhere and the
        // per-block bookkeeping can be skipped outright. Its forms read
        // and write no locals, so there are none to reset.
        let whole = cp.and_then(|cp| cp.whole.as_ref());
        let (ret, fuel_used) = match whole.filter(|w| fuel >= w.max_fuel) {
            Some(w) => w.exec(&mut jit::Ctx {
                globals,
                locals: &mut [],
                inputs,
                outputs: &mut *outputs,
            }),
            None => run_blocks(cp, program, stack, locals, globals, inputs, outputs, fuel)?,
        };
        Ok(RunOutcome {
            ret,
            fuel_used,
            outputs,
        })
    }

    /// Runs the program once per row of a row-major window of raw input
    /// bits (`stride` = the declared input count, rows back to back),
    /// invoking `sink` with each run's outcome in row order: a loop of
    /// [`run_raw`](Instance::run_raw) over `rows.chunks_exact(stride)`,
    /// each row through the one execution path with the same per-row
    /// fuel budget, trap points and statics evolution.
    ///
    /// # Errors
    ///
    /// * [`EcodeError::BadInputs`] if the program declares no inputs or
    ///   `rows.len()` is not a multiple of the declared input count
    ///   (nothing is executed).
    /// * Any error a per-row [`run_raw`](Instance::run_raw) sequence
    ///   would produce, at the same row: rows before it have executed
    ///   (and were sunk); statics reflect the partial window, exactly as
    ///   if the caller had looped and stopped at the first error.
    pub fn run_raw_batch<F>(
        &mut self,
        rows: &[i64],
        fuel: u64,
        mut sink: F,
    ) -> Result<(), EcodeError>
    where
        F: FnMut(RunOutcome<'_>),
    {
        let stride = self.program.n_inputs();
        if stride == 0 || !rows.len().is_multiple_of(stride) {
            return Err(EcodeError::BadInputs(format!(
                "batch of {} raw values is not rows of {} inputs",
                rows.len(),
                stride
            )));
        }
        for row in rows.chunks_exact(stride) {
            sink(self.execute(Some(row), fuel, false)?);
        }
        Ok(())
    }
}

/// The error for `got` inputs where the program declares `expected`:
/// kept out of line, so a run's fast path does not carry its formatting.
#[cold]
#[inline(never)]
fn bad_arity(expected: usize, got: usize) -> EcodeError {
    EcodeError::BadInputs(format!("expected {expected} inputs, got {got}"))
}

/// One scalar run on the per-block driver, kept out of line so the
/// whole-program path's caller carries none of it: the locals reset (a
/// program without locals never sizes the arena, so it has nothing to
/// reset), one context, then [`drive`].
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn run_blocks(
    cp: Option<&jit::CompiledProgram>,
    program: &Program,
    stack: &mut Vec<i64>,
    locals: &mut Vec<i64>,
    globals: &mut [i64],
    inputs: &[i64],
    outputs: &mut Vec<(i64, f64)>,
    fuel: u64,
) -> Result<(i64, u64), EcodeError> {
    if program.n_locals() > 0 {
        locals.clear();
        locals.resize(program.n_locals() as usize, 0);
    }
    let mut ctx = jit::Ctx {
        globals,
        locals,
        inputs,
        outputs,
    };
    drive(cp, program.code(), stack, &mut ctx, fuel)
}

/// One event, block by block: the loop behind every run that does not
/// take the whole-program path (its one caller is [`run_blocks`], the
/// out-of-line half of [`Instance::execute`]). Returns
/// `(ret, fuel_used)`; `out()` values land in `ctx.outputs`.
///
/// With a compiled program this is direct-threaded block chaining with
/// block-granular fuel precharge: a specialized block whose
/// straight-line cost fits the remaining budget is charged up front and
/// run compiled; one that doesn't fit, or has no specialized form, runs
/// on the checked interpreter instead, so abort points, `fuel_used` and
/// partial statics stay bit-identical to
/// [`run_per_op`](Instance::run_per_op). Without one, every block runs
/// on the interpreter.
fn drive(
    cp: Option<&jit::CompiledProgram>,
    code: &[Op],
    stack: &mut Vec<i64>,
    ctx: &mut jit::Ctx<'_>,
    fuel: u64,
) -> Result<(i64, u64), EcodeError> {
    let mut fuel_used = 0u64;
    stack.clear();
    let Some(cp) = cp else {
        let mut pc = 0usize;
        loop {
            match exec_block_checked(code, pc, fuel, &mut fuel_used, stack, ctx)? {
                BlockExit::Next(next) => pc = next,
                BlockExit::Ret(ret) => return Ok((ret, fuel_used)),
            }
        }
    };
    let mut bi = 0usize;
    loop {
        let b = &cp.blocks[bi];
        if let Some(node) = b.spec.as_ref().filter(|_| fuel_used + b.fuel <= fuel) {
            debug_assert!(stack.is_empty(), "a specialized block takes no carries");
            // Precharge the block's whole span (chain-merged successors
            // included) and run it. Every exit is a real terminator and
            // specialized code cannot trap, so `fuel_used` at any
            // observable point matches per-op metering bit for bit. The
            // run may additionally charge the specialized successors it
            // continues into against the remaining budget — identical
            // decisions to this loop's own precharge — and reports them
            // in `extra`.
            fuel_used += b.fuel;
            let (extra, exit) = cp.run_spec(node, ctx, fuel - fuel_used);
            fuel_used += extra;
            match exit {
                jit::Exit::Jump(n) => bi = n as usize,
                jit::Exit::Ret(ret) => return Ok((ret, fuel_used)),
            }
        } else {
            // No specialized form, or a budget too tight for a
            // precharge: run one original-granularity block per-op with
            // a fuel check before every opcode (merged spans re-enter
            // the loop at each original boundary, re-deciding per
            // block). Values a block leaves for its successor stay on
            // the operand stack: only another interpreted block reads
            // them, since a specialized one neither takes nor leaves any.
            let opc = b.entry_pc as usize;
            match exec_block_checked(code, opc, fuel, &mut fuel_used, stack, ctx)? {
                BlockExit::Ret(ret) => return Ok((ret, fuel_used)),
                BlockExit::Next(pc) => {
                    // Checked map: a corrupted pc fails loudly instead
                    // of reaching a wrong block.
                    let nb = cp.pc2block[pc];
                    assert!(nb != u32::MAX, "block entry has no compiled twin");
                    bi = nb as usize;
                }
            }
        }
    }
}

/// How [`exec_block_checked`] left its block.
enum BlockExit {
    /// Control continues at this original pc (a block entry).
    Next(usize),
    /// The program returned this value.
    Ret(i64),
}

/// The interpreter: executes one basic block (from `pc` through its real
/// terminator) of bytecode, charging and checking fuel before every
/// opcode. This is the semantics every other executor is held to — the
/// [`run_per_op`](Instance::run_per_op) reference, the not-compiled
/// tier and the compiled driver's tight-budget fallback are all loops
/// over it. Safe code throughout; [`validate`] is why its indexing and
/// `expect`s cannot fail.
fn exec_block_checked(
    code: &[Op],
    mut pc: usize,
    fuel: u64,
    fuel_used: &mut u64,
    stack: &mut Vec<i64>,
    ctx: &mut jit::Ctx<'_>,
) -> Result<BlockExit, EcodeError> {
    macro_rules! popi {
        () => {
            stack.pop().expect("validate proved no stack underflow")
        };
    }
    macro_rules! popf {
        () => {
            f64::from_bits(popi!() as u64)
        };
    }
    macro_rules! pushf {
        ($v:expr) => {
            stack.push(($v).to_bits() as i64)
        };
    }
    macro_rules! bini {
        ($f:ident) => {{
            let r = popi!();
            let l = popi!();
            stack.push(l.$f(r));
        }};
    }
    macro_rules! binf {
        ($op:tt) => {{ let r = popf!(); let l = popf!(); pushf!(l $op r); }};
    }
    macro_rules! cmpi {
        ($op:tt) => {{ let r = popi!(); let l = popi!(); stack.push((l $op r) as i64); }};
    }
    macro_rules! cmpf {
        ($op:tt) => {{ let r = popf!(); let l = popf!(); stack.push((l $op r) as i64); }};
    }
    loop {
        *fuel_used += 1;
        if *fuel_used > fuel {
            return Err(EcodeError::OutOfFuel);
        }
        let op = code[pc];
        pc += 1;
        match op {
            Op::ConstI(v) => stack.push(v),
            Op::ConstF(v) => pushf!(v),
            Op::LoadInput(i) => stack.push(ctx.inputs[i as usize]),
            Op::LoadGlobal(i) => stack.push(ctx.globals[i as usize]),
            Op::LoadLocal(i) => stack.push(ctx.locals[i as usize]),
            Op::StoreGlobal(i) => ctx.globals[i as usize] = popi!(),
            Op::StoreLocal(i) => ctx.locals[i as usize] = popi!(),
            Op::AddI => bini!(wrapping_add),
            Op::SubI => bini!(wrapping_sub),
            Op::MulI => bini!(wrapping_mul),
            Op::DivI => {
                let r = popi!();
                let l = popi!();
                if r == 0 {
                    return Err(EcodeError::DivideByZero);
                }
                stack.push(l.wrapping_div(r));
            }
            Op::ModI => {
                let r = popi!();
                let l = popi!();
                if r == 0 {
                    return Err(EcodeError::DivideByZero);
                }
                stack.push(l.wrapping_rem(r));
            }
            Op::NegI => {
                let v = popi!();
                stack.push(v.wrapping_neg());
            }
            Op::AddF => binf!(+),
            Op::SubF => binf!(-),
            Op::MulF => binf!(*),
            Op::DivF => binf!(/),
            Op::NegF => {
                let v = popf!();
                pushf!(-v);
            }
            Op::I2F => {
                let v = popi!();
                pushf!(v as f64);
            }
            Op::I2FUnder => {
                let top = popi!();
                let under = popi!();
                pushf!(under as f64);
                stack.push(top);
            }
            Op::EqI => cmpi!(==),
            Op::NeI => cmpi!(!=),
            Op::LtI => cmpi!(<),
            Op::LeI => cmpi!(<=),
            Op::GtI => cmpi!(>),
            Op::GeI => cmpi!(>=),
            Op::EqF => cmpf!(==),
            Op::NeF => cmpf!(!=),
            Op::LtF => cmpf!(<),
            Op::LeF => cmpf!(<=),
            Op::GtF => cmpf!(>),
            Op::GeF => cmpf!(>=),
            Op::NotB => {
                let v = popi!();
                stack.push((v == 0) as i64);
            }
            Op::AbsI => {
                let v = popi!();
                stack.push(v.wrapping_abs());
            }
            Op::AbsF => {
                let v = popf!();
                pushf!(v.abs());
            }
            Op::MinI => bini!(min),
            Op::MinF => {
                let r = popf!();
                let l = popf!();
                pushf!(l.min(r));
            }
            Op::MaxI => bini!(max),
            Op::MaxF => {
                let r = popf!();
                let l = popf!();
                pushf!(l.max(r));
            }
            Op::Out => {
                let value = popf!();
                let slot = popi!();
                ctx.outputs.push((slot, value));
            }
            Op::Pop => {
                popi!();
            }
            Op::Jmp(t) => return Ok(BlockExit::Next(t as usize)),
            Op::JmpIfFalse(t) => {
                let c = popi!();
                return Ok(BlockExit::Next(if c == 0 { t as usize } else { pc }));
            }
            Op::Ret => return Ok(BlockExit::Ret(popi!())),
            Op::RetVoid => return Ok(BlockExit::Ret(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Owned snapshot of a [`RunOutcome`] (which borrows its instance).
    struct OwnedOutcome {
        ret: i64,
        outputs: Vec<(i64, f64)>,
    }

    fn run_once(src: &str, inputs: &[(&str, Type)], vals: &[Value]) -> OwnedOutcome {
        let p = Program::compile(src, inputs).expect("compiles");
        let mut inst = Instance::new(&p);
        let r = inst.run(vals, 100_000).expect("runs");
        OwnedOutcome {
            ret: r.ret,
            outputs: r.outputs.to_vec(),
        }
    }

    #[test]
    fn arithmetic_and_return() {
        assert_eq!(run_once("return 2 + 3 * 4;", &[], &[]).ret, 14);
        assert_eq!(run_once("return (2 + 3) * 4;", &[], &[]).ret, 20);
        assert_eq!(run_once("return 7 / 2;", &[], &[]).ret, 3);
        assert_eq!(run_once("return 7 % 3;", &[], &[]).ret, 1);
        assert_eq!(run_once("return -5;", &[], &[]).ret, -5);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(run_once("return 1 < 2 && 3 > 2;", &[], &[]).ret, 1);
        assert_eq!(run_once("return 1 > 2 || 2 >= 2;", &[], &[]).ret, 1);
        assert_eq!(run_once("return !(1 == 1);", &[], &[]).ret, 0);
        assert_eq!(run_once("return 1.5 < 2.0;", &[], &[]).ret, 1);
    }

    #[test]
    fn short_circuit_avoids_rhs() {
        // RHS would divide by zero; short-circuit must skip it.
        let out = run_once("int z = 0; return false && 1 / z == 0;", &[], &[]);
        assert_eq!(out.ret, 0);
        let out = run_once("int z = 0; return true || 1 / z == 0;", &[], &[]);
        assert_eq!(out.ret, 1);
    }

    #[test]
    fn mixed_arithmetic_promotes() {
        assert_eq!(run_once("return 1 + 1.5 > 2.4;", &[], &[]).ret, 1);
        assert_eq!(run_once("return 1.5 + 1 > 2.4;", &[], &[]).ret, 1);
        // double return is rejected:
        assert!(matches!(
            Program::compile("return 1.5;", &[]),
            Err(EcodeError::Types { .. })
        ));
    }

    #[test]
    fn locals_and_if_else() {
        let src = r#"
            int x = 10;
            int y = 0;
            if (x > 5) { y = 1; } else { y = 2; }
            return y;
        "#;
        assert_eq!(run_once(src, &[], &[]).ret, 1);
    }

    #[test]
    fn else_if_chain() {
        let src = r#"
            int grade = 0;
            if (score > 90) { grade = 1; }
            else if (score > 50) { grade = 2; }
            else { grade = 3; }
            return grade;
        "#;
        let p = Program::compile(src, &[("score", Type::Int)]).unwrap();
        let mut i = Instance::new(&p);
        assert_eq!(i.run(&[Value::Int(95)], 1000).unwrap().ret, 1);
        assert_eq!(i.run(&[Value::Int(70)], 1000).unwrap().ret, 2);
        assert_eq!(i.run(&[Value::Int(10)], 1000).unwrap().ret, 3);
    }

    #[test]
    fn statics_persist_across_runs() {
        let src = "static int n = 0; n = n + 1; return n;";
        let p = Program::compile(src, &[]).unwrap();
        let mut i = Instance::new(&p);
        for expect in 1..=5 {
            assert_eq!(i.run(&[], 1000).unwrap().ret, expect);
        }
        assert_eq!(i.global("n"), Some(Value::Int(5)));
        // A fresh instance starts over.
        let mut j = Instance::new(&p);
        assert_eq!(j.run(&[], 1000).unwrap().ret, 1);
    }

    #[test]
    fn inputs_are_read_only() {
        assert!(matches!(
            Program::compile("x = 1;", &[("x", Type::Int)]),
            Err(EcodeError::Types { .. })
        ));
    }

    #[test]
    fn out_collects_values() {
        let src = "out(0, 1.5); out(3, 2 + 2); return 0;";
        let outcome = run_once(src, &[], &[]);
        assert_eq!(outcome.outputs, vec![(0, 1.5), (3, 4.0)]);
    }

    #[test]
    fn builtins() {
        assert_eq!(run_once("return abs(-4);", &[], &[]).ret, 4);
        assert_eq!(run_once("return min(3, 7);", &[], &[]).ret, 3);
        assert_eq!(run_once("return max(3, 7);", &[], &[]).ret, 7);
        assert_eq!(run_once("return min(2.5, 2) < 2.1;", &[], &[]).ret, 1);
    }

    #[test]
    fn fuel_exhaustion_aborts() {
        let p = Program::compile("static int n = 0; n = n + 1; return n;", &[]).unwrap();
        let mut i = Instance::new(&p);
        assert_eq!(i.run(&[], 2), Err(EcodeError::OutOfFuel));
        // A generous budget succeeds and reports usage.
        let outcome = i.run(&[], 1000).unwrap();
        assert!(outcome.fuel_used > 2 && outcome.fuel_used < 20);
    }

    #[test]
    fn divide_by_zero_is_caught() {
        let p = Program::compile("return 1 / x;", &[("x", Type::Int)]).unwrap();
        let mut i = Instance::new(&p);
        assert_eq!(i.run(&[Value::Int(0)], 1000), Err(EcodeError::DivideByZero));
        assert_eq!(i.run(&[Value::Int(2)], 1000).unwrap().ret, 0);
        let p = Program::compile("return 5 % x;", &[("x", Type::Int)]).unwrap();
        assert_eq!(
            Instance::new(&p).run(&[Value::Int(0)], 1000),
            Err(EcodeError::DivideByZero)
        );
    }

    #[test]
    fn bad_inputs_rejected() {
        let p = Program::compile("return x;", &[("x", Type::Int)]).unwrap();
        let mut i = Instance::new(&p);
        assert!(matches!(i.run(&[], 100), Err(EcodeError::BadInputs(_))));
        assert!(matches!(
            i.run(&[Value::Double(1.0)], 100),
            Err(EcodeError::BadInputs(_))
        ));
    }

    #[test]
    fn undeclared_variable_is_type_error() {
        assert!(matches!(
            Program::compile("return nope;", &[]),
            Err(EcodeError::Types { .. })
        ));
    }

    #[test]
    fn redeclaration_rejected() {
        assert!(matches!(
            Program::compile("int x = 1; int x = 2;", &[]),
            Err(EcodeError::Types { .. })
        ));
    }

    #[test]
    fn static_initializer_must_be_constant() {
        assert!(matches!(
            Program::compile("static int n = 1 + 2;", &[]),
            Err(EcodeError::Types { .. })
        ));
        // Negated literals are fine.
        let p = Program::compile("static int n = -5; return n;", &[]).unwrap();
        assert_eq!(Instance::new(&p).run(&[], 100).unwrap().ret, -5);
        // Int literal initializing a double is fine.
        let p = Program::compile("static double d = 2; return d > 1.5;", &[]).unwrap();
        assert_eq!(Instance::new(&p).run(&[], 100).unwrap().ret, 1);
    }

    #[test]
    fn running_average_analyzer_shape() {
        // The canonical CPA: per-class running average latency.
        let src = r#"
            static int count = 0;
            static double total = 0.0;
            if (kind == 8) {
                count = count + 1;
                total = total + latency_us;
                out(0, total / count);
            }
            return count;
        "#;
        let p =
            Program::compile(src, &[("kind", Type::Int), ("latency_us", Type::Double)]).unwrap();
        let mut i = Instance::new(&p);
        i.run(&[Value::Int(8), Value::Double(100.0)], 1000).unwrap();
        i.run(&[Value::Int(3), Value::Double(999.0)], 1000).unwrap(); // filtered
        let r = i.run(&[Value::Int(8), Value::Double(200.0)], 1000).unwrap();
        assert_eq!(r.ret, 2);
        assert_eq!(r.outputs, vec![(0, 150.0)]);
    }

    /// A trap leaves the instance usable on either tier: arenas are reset
    /// per run, not poisoned by the run that aborted.
    #[test]
    fn instance_is_reusable_after_a_trap() {
        let p = Program::compile(
            "static int n = 0; n = n + size + size + size; return 10 / n;",
            &[("size", Type::Int)],
        )
        .unwrap();
        for mut inst in [Instance::new(&p), Instance::new_fused(&p)] {
            assert_eq!(inst.run(&[Value::Int(1)], 1), Err(EcodeError::OutOfFuel));
            assert_eq!(
                inst.run_per_op(&[Value::Int(1)], 1),
                Err(EcodeError::OutOfFuel)
            );
            assert_eq!(
                inst.run(&[Value::Int(0)], 1_000),
                Err(EcodeError::DivideByZero)
            );
            assert_eq!(inst.run(&[Value::Int(1)], 1_000).unwrap().ret, 3);
        }
    }

    /// `reset_globals` restores the declared initial values while the
    /// run arenas keep being reused, on either tier.
    #[test]
    fn reset_globals_and_arena_reuse() {
        let p = Program::compile(
            "static int n = 0; n = n + 1; out(0, n); return n;",
            &[("size", Type::Int)],
        )
        .unwrap();
        for mut inst in [Instance::new(&p), Instance::new_fused(&p)] {
            for _ in 0..3 {
                inst.run(&[Value::Int(0)], 1_000).unwrap();
            }
            assert_eq!(inst.global("n"), Some(Value::Int(3)));
            inst.reset_globals();
            let r = inst.run(&[Value::Int(0)], 1_000).unwrap();
            assert_eq!((r.ret, r.outputs), (1, &[(0, 1.0)][..]));
        }
    }

    /// Another program's instance is refused even when its static layout
    /// matches slot for slot: its statics mean something else, so no
    /// fold of them is this program's.
    #[test]
    fn merge_from_refuses_another_programs_instance() {
        let counter = Program::compile("static int n = 0; n = n + 1; return n;", &[]).unwrap();
        let max = Program::compile("static int n = 0; n = max(n, 7); return n;", &[]).unwrap();
        let (mut a, mut b) = (Instance::new(&counter), Instance::new(&max));
        a.run(&[], 100).unwrap();
        b.run(&[], 100).unwrap();
        assert_eq!(a.merge_from(&b), Err(MergeError::OtherProgram));
        assert_eq!(
            a.raw_globals(),
            &[1],
            "a refused merge leaves the statics alone"
        );
        // A clone of the program is the same program.
        let mut c = Instance::new(&counter.clone());
        c.run(&[], 100).unwrap();
        a.merge_from(&c).unwrap();
        assert_eq!(a.raw_globals(), &[2]);
    }

    /// The compiled graph is built by a program's first instance, not by
    /// the verifier: a program `verify` refuses (here `E0003`, after its
    /// lowering and merge plan) builds no closures, and every instance
    /// of an admitted one shares the one graph its first instance built.
    #[test]
    fn closures_are_built_once_by_the_first_instance_and_never_for_a_refusal() {
        let built = || crate::ir::BUILT.with(std::cell::Cell::get);
        let inputs = [("size", Type::Int), ("port", Type::Int)];
        let src = "static int n = 0; if (size > 3) { n = n + port; } return n;";
        let before = built();
        let refused = crate::verify(src, &inputs, &crate::VerifyLimits::with_max_fuel(3));
        let err = refused.expect_err("over a budget of 3");
        assert!(err.errors().any(|d| d.code == "E0003"), "{err}");
        assert_eq!(built(), before, "a refused program built closures");

        let admitted = crate::verify(src, &inputs, &crate::VerifyLimits::default()).unwrap();
        let program = admitted.get();
        assert_eq!(built(), before, "the verifier built closures");
        let (a, b) = (Instance::new(program), Instance::new(&program.clone()));
        assert_eq!(built(), before + 1, "one graph per program");
        let (a, b) = (a.compiled.expect("lowers"), b.compiled.expect("lowers"));
        assert!(Arc::ptr_eq(&a, &b), "two instances, two graphs");
        assert!(Instance::new_fused(program).compiled.is_none());
    }

    /// The load-time validator rejects bytecode whose control flow leaves
    /// the program — at instance creation, not mid-run.
    #[test]
    #[should_panic(expected = "control flow escapes")]
    fn malformed_bytecode_is_rejected_at_instance_creation() {
        let p = Program::from_parts(vec![Op::Jmp(9)], vec![], vec![], 0);
        let _ = Instance::new(&p);
    }

    proptest! {
        /// The VM never panics on arbitrary integer inputs; it returns a
        /// result or a well-typed error, and fuel accounting is exact for
        /// straight-line code.
        #[test]
        fn prop_vm_total_on_inputs(a in any::<i64>(), b in any::<i64>()) {
            let p = Program::compile(
                "return (a + b) * 2 - a % max(1, b);",
                &[("a", Type::Int), ("b", Type::Int)],
            ).unwrap();
            let mut i = Instance::new(&p);
            let r = i.run(&[Value::Int(a), Value::Int(b)], 10_000);
            prop_assert!(r.is_ok() || r == Err(EcodeError::DivideByZero));
        }

        /// Fuel used is deterministic: same program, same inputs, same fuel.
        #[test]
        fn prop_fuel_deterministic(x in -1000i64..1000) {
            let p = Program::compile(
                "int y = 0; if (x > 0) { y = x * 2; } else { y = -x; } return y;",
                &[("x", Type::Int)],
            ).unwrap();
            let mut i1 = Instance::new(&p);
            let mut i2 = Instance::new(&p);
            let r1 = i1.run(&[Value::Int(x)], 10_000).unwrap();
            let r2 = i2.run(&[Value::Int(x)], 10_000).unwrap();
            prop_assert_eq!(r1.fuel_used, r2.fuel_used);
            prop_assert_eq!(r1.ret, r2.ret);
        }
    }
}
