//! Sharded digest evaluation: N replica instances of one E-Code
//! program, partitioned by flow key, folded back with the program's
//! [`MergePlan`].
//!
//! A *digest* is an E-Code program whose statics accumulate across
//! every ingested record — unlike a subscription [`Filter`](crate::Hub),
//! which resets its statics per record. When the verifier proves every
//! static shard-safe ([`MergePlan::fully_mergeable`]), the digest runs
//! as `shards` independent replicas, each owned by a dedicated worker
//! thread (see [`plane`]); records are dispatched by a deterministic
//! FNV-1a hash of their flow key into per-shard *columnar batches*
//! (one column of raw input bits per program input), and the workers
//! evaluate whole batches at a time — vectorized via
//! [`ecode::BatchEval`] when the program admits it, scalar otherwise.
//! [`ShardedDigest::merged`] quiesces the workers (flush + drain
//! barrier) and folds the replicas into the exact statics a single
//! sequential instance would hold. Programs with any
//! `Opaque`/`LastWriteWins` slot (every slot of a program `ecode` did
//! not lower is `Opaque`) silently fall back to one inline
//! instance — no threads, no batching, no flow-key hashing —
//! correctness never depends on the caller checking the plan first.
//!
//! Why thread scheduling cannot leak into results: batches reach each
//! shard in ingest order over a FIFO channel, each shard's statics
//! evolve only from its own stream, and the fold algebra is proven
//! order-insensitive per slot — so the only nondeterminism threads add
//! (who runs when) is invisible to the folded statics. DESIGN.md §11
//! develops the full argument.

mod plane;

use std::cell::RefCell;

use ecode::{
    BatchEval, Instance, MergeError, MergePlan, Value as EValue, VerifyLimits, VerifyReport,
};
use pbio::Schema;

use crate::PubSubError;
use plane::Plane;

/// Worst-case fuel a digest program may cost per record. Same budget as
/// subscription filters: digests run on the GPA's ingest path, which is
/// hot for exactly the same reason the publish path is.
pub const DIGEST_FUEL_BUDGET: u64 = 10_000;

/// Records buffered per shard before the batch ships to its worker.
/// 4096 amortizes worker wake-ups and dispatch overhead across ~4k rows
/// while keeping per-shard columns comfortably inside L2; sizes past
/// ~16k rows spill the builders out of cache and cost more than the
/// wake-ups they save.
const FLUSH_ROWS: usize = 4096;

/// Evaluation statistics, for overhead accounting and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestStats {
    /// Shard count the caller asked for.
    pub requested_shards: usize,
    /// Shard count actually running (1 when the plan forced fallback).
    pub shards: usize,
    /// Whether the digest is running more than one replica.
    pub sharded: bool,
    /// Records ingested, total.
    pub events: u64,
    /// Records ingested per shard, in shard order.
    pub per_shard_events: Vec<u64>,
    /// Records skipped because their rows did not have the arity of
    /// the schema the digest was compiled against.
    pub skipped: u64,
    /// Total E-Code fuel burned (host converts to CPU cost).
    pub fuel_spent: u64,
    /// Runs that trapped at runtime (statics may be partially updated;
    /// counted, not hidden).
    pub aborted: u64,
}

/// The evaluation engine behind a digest.
enum Engine {
    /// One inline replica, evaluated on the caller's thread with the
    /// scalar VM. Used for `shards == 1` and for non-mergeable
    /// programs; pays no flow-key hash, no batching, no channels.
    Single {
        inst: Instance,
        events: u64,
        fuel_spent: u64,
        aborted: u64,
    },
    /// K worker threads fed columnar batches. Behind a `RefCell` so
    /// `&self` accessors (`merged`, `stats`) can run drain barriers.
    Parallel(RefCell<Plane>),
}

/// A compiled digest program running as one or more shard replicas.
///
/// Records' numeric and boolean fields are visible to the program as
/// E-Code inputs by field name, exactly like subscription filters;
/// string/bytes fields are skipped.
pub struct ShardedDigest {
    program: ecode::Program,
    plan: MergePlan,
    engine: Engine,
    requested_shards: usize,
    n_schema_fields: usize,
    /// Indices of the record fields that are program inputs, in input order.
    field_indices: Vec<usize>,
    /// Reusable program-input-ordered scratch row.
    raw_row: Vec<i64>,
    /// Statically proven worst-case fuel per evaluation.
    fuel_bound: u64,
    /// Execution tier every replica runs on. Tier selection is a pure
    /// function of the program, so one probe at compile time speaks for
    /// all shards (including the parallel plane's worker-local replicas).
    tier: ecode::ExecTier,
    /// Why sharded evaluation does not run column-wise (see
    /// [`batch_bail`](ShardedDigest::batch_bail)).
    batch_bail: Option<ecode::BatchBail>,
    skipped: u64,
    /// Lazily computed fold of the replicas, invalidated on ingest.
    /// `merged()`/`merged_global()` sit on the stats/query path and are
    /// typically called several times between ingests; one fold (and,
    /// for the parallel engine, one drain barrier) serves them all.
    merged_cache: RefCell<Option<Instance>>,
}

/// Deterministic 64-bit FNV-1a over the key's little-endian bytes.
/// Chosen over `std` hashing because shard placement must be identical
/// across runs, builds, and hosts (replay bit-stability).
fn fnv1a(key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Maps a placement hash onto `n` shards. Power-of-two counts (the
/// common configuration) take a mask instead of a hardware divide —
/// the divide's ~25-cycle latency is visible at digest ingest rates.
fn place(h: u64, n: usize) -> usize {
    if n.is_power_of_two() {
        (h & (n as u64 - 1)) as usize
    } else {
        (h % n as u64) as usize
    }
}

impl ShardedDigest {
    /// Compiles `src` against `schema` and provisions replicas.
    ///
    /// `shards` is the *requested* replica count; the digest actually
    /// shards only when the verifier proves every static shard-safe.
    /// The verification itself is ordinary (no `require_mergeable`):
    /// non-mergeable digests are legal, they just run single-instance.
    pub fn compile(
        src: &str,
        schema: &Schema,
        shards: usize,
    ) -> Result<ShardedDigest, PubSubError> {
        Self::compile_flushing(src, schema, shards, FLUSH_ROWS)
    }

    /// [`compile`](ShardedDigest::compile) with the plane's batch size
    /// spelled out, so the tests can put a batch boundary anywhere in a
    /// short stream.
    fn compile_flushing(
        src: &str,
        schema: &Schema,
        shards: usize,
        flush_rows: usize,
    ) -> Result<ShardedDigest, PubSubError> {
        let (inputs, field_indices) = crate::ecode_inputs(schema);
        let limits = VerifyLimits::with_max_fuel(DIGEST_FUEL_BUDGET);
        let verified = ecode::verify(src, &inputs, &limits).map_err(PubSubError::BadFilter)?;
        let (program, report) = verified.into_parts();
        let VerifyReport {
            fuel_bound,
            merge_plan,
            ..
        } = report;
        let tier = Instance::new(&program).tier();
        // Vectorize once, for every worker: each gets a clone, and the
        // refusal (if any) is kept for `batch_bail`.
        let batch = (shards > 1).then(|| BatchEval::compile(&program, &merge_plan, fuel_bound));
        let batch_bail = batch.as_ref().and_then(|b| b.as_ref().err().copied());
        let engine = if shards > 1 && merge_plan.fully_mergeable() {
            Engine::Parallel(RefCell::new(Plane::spawn(
                &program,
                batch.and_then(Result::ok),
                fuel_bound,
                &field_indices,
                shards,
                flush_rows,
            )))
        } else {
            Engine::Single {
                inst: Instance::new(&program),
                events: 0,
                fuel_spent: 0,
                aborted: 0,
            }
        };
        Ok(ShardedDigest {
            program,
            plan: merge_plan,
            engine,
            requested_shards: shards,
            n_schema_fields: schema.fields().len(),
            field_indices,
            raw_row: Vec::new(),
            fuel_bound,
            tier,
            batch_bail,
            skipped: 0,
            merged_cache: RefCell::new(None),
        })
    }

    /// The shard-safety classification the replica count was decided by.
    pub fn plan(&self) -> &MergePlan {
        &self.plan
    }

    /// Statically proven worst-case fuel per record.
    pub fn fuel_bound(&self) -> u64 {
        self.fuel_bound
    }

    /// The execution tier every replica runs on — `Compiled` when the
    /// program was lowered to closures, `Fused` (the checked per-op
    /// interpreter) otherwise. Per-shard replicas all make the same
    /// (deterministic) choice, and the tiers are observably identical,
    /// so `merge_from` folds stay bit-identical regardless of tier.
    pub fn tier(&self) -> ecode::ExecTier {
        self.tier
    }

    /// Why records of a digest asked to shard are evaluated row-at-a-time
    /// on the scalar VM instead of column-wise by [`ecode::BatchEval`]:
    /// `NotMergeable` or `NotLowered` when the plan kept it on the single
    /// engine (a program the lowering refused has an all-`Opaque` plan),
    /// anything else is what the vectorizer refused in the workers'
    /// program. `None` when the workers vectorize — or when a single
    /// shard was requested, and batching never came up.
    pub fn batch_bail(&self) -> Option<ecode::BatchBail> {
        self.batch_bail
    }

    /// Feeds one record (dispatched by `key`) to its shard's replica:
    /// [`ingest_raw_rows`](ShardedDigest::ingest_raw_rows) with a batch
    /// of one.
    pub fn ingest_raw(&mut self, key: u64, row: &[i64]) {
        self.ingest_raw_rows(&[key], row);
    }

    /// The digest's ingest: `keys[i]` dispatches the row at
    /// `rows[i * stride..][..stride]` where `stride` is the schema field
    /// count. Each row holds one raw `i64` per schema field, in schema
    /// order (ints/bools as-is, doubles via `f64::to_bits`; entries at
    /// string/bytes positions are ignored) — the caller owns that bit
    /// contract, which `InteractionRecord::to_raw_row` and the PBIO row
    /// codec satisfy by construction.
    ///
    /// Shard placement hashes run as a pre-pass over the contiguous key
    /// slice — the FNV-1a rounds of different keys overlap in flight
    /// instead of serializing behind one record's dispatch — and the
    /// per-call bookkeeping (cache invalidation, engine dispatch) is
    /// paid once per batch. The parallel engine buffers the records into
    /// columnar batches; effects become observable at the next barrier
    /// ([`merged`](ShardedDigest::merged) / [`stats`](ShardedDigest::stats)),
    /// which is where batches are flushed and workers quiesced.
    ///
    /// A `rows` length that is not `keys.len() * stride` skips the
    /// whole call (counted per record) rather than trap.
    pub fn ingest_raw_rows(&mut self, keys: &[u64], rows: &[i64]) {
        let stride = self.n_schema_fields;
        if keys.len().checked_mul(stride) != Some(rows.len()) {
            self.skipped += keys.len() as u64;
            return;
        }
        if keys.is_empty() {
            return;
        }
        // The replicas' statics are about to change; drop the stale fold.
        self.merged_cache.get_mut().take();
        match &mut self.engine {
            Engine::Single {
                inst,
                events,
                fuel_spent,
                aborted,
            } => {
                for row in rows.chunks_exact(stride) {
                    self.raw_row.clear();
                    for &i in &self.field_indices {
                        self.raw_row.push(row[i]);
                    }
                    run_single(
                        inst,
                        &self.raw_row,
                        self.fuel_bound,
                        events,
                        fuel_spent,
                        aborted,
                    );
                }
            }
            Engine::Parallel(p) => p.get_mut().ingest_rows(keys, rows, stride),
        }
    }

    /// Ships any partially-filled per-shard batches to the workers
    /// without waiting for them to be evaluated. Hosts call this at
    /// report boundaries (the plane's "time threshold" — the simulator
    /// has no wall clock) so records do not linger in builders between
    /// barriers. No-op for the single-replica engine.
    pub fn flush(&mut self) {
        if let Engine::Parallel(p) = &mut self.engine {
            p.get_mut().flush_all();
        }
    }

    /// Folds every replica's statics into a fresh instance per the plan.
    ///
    /// For the parallel engine this is a *drain barrier*: partial
    /// batches are flushed, every worker answers a FIFO drain message,
    /// and the snapshots are folded in shard order. A fresh instance
    /// (statics at their declared initial values) is the identity
    /// element of each shard-safe fold, so folding shards into it
    /// yields exactly the sequential statics. With one replica this
    /// degenerates to a copy, so the accessor works uniformly for
    /// fallback digests too.
    pub fn merged(&self) -> Result<Instance, MergeError> {
        if let Engine::Single { inst, .. } = &self.engine {
            // Fallback digests may hold non-mergeable plans; a single
            // replica needs no folding.
            return Ok(inst.clone());
        }
        self.ensure_merged()?;
        Ok(self
            .merged_cache
            .borrow()
            .as_ref()
            .expect("ensure_merged filled the cache")
            .clone())
    }

    /// Runs the drain-and-fold into the cache unless it is already fresh.
    fn ensure_merged(&self) -> Result<(), MergeError> {
        if self.merged_cache.borrow().is_some() {
            return Ok(());
        }
        let Engine::Parallel(p) = &self.engine else {
            return Ok(());
        };
        let snapshots = p.borrow_mut().drain();
        let mut acc = Instance::new(&self.program);
        for snap in &snapshots {
            acc.merge_from(&snap.inst, &self.plan)?;
        }
        *self.merged_cache.borrow_mut() = Some(acc);
        Ok(())
    }

    /// Reads a static variable of the *merged* state by name. Repeated
    /// reads between ingests share one drain + fold via the cache.
    pub fn merged_global(&self, name: &str) -> Option<EValue> {
        if let Engine::Single { inst, .. } = &self.engine {
            return inst.global(name);
        }
        self.ensure_merged().ok()?;
        self.merged_cache.borrow().as_ref()?.global(name)
    }

    /// Current evaluation statistics. For the parallel engine this is a
    /// drain barrier (fuel and abort counts live in the workers).
    pub fn stats(&self) -> DigestStats {
        match &self.engine {
            Engine::Single {
                events,
                fuel_spent,
                aborted,
                ..
            } => DigestStats {
                requested_shards: self.requested_shards,
                shards: 1,
                sharded: false,
                events: *events,
                per_shard_events: vec![*events],
                skipped: self.skipped,
                fuel_spent: *fuel_spent,
                aborted: *aborted,
            },
            Engine::Parallel(p) => {
                let mut p = p.borrow_mut();
                let snapshots = p.drain();
                DigestStats {
                    requested_shards: self.requested_shards,
                    shards: p.shards(),
                    sharded: true,
                    events: p.per_shard_events.iter().sum(),
                    per_shard_events: p.per_shard_events.clone(),
                    skipped: self.skipped,
                    fuel_spent: snapshots.iter().map(|s| s.fuel_spent).sum(),
                    aborted: snapshots.iter().map(|s| s.aborted).sum(),
                }
            }
        }
    }

    /// Test hook: make one worker panic to exercise propagation.
    #[cfg(test)]
    fn inject_panic(&mut self, shard: usize) {
        if let Engine::Parallel(p) = &mut self.engine {
            p.get_mut().inject_panic(shard);
        }
    }
}

/// Inline scalar evaluation for the single-replica engine.
fn run_single(
    inst: &mut Instance,
    row: &[i64],
    fuel_bound: u64,
    events: &mut u64,
    fuel_spent: &mut u64,
    aborted: &mut u64,
) {
    // Statics persist across records — that is the point of a digest.
    match inst.run_raw(row, fuel_bound) {
        Ok(out) => *fuel_spent += out.fuel_used,
        Err(_) => {
            // A runtime trap (input-dependent division by zero, say)
            // leaves the statics partially updated, just as it would a
            // sequential instance.
            *aborted += 1;
            *fuel_spent += fuel_bound;
        }
    }
    *events += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio::{FieldType, Schema};

    fn schema() -> Schema {
        Schema::build("rec")
            .field("size", FieldType::U64)
            .field("port", FieldType::U64)
            .finish()
            .unwrap()
    }

    const MERGEABLE: &str = "
        static int count = 0;
        static int bytes = 0;
        static int biggest = 0;
        static bool saw_admin = false;
        count = count + 1;
        bytes = bytes + size;
        biggest = max(biggest, size);
        if (port < 1024) { saw_admin = true; }
        return count;
    ";

    /// A digest that does not run column-wise says why: the plan kept it
    /// off the plane, or the vectorizer refused the workers' program.
    #[test]
    fn scalar_fallback_reports_its_reason() {
        let schema = schema();
        let lww = "static int last = 0; last = size; return last;";
        let d = ShardedDigest::compile(lww, &schema, 4).unwrap();
        assert_eq!(d.stats().shards, 1);
        assert_eq!(d.batch_bail(), Some(ecode::BatchBail::NotMergeable));

        // Shard-safe, but a zero `port` lane would have to trap
        // mid-batch: sharded, each worker on the scalar VM.
        let div = "static int n = 0; n = n + size / port; return n;";
        let mut d = ShardedDigest::compile(div, &schema, 4).unwrap();
        assert!(d.stats().shards > 1);
        assert_eq!(
            d.batch_bail(),
            Some(ecode::BatchBail::NonConstDivisor { pc: 0 })
        );
        for i in 0..64u64 {
            d.ingest_raw(i, &[i as i64 * 10, 1 + (i % 3) as i64]);
        }
        let want: i64 = (0..64i64).map(|i| i * 10 / (1 + i % 3)).sum();
        assert_eq!(d.merged_global("n"), Some(EValue::Int(want)));
    }

    #[test]
    fn mergeable_digest_shards_and_folds_exactly() {
        let schema = schema();
        let mut seq = ShardedDigest::compile(MERGEABLE, &schema, 1).unwrap();
        let mut sharded = ShardedDigest::compile(MERGEABLE, &schema, 4).unwrap();
        assert_eq!(seq.stats().shards, 1);
        assert!(sharded.stats().shards > 1);
        assert_eq!(sharded.stats().shards, 4);
        // Both engines must agree on the (deterministic) execution tier,
        // and the canonical mergeable digest fits the default budget.
        assert_eq!(seq.tier(), ecode::ExecTier::Compiled);
        assert_eq!(sharded.tier(), seq.tier());
        // The workers evaluate it column-wise; one shard never batches.
        assert_eq!(sharded.batch_bail(), None);
        assert_eq!(seq.batch_bail(), None);

        for i in 0..100u64 {
            let rec = [(i * 37 % 91) as i64, if i % 5 == 0 { 80 } else { 9000 }];
            seq.ingest_raw(i % 7, &rec);
            sharded.ingest_raw(i % 7, &rec);
        }
        let a = seq.merged().unwrap();
        let b = sharded.merged().unwrap();
        assert_eq!(a.raw_globals(), b.raw_globals(), "fold must be bit-exact");
        assert_eq!(sharded.merged_global("count"), Some(EValue::Int(100)));
        assert_eq!(sharded.merged_global("saw_admin"), Some(EValue::Bool(true)));

        let stats = sharded.stats();
        assert_eq!(stats.events, 100);
        assert_eq!(stats.per_shard_events.iter().sum::<u64>(), 100);
        assert!(stats.sharded);
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.aborted, 0);
        assert!(stats.fuel_spent > 0);
        assert_eq!(stats.fuel_spent, seq.stats().fuel_spent, "fuel is exact");
    }

    #[test]
    fn opaque_digest_falls_back_to_one_instance() {
        // `acc * 2` scales accumulated state — classified Opaque — so
        // the requested 8 shards must collapse to 1.
        let src = "
            static int acc = 0;
            acc = acc * 2 + size;
            return acc;
        ";
        let d = ShardedDigest::compile(src, &schema(), 8).unwrap();
        assert_eq!(d.stats().shards, 1);
        assert!(!d.plan().fully_mergeable());
        let stats = d.stats();
        assert_eq!(stats.requested_shards, 8);
        assert_eq!(stats.shards, 1);
    }

    /// Not lowered ⇒ interpreter, never vectorized, never sharded: a
    /// digest past `ecode`'s 4096-op lowering limit is all counters, yet
    /// runs as one replica and says why.
    #[test]
    fn unlowered_digest_falls_back_to_one_instance() {
        let mut src = String::from("static int n = 0;\n");
        for d in 0..1024 {
            src.push_str(&format!("n = n + size % {};\n", d % 61 + 2));
        }
        src.push_str("return n;");
        let mut d = ShardedDigest::compile(&src, &schema(), 4).unwrap();
        assert_eq!(d.tier(), ecode::ExecTier::Fused);
        assert_eq!(d.stats().shards, 1);
        assert_eq!(
            d.batch_bail(),
            Some(ecode::BatchBail::NotLowered(ecode::Bail::TooManyOps))
        );
        let mut seq = Instance::new(&d.program);
        for i in 0..50u64 {
            let row = [(i * 7919 % 10_007) as i64, 80];
            d.ingest_raw(i, &row);
            seq.run_raw(&row, d.fuel_bound()).unwrap();
        }
        assert_eq!(d.merged().unwrap().raw_globals(), seq.raw_globals());
        assert_eq!(d.stats().aborted, 0);
    }

    #[test]
    fn merged_cache_invalidates_on_ingest() {
        let schema = schema();
        let mut d = ShardedDigest::compile(MERGEABLE, &schema, 4).unwrap();
        d.ingest_raw(1, &[5, 80]);
        assert_eq!(d.merged_global("count"), Some(EValue::Int(1)));
        // Second read between ingests is served by the cached fold.
        assert_eq!(d.merged_global("bytes"), Some(EValue::Int(5)));
        // A new record must drop the stale fold.
        d.ingest_raw(2, &[7, 9000]);
        assert_eq!(d.merged_global("count"), Some(EValue::Int(2)));
        assert_eq!(d.merged_global("bytes"), Some(EValue::Int(12)));
    }

    /// One call with the whole stream and one call per record are the
    /// same ingest; wrong-arity input is counted, not evaluated.
    #[test]
    fn batch_ingest_matches_per_record_ingest_bitwise() {
        let schema = schema();
        let mut by_record = ShardedDigest::compile(MERGEABLE, &schema, 4).unwrap();
        let mut by_batch = ShardedDigest::compile(MERGEABLE, &schema, 4).unwrap();
        let (mut keys, mut rows) = (Vec::new(), Vec::new());
        for i in 0..300u64 {
            let row = [
                (i * 131 % 7919) as i64,
                if i % 11 == 0 { 443 } else { 8080 },
            ];
            by_record.ingest_raw(i, &row);
            keys.push(i);
            rows.extend_from_slice(&row);
        }
        by_batch.ingest_raw_rows(&keys, &rows);
        assert_eq!(
            by_record.merged().unwrap().raw_globals(),
            by_batch.merged().unwrap().raw_globals()
        );
        assert_eq!(by_record.stats(), by_batch.stats());
        by_record.ingest_raw(0, &[1]);
        assert_eq!(by_record.stats().skipped, 1);
        by_batch.ingest_raw_rows(&keys, &rows[1..]);
        assert_eq!(by_batch.stats().skipped, 300);
        assert_eq!(by_batch.stats().events, 300);
    }

    /// Division by a record field bails the batch vectorizer (a zero
    /// lane would have to trap mid-batch), but the accumulator is still
    /// sum-mergeable — so this program runs sharded with every worker
    /// on the scalar-VM fallback. The fold must stay bit-exact with
    /// sequential, and a genuinely trapping record must surface in
    /// `aborted` identically on both engines.
    #[test]
    fn non_vectorizable_digest_uses_worker_scalar_fallback() {
        let src = "
            static int ratio_sum = 0;
            ratio_sum = ratio_sum + size / port;
            return ratio_sum;
        ";
        let schema = schema();
        let mut seq = ShardedDigest::compile(src, &schema, 1).unwrap();
        let mut sharded = ShardedDigest::compile(src, &schema, 4).unwrap();
        assert!(sharded.stats().shards > 1, "program must stay shardable");
        for i in 0..200u64 {
            let size = (i * 97 % 5000) as i64;
            let port = if i == 137 { 0 } else { (1 + i % 17) as i64 };
            seq.ingest_raw(i, &[size, port]);
            sharded.ingest_raw(i, &[size, port]);
        }
        assert_eq!(
            seq.merged().unwrap().raw_globals(),
            sharded.merged().unwrap().raw_globals()
        );
        let (s1, s2) = (seq.stats(), sharded.stats());
        assert_eq!(s1.aborted, 1, "the port-0 record must trap");
        assert_eq!(s2.aborted, 1);
        assert_eq!(s1.fuel_spent, s2.fuel_spent, "abort accounting is exact");
    }

    // ---------------------------------------------------------------
    // Worker lifecycle
    // ---------------------------------------------------------------

    /// Records buffered below the flush threshold must still be visible
    /// through a merge: `merged()` is a flush + drain barrier.
    #[test]
    fn merge_drains_partial_batches() {
        let mut d = ShardedDigest::compile_flushing(MERGEABLE, &schema(), 4, 4096).unwrap();
        for i in 0..17u64 {
            d.ingest_raw(i, &[10, 80]);
        }
        assert_eq!(d.merged_global("count"), Some(EValue::Int(17)));
        let stats = d.stats();
        assert_eq!(stats.events, 17);
        assert!(stats.fuel_spent > 0, "drain must surface worker fuel");
    }

    /// Dropping a sharded digest with buffered records and live workers
    /// must terminate promptly (channels close, workers join).
    #[test]
    fn drop_shuts_workers_down_cleanly() {
        let mut d = ShardedDigest::compile(MERGEABLE, &schema(), 8).unwrap();
        for i in 0..100u64 {
            d.ingest_raw(i, &[i as i64, 80]);
        }
        drop(d); // must not hang or leak threads
    }

    /// A panicking worker must surface at the next barrier as a panic
    /// carrying the worker's payload — never a hung fold.
    #[test]
    fn worker_panic_propagates_to_merge() {
        let mut d = ShardedDigest::compile(MERGEABLE, &schema(), 4).unwrap();
        for i in 0..8u64 {
            d.ingest_raw(i, &[1, 80]);
        }
        d.inject_panic(2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.merged()))
            .expect_err("merge after a worker panic must panic, not hang");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("poisoned"),
            "payload should be the worker's: {msg}"
        );
        // The digest is broken but must still drop without aborting.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(d)));
    }

    /// A panicking worker surfaces at drop too (propagated, not lost),
    /// when no barrier runs first.
    #[test]
    fn worker_panic_propagates_at_drop() {
        let mut d = ShardedDigest::compile(MERGEABLE, &schema(), 4).unwrap();
        d.ingest_raw(1, &[1, 80]);
        d.inject_panic(0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(d)))
            .expect_err("drop must re-raise the worker panic");
        drop(err);
    }

    // ---------------------------------------------------------------
    // Parallel ≡ sequential (property)
    // ---------------------------------------------------------------

    /// One digest per (shards, flush_rows) configuration, same stream,
    /// same statics — regardless of batch boundaries and scheduling.
    fn assert_stream_invariant(records: &[(u64, i64, i64)], shards: usize, flush_rows: usize) {
        let schema = schema();
        let mut seq = ShardedDigest::compile(MERGEABLE, &schema, 1).unwrap();
        let mut par =
            ShardedDigest::compile_flushing(MERGEABLE, &schema, shards, flush_rows).unwrap();
        for &(key, size, port) in records {
            seq.ingest_raw(key, &[size, port]);
            par.ingest_raw(key, &[size, port]);
        }
        let a = seq.merged().unwrap();
        let b = par.merged().unwrap();
        assert_eq!(
            a.raw_globals(),
            b.raw_globals(),
            "shards={shards} flush_rows={flush_rows}"
        );
        let (sa, sb) = (seq.stats(), par.stats());
        assert_eq!(sa.events, sb.events);
        assert_eq!(sa.fuel_spent, sb.fuel_spent, "fuel metering must be exact");
        assert_eq!(sa.aborted, sb.aborted);
    }

    #[allow(unused)] // a typecheck-only proptest elides macro bodies, orphaning these imports
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Parallel batched ingest ≡ sequential ingest on
            /// `raw_globals`, for random record streams, shard counts,
            /// and batch sizes (including 1: every record its own batch).
            #[test]
            fn prop_parallel_batched_equals_sequential(
                records in proptest::collection::vec(
                    (0u64..64, 0i64..100_000, 0i64..10_000), 0..400),
                shards in 2usize..9,
                flush_rows in 1usize..130,
            ) {
                assert_stream_invariant(&records, shards, flush_rows);
            }
        }
    }
}
