//! Sharded digest evaluation: K replica instances of one E-Code
//! program, partitioned by flow key, folded back with the program's
//! [`MergePlan`].
//!
//! A *digest* is an E-Code program whose statics accumulate across
//! every ingested record — unlike a subscription [`Filter`](crate::Hub),
//! which resets its statics per record. When the verifier proves every
//! static shard-safe ([`MergePlan::fully_mergeable`]), the digest runs
//! as `shards` independent replicas, all owned by the caller's thread:
//! each [`ShardedDigest::ingest_raw_rows`] call dispatches its records
//! by a deterministic FNV-1a hash of their flow key into per-replica
//! *column scratch* (one column of raw input bits per input the program
//! reads) and evaluates them before it returns — column-wise through
//! one shared [`ecode::BatchEval`] when the program vectorizes,
//! row-at-a-time on the scalar VM otherwise. Nothing is pending between
//! calls, so [`ShardedDigest::merged`] is a plain fold of the replicas,
//! in shard order, into the exact statics a single sequential instance
//! would hold. Programs with any `Opaque`/`LastWriteWins` slot (every
//! slot of a program `ecode` did not lower is `Opaque`) silently run as
//! one replica — correctness never depends on the caller checking the
//! plan first.
//!
//! Replicas buy no speed on one thread; they exist because the merge
//! proof needs a runtime differential: the same stream through K
//! replicas and through one must fold to the same bits
//! (`tests/sharded_gpa.rs`, sysbench's `gpa_wire`). DESIGN.md §11.

use ecode::{
    BatchEval, Instance, MergeError, MergePlan, Value as EValue, VerifyLimits, VerifyReport,
};
use pbio::Schema;

use crate::PubSubError;

/// Worst-case fuel a digest program may cost per record. Same budget as
/// subscription filters: digests run on the GPA's ingest path, which is
/// hot for exactly the same reason the publish path is.
pub const DIGEST_FUEL_BUDGET: u64 = 10_000;

/// Most rows scattered and evaluated at a time. 4096 rows keep every
/// replica's columns and the evaluator's registers inside L2; longer
/// calls are cut into chunks of this size.
const FLUSH_ROWS: usize = 4096;

/// Most replicas that run: shard ids are staged as `u8`.
const MAX_SHARDS: usize = 256;

/// Evaluation statistics, for overhead accounting and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestStats {
    /// Shard count the caller asked for.
    pub requested_shards: usize,
    /// Shard count actually running (1 when the plan forced fallback,
    /// at most 256).
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

/// One shard: its replica of the program's statics and the rows of the
/// chunk being ingested that hashed to it.
struct Replica {
    inst: Instance,
    events: u64,
    /// Column scratch, used only when the digest vectorizes: the `j`-th
    /// *active* column (see [`ShardedDigest::active_fields`]) occupies
    /// `cols[j * scratch_rows ..][.. rows]`. Slots past `rows` are stale.
    cols: Vec<i64>,
    rows: usize,
}

/// A compiled digest program running as one or more shard replicas.
///
/// Records' numeric and boolean fields are visible to the program as
/// E-Code inputs by field name, exactly like subscription filters;
/// string/bytes fields are skipped.
pub struct ShardedDigest {
    program: ecode::Program,
    plan: MergePlan,
    replicas: Vec<Replica>,
    /// The column evaluator every replica's rows go through; `None`
    /// when the vectorizer refused the program (see `batch_bail`).
    batch: Option<BatchEval>,
    requested_shards: usize,
    n_schema_fields: usize,
    /// Indices of the record fields that are program inputs, in input order.
    field_indices: Vec<usize>,
    /// Input position and schema field index of every input the program
    /// actually reads. Only these columns are materialized, which
    /// matters when a digest reads 4 fields of an 18-field record.
    active_inputs: Vec<usize>,
    active_fields: Vec<usize>,
    /// Rows each replica's column scratch holds per column: the largest
    /// chunk seen so far (64 on the GPA's wire path), so `compile`
    /// allocates none and a small-batch caller stays in L1.
    scratch_rows: usize,
    /// Reusable per-chunk shard ids.
    shard_ids: Vec<u8>,
    /// Reusable program-input-ordered row for the scalar VM.
    raw_row: Vec<i64>,
    /// Statically proven worst-case fuel per evaluation.
    fuel_bound: u64,
    /// Execution tier every replica runs on. Tier selection is a pure
    /// function of the program, so one probe at compile time speaks for
    /// all replicas.
    tier: ecode::ExecTier,
    batch_bail: Option<ecode::BatchBail>,
    skipped: u64,
    fuel_spent: u64,
    aborted: u64,
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
    /// shards only when the verifier proves every static shard-safe,
    /// and never past 256 replicas.
    /// The verification itself is ordinary (no `require_mergeable`):
    /// non-mergeable digests are legal, they just run single-instance.
    pub fn compile(
        src: &str,
        schema: &Schema,
        shards: usize,
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
        let running = if merge_plan.fully_mergeable() {
            shards.clamp(1, MAX_SHARDS)
        } else {
            1
        };
        let (batch, batch_bail) = match BatchEval::compile(&program, &merge_plan, fuel_bound) {
            Ok(batch) => (Some(batch), None),
            Err(bail) => (None, Some(bail)),
        };
        let used = program.used_inputs();
        let (active_inputs, active_fields) = field_indices
            .iter()
            .enumerate()
            .filter(|(input, _)| used[*input])
            .map(|(input, &field)| (input, field))
            .unzip();
        let replicas: Vec<Replica> = (0..running)
            .map(|_| Replica {
                inst: Instance::new(&program),
                events: 0,
                cols: Vec::new(),
                rows: 0,
            })
            .collect();
        Ok(ShardedDigest {
            tier: replicas[0].inst.tier(),
            program,
            plan: merge_plan,
            replicas,
            batch,
            requested_shards: shards,
            n_schema_fields: schema.fields().len(),
            field_indices,
            active_inputs,
            active_fields,
            scratch_rows: 0,
            shard_ids: Vec::new(),
            raw_row: Vec::new(),
            fuel_bound,
            batch_bail,
            skipped: 0,
            fuel_spent: 0,
            aborted: 0,
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

    /// Why records are evaluated row-at-a-time on the scalar VM instead
    /// of column-wise by [`ecode::BatchEval`]: `NotMergeable` or
    /// `NotLowered` when the plan also keeps the digest on one replica
    /// (a program the lowering refused has an all-`Opaque` plan),
    /// anything else is what the vectorizer refused in a program that
    /// still shards. `None` when the digest vectorizes.
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
    /// Every row is evaluated before the call returns, so any read that
    /// follows sees it. A warm digest allocates nothing here.
    ///
    /// A `rows` length that is not `keys.len() * stride` skips the
    /// whole call (counted per record) rather than trap.
    pub fn ingest_raw_rows(&mut self, keys: &[u64], rows: &[i64]) {
        let stride = self.n_schema_fields;
        if keys.len().checked_mul(stride) != Some(rows.len()) {
            self.skipped += keys.len() as u64;
            return;
        }
        if self.batch.is_none() {
            return self.ingest_scalar(keys, rows, stride);
        }
        for (keys, rows) in keys
            .chunks(FLUSH_ROWS)
            .zip(rows.chunks(FLUSH_ROWS * stride))
        {
            self.scatter(keys, rows, stride);
            self.evaluate();
        }
    }

    /// Row-at-a-time ingest on the scalar VM, for programs the
    /// vectorizer refused. Statics persist across records — that is the
    /// point of a digest.
    fn ingest_scalar(&mut self, keys: &[u64], rows: &[i64], stride: usize) {
        let shards = self.replicas.len();
        for (&key, row) in keys.iter().zip(rows.chunks_exact(stride)) {
            let shard = if shards == 1 {
                0
            } else {
                place(fnv1a(key), shards)
            };
            self.raw_row.clear();
            self.raw_row
                .extend(self.field_indices.iter().map(|&i| row[i]));
            let replica = &mut self.replicas[shard];
            match replica.inst.run_raw(&self.raw_row, self.fuel_bound) {
                Ok(out) => self.fuel_spent += out.fuel_used,
                Err(_) => {
                    // A runtime trap (input-dependent division by zero,
                    // say) leaves the statics partially updated, just as
                    // it would a sequential instance.
                    self.aborted += 1;
                    self.fuel_spent += self.fuel_bound;
                }
            }
            replica.events += 1;
        }
    }

    /// Copies one chunk's active fields into its rows' replicas' column
    /// scratch. Shard placement hashes run as a pre-pass over the key
    /// slice, so the FNV-1a multiply chains of different keys overlap in
    /// the pipeline; one replica takes every row and needs no hash.
    fn scatter(&mut self, keys: &[u64], rows: &[i64], stride: usize) {
        if keys.len() > self.scratch_rows {
            self.scratch_rows = keys.len();
            let words = self.active_fields.len() * self.scratch_rows;
            for replica in &mut self.replicas {
                replica.cols.resize(words, 0);
            }
        }
        let shards = self.replicas.len();
        if shards == 1 {
            self.replicas[0].events += keys.len() as u64;
            return self.scatter_by(std::iter::repeat(0), rows, stride);
        }
        let mut ids = std::mem::take(&mut self.shard_ids);
        ids.clear();
        ids.extend(keys.iter().map(|&k| place(fnv1a(k), shards) as u8));
        // Event accounting runs as its own pass over the (L1-resident)
        // id slice, keeping the scatter loop to copy work only.
        for &id in &ids {
            self.replicas[id as usize].events += 1;
        }
        self.scatter_by(ids.iter().map(|&id| id as usize), rows, stride);
        self.shard_ids = ids;
    }

    /// The copy loop is monomorphized per active-column count so the
    /// compiler unrolls it and keeps the field indices in registers.
    fn scatter_by(&mut self, ids: impl Iterator<Item = usize>, rows: &[i64], stride: usize) {
        let (replicas, column) = (&mut self.replicas[..], self.scratch_rows);
        let fields = &self.active_fields[..];
        match fields.len() {
            1 => scatter_rows::<1>(replicas, column, fields, ids, rows, stride),
            2 => scatter_rows::<2>(replicas, column, fields, ids, rows, stride),
            3 => scatter_rows::<3>(replicas, column, fields, ids, rows, stride),
            4 => scatter_rows::<4>(replicas, column, fields, ids, rows, stride),
            5 => scatter_rows::<5>(replicas, column, fields, ids, rows, stride),
            6 => scatter_rows::<6>(replicas, column, fields, ids, rows, stride),
            _ => scatter_fields(replicas, column, fields, ids, rows, stride),
        }
    }

    /// Runs every replica's scattered rows through the column evaluator
    /// and empties the scratch.
    fn evaluate(&mut self) {
        let batch = self.batch.as_mut().expect("column path has an evaluator");
        // One column view per program input, on the stack for any
        // schema the workspace ships. Unused inputs keep an empty
        // column: the evaluator length-checks only the inputs it reads.
        let mut inline: [&[i64]; 32] = [&[]; 32];
        let mut spilled = Vec::new();
        let n_inputs = self.field_indices.len();
        let cols = match inline.get_mut(..n_inputs) {
            Some(cols) => cols,
            None => {
                spilled.resize(n_inputs, &[][..]);
                &mut spilled[..]
            }
        };
        for replica in &mut self.replicas {
            if replica.rows == 0 {
                continue;
            }
            for (j, &input) in self.active_inputs.iter().enumerate() {
                cols[input] = &replica.cols[j * self.scratch_rows..][..replica.rows];
            }
            self.fuel_spent += batch.run(&mut replica.inst, cols, replica.rows);
            replica.rows = 0;
        }
    }

    /// Folds every replica's statics into a fresh instance per the plan.
    ///
    /// A fresh instance (statics at their declared initial values) is
    /// the identity element of each shard-safe fold, so folding the
    /// replicas into it, in shard order, yields exactly the sequential
    /// statics. One replica needs no folding — which is also what lets
    /// fallback digests, whose plans do not fold, answer uniformly.
    pub fn merged(&self) -> Result<Instance, MergeError> {
        if let [only] = &self.replicas[..] {
            return Ok(only.inst.clone());
        }
        let mut acc = Instance::new(&self.program);
        for replica in &self.replicas {
            acc.merge_from(&replica.inst, &self.plan)?;
        }
        Ok(acc)
    }

    /// Reads a static variable of the *merged* state by name.
    pub fn merged_global(&self, name: &str) -> Option<EValue> {
        if let [only] = &self.replicas[..] {
            return only.inst.global(name);
        }
        self.merged().ok()?.global(name)
    }

    /// Current evaluation statistics.
    pub fn stats(&self) -> DigestStats {
        let per_shard_events: Vec<u64> = self.replicas.iter().map(|r| r.events).collect();
        DigestStats {
            requested_shards: self.requested_shards,
            shards: self.replicas.len(),
            sharded: self.replicas.len() > 1,
            events: per_shard_events.iter().sum(),
            per_shard_events,
            skipped: self.skipped,
            fuel_spent: self.fuel_spent,
            aborted: self.aborted,
        }
    }
}

/// Scatter for programs reading exactly `N` inputs: the field list
/// lives in a fixed array, so the per-record copy is branch-free
/// straight-line code after unrolling.
fn scatter_rows<const N: usize>(
    replicas: &mut [Replica],
    column: usize,
    fields: &[usize],
    ids: impl Iterator<Item = usize>,
    rows: &[i64],
    stride: usize,
) {
    let fields: [usize; N] = fields.try_into().expect("dispatched on the field count");
    scatter_fields(replicas, column, &fields, ids, rows, stride);
}

/// Appends `row[fields]` of every row to the columns of the replica its
/// id names; `column` is the scratch's rows per column.
#[inline(always)]
fn scatter_fields(
    replicas: &mut [Replica],
    column: usize,
    fields: &[usize],
    ids: impl Iterator<Item = usize>,
    rows: &[i64],
    stride: usize,
) {
    for (shard, row) in ids.zip(rows.chunks_exact(stride)) {
        let replica = &mut replicas[shard];
        let mut slot = replica.rows;
        for &field in fields {
            replica.cols[slot] = row[field];
            slot += column;
        }
        replica.rows += 1;
    }
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

    /// Division by a record field bails the batch vectorizer (a zero
    /// lane would have to trap mid-batch), but the accumulator is still
    /// sum-mergeable — so this program shards, with every replica on
    /// the scalar VM, and a `port == 0` row traps.
    const DIVIDING: &str = "
        static int ratio_sum = 0;
        ratio_sum = ratio_sum + size / port;
        return ratio_sum;
    ";

    /// A digest that does not run column-wise says why: the plan kept it
    /// on one replica, or the vectorizer refused the program.
    #[test]
    fn scalar_fallback_reports_its_reason() {
        let schema = schema();
        let lww = "static int last = 0; last = size; return last;";
        let d = ShardedDigest::compile(lww, &schema, 4).unwrap();
        assert_eq!(d.stats().shards, 1);
        assert_eq!(d.batch_bail(), Some(ecode::BatchBail::NotMergeable));

        // Shard-safe, but a zero `port` lane would have to trap
        // mid-batch: sharded, each replica on the scalar VM.
        let mut d = ShardedDigest::compile(DIVIDING, &schema, 4).unwrap();
        assert!(d.stats().shards > 1);
        assert_eq!(
            d.batch_bail(),
            Some(ecode::BatchBail::NonConstDivisor { pc: 0 })
        );
        for i in 0..64u64 {
            d.ingest_raw(i, &[i as i64 * 10, 1 + (i % 3) as i64]);
        }
        let want: i64 = (0..64i64).map(|i| i * 10 / (1 + i % 3)).sum();
        assert_eq!(d.merged_global("ratio_sum"), Some(EValue::Int(want)));
    }

    #[test]
    fn mergeable_digest_shards_and_folds_exactly() {
        let schema = schema();
        let mut seq = ShardedDigest::compile(MERGEABLE, &schema, 1).unwrap();
        let mut sharded = ShardedDigest::compile(MERGEABLE, &schema, 4).unwrap();
        assert_eq!(seq.stats().shards, 1);
        assert!(sharded.stats().shards > 1);
        assert_eq!(sharded.stats().shards, 4);
        // Every replica count agrees on the (deterministic) execution
        // tier, and the canonical mergeable digest fits the default budget.
        assert_eq!(seq.tier(), ecode::ExecTier::Compiled);
        assert_eq!(sharded.tier(), seq.tier());
        // Both evaluate it column-wise.
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
    fn reads_between_ingests_stay_current() {
        let schema = schema();
        let mut d = ShardedDigest::compile(MERGEABLE, &schema, 4).unwrap();
        d.ingest_raw(1, &[5, 80]);
        assert_eq!(d.merged_global("count"), Some(EValue::Int(1)));
        assert_eq!(d.merged_global("bytes"), Some(EValue::Int(5)));
        // A new record must show in the next read.
        d.ingest_raw(2, &[7, 9000]);
        assert_eq!(d.merged_global("count"), Some(EValue::Int(2)));
        assert_eq!(d.merged_global("bytes"), Some(EValue::Int(12)));
    }

    /// The same program with every replica on the scalar VM: the fold
    /// must stay bit-exact with sequential, and a genuinely trapping
    /// record must surface in `aborted` identically at any replica count.
    #[test]
    fn non_vectorizable_digest_uses_scalar_fallback() {
        let schema = schema();
        let mut seq = ShardedDigest::compile(DIVIDING, &schema, 1).unwrap();
        let mut sharded = ShardedDigest::compile(DIVIDING, &schema, 4).unwrap();
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

    /// Nothing is pending between calls: a read sees every row ingested
    /// before it, however few.
    #[test]
    fn read_sees_every_row_ingested_before_it() {
        let mut d = ShardedDigest::compile(MERGEABLE, &schema(), 4).unwrap();
        for i in 0..17u64 {
            d.ingest_raw(i, &[10, 80]);
        }
        assert_eq!(d.merged_global("count"), Some(EValue::Int(17)));
        let stats = d.stats();
        assert_eq!(stats.events, 17);
        assert!(stats.fuel_spent > 0);
    }

    /// Shard ids are staged as bytes, so no more than 256 replicas run:
    /// asking for 300 must not fold replicas 256.. onto 0.. and leave
    /// the rest idle behind a `shards` that still says 300.
    #[test]
    fn replica_count_is_capped_where_shard_ids_fit() {
        let mut d = ShardedDigest::compile(MERGEABLE, &schema(), 300).unwrap();
        let records: Vec<_> = (0..20_000u64).map(stream_record).collect();
        let (keys, rows) = staged(&records);
        d.ingest_raw_rows(&keys, &rows);
        let stats = d.stats();
        assert_eq!(stats.requested_shards, 300);
        assert_eq!(stats.shards, 256);
        assert_eq!(stats.per_shard_events.len(), 256);
        assert!(
            stats.per_shard_events.iter().all(|&n| n > 0),
            "every running replica can receive a record: {stats:?}"
        );
        assert_matches_sequential(&d, &records);
    }

    // ---------------------------------------------------------------
    // K replicas ≡ one sequential instance
    // ---------------------------------------------------------------

    /// `(flow key, size, port)`.
    type Record = (u64, i64, i64);

    /// Record `i` of a fixed stream: ~6k flows, ports on both sides of
    /// MERGEABLE's gate, every seventh a zero DIVIDING traps on.
    fn stream_record(i: u64) -> Record {
        let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 6007;
        let port = [0, 1, 3, 80, 443, 8080, 9000][(i % 7) as usize];
        (key, (i * 131 % 7919) as i64, port)
    }

    fn staged(records: &[Record]) -> (Vec<u64>, Vec<i64>) {
        let keys = records.iter().map(|r| r.0).collect();
        let rows = records.iter().flat_map(|r| [r.1, r.2]).collect();
        (keys, rows)
    }

    /// The oracle is the scalar VM, not another `ShardedDigest`: `d`
    /// must hold exactly the statics, fuel and abort count one bare
    /// `Instance` reaches running `records` in order.
    fn assert_matches_sequential(d: &ShardedDigest, records: &[Record]) {
        let mut seq = Instance::new(&d.program);
        let (mut fuel_spent, mut aborted) = (0u64, 0u64);
        for &(_, size, port) in records {
            match seq.run_raw(&[size, port], d.fuel_bound()) {
                Ok(out) => fuel_spent += out.fuel_used,
                Err(_) => {
                    aborted += 1;
                    fuel_spent += d.fuel_bound();
                }
            }
        }
        let stats = d.stats();
        let ctx = format!("shards={} of {}", stats.shards, stats.requested_shards);
        assert_eq!(
            d.merged().unwrap().raw_globals(),
            seq.raw_globals(),
            "{ctx}"
        );
        assert_eq!(stats.events, records.len() as u64, "{ctx}");
        assert_eq!(stats.fuel_spent, fuel_spent, "fuel is exact, {ctx}");
        assert_eq!(stats.aborted, aborted, "{ctx}");
    }

    /// `records` through `shards` replicas in calls of `call` rows, for
    /// the vectorized program and for the one on the scalar fallback.
    fn assert_stream_invariant(records: &[Record], shards: usize, call: usize) {
        let (keys, rows) = staged(records);
        for src in [MERGEABLE, DIVIDING] {
            let mut d = ShardedDigest::compile(src, &schema(), shards).unwrap();
            assert_eq!(d.stats().shards, shards);
            assert_eq!(d.batch_bail().is_none(), src == MERGEABLE);
            for (k, r) in keys.chunks(call).zip(rows.chunks(call * 2)) {
                d.ingest_raw_rows(k, r);
            }
            assert_matches_sequential(&d, records);
        }
    }

    /// One call per record, one call with the whole stream and every
    /// size between are the same ingest, at every replica count — the
    /// 4,096-row chunk boundary falls inside the longer calls.
    /// Wrong-arity input is counted, not evaluated.
    #[test]
    fn batch_ingest_matches_per_record_ingest_bitwise() {
        let records: Vec<_> = (0..10_500u64).map(stream_record).collect();
        for shards in 1..9 {
            for call in [1, 7, 64, 4096, 4097, 10_000] {
                assert_stream_invariant(&records, shards, call);
            }
        }

        let (keys, rows) = staged(&records[..300]);
        let mut d = ShardedDigest::compile(MERGEABLE, &schema(), 4).unwrap();
        d.ingest_raw_rows(&keys, &rows);
        d.ingest_raw(0, &[1]);
        assert_eq!(d.stats().skipped, 1);
        d.ingest_raw_rows(&keys, &rows[1..]);
        assert_eq!(d.stats().skipped, 301);
        assert_eq!(d.stats().events, 300);
    }

    #[allow(unused)] // a typecheck-only proptest elides macro bodies, orphaning these imports
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// K replicas fed in batches ≡ one sequential scalar
            /// instance, for random record streams (trapping rows
            /// included), replica counts and call sizes.
            #[test]
            fn prop_parallel_batched_equals_sequential(
                records in proptest::collection::vec(
                    (0u64..64, 0i64..100_000,
                     proptest::sample::select(vec![0i64, 1, 80, 1023, 1024, 9000])),
                    0..400),
                shards in 1usize..9,
                call in proptest::sample::select(vec![1usize, 7, 64, 4096, 4097, 10_000]),
            ) {
                assert_stream_invariant(&records, shards, call);
            }
        }
    }
}
