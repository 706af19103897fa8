//! The parallel digest plane: one worker thread per shard, fed columnar
//! record batches over bounded channels.
//!
//! This is the one corner of the workspace that uses real OS threads
//! (analyzer rule D0004 is waived for this file, see `analyzer.toml`):
//! the sharded GPA digest is an *engine* component, not simulated
//! workload, and the whole point of the shard-safety analysis is that
//! replica evaluation can leave the simulator's single-threaded world.
//! Thread scheduling still cannot leak into results — see the module
//! docs in [`super`] and DESIGN.md §11 for the argument.
//!
//! # Protocol
//!
//! Each worker owns its replica [`Instance`] and drains one bounded
//! SPSC channel of [`WorkerMsg`]s. Quiescence needs no locks or
//! atomics (D0004 forbids them anyway): channels are FIFO, so a
//! [`WorkerMsg::Drain`] enqueued after a set of batches is handled
//! only after those batches are folded in, and its reply — a clone of
//! the replica plus cumulative fuel/abort counters — is a consistent
//! snapshot. Workers never reset state; the coordinator treats every
//! drain as a fresh barrier read.
//!
//! Consumed batches are recycled to the coordinator over an unbounded
//! return channel, so steady-state ingest allocates nothing.
//!
//! # Failure
//!
//! A worker that panics drops its receiver, which surfaces at the
//! coordinator as a failed send/recv; the coordinator then joins the
//! worker and re-raises the original panic payload rather than hanging
//! a fold on a reply that will never come. `Drop` closes every channel
//! and joins every worker, propagating any parked panic unless the
//! thread is already unwinding.

use std::thread::JoinHandle;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use ecode::{BatchEval, Instance, Program};

/// Full batches staged coordinator-side per shard before they are
/// shipped as one burst. Hash placement spreads consecutive records
/// round-robin across shards, so unstaged flushes would hand every
/// woken worker exactly one batch — on few cores that is a futex wake
/// plus two context switches per batch, which at digest rates costs
/// more than the evaluation itself. Bursts amortize the wake over
/// `STAGE_BATCHES` batches of work.
const STAGE_BATCHES: usize = 4;

/// In-flight batches per worker channel. Sized to absorb a full staged
/// burst without blocking the coordinator mid-send.
const CHANNEL_BATCHES: usize = 2 * STAGE_BATCHES;

/// A structure-of-arrays record batch in one flat allocation: the `j`-th
/// *active* column (see [`Plane::active`]) occupies
/// `buf[j * flush_rows ..][.. rows]`. A single fixed-size buffer keeps
/// the producer's inner loop to plain indexed stores — no per-push
/// length bookkeeping or capacity branches — and recycling it never
/// reallocates. Slots past `rows` are stale garbage from earlier use;
/// readers must slice by `rows`.
#[derive(Debug)]
pub(super) struct ColumnBatch {
    buf: Vec<i64>,
    rows: usize,
}

impl ColumnBatch {
    fn new(n_active: usize, flush_rows: usize) -> ColumnBatch {
        ColumnBatch {
            buf: vec![0; n_active * flush_rows],
            rows: 0,
        }
    }

    /// Reuse the allocation. The buffer is not zeroed: only `[.. rows]`
    /// of each column is ever read.
    fn clear(&mut self) {
        self.rows = 0;
    }

    /// Borrows the `j`-th active column.
    fn col(&self, j: usize, flush_rows: usize) -> &[i64] {
        &self.buf[j * flush_rows..][..self.rows]
    }
}

/// What the coordinator sends a worker.
enum WorkerMsg {
    /// Fold this batch into the replica, then recycle it.
    Batch(ColumnBatch),
    /// Reply with a snapshot of the replica and counters. FIFO ordering
    /// makes this a barrier for everything sent before it.
    Drain(Sender<Snapshot>),
    /// Test hook: panic inside the worker to exercise propagation.
    #[cfg(test)]
    Poison,
}

/// A worker's state at a drain barrier.
pub(super) struct Snapshot {
    pub(super) inst: Instance,
    pub(super) fuel_spent: u64,
    pub(super) aborted: u64,
}

/// Coordinator side of the worker pool. Owned by
/// [`ShardedDigest`](super::ShardedDigest) behind a `RefCell` so
/// `&self` accessors can run drain barriers.
pub(super) struct Plane {
    flush_rows: usize,
    /// `(input position, schema field index)` for every input the
    /// program actually reads. Only these columns are materialized —
    /// unused inputs never touch the batch (the evaluators never read
    /// them), which matters when a digest reads 4 fields of an
    /// 18-field record.
    active: Vec<(usize, usize)>,
    builders: Vec<ColumnBatch>,
    /// Full batches awaiting burst shipment, FIFO per shard.
    staged: Vec<Vec<ColumnBatch>>,
    txs: Vec<Sender<WorkerMsg>>,
    recycled: Vec<Receiver<ColumnBatch>>,
    workers: Vec<Option<JoinHandle<()>>>,
    pub(super) per_shard_events: Vec<u64>,
    /// Reusable per-batch shard-id scratch for [`Plane::ingest_rows`].
    shard_scratch: Vec<u8>,
}

impl Plane {
    /// Spawns `shards` workers, each compiling its own batch evaluator
    /// (or falling back to the scalar VM when the program does not
    /// vectorize). `field_indices[i]` is the schema field position of
    /// program input `i`.
    pub(super) fn spawn(
        program: &Program,
        batch_eval: Option<BatchEval>,
        fuel_bound: u64,
        field_indices: &[usize],
        shards: usize,
        flush_rows: usize,
    ) -> Plane {
        let n_inputs = field_indices.len();
        let used = program.used_inputs();
        let active: Vec<(usize, usize)> = field_indices
            .iter()
            .enumerate()
            .filter(|(input, _)| used[*input])
            .map(|(input, &field)| (input, field))
            .collect();
        // Workers rebuild each batch's column views from the same
        // layout parameters the producer writes with.
        let active_inputs: Vec<usize> = active.iter().map(|&(input, _)| input).collect();
        let mut txs = Vec::with_capacity(shards);
        let mut recycled = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = bounded::<WorkerMsg>(CHANNEL_BATCHES);
            let (back_tx, back_rx) = unbounded::<ColumnBatch>();
            let program = program.clone();
            let batch_eval = batch_eval.clone();
            let active_inputs = active_inputs.clone();
            let handle = std::thread::Builder::new()
                .name(format!("digest-worker-{shard}"))
                .spawn(move || {
                    worker_loop(
                        &program,
                        batch_eval,
                        fuel_bound,
                        n_inputs,
                        &active_inputs,
                        flush_rows,
                        &rx,
                        &back_tx,
                    )
                })
                .expect("spawn digest worker");
            txs.push(tx);
            recycled.push(back_rx);
            workers.push(Some(handle));
        }
        Plane {
            flush_rows,
            builders: (0..shards)
                .map(|_| ColumnBatch::new(active.len(), flush_rows))
                .collect(),
            staged: (0..shards)
                .map(|_| Vec::with_capacity(STAGE_BATCHES))
                .collect(),
            active,
            txs,
            recycled,
            workers,
            per_shard_events: vec![0; shards],
            shard_scratch: Vec::new(),
        }
    }

    pub(super) fn shards(&self) -> usize {
        self.txs.len()
    }

    /// Appends records to their shards' builders, flushing a builder to
    /// its worker when it reaches the batch size: `keys[i]` dispatches
    /// `rows[i * stride..][..stride]`, a full schema row of raw bits from
    /// which the plane's field mapping selects the (used) program
    /// inputs. Shard placement hashes run as a pre-pass over the whole key
    /// slice, so the FNV-1a multiply chains of different keys overlap
    /// in the pipeline instead of serializing record by record; the
    /// builder-append loop then runs without per-record call overhead.
    /// The scatter loop is monomorphized per active-column count so the
    /// compiler unrolls it and keeps the field indices in registers —
    /// digest programs read a handful of an 18-field record, and the
    /// dynamic loop's bookkeeping is measurable at digest rates.
    pub(super) fn ingest_rows(&mut self, keys: &[u64], rows: &[i64], stride: usize) {
        let nshards = self.txs.len();
        let mut shard_ids = std::mem::take(&mut self.shard_scratch);
        shard_ids.clear();
        shard_ids.extend(
            keys.iter()
                .map(|&k| super::place(super::fnv1a(k), nshards) as u8),
        );
        match self.active.len() {
            1 => self.scatter_rows::<1>(&shard_ids, rows, stride),
            2 => self.scatter_rows::<2>(&shard_ids, rows, stride),
            3 => self.scatter_rows::<3>(&shard_ids, rows, stride),
            4 => self.scatter_rows::<4>(&shard_ids, rows, stride),
            5 => self.scatter_rows::<5>(&shard_ids, rows, stride),
            6 => self.scatter_rows::<6>(&shard_ids, rows, stride),
            _ => self.scatter_rows_dyn(&shard_ids, rows, stride),
        }
        self.shard_scratch = shard_ids;
    }

    /// Scatter for programs reading exactly `K` inputs: the field list
    /// lives in a fixed array, so the per-record copy is branch-free
    /// straight-line code after unrolling.
    fn scatter_rows<const K: usize>(&mut self, shard_ids: &[u8], rows: &[i64], stride: usize) {
        let mut fields = [0usize; K];
        for (f, &(_, field)) in fields.iter_mut().zip(&self.active) {
            *f = field;
        }
        let flush = self.flush_rows;
        for (&shard, row) in shard_ids.iter().zip(rows.chunks_exact(stride)) {
            let shard = shard as usize;
            let b = &mut self.builders[shard];
            let mut slot = b.rows;
            for &field in &fields {
                b.buf[slot] = row[field];
                slot += flush;
            }
            b.rows += 1;
            if b.rows >= flush {
                self.flush_shard(shard);
            }
        }
        // Event accounting runs as its own pass over the (L1-resident)
        // id slice, keeping the scatter loop to copy work only.
        for &shard in shard_ids {
            self.per_shard_events[shard as usize] += 1;
        }
    }

    /// Fallback scatter for programs reading more inputs than the
    /// monomorphized variants cover.
    fn scatter_rows_dyn(&mut self, shard_ids: &[u8], rows: &[i64], stride: usize) {
        let flush = self.flush_rows;
        for (&shard, row) in shard_ids.iter().zip(rows.chunks_exact(stride)) {
            let shard = shard as usize;
            let b = &mut self.builders[shard];
            let mut slot = b.rows;
            for &(_, field) in &self.active {
                b.buf[slot] = row[field];
                slot += flush;
            }
            b.rows += 1;
            if b.rows >= flush {
                self.flush_shard(shard);
            }
        }
        for &shard in shard_ids {
            self.per_shard_events[shard as usize] += 1;
        }
    }

    fn next_batch(&mut self, shard: usize) -> ColumnBatch {
        match self.recycled[shard].try_recv() {
            Ok(mut b) => {
                b.clear();
                b
            }
            Err(_) => ColumnBatch::new(self.active.len(), self.flush_rows),
        }
    }

    /// Stages the shard's builder and ships a burst once enough batches
    /// have accumulated (see [`STAGE_BATCHES`]).
    fn flush_shard(&mut self, shard: usize) {
        if self.builders[shard].rows == 0 {
            return;
        }
        let fresh = self.next_batch(shard);
        let full = std::mem::replace(&mut self.builders[shard], fresh);
        self.staged[shard].push(full);
        if self.staged[shard].len() >= STAGE_BATCHES {
            self.ship_shard(shard);
        }
    }

    /// Sends the shard's staged batches back-to-back: one worker wake
    /// services the whole burst.
    fn ship_shard(&mut self, shard: usize) {
        let mut staged = std::mem::take(&mut self.staged[shard]);
        for full in staged.drain(..) {
            if self.txs[shard].send(WorkerMsg::Batch(full)).is_err() {
                self.propagate_death(shard);
            }
        }
        self.staged[shard] = staged;
    }

    /// Ships every partial builder and staged batch to its worker
    /// without waiting for evaluation.
    pub(super) fn flush_all(&mut self) {
        for shard in 0..self.txs.len() {
            self.flush_shard(shard);
            self.ship_shard(shard);
        }
    }

    /// Flushes every partial builder and waits for every worker to
    /// answer a drain barrier. Returns snapshots in shard order, so the
    /// caller's fold order is deterministic no matter how threads were
    /// scheduled.
    pub(super) fn drain(&mut self) -> Vec<Snapshot> {
        self.flush_all();
        let mut replies = Vec::with_capacity(self.txs.len());
        for shard in 0..self.txs.len() {
            let (reply_tx, reply_rx) = bounded::<Snapshot>(1);
            if self.txs[shard].send(WorkerMsg::Drain(reply_tx)).is_err() {
                self.propagate_death(shard);
            }
            replies.push(reply_rx);
        }
        replies
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| match rx.recv() {
                Ok(snap) => snap,
                Err(_) => self.propagate_death(shard),
            })
            .collect()
    }

    /// Test hook: make one worker panic so lifecycle tests can assert
    /// the panic surfaces instead of hanging a fold.
    #[cfg(test)]
    pub(super) fn inject_panic(&mut self, shard: usize) {
        let _ = self.txs[shard].send(WorkerMsg::Poison);
    }

    /// A send or recv against `shard` failed: the worker is gone. Join
    /// it and re-raise its panic payload so the failure carries the
    /// original message, not a channel error.
    fn propagate_death(&mut self, shard: usize) -> ! {
        if let Some(handle) = self.workers[shard].take() {
            match handle.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(()) => panic!("digest worker {shard} exited before its channel closed"),
            }
        }
        panic!("digest worker {shard} died and was already joined");
    }
}

impl Drop for Plane {
    fn drop(&mut self) {
        // Closing the channels ends every worker loop.
        self.txs.clear();
        let panicked: Vec<_> = self
            .workers
            .iter_mut()
            .filter_map(|w| w.take())
            .filter_map(|h| h.join().err())
            .collect();
        if let Some(payload) = panicked.into_iter().next() {
            // Don't turn an unwind already in progress into an abort.
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl std::fmt::Debug for Plane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plane")
            .field("shards", &self.txs.len())
            .field("flush_rows", &self.flush_rows)
            .field("per_shard_events", &self.per_shard_events)
            .finish_non_exhaustive()
    }
}

/// Body of one shard worker: fold batches into the owned replica until
/// the coordinator hangs up. `active_inputs` and `flush_rows` describe
/// the flat batch layout (see [`ColumnBatch`]): the `j`-th entry of
/// `active_inputs` is the program input whose column sits at offset
/// `j * flush_rows`.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    program: &Program,
    mut batch_eval: Option<BatchEval>,
    fuel_bound: u64,
    n_inputs: usize,
    active_inputs: &[usize],
    flush_rows: usize,
    rx: &Receiver<WorkerMsg>,
    back_tx: &Sender<ColumnBatch>,
) {
    let mut inst = Instance::new(program);
    let mut fuel_spent = 0u64;
    let mut aborted = 0u64;
    let mut row_scratch = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Batch(batch) => {
                // Unused inputs get an empty column: neither evaluator
                // reads them (the vectorized one length-checks only
                // used inputs; the scalar VM never loads them, so any
                // placeholder bits do).
                let mut cols: Vec<&[i64]> = vec![&[]; n_inputs];
                for (j, &input) in active_inputs.iter().enumerate() {
                    cols[input] = batch.col(j, flush_rows);
                }
                match &mut batch_eval {
                    Some(be) => {
                        fuel_spent += be.run(&mut inst, &cols, batch.rows);
                    }
                    // Scalar fallback for programs outside the
                    // vectorizable class: row-at-a-time, same replica.
                    None => {
                        for r in 0..batch.rows {
                            row_scratch.clear();
                            row_scratch.extend(cols.iter().map(|c| {
                                if c.is_empty() {
                                    0
                                } else {
                                    c[r]
                                }
                            }));
                            match inst.run_raw(&row_scratch, fuel_bound) {
                                Ok(out) => fuel_spent += out.fuel_used,
                                Err(_) => {
                                    aborted += 1;
                                    fuel_spent += fuel_bound;
                                }
                            }
                        }
                    }
                }
                drop(cols);
                // The coordinator may have stopped recycling; that is
                // not the worker's problem.
                let _ = back_tx.send(batch);
            }
            WorkerMsg::Drain(reply) => {
                let _ = reply.send(Snapshot {
                    inst: inst.clone(),
                    fuel_spent,
                    aborted,
                });
            }
            #[cfg(test)]
            WorkerMsg::Poison => panic!("digest worker poisoned by test"),
        }
    }
}
