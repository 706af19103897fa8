//! Regression tests for the receive path's allocation discipline: once
//! a stream's schema is learned and the caller's row buffer has grown
//! to size, `ChannelDecoder::decode_row` must never touch the heap —
//! the schema and its compiled row codec are borrowed, and rows append
//! into the caller's buffer. (The `Value` path it replaced allocated a
//! vector per record.) Likewise a digest whose column scratch has grown
//! to the caller's batch size ingests without allocating, and a warm
//! receiver allocates only the replies it returns.
//!
//! This file is its own test binary so the counting `#[global_allocator]`
//! observes only this test. Same pattern as `crates/{kprof,ecode}/tests/
//! zero_alloc.rs`, with the count kept thread-local: only the test
//! thread's allocations matter, and a `Cell` needs no atomics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pbio::{FieldType, Schema};
use pubsub::digest::ShardedDigest;
use pubsub::reliable::{encode_batch, Receiver, GAP_NACK_LIMIT};
use pubsub::{frame_into, ChannelDecoder, Hub};
use simcore::SimTime;
use simnet::{EndPoint, Ip, Port};

struct CountingAlloc;

thread_local! {
    // const-initialized so the first access inside `alloc` itself never
    // allocates. `None` = not tracking.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_if_tracking() {
    ALLOCATIONS.with(|a| a.set(a.get().map(|n| n + 1)));
}

// SAFETY: pure pass-through to `System`, which upholds the GlobalAlloc
// contract; the only addition is a thread-local counter bump that never
// allocates or touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_tracking();
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`;
        // forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller guarantees `ptr` came from this allocator with
        // this `layout`; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_tracking();
        // SAFETY: caller guarantees `ptr`/`layout` validity per the
        // GlobalAlloc contract; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn decode_row_into_a_warm_buffer_never_allocates() {
    let schema = Schema::build("mix")
        .field("a", FieldType::U64)
        .field("b", FieldType::I64)
        .field("c", FieldType::F64)
        .field("d", FieldType::Bool)
        .finish()
        .unwrap();
    let mut hub = Hub::new();
    let topic = hub.topic("t");
    hub.subscribe(topic, EndPoint::new(Ip(1), Port(9999)))
        .unwrap();
    const BATCH: i64 = 64;
    let wires: Vec<Vec<u8>> = (0..BATCH)
        .map(|i| {
            let row = [i << 40, -i * 1_000_003, (i as f64).to_bits() as i64, i % 2];
            hub.publish_raw(topic, &schema, &row).unwrap().remove(0).1
        })
        .collect();

    let mut dec = ChannelDecoder::new();
    let mut rows = Vec::new();
    let mut run = |wires: &[Vec<u8>], rows: &mut Vec<i64>| {
        rows.clear();
        for wire in wires {
            dec.decode_row(wire, rows).unwrap();
        }
    };
    // Warm-up: learns the schema (the first frame inlines it, which
    // allocates, once per stream) and grows the row buffer to a batch.
    run(&wires, &mut rows);

    ALLOCATIONS.with(|a| a.set(Some(0)));
    for _ in 0..1_000 {
        run(&wires[1..], &mut rows);
    }
    let allocations = ALLOCATIONS.with(|a| a.replace(None)).unwrap();

    assert_eq!(rows.len(), (wires.len() - 1) * schema.len());
    assert_eq!(
        rows[rows.len() - 4..],
        [63 << 40, -63 * 1_000_003, 63f64.to_bits() as i64, 1]
    );
    assert_eq!(allocations, 0, "decode_row allocated on a warm stream");

    // Control: the counter sees the `Value` adapter's per-record vector.
    ALLOCATIONS.with(|a| a.set(Some(0)));
    dec.decode(&wires[1]).unwrap();
    assert!(ALLOCATIONS.with(|a| a.replace(None)).unwrap() > 0);
}

/// The `gpa_wire` shape: 64-row deliveries into a two-replica digest.
/// After the first call sized the scratch, ingest is allocation-free
/// (the engine once built a vector of column views per evaluated
/// batch), and a read folds into one fresh instance.
#[test]
fn warm_digest_ingest_never_allocates() {
    let schema = Schema::build("rec")
        .field("size", FieldType::U64)
        .field("port", FieldType::U64)
        .finish()
        .unwrap();
    let src = "
        static int count = 0;
        static int bytes = 0;
        count = count + 1;
        bytes = bytes + size;
        if (port < 1024) { bytes = bytes + 1; }
        return count;
    ";
    let mut digest = ShardedDigest::compile(src, &schema, 2).unwrap();
    assert_eq!(digest.stats().shards, 2);
    assert_eq!(digest.batch_bail(), None, "the column path is under test");
    let keys: Vec<u64> = (0..64).collect();
    let rows: Vec<i64> = (0..64).flat_map(|i| [i * 100, 80 + i * 40]).collect();
    digest.ingest_raw_rows(&keys, &rows);

    ALLOCATIONS.with(|a| a.set(Some(0)));
    for _ in 0..1_000 {
        digest.ingest_raw_rows(&keys, &rows);
    }
    let ingest = ALLOCATIONS.with(|a| a.replace(Some(0))).unwrap();
    let count = digest.merged_global("count");
    let read = ALLOCATIONS.with(|a| a.replace(None)).unwrap();

    assert_eq!(count, Some(ecode::Value::Int(64 * 1_001)));
    assert_eq!(ingest, 0, "ingest_raw_rows allocated on a warm digest");
    assert!(read <= 16, "one fold allocated {read} times");

    // Control: the counter sees a cold digest size its scratch.
    let mut cold = ShardedDigest::compile(src, &schema, 2).unwrap();
    ALLOCATIONS.with(|a| a.set(Some(0)));
    cold.ingest_raw_rows(&keys, &rows);
    assert!(ALLOCATIONS.with(|a| a.replace(None)).unwrap() > 0);
}

/// The whole receive half at `gpa_wire`'s batch size: once a stream's
/// schema is learned and the row buffer has grown, `Receiver::ingest`
/// of an in-order 64-frame batch (sequence header, frame walk, decode,
/// delivery, cumulative ACK) allocates exactly one vector, the replies
/// it returns.
#[test]
fn warm_receiver_ingest_allocates_only_its_replies() {
    let schema = Schema::build("rec")
        .field("a", FieldType::U64)
        .field("b", FieldType::U64)
        .field("c", FieldType::U64)
        .field("d", FieldType::U64)
        .finish()
        .unwrap();
    let (gpa, src) = (EndPoint::new(Ip(9), Port(7)), EndPoint::new(Ip(1), Port(5)));
    let mut hub = Hub::new();
    let topic = hub.topic("t");
    hub.subscribe(topic, gpa).unwrap();
    const BATCHES: u64 = 101;
    let batches: Vec<Vec<u8>> = (1..=BATCHES)
        .map(|seq| {
            let mut payload = Vec::new();
            for i in 0..64i64 {
                // One-, two-, three- and ten-byte varints.
                let row = [i, i << 10, (seq as i64) << 16, -i];
                let (_, wire) = hub.publish_raw(topic, &schema, &row).unwrap().remove(0);
                frame_into(&mut payload, &wire);
            }
            encode_batch(seq, &payload)
        })
        .collect();

    let mut rx = Receiver::new(vec![schema], GAP_NACK_LIMIT);
    let mut delivered = 0usize;
    let mut ingest = |rx: &mut Receiver, k: usize| {
        let now = SimTime::from_micros(k as u64);
        let on_batch = &mut |_: u64, rows: &[Vec<i64>]| delivered += rows[0].len();
        rx.ingest(now, gpa, src, &batches[k], on_batch)
    };
    // Warm-up: the first batch announces the schema and sizes the rows.
    assert_eq!(ingest(&mut rx, 0).0, 64);

    ALLOCATIONS.with(|a| a.set(Some(0)));
    for k in 1..BATCHES as usize {
        let (count, replies) = ingest(&mut rx, k);
        assert_eq!((count, replies.len()), (64, 1));
    }
    let allocations = ALLOCATIONS.with(|a| a.replace(None)).unwrap();

    assert_eq!(delivered, BATCHES as usize * 64 * 4);
    assert_eq!(rx.decode_failures, 0);
    assert_eq!(
        allocations,
        BATCHES - 1,
        "a warm in-order batch allocates its replies and nothing else"
    );
}

/// The send half's two entry points on a warm hub (schema announced,
/// encoder compiled, scratch grown). `publish_raw` allocates what it
/// returns and nothing else: the list and one message per subscriber
/// (two subscribers here, one filtered). `publish_rows` allocates only
/// each subscriber's batch, once, whether the call carries 10 rows or
/// 100: nothing per record.
#[test]
fn warm_publishes_allocate_only_what_they_return() {
    let schema = Schema::build("rec")
        .field("a", FieldType::U64)
        .field("b", FieldType::U64)
        .field("c", FieldType::I64)
        .finish()
        .unwrap();
    let (gpa, other) = (EndPoint::new(Ip(9), Port(7)), EndPoint::new(Ip(8), Port(7)));
    let mut hub = Hub::new();
    let topic = hub.topic("t");
    hub.subscribe(topic, gpa).unwrap();
    hub.subscribe_with_schema(topic, other, Some("return a > 50;"), &schema)
        .unwrap();
    let rows: Vec<i64> = (0..100i64).flat_map(|i| [i, i << 12, -i]).collect();
    let mut batches = std::collections::BTreeMap::new();
    hub.publish_rows(topic, &schema, &rows, &mut batches)
        .unwrap();

    ALLOCATIONS.with(|a| a.set(Some(0)));
    for row in rows.chunks_exact(3) {
        std::hint::black_box(hub.publish_raw(topic, &schema, row).unwrap());
    }
    let raw = ALLOCATIONS.with(|a| a.replace(None)).unwrap();
    // 100 lists and 100 messages to `gpa`, 49 to `other` (a > 50).
    assert_eq!(raw, 100 + 100 + 49, "publish_raw's allocations");

    let mut wake = |n: usize| {
        let mut batches = std::collections::BTreeMap::new();
        ALLOCATIONS.with(|a| a.set(Some(0)));
        let delivered = hub
            .publish_rows(topic, &schema, &rows[..n * 3], &mut batches)
            .unwrap();
        let allocations = ALLOCATIONS.with(|a| a.replace(None)).unwrap();
        (delivered, allocations)
    };
    let (few, many) = (wake(60), wake(100));
    assert_eq!((few.0, many.0), (60 + 9, 100 + 49));
    assert_eq!(few.1, many.1, "publish_rows allocated per record");
    // Two batches: a map node and one reservation each.
    assert_eq!(many.1, 3);
}
