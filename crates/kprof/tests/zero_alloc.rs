//! Regression test for the zero-allocation emit hot path: after warmup,
//! pushing a million events through `Kprof::emit` — mask dispatch,
//! predicate checks, analyzer callbacks, and `EmitResult`
//! construction — must never touch the heap.
//!
//! This file is its own test binary so the counting `#[global_allocator]`
//! observes only this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use kprof::{CountingAnalyzer, EventMask, EventPayload, FileId, Kprof, NetPoint, Pid, Predicate};
use simcore::{NodeId, SimTime};
use simnet::{EndPoint, FlowKey, Ip, PacketId, Port};

/// Counts every allocation and every (re)allocation on the test thread
/// while [`TRACK`] is set; frees — and libtest's harness threads, which
/// allocate at their own pace — are not interesting here.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-initialized so the first access inside `alloc` itself never
    // allocates.
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

fn count_if_tracking() {
    TRACK.with(|t| {
        if t.get() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    });
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

/// A deterministic mixed-payload event stream: scheduling, filtered and
/// unfiltered network, and suppressed filesystem events.
fn payload_for(i: u64) -> EventPayload {
    // Decoupled from `i % 4` below so network events cycle pids 1..=4
    // (the filtered analyzer admits only 1 and 2).
    let pid = Pid(1 + ((i >> 2) % 4) as u32);
    match i % 4 {
        0 => EventPayload::Net {
            point: NetPoint::RxNic,
            flow: FlowKey::new(
                EndPoint::new(Ip(1), Port(5000)),
                EndPoint::new(Ip(2), Port(80)),
            ),
            packet: PacketId(i),
            size: 512,
            pid: Some(pid),
            arm: None,
        },
        1 => EventPayload::ProcessWake { pid },
        2 => EventPayload::ContextSwitch {
            from: Some(pid),
            to: None,
        },
        // No FILESYSTEM subscriber: exercises the disabled-hook path.
        _ => EventPayload::FileRead {
            pid,
            file: FileId(7),
            bytes: 4096,
        },
    }
}

#[test]
fn million_event_emit_loop_allocates_nothing_after_warmup() {
    let mut kprof = Kprof::new(NodeId(0));
    kprof.register(Box::new(CountingAnalyzer::new(EventMask::SCHEDULING)));
    kprof.register(Box::new(CountingAnalyzer::new(EventMask::NETWORK)));
    // A predicate-bearing analyzer so the matcher runs too
    // (pid 3 events exercise the rejection path).
    struct Filtered;
    impl kprof::Analyzer for Filtered {
        fn name(&self) -> &str {
            "filtered"
        }
        fn interest(&self) -> kprof::Interest {
            kprof::Interest {
                mask: EventMask::NETWORK,
                predicate: Predicate::new().pids([Pid(1), Pid(2)]).ports([Port(80)]),
            }
        }
        fn on_event(&mut self, _e: &kprof::Event) -> kprof::AnalyzerOutcome {
            kprof::AnalyzerOutcome::default()
        }
    }
    kprof.register(Box::new(Filtered));

    // Warmup: lets the dispatch tables, pid table, and any lazy runtime
    // structures settle.
    for i in 0..10_000u64 {
        let ev = kprof.make_event(SimTime::from_micros(i), 0, payload_for(i));
        kprof.emit(&ev);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    TRACK.with(|t| t.set(true));
    for i in 10_000..1_010_000u64 {
        let ev = kprof.make_event(SimTime::from_micros(i), 0, payload_for(i));
        let result = kprof.emit(&ev);
        // EmitResult's buffer_full vec must be the shared empty vec, not
        // a fresh allocation.
        assert!(result.buffer_full.is_empty());
    }
    TRACK.with(|t| t.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "emit hot path allocated {} times across 1M post-warmup events",
        after - before
    );
    // Sanity: the loop really did dispatch and reject.
    let stats = kprof.stats();
    assert!(stats.events_delivered > 0);
    assert!(stats.predicate_rejections > 0);
    assert!(stats.events_suppressed > 0);
}
