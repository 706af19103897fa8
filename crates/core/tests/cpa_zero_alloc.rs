//! Regression test for the CPA host's allocation discipline: after
//! warmup, a million `CpaAnalyzer::on_event` calls — the event's input
//! row, the run on the event's own inputs, the fold of `out()` into the
//! per-slot values — must never touch the heap, whether the program runs
//! as compiled closures or its block on the interpreter, and whether its
//! slots are array slots or stray ones.
//!
//! This file is its own test binary so the counting `#[global_allocator]`
//! observes only this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ecode::ExecTier;
use kprof::{Analyzer, Event, EventMask, EventPayload, NetPoint, Pid};
use simcore::{NodeId, SimTime};
use simnet::{EndPoint, FlowKey, Ip, PacketId, Port};
use sysprof::CpaAnalyzer;

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

/// The pipeline CPA: a running ratio with a guarded reporter, on the
/// whole-program closures.
const RATIO: &str = r#"
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

/// A slot read from the event: outside `0..=63` for most events, and a
/// block the interpreter runs.
const STRAY: &str = "out(port_dst, size); return size % 3 == 0;";

fn event(i: u64) -> Event {
    Event {
        seq: i,
        node: NodeId(0),
        cpu: 0,
        wall: SimTime::from_micros(i),
        payload: EventPayload::Net {
            point: NetPoint::RxNic,
            flow: FlowKey::new(
                EndPoint::new(Ip(1), Port(5000)),
                EndPoint::new(Ip(2), Port([80, 443, 7][(i % 3) as usize])),
            ),
            packet: PacketId(i),
            size: (i * 337 % 1500) as u32,
            pid: Some(Pid(1)),
            arm: None,
        },
    }
}

#[test]
fn million_cpa_events_allocate_nothing_after_warmup() {
    for src in [RATIO, STRAY] {
        let mut cpa = CpaAnalyzer::compile("zero-alloc", src, EventMask::NETWORK).unwrap();
        assert_eq!(cpa.tier(), ExecTier::Compiled, "{src}");
        // Warmup: the output arena and the stray slots reach their steady
        // state.
        for i in 0..10_000 {
            cpa.on_event(&event(i));
        }
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        TRACK.with(|t| t.set(true));
        for i in 10_000..1_010_000 {
            cpa.on_event(&event(i));
        }
        TRACK.with(|t| t.set(false));
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "CpaAnalyzer::on_event allocated {} times across 1M post-warmup events of {src}",
            after - before
        );
        // Sanity: the loop really flagged and published.
        assert!(cpa.flagged() > 0, "{src}");
        assert!(
            cpa.output(0).is_some() || cpa.output(443).is_some(),
            "{src}"
        );
        assert_eq!(cpa.events(), 1_010_000);
    }
}
