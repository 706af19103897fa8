//! Regression test for the compiled execution tier's allocation
//! discipline: after warmup, running a compiled E-Code program a million
//! times — block closures, cross-block carries, fuel precharge, output
//! publication, and the starved-budget per-op fallback — must never
//! touch the heap. The closures borrow the instance's reusable arenas
//! (`ecode::jit::Ctx`); a stray `Vec`/`Box` in a block body would break
//! always-on monitoring budgets exactly like one in `Kprof::emit`.
//!
//! This file is its own test binary so the counting `#[global_allocator]`
//! observes only this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ecode::{ExecTier, Instance, Program, Type};

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

/// The canonical hot-path CPA shape: branches, a short-circuit join
/// (cross-block carry), float accumulation, and an `out()` publication.
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

const INPUTS: [(&str, Type); 2] = [("size", Type::Int), ("port", Type::Int)];

#[test]
fn million_compiled_runs_allocate_nothing_after_warmup() {
    let program = Program::compile(CPA_SRC, &INPUTS).unwrap();
    let fuel = program.static_fuel_bound();
    let mut inst = Instance::new(&program);
    assert_eq!(
        inst.tier(),
        ExecTier::Compiled,
        "test is vacuous unless the program takes the compiled tier"
    );

    // Warmup: the outputs arena and locals grow to steady state on the
    // first few runs (both paths of the branch get exercised).
    for i in 0..10_000i64 {
        let raw = [i * 500 % 3000, if i % 3 == 0 { 2049 } else { 80 }];
        inst.run_raw(&raw, fuel).unwrap();
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    TRACK.with(|t| t.set(true));
    let mut flagged = 0u64;
    for i in 10_000..1_010_000i64 {
        let raw = [i * 500 % 3000, if i % 3 == 0 { 2049 } else { 80 }];
        let out = inst.run_raw(&raw, fuel).unwrap();
        if out.ret != 0 {
            flagged += 1;
        }
    }
    // The starved-budget per-op fallback runs on the (already warmed)
    // stack arena; it must be allocation-free too.
    for i in 0..1_000i64 {
        let raw = [i * 500 % 3000, 2049];
        let _ = inst.run_raw(&raw, 3);
    }
    // And the batch entry point: the hoisted context borrows the same
    // arenas, so a whole window must also run without touching the heap
    // (the row buffer is the caller's).
    TRACK.with(|t| t.set(false));
    let mut rows = Vec::with_capacity(2 * 4096);
    for i in 0..4096i64 {
        rows.push(i * 500 % 3000);
        rows.push(if i % 3 == 0 { 2049 } else { 80 });
    }
    TRACK.with(|t| t.set(true));
    inst.run_raw_batch(&rows, fuel, |out| {
        if out.ret != 0 {
            flagged += 1;
        }
    })
    .unwrap();
    TRACK.with(|t| t.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "compiled tier allocated {} times across 1M post-warmup runs",
        after - before
    );
    // Sanity: the loop really did take the accumulate-and-flag path.
    assert!(flagged > 0);
}
