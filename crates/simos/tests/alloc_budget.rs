//! Allocation budget of the packet path: a steady-state unmonitored bulk
//! stream allocates per *message* (reassembly buffers, the delivered
//! packet list), never per *packet* — no fresh `Vec` of arrival times per
//! transmit, no boxed sink taken out of its table and put back, no actions
//! buffer per program callback.
//!
//! This file is its own test binary so the counting `#[global_allocator]`
//! observes only this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simcore::{NodeId, SimDuration, SimTime};
use simnet::{LinkSpec, Port};
use simos::programs::{BulkSender, SinkServer};
use simos::WorldBuilder;

/// Counts every allocation and every (re)allocation on the test thread
/// while [`TRACK`] is set. The counters are thread-local cells: libtest's
/// harness threads allocate at their own pace and are not interesting.
struct CountingAlloc;

thread_local! {
    // const-initialized so the first access inside `alloc` itself never
    // allocates.
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_tracking() {
    if TRACK.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
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

/// Allocations per 1,000 packets received, as measured on this stream:
/// six per 64 KB message (52 packets on this link), which is the
/// reassembly's packet list growing by doubling and the ready-queue
/// entry. One allocation per packet would read 1,000 or more.
const BUDGET_PER_1000_PACKETS: u64 = 114;

#[test]
fn steady_state_bulk_stream_allocates_per_message_not_per_packet() {
    let mut w = WorldBuilder::new(9)
        .node("sender")
        .node("receiver")
        .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
        .build()
        .expect("valid topology");
    w.spawn(NodeId(1), "sink", Box::new(SinkServer::new(Port(5001))));
    w.spawn(
        NodeId(0),
        "iperf",
        Box::new(BulkSender::new(
            NodeId(1),
            Port(5001),
            64 * 1024,
            SimDuration::from_secs(1),
        )),
    );
    // Warm-up: tables, queues and the calendar reach their working size.
    w.run_until(SimTime::from_millis(100));
    let before = w.node_stats(NodeId(1));

    TRACK.with(|t| t.set(true));
    w.run_until(SimTime::from_millis(400));
    TRACK.with(|t| t.set(false));

    let after = w.node_stats(NodeId(1));
    let packets = after.packets_in - before.packets_in;
    let messages = after.messages_delivered - before.messages_delivered;
    let allocations = ALLOCATIONS.with(Cell::get);
    assert!(
        packets > 10_000 && messages > 200,
        "{packets} packets, {messages} messages"
    );
    let per_1000 = allocations * 1000 / packets;
    assert!(
        per_1000 <= BUDGET_PER_1000_PACKETS,
        "{allocations} allocations for {packets} packets ({messages} messages) = {per_1000} per 1,000 packets, \
         budget {BUDGET_PER_1000_PACKETS}"
    );
    assert!(
        allocations >= messages,
        "reassembly still allocates per message; a count below that means the counter is off"
    );
}
