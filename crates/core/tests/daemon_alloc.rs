//! Regression test for the daemon's allocation discipline on a wake:
//! once its drain buffer, raw rows and the hub's scratch have grown, a
//! wake allocates per batch it sends, never per record, so a wake that
//! publishes 10 records and one that publishes 100 allocate alike.
//!
//! This file is its own test binary so the counting `#[global_allocator]`
//! observes only this test. Same pattern as `crates/pubsub/tests/
//! zero_alloc.rs`: the count is thread-local, so only the test thread's
//! allocations are seen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use kprof::{AnalyzerId, EventPayload, Kprof, NetPoint, Pid};
use pubsub::Hub;
use simcore::{NodeId, SimTime};
use simnet::{EndPoint, FlowKey, Ip, PacketId, Port};
use simos::{DaemonHook, NodeStats};
use sysprof::{Daemon, DaemonConfig, InteractionRecord, Lpa, LpaConfig, INTERACTION_TOPIC};

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

const ME: Ip = Ip(2);
const GPA: EndPoint = EndPoint::new(Ip(9), sysprof::DATA_PORT);

/// One monitored node: a Kprof with the LPA registered, the daemon
/// draining it, and the GPA subscribed unfiltered.
struct Node {
    kprof: Kprof,
    lpa: AnalyzerId,
    daemon: Daemon,
    /// Wall time of the next exchange, µs.
    t: u64,
}

impl Node {
    fn new() -> Node {
        let mut kprof = Kprof::new(NodeId(1));
        let config = LpaConfig {
            window: 1024,
            ..LpaConfig::default()
        };
        let lpa = kprof.register(Box::new(Lpa::new(NodeId(1), ME, config)));
        let hub = Rc::new(RefCell::new(Hub::new()));
        let daemon = Daemon::new(lpa, hub.clone(), DaemonConfig::default());
        let mut h = hub.borrow_mut();
        let topic = h.topic_id(INTERACTION_TOPIC).expect("the daemon's topic");
        h.subscribe_with_schema(topic, GPA, None, &InteractionRecord::schema())
            .unwrap();
        drop(h);
        Node {
            kprof,
            lpa,
            daemon,
            t: 1_000,
        }
    }

    /// Feeds request/response exchanges on one flow until `n` more
    /// interactions have completed (each request closes the exchange
    /// before it).
    fn stage(&mut self, n: u64) {
        let lpa = |k: &mut Kprof, id| k.analyzer_as_mut::<Lpa>(id).unwrap().records_completed();
        let goal = lpa(&mut self.kprof, self.lpa) + n;
        let req = FlowKey::new(
            EndPoint::new(Ip(1), Port(40000)),
            EndPoint::new(ME, Port(80)),
        );
        let pid = Some(Pid(7));
        while lpa(&mut self.kprof, self.lpa) < goal {
            let net = |point, flow, size| EventPayload::Net {
                point,
                flow,
                packet: PacketId(self.t),
                size,
                pid,
                arm: None,
            };
            let steps = [
                (0, net(NetPoint::RxNic, req, 600)),
                (20, net(NetPoint::RxSocketBuffer, req, 600)),
                (300, net(NetPoint::RxDeliverUser, req, 600)),
                (420, net(NetPoint::TxFromUser, req.reversed(), 200)),
                (440, net(NetPoint::TxNicDone, req.reversed(), 200)),
            ];
            for (dt, payload) in steps {
                let ev = self
                    .kprof
                    .make_event(SimTime::from_micros(self.t + dt), 0, payload);
                self.kprof.emit(&ev);
            }
            self.t += 1_000;
        }
    }

    /// One buffer-full wake; returns its allocations and the records it
    /// published. Every batch is acknowledged after it.
    fn wake(&mut self) -> (u64, u64) {
        let stats = self.daemon.stats_handle();
        let before = stats.borrow().records_published;
        let now = SimTime::from_micros(self.t);
        let node = NodeStats::default();
        ALLOCATIONS.with(|a| a.set(Some(0)));
        let out = self
            .daemon
            .on_wake(now, NodeId(1), Some(self.lpa), &mut self.kprof, &node);
        let allocations = ALLOCATIONS.with(|a| a.replace(None)).unwrap();
        assert_eq!(out.sends.len(), 1);
        self.daemon.resend_handle().borrow_mut().ack(GPA, u64::MAX);
        let published = stats.borrow().records_published - before;
        (allocations, published)
    }
}

#[test]
fn a_warm_wake_allocates_alike_for_10_and_100_records() {
    let mut node = Node::new();
    // Warm-up: the schema is announced and every buffer grows to a
    // 100-record wake.
    for _ in 0..3 {
        node.stage(100);
        node.wake();
    }
    node.stage(10);
    let (few, ten) = node.wake();
    node.stage(100);
    let (many, hundred) = node.wake();
    assert_eq!((ten, hundred), (10, 100));
    assert_eq!(few, many, "a wake allocated per record");
}
