//! Dynamic Window-Constrained Scheduling (DWCS) and the resource-aware
//! variant (RA-DWCS) used in the SysProf paper's RUBiS evaluation (§3.3).
//!
//! DWCS (West & Schwan) schedules streams of requests where each stream
//! tolerates losing at most `x` out of every `y` consecutive deadlines —
//! the *window constraint* `x/y`. The SysProf paper applies it as a
//! black-box request scheduler for two RUBiS request classes (bidding:
//! tight constraint; comments: loose constraint), then shows that a
//! *resource-aware* DWCS consulting SysProf's per-server load measurements
//! for dispatch decisions preserves QoS under load imbalance.
//!
//! # Scheduling rules implemented
//!
//! Each stream `i` has a request period `T_i` (its requests' relative
//! deadline), original constraint `x_i/y_i`, and current constraint
//! `x'_i/y'_i`. Pairwise precedence between streams with pending requests
//! (head-request deadlines `d`):
//!
//! 1. earliest deadline first;
//! 2. equal deadlines → lowest current window-constraint value first
//!    (`x'/y'` as a rational, `0/y` being the lowest);
//! 3. equal deadlines and both constraints zero → highest `y'` first
//!    (a zero tolerance over a longer window is tighter);
//! 4. equal deadlines and equal non-zero constraints → highest `y'` first;
//! 5. all else equal → first-come-first-served.
//!
//! State updates:
//!
//! * **service** (head request dispatched before its deadline):
//!   `y' -= 1`; if `y' == x'` the window is met early and resets to `x/y`;
//! * **miss** (a queued request's deadline passes; the request is dropped
//!   — this is the "loss" DWCS trades): if `x' > 0` then `x' -= 1,
//!   y' -= 1`, resetting when `y' == x'`; if `x' == 0` the stream's
//!   constraint is **violated** (counted; window restarts).
//!
//! # Example
//!
//! ```
//! use dwcs::{Scheduler, StreamSpec, WindowConstraint};
//! use simcore::{SimDuration, SimTime};
//!
//! let mut sched = Scheduler::new();
//! let bids = sched.add_stream(StreamSpec {
//!     name: "bids".into(),
//!     period: SimDuration::from_millis(10),
//!     window: WindowConstraint { x: 1, y: 10 },
//! });
//! sched.enqueue(bids, 1001, SimTime::ZERO);
//! let (stream, req) = sched.next(SimTime::from_millis(1)).expect("pending");
//! assert_eq!((stream, req), (bids, 1001));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ra;

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

/// Identifier of a registered stream (request class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// Loss tolerance: at most `x` missed deadlines in any window of `y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowConstraint {
    /// Tolerable losses per window.
    pub x: u32,
    /// Window length in deadlines.
    pub y: u32,
}

impl WindowConstraint {
    /// The constraint as a fraction (0/y → 0.0).
    pub fn value(&self) -> f64 {
        if self.y == 0 {
            0.0
        } else {
            self.x as f64 / self.y as f64
        }
    }
}

/// Static description of a stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Human-readable class name.
    pub name: String,
    /// Relative deadline of each request.
    pub period: SimDuration,
    /// Original window constraint `x/y`.
    ///
    /// `y` must be nonzero and `x <= y`.
    pub window: WindowConstraint,
}

/// Observable per-stream counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Requests dispatched before their deadline.
    pub serviced: u64,
    /// Requests dropped because their deadline passed.
    pub missed: u64,
    /// Times a miss occurred while `x' == 0` (window constraint broken).
    pub violations: u64,
    /// Requests currently queued.
    pub queued: usize,
}

struct Queued<R> {
    req: R,
    deadline: SimTime,
    seq: u64,
}

struct Stream<R> {
    spec: StreamSpec,
    cur: WindowConstraint,
    queue: VecDeque<Queued<R>>,
    stats: StreamStats,
}

impl<R> Stream<R> {
    fn reset_window(&mut self) {
        self.cur = self.spec.window;
    }

    fn on_service(&mut self) {
        self.stats.serviced += 1;
        if self.cur.y > 0 {
            self.cur.y -= 1;
        }
        if self.cur.y == self.cur.x {
            self.reset_window();
        }
    }

    fn on_miss(&mut self) {
        self.stats.missed += 1;
        if self.cur.x > 0 {
            self.cur.x -= 1;
            self.cur.y = self.cur.y.saturating_sub(1);
            if self.cur.y == self.cur.x {
                self.reset_window();
            }
        } else {
            self.stats.violations += 1;
            self.reset_window();
        }
    }
}

/// The DWCS request scheduler, generic over the request payload.
pub struct Scheduler<R = u64> {
    streams: Vec<Stream<R>>,
    next_seq: u64,
}

impl<R> Default for Scheduler<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> Scheduler<R> {
    /// An empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            streams: Vec::new(),
            next_seq: 0,
        }
    }

    /// Registers a request class.
    ///
    /// # Panics
    ///
    /// Panics if the window constraint is malformed (`y == 0` or
    /// `x > y`).
    pub fn add_stream(&mut self, spec: StreamSpec) -> StreamId {
        assert!(
            spec.window.y > 0 && spec.window.x <= spec.window.y,
            "window constraint {}/{} is malformed",
            spec.window.x,
            spec.window.y
        );
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(Stream {
            cur: spec.window,
            spec,
            queue: VecDeque::new(),
            stats: StreamStats::default(),
        });
        id
    }

    /// Queues a request arriving at `now`; its deadline is
    /// `now + period`.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is unknown.
    pub fn enqueue(&mut self, stream: StreamId, req: R, now: SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = &mut self.streams[stream.0 as usize];
        let deadline = now + s.spec.period;
        s.queue.push_back(Queued { req, deadline, seq });
        s.stats.queued = s.queue.len();
    }

    /// Drops every queued request whose deadline has passed, applying the
    /// miss rule per drop. Returns the dropped requests. Called
    /// automatically by [`next`](Scheduler::next); exposed for tests and
    /// for callers that want the casualties.
    pub fn expire(&mut self, now: SimTime) -> Vec<(StreamId, R)> {
        let mut dropped = Vec::new();
        for (i, s) in self.streams.iter_mut().enumerate() {
            while let Some(head) = s.queue.front() {
                if head.deadline < now {
                    let q = s.queue.pop_front().expect("checked front");
                    s.on_miss();
                    dropped.push((StreamId(i as u32), q.req));
                } else {
                    break;
                }
            }
            s.stats.queued = s.queue.len();
        }
        dropped
    }

    /// Like [`next`](Scheduler::next) but without removing the request:
    /// expires missed requests, then returns the stream and a reference to
    /// the request that `next` would dispatch. Lets a dispatcher check
    /// resource availability before committing (head-of-line semantics).
    pub fn peek(&mut self, now: SimTime) -> Option<(StreamId, &R)> {
        self.expire(now);
        let mut best: Option<usize> = None;
        for (i, s) in self.streams.iter().enumerate() {
            if s.queue.is_empty() {
                continue;
            }
            best = Some(match best {
                None => i,
                Some(b) => {
                    if Self::beats(&self.streams[i], &self.streams[b]) {
                        i
                    } else {
                        b
                    }
                }
            });
        }
        let i = best?;
        let req = &self.streams[i].queue.front().expect("nonempty").req;
        Some((StreamId(i as u32), req))
    }

    /// Picks and removes the highest-precedence pending request, after
    /// expiring missed ones. Returns `None` when nothing is queued.
    pub fn next(&mut self, now: SimTime) -> Option<(StreamId, R)> {
        self.expire(now);
        let mut best: Option<usize> = None;
        for (i, s) in self.streams.iter().enumerate() {
            if s.queue.is_empty() {
                continue;
            }
            best = Some(match best {
                None => i,
                Some(b) => {
                    if Self::beats(&self.streams[i], &self.streams[b]) {
                        i
                    } else {
                        b
                    }
                }
            });
        }
        let i = best?;
        let s = &mut self.streams[i];
        let q = s.queue.pop_front().expect("nonempty");
        s.on_service();
        s.stats.queued = s.queue.len();
        Some((StreamId(i as u32), q.req))
    }

    /// The DWCS pairwise precedence: does `a` beat `b`?
    fn beats(a: &Stream<R>, b: &Stream<R>) -> bool {
        let (ha, hb) = (
            a.queue.front().expect("a pending"),
            b.queue.front().expect("b pending"),
        );
        // 1. EDF.
        if ha.deadline != hb.deadline {
            return ha.deadline < hb.deadline;
        }
        // 2. Lowest current window-constraint value.
        let (wa, wb) = (a.cur.value(), b.cur.value());
        if wa != wb {
            return wa < wb;
        }
        // 3./4. Equal constraints: highest window denominator (tighter).
        if a.cur.y != b.cur.y {
            return a.cur.y > b.cur.y;
        }
        // 5. FCFS.
        ha.seq < hb.seq
    }

    /// A stream's counters.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is unknown.
    pub fn stats(&self, stream: StreamId) -> StreamStats {
        let s = &self.streams[stream.0 as usize];
        let mut st = s.stats;
        st.queued = s.queue.len();
        st
    }

    /// Total requests queued across streams.
    pub fn pending(&self) -> usize {
        self.streams.iter().map(|s| s.queue.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The stream's current (dynamic) window constraint.
    fn window(s: &Scheduler<u32>, stream: StreamId) -> WindowConstraint {
        s.streams[stream.0 as usize].cur
    }

    fn spec(name: &str, period_ms: u64, x: u32, y: u32) -> StreamSpec {
        StreamSpec {
            name: name.into(),
            period: SimDuration::from_millis(period_ms),
            window: WindowConstraint { x, y },
        }
    }

    #[test]
    fn edf_orders_across_streams() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let fast = s.add_stream(spec("fast", 5, 1, 2));
        let slow = s.add_stream(spec("slow", 50, 1, 2));
        s.enqueue(slow, 1, SimTime::ZERO);
        s.enqueue(fast, 2, SimTime::ZERO);
        // fast's head deadline (5ms) beats slow's (50ms).
        assert_eq!(s.next(SimTime::ZERO), Some((fast, 2)));
        assert_eq!(s.next(SimTime::ZERO), Some((slow, 1)));
        assert_eq!(s.next(SimTime::ZERO), None);
    }

    #[test]
    fn equal_deadlines_tighter_window_first() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let tight = s.add_stream(spec("tight", 10, 0, 5)); // no losses allowed
        let loose = s.add_stream(spec("loose", 10, 4, 5));
        s.enqueue(loose, 1, SimTime::ZERO);
        s.enqueue(tight, 2, SimTime::ZERO);
        assert_eq!(s.next(SimTime::ZERO), Some((tight, 2)));
    }

    #[test]
    fn fcfs_breaks_full_ties() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let a = s.add_stream(spec("a", 10, 1, 2));
        let b = s.add_stream(spec("b", 10, 1, 2));
        s.enqueue(b, 1, SimTime::ZERO);
        s.enqueue(a, 2, SimTime::ZERO);
        // Same deadline, same constraint: b enqueued first.
        assert_eq!(s.next(SimTime::ZERO), Some((b, 1)));
    }

    #[test]
    fn misses_drop_requests_and_count() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let st = s.add_stream(spec("s", 10, 1, 3));
        s.enqueue(st, 1, SimTime::ZERO); // deadline 10ms
        s.enqueue(st, 2, SimTime::from_millis(100)); // deadline 110ms
        let got = s.next(SimTime::from_millis(100));
        assert_eq!(got, Some((st, 2)), "expired head was dropped");
        let stats = s.stats(st);
        assert_eq!(stats.missed, 1);
        assert_eq!(stats.serviced, 1);
        assert_eq!(stats.violations, 0);
    }

    #[test]
    fn violation_when_zero_tolerance_misses() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let st = s.add_stream(spec("s", 10, 0, 3));
        s.enqueue(st, 1, SimTime::ZERO);
        let dropped = s.expire(SimTime::from_secs(1));
        assert_eq!(dropped.len(), 1);
        assert_eq!(s.stats(st).violations, 1);
    }

    #[test]
    fn window_resets_after_y_services() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let st = s.add_stream(spec("s", 10, 1, 3));
        assert_eq!(window(&s, st), WindowConstraint { x: 1, y: 3 });
        for i in 0..2 {
            s.enqueue(st, i, SimTime::ZERO);
            s.next(SimTime::ZERO);
        }
        // After two services: y' went 3 -> 2 -> 1 == x' -> reset to 1/3.
        assert_eq!(window(&s, st), WindowConstraint { x: 1, y: 3 });
    }

    #[test]
    fn miss_consumes_tolerance() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let st = s.add_stream(spec("s", 10, 2, 5));
        s.enqueue(st, 1, SimTime::ZERO);
        s.expire(SimTime::from_secs(1));
        // One miss: 2/5 -> 1/4.
        assert_eq!(window(&s, st), WindowConstraint { x: 1, y: 4 });
        s.enqueue(st, 2, SimTime::from_secs(2));
        s.expire(SimTime::from_secs(10));
        // Second miss: 1/4 -> 0/3.
        assert_eq!(window(&s, st), WindowConstraint { x: 0, y: 3 });
        assert_eq!(s.stats(st).violations, 0);
    }

    #[test]
    fn constraint_tightens_priority_after_misses() {
        // After losing its tolerance, a stream must win ties it previously
        // lost.
        let mut s: Scheduler<u32> = Scheduler::new();
        let a = s.add_stream(spec("a", 10, 2, 4));
        let b = s.add_stream(spec("b", 10, 1, 4));
        // Make `a` miss twice: 2/4 -> 1/3 -> 0/2.
        s.enqueue(a, 0, SimTime::ZERO);
        s.expire(SimTime::from_millis(50));
        s.enqueue(a, 0, SimTime::from_millis(60));
        s.expire(SimTime::from_millis(200));
        assert_eq!(window(&s, a).x, 0);
        // Now equal-deadline requests: `a` (0/2) beats `b` (1/4).
        let t = SimTime::from_millis(300);
        s.enqueue(a, 1, t);
        s.enqueue(b, 2, t);
        assert_eq!(s.next(t), Some((a, 1)));
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn malformed_window_rejected() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.add_stream(spec("bad", 10, 5, 3));
    }

    #[test]
    fn pending_counts() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let a = s.add_stream(spec("a", 10, 1, 2));
        s.enqueue(a, 1, SimTime::ZERO);
        s.enqueue(a, 2, SimTime::ZERO);
        assert_eq!(s.pending(), 2);
        assert_eq!(s.stats(a).queued, 2);
        s.next(SimTime::ZERO);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn peek_matches_next_without_consuming() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let a = s.add_stream(spec("a", 10, 1, 2));
        let b = s.add_stream(spec("b", 50, 1, 2));
        s.enqueue(b, 1, SimTime::ZERO);
        s.enqueue(a, 2, SimTime::ZERO);
        let peeked = s.peek(SimTime::ZERO).map(|(st, r)| (st, *r));
        assert_eq!(peeked, Some((a, 2)));
        assert_eq!(s.pending(), 2, "peek consumed nothing");
        assert_eq!(s.next(SimTime::ZERO), Some((a, 2)), "peek agreed with next");
    }

    #[test]
    fn peek_expires_like_next() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let a = s.add_stream(spec("a", 10, 1, 3));
        s.enqueue(a, 1, SimTime::ZERO);
        assert!(s.peek(SimTime::from_secs(1)).is_none(), "expired on peek");
        assert_eq!(s.stats(a).missed, 1);
    }

    #[test]
    fn feasible_load_has_no_violations() {
        // A schedulable workload (service always immediate) never violates
        // any stream's window constraint, no matter the mix.
        let mut s: Scheduler<u32> = Scheduler::new();
        let tight = s.add_stream(spec("tight", 10, 0, 10));
        let loose = s.add_stream(spec("loose", 20, 2, 4));
        let mut now = SimTime::ZERO;
        for i in 0..500 {
            now += SimDuration::from_millis(2);
            let st = if i % 2 == 0 { tight } else { loose };
            s.enqueue(st, i, now);
            // Immediate service: always before the deadline.
            assert!(s.next(now).is_some());
        }
        assert_eq!(s.stats(tight).violations, 0);
        assert_eq!(s.stats(loose).violations, 0);
        assert_eq!(s.stats(tight).missed, 0);
        assert_eq!(s.stats(loose).missed, 0);
    }

    #[test]
    fn overload_losses_respect_relative_tolerance() {
        // Under systematic overload with equal deadlines, the tighter
        // stream (0/y) must lose proportionally less than the loose one
        // (DWCS's whole point).
        let mut s: Scheduler<u32> = Scheduler::new();
        let tight = s.add_stream(spec("tight", 40, 0, 5));
        let loose = s.add_stream(spec("loose", 40, 4, 5));
        let mut now = SimTime::ZERO;
        for i in 0..400 {
            now += SimDuration::from_millis(10);
            s.enqueue(tight, i, now);
            s.enqueue(loose, i, now);
            // Capacity for only one dispatch per arrival pair.
            s.next(now);
        }
        // Drain expiries.
        s.expire(now + SimDuration::from_secs(10));
        let t = s.stats(tight);
        let l = s.stats(loose);
        assert!(
            t.serviced > l.serviced,
            "tight serviced {} vs loose {}",
            t.serviced,
            l.serviced
        );
        assert!(
            t.missed < l.missed,
            "tight missed {} vs loose {}",
            t.missed,
            l.missed
        );
    }

    proptest! {
        /// Conservation: every enqueued request is eventually serviced or
        /// missed, never duplicated or lost.
        #[test]
        fn prop_conservation(arrivals in proptest::collection::vec((0u64..1000, 0u8..2), 1..200)) {
            let mut s: Scheduler<usize> = Scheduler::new();
            let a = s.add_stream(spec("a", 50, 1, 3));
            let b = s.add_stream(spec("b", 20, 0, 4));
            let streams = [a, b];
            let mut sorted = arrivals.clone();
            sorted.sort_by_key(|(t, _)| *t);
            for (i, (t, which)) in sorted.iter().enumerate() {
                s.enqueue(streams[*which as usize], i, SimTime::from_millis(*t));
            }
            // Drain at a point far in the future: everything expires or
            // gets serviced.
            let mut serviced = 0u64;
            let drain_at = SimTime::from_millis(2000);
            while s.next(drain_at).is_some() {
                serviced += 1;
            }
            let total = s.stats(a).serviced + s.stats(a).missed
                + s.stats(b).serviced + s.stats(b).missed;
            prop_assert_eq!(total, sorted.len() as u64);
            prop_assert_eq!(serviced, s.stats(a).serviced + s.stats(b).serviced);
            prop_assert_eq!(s.pending(), 0);
        }

        /// The current window constraint always satisfies x' <= y' and
        /// y' <= y.
        #[test]
        fn prop_window_invariant(ops in proptest::collection::vec(any::<bool>(), 1..100)) {
            let mut s: Scheduler<u32> = Scheduler::new();
            let st = s.add_stream(spec("s", 10, 2, 7));
            let mut now = SimTime::ZERO;
            for service in ops {
                now += SimDuration::from_millis(1);
                s.enqueue(st, 0, now);
                if service {
                    s.next(now);
                } else {
                    now += SimDuration::from_millis(100);
                    s.expire(now);
                }
                let w = window(&s, st);
                prop_assert!(w.x <= w.y, "x'={} y'={}", w.x, w.y);
                prop_assert!(w.y <= 7);
                prop_assert!(w.y >= 1);
            }
        }
    }
}
