//! The event calendar: a priority queue of `(SimTime, event)` pairs with
//! deterministic FIFO ordering for simultaneous events and support for
//! cancellation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Handle returned by [`EventQueue::schedule`]; can be used to cancel the
/// event before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    seq: u64,
    slot: u32,
}

/// Marks a slot whose event fired or was cancelled.
const VACANT: u64 = u64::MAX;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    slot: u32,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties FIFO, which keeps runs deterministic.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event calendar.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled (FIFO), so a simulation driven by this queue is fully
/// reproducible.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let h = q.schedule(SimTime::from_micros(10), "a");
/// q.schedule(SimTime::from_micros(10), "b");
/// q.cancel(h);
/// assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    // `slots[entry.slot] == entry.seq` while a heap entry is pending.
    // Firing or cancelling vacates the slot and frees it for reuse, so no
    // event pays for a lookup table; pop lazily discards heap entries whose
    // slot has moved on (seqs are unique, so a reused slot never matches).
    slots: Vec<u64>,
    free: Vec<u32>,
    pending: usize,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            pending: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Scheduling in the past is a simulation bug; this panics in debug
    /// builds and clamps to `now` in release builds.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventHandle {
        debug_assert!(
            time >= self.now,
            "scheduled event in the past: {time} < now {}",
            self.now
        );
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = seq;
                slot
            }
            None => {
                self.slots.push(seq);
                u32::try_from(self.slots.len() - 1).expect("under 2^32 events pending at once")
            }
        };
        self.pending += 1;
        self.heap.push(Entry {
            time,
            seq,
            slot,
            event,
        });
        EventHandle { seq, slot }
    }

    /// Vacates `slot` if it still belongs to `seq`; false when that event
    /// already fired or was cancelled.
    fn release(&mut self, seq: u64, slot: u32) -> bool {
        match self.slots.get_mut(slot as usize) {
            Some(owner) if *owner == seq => {
                *owner = VACANT;
                self.free.push(slot);
                self.pending -= 1;
                true
            }
            _ => false,
        }
    }

    /// Cancels a previously scheduled event. Returns `true` if the event had
    /// not yet fired (cancellation took effect), `false` if it already fired
    /// or was already cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.release(handle.seq, handle.slot)
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if !self.release(entry.seq, entry.slot) {
                continue; // cancelled
            }
            self.now = entry.time;
            return Some((entry.time, entry.event));
        }
        None
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let entry = self.heap.peek()?;
            if self.slots[entry.slot as usize] != entry.seq {
                self.heap.pop();
                continue;
            }
            return Some(entry.time);
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), ());
        q.schedule(SimTime::from_micros(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(2));
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(5));
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(2), "b");
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn cancel_unknown_handle_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventHandle { seq: 42, slot: 7 }));
    }

    #[test]
    fn cancel_after_fire_is_refused_even_once_the_slot_is_reused() {
        let mut q = EventQueue::new();
        let fired = q.schedule(SimTime::from_micros(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(fired), "already fired");
        // "b" takes over the slot "a" vacated; the stale handle must not
        // reach it.
        let b = q.schedule(SimTime::from_micros(2), "b");
        assert!(!q.cancel(fired));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel");
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(9), "b");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_micros(1), ());
        q.schedule(SimTime::from_micros(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(h);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    proptest! {
        /// Popping always yields a non-decreasing time sequence, regardless
        /// of the insertion order.
        #[test]
        fn prop_pop_order_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        /// FIFO among equal timestamps: events with the same time pop in
        /// insertion order.
        #[test]
        fn prop_fifo_ties(times in proptest::collection::vec(0u64..10, 1..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut last_seen: crate::hash::HashMap<u64, usize> = Default::default();
            while let Some((t, i)) = q.pop() {
                if let Some(&prev) = last_seen.get(&t.as_nanos()) {
                    prop_assert!(i > prev, "tie broken out of FIFO order");
                }
                last_seen.insert(t.as_nanos(), i);
            }
        }

        /// Any mix of schedule, cancel (of live, fired and already
        /// cancelled handles) and pop agrees with a list that is searched
        /// linearly: same events out in the same order, same `cancel`
        /// answers, same `len()` and `peek_time()` after every step.
        #[test]
        fn prop_matches_linear_model(
            ops in proptest::collection::vec((0u8..5, 0u64..40, 0usize..64), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut handles = Vec::new();
            // (time, id), in schedule order; removed on fire or cancel.
            let mut model: Vec<(SimTime, usize)> = Vec::new();
            for (op, dt, pick) in ops {
                match op {
                    0 | 1 => {
                        let t = q.now() + crate::SimDuration::from_nanos(dt);
                        handles.push(q.schedule(t, handles.len()));
                        model.push((t, handles.len() - 1));
                    }
                    2 | 3 if !handles.is_empty() => {
                        let id = pick % handles.len();
                        let live = model.iter().position(|&(_, m)| m == id);
                        prop_assert_eq!(q.cancel(handles[id]), live.is_some());
                        if let Some(at) = live {
                            model.remove(at);
                        }
                    }
                    _ => {
                        // Earliest time, first scheduled among equals.
                        let first = model
                            .iter()
                            .enumerate()
                            .min_by_key(|&(at, &(t, _))| (t, at))
                            .map(|(at, _)| at);
                        let want = first.map(|at| model.remove(at));
                        prop_assert_eq!(q.pop(), want);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                prop_assert_eq!(q.peek_time(), model.iter().map(|&(t, _)| t).min());
            }
            // Every handle is dead once the queue has drained.
            while q.pop().is_some() {}
            for h in handles {
                prop_assert!(!q.cancel(h));
            }
            prop_assert_eq!(q.len(), 0);
        }
    }
}
