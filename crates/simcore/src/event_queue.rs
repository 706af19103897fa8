//! The event calendar: a priority queue of `(SimTime, event)` pairs with
//! deterministic FIFO ordering for simultaneous events, cancellation, and
//! in-place deferral of a pending event to a later time.
//!
//! Pending events live in a slot table; a 4-ary min-heap orders small keys
//! that name them, each ranked by one 128-bit `(time, seq)` integer. The
//! run loop takes events with [`EventQueue::pop_until`], which settles the
//! heap's top once per event and fires it only if it is due.

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

/// One pending event and its bookkeeping. `live` is the seq its current
/// handle carries; `key` is the seq of the heap key that stands for it. The
/// two differ only between a [`EventQueue::defer`] and the moment that (now
/// stale) key surfaces and is re-keyed at `(time, live)`.
struct Slot<E> {
    live: u64,
    key: u64,
    time: SimTime,
    /// `Some` while the event is pending.
    event: Option<E>,
}

/// Exact, deterministic counts of what the calendar did: a function of
/// the calls made, never of the host.
///
/// Heap traffic reads off directly: `scheduled + rekeyed` keys were pushed
/// and `fired + stale_popped` were popped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CalendarStats {
    /// [`EventQueue::schedule`] calls.
    pub scheduled: u64,
    /// Events handed out by [`EventQueue::pop`].
    pub fired: u64,
    /// [`EventQueue::cancel`] calls that took effect.
    pub cancelled: u64,
    /// [`EventQueue::defer`] calls that took effect.
    pub deferred: u64,
    /// Deferred events whose stale heap key surfaced and was replaced by
    /// one at the event's recorded due time.
    pub rekeyed: u64,
    /// Heap keys popped that fired nothing: their event was cancelled, or
    /// deferred (and, if still live, re-keyed).
    pub stale_popped: u64,
    /// Most events pending at once.
    pub max_pending: u64,
}

/// What the heap orders: the event's `(time, seq)` as one rank, time in
/// the high half, so a compare is one 128-bit compare and the earliest
/// `(time, seq)` is the smallest rank. `seq` breaks ties FIFO, which keeps
/// runs deterministic, and is unique, so no two keys tie. A sift moves
/// keys; the events stay put in the slot table.
#[derive(Clone, Copy)]
struct Key {
    rank: u128,
    slot: u32,
}

impl Key {
    fn new(time: SimTime, seq: u64, slot: u32) -> Key {
        Key {
            rank: (u128::from(time.as_nanos()) << 64) | u128::from(seq),
            slot,
        }
    }

    fn time(self) -> SimTime {
        SimTime::from_nanos((self.rank >> 64) as u64)
    }

    fn seq(self) -> u64 {
        self.rank as u64
    }
}

/// Children per node: four halve a binary heap's depth for two more
/// compares per level, and sit side by side in memory. Not a knob
/// (DESIGN §3 item 8 has the arities measured).
const ARITY: usize = 4;

/// A min-heap of [`Key`]s by rank: node `i`'s children are
/// `ARITY * i + 1 ..= ARITY * i + ARITY`. Sifts carry the moving key in a
/// hole and write it once, where it stops.
#[derive(Default)]
struct Heap {
    keys: Vec<Key>,
}

impl Heap {
    fn peek(&self) -> Option<Key> {
        self.keys.first().copied()
    }

    fn push(&mut self, key: Key) {
        let mut hole = self.keys.len();
        self.keys.push(key);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if self.keys[parent].rank <= key.rank {
                break;
            }
            self.keys[hole] = self.keys[parent];
            hole = parent;
        }
        self.keys[hole] = key;
    }

    /// Removes the smallest key.
    fn pop(&mut self) {
        if let Some(last) = self.keys.pop() {
            if !self.keys.is_empty() {
                self.sift_down(last);
            }
        }
    }

    /// Replaces the smallest key with `key`, which must rank no lower.
    fn replace_top(&mut self, key: Key) {
        debug_assert!(self.keys[0].rank <= key.rank);
        self.sift_down(key);
    }

    /// Settles `key` into the hole at the root.
    fn sift_down(&mut self, key: Key) {
        let len = self.keys.len();
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            if first >= len {
                break;
            }
            let mut least = first;
            for child in first + 1..(first + ARITY).min(len) {
                if self.keys[child].rank < self.keys[least].rank {
                    least = child;
                }
            }
            if key.rank <= self.keys[least].rank {
                break;
            }
            self.keys[hole] = self.keys[least];
            hole = least;
        }
        self.keys[hole] = key;
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
    heap: Heap,
    next_seq: u64,
    // A heap key stands for the event in `slots[key.slot]` while
    // `slot.key == key.seq`. Firing or cancelling vacates the slot and
    // frees it for reuse, so no event pays for a lookup table; pop lazily
    // discards keys whose slot has moved on (seqs are unique, so a reused
    // slot never matches).
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    pending: usize,
    now: SimTime,
    stats: CalendarStats,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: Heap::default(),
            next_seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            pending: 0,
            now: SimTime::ZERO,
            stats: CalendarStats::default(),
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
    ///
    /// `#[inline(always)]` around an out-of-line [`claim`](Self::claim):
    /// the caller's event is written straight into its slot, not passed
    /// down a call and copied there (DESIGN §3, decision 9).
    #[inline(always)]
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventHandle {
        let handle = self.claim(time);
        self.slots[handle.slot as usize].event = Some(event);
        handle
    }

    /// Everything [`schedule`](Self::schedule) does but the event's write:
    /// takes a sequence number and a slot (a freed one first), and pushes
    /// the slot's key. The slot's event is left empty for the caller.
    #[inline(never)]
    fn claim(&mut self, time: SimTime) -> EventHandle {
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
                let claimed = &mut self.slots[slot as usize];
                debug_assert!(claimed.event.is_none());
                claimed.live = seq;
                claimed.key = seq;
                claimed.time = time;
                slot
            }
            None => {
                self.slots.push(Slot {
                    live: seq,
                    key: seq,
                    time,
                    event: None,
                });
                u32::try_from(self.slots.len() - 1).expect("under 2^32 events pending at once")
            }
        };
        self.pending += 1;
        self.stats.scheduled += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.pending as u64);
        self.heap.push(Key::new(time, seq, slot));
        EventHandle { seq, slot }
    }

    /// The slot `handle` names, if its event is still pending.
    fn live_slot(&mut self, handle: EventHandle) -> Option<&mut Slot<E>> {
        self.slots
            .get_mut(handle.slot as usize)
            .filter(|s| s.live == handle.seq)
    }

    /// Vacates `slot` and frees it for reuse, handing back its event.
    fn release(&mut self, slot: u32) -> Option<E> {
        let vacated = &mut self.slots[slot as usize];
        vacated.live = VACANT;
        self.free.push(slot);
        self.pending -= 1;
        vacated.event.take()
    }

    /// Cancels a previously scheduled event. Returns `true` if the event had
    /// not yet fired (cancellation took effect), `false` if it already fired
    /// or was already cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if self.live_slot(handle).is_none() {
            return false;
        }
        self.release(handle.slot);
        self.stats.cancelled += 1;
        true
    }

    /// Moves a pending event to the later instant `time`, exactly as if it
    /// had been cancelled and scheduled again: the old handle dies, the
    /// returned one replaces it, one sequence number is consumed, and the
    /// event pops after everything already scheduled for `time`. Returns
    /// `None` (and changes nothing) if the event already fired or was
    /// cancelled, or if `handle` was itself replaced by an earlier `defer`.
    ///
    /// Unlike cancel + schedule this touches no heap. The key already in
    /// the heap keeps standing for the event; because `time` is no earlier
    /// than the event's current due time and sequence numbers only grow,
    /// that key orders before the event's new place, so it surfaces in
    /// `pop`/`pop_until` before anything ordered after the new place can
    /// pop, and is re-keyed there then.
    ///
    /// Deferring to an *earlier* time is a simulation bug; this panics in
    /// debug builds and leaves the due time unchanged in release builds.
    pub fn defer(&mut self, handle: EventHandle, time: SimTime) -> Option<EventHandle> {
        let seq = self.next_seq;
        let slot = self.live_slot(handle)?;
        debug_assert!(
            time >= slot.time,
            "deferred event to an earlier time: {time} < due {}",
            slot.time
        );
        slot.time = time.max(slot.time);
        slot.live = seq;
        self.next_seq += 1;
        self.stats.deferred += 1;
        Some(EventHandle {
            seq,
            slot: handle.slot,
        })
    }

    /// Clears the top of the heap until it stands for a live event at its
    /// own `(time, seq)`, and returns that key: keys of cancelled events
    /// are dropped, and the stale key of a deferred event is replaced by
    /// the event's recorded place (one sift down, not a pop and a push).
    fn settle(&mut self) -> Option<Key> {
        while let Some(top) = self.heap.peek() {
            let slot = &mut self.slots[top.slot as usize];
            if slot.key == top.seq() && slot.live == top.seq() {
                return Some(top);
            }
            self.stats.stale_popped += 1;
            if slot.key == top.seq() && slot.live != VACANT {
                slot.key = slot.live;
                self.heap
                    .replace_top(Key::new(slot.time, slot.live, top.slot));
                self.stats.rekeyed += 1;
            } else {
                self.heap.pop();
            }
        }
        None
    }

    /// Fires the event `key` stands for: `key` was the settled top, and
    /// leaves the heap now.
    fn fire(&mut self, key: Key) -> (SimTime, E) {
        self.heap.pop();
        let event = self
            .release(key.slot)
            .expect("a live key's slot holds its event");
        self.stats.fired += 1;
        self.now = key.time();
        (self.now, event)
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.settle()?;
        Some(self.fire(key))
    }

    /// Like [`pop`](Self::pop), but only if the earliest pending event is
    /// due at or before `t`; otherwise returns `None` and leaves the clock
    /// where it was. One settle answers both "is it due?" and "which?".
    pub fn pop_until(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        let key = self.settle()?;
        if key.time() > t {
            return None;
        }
        Some(self.fire(key))
    }

    /// What the calendar has done so far.
    pub fn stats(&self) -> CalendarStats {
        self.stats
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
    fn pop_until_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(9), "b");
        q.cancel(h);
        assert_eq!(q.pop_until(SimTime::from_micros(8)), None);
        assert_eq!(
            q.pop_until(SimTime::from_micros(9)),
            Some((SimTime::from_micros(9), "b"))
        );
    }

    #[test]
    fn pop_until_fires_an_event_due_exactly_at_t() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), "a");
        q.schedule(SimTime::from_micros(6), "b");
        assert_eq!(q.pop_until(SimTime::from_nanos(4_999)), None);
        assert_eq!(
            q.now(),
            SimTime::ZERO,
            "a refused pop never advances the clock"
        );
        let t = SimTime::from_micros(5);
        assert_eq!(q.pop_until(t), Some((t, "a")));
        assert_eq!(q.pop_until(t), None);
        assert_eq!(q.now(), t);
        assert_eq!(q.len(), 1);
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

    #[test]
    fn defer_moves_an_event_behind_everything_already_at_its_new_time() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(5), "b");
        let a2 = q.defer(a, SimTime::from_micros(5)).expect("a is pending");
        assert_ne!(a, a2);
        assert_eq!(q.len(), 2, "defer neither adds nor removes an event");
        assert!(!q.cancel(a), "the old handle died");
        assert_eq!(q.defer(a, SimTime::from_micros(9)), None);
        // Like cancel + schedule, "a" now queues behind "b" at t=5.
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), "a")));
        assert!(!q.cancel(a2), "fired");
        assert_eq!(q.defer(a2, SimTime::from_micros(9)), None);
    }

    #[test]
    fn defer_twice_before_the_stale_key_surfaces() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(4), "b");
        q.schedule(SimTime::from_micros(8), "c");
        let a = q.defer(a, SimTime::from_micros(3)).unwrap();
        let a = q.defer(a, SimTime::from_micros(6)).unwrap();
        assert_eq!(q.stats().rekeyed, 0, "no heap traffic yet");
        // One stale key stands for both moves and is re-keyed once, at
        // the latest place.
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(4), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(6), "a"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(8), "c"));
        assert!(!q.cancel(a));
        let s = q.stats();
        assert_eq!((s.deferred, s.rekeyed, s.stale_popped), (2, 1, 1));
        assert_eq!((s.scheduled, s.fired, s.max_pending), (3, 3, 3));
    }

    #[test]
    fn defer_then_cancel_fires_nothing() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(2), "b");
        let a2 = q.defer(a, SimTime::from_micros(3)).unwrap();
        assert!(q.cancel(a2));
        assert!(!q.cancel(a2));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
        assert_eq!(q.stats().rekeyed, 0, "a cancelled event is not re-keyed");
    }

    #[test]
    fn stale_key_of_a_previous_tenant_does_not_rekey_the_slots_next_one() {
        let mut q = EventQueue::new();
        // "a" is deferred and then fires: its stale key was consumed on
        // the way, so the slot's next tenant starts clean.
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.defer(a, SimTime::from_micros(2)).unwrap();
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(2), "a"));
        let b = q.schedule(SimTime::from_micros(3), "b");
        assert_eq!(b.slot, a.slot, "slot reused");
        // "b" is deferred and cancelled with its stale key (t=3) still in
        // the heap; "c" takes the slot over with a later due time.
        let b = q.defer(b, SimTime::from_micros(4)).unwrap();
        assert!(q.cancel(b));
        let c = q.schedule(SimTime::from_micros(9), "c");
        assert_eq!(c.slot, a.slot, "slot reused again");
        q.schedule(SimTime::from_micros(5), "d");
        assert_eq!(q.pop_until(SimTime::from_micros(4)), None);
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(5), "d"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(9), "c"));
        assert!(q.pop().is_none());
        assert_eq!(q.stats().rekeyed, 1, "only a's own stale key was re-keyed");
    }

    #[test]
    fn pop_until_does_not_fire_a_stale_key_deferred_past_t() {
        // The `run_until(t)` shape: a stale key at or before `t` whose
        // event is really due after `t` must not look runnable.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.defer(a, SimTime::from_micros(50)).unwrap();
        for t in [1, 2, 49] {
            assert_eq!(q.pop_until(SimTime::from_micros(t)), None);
            assert_eq!(
                q.now(),
                SimTime::ZERO,
                "a refused pop never advances the clock"
            );
        }
        let t = SimTime::from_micros(50);
        assert_eq!(q.pop_until(t), Some((t, "a")));
        let s = q.stats();
        assert_eq!((s.rekeyed, s.stale_popped, s.fired), (1, 1, 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "earlier time")]
    fn defer_to_an_earlier_time_is_a_bug() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(5), "a");
        q.defer(a, SimTime::from_micros(4));
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

        /// Up to ~1,000 pending keys, six 4-ary levels, a third of them
        /// deferred in place: the pops come out in `(time, seq)` order,
        /// a deferred event ranking at its new time with the seq its
        /// `defer` consumed.
        #[test]
        fn prop_deep_heap_pops_in_rank_order(
            events in proptest::collection::vec((0u64..500, 0u8..3, 0u64..200), 300..1_100),
        ) {
            let mut q = EventQueue::new();
            let mut want = Vec::new();
            let handles: Vec<_> = events
                .iter()
                .enumerate()
                .map(|(id, &(t, _, _))| {
                    want.push((t, id as u64, id));
                    q.schedule(SimTime::from_nanos(t), id)
                })
                .collect();
            let mut seq = events.len() as u64;
            for (id, &(t, defer, dt)) in events.iter().enumerate() {
                if defer == 0 {
                    q.defer(handles[id], SimTime::from_nanos(t + dt)).expect("pending");
                    want[id] = (t + dt, seq, id);
                    seq += 1;
                }
            }
            want.sort_unstable();
            let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            let want: Vec<_> = want
                .into_iter()
                .map(|(t, _, id)| (SimTime::from_nanos(t), id))
                .collect();
            prop_assert_eq!(got, want);
        }

        /// Any mix of schedule, cancel, defer (of live, fired, cancelled
        /// and already replaced handles), pop and `pop_until` agrees with
        /// a list that is searched linearly: same events out in the same
        /// order, same `cancel`/`defer` answers, same `len()` and earliest
        /// due time after every step. A twin queue that spells every
        /// `defer` as cancel + schedule must hand out the same handles and
        /// pops.
        #[test]
        fn prop_matches_linear_model(
            ops in proptest::collection::vec((0u8..9, 0u64..40, 0usize..64), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut twin = EventQueue::new();
            // The current handle of each event id, and every handle a
            // defer replaced.
            let mut handles = Vec::new();
            let mut replaced = Vec::new();
            // (time, id), in schedule order; removed on fire or cancel,
            // moved to the back with its new time on defer.
            let mut model: Vec<(SimTime, usize)> = Vec::new();
            for (op, dt, pick) in ops {
                let dt = crate::SimDuration::from_nanos(dt);
                match op {
                    0 | 1 => {
                        let t = q.now() + dt;
                        handles.push(q.schedule(t, handles.len()));
                        prop_assert_eq!(twin.schedule(t, handles.len() - 1), handles[handles.len() - 1]);
                        model.push((t, handles.len() - 1));
                    }
                    2 | 3 if !handles.is_empty() => {
                        let id = pick % handles.len();
                        let live = model.iter().position(|&(_, m)| m == id);
                        prop_assert_eq!(q.cancel(handles[id]), live.is_some());
                        prop_assert_eq!(twin.cancel(handles[id]), live.is_some());
                        if let Some(at) = live {
                            model.remove(at);
                        }
                    }
                    4 | 5 if !handles.is_empty() => {
                        let id = pick % handles.len();
                        match model.iter().position(|&(_, m)| m == id) {
                            Some(at) => {
                                let t = model[at].0 + dt;
                                let new = q.defer(handles[id], t);
                                prop_assert!(new.is_some());
                                prop_assert!(twin.cancel(handles[id]));
                                prop_assert_eq!(new, Some(twin.schedule(t, id)));
                                replaced.push(handles[id]);
                                handles[id] = new.expect("checked");
                                model.remove(at);
                                model.push((t, id));
                            }
                            None => prop_assert_eq!(q.defer(handles[id], q.now() + dt), None),
                        }
                    }
                    6 if !replaced.is_empty() => {
                        let dead = replaced[pick % replaced.len()];
                        prop_assert!(!q.cancel(dead));
                        prop_assert_eq!(q.defer(dead, q.now() + dt), None);
                    }
                    _ => {
                        // Earliest time, first scheduled among equals;
                        // op 7 pops it only if it is due by `now + dt`.
                        let until = (op == 7).then(|| q.now() + dt);
                        let first = model
                            .iter()
                            .enumerate()
                            .min_by_key(|&(at, &(t, _))| (t, at))
                            .filter(|&(_, &(t, _))| until.is_none_or(|until| t <= until))
                            .map(|(at, _)| at);
                        let want = first.map(|at| model.remove(at));
                        match until {
                            Some(until) => {
                                let now = q.now();
                                prop_assert_eq!(q.pop_until(until), want);
                                prop_assert_eq!(twin.pop_until(until), want);
                                if want.is_none() {
                                    prop_assert_eq!(q.now(), now);
                                }
                            }
                            None => {
                                prop_assert_eq!(q.pop(), want);
                                prop_assert_eq!(twin.pop(), want);
                            }
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                prop_assert_eq!(
                    q.settle().map(Key::time),
                    model.iter().map(|&(t, _)| t).min()
                );
                let s = q.stats();
                prop_assert_eq!(
                    s.scheduled + s.rekeyed,
                    s.fired + s.stale_popped + q.heap.keys.len() as u64,
                    "every key pushed is popped or still in the heap"
                );
                prop_assert_eq!(s.scheduled, s.fired + s.cancelled + q.len() as u64);
            }
            // Every handle is dead once the queue has drained.
            while q.pop().is_some() {}
            for h in handles.into_iter().chain(replaced) {
                prop_assert!(!q.cancel(h));
            }
            prop_assert_eq!(q.len(), 0);
        }
    }
}
