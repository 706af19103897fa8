//! Raw event tracing — the LTT-heritage capability underneath SysProf.
//!
//! "Kprof builds on our earlier dProc kernel-level monitor, and its
//! functionality is similar to the static kernel instrumentation offered
//! by LTT." Sometimes an administrator wants the raw event stream, not an
//! analysis: [`TraceAnalyzer`] is an [`Analyzer`] that records events into
//! a bounded ring, with text rendering for offline inspection.

use std::collections::VecDeque;

use crate::{Analyzer, AnalyzerOutcome, Event, EventMask, Interest, Predicate};

/// An analyzer that captures raw events into a bounded ring buffer.
///
/// # Example
///
/// ```
/// use kprof::{EventMask, Kprof, TraceAnalyzer, EventPayload, Pid};
/// use simcore::{NodeId, SimTime};
///
/// let mut kprof = Kprof::new(NodeId(0));
/// let id = kprof.register(Box::new(TraceAnalyzer::new(EventMask::SCHEDULING, 128)));
/// let ev = kprof.make_event(SimTime::from_micros(3), 0,
///                           EventPayload::ProcessWake { pid: Pid(9) });
/// kprof.emit(&ev);
/// let trace = kprof.analyzer_as::<TraceAnalyzer>(id).unwrap();
/// assert_eq!(trace.len(), 1);
/// assert!(trace.render().contains("ProcessWake"));
/// ```
pub struct TraceAnalyzer {
    mask: EventMask,
    predicate: Predicate,
    capacity: usize,
    ring: VecDeque<Event>,
    captured: u64,
    dropped: u64,
}

impl TraceAnalyzer {
    /// A trace capturing events in `mask`, keeping the most recent
    /// `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(mask: EventMask, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceAnalyzer {
            mask,
            predicate: Predicate::new(),
            capacity,
            ring: VecDeque::with_capacity(capacity),
            captured: 0,
            dropped: 0,
        }
    }

    /// Adds a pruning predicate.
    #[must_use]
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been captured (yet).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events ever captured.
    pub fn captured(&self) -> u64 {
        self.captured
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over the retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Drains the retained events (oldest first).
    pub fn take(&mut self) -> Vec<Event> {
        self.ring.drain(..).collect()
    }

    /// Renders the trace as text, one event per line (the
    /// `/proc/sysprof/trace` view).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.ring.len() * 64);
        for ev in &self.ring {
            out.push_str(&format!(
                "{:>12} cpu{} #{:<8} {:?}\n",
                ev.wall.as_micros(),
                ev.cpu,
                ev.seq,
                ev.payload
            ));
        }
        out
    }
}

impl Analyzer for TraceAnalyzer {
    fn name(&self) -> &str {
        "trace"
    }

    fn interest(&self) -> Interest {
        Interest {
            mask: self.mask,
            predicate: self.predicate.clone(),
        }
    }

    fn on_event(&mut self, event: &Event) -> AnalyzerOutcome {
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(*event);
        self.captured += 1;
        AnalyzerOutcome::cost(crate::cost::TRACE_EVENT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventPayload, Kprof, Pid};
    use simcore::{NodeId, SimTime};

    fn wake(kprof: &mut Kprof, pid: u32, us: u64) {
        let ev = kprof.make_event(
            SimTime::from_micros(us),
            0,
            EventPayload::ProcessWake { pid: Pid(pid) },
        );
        kprof.emit(&ev);
    }

    #[test]
    fn captures_in_order() {
        let mut kprof = Kprof::new(NodeId(0));
        let id = kprof.register(Box::new(TraceAnalyzer::new(EventMask::SCHEDULING, 16)));
        for i in 0..5 {
            wake(&mut kprof, i, i as u64 * 10);
        }
        let trace = kprof.analyzer_as::<TraceAnalyzer>(id).unwrap();
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.captured(), 5);
        let times: Vec<u64> = trace.events().map(|e| e.wall.as_micros()).collect();
        assert_eq!(times, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut kprof = Kprof::new(NodeId(0));
        let id = kprof.register(Box::new(TraceAnalyzer::new(EventMask::SCHEDULING, 3)));
        for i in 0..10 {
            wake(&mut kprof, i, i as u64);
        }
        let trace = kprof.analyzer_as::<TraceAnalyzer>(id).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped(), 7);
        let pids: Vec<u32> = trace
            .events()
            .filter_map(|e| e.payload.pid().map(|p| p.0))
            .collect();
        assert_eq!(pids, vec![7, 8, 9], "keeps the most recent");
    }

    #[test]
    fn predicate_narrows_capture() {
        let mut kprof = Kprof::new(NodeId(0));
        let id = kprof.register(Box::new(
            TraceAnalyzer::new(EventMask::SCHEDULING, 16)
                .with_predicate(Predicate::new().pids([Pid(2)])),
        ));
        for i in 0..6 {
            wake(&mut kprof, i % 3, i as u64);
        }
        let trace = kprof.analyzer_as::<TraceAnalyzer>(id).unwrap();
        assert_eq!(trace.captured(), 2, "only pid 2's events");
    }

    #[test]
    fn take_drains_and_render_lists() {
        let mut kprof = Kprof::new(NodeId(0));
        let id = kprof.register(Box::new(TraceAnalyzer::new(EventMask::SCHEDULING, 8)));
        wake(&mut kprof, 1, 5);
        {
            let trace = kprof.analyzer_as::<TraceAnalyzer>(id).unwrap();
            let text = trace.render();
            assert!(text.contains("ProcessWake"), "{text}");
        }
        let trace = kprof.analyzer_as_mut::<TraceAnalyzer>(id).unwrap();
        let drained = trace.take();
        assert_eq!(drained.len(), 1);
        assert!(trace.is_empty());
    }
}
