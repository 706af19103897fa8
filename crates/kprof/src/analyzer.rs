//! The analyzer callback interface.
//!
//! "During initialization, each LPA registers a callback with Kprof, and it
//! specifies a list of events that need to be delivered to it. These
//! callbacks are in the 'fast path' of the kernel code … it is necessary
//! that they never block and are computationally small." (§2)

use simcore::SimDuration;

use crate::{Event, EventMask, Predicate};

/// Identifier of a registered analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnalyzerId(pub u32);

/// What an analyzer wants delivered: an event-kind mask plus a pruning
/// predicate.
#[derive(Debug, Clone, Default)]
pub struct Interest {
    /// Event kinds to deliver.
    pub mask: EventMask,
    /// Pruning predicate applied before delivery.
    pub predicate: Predicate,
}

impl Interest {
    /// Interest in all events of the given mask, unpredicated.
    pub fn mask(mask: EventMask) -> Interest {
        Interest {
            mask,
            predicate: Predicate::new(),
        }
    }
}

/// Result of one analyzer callback invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalyzerOutcome {
    /// CPU time the callback consumed; charged to the node as monitoring
    /// overhead.
    pub cost: SimDuration,
    /// True when the analyzer's active buffer just filled: Kprof surfaces
    /// this so the kernel can notify the dissemination daemon, which swaps
    /// and drains the buffer.
    pub buffer_full: bool,
}

impl AnalyzerOutcome {
    /// An outcome with only a cost.
    pub fn cost(cost: SimDuration) -> AnalyzerOutcome {
        AnalyzerOutcome {
            cost,
            buffer_full: false,
        }
    }
}

/// A local performance analyzer registered with [`Kprof`](crate::Kprof).
///
/// Implementations must behave like in-kernel fast-path code: no blocking,
/// bounded work per event, and honest reporting of the work done (the
/// simulation charges it as perturbation).
pub trait Analyzer: std::any::Any {
    /// Short name for diagnostics.
    fn name(&self) -> &str;

    /// What this analyzer wants delivered. Called at registration and after
    /// every [`Kprof::update_interest`](crate::Kprof::update_interest), so
    /// interest may change at runtime (the controller's granularity knob).
    fn interest(&self) -> Interest;

    /// Handles one event. Runs in the kernel fast path.
    fn on_event(&mut self, event: &Event) -> AnalyzerOutcome;
}

/// A trivial analyzer that counts delivered events — useful in tests and
/// for measuring raw instrumentation rates.
#[derive(Debug, Clone)]
pub struct CountingAnalyzer {
    mask: EventMask,
    seen: u64,
}

impl CountingAnalyzer {
    /// Counts events matching `mask`, reporting
    /// [`cost::COUNTING_EVENT`](crate::cost::COUNTING_EVENT) for each.
    pub fn new(mask: EventMask) -> Self {
        CountingAnalyzer { mask, seen: 0 }
    }

    /// Number of events delivered so far.
    pub fn events_seen(&self) -> u64 {
        self.seen
    }
}

impl Analyzer for CountingAnalyzer {
    fn name(&self) -> &str {
        "counting"
    }

    fn interest(&self) -> Interest {
        Interest::mask(self.mask)
    }

    fn on_event(&mut self, _event: &Event) -> AnalyzerOutcome {
        self.seen += 1;
        AnalyzerOutcome::cost(crate::cost::COUNTING_EVENT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventPayload, Pid};
    use simcore::{NodeId, SimTime};

    #[test]
    fn counting_analyzer_counts_and_costs() {
        let mut a = CountingAnalyzer::new(EventMask::ALL);
        let ev = Event {
            seq: 0,
            node: NodeId(0),
            cpu: 0,
            wall: SimTime::ZERO,
            payload: EventPayload::ProcessWake { pid: Pid(1) },
        };
        let out = a.on_event(&ev);
        assert_eq!(out.cost, crate::cost::COUNTING_EVENT);
        assert!(!out.buffer_full);
        assert_eq!(a.events_seen(), 1);
        assert_eq!(a.name(), "counting");
    }
}
