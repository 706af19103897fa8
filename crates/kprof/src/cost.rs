//! What each step of the Kprof path costs in simulated CPU time.
//!
//! Every nanosecond of [`KprofStats::total_overhead`](crate::KprofStats)
//! is a sum of these constants plus whatever the delivered-to analyzers
//! report for themselves (the monitor's own analyzers take theirs from
//! `sysprof::cost`). Each is named after the sysbench per-layer stage
//! whose *simulated* counterpart it is, so the wall-clock ledger and the
//! modelled overhead read against one vocabulary.

use simcore::SimDuration;

/// `kprof.emit.suppressed`: an instrumentation point whose kind no
/// analyzer subscribes to (a branch on a mask word — "almost negligible
/// perturbation").
pub const DISABLED_HOOK: SimDuration = SimDuration::from_nanos(5);

/// `kprof.emit`: assembling the binary event at an enabled point.
pub const ENABLED_HOOK: SimDuration = SimDuration::from_nanos(150);

/// `kprof.emit`: dispatch per interested analyzer (predicate check +
/// call), charged whether or not the predicate then rejects the event.
pub const PER_DELIVERY: SimDuration = SimDuration::from_nanos(100);

/// `kprof.emit`: what a [`CountingAnalyzer`](crate::CountingAnalyzer)
/// reports per delivered event.
pub const COUNTING_EVENT: SimDuration = SimDuration::from_nanos(60);

/// `kprof.emit`: what a [`TraceAnalyzer`](crate::TraceAnalyzer) reports
/// per captured event (one ring-buffer copy).
pub const TRACE_EVENT: SimDuration = SimDuration::from_nanos(90);
