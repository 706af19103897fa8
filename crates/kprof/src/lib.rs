//! Kprof: SysProf's kernel-level monitoring interface.
//!
//! Kprof is the layer the paper describes in §2: a set of statically
//! instrumented points in the (here: simulated) kernel that produce
//! efficient binary events in four classes — Scheduling, System Call,
//! Network, and File System — plus the machinery around them:
//!
//! * [`Event`] / [`EventPayload`] / [`EventKind`] — the binary event
//!   vocabulary emitted at each instrumentation point,
//! * [`EventMask`] — selective enabling: "events can be selectively
//!   switched on and off",
//! * [`Predicate`] — pruning "on the basis of process IDs, group IDs, or
//!   other such predicates",
//! * [`Analyzer`] — the callback interface local performance analyzers
//!   register; callbacks run in the kernel fast path, must never block, and
//!   report their own cost,
//! * [`Kprof`] — the per-node registry that dispatches events to
//!   subscribed analyzers and accounts for every nanosecond of monitoring
//!   overhead (priced by the constants in [`cost`]),
//! * [`DoubleBuffer`] — the double-buffering scheme an LPA uses to hand
//!   data to the dissemination daemon (one per node: a simulated node has
//!   one CPU).
//!
//! When no analyzer subscribes to an event kind, the instrumentation point
//! costs only [`cost::DISABLED_HOOK`] — "almost negligible
//! perturbation for Kprof-instrumented operating system kernels".
//!
//! # Example
//!
//! ```
//! use kprof::{CountingAnalyzer, EventMask, Kprof, Pid};
//! use simcore::NodeId;
//!
//! let mut kprof = Kprof::new(NodeId(0));
//! let id = kprof.register(Box::new(CountingAnalyzer::new(EventMask::SCHEDULING)));
//! let ev = kprof.make_event(
//!     simcore::SimTime::from_micros(1),
//!     0,
//!     kprof::EventPayload::ProcessWake { pid: Pid(7) },
//! );
//! let result = kprof.emit(&ev);
//! assert!(result.cost > simcore::SimDuration::ZERO);
//! assert_eq!(kprof.analyzer_as::<CountingAnalyzer>(id).unwrap().events_seen(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod buffer;
pub mod cost;
mod event;
mod ids;
mod predicate;
mod registry;
mod trace;

pub use analyzer::{Analyzer, AnalyzerId, AnalyzerOutcome, CountingAnalyzer, Interest};
pub use buffer::DoubleBuffer;
pub use event::{Event, EventClass, EventKind, EventMask, EventPayload, NetPoint};
pub use ids::{BlockReason, DiskId, Fd, FileId, GroupId, Pid, SyscallKind};
pub use predicate::Predicate;
pub use registry::{EmitResult, Kprof, KprofStats};
pub use trace::TraceAnalyzer;
