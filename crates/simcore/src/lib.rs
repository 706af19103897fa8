//! Discrete-event simulation core used by every SysProf substrate.
//!
//! This crate provides the foundation the rest of the workspace is built on:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock,
//! * [`EventQueue`] — a deterministic event calendar with FIFO tie-breaking:
//!   a slot table of pending events under a 4-ary heap of `(time, seq)`
//!   ranks, with in-place deferral and a bounded [`EventQueue::pop_until`],
//! * [`SimRng`] — seeded randomness with the distributions the workloads need
//!   (exponential, and Zipf over a [`Zipf`] table prepared once) implemented
//!   from first principles,
//! * [`stats`] — online statistics (Welford mean/variance, log-scale
//!   histograms with percentile queries, windowed rates),
//! * [`hash`] — `HashMap`/`HashSet` on one fixed, seedless hash function, for
//!   every table the simulator or the monitor touches per event.
//!
//! Everything here is deterministic given a seed: two runs of the same
//! experiment produce bit-identical results, which is what makes the
//! paper-reproduction harness in `sysprof-bench` trustworthy.
//!
//! # Example
//!
//! ```
//! use simcore::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), "second");
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t.as_nanos(), 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event_queue;
pub mod hash;
mod rng;
pub mod stats;
mod time;

pub use event_queue::{CalendarStats, EventHandle, EventQueue};
pub use rng::{SimRng, Zipf};
pub use time::{SimDuration, SimTime};

/// Identifier of a simulated machine in a topology.
///
/// Node ids are dense small integers assigned by the topology builder; they
/// index per-node state tables throughout the workspace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}
