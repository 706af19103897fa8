//! Packet-level network simulation for the SysProf testbed.
//!
//! The paper evaluates SysProf on physical clusters (1 Gbps and 100 Mbps
//! Ethernet, NTP-synchronized nodes). This crate supplies the equivalent
//! substrate:
//!
//! * [`Ip`], [`Port`], [`EndPoint`], [`FlowKey`] — the addressing vocabulary
//!   the monitoring layer keys interactions on,
//! * [`Packet`] — what travels on the wire (the monitor may look only at
//!   headers: flow, size, direction — never at app payload tags),
//! * [`Link`] — a full-duplex link with bandwidth, propagation delay and a
//!   drop-tail transmission queue,
//! * [`Network`] — a topology of nodes and links that computes delivery
//!   schedules,
//! * [`NtpClock`] — per-node wall clocks with bounded offset and drift, so
//!   the global analyzer has to correlate timestamps the way real NTP-synced
//!   clusters force it to,
//! * [`FaultPlan`] / [`FaultInjector`] — deterministic, seeded fault
//!   injection (loss, jitter, duplication, reordering, timed partitions,
//!   crash schedules) applied after link serialization, so monitoring
//!   traffic experiences realistic silent loss.
//!
//! # Example
//!
//! ```
//! use simcore::{NodeId, SimTime};
//! use simnet::{LinkSpec, Network, NetworkBuilder};
//!
//! let mut net = NetworkBuilder::new()
//!     .node("client")
//!     .node("server")
//!     .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
//!     .build()?;
//! let verdict = net.transmit(SimTime::ZERO, NodeId(0), NodeId(1), 1500)?;
//! assert!(verdict.arrival_time().unwrap() > SimTime::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod clock;
mod fault;
mod link;
mod network;
mod packet;

pub use addr::{EndPoint, FlowKey, Ip, Port};
pub use clock::{ClockSpec, NtpClock};
pub use fault::{CrashSchedule, FaultInjector, FaultPlan, FaultStats, LinkFaults, Partition};
pub use link::{Link, LinkSpec, TransmitOutcome};
pub use network::{NetOutcome, Network, NetworkBuilder, NoRouteError, TopologyError};
pub use packet::{Packet, PacketId, PayloadTag};
