//! SysProf: online distributed behavior diagnosis through fine-grain
//! system monitoring.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! * [`Lpa`] — the **Local Performance Analyzer**: registered with each
//!   node's Kprof, it extracts *messages* (runs of same-direction packets)
//!   and *interactions* (request/response message pairs) from raw network
//!   events, attributes per-interaction kernel time, user time, and
//!   blocked time from scheduling events, and stages finished
//!   [`InteractionRecord`]s in a double buffer,
//! * [`CpaAnalyzer`] — **Custom Performance Analyzers**: E-Code programs
//!   installed at runtime, fuel-metered, run against every matching event,
//! * [`Daemon`] — the **dissemination daemon**, one per node: woken on
//!   buffer-full notifications, it drains LPA buffers, applies dynamic
//!   filters, PBIO-encodes records and publishes them on
//!   [`INTERACTION_TOPIC`] and [`LOAD_TOPIC`] over kernel-level pub/sub
//!   channels (consuming real simulated bandwidth and CPU); it answers
//!   the node's [`CONTROL_PORT`] (subscriptions, its streams' ACKs),
//! * [`Gpa`] — the **Global Performance Analyzer**: subscribes to the
//!   daemons' channels, correlates interaction records across nodes by
//!   endpoints and (imperfect, NTP-disciplined) wall-clock timestamps into
//!   end-to-end request paths, and answers queries; per class it keeps
//!   the same statistic (`ClassStats`, read as a [`ClassSummary`]) the
//!   LPA keeps per flush window,
//! * [`detect`] — the one detector: a few application-agnostic signals
//!   (interaction share, mean user time against the tier median, p95/p50
//!   tail, mean blocked time, downstream share of correlated paths) that
//!   turn a tier's [`ClassSummary`]s ([`Gpa::tier`]) into typed
//!   [`detect::Finding`]s, most indicted first,
//! * [`receive_stream`] — the sink glue of any subscriber to a daemon's
//!   channels (the GPA's [`GpaSink`], RA-DWCS's load feed): one delivery
//!   through the subscriber's `pubsub::reliable::Receiver`, replies to
//!   the daemon's control port, cost from [`cost`]. The stream itself —
//!   sequence numbers, frames, retransmission, reassembly — is
//!   `pubsub::reliable`'s; the daemon holds its `Sender`,
//! * [`procfs`] — `/proc`-style textual views of the collected data,
//! * [`SysProf`] — the facade that deploys all of the above onto a
//!   [`simos::World`] in one call, and the controller:
//!   [`SysProf::reconfigure`] changes a node's [`LpaConfig`] at run time —
//!   its [`MonitorLevel`] (off / per-class / per-interaction / full, which
//!   is also what the LPA asks Kprof for), window and buffer sizes, and
//!   service ports (the port predicate of that same Kprof interest).
//!
//! # Example
//!
//! ```
//! use simcore::{NodeId, SimTime};
//! use simnet::LinkSpec;
//! use simos::{WorldBuilder, programs::{EchoServer, OneShotSender}};
//! use sysprof::{MonitorConfig, SysProf};
//!
//! let mut world = WorldBuilder::new(1)
//!     .node("client")
//!     .node("server")
//!     .node("monitor")
//!     .full_mesh(LinkSpec::gigabit_lan())
//!     .build()?;
//! world.spawn(NodeId(1), "echo", Box::new(EchoServer::new(
//!     simnet::Port(80), 512, simcore::SimDuration::from_micros(100))));
//! world.spawn(NodeId(0), "client", Box::new(OneShotSender::new(
//!     NodeId(1), simnet::Port(80), 2_000)));
//!
//! let sysprof = SysProf::deploy(&mut world, &[NodeId(1)], NodeId(2),
//!                               MonitorConfig::default());
//! world.run_until(SimTime::from_secs(2));
//!
//! let gpa = sysprof.gpa();
//! assert!(gpa.borrow().interaction_count() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod cpa;
mod daemon;
mod deploy;
pub mod detect;
mod gpa;
mod lpa;
pub mod procfs;
mod query;
mod records;

pub use cpa::{CpaAnalyzer, CpaError, EVENT_INPUTS};
pub use daemon::{Daemon, DaemonConfig, DaemonStats, CONTROL_PORT, DAEMON_SRC_PORT, DATA_PORT};
pub use deploy::{MonitorConfig, SysProf};
pub use gpa::{
    flow_shard_key, receive_stream, ControlReplySink, CorrelatedPath, Gpa, GpaConfig, GpaSink,
    GpaStats, NodeLoadView, SubscriptionFailure,
};
pub use lpa::{Lpa, LpaConfig, MonitorLevel};
/// The frame layer of a batch payload, for tools that take one apart.
pub use pubsub::split_frames;
pub use query::{GpaAnswer, GpaQuery, GpaQuerySink, QueryClient, QUERY_PORT, QUERY_REPLY_PORT};
pub use records::{ClassSummary, InteractionRecord, LoadRecord, INTERACTION_TOPIC, LOAD_TOPIC};
