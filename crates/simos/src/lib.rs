//! A discrete-event simulated operating system kernel, instrumented with
//! [`kprof`] hooks at every point the SysProf paper lists.
//!
//! The paper patches Linux 2.4.19 with static instrumentation. This crate
//! is the substitute substrate: per-node kernels with
//!
//! * an event-driven **process model** ([`Program`], [`ProcCtx`]) — apps
//!   are state machines reacting to messages, timers and I/O completions,
//! * a **CPU scheduler** (round-robin, timeslices, context-switch costs,
//!   interrupt stealing),
//! * a **network stack** (NIC rx interrupts → softirq protocol processing
//!   → socket receive buffers → user copy; the reverse on tx), with every
//!   step charged CPU time and emitting the corresponding Kprof event,
//! * a **VFS and block-device model** (synchronous and buffered writes,
//!   seek + transfer disk service times, FIFO device queues),
//! * **monitoring perturbation**: every Kprof emission's cost is charged
//!   to the node's CPU, so enabling finer-grained monitoring measurably
//!   slows the monitored system — the central trade-off the paper studies.
//!
//! The top-level entry point is [`World`]: build a topology, spawn
//! programs, run, inspect.
//!
//! # Example
//!
//! ```
//! use simcore::{NodeId, SimTime};
//! use simnet::LinkSpec;
//! use simos::{WorldBuilder, programs::{SinkServer, OneShotSender}};
//!
//! let mut world = WorldBuilder::new(42)
//!     .node("client")
//!     .node("server")
//!     .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
//!     .build()
//!     .expect("valid topology");
//! world.spawn(NodeId(1), "server", Box::new(SinkServer::new(simnet::Port(80))));
//! world.spawn(
//!     NodeId(0),
//!     "client",
//!     Box::new(OneShotSender::new(NodeId(1), simnet::Port(80), 10_000)),
//! );
//! world.run_until(SimTime::from_secs(1));
//! assert!(world.node_stats(NodeId(1)).bytes_received > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod disk;
mod node;
mod process;
mod program;
pub mod programs;
mod socket;
mod world;

pub use bytes::Bytes;
pub use disk::{Disk, DiskSpec};
pub use node::{CpuUsage, NodeStats};
pub use process::{PendingWork, ProcState, Process};
pub use program::{Action, Callback, Message, ProcCtx, Program};
pub use socket::{Socket, SocketId};
pub use world::{DaemonHook, KernelOutput, KernelSend, KernelSink, World, WorldBuilder};
