//! `sysbench`: one benchmark for the whole SysProf monitor.
//!
//! Six workloads drive the product through its public functions only —
//! two real `simos` worlds, one node's hot path, wire-to-digest GPA
//! ingest, GPA diagnosis queries and E-Code install churn — and report
//! end-to-end metrics (tracing off) plus a per-layer ledger (traced run
//! and stage-isolated replays). See `benchmark/README.md` for the metric
//! tables and the protocol.
//!
//! The library never reads the host clock itself: the binary hands it a
//! [`trace::Clock`], so every wall-clock read of the harness sits in one
//! function of `src/bin/sysbench.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod fingerprint;
pub mod gen;
pub mod metrics;
pub mod procfs;
pub mod replay;
pub mod runner;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
