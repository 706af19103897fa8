//! Application models and workload generators for the SysProf evaluation.
//!
//! Everything the paper's §3 runs against, rebuilt on the simulated
//! substrate:
//!
//! * [`linpack`] — the CPU-bound microbenchmark of §3.1 (monitoring
//!   overhead on compute-only work),
//! * [`iperf`] — the bandwidth microbenchmark of §3.1 (monitoring
//!   overhead on packet-intensive work, at 1 Gbps and 100 Mbps),
//! * [`storage`] — the shared virtual storage service of §3.2: Iozone-like
//!   clients, a user-level NFS proxy, and kernel-daemon NFS servers with
//!   synchronous disk writes (Figures 4 and 5),
//! * [`rubis`] — the multi-tier auction site of §3.3: two request classes
//!   (CPU-heavy *bid*, network-heavy *comment*), open-loop Poisson
//!   clients, a DWCS or RA-DWCS request dispatcher, and a mid-run load
//!   imbalance (Figures 6 and 7).
//!
//! On top of those, the **scenario library** adds distributed-behavior
//! workloads whose bottleneck only a cross-node correlator can name:
//!
//! * [`kvstore`] — a sharded key-value store with zipfian hot-key skew:
//!   the GPA must surface the hot shard,
//! * [`fanout`] — a microservice fan-out chain (one user request fans
//!   into dozens of RPCs across three tiers): the GPA must indict the
//!   slow leaf behind the tail,
//! * [`allreduce`] — a ring allreduce collective with an injectable
//!   compute straggler: the GPA must indict the straggler rank,
//! * [`cdn`] — a CDN/cache tier with zipfian traffic, TTL expiry, and
//!   origin fallback: the GPA must attribute the tail to origin disk.
//!
//! Every workload — paper and scenario library — is a [`ScenarioSpec`]:
//! a topology with the monitor's placement, a spawn, a collect and a
//! golden [`Diagnosis`]. None of them builds a world or deploys a
//! monitor; the runner in [`scenario`] does that for all of them, so one
//! chaos matrix, one bench harness and one monitoring-configuration axis
//! cover the lot:
//!
//! ```
//! use sysprof_apps::{KvStoreScenario, ScenarioSpec};
//! let spec = KvStoreScenario::default();
//! let run = spec.run(7); // or run_under(seed, faults), run_with(.., config)
//! println!("{}", spec.diagnose(&run));
//! let (_world, baseline) = spec.run_unmonitored(7); // same world, no monitor
//! assert!(baseline.ops_completed > 0);
//! ```
//!
//! The examples, the integration tests and the `figures` harness in
//! `sysprof-bench` all enter through that trait.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allreduce;
pub mod cdn;
pub mod fanout;
pub mod iperf;
pub mod kvstore;
pub mod linpack;
pub mod rubis;
pub mod scenario;
pub mod storage;

pub use allreduce::{AllreduceResult, AllreduceScenario};
pub use cdn::{CdnResult, CdnScenario};
pub use fanout::{FanoutResult, FanoutScenario};
pub use iperf::{IperfResult, IperfScenario};
pub use kvstore::{KvStoreResult, KvStoreScenario};
pub use linpack::{LinpackResult, LinpackScenario};
pub use rubis::{RubisResult, RubisScenario};
pub use scenario::{Diagnosis, Placement, ScenarioRun, ScenarioSpec, Staged};
pub use storage::{StorageResult, StorageScenario};
