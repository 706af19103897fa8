//! Experiment drivers behind the `figures` binary: one function per
//! paper table/figure, each returning a typed, serializable result.
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | E1 | §3.1 linpack overhead | [`exp_e1_linpack`] |
//! | E2 | §3.1 Iperf overhead (1 Gbps and 100 Mbps) | [`exp_e2_iperf`] |
//! | T0 | §3.1 "<1% … >10%" granularity sweep | [`exp_t0_granularity`] |
//! | F4 | Figure 4: proxy user/kernel time vs Iozone threads | [`exp_f4_f5_storage`] |
//! | F5 | Figure 5: back-end kernel time vs Iozone threads | [`exp_f4_f5_storage`] |
//! | F6 | Figure 6: plain DWCS throughput | [`exp_f6_dwcs`] |
//! | F7 | Figure 7: RA-DWCS throughput | [`exp_f7_ra_dwcs`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kprof::EventMask;
use serde::Serialize;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{LinkSpec, Port};
use simos::WorldBuilder;
use sysprof::{Controller, MonitorConfig, SysProf};
use sysprof_apps::iperf::{IperfClient, IperfServer};
use sysprof_apps::rubis::{run_rubis, RubisConfig, RubisResult};
use sysprof_apps::storage::{run_storage, StorageConfig, StorageResult};
use sysprof_apps::{run_iperf, run_linpack, IperfResult, LinpackResult};

/// E1: linpack with and without SysProf.
#[derive(Debug, Serialize)]
pub struct E1Result {
    /// SysProf disabled.
    pub off: LinpackResult,
    /// SysProf enabled (default configuration).
    pub on: LinpackResult,
}

/// Runs E1.
pub fn exp_e1_linpack(seed: u64) -> E1Result {
    E1Result {
        off: run_linpack(false, seed),
        on: run_linpack(true, seed),
    }
}

/// E2: Iperf at both link speeds, with and without SysProf.
#[derive(Debug, Serialize)]
pub struct E2Result {
    /// 1 Gbps, SysProf off.
    pub gigabit_off: IperfResult,
    /// 1 Gbps, SysProf on.
    pub gigabit_on: IperfResult,
    /// 100 Mbps, SysProf off.
    pub fast_ethernet_off: IperfResult,
    /// 100 Mbps, SysProf on.
    pub fast_ethernet_on: IperfResult,
}

impl E2Result {
    /// Relative goodput reduction at 1 Gbps.
    pub fn gigabit_overhead(&self) -> f64 {
        1.0 - self.gigabit_on.goodput_mbps / self.gigabit_off.goodput_mbps
    }

    /// Relative goodput reduction at 100 Mbps.
    pub fn fast_ethernet_overhead(&self) -> f64 {
        1.0 - self.fast_ethernet_on.goodput_mbps / self.fast_ethernet_off.goodput_mbps
    }
}

/// Runs E2.
pub fn exp_e2_iperf(duration: SimDuration, seed: u64) -> E2Result {
    E2Result {
        gigabit_off: run_iperf(LinkSpec::gigabit_lan(), false, duration, seed),
        gigabit_on: run_iperf(LinkSpec::gigabit_lan(), true, duration, seed),
        fast_ethernet_off: run_iperf(LinkSpec::fast_ethernet(), false, duration, seed),
        fast_ethernet_on: run_iperf(LinkSpec::fast_ethernet(), true, duration, seed),
    }
}

/// One row of the granularity sweep.
#[derive(Debug, Serialize)]
pub struct GranularityRow {
    /// Human-readable configuration name.
    pub level: String,
    /// Receiver goodput under this monitoring level, Mbps.
    pub goodput_mbps: f64,
    /// Monitoring CPU fraction on the receiver.
    pub overhead_fraction: f64,
    /// Events generated on the receiver.
    pub events: u64,
}

/// T0: the controller's selective-enabling knob under Iperf load —
/// reproducing "the overhead of SysProf can be varied ranging from less
/// than 1% of the system resource to more than 10%". Each row enables one
/// more event class through the controller's global gate mask.
pub fn exp_t0_granularity(duration: SimDuration, seed: u64) -> Vec<GranularityRow> {
    let levels = [
        ("off", EventMask::NONE),
        ("scheduling", EventMask::SCHEDULING),
        ("+syscall", EventMask::SCHEDULING | EventMask::SYSCALL),
        (
            "+filesystem",
            EventMask::SCHEDULING | EventMask::SYSCALL | EventMask::FILESYSTEM,
        ),
        ("+network (all)", EventMask::ALL),
    ];
    let mut rows = Vec::new();
    for (name, mask) in levels {
        let mut world = WorldBuilder::new(seed)
            .node("sender")
            .node("receiver")
            .node("gpa")
            .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
            .link(NodeId(0), NodeId(2), LinkSpec::gigabit_lan())
            .link(NodeId(1), NodeId(2), LinkSpec::gigabit_lan())
            .build()
            .expect("topology");
        let _sysprof = SysProf::deploy(
            &mut world,
            &[NodeId(1)],
            NodeId(2),
            MonitorConfig::default(),
        );
        // A raw event subscriber interested in everything, so the sweep
        // measures true per-class event volume (the LPA itself only wants
        // Network + Scheduling).
        world
            .kprof_mut(NodeId(1))
            .register(Box::new(kprof::CountingAnalyzer::new(EventMask::ALL)));
        Controller::new().set_global_mask(&mut world, NodeId(1), mask);

        world.spawn(
            NodeId(1),
            "iperf-server",
            Box::new(IperfServer::new(Port(5001))),
        );
        world.spawn(
            NodeId(0),
            "iperf-client",
            Box::new(IperfClient::new(
                NodeId(1),
                Port(5001),
                64 * 1024,
                8,
                duration,
            )),
        );
        world.run_until(SimTime::ZERO + duration + SimDuration::from_secs(1));

        let stats = world.node_stats(NodeId(1));
        rows.push(GranularityRow {
            level: name.to_owned(),
            goodput_mbps: stats.bytes_received as f64 * 8.0 / duration.as_secs_f64() / 1e6,
            overhead_fraction: stats.cpu.monitor.as_secs_f64() / world.now().as_secs_f64(),
            events: world.kprof(NodeId(1)).stats().events_generated,
        });
    }
    rows
}

/// One row of the Figure 4 / Figure 5 thread sweep.
#[derive(Debug, Serialize)]
pub struct StorageRow {
    /// Iozone threads per client.
    pub threads: usize,
    /// The measured result.
    pub result: StorageResult,
}

/// Runs the F4/F5 sweep over Iozone thread counts.
pub fn exp_f4_f5_storage(duration: SimDuration, seed: u64) -> Vec<StorageRow> {
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|threads| StorageRow {
            threads,
            result: run_storage(StorageConfig {
                threads_per_client: threads,
                duration,
                seed,
                ..StorageConfig::default()
            }),
        })
        .collect()
}

/// Runs F6 (plain DWCS).
pub fn exp_f6_dwcs(duration: SimDuration, seed: u64) -> RubisResult {
    run_rubis(RubisConfig {
        resource_aware: false,
        monitored: false,
        duration,
        seed,
        ..RubisConfig::default()
    })
}

/// Runs F7 (RA-DWCS; SysProf deployed).
pub fn exp_f7_ra_dwcs(duration: SimDuration, seed: u64) -> RubisResult {
    run_rubis(RubisConfig {
        resource_aware: true,
        monitored: true,
        duration,
        seed,
        ..RubisConfig::default()
    })
}

/// F7's companion measurement: plain DWCS *with* SysProf deployed, to
/// quantify the "<2% application performance decrease" claim.
pub fn exp_monitoring_cost_on_rubis(
    duration: SimDuration,
    seed: u64,
) -> (RubisResult, RubisResult) {
    let unmonitored = run_rubis(RubisConfig {
        resource_aware: false,
        monitored: false,
        duration,
        seed,
        ..RubisConfig::default()
    });
    let monitored = run_rubis(RubisConfig {
        resource_aware: false,
        monitored: true,
        duration,
        seed,
        ..RubisConfig::default()
    });
    (unmonitored, monitored)
}
