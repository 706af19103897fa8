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
//!
//! [`cluster`], [`node`] and [`gpa`] are not paper artifacts: they
//! build the per-layer ledgers of a whole cluster run, of one node's
//! monitor and of the GPA's receive half that `figures --exp wall`,
//! `--exp node` and `--exp gpa` time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod gpa;
pub mod node;

use kprof::EventMask;
use serde::Serialize;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::LinkSpec;
use simos::{World, WorldBuilder};
use sysprof::SysProf;
use sysprof_apps::{
    Diagnosis, IperfResult, IperfScenario, LinpackResult, LinpackScenario, Placement, RubisResult,
    RubisScenario, ScenarioRun, ScenarioSpec, StorageResult, StorageScenario,
};

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
        off: LinpackScenario.run_unmonitored(seed).1,
        on: LinpackScenario.run(seed).output,
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
    let gigabit = IperfScenario {
        link: LinkSpec::gigabit_lan(),
        duration,
    };
    let fast_ethernet = IperfScenario {
        link: LinkSpec::fast_ethernet(),
        duration,
    };
    E2Result {
        gigabit_off: gigabit.run_unmonitored(seed).1,
        gigabit_on: gigabit.run(seed).output,
        fast_ethernet_off: fast_ethernet.run_unmonitored(seed).1,
        fast_ethernet_on: fast_ethernet.run(seed).output,
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

/// One rung of T0: the Iperf world with only the receiver monitored and
/// Kprof's global gate set to `mask` before the stream starts.
struct GatedIperf {
    iperf: IperfScenario,
    mask: EventMask,
}

impl ScenarioSpec for GatedIperf {
    type Output = IperfResult;
    type Probes = ();

    fn name(&self) -> &'static str {
        "iperf-gated"
    }

    fn topology(&self, nodes: WorldBuilder) -> (WorldBuilder, Placement) {
        let (nodes, placement) = self.iperf.topology(nodes);
        let receiver_only = Placement {
            monitored: vec![NodeId(1)],
            ..placement
        };
        (nodes, receiver_only)
    }

    fn monitor_config(&self) -> sysprof::MonitorConfig {
        self.iperf.monitor_config()
    }

    fn spawn(&self, world: &mut World, monitor: Option<&SysProf>) {
        // A raw event subscriber interested in everything, so the sweep
        // measures true per-class event volume (the LPA itself only wants
        // Network + Scheduling).
        world
            .kprof_mut(NodeId(1))
            .register(Box::new(kprof::CountingAnalyzer::new(EventMask::ALL)));
        world.kprof_mut(NodeId(1)).set_global_mask(self.mask);
        self.iperf.spawn(world, monitor);
    }

    fn stop_at(&self) -> SimTime {
        self.iperf.stop_at()
    }

    fn collect(&self, world: &World, monitor: Option<&SysProf>, probes: &()) -> IperfResult {
        self.iperf.collect(world, monitor, probes)
    }

    fn diagnose(&self, run: &ScenarioRun<IperfResult>) -> Diagnosis {
        self.iperf.diagnose(run)
    }
}

/// T0: Kprof's selective-enabling knob under Iperf load —
/// reproducing "the overhead of SysProf can be varied ranging from less
/// than 1% of the system resource to more than 10%". Each row enables one
/// more event class through the receiver's global gate mask.
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
    let iperf = IperfScenario {
        link: LinkSpec::gigabit_lan(),
        duration,
    };
    levels
        .into_iter()
        .map(|(name, mask)| {
            let gated = GatedIperf {
                iperf: iperf.clone(),
                mask,
            };
            let run = gated.run(seed);
            GranularityRow {
                level: name.to_owned(),
                goodput_mbps: run.output.goodput_mbps,
                overhead_fraction: run.output.overhead_fraction,
                events: run.world.kprof(NodeId(1)).stats().events_generated,
            }
        })
        .collect()
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
        .map(|threads| {
            let spec = StorageScenario {
                threads_per_client: threads,
                duration,
            };
            StorageRow {
                threads,
                result: spec.run(seed).output,
            }
        })
        .collect()
}

fn rubis(resource_aware: bool, duration: SimDuration) -> RubisScenario {
    RubisScenario {
        resource_aware,
        duration,
    }
}

/// Runs F6 (plain DWCS, no SysProf).
pub fn exp_f6_dwcs(duration: SimDuration, seed: u64) -> RubisResult {
    rubis(false, duration).run_unmonitored(seed).1
}

/// Runs F7 (RA-DWCS; SysProf deployed).
pub fn exp_f7_ra_dwcs(duration: SimDuration, seed: u64) -> RubisResult {
    rubis(true, duration).run(seed).output
}

/// F7's companion measurement: plain DWCS without and *with* SysProf
/// deployed, to quantify the "<2% application performance decrease"
/// claim.
pub fn exp_monitoring_cost_on_rubis(
    duration: SimDuration,
    seed: u64,
) -> (RubisResult, RubisResult) {
    let plain = rubis(false, duration);
    (plain.run_unmonitored(seed).1, plain.run(seed).output)
}
