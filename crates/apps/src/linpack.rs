//! The linpack microbenchmark (§3.1).
//!
//! "We measured the overhead in its default configuration by running it
//! with linpack … There was no change in the mflops measured by linpack
//! due to SysProf. One of the reasons is that SysProf generates more
//! activities when there are network interactions, so linpack was
//! probably not a very good benchmark."
//!
//! The model: a pure compute loop that performs a fixed amount of
//! floating-point "work". Reported MFLOPS = (nominal flops for the work)
//! / (wall time the work actually took), so any CPU stolen by monitoring
//! lowers the score. With no network traffic, almost no events fire.

use kprof::Pid;
use serde::Serialize;
use simcore::{NodeId, SimDuration, SimTime};
use simos::programs::ComputeLoop;
use simos::{World, WorldBuilder};
use sysprof::SysProf;

use crate::scenario::{on_gigabit_lan, Diagnosis, Placement, ScenarioRun, ScenarioSpec};

/// Result of one linpack run.
#[derive(Debug, Clone, Serialize)]
pub struct LinpackResult {
    /// Measured MFLOPS.
    pub mflops: f64,
    /// Wall time the benchmark took.
    pub elapsed: SimDuration,
    /// Monitoring CPU overhead as a fraction of elapsed time.
    pub overhead_fraction: f64,
    /// Kprof events generated on the benchmark node.
    pub events_generated: u64,
}

/// Nominal flops the modeled benchmark performs per second of pure
/// compute on the reference (2.8 GHz P4-class) node. One flop ≈ one
/// useful cycle here; the absolute value only anchors the MFLOPS unit.
const FLOPS_PER_COMPUTE_SEC: f64 = 1_400e6;

/// Linpack on a two-node 1 Gbps testbed (matching the paper's setup) as
/// a [`ScenarioSpec`]: the compute-only control whose diagnosis must find
/// *nothing* network-attributable.
#[derive(Debug, Clone, Default)]
pub struct LinpackScenario;

impl ScenarioSpec for LinpackScenario {
    type Output = LinpackResult;
    /// The benchmark process.
    type Probes = Pid;

    fn name(&self) -> &'static str {
        "linpack"
    }

    fn topology(&self, nodes: WorldBuilder) -> (WorldBuilder, Placement) {
        let nodes = nodes.node("bench").node("peer");
        on_gigabit_lan(nodes, vec![NodeId(0), NodeId(1)], NodeId(2))
    }

    fn spawn(&self, world: &mut World, _monitor: Option<&SysProf>) -> Pid {
        // 10 s of compute in 10 ms slices.
        let compute = SimDuration::from_secs(10);
        world.spawn(
            NodeId(0),
            "linpack",
            Box::new(ComputeLoop::new(compute, SimDuration::from_millis(10))),
        )
    }

    fn stop_at(&self) -> SimTime {
        SimTime::from_secs(60)
    }

    fn collect(&self, world: &World, _: Option<&SysProf>, &pid: &Pid) -> LinpackResult {
        assert!(world.process_exited(NodeId(0), pid), "benchmark finished");
        let (user, _kernel) = world.process_times(NodeId(0), pid).expect("process exists");
        // The benchmark times its own solve phase: work done / wall time from
        // start to the moment it exits.
        let elapsed = world.process_exit_time(NodeId(0), pid).expect("exited") - SimTime::ZERO;
        let flops = user.as_secs_f64() * FLOPS_PER_COMPUTE_SEC;
        LinpackResult {
            mflops: flops / elapsed.as_secs_f64() / 1e6,
            elapsed,
            overhead_fraction: world.node_stats(NodeId(0)).cpu.monitor.as_secs_f64()
                / elapsed.as_secs_f64(),
            events_generated: world.kprof(NodeId(0)).stats().events_generated,
        }
    }

    fn diagnose(&self, run: &ScenarioRun<LinpackResult>) -> Diagnosis {
        let r = &run.output;
        Diagnosis {
            verdict: format!(
                "compute-bound, monitoring-neutral: {:.0} MFLOPS, monitor tax {:.2}%",
                r.mflops,
                100.0 * r.overhead_fraction
            ),
            evidence: vec![
                format!("elapsed {:.2}s", r.elapsed.as_secs_f64()),
                format!("{} kprof events on the bench node", r.events_generated),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitoring_does_not_change_mflops_measurably() {
        let (_, off) = LinpackScenario.run_unmonitored(42);
        let on = LinpackScenario.run(42).output;
        let rel = (off.mflops - on.mflops).abs() / off.mflops;
        // The paper: "There was no change in the mflops measured".
        assert!(
            rel < 0.005,
            "mflops changed by {:.3}% (off {:.1}, on {:.1})",
            rel * 100.0,
            off.mflops,
            on.mflops
        );
        assert!(
            on.overhead_fraction < 0.005,
            "overhead {}",
            on.overhead_fraction
        );
    }

    #[test]
    fn mflops_is_in_a_sane_range() {
        let (_, r) = LinpackScenario.run_unmonitored(1);
        assert!(r.mflops > 500.0 && r.mflops < 1500.0, "mflops {}", r.mflops);
    }
}
