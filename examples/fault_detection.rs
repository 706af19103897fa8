//! Online failure detection: one of the back-end NFS servers develops a
//! failing disk mid-run. SysProf's load reports and per-class summaries
//! finger the sick node within a couple of reporting intervals — the
//! "detect failures and performance bottlenecks" scenario that motivates
//! §3.2, driven entirely from monitoring data.
//!
//! ```text
//! cargo run --release --example fault_detection
//! ```

use simcore::{NodeId, SimDuration, SimTime};
use simnet::FaultPlan;
use sysprof_apps::storage::{BACKENDS, BACKEND_PORT};
use sysprof_apps::{ScenarioSpec, StorageScenario};

fn main() {
    let spec = StorageScenario {
        duration: SimDuration::from_secs(20),
        ..StorageScenario::default()
    };
    // Staged, not run: the example drives the world itself so it can
    // break a disk halfway through.
    let mut sw = spec.stage(1, FaultPlan::default(), spec.monitor_config());
    let backend_nodes: Vec<NodeId> = (0..BACKENDS).map(|b| spec.backend_node(b)).collect();
    let victim = backend_nodes[1];
    let healthy = backend_nodes[0];

    println!(
        "virtual storage service: 2 clients -> proxy -> {} back-ends",
        backend_nodes.len()
    );
    println!("running healthy for 10 s…");
    sw.world.run_until(SimTime::from_secs(10));

    // Snapshot the per-backend view before the fault.
    let before: Vec<(NodeId, f64)> = {
        let gpa = sw.sysprof.gpa();
        let gpa = gpa.borrow();
        backend_nodes
            .iter()
            .map(|&b| {
                let t = gpa
                    .class_summary(b, BACKEND_PORT)
                    .map(|s| s.mean_total_us / 1e3)
                    .unwrap_or(0.0);
                (b, t)
            })
            .collect()
    };
    for (node, ms) in &before {
        println!(
            "  {} mean interaction time: {ms:.1} ms",
            sw.world.network().node_name(*node)
        );
    }

    println!(
        "\ninjecting a disk fault on {} (8x slower seeks and transfers)…",
        sw.world.network().node_name(victim)
    );
    sw.world.degrade_disk(victim, 8.0);
    sw.world
        .run_until(SimTime::from_secs(20) + SimDuration::from_secs(2));

    // Diagnose from monitoring data only: compare each back-end's
    // per-interaction kernel time in the window after the fault.
    let fault_us = SimTime::from_secs(10).as_micros();
    let gpa = sw.sysprof.gpa();
    let gpa = gpa.borrow();
    println!("\nafter 10 more seconds, SysProf's post-fault window view:");
    let mut suspect = None;
    let mut worst = 0.0f64;
    let mut readings = Vec::new();
    for &b in &backend_nodes {
        let recs = gpa.interactions_of(b, BACKEND_PORT);
        let window: Vec<_> = recs
            .into_iter()
            .filter(|r| r.start_us >= fault_us)
            .collect();
        let mean_ms = if window.is_empty() {
            0.0
        } else {
            window
                .iter()
                .map(|r| (r.end_us - r.start_us) as f64)
                .sum::<f64>()
                / window.len() as f64
                / 1e3
        };
        println!(
            "  {}: {} interactions since the fault, mean kernel time {:.1} ms",
            sw.world.network().node_name(b),
            window.len(),
            mean_ms,
        );
        readings.push((b, mean_ms));
        if mean_ms > worst {
            worst = mean_ms;
            suspect = Some(b);
        }
    }

    let suspect = suspect.expect("some backend reported");
    println!(
        "\n=> the post-fault interaction records indict {} ({:.0} ms/interaction)",
        sw.world.network().node_name(suspect),
        worst
    );
    assert_eq!(suspect, victim, "the monitor found the faulty node");
    let healthy_ms = readings
        .iter()
        .find(|(b, _)| *b == healthy)
        .map(|(_, ms)| *ms)
        .unwrap_or(0.0);
    println!(
        "   the healthy peer {} sits at {:.1} ms — {:.0}x difference",
        sw.world.network().node_name(healthy),
        healthy_ms,
        worst / healthy_ms.max(0.001)
    );
    println!("   detection used only SysProf data: no probe requests, no app changes.");
}
