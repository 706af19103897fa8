//! The §3.3 case study: enforcing QoS for a multi-tier auction site with
//! window-constrained scheduling, with and without SysProf's measurements
//! feeding the dispatcher.
//!
//! Two request classes (CPU-heavy *bidding* with tight deadlines,
//! network-heavy *comment* with loose ones) share two servlet servers.
//! Halfway through, a background job lands on one server. Plain DWCS
//! dispatches blindly and degrades; RA-DWCS routes around the loaded
//! server using SysProf's per-server load reports.
//!
//! ```text
//! cargo run --release --example rubis_sla
//! ```

use simcore::SimDuration;
use sysprof_apps::{RubisScenario, ScenarioSpec};

fn main() {
    let duration = SimDuration::from_secs(30);
    println!("RUBiS with DWCS scheduling: 150 bids/s + 150 comments/s over two servlet");
    println!(
        "servers; a background job loads server A at t = {}s.\n",
        duration.as_secs_f64() / 2.0
    );

    let spec = |resource_aware| RubisScenario {
        resource_aware,
        duration,
    };
    // Plain DWCS needs no monitor; RA-DWCS dispatches on a deployed
    // SysProf's load reports.
    let (_, plain) = spec(false).run_unmonitored(1);
    let ra = spec(true).run(1).output;

    for (name, r) in [
        ("plain DWCS (Figure 6)", &plain),
        ("RA-DWCS (Figure 7)", &ra),
    ] {
        println!("== {name} ==");
        println!(
            "  bidding : {:>5.1}/s overall   before load {:>5.1}/s   after {:>5.1}/s   dropped {}",
            r.bid.mean_rps, r.bid.first_half_rps, r.bid.second_half_rps, r.bid.dropped
        );
        println!(
            "  comment : {:>5.1}/s overall   before load {:>5.1}/s   after {:>5.1}/s   dropped {}",
            r.comment.mean_rps,
            r.comment.first_half_rps,
            r.comment.second_half_rps,
            r.comment.dropped
        );
        println!();
    }

    println!(
        "RA-DWCS aggregate gain: {:+.1}% ({:.1} -> {:.1} responses/s)",
        (ra.total_rps / plain.total_rps - 1.0) * 100.0,
        plain.total_rps,
        ra.total_rps
    );
    println!(
        "bidding-class protection: plain lost {:.1}/s after the disturbance, RA lost {:.1}/s",
        plain.bid.first_half_rps - plain.bid.second_half_rps,
        (ra.bid.first_half_rps - ra.bid.second_half_rps).max(0.0)
    );
    println!(
        "cost of the measurements that made it possible: {:.2}% server CPU",
        ra.server_overhead_fraction * 100.0
    );

    // A compact per-second timeline of the bidding class, to see the
    // disturbance hit and (for RA) not hit.
    println!("\nbidding-class throughput timeline (responses/s per second):");
    for (name, r) in [("plain", &plain), ("ra   ", &ra)] {
        let line: String = r
            .bid
            .series
            .iter()
            .take(duration.as_secs_f64() as usize)
            .map(|(_, rate)| {
                // 0-9 scale against the 150/s offered rate.
                let level = ((rate / 150.0) * 9.0).round().clamp(0.0, 9.0) as u32;
                char::from_digit(level, 10).expect("digit in range")
            })
            .collect();
        println!("  {name}: {line}");
    }
    println!("         (9 = full offered rate, 0 = nothing; disturbance at the midpoint)");
}
