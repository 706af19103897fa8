//! The calendar's cost per instrumentation hit, as a count.
//!
//! Every Kprof hit, IRQ and softirq charge that lands while a quantum is
//! running stretches that quantum's `QuantumEnd`. Done as cancel +
//! schedule that is a heap push (and, later, a dead pop) per hit — 1.16
//! pushes per hit on this scenario, more than the events the world
//! actually handles. `EventQueue::defer` stretches in place, so the heap
//! sees one key per *event* plus one re-key per stretched quantum. The
//! counts are exact and a function of the seed alone: this is the
//! clock-free form of the `cluster_iperf` claim.

use simcore::{NodeId, SimDuration};
use sysprof_apps::{IperfScenario, ScenarioSpec};

#[test]
fn iperf_heap_pushes_per_hit_stay_under_the_handled_event_rate() {
    let spec = IperfScenario {
        duration: SimDuration::from_millis(150),
        ..IperfScenario::default()
    };
    let run = spec.run(7);
    let world = &run.world;

    let hits: u64 = (0..world.node_count())
        .map(|n| world.kprof(NodeId(n as u32)).stats())
        .map(|s| s.events_generated + s.events_suppressed)
        .sum();
    let cal = world.calendar_stats();
    let pushes = cal.scheduled + cal.rekeyed;
    let per_hit = pushes as f64 / hits as f64;
    assert!(
        per_hit <= 0.7,
        "{pushes} heap pushes for {hits} hits = {per_hit:.3} per hit (1.16 with cancel + schedule): {cal:?}"
    );

    // The stretches still happen; they stop reaching the heap. Only a
    // quantum that is still stretched when its old key surfaces costs a
    // re-key, once, however many hits stretched it.
    assert!(cal.deferred > cal.fired, "{cal:?}");
    assert!(cal.rekeyed < cal.deferred / 10, "{cal:?}");
    // Exact and seed-determined, so pinned: a change here is a change in
    // what the simulation schedules, not in how fast the host ran it.
    let pinned = simcore::CalendarStats {
        scheduled: 36_303,
        fired: 36_301,
        cancelled: 0,
        deferred: 42_321,
        rekeyed: 3_559,
        stale_popped: 3_559,
        max_pending: 391,
    };
    assert_eq!((hits, cal), (67_715, pinned));
}
