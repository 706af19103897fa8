//! Pins [`kprof::Predicate::matches`] — the binary search over sorted,
//! deduplicated slices the registry runs on the emit hot path — against a
//! naive model written here: the lists exactly as the builder was handed
//! them (unsorted, duplicates and all), scanned linearly. Including the
//! registry-level consequence: `KprofStats::predicate_rejections` equals
//! a manual count made with the model.

use kprof::{
    Analyzer, AnalyzerOutcome, CountingAnalyzer, Event, EventMask, EventPayload, GroupId, Interest,
    Kprof, NetPoint, Pid, Predicate,
};
use proptest::prelude::*;
use simcore::{NodeId, SimRng, SimTime};
use simnet::{EndPoint, FlowKey, Ip, PacketId, Port};

/// The reference: what a predicate means, with no data structure.
#[derive(Debug, Default)]
struct Model {
    pids: Option<Vec<Pid>>,
    gids: Option<Vec<GroupId>>,
    ports: Option<Vec<Port>>,
}

impl Model {
    fn predicate(&self) -> Predicate {
        let mut p = Predicate::new();
        if let Some(pids) = &self.pids {
            p = p.pids(pids.iter().copied());
        }
        if let Some(gids) = &self.gids {
            p = p.gids(gids.iter().copied());
        }
        if let Some(ports) = &self.ports {
            p = p.ports(ports.iter().copied());
        }
        p
    }

    fn is_match_all(&self) -> bool {
        self.pids.is_none() && self.gids.is_none() && self.ports.is_none()
    }

    fn matches(&self, event: &Event, gid_of: impl Fn(Pid) -> Option<GroupId>) -> bool {
        let pid = event.payload.pid();
        let pid_ok = self
            .pids
            .as_ref()
            .is_none_or(|pids| pid.is_some_and(|pid| pids.contains(&pid)));
        let gid_ok = self
            .gids
            .as_ref()
            .is_none_or(|gids| pid.and_then(&gid_of).is_some_and(|gid| gids.contains(&gid)));
        let port_ok = match (&self.ports, &event.payload) {
            (Some(ports), EventPayload::Net { flow, .. }) => ports
                .iter()
                .any(|&p| p == flow.src.port || p == flow.dst.port),
            _ => true,
        };
        pid_ok && gid_ok && port_ok
    }
}

fn random_model(rng: &mut SimRng) -> Model {
    let mut m = Model::default();
    if rng.chance(0.5) {
        let n = rng.uniform_u64(0, 5) as usize;
        m.pids = Some((0..n).map(|_| Pid(rng.uniform_u64(1, 9) as u32)).collect());
    }
    if rng.chance(0.5) {
        let n = rng.uniform_u64(0, 4) as usize;
        m.gids = Some(
            (0..n)
                .map(|_| GroupId(rng.uniform_u64(1, 6) as u32))
                .collect(),
        );
    }
    if rng.chance(0.5) {
        let n = rng.uniform_u64(0, 4) as usize;
        m.ports = Some(
            (0..n)
                .map(|_| Port(rng.uniform_u64(1, 100) as u16))
                .collect(),
        );
    }
    m
}

fn random_payload(rng: &mut SimRng) -> EventPayload {
    match rng.index(5) {
        0 => EventPayload::ProcessWake {
            pid: Pid(rng.uniform_u64(1, 9) as u32),
        },
        1 => EventPayload::ContextSwitch {
            from: None,
            to: None,
        },
        2 | 3 => {
            let src = Port(rng.uniform_u64(1, 100) as u16);
            let dst = Port(rng.uniform_u64(1, 100) as u16);
            let pid = if rng.chance(0.7) {
                Some(Pid(rng.uniform_u64(1, 9) as u32))
            } else {
                None
            };
            EventPayload::Net {
                point: NetPoint::RxNic,
                flow: FlowKey::new(EndPoint::new(Ip(1), src), EndPoint::new(Ip(2), dst)),
                packet: PacketId(0),
                size: 64,
                pid,
                arm: None,
            }
        }
        _ => EventPayload::ContextSwitch {
            from: Some(Pid(rng.uniform_u64(1, 9) as u32)),
            to: Some(Pid(rng.uniform_u64(1, 9) as u32)),
        },
    }
}

fn event(payload: EventPayload) -> Event {
    Event {
        seq: 0,
        node: NodeId(0),
        cpu: 0,
        wall: SimTime::ZERO,
        payload,
    }
}

/// Executable generative sweep: 300 random predicates, each probed with
/// 64 random events against a random pid→gid table.
#[test]
fn matcher_equals_the_linear_scan_model_on_random_predicates() {
    let mut rng = SimRng::seed(0xC0_11EC7);
    let mut agree = 0u64;
    for case in 0..300 {
        let model = random_model(&mut rng);
        let pred = model.predicate();
        assert_eq!(pred.is_match_all(), model.is_match_all());
        // A random partial pid→gid table, like the registry's.
        let table: Vec<Option<GroupId>> = (0..10)
            .map(|_| {
                rng.chance(0.6)
                    .then(|| GroupId(rng.uniform_u64(1, 6) as u32))
            })
            .collect();
        let gid_of = |pid: Pid| table.get(pid.0 as usize).copied().flatten();
        for _ in 0..64 {
            let ev = event(random_payload(&mut rng));
            assert_eq!(
                pred.matches(&ev, gid_of),
                model.matches(&ev, gid_of),
                "case {case}: {model:?} disagrees on {:?}",
                ev.payload
            );
            agree += 1;
        }
    }
    assert_eq!(agree, 300 * 64);
}

struct Filtered {
    predicate: Predicate,
}

impl Analyzer for Filtered {
    fn name(&self) -> &str {
        "filtered"
    }
    fn interest(&self) -> Interest {
        Interest {
            mask: EventMask::ALL,
            predicate: self.predicate.clone(),
        }
    }
    fn on_event(&mut self, _e: &Event) -> AnalyzerOutcome {
        AnalyzerOutcome::default()
    }
}

/// Registry-level consequence: `predicate_rejections` through the
/// dispatch path equals a manual count made with the model over the same
/// event stream.
#[test]
fn registry_rejection_counts_match_the_model() {
    let mut rng = SimRng::seed(0xD15BA7C);
    for case in 0..50 {
        let model = random_model(&mut rng);
        let mut kprof = Kprof::new(NodeId(0));
        kprof.register(Box::new(CountingAnalyzer::new(EventMask::ALL)));
        kprof.register(Box::new(Filtered {
            predicate: model.predicate(),
        }));

        let mut expected_rejections = 0u64;
        let mut expected_delivered = 0u64;
        for _ in 0..256 {
            let payload = random_payload(&mut rng);
            let ev = kprof.make_event(SimTime::ZERO, 0, payload);
            // The registry table is empty here (no ProcessCreate events),
            // mirroring `gid_of = |_| None`.
            if model.matches(&ev, |_| None) {
                expected_delivered += 1;
            } else {
                expected_rejections += 1;
            }
            kprof.emit(&ev);
        }
        let stats = kprof.stats();
        assert_eq!(
            stats.predicate_rejections, expected_rejections,
            "case {case}: {model:?}"
        );
        // CountingAnalyzer (match-all) sees every event; Filtered sees
        // the model-accepted subset.
        assert_eq!(stats.events_delivered, 256 + expected_delivered);
    }
}

proptest! {
    /// Documentation of the property the seeded sweeps above execute:
    /// for every predicate built from arbitrary pid/gid/port lists and
    /// every event, `Predicate::matches` agrees with the linear scan.
    #[test]
    fn prop_matches_the_linear_scan_model(
        pids in collection::vec(1u32..9, 0..5),
        gids in collection::vec(1u32..6, 0..4),
        ports in collection::vec(1u16..100, 0..4),
    ) {
        let model = Model {
            pids: Some(pids.iter().map(|&x| Pid(x)).collect()),
            gids: Some(gids.iter().map(|&x| GroupId(x)).collect()),
            ports: Some(ports.iter().map(|&x| Port(x)).collect()),
        };
        let e = Event {
            seq: 0,
            node: NodeId(0),
            cpu: 0,
            wall: SimTime::ZERO,
            payload: EventPayload::ProcessWake { pid: Pid(1) },
        };
        prop_assert_eq!(
            model.predicate().matches(&e, |_| None),
            model.matches(&e, |_| None)
        );
    }
}
