//! Event pruning predicates: "Events can also be pruned on the basis of
//! process IDs, group IDs, or other such predicates" (§2).

use simnet::Port;

use crate::{Event, EventPayload, GroupId, Pid};

/// A subscription-side filter evaluated before an analyzer callback runs.
///
/// An empty predicate matches everything. When several dimensions are set,
/// an event must satisfy all of them (conjunction). Events that carry no
/// pid (e.g. an idle context switch) fail pid/gid filters; network events
/// match a port filter if either flow endpoint uses one of the ports.
///
/// Each constrained dimension is kept as a sorted, deduplicated slice, so
/// [`matches`](Predicate::matches) — what [`Kprof`](crate::Kprof) calls
/// per delivery on the emit hot path — is a binary search that never
/// touches the heap. `tests/matcher_equiv.rs` pins it against a naive
/// linear-scan model.
///
/// # Example
///
/// ```
/// use kprof::{Predicate, Pid};
/// let p = Predicate::new().pids([Pid(1), Pid(2)]);
/// assert!(!p.is_match_all());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Predicate {
    pids: Option<Box<[Pid]>>,
    gids: Option<Box<[GroupId]>>,
    ports: Option<Box<[Port]>>,
}

fn sorted_slice<T: Ord>(items: impl IntoIterator<Item = T>) -> Option<Box<[T]>> {
    let mut v: Vec<T> = items.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    Some(v.into_boxed_slice())
}

impl Predicate {
    /// A predicate that matches every event.
    pub fn new() -> Self {
        Predicate::default()
    }

    /// Restricts to events about the given processes.
    #[must_use]
    pub fn pids(mut self, pids: impl IntoIterator<Item = Pid>) -> Self {
        self.pids = sorted_slice(pids);
        self
    }

    /// Restricts to events about processes in the given groups. Group
    /// membership is resolved by the [`Kprof`](crate::Kprof) registry,
    /// which learns it from `ProcessCreate` events.
    #[must_use]
    pub fn gids(mut self, gids: impl IntoIterator<Item = GroupId>) -> Self {
        self.gids = sorted_slice(gids);
        self
    }

    /// Restricts network events to flows touching the given ports.
    /// Non-network events are unaffected by a port filter.
    #[must_use]
    pub fn ports(mut self, ports: impl IntoIterator<Item = Port>) -> Self {
        self.ports = sorted_slice(ports);
        self
    }

    /// True if this predicate has no constraints.
    pub fn is_match_all(&self) -> bool {
        self.pids.is_none() && self.gids.is_none() && self.ports.is_none()
    }

    /// Evaluates the predicate. `gid_of` resolves a pid to its process
    /// group (the registry's pid table).
    #[inline]
    pub fn matches(&self, event: &Event, gid_of: impl Fn(Pid) -> Option<GroupId>) -> bool {
        if let Some(pids) = &self.pids {
            match event.payload.pid() {
                Some(pid) if pids.binary_search(&pid).is_ok() => {}
                _ => return false,
            }
        }
        if let Some(gids) = &self.gids {
            match event.payload.pid().and_then(&gid_of) {
                Some(gid) if gids.binary_search(&gid).is_ok() => {}
                _ => return false,
            }
        }
        if let Some(ports) = &self.ports {
            if let EventPayload::Net { flow, .. } = &event.payload {
                let touches = ports.binary_search(&flow.src.port).is_ok()
                    || ports.binary_search(&flow.dst.port).is_ok();
                if !touches {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{NodeId, SimTime};
    use simnet::{EndPoint, FlowKey, Ip, PacketId};

    fn ev(payload: EventPayload) -> Event {
        Event {
            seq: 0,
            node: NodeId(0),
            cpu: 0,
            wall: SimTime::ZERO,
            payload,
        }
    }

    fn net_ev(src_port: u16, dst_port: u16) -> Event {
        ev(EventPayload::Net {
            point: crate::NetPoint::RxNic,
            flow: FlowKey::new(
                EndPoint::new(Ip(1), Port(src_port)),
                EndPoint::new(Ip(2), Port(dst_port)),
            ),
            packet: PacketId(0),
            size: 100,
            pid: None,
            arm: None,
        })
    }

    const NO_GID: fn(Pid) -> Option<GroupId> = |_| None;

    #[test]
    fn empty_predicate_matches_everything() {
        let p = Predicate::new();
        assert!(p.is_match_all());
        assert!(p.matches(&ev(EventPayload::ProcessWake { pid: Pid(1) }), NO_GID));
        assert!(p.matches(&net_ev(1, 2), NO_GID));
    }

    #[test]
    fn pid_filter() {
        let p = Predicate::new().pids([Pid(5)]);
        assert!(p.matches(&ev(EventPayload::ProcessWake { pid: Pid(5) }), NO_GID));
        assert!(!p.matches(&ev(EventPayload::ProcessWake { pid: Pid(6) }), NO_GID));
        // Events without a pid fail a pid filter.
        assert!(!p.matches(
            &ev(EventPayload::ContextSwitch {
                from: None,
                to: None
            }),
            NO_GID
        ));
    }

    #[test]
    fn gid_filter_resolves_via_table() {
        let p = Predicate::new().gids([GroupId(3)]);
        let table = |pid: Pid| (pid == Pid(7)).then_some(GroupId(3));
        assert!(p.matches(&ev(EventPayload::ProcessWake { pid: Pid(7) }), table));
        assert!(!p.matches(&ev(EventPayload::ProcessWake { pid: Pid(8) }), table));
    }

    #[test]
    fn port_filter_matches_either_endpoint() {
        let p = Predicate::new().ports([Port(2049)]);
        assert!(p.matches(&net_ev(2049, 777), NO_GID));
        assert!(p.matches(&net_ev(777, 2049), NO_GID));
        assert!(!p.matches(&net_ev(777, 888), NO_GID));
        // Non-network events are unaffected by the port dimension.
        assert!(p.matches(&ev(EventPayload::ProcessWake { pid: Pid(1) }), NO_GID));
    }

    #[test]
    fn conjunction_of_dimensions() {
        let p = Predicate::new().pids([Pid(1)]).ports([Port(80)]);
        let mut e = net_ev(80, 5);
        if let EventPayload::Net { pid, .. } = &mut e.payload {
            *pid = Some(Pid(1));
        }
        assert!(p.matches(&e, NO_GID));
        let mut wrong_pid = e;
        if let EventPayload::Net { pid, .. } = &mut wrong_pid.payload {
            *pid = Some(Pid(2));
        }
        assert!(!p.matches(&wrong_pid, NO_GID));
    }
}
