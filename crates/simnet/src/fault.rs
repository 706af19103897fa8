//! Deterministic network fault injection.
//!
//! Real dissemination channels lose, delay, duplicate and reorder
//! packets, and whole machines crash mid-run. This module describes
//! those degradations as data — a [`FaultPlan`] — and applies them
//! through a [`FaultInjector`] driven by a forked [`simcore::SimRng`],
//! so a faulty run replays bit-identically from the same seed.
//!
//! Faults are applied *after* link serialization: the sender still pays
//! queueing and bandwidth for a packet that is then lost in flight, and
//! gets no signal that it died — exactly the silent-loss regime the
//! reliability protocol in the `sysprof` crate must survive.
//!
//! Node crash/restart schedules also live in the plan; they are consumed
//! by the host kernel (`simos`), not by the network itself.

use simcore::{NodeId, SimDuration, SimRng, SimTime};

/// Per-link fault probabilities and delay perturbations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability that a serialized packet is lost in flight.
    pub loss: f64,
    /// Probability that a delivered packet arrives twice.
    pub duplicate: f64,
    /// Probability that a delivered packet is held back by
    /// [`reorder_delay`](LinkFaults::reorder_delay), letting later
    /// packets overtake it.
    pub reorder: f64,
    /// Extra latency drawn uniformly from `[0, jitter]` for every
    /// delivered copy.
    pub jitter: SimDuration,
    /// Hold-back applied to packets selected for reordering.
    pub reorder_delay: SimDuration,
}

impl LinkFaults {
    /// A fault-free link: the injector passes packets through untouched
    /// without consuming any randomness.
    pub const NONE: LinkFaults = LinkFaults {
        loss: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        jitter: SimDuration::from_nanos(0),
        reorder_delay: SimDuration::from_nanos(0),
    };

    /// Pure packet loss with the given probability.
    pub const fn lossy(loss: f64) -> LinkFaults {
        LinkFaults {
            loss,
            ..LinkFaults::NONE
        }
    }

    /// Whether this spec perturbs anything at all.
    pub fn is_none(&self) -> bool {
        self.loss <= 0.0 && self.duplicate <= 0.0 && self.reorder <= 0.0 && self.jitter.is_zero()
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// A timed network partition: while active, packets between the two node
/// groups are lost in flight (in both directions). Traffic within a
/// group is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut.
    pub a: Vec<NodeId>,
    /// The other side.
    pub b: Vec<NodeId>,
    /// When the partition starts (inclusive).
    pub from: SimTime,
    /// When the partition heals (exclusive).
    pub until: SimTime,
}

impl Partition {
    /// Whether the partition is in force at `now` and severs the pair
    /// `(x, y)` — i.e. one endpoint is in each group.
    pub fn severs(&self, now: SimTime, x: NodeId, y: NodeId) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let in_a = |n: NodeId| self.a.contains(&n);
        let in_b = |n: NodeId| self.b.contains(&n);
        (in_a(x) && in_b(y)) || (in_b(x) && in_a(y))
    }
}

/// A scheduled fail-stop crash of one node, with an optional restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSchedule {
    /// The node that fails.
    pub node: NodeId,
    /// When it crashes.
    pub crash_at: SimTime,
    /// When it comes back up, if ever.
    pub restart_at: Option<SimTime>,
}

/// A complete, declarative description of every fault a run injects.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Faults applied to links with no per-link override.
    pub default_link: LinkFaults,
    /// Per-link overrides, keyed by unordered node pair.
    pub per_link: Vec<((NodeId, NodeId), LinkFaults)>,
    /// Timed partitions.
    pub partitions: Vec<Partition>,
    /// Node crash/restart schedules (consumed by the kernel layer).
    pub crashes: Vec<CrashSchedule>,
}

impl FaultPlan {
    /// An empty plan: no faults anywhere.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Sets the fault spec applied to every link without an override.
    pub fn with_default_link(mut self, faults: LinkFaults) -> Self {
        self.default_link = faults;
        self
    }

    /// Overrides the fault spec on one link (either node order).
    pub fn with_link(mut self, a: NodeId, b: NodeId, faults: LinkFaults) -> Self {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.per_link.push((key, faults));
        self
    }

    /// Adds a timed partition between two node groups.
    pub fn with_partition(
        mut self,
        a: Vec<NodeId>,
        b: Vec<NodeId>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.partitions.push(Partition { a, b, from, until });
        self
    }

    /// Schedules a crash (and optional restart) for a node.
    pub fn with_crash(
        mut self,
        node: NodeId,
        crash_at: SimTime,
        restart_at: Option<SimTime>,
    ) -> Self {
        self.crashes.push(CrashSchedule {
            node,
            crash_at,
            restart_at,
        });
        self
    }

    /// Whether the plan perturbs the network at all (crash schedules are
    /// kernel-level and do not count).
    pub fn perturbs_network(&self) -> bool {
        !self.default_link.is_none()
            || self.per_link.iter().any(|(_, f)| !f.is_none())
            || !self.partitions.is_empty()
    }

    /// The fault spec in force on the link between `a` and `b`.
    pub fn faults_between(&self, a: NodeId, b: NodeId) -> LinkFaults {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.per_link
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, f)| *f)
            .unwrap_or(self.default_link)
    }
}

/// Counters of what the injector actually did, for test assertions and
/// accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets offered to the injector (successful link transmits).
    pub packets_offered: u64,
    /// Arrival copies the injector actually scheduled (a duplicated
    /// packet contributes two, a lost one zero).
    pub delivered_copies: u64,
    /// Packets lost to per-link loss probability.
    pub injected_losses: u64,
    /// Packets lost to an active partition.
    pub partition_drops: u64,
    /// Extra copies delivered by duplication.
    pub duplicates: u64,
    /// Packets held back for reordering.
    pub reorders: u64,
    /// Packets whose arrival was perturbed by jitter.
    pub jittered: u64,
}

impl FaultStats {
    /// Total packets the injector removed from flight.
    pub fn total_losses(&self) -> u64 {
        self.injected_losses + self.partition_drops
    }

    /// Whether the injector's books balance exactly: every offered packet
    /// is accounted for as lost, delivered, or delivered twice
    /// (`offered = losses + delivered - duplicates`). A run whose stats
    /// do not balance has leaked or invented packets.
    pub fn balances(&self) -> bool {
        self.packets_offered + self.duplicates == self.total_losses() + self.delivered_copies
    }
}

/// Minimum spacing between a packet and its injected duplicate.
const DUPLICATE_GAP: SimDuration = SimDuration::from_micros(10);

/// Applies a [`FaultPlan`] to in-flight packets, deterministically.
///
/// All randomness comes from the injector's own forked [`SimRng`], and a
/// fault-free link consumes none of it — so installing an injector with
/// an empty plan leaves a run bit-identical to one without.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for the plan. `rng` should be forked from the
    /// simulation's root RNG so fault draws never perturb other
    /// subsystems' random streams.
    pub fn new(plan: FaultPlan, rng: SimRng) -> FaultInjector {
        FaultInjector {
            plan,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether an active partition severs `from`/`to` at `now`.
    pub fn partitioned(&self, now: SimTime, from: NodeId, to: NodeId) -> bool {
        self.plan.partitions.iter().any(|p| p.severs(now, from, to))
    }

    /// Maps one successful link transmit to the arrival times of the
    /// copies actually delivered, the original first: none means lost in
    /// flight, two means duplicated, and jitter/reorder perturb (and may
    /// swap) arrivals. A packet is never copied more than once, so the
    /// answer is an inline pair and the packet path allocates nothing.
    pub fn deliveries(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        arrival: SimTime,
    ) -> [Option<SimTime>; 2] {
        self.stats.packets_offered += 1;
        if self.partitioned(now, from, to) {
            self.stats.partition_drops += 1;
            return [None; 2];
        }
        let f = self.plan.faults_between(from, to);
        if f.is_none() {
            // No draws at all: fault-free links replay identically to a
            // run with no injector installed.
            self.stats.delivered_copies += 1;
            return [Some(arrival), None];
        }
        if f.loss > 0.0 && self.rng.chance(f.loss) {
            self.stats.injected_losses += 1;
            return [None; 2];
        }
        let mut first = arrival + self.draw_jitter(f.jitter);
        if f.reorder > 0.0 && self.rng.chance(f.reorder) {
            first += f.reorder_delay;
            self.stats.reorders += 1;
        }
        let mut dup = None;
        if f.duplicate > 0.0 && self.rng.chance(f.duplicate) {
            dup = Some(first + DUPLICATE_GAP + self.draw_jitter(f.jitter));
            self.stats.duplicates += 1;
        }
        self.stats.delivered_copies += 1 + u64::from(dup.is_some());
        [Some(first), dup]
    }

    fn draw_jitter(&mut self, jitter: SimDuration) -> SimDuration {
        if jitter.is_zero() {
            return SimDuration::from_nanos(0);
        }
        self.stats.jittered += 1;
        SimDuration::from_nanos(self.rng.uniform_u64(0, jitter.as_nanos() + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn copies(arrivals: [Option<SimTime>; 2]) -> usize {
        arrivals.iter().flatten().count()
    }

    #[test]
    fn empty_plan_passes_through_without_randomness() {
        let mut a = FaultInjector::new(FaultPlan::new(), SimRng::seed(7));
        let mut b = FaultInjector::new(FaultPlan::new(), SimRng::seed(999));
        for i in 0..50 {
            let arr = t(i);
            assert_eq!(
                a.deliveries(t(i), NodeId(0), NodeId(1), arr),
                [Some(arr), None]
            );
            assert_eq!(
                b.deliveries(t(i), NodeId(0), NodeId(1), arr),
                [Some(arr), None]
            );
        }
        assert_eq!(
            a.stats(),
            FaultStats {
                packets_offered: 50,
                delivered_copies: 50,
                ..FaultStats::default()
            },
            "pass-through only counts traffic, never perturbs it"
        );
        assert!(a.stats().balances());
    }

    #[test]
    fn accounting_balances_under_every_fault_mix() {
        let plan = FaultPlan::new()
            .with_default_link(LinkFaults {
                loss: 0.25,
                duplicate: 0.2,
                reorder: 0.15,
                jitter: SimDuration::from_micros(40),
                reorder_delay: SimDuration::from_micros(500),
            })
            .with_partition(vec![NodeId(0)], vec![NodeId(1)], t(100), t(300));
        let mut inj = FaultInjector::new(plan, SimRng::seed(11));
        let mut copies = 0u64;
        for i in 0..5_000 {
            copies += self::copies(inj.deliveries(t(i), NodeId(0), NodeId(1), t(i))) as u64;
        }
        let s = inj.stats();
        assert_eq!(s.packets_offered, 5_000);
        assert_eq!(s.delivered_copies, copies, "every scheduled copy counted");
        assert!(
            s.total_losses() > 0 && s.duplicates > 0,
            "mix exercised: {s:?}"
        );
        assert!(
            s.balances(),
            "offered + duplicates == losses + delivered: {s:?}"
        );
    }

    #[test]
    fn loss_rate_is_roughly_honored_and_counted() {
        let plan = FaultPlan::new().with_default_link(LinkFaults::lossy(0.3));
        let mut inj = FaultInjector::new(plan, SimRng::seed(1));
        let mut lost = 0;
        for i in 0..10_000 {
            if copies(inj.deliveries(t(i), NodeId(0), NodeId(1), t(i))) == 0 {
                lost += 1;
            }
        }
        assert_eq!(inj.stats().injected_losses, lost);
        assert!((2_500..3_500).contains(&lost), "lost {lost}/10000 at p=0.3");
    }

    #[test]
    fn partition_severs_only_cross_group_pairs_while_active() {
        let plan = FaultPlan::new().with_partition(vec![NodeId(0)], vec![NodeId(1)], t(10), t(20));
        let mut inj = FaultInjector::new(plan, SimRng::seed(2));
        // Before, cross-group flows fine.
        assert_eq!(copies(inj.deliveries(t(5), NodeId(0), NodeId(1), t(5))), 1);
        // During, both directions are cut…
        assert_eq!(
            copies(inj.deliveries(t(10), NodeId(0), NodeId(1), t(10))),
            0
        );
        assert_eq!(
            copies(inj.deliveries(t(15), NodeId(1), NodeId(0), t(15))),
            0
        );
        // …but unrelated pairs are not.
        assert_eq!(
            copies(inj.deliveries(t(15), NodeId(1), NodeId(2), t(15))),
            1
        );
        // After healing, traffic resumes.
        assert_eq!(
            copies(inj.deliveries(t(20), NodeId(0), NodeId(1), t(20))),
            1
        );
        assert_eq!(inj.stats().partition_drops, 2);
    }

    #[test]
    fn duplication_yields_two_ordered_arrivals() {
        let plan = FaultPlan::new().with_default_link(LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::NONE
        });
        let mut inj = FaultInjector::new(plan, SimRng::seed(3));
        let [Some(first), Some(dup)] = inj.deliveries(t(1), NodeId(0), NodeId(1), t(1)) else {
            panic!("two copies");
        };
        assert!(dup >= first + DUPLICATE_GAP);
        assert_eq!(inj.stats().duplicates, 1);
    }

    #[test]
    fn jitter_stays_within_bound_and_reorder_adds_delay() {
        let jitter = SimDuration::from_micros(50);
        let plan = FaultPlan::new().with_default_link(LinkFaults {
            jitter,
            reorder: 1.0,
            reorder_delay: SimDuration::from_millis(1),
            ..LinkFaults::NONE
        });
        let mut inj = FaultInjector::new(plan, SimRng::seed(4));
        for i in 0..100 {
            let arr = t(i);
            let [Some(got), None] = inj.deliveries(t(i), NodeId(0), NodeId(1), arr) else {
                panic!("one copy");
            };
            let lo = arr + SimDuration::from_millis(1);
            assert!(got >= lo && got <= lo + jitter, "arrival {got:?}");
        }
        assert_eq!(inj.stats().reorders, 100);
    }

    #[test]
    fn per_link_override_beats_default() {
        let plan = FaultPlan::new()
            .with_default_link(LinkFaults::lossy(1.0))
            .with_link(NodeId(1), NodeId(0), LinkFaults::NONE);
        let mut inj = FaultInjector::new(plan, SimRng::seed(5));
        // Overridden link (looked up in either order) never loses.
        assert_eq!(copies(inj.deliveries(t(1), NodeId(0), NodeId(1), t(1))), 1);
        // Other links always lose.
        assert_eq!(copies(inj.deliveries(t(1), NodeId(0), NodeId(2), t(1))), 0);
    }

    #[test]
    fn same_seed_same_plan_replays_identically() {
        let plan = FaultPlan::new().with_default_link(LinkFaults {
            loss: 0.2,
            duplicate: 0.1,
            reorder: 0.1,
            jitter: SimDuration::from_micros(30),
            reorder_delay: SimDuration::from_micros(200),
        });
        let run = |seed: u64| {
            let mut inj = FaultInjector::new(plan.clone(), SimRng::seed(seed));
            let mut all = Vec::new();
            for i in 0..500 {
                all.push(inj.deliveries(t(i), NodeId(0), NodeId(1), t(i)));
            }
            (all, inj.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "different seeds diverge");
    }
}
