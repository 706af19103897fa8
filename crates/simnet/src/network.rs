//! Topologies: named nodes, addressed interfaces, and the link fabric.

use std::fmt;

use simcore::hash::HashMap;
use simcore::{NodeId, SimRng, SimTime};

use crate::fault::{FaultInjector, FaultPlan, FaultStats};
use crate::{ClockSpec, Ip, Link, LinkSpec, NtpClock, TransmitOutcome};

/// Outcome of a fault-aware transmit ([`Network::transmit_with_faults`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetOutcome {
    /// The packet was serialized onto the wire. `arrivals` holds the
    /// arrival time of every copy actually delivered: none means it was
    /// lost in flight (injected loss or partition — the sender still paid
    /// for serialization and gets no signal), two means it was duplicated.
    Sent {
        /// When the sender's NIC finishes serializing the packet.
        departure: SimTime,
        /// Arrival time of each delivered copy, possibly perturbed by
        /// jitter or reordering.
        arrivals: [Option<SimTime>; 2],
    },
    /// Dropped at the sender's drop-tail queue; never serialized.
    QueueDrop,
}

/// Error building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link referenced a node index that does not exist.
    UnknownNode(NodeId),
    /// Two link declarations covered the same node pair.
    DuplicateLink(NodeId, NodeId),
    /// A link connected a node to itself.
    SelfLink(NodeId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "link references unknown {n}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link between {a} and {b}"),
            TopologyError::SelfLink(n) => write!(f, "self-link on {n}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Error returned when transmitting between unconnected nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoRouteError {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
}

impl fmt::Display for NoRouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no route from {} to {}", self.from, self.to)
    }
}

impl std::error::Error for NoRouteError {}

struct NodeInfo {
    name: String,
    ip: Ip,
    clock: NtpClock,
}

/// Builder for [`Network`] topologies.
///
/// # Example
///
/// ```
/// use simcore::NodeId;
/// use simnet::{LinkSpec, NetworkBuilder};
///
/// let net = NetworkBuilder::new()
///     .node("a")
///     .node("b")
///     .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
///     .build()?;
/// assert_eq!(net.node_count(), 2);
/// # Ok::<(), simnet::TopologyError>(())
/// ```
#[derive(Default)]
pub struct NetworkBuilder {
    nodes: Vec<(String, ClockSpec)>,
    // Named distinctly from `Network::links` (a HashMap): this is the
    // ordered declaration list, safe to iterate as-is.
    link_list: Vec<(NodeId, NodeId, LinkSpec)>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetworkBuilder::default()
    }

    /// Adds a node with a perfect clock; returns the builder. Nodes get ids
    /// in declaration order and IPs `10.0.0.(index+1)`.
    pub fn node(mut self, name: &str) -> Self {
        self.nodes.push((name.to_owned(), ClockSpec::PERFECT));
        self
    }

    /// Adds a node with an explicit clock error model.
    pub fn node_with_clock(mut self, name: &str, clock: ClockSpec) -> Self {
        self.nodes.push((name.to_owned(), clock));
        self
    }

    /// Connects two nodes with a link.
    pub fn link(mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> Self {
        self.link_list.push((a, b, spec));
        self
    }

    /// Connects every distinct node pair with the same link spec.
    pub fn full_mesh(mut self, spec: LinkSpec) -> Self {
        let n = self.nodes.len() as u32;
        for i in 0..n {
            for j in (i + 1)..n {
                self.link_list.push((NodeId(i), NodeId(j), spec));
            }
        }
        self
    }

    /// Validates and builds the network.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] on dangling node references, self-links or
    /// duplicate links.
    pub fn build(self) -> Result<Network, TopologyError> {
        let n = self.nodes.len() as u32;
        let mut link_map = HashMap::default();
        for (a, b, spec) in self.link_list {
            if a == b {
                return Err(TopologyError::SelfLink(a));
            }
            if a.0 >= n {
                return Err(TopologyError::UnknownNode(a));
            }
            if b.0 >= n {
                return Err(TopologyError::UnknownNode(b));
            }
            let key = if a < b { (a, b) } else { (b, a) };
            if link_map.insert(key, Link::new(spec)).is_some() {
                return Err(TopologyError::DuplicateLink(key.0, key.1));
            }
        }
        let nodes = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(i, (name, clock))| NodeInfo {
                name,
                ip: Ip::for_node_index(i as u32),
                clock: NtpClock::new(clock),
            })
            .collect();
        Ok(Network {
            nodes,
            links: link_map,
            injector: None,
        })
    }
}

/// A built topology: the link fabric plus per-node addressing and clocks.
pub struct Network {
    nodes: Vec<NodeInfo>,
    links: HashMap<(NodeId, NodeId), Link>,
    injector: Option<FaultInjector>,
}

impl Network {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's display name.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0 as usize].name
    }

    /// A node's IP address.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_ip(&self, node: NodeId) -> Ip {
        self.nodes[node.0 as usize].ip
    }

    /// Looks up a node by IP address.
    pub fn node_by_ip(&self, ip: Ip) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|ni| ni.ip == ip)
            .map(|i| NodeId(i as u32))
    }

    /// A node's wall clock.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn clock(&self, node: NodeId) -> &NtpClock {
        &self.nodes[node.0 as usize].clock
    }

    /// Transmits `bytes` from `from` to `to` at time `now`, returning the
    /// delivery schedule (or drop verdict).
    ///
    /// # Errors
    ///
    /// Returns [`NoRouteError`] if the nodes are not directly linked.
    pub fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Result<TransmitOutcome, NoRouteError> {
        let key = if from < to { (from, to) } else { (to, from) };
        let link = self.links.get_mut(&key).ok_or(NoRouteError { from, to })?;
        Ok(if from < to {
            link.transmit_forward(now, bytes)
        } else {
            link.transmit_reverse(now, bytes)
        })
    }

    /// Like [`transmit`](Network::transmit), but runs the outcome through
    /// the installed [`FaultInjector`] (if any): the result distinguishes
    /// queue drops (sender-visible) from in-flight losses, duplication and
    /// delay perturbations (sender-invisible). Without an injector this is
    /// exactly `transmit` and consumes no randomness.
    ///
    /// # Errors
    ///
    /// Returns [`NoRouteError`] if the nodes are not directly linked.
    pub fn transmit_with_faults(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Result<NetOutcome, NoRouteError> {
        let outcome = self.transmit(now, from, to, bytes)?;
        Ok(match outcome {
            TransmitOutcome::Dropped => NetOutcome::QueueDrop,
            TransmitOutcome::Sent { departure, arrival } => {
                let arrivals = match &mut self.injector {
                    Some(inj) => inj.deliveries(now, from, to, arrival),
                    None => [Some(arrival), None],
                };
                NetOutcome::Sent {
                    departure,
                    arrivals,
                }
            }
        })
    }

    /// Installs a fault injector driven by the given (forked) RNG. All
    /// subsequent [`transmit_with_faults`](Network::transmit_with_faults)
    /// calls run through it. Replaces any previous injector.
    pub fn install_faults(&mut self, plan: FaultPlan, rng: SimRng) {
        self.injector = Some(FaultInjector::new(plan, rng));
    }

    /// Counters from the installed fault injector (all zero when none is
    /// installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.injector
            .as_ref()
            .map(|inj| inj.stats())
            .unwrap_or_default()
    }

    /// Immutable access to the link between two nodes, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        let key = if a < b { (a, b) } else { (b, a) };
        self.links.get(&key)
    }

    /// Round-trip propagation + single-MTU serialization estimate between
    /// two directly linked nodes (the "network RTT" the paper reports as
    /// < 0.3 ms).
    pub fn estimated_rtt(&self, a: NodeId, b: NodeId) -> Option<simcore::SimDuration> {
        self.link_between(a, b).map(|l| {
            let one_way = l.spec().propagation + l.spec().serialization_delay(1500);
            one_way * 2
        })
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn two_node_net() -> Network {
        NetworkBuilder::new()
            .node("a")
            .node("b")
            .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assigns_ips_and_names() {
        let net = two_node_net();
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.node_name(NodeId(0)), "a");
        assert_eq!(net.node_ip(NodeId(1)), Ip::for_node_index(1));
        assert_eq!(net.node_by_ip(Ip::for_node_index(0)), Some(NodeId(0)));
        assert_eq!(net.node_by_ip(Ip(0xDEADBEEF)), None);
    }

    #[test]
    fn transmit_uses_link_both_directions() {
        let mut net = two_node_net();
        let t0 = net
            .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 1500)
            .unwrap()
            .arrival_time()
            .unwrap();
        let t1 = net
            .transmit(SimTime::ZERO, NodeId(1), NodeId(0), 1500)
            .unwrap()
            .arrival_time()
            .unwrap();
        assert_eq!(t0, t1, "independent directions");
    }

    #[test]
    fn no_route_between_unlinked_nodes() {
        let mut net = NetworkBuilder::new().node("a").node("b").build().unwrap();
        let err = net
            .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 100)
            .unwrap_err();
        assert_eq!(
            err,
            NoRouteError {
                from: NodeId(0),
                to: NodeId(1)
            }
        );
    }

    #[test]
    fn full_mesh_links_all_pairs() {
        let net = NetworkBuilder::new()
            .node("a")
            .node("b")
            .node("c")
            .node("d")
            .full_mesh(LinkSpec::gigabit_lan())
            .build()
            .unwrap();
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    assert!(net.link_between(NodeId(i), NodeId(j)).is_some());
                }
            }
        }
    }

    #[test]
    fn build_rejects_self_link() {
        let err = NetworkBuilder::new()
            .node("a")
            .link(NodeId(0), NodeId(0), LinkSpec::gigabit_lan())
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::SelfLink(NodeId(0)));
    }

    #[test]
    fn build_rejects_unknown_node() {
        let err = NetworkBuilder::new()
            .node("a")
            .link(NodeId(0), NodeId(7), LinkSpec::gigabit_lan())
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::UnknownNode(NodeId(7)));
    }

    #[test]
    fn build_rejects_duplicate_links_even_reversed() {
        let err = NetworkBuilder::new()
            .node("a")
            .node("b")
            .link(NodeId(0), NodeId(1), LinkSpec::gigabit_lan())
            .link(NodeId(1), NodeId(0), LinkSpec::fast_ethernet())
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::DuplicateLink(NodeId(0), NodeId(1)));
    }

    #[test]
    fn rtt_estimate_is_sub_millisecond_on_lan() {
        let net = two_node_net();
        let rtt = net.estimated_rtt(NodeId(0), NodeId(1)).unwrap();
        // The paper reports network RTT < 0.3 ms on its testbed.
        assert!(rtt < SimDuration::from_micros(300), "rtt {rtt}");
    }

    #[test]
    fn transmit_with_faults_without_injector_matches_raw_transmit() {
        let mut net = two_node_net();
        let raw = {
            let mut probe = two_node_net();
            probe
                .transmit(SimTime::ZERO, NodeId(0), NodeId(1), 1500)
                .unwrap()
                .arrival_time()
                .unwrap()
        };
        match net
            .transmit_with_faults(SimTime::ZERO, NodeId(0), NodeId(1), 1500)
            .unwrap()
        {
            NetOutcome::Sent { arrivals, .. } => assert_eq!(arrivals, [Some(raw), None]),
            NetOutcome::QueueDrop => panic!("unexpected drop"),
        }
        assert_eq!(net.fault_stats(), FaultStats::default());
    }

    #[test]
    fn installed_loss_plan_loses_in_flight_not_at_queue() {
        let mut net = two_node_net();
        net.install_faults(
            FaultPlan::new().with_default_link(crate::LinkFaults::lossy(1.0)),
            SimRng::seed(1),
        );
        match net
            .transmit_with_faults(SimTime::ZERO, NodeId(0), NodeId(1), 1500)
            .unwrap()
        {
            NetOutcome::Sent { arrivals, .. } => {
                assert_eq!(arrivals, [None; 2], "lost in flight");
            }
            NetOutcome::QueueDrop => panic!("loss must not look like a queue drop"),
        }
        // The sender still paid: the link carried the bytes.
        let link = net.link_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(link.bytes_carried(), (1500, 0));
        assert_eq!(net.fault_stats().injected_losses, 1);
    }

    #[test]
    fn clock_defaults_to_perfect_and_can_be_set() {
        let net = NetworkBuilder::new()
            .node("sync")
            .node_with_clock(
                "skewed",
                ClockSpec {
                    offset_ns: 250_000,
                    drift_ppm: 1.0,
                },
            )
            .build()
            .unwrap();
        let t = SimTime::from_secs(1);
        assert_eq!(net.clock(NodeId(0)).wall(t), t);
        assert!(net.clock(NodeId(1)).wall(t) > t);
    }
}
