//! The SysProf dissemination daemon.
//!
//! "On receiving a *buffer full* notification from a LPA, the daemon
//! wakes up and copies the LPA's data into its own buffer. … Remote nodes
//! subscribe to the information generated by LPAs, and it is the daemon's
//! job to aggregate data collected from different LPA buffers in order to
//! send it to interested parties. For high performance and low overheads
//! in event acquisition and dissemination, the daemon uses dynamic data
//! filters, PBIO-based binary encodings, and kernel-level
//! publish-subscribe channels." (§2)
//!
//! The daemon is a [`simos::DaemonHook`] on [`CONTROL_PORT`]: the
//! simulated kernel wakes it on buffer-full notifications and on its own
//! periodic timer, and hands it every control message. Every wake and
//! message costs CPU (charged as monitoring overhead) and every
//! publication consumes real simulated bandwidth.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use bytes::Bytes;
use kprof::{AnalyzerId, Kprof};
use pubsub::control::ControlMsg;
use pubsub::reliable::{ResendConfig, Sender};
use pubsub::{frame_into, Hub, TopicId};
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{EndPoint, Port};
use simos::{KernelOutput, KernelSend, NodeStats};

use crate::cost;
use crate::lpa::Lpa;
use crate::records::{LoadRecord, Topic, INTERACTION, LOAD, TOPICS};

/// Port on which every node's GPA-facing data sink listens.
pub const DATA_PORT: Port = Port(9999);
/// Port on which every monitored node's daemon answers control messages:
/// subscriptions and the data stream's ACKs and NACKs.
pub const CONTROL_PORT: Port = Port(9998);
/// Source port for daemon-originated traffic.
pub const DAEMON_SRC_PORT: Port = Port(9997);

/// Most distinct subscriber endpoints one daemon serves, counting its
/// subscriptions and its streams together. A Subscribe is free to name
/// any `reply_to`, and each new one costs the daemon a subscription, a
/// framed copy of every record and a stream whose un-acked batches it
/// retransmits; past this many, a new endpoint is refused. An endpoint
/// that holds no subscription any more gives its slot back once its
/// stream holds no un-acked batch (checked at its Unsubscribe and on
/// every periodic wake). Fault-free deployments have one or two.
const MAX_ENDPOINTS: usize = 64;

/// Daemon tuning knobs. What a wake costs is not one of them: see
/// [`crate::cost`]. Nor is the stream's resend buffer: the daemon seals
/// with `ResendConfig::default()`.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Periodic flush interval (load reports + class aggregates).
    pub flush_interval: SimDuration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            flush_interval: SimDuration::from_millis(100),
        }
    }
}

/// Cumulative daemon counters (shared for inspection).
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonStats {
    /// Wakes handled.
    pub wakes: u64,
    /// Interaction records published (per subscriber delivery).
    pub records_published: u64,
    /// Load reports published.
    pub loads_published: u64,
    /// Wire bytes handed to the kernel for transmission.
    pub bytes_sent: u64,
    /// Subscribe control messages accepted.
    pub subscribes_ok: u64,
    /// Subscribe control messages rejected (unknown topic, a new endpoint
    /// past the daemon's 64, or the filter failed verification); each
    /// rejection also sent a NACK back to the requester.
    pub subscribes_rejected: u64,
    /// Largest statically proven per-record fuel bound across installed
    /// filters — worst-case filter cost one publish can incur, at
    /// [`cost::NS_PER_ECODE_INSTR`] each.
    pub filter_fuel_bound: u64,
    /// Batches retransmitted (NACK-triggered plus timeout-triggered).
    pub retransmits: u64,
    /// Cumulative data ACKs processed from subscribers.
    pub acks_received: u64,
    /// Gap reports (data NACKs) processed from subscribers.
    pub nacks_received: u64,
    /// Un-acked batches evicted from the resend buffer because of its
    /// byte cap — each is a gap the receiver will have to abandon.
    pub resend_evictions: u64,
    /// Bytes retransmitted straight out of the resend buffer's shared
    /// (refcounted) wire allocations — every one of these went on the
    /// wire without copying the payload.
    pub resend_bytes_shared: u64,
}

impl DaemonStats {
    /// Addresses one sealed batch to its subscriber and counts it as
    /// handed to the kernel — and, for a `retransmit`, as served from
    /// the resend buffer's shared allocation.
    fn data_send(&mut self, dst: EndPoint, wire: Bytes, retransmit: bool) -> KernelSend {
        self.bytes_sent += wire.len() as u64;
        if retransmit {
            self.retransmits += 1;
            self.resend_bytes_shared += wire.len() as u64;
        }
        KernelSend {
            dst,
            src_port: DAEMON_SRC_PORT,
            kind: 0,
            data: wire,
        }
    }
}

/// The dissemination daemon for one node, and the handler of its
/// [`CONTROL_PORT`].
///
/// A Subscribe must name a topic this node publishes, name an endpoint
/// the daemon serves or has room for (64 at most), and carry a filter
/// that statically verifies against that topic's schema — all **before**
/// registration. One that fails a check registers nothing — wire text
/// never creates hub state — counts as `subscribes_rejected` in
/// [`DaemonStats`], and is answered with a [`ControlMsg::SubscribeNack`]
/// carrying the reason (for a filter, the line-numbered diagnostics) —
/// never silently dropped.
pub struct Daemon {
    lpa: AnalyzerId,
    hub: Rc<RefCell<Hub>>,
    config: DaemonConfig,
    /// The hub topic and schema of each `TOPICS` row, in table order.
    topics: Vec<(TopicId, pbio::Schema)>,
    /// Previous periodic-flush snapshot for load computation.
    prev_wall: Option<SimTime>,
    prev_busy: SimDuration,
    prev_monitor: SimDuration,
    filter_fuel_seen: u64,
    /// Reusable raw-row scratch for publishing: records leave as
    /// `to_raw_row` → [`Hub::publish_raw`].
    raw_row: Vec<i64>,
    stats: Rc<RefCell<DaemonStats>>,
    tx: Rc<RefCell<Sender>>,
}

impl Daemon {
    /// Creates a daemon that drains the given LPA and publishes every
    /// topic it serves through `hub`, creating them there.
    pub fn new(lpa: AnalyzerId, hub: Rc<RefCell<Hub>>, config: DaemonConfig) -> Self {
        let topics = {
            let mut hub = hub.borrow_mut();
            let row = |&(name, schema): &Topic| (hub.topic(name), schema());
            TOPICS.iter().map(row).collect()
        };
        Daemon {
            lpa,
            hub,
            config,
            topics,
            prev_wall: None,
            prev_busy: SimDuration::ZERO,
            prev_monitor: SimDuration::ZERO,
            filter_fuel_seen: 0,
            raw_row: Vec::new(),
            stats: Rc::new(RefCell::new(DaemonStats::default())),
            tx: Rc::new(RefCell::new(Sender::new(ResendConfig::default()))),
        }
    }

    /// A shareable handle to the daemon's counters.
    pub fn stats_handle(&self) -> Rc<RefCell<DaemonStats>> {
        self.stats.clone()
    }

    /// A shareable handle to the reliable-sender state.
    pub fn resend_handle(&self) -> Rc<RefCell<Sender>> {
        self.tx.clone()
    }

    /// The hub topic and schema of the `TOPICS` row named `name`.
    fn topic(&self, name: &str) -> Option<&(TopicId, pbio::Schema)> {
        self.topics
            .get(TOPICS.iter().position(|(row, _)| *row == name)?)
    }
}

/// Publishes one raw row on `topic` and frames each subscriber's copy
/// into that subscriber's batch; returns how many subscribers it reached.
fn publish_row(
    hub: &mut Hub,
    (topic, schema): &(TopicId, pbio::Schema),
    row: &[i64],
    batches: &mut BTreeMap<EndPoint, Vec<u8>>,
) -> u64 {
    let Ok(sends) = hub.publish_raw(*topic, schema, row) else {
        return 0;
    };
    for (ep, wire) in &sends {
        frame_into(batches.entry(*ep).or_default(), wire);
    }
    sends.len() as u64
}

/// Whether a Subscribe from `ep` may be served: it already is (by a
/// subscription or a stream), or fewer than [`MAX_ENDPOINTS`] are.
fn has_room_for(hub: &Hub, tx: &Sender, ep: EndPoint) -> bool {
    let subscribed = hub.subscriptions().into_iter().map(|(_, ep, _)| ep);
    let streamed = tx.streams().into_iter().map(|(ep, _)| ep);
    let served: BTreeSet<EndPoint> = subscribed.chain(streamed).collect();
    served.contains(&ep) || served.len() < MAX_ENDPOINTS
}

impl simos::DaemonHook for Daemon {
    fn on_wake(
        &mut self,
        now_wall: SimTime,
        node: NodeId,
        analyzer: Option<AnalyzerId>,
        kprof: &mut Kprof,
        stats: &NodeStats,
    ) -> KernelOutput {
        let mut cost = cost::DAEMON_WAKE;
        // One batch per subscriber, keyed in a `BTreeMap` so sends leave
        // in endpoint-sorted (deterministic) order.
        let mut batches: BTreeMap<EndPoint, Vec<u8>> = BTreeMap::new();
        let mut dstats = self.stats.borrow_mut();
        dstats.wakes += 1;

        // Drain the LPA's staged interaction records.
        let is_lpa_wake = analyzer.map(|a| a == self.lpa).unwrap_or(true);
        let mut drained_interactions = 0u64;
        let mut mean_kernel_us = 0.0;
        if is_lpa_wake {
            if let Some(lpa) = kprof.analyzer_as_mut::<Lpa>(self.lpa) {
                if analyzer.is_none() {
                    // Periodic wake: evict idle messages so trailing
                    // interactions complete.
                    lpa.flush_idle(now_wall);
                }
                let records = lpa.drain();
                let mut hub = self.hub.borrow_mut();
                let topic = &self.topics[INTERACTION];
                for record in &records {
                    cost += cost::DAEMON_RECORD;
                    drained_interactions += 1;
                    record.to_raw_row(&mut self.raw_row);
                    dstats.records_published +=
                        publish_row(&mut hub, topic, &self.raw_row, &mut batches);
                }
            }
        }

        // Periodic duties: the window's class statistics feed the load
        // report, folded in port order.
        if analyzer.is_none() {
            if let Some(lpa) = kprof.analyzer_as_mut::<Lpa>(self.lpa) {
                let (mut total, mut weighted) = (0u64, 0.0f64);
                for (port, stats) in lpa.take_class_window() {
                    let class = stats.summary(node, port);
                    total += class.count;
                    weighted += class.mean_kernel_in_us * class.count as f64;
                }
                if total > 0 {
                    mean_kernel_us = weighted / total as f64;
                }
                drained_interactions = drained_interactions.max(total);
            }

            let (busy, monitor) = (stats.cpu.busy(), stats.cpu.monitor);
            let (cpu_utilization, monitor_us) = match self.prev_wall {
                Some(prev) if now_wall > prev => (
                    busy.saturating_sub(self.prev_busy).as_secs_f64()
                        / now_wall.saturating_since(prev).as_secs_f64(),
                    monitor.saturating_sub(self.prev_monitor).as_micros(),
                ),
                _ => (0.0, 0),
            };
            let load = LoadRecord {
                node,
                wall_us: now_wall.as_micros(),
                cpu_utilization,
                mean_kernel_us,
                interactions: drained_interactions,
                monitor_us,
            };
            self.prev_wall = Some(now_wall);
            self.prev_busy = busy;
            self.prev_monitor = monitor;

            load.to_raw_row(&mut self.raw_row);
            let mut hub = self.hub.borrow_mut();
            dstats.loads_published +=
                publish_row(&mut hub, &self.topics[LOAD], &self.raw_row, &mut batches);
        }

        // Dynamic-filter CPU cost (E-Code fuel burned since last wake),
        // and the current worst-case per-record filter bound.
        {
            let hub = self.hub.borrow();
            let fuel = hub.filter_fuel();
            let delta = fuel.saturating_sub(self.filter_fuel_seen);
            self.filter_fuel_seen = fuel;
            cost += cost::ecode(delta);
            dstats.filter_fuel_bound = dstats.filter_fuel_bound.max(hub.max_filter_fuel_bound());
        }

        // Seal every batch with its per-subscription sequence number and
        // buffer it for retransmission; then, on periodic wakes, put any
        // timed-out un-acked batches back on the wire (the backstop for
        // tail loss, where the receiver sees no later batch to NACK from).
        let mut sends: Vec<KernelSend> = Vec::new();
        {
            let mut tx = self.tx.borrow_mut();
            for (dst, data) in batches {
                let wire = tx.seal(now_wall, dst, &data);
                sends.push(dstats.data_send(dst, wire, false));
            }
            if analyzer.is_none() {
                for (dst, wire) in tx.due(now_wall) {
                    cost += cost::DAEMON_RETRANSMIT;
                    sends.push(dstats.data_send(dst, wire, true));
                }
                let hub = self.hub.borrow();
                tx.release_idle(|ep| hub.serves(ep));
            }
            dstats.resend_evictions = tx.evictions();
        }

        KernelOutput {
            cost,
            sends,
            rearm_after: analyzer.is_none().then_some(self.config.flush_interval),
        }
    }

    fn on_message(
        &mut self,
        now_wall: SimTime,
        _node: NodeId,
        src: EndPoint,
        _msg: simos::Message,
        data: Bytes,
        _kprof: &mut Kprof,
    ) -> KernelOutput {
        let cost = cost::CONTROL_MESSAGE;
        let Ok(msg) = ControlMsg::decode(&data) else {
            return KernelOutput {
                cost,
                ..Default::default()
            };
        };
        let mut sends = Vec::new();
        let mut hub = self.hub.borrow_mut();
        let mut stats = self.stats.borrow_mut();
        let mut tx = self.tx.borrow_mut();
        match msg {
            ControlMsg::Subscribe {
                topic,
                reply_to,
                filter,
            } => {
                // The daemon created every topic it publishes; a name it
                // does not publish is refused, not created.
                let result = match self.topic(&topic) {
                    None => Err(vec!["unknown topic".to_owned()]),
                    Some(_) if !has_room_for(&hub, &tx, reply_to) => Err(vec![format!(
                        "this daemon already serves {MAX_ENDPOINTS} subscriber endpoints"
                    )]),
                    Some((t, schema)) => hub
                        .subscribe_with_schema(*t, reply_to, filter.as_deref(), schema)
                        .map_err(|err| match err {
                            pubsub::PubSubError::BadFilter(v) => {
                                v.diagnostics.iter().map(|d| d.to_string()).collect()
                            }
                            other => vec![other.to_string()],
                        }),
                };
                match result {
                    Ok(bound) => {
                        stats.subscribes_ok += 1;
                        stats.filter_fuel_bound = stats.filter_fuel_bound.max(bound.unwrap_or(0));
                    }
                    Err(diagnostics) => {
                        stats.subscribes_rejected += 1;
                        let nack = ControlMsg::SubscribeNack {
                            topic,
                            reply_to,
                            diagnostics,
                        };
                        // Reply to whoever sent the request.
                        sends.push(KernelSend {
                            dst: src,
                            src_port: CONTROL_PORT,
                            kind: 0,
                            data: nack.encode().into(),
                        });
                    }
                }
            }
            ControlMsg::Unsubscribe { topic, reply_to } => {
                if let Some((t, _)) = self.topic(&topic) {
                    hub.unsubscribe(*t, reply_to);
                    tx.release_idle(|ep| hub.serves(ep));
                }
            }
            // A stray NACK addressed to the control port is not ours to
            // handle (replies go to the requester's reply sink).
            ControlMsg::SubscribeNack { .. } => {}
            // Reliable data plane: cumulative ACKs trim the resend
            // buffer; gap NACKs trigger immediate retransmission of the
            // missing range (if still buffered).
            ControlMsg::DataAck { subscriber, upto } => {
                stats.acks_received += 1;
                tx.ack(subscriber, upto);
            }
            ControlMsg::DataNack {
                subscriber,
                from_seq,
                to_seq,
            } => {
                stats.nacks_received += 1;
                for (_seq, wire) in tx.nack(now_wall, subscriber, from_seq, to_seq) {
                    sends.push(stats.data_send(subscriber, wire, true));
                }
            }
        }
        KernelOutput {
            cost,
            sends,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use simos::DaemonHook;

    use super::*;
    use crate::lpa::LpaConfig;

    /// One monitored node as `SysProf::deploy` wires it: a Kprof with the
    /// LPA registered, and the daemon that drains it over a fresh hub.
    struct Node {
        daemon: Daemon,
        kprof: Kprof,
        hub: Rc<RefCell<Hub>>,
        stats: Rc<RefCell<DaemonStats>>,
    }

    fn node() -> Node {
        let mut kprof = Kprof::new(NodeId(1));
        let lpa = Lpa::new(NodeId(1), simnet::Ip(1), LpaConfig::default());
        let lpa = kprof.register(Box::new(lpa));
        let hub = Rc::new(RefCell::new(Hub::new()));
        let daemon = Daemon::new(lpa, hub.clone(), DaemonConfig::default());
        let stats = daemon.stats_handle();
        Node {
            daemon,
            kprof,
            hub,
            stats,
        }
    }

    const PEER: EndPoint = EndPoint::new(simnet::Ip(7), DAEMON_SRC_PORT);

    impl Node {
        /// One control message from `PEER` to the daemon's control port.
        fn deliver(&mut self, msg: &ControlMsg) -> Vec<KernelSend> {
            let data = Bytes::from(msg.encode());
            let header = simos::Message {
                msg_id: 0,
                kind: 0,
                bytes: data.len() as u64,
            };
            let now = SimTime::from_millis(1);
            (self.daemon)
                .on_message(now, NodeId(1), PEER, header, data, &mut self.kprof)
                .sends
        }

        /// One periodic wake at `now`.
        fn wake(&mut self, now: SimTime) -> Vec<KernelSend> {
            let stats = NodeStats::default();
            (self.daemon)
                .on_wake(now, NodeId(1), None, &mut self.kprof, &stats)
                .sends
        }

        /// Each stream's un-acked bytes, by endpoint.
        fn buffered(&self) -> BTreeMap<EndPoint, u64> {
            let streams = self.daemon.tx.borrow().streams();
            streams
                .into_iter()
                .map(|(ep, state)| {
                    assert_eq!(state[1].0, "buffered_bytes");
                    (ep, state[1].1)
                })
                .collect()
        }

        /// The endpoints the daemon serves: subscribed, streamed.
        fn served(&self) -> (BTreeSet<EndPoint>, usize) {
            let subscribed = self.hub.borrow().subscriptions();
            let streams = self.daemon.tx.borrow().streams().len();
            (
                subscribed.into_iter().map(|(_, ep, _)| ep).collect(),
                streams,
            )
        }
    }

    /// How many subscriptions `topic` holds, read off a publish: every
    /// filter these tests install passes every record.
    fn fanout(hub: &Rc<RefCell<Hub>>, topic: &str, schema: &pbio::Schema) -> usize {
        let mut hub = hub.borrow_mut();
        let t = hub.topic_id(topic).expect("published topic");
        hub.publish_raw(t, schema, &vec![0; schema.len()])
            .unwrap()
            .len()
    }

    /// The one NACK a refused Subscribe gets, as `(topic, reply_to,
    /// diagnostics)`.
    fn nack(sends: &[KernelSend]) -> (String, EndPoint, Vec<String>) {
        assert_eq!(sends.len(), 1, "one NACK");
        assert_eq!((sends[0].dst, sends[0].src_port), (PEER, CONTROL_PORT));
        match ControlMsg::decode(&sends[0].data).unwrap() {
            ControlMsg::SubscribeNack {
                topic,
                reply_to,
                diagnostics,
            } => (topic, reply_to, diagnostics),
            other => panic!("not a NACK: {other:?}"),
        }
    }

    #[test]
    fn subscribe_to_an_unpublished_topic_is_nacked_and_registers_nothing() {
        let mut n = node();
        let reply_to = EndPoint::new(simnet::Ip(9), DATA_PORT);
        for filter in [None, Some("return 1;".to_owned())] {
            let sends = n.deliver(&ControlMsg::Subscribe {
                topic: "sysprof.nonesuch".to_owned(),
                reply_to,
                filter,
            });
            assert_eq!(
                nack(&sends),
                (
                    "sysprof.nonesuch".to_owned(),
                    reply_to,
                    vec!["unknown topic".to_owned()]
                )
            );
        }
        assert_eq!(n.hub.borrow().topic_id("sysprof.nonesuch"), None);
        for (name, schema) in TOPICS {
            assert_eq!(fanout(&n.hub, name, &schema()), 0);
        }
        let stats = n.stats.borrow();
        assert_eq!((stats.subscribes_ok, stats.subscribes_rejected), (0, 2));
    }

    /// Every Subscribe names its own `reply_to`: 10,000 distinct ones with
    /// periodic wakes in between, then 10,000 Subscribe / wake /
    /// Unsubscribe rounds on fresh ones, hold the daemon at
    /// `MAX_ENDPOINTS` subscriptions and streams, and every one refused is
    /// NACKed and counted. An endpoint already served is unaffected.
    #[test]
    fn a_daemon_serves_a_bounded_number_of_endpoints() {
        let mut n = node();
        let load = TOPICS[LOAD].0;
        let endpoint = |i: u32| EndPoint::new(simnet::Ip(1_000 + i), DATA_PORT);
        let subscribe = |reply_to| ControlMsg::Subscribe {
            topic: load.to_owned(),
            reply_to,
            filter: None,
        };
        let unsubscribe = |reply_to| ControlMsg::Unsubscribe {
            topic: load.to_owned(),
            reply_to,
        };
        let mut refused = 0u64;
        let mut refuse = |sends: &[KernelSend], reply_to| {
            let (topic, to, diagnostics) = nack(sends);
            assert_eq!((topic.as_str(), to), (load, reply_to));
            assert!(diagnostics[0].contains("serves 64 subscriber endpoints"));
            refused += 1;
        };
        let mut now = SimTime::ZERO;
        for i in 0..10_000u32 {
            let sends = n.deliver(&subscribe(endpoint(i)));
            if (i as usize) < MAX_ENDPOINTS {
                assert!(sends.is_empty(), "endpoint {i} refused");
            } else {
                refuse(&sends, endpoint(i));
            }
            if i % 100 == 99 {
                now += SimDuration::from_millis(100);
                n.wake(now);
                assert_eq!(n.served().0.len(), MAX_ENDPOINTS);
            }
        }
        assert_eq!(n.served().1, MAX_ENDPOINTS, "one stream per subscriber");

        // Unsubscribing empties the hub, but no subscriber has acked a
        // batch, so every stream still holds one to retransmit and keeps
        // its slot: fresh endpoints are still refused.
        for i in 0..MAX_ENDPOINTS as u32 {
            assert!(n.deliver(&unsubscribe(endpoint(i))).is_empty());
        }
        let unacked = |n: &Node| n.buffered().values().all(|&bytes| bytes > 0);
        assert!(unacked(&n));
        for i in 10_000..20_000u32 {
            let sends = n.deliver(&subscribe(endpoint(i)));
            refuse(&sends, endpoint(i));
            if i % 10 == 0 {
                now += SimDuration::from_millis(100);
                n.wake(now);
            }
            assert!(n.deliver(&unsubscribe(endpoint(i))).is_empty());
            assert!(n.served().0.is_empty());
        }
        assert_eq!(n.served().1, MAX_ENDPOINTS);
        assert!(unacked(&n));

        // A served endpoint subscribes again.
        assert!(n.deliver(&subscribe(endpoint(0))).is_empty());
        assert_eq!(n.served(), ([endpoint(0)].into(), MAX_ENDPOINTS));

        let stats = n.stats.borrow();
        assert_eq!(stats.subscribes_ok, MAX_ENDPOINTS as u64 + 1);
        assert_eq!(stats.subscribes_rejected, refused);
        assert_eq!(refused, 20_000 - MAX_ENDPOINTS as u64);
    }

    /// An endpoint that unsubscribed gives its slot to a fresh one as
    /// soon as its stream holds no un-acked batch: at its Unsubscribe if
    /// it acked first, else at the first wake after its ACK. Until then
    /// the daemon stays full.
    #[test]
    fn an_unsubscribed_acked_endpoint_gives_its_slot_to_a_fresh_one() {
        let mut n = node();
        let load = TOPICS[LOAD].0;
        let endpoint = |i: u32| EndPoint::new(simnet::Ip(1_000 + i), DATA_PORT);
        let subscribe = |i| ControlMsg::Subscribe {
            topic: load.to_owned(),
            reply_to: endpoint(i),
            filter: None,
        };
        let unsubscribe = |i| ControlMsg::Unsubscribe {
            topic: load.to_owned(),
            reply_to: endpoint(i),
        };
        let ack = |i| ControlMsg::DataAck {
            subscriber: endpoint(i),
            upto: u64::MAX,
        };
        for i in 0..MAX_ENDPOINTS as u32 {
            assert!(n.deliver(&subscribe(i)).is_empty());
        }
        // One load report each: every endpoint has a stream holding
        // batch 1.
        let mut now = SimTime::from_millis(100);
        assert_eq!(n.wake(now).len(), MAX_ENDPOINTS);
        assert_eq!(n.served().1, MAX_ENDPOINTS);
        let fresh = MAX_ENDPOINTS as u32;
        assert_eq!(nack(&n.deliver(&subscribe(fresh))).1, endpoint(fresh));

        // Unsubscribed, un-acked: the stream keeps the slot through a
        // wake, which retransmits its batch.
        assert!(n.deliver(&unsubscribe(0)).is_empty());
        now += SimDuration::from_millis(100);
        let resent = n.wake(now).iter().filter(|s| s.dst == endpoint(0)).count();
        assert_eq!(resent, 1);
        assert_eq!(n.served().1, MAX_ENDPOINTS);
        nack(&n.deliver(&subscribe(fresh)));

        // Acked after its Unsubscribe: released on the next wake.
        assert!(n.deliver(&ack(0)).is_empty());
        assert_eq!(n.buffered()[&endpoint(0)], 0);
        assert_eq!(n.served().1, MAX_ENDPOINTS);
        now += SimDuration::from_millis(100);
        n.wake(now);
        assert_eq!(n.served().1, MAX_ENDPOINTS - 1);
        assert!(n.deliver(&subscribe(fresh)).is_empty());

        // Acked before its Unsubscribe: released at the Unsubscribe.
        assert!(n.deliver(&ack(1)).is_empty());
        assert_eq!(n.buffered()[&endpoint(1)], 0);
        let streams = n.served().1;
        assert!(n.deliver(&unsubscribe(1)).is_empty());
        assert_eq!(n.served().1, streams - 1);
        assert!(n.deliver(&subscribe(fresh + 1)).is_empty());

        let stats = n.stats.borrow();
        assert_eq!(stats.subscribes_ok, MAX_ENDPOINTS as u64 + 2);
        assert_eq!(stats.subscribes_rejected, 2);
        assert_eq!(stats.resend_evictions, 0);
    }

    /// 1,500 seeded control messages through one daemon: wire text grows
    /// nothing, every Subscribe is answered exactly one way, and the
    /// subscriptions are the endpoints a model says are live.
    #[test]
    fn prop_control_messages_never_grow_the_hub() {
        // Every schema has `node`; every accepted filter passes every record.
        const VALID: [&str; 2] = ["return 1;", "return node >= 0;"];
        let oversized = format!("return 1{};", " + 1".repeat(20_000));
        let invalid = [
            "return nonesuch;",
            "return (;",
            "int x = ;",
            oversized.as_str(),
        ];

        let mut n = node();
        let mut rng = simcore::SimRng::seed(0x5ca1ab1e);
        // Few endpoints, so Subscribe / Unsubscribe / re-Subscribe meet.
        let endpoint = |rng: &mut simcore::SimRng| {
            EndPoint::new(simnet::Ip(rng.uniform_u64(1, 6) as u32), DATA_PORT)
        };
        let topic = |rng: &mut simcore::SimRng| {
            let published = TOPICS[rng.index(TOPICS.len())].0;
            match rng.index(4) {
                0 | 1 => published.to_owned(),
                // Near misses and arbitrary text, empty included.
                2 => format!("{published}{}", rng.index(3)),
                _ => (0..rng.index(12))
                    .map(|_| char::from(rng.uniform_u64(0x20, 0x7f) as u8))
                    .collect(),
            }
        };
        let row = |topic: &str| TOPICS.iter().position(|(name, _)| *name == topic);
        let mut live = vec![BTreeSet::new(); TOPICS.len()];
        let mut foreign_topics = BTreeSet::new();
        let (mut subscribes, mut nacks, mut acks, mut gap_reports) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..1_500 {
            match rng.index(4) {
                0 | 1 => {
                    let (topic, reply_to) = (topic(&mut rng), endpoint(&mut rng));
                    let (filter, valid) = match rng.index(3) {
                        0 => (None, true),
                        1 => (Some(VALID[rng.index(VALID.len())]), true),
                        _ => (Some(invalid[rng.index(invalid.len())]), false),
                    };
                    let sends = n.deliver(&ControlMsg::Subscribe {
                        topic: topic.clone(),
                        reply_to,
                        filter: filter.map(str::to_owned),
                    });
                    subscribes += 1;
                    match row(&topic) {
                        Some(k) if valid => {
                            assert!(sends.is_empty(), "{topic:?} {filter:?} was refused");
                            live[k].insert(reply_to);
                        }
                        known => {
                            let (t, r, diagnostics) = nack(&sends);
                            assert!(t == topic && r == reply_to && !diagnostics.is_empty());
                            nacks += 1;
                            if known.is_none() {
                                foreign_topics.insert(topic);
                            }
                        }
                    }
                }
                2 => {
                    let (topic, reply_to) = (topic(&mut rng), endpoint(&mut rng));
                    let msg = ControlMsg::Unsubscribe {
                        topic: topic.clone(),
                        reply_to,
                    };
                    assert!(n.deliver(&msg).is_empty());
                    if let Some(k) = row(&topic) {
                        live[k].remove(&reply_to);
                    }
                }
                _ => {
                    // Nothing was ever sealed, so there is nothing to trim
                    // or retransmit, whatever range a peer names.
                    let subscriber = endpoint(&mut rng);
                    let (a, b) = (rng.uniform_u64(0, 50), rng.uniform_u64(0, u64::MAX));
                    let msg = if rng.chance(0.5) {
                        acks += 1;
                        ControlMsg::DataAck {
                            subscriber,
                            upto: b,
                        }
                    } else {
                        gap_reports += 1;
                        ControlMsg::DataNack {
                            subscriber,
                            from_seq: a,
                            to_seq: b,
                        }
                    };
                    assert!(n.deliver(&msg).is_empty());
                }
            }
            // Subscriptions are exactly the live endpoints, never more.
            for ((name, schema), live) in TOPICS.iter().zip(&live) {
                assert_eq!(fanout(&n.hub, name, &schema()), live.len(), "{name}");
            }
        }
        assert!(
            foreign_topics.len() > 100 && nacks > 300,
            "the generator did its job"
        );
        let hub = n.hub.borrow();
        for topic in &foreign_topics {
            assert_eq!(
                hub.topic_id(topic),
                None,
                "{topic:?} was created from wire text"
            );
        }
        let stats = n.stats.borrow();
        assert_eq!(stats.subscribes_ok + stats.subscribes_rejected, subscribes);
        assert_eq!(stats.subscribes_rejected, nacks);
        assert_eq!(
            (stats.acks_received, stats.nacks_received),
            (acks, gap_reports)
        );
        assert_eq!((stats.retransmits, stats.bytes_sent), (0, 0));
    }
}
