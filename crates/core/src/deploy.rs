//! One-call deployment of the whole SysProf stack onto a simulated
//! cluster.

use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use kprof::AnalyzerId;
use pubsub::control::ControlMsg;
use pubsub::reliable::Sender;
use pubsub::Hub;
use simcore::NodeId;
use simnet::EndPoint;
use simos::World;

use crate::daemon::{Daemon, DaemonConfig, DaemonStats, CONTROL_PORT, DAEMON_SRC_PORT, DATA_PORT};
use crate::gpa::{ControlReplySink, Gpa, GpaConfig, GpaSink};
use crate::lpa::{Lpa, LpaConfig};
use crate::records::{INTERACTION, TOPICS};

/// Configuration for a full SysProf deployment.
#[derive(Debug, Clone, Default)]
pub struct MonitorConfig {
    /// LPA configuration applied to every monitored node.
    pub lpa: LpaConfig,
    /// Daemon configuration applied to every monitored node.
    pub daemon: DaemonConfig,
    /// GPA configuration.
    pub gpa: GpaConfig,
    /// Optional E-Code filter for the GPA's interaction subscription
    /// (e.g. `"return kernel_in_us > 1000;"` to only ship slow ones).
    pub interaction_filter: Option<String>,
}

/// Handles to a deployed SysProf instance.
pub struct SysProf {
    monitored: Vec<NodeId>,
    gpa_node: NodeId,
    nodes: HashMap<NodeId, Handles>,
    gpa: Rc<RefCell<Gpa>>,
}

/// What `SysProf` keeps of one monitored node: its LPA's id and the
/// daemon's counters, stream state and hub.
struct Handles {
    lpa: AnalyzerId,
    stats: Rc<RefCell<DaemonStats>>,
    tx: Rc<RefCell<Sender>>,
    hub: Rc<RefCell<Hub>>,
}

impl SysProf {
    /// Deploys SysProf: registers an LPA and dissemination daemon on each
    /// node in `monitored` (the daemon answering the node's
    /// [`CONTROL_PORT`]), installs the GPA on `gpa_node`, and subscribes
    /// the GPA to every topic each daemon publishes, over the simulated
    /// wire, `MonitorConfig::interaction_filter` on the interaction topic.
    ///
    /// # Panics
    ///
    /// Panics if any node id is out of range for the world.
    pub fn deploy(
        world: &mut World,
        monitored: &[NodeId],
        gpa_node: NodeId,
        config: MonitorConfig,
    ) -> SysProf {
        let gpa = Rc::new(RefCell::new(Gpa::new(config.gpa)));
        let gpa_ep = EndPoint::new(world.network().node_ip(gpa_node), DATA_PORT);
        world.install_sink(
            gpa_node,
            DATA_PORT,
            Box::new(GpaSink::new(gpa.clone(), gpa_ep)),
        );
        world.install_sink(
            gpa_node,
            crate::query::QUERY_PORT,
            Box::new(crate::query::GpaQuerySink::new(gpa.clone())),
        );
        // Subscribe NACKs from daemons route back to the port our
        // control requests are sent from.
        world.install_sink(
            gpa_node,
            DAEMON_SRC_PORT,
            Box::new(ControlReplySink::new(gpa.clone())),
        );

        let mut nodes = HashMap::new();
        for &node in monitored {
            let ip = world.network().node_ip(node);
            let lpa = Lpa::new(node, ip, config.lpa.clone());
            let lpa = world.kprof_mut(node).register(Box::new(lpa));
            let hub = Rc::new(RefCell::new(Hub::new()));
            let daemon = Daemon::new(lpa, hub.clone(), config.daemon);
            let handles = Handles {
                lpa,
                stats: daemon.stats_handle(),
                tx: daemon.resend_handle(),
                hub,
            };
            nodes.insert(node, handles);
            world.set_daemon_hook(node, Some(CONTROL_PORT), Box::new(daemon));
            // Kick off the periodic flush cycle.
            world.schedule_daemon_wake(node, config.daemon.flush_interval);
        }
        let sysprof = SysProf {
            monitored: monitored.to_vec(),
            gpa_node,
            nodes,
            gpa,
        };

        // Subscribe the GPA to every daemon's topics, over the wire.
        for &node in monitored {
            for (row, &(topic, _)) in TOPICS.iter().enumerate() {
                let filter = config.interaction_filter.as_deref();
                let filter = if row == INTERACTION { filter } else { None };
                sysprof.subscribe(world, gpa_node, node, topic, gpa_ep, filter);
            }
        }
        sysprof
    }

    /// The shared GPA handle (query with `.borrow()`).
    pub fn gpa(&self) -> Rc<RefCell<Gpa>> {
        self.gpa.clone()
    }

    /// The node hosting the GPA.
    pub fn gpa_node(&self) -> NodeId {
        self.gpa_node
    }

    /// The monitored nodes.
    pub fn monitored(&self) -> &[NodeId] {
        &self.monitored
    }

    /// Borrows a node's LPA for inspection.
    pub fn lpa<'w>(&self, world: &'w World, node: NodeId) -> Option<&'w Lpa> {
        let id = self.nodes.get(&node)?.lpa;
        world.kprof(node).analyzer_as::<Lpa>(id)
    }

    /// The controller (§2: it "can instruct the LPAs to collect
    /// statistics for some client class rather than for individual
    /// interactions. It can change the sizes of internal LPA buffers"):
    /// applies `change` to a monitored node's LPA configuration at run
    /// time and re-reads the LPA's Kprof interest in the same call, so a
    /// [`MonitorLevel`](crate::MonitorLevel) change moves what the node's
    /// instrumentation generates with it. A zero window clamps to 1.
    /// Returns false if `node` is not monitored.
    pub fn reconfigure(
        &self,
        world: &mut World,
        node: NodeId,
        change: impl FnOnce(&mut LpaConfig),
    ) -> bool {
        let Some(id) = self.nodes.get(&node).map(|handles| handles.lpa) else {
            return false;
        };
        let kprof = world.kprof_mut(node);
        let Some(lpa) = kprof.analyzer_as_mut::<Lpa>(id) else {
            return false;
        };
        let mut config = lpa.config().clone();
        change(&mut config);
        lpa.reconfigure(config);
        kprof.update_interest(id)
    }

    /// A node's daemon counters.
    pub fn daemon_stats(&self, node: NodeId) -> Option<DaemonStats> {
        self.nodes.get(&node).map(|handles| *handles.stats.borrow())
    }

    /// A node's daemon's half of the streams it publishes.
    pub fn sender(&self, node: NodeId) -> Option<Ref<'_, Sender>> {
        self.nodes.get(&node).map(|handles| handles.tx.borrow())
    }

    /// A node's hub: its topics, subscriptions and their filters
    /// ([`procfs::render_filters`](crate::procfs::render_filters)).
    pub fn hub(&self, node: NodeId) -> Option<Ref<'_, Hub>> {
        self.nodes.get(&node).map(|handles| handles.hub.borrow())
    }

    /// The monitoring CPU overhead on a node as a fraction of elapsed
    /// time (the paper's perturbation metric).
    pub fn overhead_fraction(&self, world: &World, node: NodeId) -> f64 {
        let stats = world.node_stats(node);
        let elapsed = world.now().as_secs_f64();
        if elapsed == 0.0 {
            0.0
        } else {
            stats.cpu.monitor.as_secs_f64() / elapsed
        }
    }

    /// Compiles and installs a Custom Performance Analyzer (E-Code) on a
    /// node at runtime — §2's "custom analyzers can be dynamically
    /// created and downloaded into the kernel". Returns the analyzer id
    /// for later inspection.
    ///
    /// # Errors
    ///
    /// [`CpaError`](crate::CpaError) if the source does not compile.
    pub fn install_cpa(
        &self,
        world: &mut World,
        node: NodeId,
        name: &str,
        source: &str,
        mask: kprof::EventMask,
    ) -> Result<AnalyzerId, crate::CpaError> {
        let cpa = crate::CpaAnalyzer::compile(name, source, mask)?;
        Ok(world.kprof_mut(node).register(Box::new(cpa)))
    }

    /// Subscribes a consumer endpoint to a topic on a monitored node (the
    /// GPA at deployment, or e.g. an RA-DWCS dispatcher subscribing to
    /// load reports), over the simulated wire.
    pub fn subscribe(
        &self,
        world: &mut World,
        from_node: NodeId,
        monitored_node: NodeId,
        topic: &str,
        reply_to: EndPoint,
        filter: Option<&str>,
    ) {
        let ctl_ep = EndPoint::new(world.network().node_ip(monitored_node), CONTROL_PORT);
        let msg = ControlMsg::Subscribe {
            topic: topic.to_owned(),
            reply_to,
            filter: filter.map(str::to_owned),
        };
        world.kernel_send(from_node, DAEMON_SRC_PORT, ctl_ep, 0, msg.encode());
    }
}

#[cfg(test)]
mod tests {
    use simcore::SimDuration;

    use super::*;
    use crate::lpa::MonitorLevel;

    /// A deployment's settable values, all seven, destructured with no
    /// `..`: a new field fails to compile here until this test and the
    /// count in DESIGN §3, item 2, name it.
    #[test]
    fn monitor_config_has_seven_settable_values() {
        let MonitorConfig {
            lpa:
                LpaConfig {
                    window,
                    level,
                    service_ports,
                },
            daemon: DaemonConfig { flush_interval },
            gpa:
                GpaConfig {
                    clock_error_bound,
                    max_records,
                },
            interaction_filter,
        } = MonitorConfig::default();
        assert_eq!((window, level), (256, MonitorLevel::Full));
        assert_eq!(service_ports, None);
        assert_eq!(flush_interval, SimDuration::from_millis(100));
        assert_eq!(clock_error_bound, SimDuration::from_millis(1));
        assert_eq!(max_records, 1_000_000);
        assert_eq!(interaction_filter, None);
    }
}
