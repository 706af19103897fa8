//! The shared virtual storage service of §3.2 (Figures 4 and 5).
//!
//! Topology: Iozone-like clients → user-level NFS **proxy** → back-end
//! NFS **servers** (in-kernel daemons doing synchronous disk writes, per
//! NFSv2 semantics). "The back-end storage servers are hidden from the
//! client's view by a user-level proxy that interposes every request."
//!
//! SysProf monitors the proxy and one back-end; the experiment sweeps the
//! number of Iozone writer threads and reads, from the GPA:
//!
//! * Figure 4 — average time client↔proxy interactions spend at the proxy,
//!   split user vs kernel: user stays flat (the proxy does constant work
//!   per request), kernel grows (requests queue in the proxy's socket
//!   buffers as traffic rises);
//! * Figure 5 — average time proxy↔server interactions spend in the
//!   back-end's kernel: an order of magnitude above the proxy (the disk
//!   is the real bottleneck), also growing with load.

use std::collections::{HashMap, VecDeque};

use kprof::FileId;
use serde::Serialize;
use std::cell::Cell;
use std::rc::Rc;

use simcore::{NodeId, SimDuration, SimTime};
use simnet::Port;
use simos::{Message, ProcCtx, Program, SocketId, World, WorldBuilder};
use sysprof::SysProf;

use crate::scenario::{
    named_nodes, on_gigabit_lan, Diagnosis, Placement, ScenarioRun, ScenarioSpec,
};

/// Client→proxy and proxy→backend request port numbers.
pub const PROXY_PORT: Port = Port(2049);
/// Back-end NFS server port.
pub const BACKEND_PORT: Port = Port(2050);

const KIND_WRITE_REQ: u32 = 1;
const KIND_WRITE_RESP: u32 = 2;

/// Client nodes (the paper uses two).
const CLIENTS: usize = 2;
/// Back-end NFS servers.
pub const BACKENDS: usize = 2;
/// Iozone record size (bytes written per request).
const RECORD_BYTES: u64 = 8 * 1024;

/// The §3.2 storage service as a [`ScenarioSpec`]: the GPA must put the
/// bottleneck behind the proxy, in the back-end's kernel (the disk).
/// Node layout: clients, then the proxy, then the back-ends, then the
/// GPA; the proxy and every back-end are monitored. The offered load
/// (writer threads) and the run's length are the parameters.
#[derive(Debug, Clone)]
pub struct StorageScenario {
    /// Iozone writer threads per client node.
    pub threads_per_client: usize,
    /// Measurement duration.
    pub duration: SimDuration,
}

impl Default for StorageScenario {
    fn default() -> Self {
        StorageScenario {
            threads_per_client: 4,
            duration: SimDuration::from_secs(5),
        }
    }
}

/// Measured outcome of one storage run.
#[derive(Debug, Clone, Serialize)]
pub struct StorageResult {
    /// Mean user-level time per client↔proxy interaction at the proxy, ms.
    pub proxy_user_ms: f64,
    /// Mean kernel-level time per client↔proxy interaction at the proxy,
    /// ms (in + out paths, dominated by socket-buffer queueing).
    pub proxy_kernel_ms: f64,
    /// Mean kernel time per proxy↔backend interaction at the measured
    /// back-end, ms.
    pub backend_kernel_ms: f64,
    /// Interactions measured at the proxy.
    pub proxy_interactions: u64,
    /// Interactions measured at the back-end.
    pub backend_interactions: u64,
    /// Requests completed by all Iozone threads.
    pub requests_completed: u64,
    /// Estimated network round-trip between client and proxy, ms (the
    /// paper reports < 0.3 ms, "insignificant").
    pub network_rtt_ms: f64,
    /// Monitoring overhead fraction on the proxy node.
    pub proxy_overhead_fraction: f64,
}

// ---------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------

/// One Iozone writer thread: a closed loop of write requests to the proxy.
struct IozoneThread {
    proxy: NodeId,
    sock: Option<SocketId>,
    completed: Rc<Cell<u64>>,
    deadline: SimTime,
}

impl Program for IozoneThread {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.connect(self.proxy, PROXY_PORT);
    }

    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        self.sock = Some(sock);
        ctx.send(sock, RECORD_BYTES, KIND_WRITE_REQ);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, _msg: Message) {
        self.completed.set(self.completed.get() + 1);
        if ctx.now() >= self.deadline {
            ctx.exit();
            return;
        }
        // Write/re-write: immediately issue the next record.
        ctx.send(sock, RECORD_BYTES, KIND_WRITE_REQ);
    }
}

/// The user-level NFS proxy: interposes every request. Each client
/// connection gets its own back-end connection (the proxy interposes the
/// client's NFS mount 1:1), so flows are never multiplexed — exactly the
/// structure that lets SysProf's black-box message-pairing work cleanly.
/// Per-request processing cost is constant, which is why the proxy's
/// *user* time in Figure 4 stays flat while its kernel time grows.
struct NfsProxy {
    backends: Vec<NodeId>,
    /// client socket -> backend socket (and reverse).
    to_backend: HashMap<SocketId, SocketId>,
    to_client: HashMap<SocketId, SocketId>,
    /// Client requests queued while their backend connection establishes.
    awaiting_conn: HashMap<SocketId, VecDeque<u64>>,
    /// backend socket -> client socket, for connections in progress.
    conn_client: HashMap<SocketId, SocketId>,
    next_backend: usize,
    /// Per-request parse/validate compute at user level.
    parse_cost: SimDuration,
    /// Per-response relay compute at user level.
    relay_cost: SimDuration,
}

impl NfsProxy {
    fn new(backends: Vec<NodeId>) -> Self {
        NfsProxy {
            backends,
            to_backend: HashMap::new(),
            to_client: HashMap::new(),
            awaiting_conn: HashMap::new(),
            conn_client: HashMap::new(),
            next_backend: 0,
            parse_cost: SimDuration::from_micros(300),
            relay_cost: SimDuration::from_micros(100),
        }
    }
}

impl Program for NfsProxy {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(PROXY_PORT);
    }

    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        // A backend connection is ready: flush queued client requests.
        let Some(client) = self.conn_client.remove(&sock) else {
            return;
        };
        self.to_backend.insert(client, sock);
        self.to_client.insert(sock, client);
        if let Some(queued) = self.awaiting_conn.remove(&client) {
            for _req in queued {
                ctx.compute(self.parse_cost);
                ctx.send(sock, RECORD_BYTES, KIND_WRITE_REQ);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        if let Some(&client) = self.to_client.get(&sock) {
            // Response from a back-end: relay to the paired client.
            ctx.compute(self.relay_cost);
            ctx.send(client, msg.bytes.max(128), KIND_WRITE_RESP);
        } else if let Some(&backend) = self.to_backend.get(&sock) {
            // Known client: parse and forward on its own backend flow.
            ctx.compute(self.parse_cost);
            ctx.send(backend, msg.bytes, KIND_WRITE_REQ);
        } else if let Some(queue) = self.awaiting_conn.get_mut(&sock) {
            // Backend connection still establishing.
            queue.push_back(msg.msg_id);
        } else {
            // First request from a new client: open its backend flow.
            let b = self.backends[self.next_backend % self.backends.len()];
            self.next_backend += 1;
            let bsock = ctx.connect(b, BACKEND_PORT);
            self.conn_client.insert(bsock, sock);
            self.awaiting_conn
                .entry(sock)
                .or_default()
                .push_back(msg.msg_id);
        }
    }
}

/// A back-end NFS server: an in-kernel daemon ("the NFS server ran as
/// kernel daemon, no time was spent by the request at the user level")
/// doing a synchronous disk write per request.
struct NfsServer {
    next_token: u64,
    inflight: HashMap<u64, (SocketId, u64)>,
}

impl NfsServer {
    fn new() -> Self {
        NfsServer {
            next_token: 0,
            inflight: HashMap::new(),
        }
    }
}

impl Program for NfsServer {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(BACKEND_PORT);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        let token = self.next_token;
        self.next_token += 1;
        self.inflight.insert(token, (sock, msg.msg_id));
        // NFSv2 semantics: the write must be stable before the reply.
        ctx.write_file(FileId(msg.msg_id % 64), msg.bytes, true, token);
    }

    fn on_io_done(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        if let Some((sock, req_id)) = self.inflight.remove(&token) {
            ctx.send_with_id(sock, 128, KIND_WRITE_RESP, req_id);
        }
    }
}

// ---------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------

impl StorageScenario {
    /// The proxy's node id.
    pub fn proxy_node(&self) -> NodeId {
        NodeId(CLIENTS as u32)
    }
    /// Node id of back-end NFS server `b`.
    pub fn backend_node(&self, b: usize) -> NodeId {
        NodeId((CLIENTS + 1 + b) as u32)
    }
    fn backend_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..BACKENDS).map(|b| self.backend_node(b))
    }
}

impl ScenarioSpec for StorageScenario {
    type Output = StorageResult;
    /// Requests completed by all Iozone threads.
    type Probes = Rc<Cell<u64>>;

    fn name(&self) -> &'static str {
        "storage"
    }

    fn topology(&self, nodes: WorldBuilder) -> (WorldBuilder, Placement) {
        let nodes = named_nodes(nodes, "client", CLIENTS).node("proxy");
        let nodes = named_nodes(nodes, "nfs", BACKENDS);
        let mut monitored = vec![self.proxy_node()];
        monitored.extend(self.backend_nodes());
        // The GPA takes the id after the last back-end's.
        on_gigabit_lan(nodes, monitored, self.backend_node(BACKENDS))
    }

    fn spawn(&self, world: &mut World, _monitor: Option<&SysProf>) -> Rc<Cell<u64>> {
        world.spawn(
            self.proxy_node(),
            "nfs-proxy",
            Box::new(NfsProxy::new(self.backend_nodes().collect())),
        );
        for b in self.backend_nodes() {
            world.spawn_kernel_daemon(b, "nfsd", Box::new(NfsServer::new()));
        }
        let completed = Rc::new(Cell::new(0u64));
        for c in 0..CLIENTS {
            for t in 0..self.threads_per_client {
                world.spawn(
                    NodeId(c as u32),
                    &format!("iozone-{c}-{t}"),
                    Box::new(IozoneThread {
                        proxy: self.proxy_node(),
                        sock: None,
                        completed: completed.clone(),
                        deadline: SimTime::ZERO + self.duration,
                    }),
                );
            }
        }
        completed
    }

    fn stop_at(&self) -> SimTime {
        SimTime::ZERO + self.duration + SimDuration::from_secs(2)
    }

    /// Reads the Figure 4/5 metrics from the GPA (zeros when there is
    /// none to read).
    fn collect(
        &self,
        world: &World,
        monitor: Option<&SysProf>,
        completed: &Rc<Cell<u64>>,
    ) -> StorageResult {
        let summary = |node, port| monitor.and_then(|m| m.gpa().borrow().class_summary(node, port));
        let (proxy_user_ms, proxy_kernel_ms, proxy_interactions) =
            summary(self.proxy_node(), PROXY_PORT)
                .map(|s| {
                    (
                        s.mean_user_us / 1e3,
                        (s.mean_kernel_in_us + s.mean_kernel_out_us) / 1e3,
                        s.count,
                    )
                })
                .unwrap_or((0.0, 0.0, 0));
        let (backend_kernel_ms, backend_interactions) = summary(self.backend_node(0), BACKEND_PORT)
            .map(|s| ((s.mean_kernel_in_us + s.mean_kernel_out_us) / 1e3, s.count))
            .unwrap_or((0.0, 0));
        StorageResult {
            proxy_user_ms,
            proxy_kernel_ms,
            backend_kernel_ms,
            proxy_interactions,
            backend_interactions,
            requests_completed: completed.get(),
            network_rtt_ms: world
                .network()
                .estimated_rtt(NodeId(0), self.proxy_node())
                .map(|d| d.as_millis_f64())
                .unwrap_or(0.0),
            proxy_overhead_fraction: monitor
                .map_or(0.0, |m| m.overhead_fraction(world, self.proxy_node())),
        }
    }

    fn diagnose(&self, run: &ScenarioRun<StorageResult>) -> Diagnosis {
        let r = &run.output;
        let proxy_ms = r.proxy_user_ms + r.proxy_kernel_ms;
        Diagnosis {
            verdict: format!(
                "disk-bound back end: {:.1}ms kernel per interaction vs {:.1}ms at the proxy",
                r.backend_kernel_ms, proxy_ms
            ),
            evidence: vec![
                format!(
                    "proxy: user {:.2}ms (flat), kernel {:.2}ms over {} interactions",
                    r.proxy_user_ms, r.proxy_kernel_ms, r.proxy_interactions
                ),
                format!(
                    "backend: kernel {:.2}ms over {} interactions",
                    r.backend_kernel_ms, r.backend_interactions
                ),
                format!("client↔proxy rtt {:.2}ms (insignificant)", r.network_rtt_ms),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(threads: usize) -> StorageResult {
        let spec = StorageScenario {
            threads_per_client: threads,
            ..StorageScenario::default()
        };
        spec.run(1).output
    }

    #[test]
    fn requests_flow_end_to_end() {
        let r = quick(2);
        assert!(
            r.requests_completed > 50,
            "completed {}",
            r.requests_completed
        );
        assert!(
            r.proxy_interactions > 10,
            "proxy saw {}",
            r.proxy_interactions
        );
        assert!(
            r.backend_interactions > 10,
            "backend saw {}",
            r.backend_interactions
        );
    }

    #[test]
    fn backend_dominates_proxy_by_an_order_of_magnitude() {
        let r = quick(4);
        assert!(
            r.backend_kernel_ms > 5.0 * (r.proxy_user_ms + r.proxy_kernel_ms),
            "backend {} ms vs proxy {} ms",
            r.backend_kernel_ms,
            r.proxy_user_ms + r.proxy_kernel_ms
        );
    }

    #[test]
    fn proxy_user_time_is_flat_while_kernel_grows() {
        let low = quick(1);
        let high = quick(8);
        // User time roughly constant (within 3x), kernel time grows.
        assert!(
            high.proxy_user_ms < low.proxy_user_ms * 3.0 + 0.05,
            "user {} -> {}",
            low.proxy_user_ms,
            high.proxy_user_ms
        );
        assert!(
            high.proxy_kernel_ms > low.proxy_kernel_ms,
            "kernel {} -> {}",
            low.proxy_kernel_ms,
            high.proxy_kernel_ms
        );
    }

    #[test]
    fn network_rtt_is_insignificant() {
        let r = quick(1);
        assert!(r.network_rtt_ms < 0.3, "rtt {} ms", r.network_rtt_ms);
    }
}
