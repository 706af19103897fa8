//! Sharded key-value store with zipfian hot-key skew and per-shard
//! queues.
//!
//! Topology: closed-loop clients → a **router** that owns one ping-pong
//! flow per shard (one request outstanding per shard, the rest queue at
//! the router) → `S` **shard** nodes doing the actual lookups. Keys are
//! zipf-distributed and placed by `key % shards`, so the shard owning
//! rank-0 keys absorbs a disproportionate share of traffic: its router
//! queue grows and every request behind a hot-shard request inherits the
//! queueing delay.
//!
//! The diagnosis SysProf must produce: the **hot shard** — the shard
//! node whose responder-side interaction count dominates the shard tier
//! — surfaced purely from GPA class summaries, without reading any
//! application counter.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::rc::Rc;

use serde::Serialize;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::Port;
use simos::{Message, ProcCtx, Program, SocketId, World, WorldBuilder};
use sysprof::{detect, SysProf};

use crate::scenario::{
    arm_retry, named_nodes, on_gigabit_lan, percentile_us, retry_tick, spawn_zipf_clients,
    ClientStats, Diagnosis, Link, Placement, ScenarioRun, ScenarioSpec, ZipfLoad,
};

/// Client-facing router port.
pub const ROUTER_PORT: Port = Port(7000);
/// Shard service port.
pub const SHARD_PORT: Port = Port(7100);

const REQ_BASE: u32 = 1_000;
const RESP_OFFSET: u32 = 100_000;

/// Parameters of the sharded KV scenario.
#[derive(Debug, Clone)]
pub struct KvStoreScenario {
    /// Closed-loop client nodes.
    pub clients: usize,
    /// Shard nodes.
    pub shards: usize,
    /// Distinct keys; key `k` lives on shard `k % shards`.
    pub keys: usize,
    /// Zipf skew of the key popularity distribution.
    pub skew: f64,
    /// Request payload bytes.
    pub req_bytes: u64,
    /// Value payload bytes returned by shards.
    pub value_bytes: u64,
    /// Per-lookup compute at a shard.
    pub shard_service: SimDuration,
    /// How long clients keep issuing requests.
    pub duration: SimDuration,
    /// Client/router retransmit timeout (loss tolerance).
    pub retry_after: SimDuration,
}

impl Default for KvStoreScenario {
    fn default() -> Self {
        KvStoreScenario {
            clients: 2,
            shards: 4,
            keys: 64,
            skew: 1.2,
            req_bytes: 128,
            value_bytes: 512,
            shard_service: SimDuration::from_micros(80),
            duration: SimDuration::from_millis(800),
            retry_after: SimDuration::from_millis(50),
        }
    }
}

/// Measured outcome of one KV run (application truth; the GPA's view
/// lives in the [`Diagnosis`]).
#[derive(Debug, Clone, Serialize)]
pub struct KvStoreResult {
    /// Requests completed across all clients.
    pub ops_completed: u64,
    /// Completions per shard, shard index order (app-side counters).
    pub per_shard_ops: Vec<u64>,
    /// Shard with the most completions.
    pub hot_shard: usize,
    /// Its fraction of all shard completions.
    pub hot_shard_share: f64,
    /// Client-observed median latency, µs.
    pub p50_us: u64,
    /// Client-observed 95th-percentile latency, µs.
    pub p95_us: u64,
    /// Deepest router queue observed per shard, shard index order.
    pub max_queue_depth: Vec<u64>,
    /// Client + router retransmits (0 on a clean network).
    pub retries: u64,
}

// ---------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------

struct ClientReq {
    sock: SocketId,
    msg_id: u64,
    kind: u32,
    bytes: u64,
}

/// One shard's flow, tagged with the client whose request is on it, and
/// the FIFO of requests waiting for it.
struct ShardConn {
    link: Link<ClientReq>,
    queue: VecDeque<ClientReq>,
}

#[derive(Default)]
struct RouterShared {
    max_queue_depth: Vec<u64>,
    retries: u64,
}

/// The shard router: one ping-pong flow per shard with a FIFO queue in
/// front of it — the per-shard queues the hot shard backs up.
struct KvRouter {
    shards: Vec<ShardConn>,
    route_cost: SimDuration,
    retry_after: SimDuration,
    shared: Rc<RefCell<RouterShared>>,
}

impl KvRouter {
    fn pump(&mut self, ctx: &mut ProcCtx<'_>, idx: usize) {
        let s = &mut self.shards[idx];
        if !s.link.ready() || s.link.busy() {
            return;
        }
        let Some(client) = s.queue.pop_front() else {
            return;
        };
        s.link.send(ctx, client.bytes, client.kind, client);
    }

    fn shard_of_sock(&self, sock: SocketId) -> Option<usize> {
        self.shards.iter().position(|s| s.link.owns(sock))
    }
}

impl Program for KvRouter {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(ROUTER_PORT);
        for s in &mut self.shards {
            s.link.connect(ctx);
        }
        arm_retry(ctx, self.retry_after);
    }

    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        if let Some(idx) = self.shards.iter_mut().position(|s| s.link.connected(sock)) {
            self.pump(ctx, idx);
        }
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        if let Some(idx) = self.shard_of_sock(sock) {
            // Shard response: relay to the waiting client, advance queue.
            // (`None` is a duplicate of an already-relayed response.)
            if let Some(client) = self.shards[idx].link.accept(&msg) {
                ctx.compute(SimDuration::from_micros(10));
                ctx.send_with_id(
                    client.sock,
                    msg.bytes,
                    client.kind + RESP_OFFSET,
                    client.msg_id,
                );
                self.pump(ctx, idx);
            }
            return;
        }
        // Client request: key is encoded in the kind.
        let key = msg.kind.saturating_sub(REQ_BASE) as usize;
        let idx = key % self.shards.len();
        ctx.compute(self.route_cost);
        self.shards[idx].queue.push_back(ClientReq {
            sock,
            msg_id: msg.msg_id,
            kind: msg.kind,
            bytes: msg.bytes,
        });
        let depth = self.shards[idx].queue.len() as u64;
        {
            let mut sh = self.shared.borrow_mut();
            sh.max_queue_depth[idx] = sh.max_queue_depth[idx].max(depth);
        }
        self.pump(ctx, idx);
    }

    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        let links = self.shards.iter_mut().map(|s| &mut s.link);
        self.shared.borrow_mut().retries += retry_tick(ctx, token, self.retry_after, links);
    }
}

/// A shard: constant-time lookup, value-sized response. Stateless, so
/// retransmitted requests are simply answered again.
struct KvShard {
    idx: usize,
    service: SimDuration,
    value_bytes: u64,
    ops: Rc<RefCell<Vec<u64>>>,
}

impl Program for KvShard {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(SHARD_PORT);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        if msg.kind < REQ_BASE || msg.kind >= REQ_BASE + RESP_OFFSET {
            return;
        }
        ctx.compute(self.service);
        self.ops.borrow_mut()[self.idx] += 1;
        ctx.send_with_id(sock, self.value_bytes, msg.kind + RESP_OFFSET, msg.msg_id);
    }
}

// ---------------------------------------------------------------------
// Runner + diagnosis
// ---------------------------------------------------------------------

impl KvStoreScenario {
    /// The router's node id (spawn order: clients, router, shards, GPA).
    pub fn router_node(&self) -> NodeId {
        NodeId(self.clients as u32)
    }
    /// Node id of shard `s`.
    pub fn shard_node(&self, s: usize) -> NodeId {
        NodeId((self.clients + 1 + s) as u32)
    }
    /// The GPA's node id.
    pub fn gpa_node(&self) -> NodeId {
        NodeId((self.clients + 1 + self.shards) as u32)
    }
}

/// What a KV run's programs count: per-shard lookups, the router's queue
/// depths and retransmits, the clients' completions and latencies.
pub struct KvProbes {
    ops: Rc<RefCell<Vec<u64>>>,
    router: Rc<RefCell<RouterShared>>,
    clients: Rc<RefCell<ClientStats>>,
}

impl ScenarioSpec for KvStoreScenario {
    type Output = KvStoreResult;
    type Probes = KvProbes;

    fn name(&self) -> &'static str {
        "kvstore"
    }

    fn topology(&self, nodes: WorldBuilder) -> (WorldBuilder, Placement) {
        let nodes = named_nodes(nodes, "kv-client", self.clients).node("kv-router");
        let nodes = named_nodes(nodes, "kv-shard", self.shards);
        let mut monitored = vec![self.router_node()];
        monitored.extend((0..self.shards).map(|s| self.shard_node(s)));
        on_gigabit_lan(nodes, monitored, self.gpa_node())
    }

    fn spawn(&self, world: &mut World, _monitor: Option<&SysProf>) -> KvProbes {
        let ops = Rc::new(RefCell::new(vec![0u64; self.shards]));
        for i in 0..self.shards {
            world.spawn(
                self.shard_node(i),
                &format!("kv-shard{i}"),
                Box::new(KvShard {
                    idx: i,
                    service: self.shard_service,
                    value_bytes: self.value_bytes,
                    ops: ops.clone(),
                }),
            );
        }
        let router = Rc::new(RefCell::new(RouterShared {
            max_queue_depth: vec![0; self.shards],
            retries: 0,
        }));
        world.spawn(
            self.router_node(),
            "kv-router",
            Box::new(KvRouter {
                shards: (0..self.shards)
                    .map(|s| ShardConn {
                        link: Link::new(self.shard_node(s), SHARD_PORT),
                        queue: VecDeque::new(),
                    })
                    .collect(),
                route_cost: SimDuration::from_micros(10),
                retry_after: self.retry_after,
                shared: router.clone(),
            }),
        );
        let clients = spawn_zipf_clients(
            world,
            self.clients,
            "kv-client",
            ZipfLoad {
                server: self.router_node(),
                port: ROUTER_PORT,
                keys: self.keys,
                skew: self.skew,
                req_bytes: self.req_bytes,
                kind_base: REQ_BASE,
                deadline: SimTime::ZERO + self.duration,
                retry_after: self.retry_after,
            },
        );
        KvProbes {
            ops,
            router,
            clients,
        }
    }

    fn stop_at(&self) -> SimTime {
        SimTime::ZERO + self.duration + SimDuration::from_secs(1)
    }

    fn collect(&self, _: &World, _: Option<&SysProf>, probes: &KvProbes) -> KvStoreResult {
        let per_shard_ops = probes.ops.borrow().clone();
        // The busiest shard, the lowest index on a tie.
        let (hot_shard, &hot_ops) = per_shard_ops
            .iter()
            .enumerate()
            .max_by_key(|&(i, &n)| (n, Reverse(i)))
            .unwrap_or((0, &0));
        let total: u64 = per_shard_ops.iter().sum();
        let mut st = probes.clients.borrow_mut();
        let rsh = probes.router.borrow();
        KvStoreResult {
            ops_completed: st.completed,
            hot_shard,
            hot_shard_share: if total > 0 {
                hot_ops as f64 / total as f64
            } else {
                0.0
            },
            p50_us: percentile_us(&mut st.latencies_us, 50.0),
            p95_us: percentile_us(&mut st.latencies_us, 95.0),
            max_queue_depth: rsh.max_queue_depth.clone(),
            retries: st.retries + rsh.retries,
            per_shard_ops,
        }
    }

    fn diagnose(&self, run: &ScenarioRun<KvStoreResult>) -> Diagnosis {
        // The GPA's view: responder-side interaction counts per shard
        // node — no application counters consulted.
        let shards = (0..self.shards).map(|s| (self.shard_node(s), SHARD_PORT));
        let tier = run.sysprof.gpa().borrow().tier(shards);
        Diagnosis::of([detect::share(&tier)], |[hot]| {
            let (share, count, total) = (hot.value, tier[hot.member].count, hot.baseline);
            format!(
                "hot shard {}: {share:.0}% of shard traffic ({count}/{total:.0} interactions)",
                hot.member
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> KvStoreScenario {
        KvStoreScenario {
            duration: SimDuration::from_millis(400),
            ..KvStoreScenario::default()
        }
    }

    #[test]
    fn zipf_skew_concentrates_on_shard_zero() {
        let run = quick().run(7);
        let r = &run.output;
        assert!(r.ops_completed > 200, "ops {}", r.ops_completed);
        assert_eq!(r.hot_shard, 0, "key rank 0 lives on shard 0: {r:?}");
        assert!(
            r.hot_shard_share > 0.3,
            "hot share {} of {:?}",
            r.hot_shard_share,
            r.per_shard_ops
        );
        assert_eq!(r.retries, 0, "clean network needs no retries");
    }

    #[test]
    fn gpa_diagnosis_agrees_with_application_truth() {
        let spec = quick();
        let run = spec.run(7);
        let d = spec.diagnose(&run);
        assert!(
            d.verdict
                .starts_with(&format!("hot shard {}", run.output.hot_shard)),
            "GPA indicted {:?}, app says shard {}",
            d.verdict,
            run.output.hot_shard
        );
    }

    #[test]
    fn survives_loss_with_retries() {
        let spec = quick();
        let run = spec.run_under(7, testkit::uniform_loss(0.01));
        // Every lost hop costs a retry-timeout stall, so the closed loop
        // slows by an order of magnitude — but it must keep moving.
        assert!(run.output.ops_completed > 50, "{:?}", run.output);
        assert!(run.output.retries > 0, "loss must trigger retries");
    }
}
