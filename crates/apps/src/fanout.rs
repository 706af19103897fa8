//! Microservice fan-out chain with tail-latency amplification.
//!
//! Topology: closed-loop clients → a **frontend** → `M` **mid-tier**
//! services → `L` **leaf** services per mid. One user request fans into
//! `M + M·L·rounds` internal RPCs across three tiers; the frontend and
//! each mid wait for *all* of their children before responding, so the
//! end-to-end latency is gated by the slowest leaf — the classic
//! fan-out amplification where one degraded replica drags the whole
//! service's tail.
//!
//! One leaf is configured slow (compute multiplier). The diagnosis
//! SysProf must produce: indict that leaf from GPA class summaries
//! (largest responder-side user time in the leaf tier), with the
//! correlated request paths showing the frontend's latency is downstream
//! time, not local work.

use std::cell::{Cell, RefCell};
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

/// Frontend user-request port.
pub const FRONT_PORT: Port = Port(8000);
/// Mid-tier RPC port.
pub const MID_PORT: Port = Port(8100);
/// Leaf RPC port.
pub const LEAF_PORT: Port = Port(8200);

const KIND_USER: u32 = 1_000;
const KIND_MID: u32 = 2_000;
const KIND_LEAF: u32 = 3_000;
const RESP_OFFSET: u32 = 100_000;

/// Closed-loop client nodes.
const CLIENTS: usize = 2;
/// Mid-tier services.
pub const MIDS: usize = 2;
/// Leaves per mid-tier service.
pub const LEAVES_PER_MID: usize = 3;
/// Leaves in all (global leaf indices are mid-major).
const LEAVES: usize = MIDS * LEAVES_PER_MID;
/// Sequential request rounds each mid issues to each of its leaves.
const ROUNDS: usize = 2;
/// Internal RPCs triggered by one user request.
const RPCS_PER_REQUEST: usize = MIDS + LEAVES * ROUNDS;
/// Baseline per-RPC compute at a leaf.
const LEAF_SERVICE: SimDuration = SimDuration::from_micros(60);
/// Global index (mid-major order) of the slow leaf.
pub const SLOW_LEAF: usize = 4;
/// Retransmit timeout on every tier (loss tolerance).
const RETRY_AFTER: SimDuration = SimDuration::from_millis(30);

/// The fan-out scenario: the topology is the constants above; the slow
/// leaf's degree and the run's length are parameters.
#[derive(Debug, Clone)]
pub struct FanoutScenario {
    /// Compute multiplier applied to the slow leaf.
    pub slow_multiplier: f64,
    /// How long clients keep issuing requests.
    pub duration: SimDuration,
}

impl Default for FanoutScenario {
    fn default() -> Self {
        FanoutScenario {
            slow_multiplier: 8.0,
            duration: SimDuration::from_millis(800),
        }
    }
}

/// Measured outcome of one fan-out run.
#[derive(Debug, Clone, Serialize)]
pub struct FanoutResult {
    /// User requests completed across all clients.
    pub requests_completed: u64,
    /// Internal RPCs per user request (topology constant, for reports).
    pub rpcs_per_request: usize,
    /// Client-observed median latency, µs.
    pub p50_us: u64,
    /// Client-observed 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Retransmits across all tiers (0 on a clean network).
    pub retries: u64,
}

// ---------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------

/// The frontend: serializes user requests (one in service at a time, the
/// rest queue) and fans each into one RPC per mid.
struct Frontend {
    mids: Vec<Link>,
    current: Option<(SocketId, u64)>, // the user request in service
    waiting: usize,                   // mids still outstanding
    queue: std::collections::VecDeque<(SocketId, u64)>,
    merge_cost: SimDuration,
    /// Retransmits across both inner tiers.
    retries: Rc<Cell<u64>>,
}

impl Frontend {
    fn start_next(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.current.is_some() || self.mids.iter().any(|m| !m.ready()) {
            return;
        }
        let Some(user) = self.queue.pop_front() else {
            return;
        };
        self.current = Some(user);
        self.waiting = self.mids.len();
        for m in &mut self.mids {
            m.send(ctx, 256, KIND_MID, ());
        }
    }
}

impl Program for Frontend {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(FRONT_PORT);
        for m in &mut self.mids {
            m.connect(ctx);
        }
        arm_retry(ctx, RETRY_AFTER);
    }

    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        for m in &mut self.mids {
            m.connected(sock);
        }
        self.start_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        if let Some(m) = self.mids.iter_mut().find(|m| m.owns(sock)) {
            // Mid response for the request in service?
            if m.accept(&msg).is_some() {
                self.waiting -= 1;
                if self.waiting == 0 {
                    let (user_sock, user_id) = self.current.take().expect("in service");
                    ctx.compute(self.merge_cost);
                    ctx.send_with_id(user_sock, 2_048, KIND_USER + RESP_OFFSET, user_id);
                    self.start_next(ctx);
                }
            }
            return;
        }
        if msg.kind != KIND_USER {
            return;
        }
        // A client retransmit of the request already in service or queued
        // is dropped: the eventual response reuses its id.
        let user = (sock, msg.msg_id);
        if self.current == Some(user) || self.queue.contains(&user) {
            return;
        }
        self.queue.push_back(user);
        self.start_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        let retries = retry_tick(ctx, token, RETRY_AFTER, &mut self.mids);
        self.retries.set(self.retries.get() + retries);
    }
}

/// One of a mid's leaf flows and the rounds the current request has
/// completed on it.
struct Leaf {
    link: Link,
    rounds_done: usize,
}

/// A mid-tier service: each request fans into `rounds` sequential RPCs
/// to each of its leaves (leaves progress in parallel, rounds within a
/// leaf are serial), then a merge compute and the response.
struct MidService {
    leaves: Vec<Leaf>,
    current: Option<(SocketId, u64)>,
    pending_start: bool,
    last_done: Option<(SocketId, u64)>,
    merge_cost: SimDuration,
    retries: Rc<Cell<u64>>,
}

impl MidService {
    fn outstanding(&self) -> usize {
        self.leaves
            .iter()
            .filter(|l| l.link.busy() || l.rounds_done < ROUNDS)
            .count()
    }

    fn send_round(&mut self, ctx: &mut ProcCtx<'_>, idx: usize) {
        self.leaves[idx].link.send(ctx, 200, KIND_LEAF, ());
    }

    fn try_begin(&mut self, ctx: &mut ProcCtx<'_>) {
        if !self.pending_start || self.leaves.iter().any(|l| !l.link.ready()) {
            return;
        }
        self.pending_start = false;
        for l in &mut self.leaves {
            l.rounds_done = 0;
        }
        for idx in 0..self.leaves.len() {
            self.send_round(ctx, idx);
        }
    }
}

impl Program for MidService {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(MID_PORT);
        for l in &mut self.leaves {
            l.link.connect(ctx);
        }
        arm_retry(ctx, RETRY_AFTER);
    }

    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        for l in &mut self.leaves {
            l.link.connected(sock);
        }
        self.try_begin(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        if let Some(idx) = self.leaves.iter().position(|l| l.link.owns(sock)) {
            if self.leaves[idx].link.accept(&msg).is_none() {
                return;
            }
            self.leaves[idx].rounds_done += 1;
            if self.leaves[idx].rounds_done < ROUNDS {
                self.send_round(ctx, idx);
            } else if self.outstanding() == 0 {
                let (fe_sock, fe_id) = self.current.take().expect("in service");
                ctx.compute(self.merge_cost);
                ctx.send_with_id(fe_sock, 1_024, KIND_MID + RESP_OFFSET, fe_id);
                self.last_done = Some((fe_sock, fe_id));
            }
            return;
        }
        if msg.kind != KIND_MID {
            return;
        }
        // Frontend retransmits: replay a finished response cheaply,
        // ignore one for the request still in progress.
        if self.current == Some((sock, msg.msg_id)) {
            return;
        }
        if self.last_done == Some((sock, msg.msg_id)) {
            ctx.send_with_id(sock, 1_024, KIND_MID + RESP_OFFSET, msg.msg_id);
            return;
        }
        self.current = Some((sock, msg.msg_id));
        self.pending_start = true;
        self.try_begin(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        let links = self.leaves.iter_mut().map(|l| &mut l.link);
        let retries = retry_tick(ctx, token, RETRY_AFTER, links);
        self.retries.set(self.retries.get() + retries);
    }
}

/// A leaf service: stateless compute-and-respond.
struct LeafService {
    service: SimDuration,
}

impl Program for LeafService {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(LEAF_PORT);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        if msg.kind != KIND_LEAF {
            return;
        }
        ctx.compute(self.service);
        ctx.send_with_id(sock, 512, KIND_LEAF + RESP_OFFSET, msg.msg_id);
    }
}

// ---------------------------------------------------------------------
// Runner + diagnosis
// ---------------------------------------------------------------------

impl FanoutScenario {
    /// The frontend's node id (spawn order: clients, frontend, mids,
    /// leaves, GPA).
    pub fn frontend_node(&self) -> NodeId {
        NodeId(CLIENTS as u32)
    }
    /// Node id of mid-tier service `m`.
    pub fn mid_node(&self, m: usize) -> NodeId {
        NodeId((CLIENTS + 1 + m) as u32)
    }
    /// Node id of leaf `l` (mid-major order).
    pub fn leaf_node(&self, l: usize) -> NodeId {
        NodeId((CLIENTS + 1 + MIDS + l) as u32)
    }
    /// The GPA's node id.
    pub fn gpa_node(&self) -> NodeId {
        NodeId((CLIENTS + 1 + MIDS + LEAVES) as u32)
    }
}

/// What a fan-out run's programs count: the clients' completions and
/// latencies, and the two inner tiers' retransmits.
pub struct FanoutProbes {
    clients: Rc<RefCell<ClientStats>>,
    tier_retries: Rc<Cell<u64>>,
}

impl ScenarioSpec for FanoutScenario {
    type Output = FanoutResult;
    type Probes = FanoutProbes;

    fn name(&self) -> &'static str {
        "fanout"
    }

    fn topology(&self, nodes: WorldBuilder) -> (WorldBuilder, Placement) {
        let nodes = named_nodes(nodes, "fo-client", CLIENTS).node("fo-frontend");
        let nodes = named_nodes(nodes, "fo-mid", MIDS);
        let nodes = named_nodes(nodes, "fo-leaf", LEAVES);
        let mut monitored = vec![self.frontend_node()];
        monitored.extend((0..MIDS).map(|m| self.mid_node(m)));
        monitored.extend((0..LEAVES).map(|l| self.leaf_node(l)));
        on_gigabit_lan(nodes, monitored, self.gpa_node())
    }

    fn spawn(&self, world: &mut World, _monitor: Option<&SysProf>) -> FanoutProbes {
        let tier_retries = Rc::new(Cell::new(0));
        for l in 0..LEAVES {
            let service = if l == SLOW_LEAF {
                SimDuration::from_secs_f64(LEAF_SERVICE.as_secs_f64() * self.slow_multiplier)
            } else {
                LEAF_SERVICE
            };
            world.spawn(
                self.leaf_node(l),
                &format!("fo-leaf{l}"),
                Box::new(LeafService { service }),
            );
        }
        for m in 0..MIDS {
            let leaves = (0..LEAVES_PER_MID)
                .map(|i| Leaf {
                    link: Link::new(self.leaf_node(m * LEAVES_PER_MID + i), LEAF_PORT),
                    rounds_done: 0,
                })
                .collect();
            world.spawn(
                self.mid_node(m),
                &format!("fo-mid{m}"),
                Box::new(MidService {
                    leaves,
                    current: None,
                    pending_start: false,
                    last_done: None,
                    merge_cost: SimDuration::from_micros(40),
                    retries: tier_retries.clone(),
                }),
            );
        }
        world.spawn(
            self.frontend_node(),
            "fo-frontend",
            Box::new(Frontend {
                mids: (0..MIDS)
                    .map(|m| Link::new(self.mid_node(m), MID_PORT))
                    .collect(),
                current: None,
                waiting: 0,
                queue: std::collections::VecDeque::new(),
                merge_cost: SimDuration::from_micros(50),
                retries: tier_retries.clone(),
            }),
        );
        let clients = spawn_zipf_clients(
            world,
            CLIENTS,
            "fo-client",
            ZipfLoad {
                server: self.frontend_node(),
                port: FRONT_PORT,
                keys: 1, // a single "key": plain closed-loop requests
                skew: 0.0,
                req_bytes: 256,
                kind_base: KIND_USER,
                deadline: SimTime::ZERO + self.duration,
                retry_after: RETRY_AFTER,
            },
        );
        FanoutProbes {
            clients,
            tier_retries,
        }
    }

    fn stop_at(&self) -> SimTime {
        SimTime::ZERO + self.duration + SimDuration::from_secs(1)
    }

    fn collect(&self, _: &World, _: Option<&SysProf>, probes: &FanoutProbes) -> FanoutResult {
        let mut st = probes.clients.borrow_mut();
        FanoutResult {
            requests_completed: st.completed,
            rpcs_per_request: RPCS_PER_REQUEST,
            p50_us: percentile_us(&mut st.latencies_us, 50.0),
            p99_us: percentile_us(&mut st.latencies_us, 99.0),
            retries: st.retries + probes.tier_retries.get(),
        }
    }

    fn diagnose(&self, run: &ScenarioRun<FanoutResult>) -> Diagnosis {
        let gpa = run.sysprof.gpa();
        let gpa = gpa.borrow();
        // Leaf-tier user time per node, and how much of the frontend's
        // latency its correlated paths spend downstream at the mid tier.
        let leaves = gpa.tier((0..LEAVES).map(|l| (self.leaf_node(l), LEAF_PORT)));
        let front = gpa.tier([(self.frontend_node(), FRONT_PORT)]);
        let signals = [
            detect::user(&leaves),
            detect::downstream(&front, &gpa.correlate()),
        ];
        Diagnosis::of(signals, |[slow, _]| {
            format!(
                "slow leaf {} (node {}): mean user {:.0}µs vs leaf-tier median {:.0}µs",
                slow.member, slow.node.0, slow.value, slow.baseline
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FanoutScenario {
        FanoutScenario {
            duration: SimDuration::from_millis(400),
            ..FanoutScenario::default()
        }
    }

    #[test]
    fn requests_complete_and_tail_amplifies() {
        let run = quick().run(7);
        let r = &run.output;
        assert!(
            r.requests_completed > 50,
            "requests {}",
            r.requests_completed
        );
        assert_eq!(r.rpcs_per_request, 2 + 2 * 3 * 2);
        assert!(r.p99_us >= r.p50_us, "p50 {} p99 {}", r.p50_us, r.p99_us);
        assert_eq!(r.retries, 0, "clean network needs no retries");
    }

    #[test]
    fn gpa_indicts_the_configured_slow_leaf() {
        let spec = quick();
        let run = spec.run(7);
        let d = spec.diagnose(&run);
        assert!(
            d.verdict.starts_with(&format!("slow leaf {SLOW_LEAF}")),
            "verdict {:?}",
            d.verdict
        );
    }

    #[test]
    fn slower_leaf_raises_the_tail() {
        let fast = FanoutScenario {
            slow_multiplier: 1.0,
            ..quick()
        }
        .run(7);
        let slow = quick().run(7);
        assert!(
            slow.output.p50_us > fast.output.p50_us,
            "slow {} vs uniform {}",
            slow.output.p50_us,
            fast.output.p50_us
        );
    }
}
