//! CDN/cache tier with zipfian traffic, TTL expiry, and origin fallback.
//!
//! Topology: closed-loop clients → an **edge cache** → an **origin**
//! server whose fetches pay a synchronous disk read. Hits are served
//! from the edge in microseconds; misses (cold keys and TTL-expired hot
//! keys) queue on a single ping-pong flow to the origin, with
//! same-key requests coalesced into one fetch. Zipfian popularity makes
//! the hit ratio high, but TTL expiry keeps even rank-0 keys
//! periodically falling back to the origin — so the latency
//! distribution is sharply bimodal and the tail is entirely
//! origin-bound.
//!
//! The diagnosis SysProf must produce: the **origin-bound tail** — the
//! edge's p95/p50 split plus the origin's blocked (disk) time, with
//! correlated paths proving the edge's slow requests are downstream
//! origin time rather than edge work.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use kprof::FileId;
use serde::Serialize;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::Port;
use simos::{DiskSpec, Message, NodeConfig, ProcCtx, Program, SocketId, World, WorldBuilder};
use sysprof::{detect, SysProf};

use crate::scenario::{
    arm_retry, named_nodes, on_gigabit_lan, percentile_us, retry_tick, spawn_zipf_clients,
    ClientStats, Diagnosis, Link, Placement, ScenarioRun, ScenarioSpec, ZipfLoad,
};

/// Edge cache client-facing port.
pub const EDGE_PORT: Port = Port(6000);
/// Origin server port.
pub const ORIGIN_PORT: Port = Port(6100);

const REQ_BASE: u32 = 1_000;
const RESP_OFFSET: u32 = 100_000;

/// Closed-loop client nodes.
const CLIENTS: usize = 2;
/// Distinct objects.
const KEYS: usize = 64;
/// Zipf skew of object popularity.
const SKEW: f64 = 1.1;
/// Object payload bytes (edge→client and origin→edge).
const OBJECT_BYTES: u64 = 2_048;
/// Bytes the origin reads from disk per fetch.
const ORIGIN_READ_BYTES: u64 = 16 * 1024;
/// Positioning time of the origin's disk: a striped/cached origin store
/// (~1 ms) rather than the substrate's stock 8 ms SATA drive, which
/// would saturate the single origin flow and hide TTL-driven demand
/// behind queueing.
const ORIGIN_SEEK: SimDuration = SimDuration::from_millis(1);
/// Per-request cache-lookup compute at the edge.
const EDGE_LOOKUP: SimDuration = SimDuration::from_micros(15);
/// Retransmit timeout (loss tolerance).
const RETRY_AFTER: SimDuration = SimDuration::from_millis(50);

/// The CDN scenario: the workload's shape is the constants above; the
/// cache TTL and the run's length are parameters.
#[derive(Debug, Clone)]
pub struct CdnScenario {
    /// Cache TTL: a filled entry expires this long after the fill.
    pub ttl: SimDuration,
    /// How long clients keep issuing requests.
    pub duration: SimDuration,
}

impl Default for CdnScenario {
    fn default() -> Self {
        CdnScenario {
            ttl: SimDuration::from_millis(150),
            duration: SimDuration::from_secs(1),
        }
    }
}

/// Measured outcome of one CDN run.
#[derive(Debug, Clone, Serialize)]
pub struct CdnResult {
    /// Client requests completed.
    pub requests_completed: u64,
    /// Requests served straight from the edge cache.
    pub hits: u64,
    /// Requests that had to wait on an origin fetch.
    pub misses: u64,
    /// Hit fraction of all completed edge decisions.
    pub hit_ratio: f64,
    /// Misses that piggybacked on an in-flight fetch for the same key.
    pub coalesced: u64,
    /// Fetches actually sent to the origin.
    pub origin_fetches: u64,
    /// Client-observed median latency, µs.
    pub p50_us: u64,
    /// Client-observed 95th-percentile latency, µs.
    pub p95_us: u64,
    /// Retransmits (0 on a clean network).
    pub retries: u64,
}

// ---------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------

#[derive(Default)]
struct EdgeShared {
    hits: u64,
    misses: u64,
    coalesced: u64,
    origin_fetches: u64,
    retries: u64,
}

/// The edge cache: TTL'd entries, request coalescing, a single
/// ping-pong flow to the origin with a FIFO fetch queue.
struct EdgeCache {
    /// The flow to the origin, tagged with the key being fetched.
    origin: Link<u32>,
    ttl: SimDuration,
    /// key → expiry time of the cached copy.
    cache: BTreeMap<u32, SimTime>,
    /// key → clients waiting on the in-flight or queued fetch.
    waiters: BTreeMap<u32, Vec<(SocketId, u64)>>,
    fetch_queue: VecDeque<u32>,
    shared: Rc<RefCell<EdgeShared>>,
}

impl EdgeCache {
    fn pump(&mut self, ctx: &mut ProcCtx<'_>) {
        if !self.origin.ready() || self.origin.busy() {
            return;
        }
        let Some(key) = self.fetch_queue.pop_front() else {
            return;
        };
        self.origin.send(ctx, 128, REQ_BASE + key, key);
        self.shared.borrow_mut().origin_fetches += 1;
    }
}

impl Program for EdgeCache {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(EDGE_PORT);
        self.origin.connect(ctx);
        arm_retry(ctx, RETRY_AFTER);
    }

    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        if self.origin.connected(sock) {
            self.pump(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        if self.origin.owns(sock) {
            // Origin response: fill the cache, release every waiter.
            // (`None` is a duplicate of an already-filled fetch.)
            if let Some(key) = self.origin.accept(&msg) {
                self.cache.insert(key, ctx.now() + self.ttl);
                for (client, req_id) in self.waiters.remove(&key).unwrap_or_default() {
                    ctx.compute(SimDuration::from_micros(5));
                    ctx.send_with_id(client, OBJECT_BYTES, REQ_BASE + key + RESP_OFFSET, req_id);
                }
                self.pump(ctx);
            }
            return;
        }
        // Client GET: key encoded in the kind.
        if !(REQ_BASE..REQ_BASE + RESP_OFFSET).contains(&msg.kind) {
            return;
        }
        let key = msg.kind - REQ_BASE;
        ctx.compute(EDGE_LOOKUP);
        if self.cache.get(&key).is_some_and(|&exp| ctx.now() < exp) {
            self.shared.borrow_mut().hits += 1;
            ctx.send_with_id(sock, OBJECT_BYTES, msg.kind + RESP_OFFSET, msg.msg_id);
            return;
        }
        // Miss (cold or TTL-expired): coalesce with any fetch already
        // under way for this key.
        let waiter = (sock, msg.msg_id);
        match self.waiters.get_mut(&key) {
            Some(w) => {
                if !w.contains(&waiter) {
                    w.push(waiter);
                    let mut sh = self.shared.borrow_mut();
                    sh.misses += 1;
                    sh.coalesced += 1;
                }
            }
            None => {
                self.waiters.insert(key, vec![waiter]);
                self.fetch_queue.push_back(key);
                self.shared.borrow_mut().misses += 1;
                self.pump(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        let retries = retry_tick(ctx, token, RETRY_AFTER, [&mut self.origin]);
        self.shared.borrow_mut().retries += retries;
    }
}

/// The origin: every fetch pays a synchronous disk read before the
/// response — the blocked time the GPA sees behind every miss.
struct OriginServer {
    next_token: u64,
    inflight: BTreeMap<u64, (SocketId, u64, u32)>,
}

impl Program for OriginServer {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(ORIGIN_PORT);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        if !(REQ_BASE..REQ_BASE + RESP_OFFSET).contains(&msg.kind) {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.inflight.insert(token, (sock, msg.msg_id, msg.kind));
        let key = msg.kind - REQ_BASE;
        ctx.read_file(FileId(key as u64), ORIGIN_READ_BYTES, token);
    }

    fn on_io_done(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        if let Some((sock, req_id, kind)) = self.inflight.remove(&token) {
            ctx.compute(SimDuration::from_micros(20));
            ctx.send_with_id(sock, OBJECT_BYTES, kind + RESP_OFFSET, req_id);
        }
    }
}

// ---------------------------------------------------------------------
// Runner + diagnosis
// ---------------------------------------------------------------------

impl CdnScenario {
    /// The edge cache's node id (spawn order: clients, edge, origin, GPA).
    pub fn edge_node(&self) -> NodeId {
        NodeId(CLIENTS as u32)
    }
    /// The origin server's node id.
    pub fn origin_node(&self) -> NodeId {
        NodeId((CLIENTS + 1) as u32)
    }
    /// The GPA's node id.
    pub fn gpa_node(&self) -> NodeId {
        NodeId((CLIENTS + 2) as u32)
    }
}

/// What a CDN run's programs count: the edge's cache decisions and the
/// clients' completions and latencies.
pub struct CdnProbes {
    edge: Rc<RefCell<EdgeShared>>,
    clients: Rc<RefCell<ClientStats>>,
}

impl ScenarioSpec for CdnScenario {
    type Output = CdnResult;
    type Probes = CdnProbes;

    fn name(&self) -> &'static str {
        "cdn"
    }

    fn topology(&self, nodes: WorldBuilder) -> (WorldBuilder, Placement) {
        let origin_config = NodeConfig {
            disk: DiskSpec {
                seek: ORIGIN_SEEK,
                ..DiskSpec::default()
            },
            ..NodeConfig::default()
        };
        let nodes = named_nodes(nodes, "cdn-client", CLIENTS)
            .node("cdn-edge")
            .node_with("cdn-origin", origin_config, simnet::ClockSpec::PERFECT);
        let monitored = vec![self.edge_node(), self.origin_node()];
        on_gigabit_lan(nodes, monitored, self.gpa_node())
    }

    fn spawn(&self, world: &mut World, _monitor: Option<&SysProf>) -> CdnProbes {
        let edge = Rc::new(RefCell::new(EdgeShared::default()));
        world.spawn(
            self.edge_node(),
            "cdn-edge",
            Box::new(EdgeCache {
                origin: Link::new(self.origin_node(), ORIGIN_PORT),
                ttl: self.ttl,
                cache: BTreeMap::new(),
                waiters: BTreeMap::new(),
                fetch_queue: VecDeque::new(),
                shared: edge.clone(),
            }),
        );
        world.spawn(
            self.origin_node(),
            "cdn-origin",
            Box::new(OriginServer {
                next_token: 0,
                inflight: BTreeMap::new(),
            }),
        );
        let clients = spawn_zipf_clients(
            world,
            CLIENTS,
            "cdn-client",
            ZipfLoad {
                server: self.edge_node(),
                port: EDGE_PORT,
                keys: KEYS,
                skew: SKEW,
                req_bytes: 128,
                kind_base: REQ_BASE,
                deadline: SimTime::ZERO + self.duration,
                retry_after: RETRY_AFTER,
            },
        );
        CdnProbes { edge, clients }
    }

    fn stop_at(&self) -> SimTime {
        SimTime::ZERO + self.duration + SimDuration::from_secs(1)
    }

    fn collect(&self, _: &World, _: Option<&SysProf>, probes: &CdnProbes) -> CdnResult {
        let sh = probes.edge.borrow();
        let mut st = probes.clients.borrow_mut();
        let decided = sh.hits + sh.misses;
        CdnResult {
            requests_completed: st.completed,
            hits: sh.hits,
            misses: sh.misses,
            hit_ratio: if decided > 0 {
                sh.hits as f64 / decided as f64
            } else {
                0.0
            },
            coalesced: sh.coalesced,
            origin_fetches: sh.origin_fetches,
            p50_us: percentile_us(&mut st.latencies_us, 50.0),
            p95_us: percentile_us(&mut st.latencies_us, 95.0),
            retries: st.retries + sh.retries,
        }
    }

    fn diagnose(&self, run: &ScenarioRun<CdnResult>) -> Diagnosis {
        let gpa = run.sysprof.gpa();
        let gpa = gpa.borrow();
        // The edge's bimodal hit/miss split, the origin's synchronous
        // disk, and how much of the edge's miss paths is origin time.
        let edge = gpa.tier([(self.edge_node(), EDGE_PORT)]);
        let origin = gpa.tier([(self.origin_node(), ORIGIN_PORT)]);
        let signals = [
            detect::tail_ratio(&edge),
            detect::blocked(&origin),
            detect::downstream(&edge, &gpa.correlate()),
        ];
        Diagnosis::of(signals, |[tail, disk, _]| {
            format!(
                "origin-bound tail: edge p95/p50 = {:.0}x, misses blocked on origin disk ({:.0}µs mean)",
                tail.value, disk.value
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CdnScenario {
        CdnScenario {
            duration: SimDuration::from_millis(500),
            ..CdnScenario::default()
        }
    }

    #[test]
    fn zipf_traffic_hits_and_ttl_forces_refetches() {
        let run = quick().run(7);
        let r = &run.output;
        // Closed loop: misses serialize on the origin's disk, so
        // throughput is origin-bound — ~100s of requests, not 1000s.
        assert!(
            r.requests_completed > 100,
            "requests {}",
            r.requests_completed
        );
        assert!(r.hit_ratio > 0.5, "hit ratio {} of {r:?}", r.hit_ratio);
        assert!(
            r.origin_fetches > 0 && r.misses >= r.origin_fetches,
            "{r:?}"
        );
        // A 500ms run against a 150ms TTL refetches hot keys: strictly
        // more fetches than the number of distinct keys a cold cache
        // could account for.
        let no_ttl = CdnScenario {
            ttl: SimDuration::from_secs(60),
            ..quick()
        }
        .run(7);
        assert!(
            r.origin_fetches > no_ttl.output.origin_fetches,
            "TTL expiry must force refetches: {} vs {} without expiry",
            r.origin_fetches,
            no_ttl.output.origin_fetches
        );
        assert_eq!(r.retries, 0, "clean network needs no retries");
    }

    #[test]
    fn misses_dominate_the_tail() {
        let run = quick().run(7);
        let r = &run.output;
        assert!(
            r.p95_us > 2 * r.p50_us,
            "bimodal latency: p50 {} p95 {}",
            r.p50_us,
            r.p95_us
        );
    }

    #[test]
    fn gpa_diagnoses_the_origin_bound_tail() {
        let spec = quick();
        let run = spec.run(7);
        let d = spec.diagnose(&run);
        assert!(
            d.verdict.starts_with("origin-bound tail"),
            "verdict {:?}",
            d.verdict
        );
        assert!(!d.evidence.is_empty());
    }
}
