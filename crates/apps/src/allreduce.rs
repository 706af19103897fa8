//! Ring allreduce collective with an injectable straggler.
//!
//! `R` ranks form a ring; every iteration moves `2(R-1)` chunks around
//! it (the reduce-scatter + allgather phases of ring allreduce). Each
//! rank sends its chunk for step `s` to the next rank, which reduces it
//! (user-level compute), acknowledges on the same flow, and only then
//! does the sender advance — the collective is globally synchronous, so
//! a single slow rank gates every step for everyone.
//!
//! The straggler is injectable two ways: a **compute straggler** via
//! [`AllreduceScenario::straggler_multiplier`] (that rank's reduce takes
//! longer), or a **network straggler** via the fault plan (jitter/loss
//! on one ring link; the per-step retransmit keeps the ring live).
//!
//! The diagnosis SysProf must produce: the straggler **rank** — the ring
//! node whose responder-side user time dominates — from GPA class
//! summaries alone.

use std::cell::RefCell;
use std::rc::Rc;

use serde::Serialize;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::Port;
use simos::{Message, ProcCtx, Program, SocketId, World, WorldBuilder};
use sysprof::{detect, SysProf};

use crate::scenario::{
    arm_retry, named_nodes, on_gigabit_lan, retry_tick, Diagnosis, Link, Placement, ScenarioRun,
    ScenarioSpec,
};

/// The ring port every rank listens on.
pub const RING_PORT: Port = Port(9000);

const KIND_CHUNK_BASE: u32 = 10_000;
const RESP_OFFSET: u32 = 1_000_000;

/// Parameters of the allreduce scenario.
#[derive(Debug, Clone)]
pub struct AllreduceScenario {
    /// Ranks in the ring.
    pub ranks: usize,
    /// Allreduce iterations to run back to back.
    pub iterations: usize,
    /// Bytes per chunk (one ring hop's payload).
    pub chunk_bytes: u64,
    /// Baseline reduce compute per received chunk.
    pub reduce_compute: SimDuration,
    /// The compute-straggler rank.
    pub straggler: usize,
    /// Compute multiplier applied to the straggler's reduce.
    pub straggler_multiplier: f64,
    /// Per-chunk retransmit timeout (loss tolerance).
    pub retry_after: SimDuration,
    /// Wall-clock cap on the run (the collective normally finishes far
    /// earlier; the cap bounds hostile-network runs).
    pub deadline: SimDuration,
}

impl Default for AllreduceScenario {
    fn default() -> Self {
        AllreduceScenario {
            ranks: 4,
            iterations: 8,
            chunk_bytes: 16 * 1024,
            reduce_compute: SimDuration::from_micros(40),
            straggler: 2,
            straggler_multiplier: 6.0,
            retry_after: SimDuration::from_millis(20),
            deadline: SimDuration::from_secs(4),
        }
    }
}

impl AllreduceScenario {
    /// Ring steps per iteration: reduce-scatter + allgather.
    pub fn steps_per_iteration(&self) -> usize {
        2 * (self.ranks - 1)
    }

    fn total_steps(&self) -> u64 {
        (self.iterations * self.steps_per_iteration()) as u64
    }

    /// Node id of rank `r` (ranks occupy nodes 0..ranks, GPA last).
    pub fn rank_node(&self, r: usize) -> NodeId {
        NodeId(r as u32)
    }

    /// The GPA's node id.
    pub fn gpa_node(&self) -> NodeId {
        NodeId(self.ranks as u32)
    }
}

/// Measured outcome of one allreduce run.
#[derive(Debug, Clone, Serialize)]
pub struct AllreduceResult {
    /// Iterations every rank completed (equals the configured count on a
    /// healthy run; lower if the deadline cut a hostile run short).
    pub iterations_completed: u64,
    /// Chunks received and reduced, per rank.
    pub chunks_reduced: Vec<u64>,
    /// Wall time when the last rank finished, µs (0 if unfinished).
    pub finished_at_us: u64,
    /// Mean wall time per completed iteration, µs.
    pub mean_iteration_us: u64,
    /// Chunk retransmits across all ranks (0 on a clean network).
    pub retries: u64,
}

// ---------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------

/// What an allreduce run's ranks count.
#[derive(Default)]
pub struct RingShared {
    chunks_reduced: Vec<u64>,
    finished_at_us: Vec<Option<u64>>,
    retries: u64,
}

/// One rank: sends chunks clockwise, reduces chunks from the previous
/// rank, acknowledges each. The send window is one chunk: step `s+1`
/// goes out only after step `s` is acknowledged *and* the chunk for
/// step `s` arrived from the previous rank (the data dependence of ring
/// allreduce).
struct RingRank {
    rank: usize,
    next: Link,
    reduce: SimDuration,
    chunk_bytes: u64,
    total_steps: u64,
    retry_after: SimDuration,
    send_step: u64,
    recv_step: u64,
    shared: Rc<RefCell<RingShared>>,
}

impl RingRank {
    fn try_send(&mut self, ctx: &mut ProcCtx<'_>) {
        if !self.next.ready()
            || self.next.busy()
            || self.send_step >= self.total_steps
            || self.recv_step < self.send_step
        {
            return;
        }
        let kind = KIND_CHUNK_BASE + self.send_step as u32;
        self.next.send(ctx, self.chunk_bytes, kind, ());
        self.send_step += 1;
    }

    fn maybe_finish(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.send_step == self.total_steps
            && self.recv_step == self.total_steps
            && !self.next.busy()
        {
            let mut sh = self.shared.borrow_mut();
            if sh.finished_at_us[self.rank].is_none() {
                sh.finished_at_us[self.rank] =
                    Some(ctx.now().saturating_since(SimTime::ZERO).as_micros());
            }
        }
    }
}

impl Program for RingRank {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.listen(RING_PORT);
        self.next.connect(ctx);
        arm_retry(ctx, self.retry_after);
    }

    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        if self.next.connected(sock) {
            self.try_send(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        if self.next.owns(sock) {
            // ACK from the next rank for our in-flight chunk.
            if self.next.accept(&msg).is_some() {
                self.try_send(ctx);
                self.maybe_finish(ctx);
            }
            return;
        }
        // Chunk from the previous rank on the inbound ring flow.
        if !(KIND_CHUNK_BASE..KIND_CHUNK_BASE + RESP_OFFSET).contains(&msg.kind) {
            return;
        }
        let step = (msg.kind - KIND_CHUNK_BASE) as u64;
        if step == self.recv_step {
            // New chunk: reduce (the straggler's inflated compute lands
            // here, as responder-side user time), then acknowledge.
            ctx.compute(self.reduce);
            self.shared.borrow_mut().chunks_reduced[self.rank] += 1;
            ctx.send_with_id(sock, 64, msg.kind + RESP_OFFSET, msg.msg_id);
            self.recv_step += 1;
            self.try_send(ctx);
            self.maybe_finish(ctx);
        } else if step < self.recv_step {
            // Duplicate (network or retransmit): re-acknowledge without
            // recomputing, so the sender can advance.
            ctx.send_with_id(sock, 64, msg.kind + RESP_OFFSET, msg.msg_id);
        }
    }

    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        let retries = retry_tick(ctx, token, self.retry_after, [&mut self.next]);
        self.shared.borrow_mut().retries += retries;
    }
}

// ---------------------------------------------------------------------
// Runner + diagnosis
// ---------------------------------------------------------------------

impl ScenarioSpec for AllreduceScenario {
    type Output = AllreduceResult;
    type Probes = Rc<RefCell<RingShared>>;

    fn name(&self) -> &'static str {
        "allreduce"
    }

    fn topology(&self, nodes: WorldBuilder) -> (WorldBuilder, Placement) {
        let ranks = (0..self.ranks).map(|r| self.rank_node(r)).collect();
        on_gigabit_lan(
            named_nodes(nodes, "rank", self.ranks),
            ranks,
            self.gpa_node(),
        )
    }

    fn spawn(&self, world: &mut World, _monitor: Option<&SysProf>) -> Rc<RefCell<RingShared>> {
        let shared = Rc::new(RefCell::new(RingShared {
            chunks_reduced: vec![0; self.ranks],
            finished_at_us: vec![None; self.ranks],
            retries: 0,
        }));
        for r in 0..self.ranks {
            let reduce = if r == self.straggler {
                SimDuration::from_secs_f64(
                    self.reduce_compute.as_secs_f64() * self.straggler_multiplier,
                )
            } else {
                self.reduce_compute
            };
            world.spawn(
                self.rank_node(r),
                &format!("rank{r}"),
                Box::new(RingRank {
                    rank: r,
                    next: Link::new(self.rank_node((r + 1) % self.ranks), RING_PORT),
                    reduce,
                    chunk_bytes: self.chunk_bytes,
                    total_steps: self.total_steps(),
                    retry_after: self.retry_after,
                    send_step: 0,
                    recv_step: 0,
                    shared: shared.clone(),
                }),
            );
        }
        shared
    }

    fn stop_at(&self) -> SimTime {
        SimTime::ZERO + self.deadline
    }

    fn collect(
        &self,
        _: &World,
        _: Option<&SysProf>,
        shared: &Rc<RefCell<RingShared>>,
    ) -> AllreduceResult {
        let sh = shared.borrow();
        let spi = self.steps_per_iteration() as u64;
        let iterations_completed = sh
            .chunks_reduced
            .iter()
            .map(|&c| c / spi)
            .min()
            .unwrap_or(0);
        let finished_at_us = if sh.finished_at_us.iter().all(|f| f.is_some()) {
            sh.finished_at_us
                .iter()
                .map(|f| f.expect("all some"))
                .max()
                .unwrap_or(0)
        } else {
            0
        };
        AllreduceResult {
            iterations_completed,
            chunks_reduced: sh.chunks_reduced.clone(),
            finished_at_us,
            mean_iteration_us: if iterations_completed > 0 && finished_at_us > 0 {
                finished_at_us / iterations_completed
            } else {
                0
            },
            retries: sh.retries,
        }
    }

    fn diagnose(&self, run: &ScenarioRun<AllreduceResult>) -> Diagnosis {
        let ranks = (0..self.ranks).map(|r| (self.rank_node(r), RING_PORT));
        let tier = run.sysprof.gpa().borrow().tier(ranks);
        Diagnosis::of([detect::user(&tier)], |[straggler]| {
            format!(
                "straggler rank {}: mean reduce {:.0}µs vs ring median {:.0}µs",
                straggler.member, straggler.value, straggler.baseline
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> AllreduceScenario {
        AllreduceScenario {
            iterations: 4,
            ..AllreduceScenario::default()
        }
    }

    #[test]
    fn collective_completes_every_iteration() {
        let run = quick().run(7);
        let r = &run.output;
        assert_eq!(r.iterations_completed, 4, "{r:?}");
        assert!(r.finished_at_us > 0, "{r:?}");
        assert_eq!(r.retries, 0, "clean network needs no retries");
        let spi = quick().steps_per_iteration() as u64;
        for (rank, &c) in r.chunks_reduced.iter().enumerate() {
            assert_eq!(c, 4 * spi, "rank {rank} reduced {c}");
        }
    }

    #[test]
    fn gpa_indicts_the_compute_straggler() {
        let spec = quick();
        let run = spec.run(7);
        let d = spec.diagnose(&run);
        assert!(
            d.verdict
                .starts_with(&format!("straggler rank {}", spec.straggler)),
            "verdict {:?}",
            d.verdict
        );
    }

    #[test]
    fn straggler_slows_the_whole_ring() {
        let uniform = AllreduceScenario {
            straggler_multiplier: 1.0,
            ..quick()
        }
        .run(7);
        let skewed = quick().run(7);
        assert!(
            skewed.output.finished_at_us > uniform.output.finished_at_us,
            "skewed {} vs uniform {}",
            skewed.output.finished_at_us,
            uniform.output.finished_at_us
        );
    }
}
