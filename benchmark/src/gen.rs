//! Seeded input generators shared by the workloads and the replays.
//!
//! Everything the program under test receives is produced here from
//! the `--seed` argument; the program never sees the seed itself (the
//! two `cluster_*` workloads are the exception by construction: their
//! load generators live in `sysprof-apps` and take the world seed).

use kprof::{BlockReason, EventPayload, FileId, NetPoint, Pid, SyscallKind};
use pbio::write_u64;
use pubsub::reliable::encode_batch;
use pubsub::Hub;
use simcore::{NodeId, SimRng};
use simnet::{EndPoint, FlowKey, Ip, PacketId, Port};
use sysprof::InteractionRecord;

/// Events per generated block: one request/response exchange on one
/// flow plus the scheduling and file-system activity around it.
pub const BLOCK_EVENTS: usize = 64;
/// Blocks in the replayed ring (16 flows × 4 exchanges; 4,096 payloads,
/// about 230 KB, so the ring itself stays cache-resident).
pub const RING_BLOCKS: usize = 64;
/// Flows the ring cycles through.
pub const RING_FLOWS: usize = 16;
/// Address of the monitored node in generated traffic.
pub const NODE_IP: Ip = Ip(2);
/// The GPA's data endpoint in generated wire traffic.
pub const GPA_EP: EndPoint = EndPoint::new(Ip(200), sysprof::DATA_PORT);

/// A ring of kernel event payloads shaped like a request/response
/// server: per 64-event block, 20 inbound packets, their delivery, the
/// serving process waking and being switched in, a response and its
/// transmit completions, and file-system/syscall hits no analyzer
/// subscribes to. Three responses in four are 12 packets; one in four
/// is a single packet of at most 150 bytes, which the pipeline's
/// `resp_bytes > 150` filter suppresses. Consecutive blocks use
/// consecutive flows, so a flow's next request closes its previous
/// response and the LPA completes one interaction per block. Packet
/// sizes, response lengths, client addresses and pids come from `seed`.
pub fn event_ring(seed: u64) -> Vec<EventPayload> {
    let mut rng = SimRng::seed(seed ^ 0x5eed_e7e7);
    let clients: Vec<EndPoint> = (0..RING_FLOWS)
        .map(|f| EndPoint::new(Ip(10 + rng.uniform_u64(0, 4) as u32), Port(5000 + f as u16)))
        .collect();
    let server = EndPoint::new(NODE_IP, Port(80));
    let mut ring = Vec::with_capacity(RING_BLOCKS * BLOCK_EVENTS);
    let mut packet = 0u64;
    let mut prev_pid = Pid(4);
    for b in 0..RING_BLOCKS {
        let client = clients[b % RING_FLOWS];
        let pid = Pid(1 + rng.uniform_u64(0, 4) as u32);
        let req = FlowKey::new(client, server);
        let resp = req.reversed();
        let mut net = |point, flow, size: u32| {
            packet += 1;
            EventPayload::Net {
                point,
                flow,
                packet: PacketId(packet),
                size,
                pid: Some(pid),
                arm: None,
            }
        };
        for _ in 0..20 {
            let size = rng.uniform_u64(200, 1501) as u32;
            ring.push(net(NetPoint::RxNic, req, size));
        }
        ring.push(net(NetPoint::RxSocketBuffer, req, 1500));
        ring.push(net(NetPoint::RxDeliverUser, req, 1500));
        ring.push(EventPayload::ProcessWake { pid });
        ring.push(EventPayload::ContextSwitch {
            from: Some(prev_pid),
            to: Some(pid),
        });
        for _ in 0..10 {
            ring.push(EventPayload::FileRead {
                pid,
                file: FileId(3),
                bytes: 4096,
            });
        }
        for _ in 0..4 {
            ring.push(EventPayload::SyscallEntry {
                pid,
                kind: SyscallKind::Read,
            });
        }
        let short = rng.uniform_u64(0, 4) == 0;
        let (tx_packets, max_size) = if short { (1, 151) } else { (12, 1501) };
        for _ in 0..tx_packets {
            let size = rng.uniform_u64(60, max_size) as u32;
            ring.push(net(NetPoint::TxFromUser, resp, size));
        }
        for _ in 0..4 {
            ring.push(net(NetPoint::TxNicDone, resp, 1500));
        }
        ring.push(EventPayload::ProcessBlock {
            pid,
            reason: BlockReason::SocketRecv,
        });
        ring.push(EventPayload::ContextSwitch {
            from: Some(pid),
            to: None,
        });
        for _ in 0..8 + (12 - tx_packets) {
            ring.push(EventPayload::FileWrite {
                pid,
                file: FileId(4),
                bytes: 512,
            });
        }
        prev_pid = pid;
    }
    debug_assert_eq!(ring.len(), RING_BLOCKS * BLOCK_EVENTS);
    ring
}

/// `n` interaction records as `sources` monitored nodes would report
/// them: 64 client flows per node, start times advancing, sizes and
/// latencies drawn from `seed`.
pub fn records(seed: u64, n: usize, sources: usize) -> Vec<InteractionRecord> {
    let mut rng = SimRng::seed(seed ^ 0x07ec_07d5);
    (0..n)
        .map(|i| {
            let node = (i % sources) as u32;
            let start_us = 1_000 + i as u64 * 3 + rng.uniform_u64(0, 3);
            let kernel_in_us = rng.uniform_u64(5, 400);
            let user_us = rng.uniform_u64(20, 300);
            let kernel_out_us = rng.uniform_u64(5, 120);
            let blocked_us = rng.uniform_u64(0, 50);
            InteractionRecord {
                node: NodeId(1 + node),
                flow: FlowKey::new(
                    EndPoint::new(
                        Ip(100 + rng.uniform_u64(0, 8) as u32),
                        Port(5000 + rng.uniform_u64(0, 64) as u16),
                    ),
                    EndPoint::new(Ip(1 + node), Port(80)),
                ),
                class_port: Port(80),
                pid: 1 + rng.uniform_u64(0, 4) as u32,
                start_us,
                end_us: start_us + kernel_in_us + user_us + kernel_out_us + blocked_us,
                req_packets: 1 + rng.uniform_u64(0, 4) as u32,
                req_bytes: rng.uniform_u64(64, 4_000),
                resp_packets: 1,
                resp_bytes: rng.uniform_u64(60, 400),
                kernel_in_us,
                user_us,
                kernel_out_us,
                blocked_us,
                blocked_io_us: 0,
            }
        })
        .collect()
}

/// Sealed daemon→GPA batches in arrival order.
pub struct WireInput {
    /// `(source daemon endpoint, sealed batch bytes)`, as they arrive.
    pub arrivals: Vec<(EndPoint, Vec<u8>)>,
    /// Distinct records carried.
    pub records: u64,
    /// Distinct batches carried (duplicates not counted).
    pub batches: u64,
    /// Batches that arrive a second time.
    pub duplicates: u64,
    /// Batches that arrive after their successor.
    pub swapped: u64,
    /// Wire bytes of the distinct batches.
    pub wire_bytes: u64,
}

/// Publishes `records` through one [`Hub`] per source node (the
/// daemon's own `publish_raw` path, so the bytes are exactly what a
/// daemon emits, inline schema announcement included), frames
/// `frames_per_batch` of them per batch, seals each batch with its
/// per-source sequence number, and interleaves the sources round-robin.
/// With probability 1/64 a batch trades places with its successor and
/// with probability 1/128 it is delivered twice.
pub fn wire_input(
    seed: u64,
    records: &[InteractionRecord],
    sources: usize,
    frames_per_batch: usize,
) -> WireInput {
    let mut rng = SimRng::seed(seed ^ 0x0317_2e0f);
    let schema = InteractionRecord::schema();
    let mut per_source: Vec<Vec<Vec<u8>>> = Vec::with_capacity(sources);
    let mut wire_bytes = 0u64;
    let mut row = Vec::new();
    for s in 0..sources {
        let mut hub = Hub::new();
        let topic = hub.topic(sysprof::INTERACTION_TOPIC);
        hub.subscribe_with_schema(topic, GPA_EP, None, &schema)
            .expect("unfiltered subscription");
        let mut sealed = Vec::new();
        let mut payload = Vec::new();
        let mut frames = 0usize;
        let mut seq = 0u64;
        let mut seal = |payload: &mut Vec<u8>, sealed: &mut Vec<Vec<u8>>| {
            seq += 1;
            let wire = encode_batch(seq, payload);
            wire_bytes += wire.len() as u64;
            sealed.push(wire);
            payload.clear();
        };
        for rec in records.iter().skip(s).step_by(sources) {
            rec.to_raw_row(&mut row);
            for (_, wire) in hub
                .publish_raw(topic, &schema, &row)
                .expect("record matches schema")
            {
                write_u64(&mut payload, wire.len() as u64);
                payload.extend_from_slice(&wire);
                frames += 1;
            }
            if frames == frames_per_batch {
                seal(&mut payload, &mut sealed);
                frames = 0;
            }
        }
        if frames > 0 {
            seal(&mut payload, &mut sealed);
        }
        per_source.push(sealed);
    }

    let batches: u64 = per_source.iter().map(|s| s.len() as u64).sum();
    let (mut swapped, mut duplicates) = (0u64, 0u64);
    let mut queues: Vec<std::collections::VecDeque<Vec<u8>>> = Vec::with_capacity(sources);
    for sealed in per_source {
        let mut q: Vec<Vec<u8>> = Vec::with_capacity(sealed.len() + sealed.len() / 64);
        for wire in sealed {
            let dup = rng.uniform_u64(0, 128) == 0;
            if dup {
                duplicates += 1;
                q.push(wire.clone());
            }
            q.push(wire);
        }
        let mut k = 0;
        while k + 1 < q.len() {
            if q[k] != q[k + 1] && rng.uniform_u64(0, 64) == 0 {
                q.swap(k, k + 1);
                swapped += 1;
                k += 2;
            } else {
                k += 1;
            }
        }
        queues.push(q.into());
    }
    let mut arrivals = Vec::with_capacity((batches + duplicates) as usize);
    loop {
        let mut any = false;
        for (s, q) in queues.iter_mut().enumerate() {
            if let Some(wire) = q.pop_front() {
                let src = EndPoint::new(Ip(1 + s as u32), sysprof::DAEMON_SRC_PORT);
                arrivals.push((src, wire));
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    WireInput {
        arrivals,
        records: records.len() as u64,
        batches,
        duplicates,
        swapped,
        wire_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_differs() {
        assert_eq!(event_ring(7), event_ring(7));
        assert_ne!(event_ring(7), event_ring(11));
        let a = records(7, 512, 8);
        assert_eq!(a, records(7, 512, 8));
        let w = wire_input(7, &a, 8, 64);
        let w2 = wire_input(7, &a, 8, 64);
        assert_eq!(w.arrivals, w2.arrivals);
        assert_eq!(w.records, 512);
        assert_eq!(w.batches, 8);
        assert_eq!(w.arrivals.len() as u64, w.batches + w.duplicates);
    }
}
