//! The monitoring records SysProf produces, and their PBIO schemas.

use pbio::{FieldType, Schema};
use serde::{Deserialize, Serialize};
use simcore::stats::Histogram;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{EndPoint, FlowKey, Ip, Port};

/// Topic name the dissemination daemons publish interaction records on.
pub const INTERACTION_TOPIC: &str = "sysprof.interactions";
/// Topic for per-node load reports.
pub const LOAD_TOPIC: &str = "sysprof.load";

/// A topic a daemon publishes: its name and its records' schema.
pub(crate) type Topic = (&'static str, fn() -> Schema);
/// Every topic a daemon publishes, in the order the GPA's `Receiver`
/// expects their schemas; a Subscribe may name these and no other.
pub(crate) const TOPICS: [Topic; 2] = [
    (INTERACTION_TOPIC, InteractionRecord::schema),
    (LOAD_TOPIC, LoadRecord::schema),
];
/// The [`TOPICS`] rows of the interaction records and the load reports.
pub(crate) const INTERACTION: usize = 0;
pub(crate) const LOAD: usize = 1;

/// One diagnosed request/response interaction, as measured by the LPA on
/// one node (§2 "Messages and Interactions").
///
/// All timestamps are the **measuring node's wall clock** in microseconds
/// — the GPA must absorb NTP error when correlating across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InteractionRecord {
    /// Node that measured this interaction.
    pub node: NodeId,
    /// The request flow (initiator → responder), as observed.
    pub flow: FlowKey,
    /// Service class: the responder-side port.
    pub class_port: Port,
    /// Process that served the interaction, if known (0 = unknown/kernel).
    pub pid: u32,
    /// Wall time the first request packet hit the NIC, µs.
    pub start_us: u64,
    /// Wall time the last response packet left the NIC, µs.
    pub end_us: u64,
    /// Request packets/bytes (wire bytes).
    pub req_packets: u32,
    /// Request wire bytes.
    pub req_bytes: u64,
    /// Response packets.
    pub resp_packets: u32,
    /// Response wire bytes.
    pub resp_bytes: u64,
    /// Inbound kernel time: first NIC arrival → last byte copied to user
    /// space (protocol processing **plus socket-buffer queueing** — the
    /// quantity that grows under load in Figure 4).
    pub kernel_in_us: u64,
    /// Time the serving process actually ran between request delivery and
    /// response submission ("user level" time; constant for the proxy in
    /// Figure 4).
    pub user_us: u64,
    /// Outbound kernel time: send syscall → last bit on the wire.
    pub kernel_out_us: u64,
    /// Time the serving process was blocked during the interaction window.
    pub blocked_us: u64,
    /// Of which: blocked on disk I/O.
    pub blocked_io_us: u64,
}

impl InteractionRecord {
    /// Total wall-clock latency at this node.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_micros(self.end_us.saturating_sub(self.start_us))
    }

    /// The PBIO schema for interaction records.
    pub fn schema() -> Schema {
        Schema::build("sysprof.interaction")
            .field("node", FieldType::U64)
            .field("src_ip", FieldType::U64)
            .field("src_port", FieldType::U64)
            .field("dst_ip", FieldType::U64)
            .field("dst_port", FieldType::U64)
            .field("class_port", FieldType::U64)
            .field("pid", FieldType::U64)
            .field("start_us", FieldType::U64)
            .field("end_us", FieldType::U64)
            .field("req_packets", FieldType::U64)
            .field("req_bytes", FieldType::U64)
            .field("resp_packets", FieldType::U64)
            .field("resp_bytes", FieldType::U64)
            .field("kernel_in_us", FieldType::U64)
            .field("user_us", FieldType::U64)
            .field("kernel_out_us", FieldType::U64)
            .field("blocked_us", FieldType::U64)
            .field("blocked_io_us", FieldType::U64)
            .finish()
            .expect("static schema is valid")
    }

    /// The record as a raw row: one `i64` per schema field, in schema
    /// order (all interaction fields are unsigned integers, so the raw
    /// value is just the width-extended count). This is the form the
    /// record travels in — what `Hub::publish_raw` encodes, the PBIO row
    /// codec decodes and `ShardedDigest::ingest_raw_rows` consumes.
    pub fn raw_row(&self) -> [i64; 18] {
        [
            self.node.0 as i64,
            self.flow.src.ip.0 as i64,
            self.flow.src.port.0 as i64,
            self.flow.dst.ip.0 as i64,
            self.flow.dst.port.0 as i64,
            self.class_port.0 as i64,
            self.pid as i64,
            self.start_us as i64,
            self.end_us as i64,
            self.req_packets as i64,
            self.req_bytes as i64,
            self.resp_packets as i64,
            self.resp_bytes as i64,
            self.kernel_in_us as i64,
            self.user_us as i64,
            self.kernel_out_us as i64,
            self.blocked_us as i64,
            self.blocked_io_us as i64,
        ]
    }

    /// [`raw_row`](Self::raw_row) into a reusable scratch buffer.
    pub fn to_raw_row(&self, out: &mut Vec<i64>) {
        out.clear();
        out.extend_from_slice(&self.raw_row());
    }

    /// Inverse of [`raw_row`](Self::raw_row). The caller vouches
    /// that `row` was coded under [`schema`](Self::schema) (the GPA
    /// compares the announced schema); `None` if it is not one value per
    /// field.
    pub fn from_raw_row(row: &[i64]) -> Option<InteractionRecord> {
        let r: &[i64; 18] = row.try_into().ok()?;
        Some(InteractionRecord {
            node: NodeId(r[0] as u32),
            flow: FlowKey::new(
                EndPoint::new(Ip(r[1] as u32), Port(r[2] as u16)),
                EndPoint::new(Ip(r[3] as u32), Port(r[4] as u16)),
            ),
            class_port: Port(r[5] as u16),
            pid: r[6] as u32,
            start_us: r[7] as u64,
            end_us: r[8] as u64,
            req_packets: r[9] as u32,
            req_bytes: r[10] as u64,
            resp_packets: r[11] as u32,
            resp_bytes: r[12] as u64,
            kernel_in_us: r[13] as u64,
            user_us: r[14] as u64,
            kernel_out_us: r[15] as u64,
            blocked_us: r[16] as u64,
            blocked_io_us: r[17] as u64,
        })
    }

    /// Every record in `rows`: rows coded under
    /// [`schema`](Self::schema), back to back.
    pub fn from_raw_rows(rows: &[i64]) -> impl Iterator<Item = InteractionRecord> + '_ {
        let record = |row| Self::from_raw_row(row).expect("a whole row");
        rows.chunks_exact(18).map(record)
    }
}

/// A per-node load report published by the dissemination daemon — the
/// signal RA-DWCS uses for dispatch decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadRecord {
    /// Reporting node.
    pub node: NodeId,
    /// Wall time of the report, µs.
    pub wall_us: u64,
    /// CPU busy fraction over the report window.
    pub cpu_utilization: f64,
    /// Mean per-interaction kernel time over the window, µs.
    pub mean_kernel_us: f64,
    /// Interactions completed in the window.
    pub interactions: u64,
    /// Monitoring overhead CPU time in the window, µs.
    pub monitor_us: u64,
}

impl LoadRecord {
    /// The PBIO schema for load records.
    pub fn schema() -> Schema {
        Schema::build("sysprof.load")
            .field("node", FieldType::U64)
            .field("wall_us", FieldType::U64)
            .field("cpu_utilization", FieldType::F64)
            .field("mean_kernel_us", FieldType::F64)
            .field("interactions", FieldType::U64)
            .field("monitor_us", FieldType::U64)
            .finish()
            .expect("static schema is valid")
    }

    /// Encodes as a raw row (see [`InteractionRecord::to_raw_row`]):
    /// integers as-is, doubles as their IEEE-754 bits.
    pub fn to_raw_row(&self, out: &mut Vec<i64>) {
        out.clear();
        out.extend_from_slice(&[
            self.node.0 as i64,
            self.wall_us as i64,
            self.cpu_utilization.to_bits() as i64,
            self.mean_kernel_us.to_bits() as i64,
            self.interactions as i64,
            self.monitor_us as i64,
        ]);
    }

    /// Inverse of [`to_raw_row`](Self::to_raw_row), for a row coded under
    /// [`schema`](Self::schema); `None` if it is not one value per field.
    pub fn from_raw_row(row: &[i64]) -> Option<LoadRecord> {
        let r: &[i64; 6] = row.try_into().ok()?;
        Some(LoadRecord {
            node: NodeId(r[0] as u32),
            wall_us: r[1] as u64,
            cpu_utilization: f64::from_bits(r[2] as u64),
            mean_kernel_us: f64::from_bits(r[3] as u64),
            interactions: r[4] as u64,
            monitor_us: r[5] as u64,
        })
    }

    /// Every record in `rows`: rows coded under
    /// [`schema`](Self::schema), back to back.
    pub fn from_raw_rows(rows: &[i64]) -> impl Iterator<Item = LoadRecord> + '_ {
        let record = |row| Self::from_raw_row(row).expect("a whole row");
        rows.chunks_exact(6).map(record)
    }

    /// The wall time as a [`SimTime`].
    pub fn wall(&self) -> SimTime {
        SimTime::from_micros(self.wall_us)
    }
}

/// Aggregate view of one service class on one node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassSummary {
    /// Measuring node.
    pub node: NodeId,
    /// Responder-side port.
    pub class_port: Port,
    /// Interactions observed.
    pub count: u64,
    /// Mean inbound kernel time, µs.
    pub mean_kernel_in_us: f64,
    /// Mean user time, µs.
    pub mean_user_us: f64,
    /// Mean outbound kernel time, µs.
    pub mean_kernel_out_us: f64,
    /// Mean blocked time, µs.
    pub mean_blocked_us: f64,
    /// Mean total latency, µs.
    pub mean_total_us: f64,
    /// Median total latency, µs (log-scale histogram estimate).
    pub p50_total_us: f64,
    /// 95th-percentile total latency, µs.
    pub p95_total_us: f64,
    /// 99th-percentile total latency, µs.
    pub p99_total_us: f64,
}

/// The statistic SysProf keeps per service class — the LPA per flush
/// window, the GPA per `(node, class)` — and reads as a [`ClassSummary`]:
/// an interaction count, the mean of each attributed time and of total
/// latency, and a histogram of total latency.
///
/// It keeps what the summary reads and nothing else. The means take
/// [`OnlineStats`](simcore::stats::OnlineStats)' Welford steps in its
/// operation order, so they are
/// its means bit for bit; every input is a `u64` cast, always finite, so
/// one count serves all five.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassStats {
    count: u64,
    /// Kernel-in, user, kernel-out, blocked and total time, µs.
    means: [f64; 5],
    total_hist: Histogram,
}

impl ClassStats {
    /// Adds one interaction.
    pub(crate) fn record(&mut self, rec: &InteractionRecord) {
        let total = rec.end_us.saturating_sub(rec.start_us) as f64;
        let times = [
            rec.kernel_in_us as f64,
            rec.user_us as f64,
            rec.kernel_out_us as f64,
            rec.blocked_us as f64,
            total,
        ];
        self.count += 1;
        let n = self.count as f64;
        for (mean, x) in self.means.iter_mut().zip(times) {
            *mean += (x - *mean) / n;
        }
        self.total_hist.record(total);
    }

    /// Adds every interaction `other` holds: the count and histogram bins
    /// exactly, means by parallel Welford.
    pub(crate) fn merge(&mut self, other: &ClassStats) {
        self.total_hist.merge(&other.total_hist);
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            (self.count, self.means) = (other.count, other.means);
            return;
        }
        let total = self.count + other.count;
        for (mean, theirs) in self.means.iter_mut().zip(other.means) {
            *mean += (theirs - *mean) * other.count as f64 / total as f64;
        }
        self.count = total;
    }

    /// The statistic as `class_port`'s on `node`; all zeros when empty.
    pub(crate) fn summary(&self, node: NodeId, class_port: Port) -> ClassSummary {
        let total_at = |p| self.total_hist.percentile(p).unwrap_or(0.0);
        let [kernel_in, user, kernel_out, blocked, total] = self.means;
        ClassSummary {
            node,
            class_port,
            count: self.count,
            mean_kernel_in_us: kernel_in,
            mean_user_us: user,
            mean_kernel_out_us: kernel_out,
            mean_blocked_us: blocked,
            mean_total_us: total,
            p50_total_us: total_at(50.0),
            p95_total_us: total_at(95.0),
            p99_total_us: total_at(99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::stats::OnlineStats;

    fn sample() -> InteractionRecord {
        InteractionRecord {
            node: NodeId(3),
            flow: FlowKey::new(
                EndPoint::new(Ip(0x0A000001), Port(40001)),
                EndPoint::new(Ip(0x0A000002), Port(2049)),
            ),
            class_port: Port(2049),
            pid: 17,
            start_us: 1_000_000,
            end_us: 1_002_500,
            req_packets: 6,
            req_bytes: 8_400,
            resp_packets: 1,
            resp_bytes: 190,
            kernel_in_us: 700,
            user_us: 120,
            kernel_out_us: 80,
            blocked_us: 1_500,
            blocked_io_us: 1_400,
        }
    }

    #[test]
    fn interaction_raw_row_round_trip() {
        let rec = sample();
        let mut row = Vec::new();
        rec.to_raw_row(&mut row);
        assert_eq!(row.len(), InteractionRecord::schema().len());
        assert_eq!(InteractionRecord::from_raw_row(&row), Some(rec));
    }

    #[test]
    fn interaction_derived_metrics() {
        let rec = sample();
        assert_eq!(rec.total(), SimDuration::from_micros(2_500));
    }

    #[test]
    fn from_raw_row_rejects_wrong_arity() {
        let mut row = Vec::new();
        sample().to_raw_row(&mut row);
        assert!(InteractionRecord::from_raw_row(&[]).is_none());
        assert!(InteractionRecord::from_raw_row(&row[1..]).is_none());
        assert!(LoadRecord::from_raw_row(&row).is_none());
    }

    #[test]
    fn binary_encoding_beats_text_by_an_order_of_magnitude() {
        // The paper's argument against XML-based formats (Common Base
        // Event / HP OpenView): per-record costs must be near raw-struct
        // size. Compare the PBIO wire size against the JSON rendering of
        // the same record.
        let rec = sample();
        let schema = InteractionRecord::schema();
        let mut row = Vec::new();
        rec.to_raw_row(&mut row);
        let mut w = pbio::RecordWriter::new(&schema);
        for v in pbio::row_to_values(&schema, &row).unwrap() {
            w.push_value(&v).unwrap();
        }
        let binary = w.finish().unwrap();
        let json = serde_json::to_vec(&rec).unwrap();
        assert!(
            binary.len() * 5 < json.len(),
            "binary {}B vs text {}B",
            binary.len(),
            json.len()
        );
        assert!(
            binary.len() < 64,
            "a record fits in a cache line: {}B",
            binary.len()
        );
    }

    #[test]
    fn load_raw_row_round_trip() {
        let rec = LoadRecord {
            node: NodeId(2),
            wall_us: 5_000_000,
            cpu_utilization: 0.83,
            mean_kernel_us: 412.5,
            interactions: 230,
            monitor_us: 1_200,
        };
        let mut row = Vec::new();
        rec.to_raw_row(&mut row);
        let back = LoadRecord::from_raw_row(&row).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.wall(), SimTime::from_secs(5));
        assert_eq!(row[2], 0.83f64.to_bits() as i64);
    }

    fn bins(h: &Histogram) -> Option<serde_json::Value> {
        let json: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(h).unwrap()).unwrap();
        json.get("bins").cloned()
    }

    /// Seeded stream `seed` and the points it is cut at: up to three
    /// random ones (repeats allowed) plus both ends, sorted.
    fn seeded_stream(seed: u64) -> (Vec<InteractionRecord>, Vec<usize>) {
        let mut rng = simcore::SimRng::seed(seed);
        let len = rng.index(200);
        let mut stream = Vec::with_capacity(len);
        for _ in 0..len {
            let mut rec = sample();
            rec.start_us = rng.uniform_u64(0, 1_000_000);
            rec.end_us = rec.start_us + rng.uniform_u64(0, 100_000);
            rec.kernel_in_us = rng.uniform_u64(0, 5_000);
            rec.user_us = rng.uniform_u64(0, 50_000);
            rec.kernel_out_us = rng.uniform_u64(0, 500);
            rec.blocked_us = rng.uniform_u64(0, 20_000);
            stream.push(rec);
        }
        let mut cuts: Vec<usize> = (0..rng.index(4)).map(|_| rng.index(len + 1)).collect();
        cuts.extend([0, len]);
        cuts.sort_unstable();
        (stream, cuts)
    }

    /// The form `ClassStats` had: an `OnlineStats` per time plus the
    /// histogram. What its summaries must equal bit for bit.
    #[derive(Default)]
    struct FiveOnlineStats {
        times: [OnlineStats; 5],
        total_hist: Histogram,
    }

    impl FiveOnlineStats {
        fn record(&mut self, rec: &InteractionRecord) {
            let total = rec.end_us.saturating_sub(rec.start_us) as f64;
            let times = [
                rec.kernel_in_us,
                rec.user_us,
                rec.kernel_out_us,
                rec.blocked_us,
            ];
            for (stats, x) in self.times.iter_mut().zip(times.map(|t| t as f64)) {
                stats.record(x);
            }
            self.times[4].record(total);
            self.total_hist.record(total);
        }

        fn merge(&mut self, other: &FiveOnlineStats) {
            for (stats, theirs) in self.times.iter_mut().zip(&other.times) {
                stats.merge(theirs);
            }
            self.total_hist.merge(&other.total_hist);
        }

        /// `ClassSummary`'s numbers, as raw bits, then the bins.
        fn summary(&self) -> ([u64; 9], Option<serde_json::Value>) {
            let means = self.times.each_ref().map(|s| s.mean().to_bits());
            let at = |p| self.total_hist.percentile(p).unwrap_or(0.0).to_bits();
            let (count, [a, b, c, d, e]) = (self.times[4].count(), means);
            let numbers = [count, a, b, c, d, e, at(50.0), at(95.0), at(99.0)];
            (numbers, bins(&self.total_hist))
        }
    }

    /// A `ClassStats`' summary in [`FiveOnlineStats::summary`]'s form.
    fn summary_bits(stats: &ClassStats) -> ([u64; 9], Option<serde_json::Value>) {
        let s = stats.summary(NodeId(1), Port(80));
        let numbers = [
            s.count,
            s.mean_kernel_in_us.to_bits(),
            s.mean_user_us.to_bits(),
            s.mean_kernel_out_us.to_bits(),
            s.mean_blocked_us.to_bits(),
            s.mean_total_us.to_bits(),
            s.p50_total_us.to_bits(),
            s.p95_total_us.to_bits(),
            s.p99_total_us.to_bits(),
        ];
        (numbers, bins(&stats.total_hist))
    }

    /// On 300 seeded streams, recorded whole and merged from their cut
    /// pieces (an empty piece first and last, so merges into an empty
    /// and of an empty both run), `ClassStats` is the five-`OnlineStats`
    /// form bit for bit: every summary field and every histogram bin.
    #[test]
    fn class_stats_is_the_five_online_stats_form_bit_for_bit() {
        for seed in 0..300u64 {
            let (stream, mut cuts) = seeded_stream(seed);
            cuts.insert(0, 0);
            cuts.push(stream.len());
            let mut sequential = (ClassStats::default(), FiveOnlineStats::default());
            let mut merged = (ClassStats::default(), FiveOnlineStats::default());
            for piece in cuts.windows(2) {
                let mut part = (ClassStats::default(), FiveOnlineStats::default());
                for rec in &stream[piece[0]..piece[1]] {
                    sequential.0.record(rec);
                    sequential.1.record(rec);
                    part.0.record(rec);
                    part.1.record(rec);
                }
                merged.0.merge(&part.0);
                merged.1.merge(&part.1);
            }
            for (got, want) in [sequential, merged] {
                assert_eq!(summary_bits(&got), want.summary(), "seed {seed}");
            }
        }
    }

    /// 300 seeded streams, each cut at up to three random points: the
    /// pieces' statistics merged in order are the whole stream's, counts
    /// and histogram bins exactly and means to rounding.
    #[test]
    fn merged_class_stats_match_the_sequential_record() {
        for seed in 0..300u64 {
            let (stream, cuts) = seeded_stream(seed);
            let len = stream.len();
            let (mut sequential, mut merged) = (ClassStats::default(), ClassStats::default());
            for piece in cuts.windows(2) {
                let mut part = ClassStats::default();
                for rec in &stream[piece[0]..piece[1]] {
                    sequential.record(rec);
                    part.record(rec);
                }
                merged.merge(&part);
            }
            let (s, m) = (
                sequential.summary(NodeId(1), Port(80)),
                merged.summary(NodeId(1), Port(80)),
            );
            assert_eq!((m.count, s.count), (len as u64, len as u64), "seed {seed}");
            assert_eq!(bins(&merged.total_hist), bins(&sequential.total_hist));
            assert_eq!(merged.total_hist.count(), s.count);
            for (got, want) in [
                (m.mean_kernel_in_us, s.mean_kernel_in_us),
                (m.mean_user_us, s.mean_user_us),
                (m.mean_kernel_out_us, s.mean_kernel_out_us),
                (m.mean_blocked_us, s.mean_blocked_us),
                (m.mean_total_us, s.mean_total_us),
            ] {
                assert!((got - want).abs() < 1e-9, "seed {seed}: {got} vs {want}");
            }
            assert_eq!(
                (m.p50_total_us, m.p99_total_us),
                (s.p50_total_us, s.p99_total_us)
            );
        }
    }

    #[test]
    fn schemas_are_filterable() {
        // Every numeric field must be visible to E-Code filters: no Str
        // fields in the hot-path schemas.
        for schema in TOPICS.map(|(_, schema)| schema()) {
            for f in schema.fields() {
                assert!(
                    matches!(f.ty, FieldType::U64 | FieldType::F64),
                    "{} has non-numeric field {}",
                    schema.name(),
                    f.name
                );
            }
        }
    }
}
