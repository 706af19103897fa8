//! The Global Performance Analyzer.
//!
//! "The Global Performance Analyzer aggregates and correlates the data it
//! receives from different SysProf daemons. Specifically, it correlates
//! the source and destination IP addresses, port information, and NTP
//! timestamps in the logs from different nodes. After aggregating the
//! resource usage of each individual interaction, GPA computes the
//! overall performance of the associated request-response pair. Other
//! nodes in the system can query the GPA … The GPA periodically dumps its
//! information onto local disk." (§2)

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

use pubsub::control::ControlMsg;
use pubsub::digest::{DigestStats, ShardedDigest};
use pubsub::reliable::{Receiver, GAP_NACK_LIMIT};
use pubsub::PubSubError;
use serde::{Deserialize, Serialize};
use simcore::stats::OnlineStats;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{EndPoint, Ip, Port};
use simos::{KernelOutput, KernelSend, KernelSink, Message};

use crate::cost;
use crate::daemon::CONTROL_PORT;
use crate::records::{
    ClassStats, ClassSummary, InteractionRecord, LoadRecord, INTERACTION, LOAD, TOPICS,
};

/// GPA configuration.
#[derive(Debug, Clone, Copy)]
pub struct GpaConfig {
    /// Worst-case cross-node clock error the correlator must absorb
    /// (choose ≥ the deployed `ClockSpec` bound; the paper's testbed is
    /// NTP-disciplined).
    pub clock_error_bound: SimDuration,
    /// Cap on retained interaction records, and separately on retained
    /// load reports (oldest evicted first, each eviction counted in
    /// [`GpaStats::records_evicted`]).
    pub max_records: usize,
}

impl Default for GpaConfig {
    fn default() -> Self {
        GpaConfig {
            clock_error_bound: SimDuration::from_millis(1),
            max_records: 1_000_000,
        }
    }
}

/// Reliable-delivery counters on the GPA's receive side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpaStats {
    /// Sequenced batches received (before dedup/reordering).
    pub batches_received: u64,
    /// Batches discarded as already-delivered duplicates.
    pub duplicate_batches: u64,
    /// Batches that arrived ahead of a gap and were buffered.
    pub out_of_order: u64,
    /// Batches dropped for being [`pubsub::reliable::REORDER_WINDOW`] or
    /// more ahead of the next expected sequence number, or for not
    /// fitting in what is left of the stream's
    /// [`pubsub::reliable::REORDER_BYTES`].
    pub out_of_window: u64,
    /// Distinct gaps observed (a missing sequence range opened).
    pub gaps_detected: u64,
    /// Gaps closed by a retransmission arriving.
    pub gaps_recovered: u64,
    /// Gaps given up on after [`pubsub::reliable::GAP_NACK_LIMIT`]
    /// unanswered NACKs; the stream skipped past them.
    pub gaps_abandoned: u64,
    /// Data NACKs sent back to daemons.
    pub nacks_sent: u64,
    /// Cumulative data ACKs sent back to daemons.
    pub acks_sent: u64,
    /// Records (interaction or load) dropped from the old end of their
    /// retained window because it was at [`GpaConfig::max_records`].
    /// They stay in the class statistics, load statistics and digest;
    /// only the per-record history lets go of them.
    pub records_evicted: u64,
    /// Subscribe NACKs dropped from the old end of
    /// [`Gpa::subscription_failures`] because it was at
    /// [`GpaConfig::max_records`] (a daemon can send them without limit).
    pub subscription_failures_evicted: u64,
    /// Entries dropped from the old end of [`Gpa::delivery_log`], likewise.
    pub deliveries_evicted: u64,
    /// Interaction records stored and correlated but left out of the
    /// class statistics: their `(node, class)` arrived with the table
    /// already at its cap of 4,096 (both come off the wire).
    pub classes_refused: u64,
    /// Batches refused unread: they came from a new source endpoint
    /// with [`pubsub::reliable::MAX_SOURCES`] streams already open.
    pub sources_refused: u64,
    /// Load reports kept in [`Gpa::load_history`] but left out of the
    /// per-node load views: their node arrived with the views already at
    /// their cap of 4,096 nodes (the node comes off the wire).
    pub load_nodes_refused: u64,
}

/// The most `(node, class)` statistics the GPA keeps, each up to a few
/// KB of histogram: a sender varying either field cannot grow it further.
const MAX_CLASSES: usize = 4_096;
/// The most nodes the GPA keeps a load view of, for the same reason.
const MAX_LOAD_NODES: usize = 4_096;

/// A [`Window`] drops its evicted prefix once that is longer than its
/// cap over this: an eviction then costs two item moves amortised, and
/// the backing `Vec` never holds more than 1.5 × cap + 1 items.
const COMPACT_DIVISOR: usize = 2;

/// The most recent items pushed, oldest evicted first, readable as one
/// contiguous slice in push order.
///
/// Invariant: `items[head..]` is the retained window and `items[..head]`
/// is evicted, awaiting compaction, with `head <= cap / COMPACT_DIVISOR`.
struct Window<T> {
    items: Vec<T>,
    head: usize,
}

impl<T> Window<T> {
    fn new() -> Self {
        Window {
            items: Vec::new(),
            head: 0,
        }
    }

    /// Appends `item`. Returns whether that took the window past `cap`
    /// and evicted its oldest item.
    fn push(&mut self, item: T, cap: usize) -> bool {
        self.items.push(item);
        if self.items.len() - self.head <= cap {
            return false;
        }
        self.head += 1;
        if self.head > cap / COMPACT_DIVISOR {
            self.items.drain(..self.head);
            self.head = 0;
        }
        true
    }

    fn as_slice(&self) -> &[T] {
        &self.items[self.head..]
    }
}

/// Latest load information about one node, with history statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeLoadView {
    /// The most recent report.
    pub latest: LoadRecord,
    /// Mean CPU utilization across all reports.
    pub mean_utilization: f64,
    /// Number of reports received.
    pub reports: u64,
}

/// A cross-node correlated request path: a parent interaction (e.g.
/// client→proxy, measured at the proxy) with the child interactions
/// (e.g. proxy→server, measured at the server) nested within its time
/// span. Both point into the store [`Gpa::correlate`] was asked; no
/// record is copied.
#[derive(Debug, Clone, Serialize)]
pub struct CorrelatedPath<'a> {
    /// The enclosing interaction.
    pub parent: &'a InteractionRecord,
    /// Interactions nested inside the parent's span whose initiator is
    /// the parent's responder.
    pub children: Vec<&'a InteractionRecord>,
}

impl CorrelatedPath<'_> {
    /// Total child latency, µs (time the parent spent waiting on
    /// downstream services, as measured at those services), saturating:
    /// spans come off the wire.
    pub fn downstream_us(&self) -> u64 {
        self.children
            .iter()
            .map(|c| c.end_us.saturating_sub(c.start_us))
            .fold(0, u64::saturating_add)
    }
}

/// A subscribe request a remote daemon rejected (received as a NACK).
///
/// Surfaced by [`Gpa::subscription_failures`] so operators see *why* a
/// node is silent instead of debugging missing data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriptionFailure {
    /// Topic of the rejected subscribe.
    pub topic: String,
    /// The subscriber endpoint the rejected request named.
    pub subscriber: EndPoint,
    /// The daemon that rejected it.
    pub from: EndPoint,
    /// Rendered verifier diagnostics (one string per finding).
    pub diagnostics: Vec<String>,
}

/// The global analyzer state. Wrap in `Rc<RefCell<…>>` and hand a clone
/// to [`GpaSink`]; keep a clone for queries.
pub struct Gpa {
    config: GpaConfig,
    records: Window<InteractionRecord>,
    by_class: simcore::hash::HashMap<(NodeId, Port), ClassStats>,
    /// Per node: the latest report, its utilization statistic and the
    /// number of reports (capped at [`MAX_LOAD_NODES`] nodes).
    load_views: HashMap<NodeId, (LoadRecord, OnlineStats, u64)>,
    load_history: Window<LoadRecord>,
    /// The receive half of every daemon's stream.
    rx: Receiver,
    /// The store's own counters; [`Gpa::gpa_stats`] adds the receiver's.
    gstats: GpaStats,
    /// Every in-order batch delivery `(source, seq)`, the last
    /// [`GpaConfig::max_records`] of them: what the in-order audit reads.
    delivery_log: Window<(EndPoint, u64)>,
    ingested: u64,
    subscription_failures: Window<SubscriptionFailure>,
    /// Optional sharded digest evaluated over every ingested interaction
    /// record (the first slice of the sharded GPA).
    digest: Option<ShardedDigest>,
    /// Reusable scratch: the rows of the records being ingested,
    /// contiguous as the digest takes them, and the digest shard key of
    /// each.
    rows: Vec<i64>,
    keys: Vec<u64>,
}

/// Deterministic digest partition key for an interaction: both
/// endpoints of the flow, mixed so that src/dst asymmetry matters. The
/// digest hashes this again (FNV-1a) for shard placement; all that is
/// required here is that the key is a pure function of the flow, so a
/// flow's records always land on the same replica. Public so benches
/// driving a `ShardedDigest` directly dispatch records exactly as the
/// GPA would.
pub fn flow_shard_key(rec: &InteractionRecord) -> u64 {
    let ep = |e: &EndPoint| ((e.ip.0 as u64) << 16) | e.port.0 as u64;
    ep(&rec.flow.src).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ep(&rec.flow.dst)
}

impl Gpa {
    /// An empty GPA.
    pub fn new(config: GpaConfig) -> Self {
        Gpa {
            config,
            records: Window::new(),
            by_class: simcore::hash::HashMap::default(),
            load_views: HashMap::new(),
            load_history: Window::new(),
            rx: Receiver::new(
                TOPICS.iter().map(|(_, schema)| schema()).collect(),
                GAP_NACK_LIMIT,
            ),
            gstats: GpaStats::default(),
            delivery_log: Window::new(),
            ingested: 0,
            subscription_failures: Window::new(),
            digest: None,
            rows: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Installs a digest program evaluated over every ingested
    /// interaction record, partitioned across `shards` replica instances
    /// by flow key. The program sees the interaction schema's fields as
    /// E-Code inputs; if the verifier cannot prove its statics
    /// shard-safe, evaluation silently falls back to a single instance
    /// (check [`Gpa::digest_stats`]).
    pub fn install_digest(&mut self, src: &str, shards: usize) -> Result<(), PubSubError> {
        let schema = InteractionRecord::schema();
        self.digest = Some(ShardedDigest::compile(src, &schema, shards)?);
        Ok(())
    }

    /// The installed digest, if any.
    pub fn digest(&self) -> Option<&ShardedDigest> {
        self.digest.as_ref()
    }

    /// Reads a static of the installed digest's *merged* state by name.
    pub fn digest_global(&self, name: &str) -> Option<ecode::Value> {
        self.digest.as_ref()?.merged_global(name)
    }

    /// Evaluation statistics of the installed digest.
    pub fn digest_stats(&self) -> Option<DigestStats> {
        self.digest.as_ref().map(|d| d.stats())
    }

    /// Feeds one interaction record directly (bypassing the wire path);
    /// used by tests and benches that already hold decoded records.
    pub fn ingest_record(&mut self, rec: &InteractionRecord) {
        self.store(*rec);
        if let Some(digest) = self.digest.as_mut() {
            digest.ingest_raw(flow_shard_key(rec), &rec.raw_row());
        }
    }

    /// Feeds a batch of interaction records; the digest takes their
    /// rows a chunk at a time, not a call per record.
    pub fn ingest_records<'a, I>(&mut self, recs: I)
    where
        I: IntoIterator<Item = &'a InteractionRecord>,
    {
        // Bounds the staging buffers however long `recs` is.
        const CHUNK: usize = 4096;
        self.rows.clear();
        self.keys.clear();
        for rec in recs {
            self.store(*rec);
            if let Some(digest) = self.digest.as_mut() {
                self.rows.extend_from_slice(&rec.raw_row());
                self.keys.push(flow_shard_key(rec));
                if self.keys.len() == CHUNK {
                    digest.ingest_raw_rows(&self.keys, &self.rows);
                    self.rows.clear();
                    self.keys.clear();
                }
            }
        }
        if let Some(digest) = self.digest.as_mut() {
            digest.ingest_raw_rows(&self.keys, &self.rows);
        }
    }

    /// Runs one wire batch from a daemon through its stream's
    /// [`Receiver`] — sequence header, exactly-once in-order delivery,
    /// gap repair — and ingests what is delivered. `self_ep` is this
    /// GPA's data endpoint, named in the replies (a gap NACK when a hole
    /// is visible, then the cumulative ACK) so the daemon knows which
    /// subscription stream they govern.
    ///
    /// Input whose sequence header does not parse is a decode failure:
    /// nothing is ingested and nothing is replied.
    ///
    /// Returns `(records_decoded, replies)`.
    pub fn ingest_wire(
        &mut self,
        now_wall: SimTime,
        self_ep: EndPoint,
        src: EndPoint,
        data: &[u8],
    ) -> (usize, Vec<ControlMsg>) {
        self.with_rx(|gpa, rx| {
            rx.ingest(now_wall, self_ep, src, data, &mut |seq, rows| {
                gpa.ingest_batch(src, seq, rows)
            })
        })
    }

    /// Lends the receiver out beside the store it delivers into.
    fn with_rx<R>(&mut self, f: impl FnOnce(&mut Gpa, &mut Receiver) -> R) -> R {
        let mut rx = std::mem::take(&mut self.rx);
        let out = f(self, &mut rx);
        self.rx = rx;
        out
    }

    /// The receive half of every daemon's stream.
    pub fn receiver(&self) -> &Receiver {
        &self.rx
    }

    /// Reliable-delivery counters.
    pub fn gpa_stats(&self) -> GpaStats {
        GpaStats {
            batches_received: self.rx.batches_received,
            duplicate_batches: self.rx.duplicate_batches,
            out_of_order: self.rx.out_of_order,
            out_of_window: self.rx.out_of_window,
            gaps_detected: self.rx.gaps_detected,
            gaps_recovered: self.rx.gaps_recovered,
            gaps_abandoned: self.rx.gaps_abandoned,
            nacks_sent: self.rx.nacks_sent,
            acks_sent: self.rx.acks_sent,
            sources_refused: self.rx.sources_refused,
            ..self.gstats
        }
    }

    /// Whether every stream has fully converged: no open gaps and no
    /// out-of-order batches still buffered. True once retransmissions
    /// (or abandonments) have caught the GPA up after a fault episode.
    pub fn streams_converged(&self) -> bool {
        self.rx.converged()
    }

    /// In-order `(source, seq)` batch deliveries, oldest first: the
    /// last [`GpaConfig::max_records`] of them (the older ones are counted
    /// in [`GpaStats::deliveries_evicted`]).
    pub fn delivery_log(&self) -> &[(EndPoint, u64)] {
        self.delivery_log.as_slice()
    }

    /// Ingests one delivered batch: `rows` as
    /// [`Receiver::ingest`] sorts them. Interaction rows arrive in one
    /// contiguous buffer: each becomes a typed record for the store, and
    /// the buffer itself goes to the digest in one call.
    fn ingest_batch(&mut self, src: EndPoint, seq: u64, rows: &[Vec<i64>]) {
        let evicted = self.delivery_log.push((src, seq), self.config.max_records);
        self.gstats.deliveries_evicted += u64::from(evicted);
        self.keys.clear();
        for rec in InteractionRecord::from_raw_rows(&rows[INTERACTION]) {
            if self.digest.is_some() {
                self.keys.push(flow_shard_key(&rec));
            }
            self.store(rec);
        }
        for load in LoadRecord::from_raw_rows(&rows[LOAD]) {
            self.ingested += 1;
            let full = self.load_views.len() >= MAX_LOAD_NODES;
            let view = match self.load_views.entry(load.node) {
                Entry::Occupied(view) => Some(view.into_mut()),
                Entry::Vacant(slot) if !full => Some(slot.insert((load, OnlineStats::new(), 0))),
                Entry::Vacant(_) => None,
            };
            match view {
                Some((latest, stats, reports)) => {
                    *latest = load;
                    stats.record(load.cpu_utilization);
                    *reports += 1;
                }
                None => self.gstats.load_nodes_refused += 1,
            }
            let evicted = self.load_history.push(load, self.config.max_records);
            self.gstats.records_evicted += u64::from(evicted);
        }
        if let Some(digest) = self.digest.as_mut() {
            digest.ingest_raw_rows(&self.keys, &rows[INTERACTION]);
        }
    }

    /// Adds one interaction to the store and its class statistics — the
    /// single path behind both the wire decoder and the direct record
    /// entry points. Inlined into each of its three callers: left out of
    /// line, it cost `gpa_wire` about 9 %.
    #[inline(always)]
    fn store(&mut self, rec: InteractionRecord) {
        self.ingested += 1;
        let full = self.by_class.len() >= MAX_CLASSES;
        match self.by_class.entry((rec.node, rec.class_port)) {
            Entry::Occupied(stats) => stats.into_mut().record(&rec),
            Entry::Vacant(slot) if !full => slot.insert(ClassStats::default()).record(&rec),
            Entry::Vacant(_) => self.gstats.classes_refused += 1,
        }
        let evicted = self.records.push(rec, self.config.max_records);
        self.gstats.records_evicted += u64::from(evicted);
    }

    /// Interaction records currently retained: everything ingested up
    /// to [`GpaConfig::max_records`], the most recent that many after.
    pub fn interaction_count(&self) -> u64 {
        self.interactions().len() as u64
    }

    /// Records that failed to decode or match a known schema.
    pub fn decode_failures(&self) -> u64 {
        self.rx.decode_failures
    }

    /// Subscribe requests remote daemons rejected (NACKs received), with
    /// the verifier diagnostics explaining each rejection.
    pub fn subscription_failures(&self) -> &[SubscriptionFailure] {
        self.subscription_failures.as_slice()
    }

    /// Records a NACK received from a daemon (called by
    /// [`ControlReplySink`]).
    pub fn record_subscription_failure(&mut self, failure: SubscriptionFailure) {
        let evicted = self
            .subscription_failures
            .push(failure, self.config.max_records);
        self.gstats.subscription_failures_evicted += u64::from(evicted);
    }

    /// All retained interaction records (ingest order).
    pub fn interactions(&self) -> &[InteractionRecord] {
        self.records.as_slice()
    }

    /// Interactions measured on `node` for `class_port`.
    pub fn interactions_of(&self, node: NodeId, class_port: Port) -> Vec<&InteractionRecord> {
        self.interactions()
            .iter()
            .filter(|r| r.node == node && r.class_port == class_port)
            .collect()
    }

    /// Aggregate summary for one (node, class) pair, if any interactions
    /// were seen.
    pub fn class_summary(&self, node: NodeId, class_port: Port) -> Option<ClassSummary> {
        let stats = self.by_class.get(&(node, class_port))?;
        Some(stats.summary(node, class_port))
    }

    /// The summaries of a tier's `(node, class)` members, in member order
    /// — what [`crate::detect`] reads. A member never heard from has an
    /// empty summary.
    pub fn tier(&self, members: impl IntoIterator<Item = (NodeId, Port)>) -> Vec<ClassSummary> {
        let empty = ClassStats::default();
        let summary = |(node, class)| {
            let stats = self.by_class.get(&(node, class)).unwrap_or(&empty);
            stats.summary(node, class)
        };
        members.into_iter().map(summary).collect()
    }

    /// Every (node, class) summary, sorted.
    pub fn all_class_summaries(&self) -> Vec<ClassSummary> {
        let mut keys: Vec<_> = self.by_class.keys().copied().collect();
        keys.sort();
        keys.into_iter()
            .filter_map(|(n, p)| self.class_summary(n, p))
            .collect()
    }

    /// The load view for one node.
    pub fn node_load(&self, node: NodeId) -> Option<NodeLoadView> {
        let (latest, stats, reports) = self.load_views.get(&node)?;
        Some(NodeLoadView {
            latest: *latest,
            mean_utilization: stats.mean(),
            reports: *reports,
        })
    }

    /// The retained load reports (the most recent
    /// [`GpaConfig::max_records`]), in arrival order.
    pub fn load_history(&self) -> &[LoadRecord] {
        self.load_history.as_slice()
    }

    /// Correlates interactions across nodes into end-to-end paths.
    ///
    /// Every retained record is a candidate parent and a candidate
    /// child. `child` belongs to `parent` when it was measured on a
    /// different node, its initiator IP is the parent's responder IP,
    /// and its span nests in the parent's widened by the configured
    /// clock-error bound `eps`: `child.start_us >= parent.start_us - eps`
    /// and `child.end_us <= parent.end_us + eps`, both saturating at the
    /// ends of `u64`. Nothing else is compared: not ports, not
    /// direction, not which side measured.
    ///
    /// Returns one path per parent that has a child, parents in ingest
    /// order, each parent's children in ingest order. The paths borrow
    /// the retained records.
    ///
    /// O(n log n + candidates examined) over n retained records: an
    /// index built and dropped inside the call, searched once per
    /// parent and swept only across the children that start inside the
    /// parent's widened span. Records with `end_us < start_us` (only a
    /// hostile or broken sender produces one) are each compared with
    /// every parent.
    pub fn correlate(&self) -> Vec<CorrelatedPath<'_>> {
        let eps = self.config.clock_error_bound.as_micros();
        sweep(self.interactions(), eps).0
    }

    /// Serializes the GPA's state summary as JSON — the periodic "dump …
    /// onto local disk" used for auditing and capacity planning.
    pub fn dump_json(&self) -> String {
        #[derive(Serialize)]
        #[allow(dead_code)] // fields are read only through the Serialize derive
        struct Dump<'a> {
            interaction_count: u64,
            class_summaries: Vec<ClassSummary>,
            load_history: &'a [LoadRecord],
        }
        serde_json::to_string_pretty(&Dump {
            interaction_count: self.interaction_count(),
            class_summaries: self.all_class_summaries(),
            load_history: self.load_history(),
        })
        .expect("dump serializes")
    }
}

/// The predicate of [`Gpa::correlate`].
fn nests(parent: &InteractionRecord, child: &InteractionRecord, eps: u64) -> bool {
    child.node != parent.node
        && child.flow.src.ip == parent.flow.dst.ip
        && child.start_us >= parent.start_us.saturating_sub(eps)
        && child.end_us <= parent.end_us.saturating_add(eps)
}

/// One candidate child in [`sweep`]'s index: initiator IP, start and
/// ingest position packed so that one integer compare orders by all
/// three, in that order.
fn key(ip: Ip, start_us: u64, index: u32) -> u128 {
    (u128::from(ip.0) << 96) | (u128::from(start_us) << 32) | u128::from(index)
}

/// [`Gpa::correlate`] over `records`, and how many candidate children
/// it examined to get there (what the work-bound test holds it to).
fn sweep(records: &[InteractionRecord], eps: u64) -> (Vec<CorrelatedPath<'_>>, u64) {
    // An ingest position must fit the key's low 32 bits.
    assert!(
        u32::try_from(records.len()).is_ok(),
        "correlate() indexes at most u32::MAX records, not {}",
        records.len()
    );
    // Candidate children by key. A child that nests starts no later
    // than it ends, which is no later than the parent's widened end, so
    // a sweep in start order can stop there. An inverted span breaks
    // the first step; those few are kept aside and compared with every
    // parent.
    let mut by_start = Vec::with_capacity(records.len());
    let mut inverted = Vec::new();
    for (i, rec) in (0u32..).zip(records) {
        if rec.end_us < rec.start_us {
            inverted.push(i as usize);
        } else {
            by_start.push(key(rec.flow.src.ip, rec.start_us, i));
        }
    }
    by_start.sort_unstable();

    let mut paths = Vec::new();
    let mut examined = 0u64;
    let mut found = Vec::new();
    for parent in records {
        let ip = parent.flow.dst.ip;
        let lo = parent.start_us.saturating_sub(eps);
        let hi = parent.end_us.saturating_add(eps);
        // Every key in `[first, last]` has the parent's responder IP
        // and a start in `[lo, hi]`: of `nests`, only the node and the
        // end are left to test.
        let first = by_start.partition_point(|&k| k < key(ip, lo, 0));
        let last = key(ip, hi, u32::MAX);
        found.clear();
        for &k in by_start[first..].iter().take_while(|&&k| k <= last) {
            examined += 1;
            let i = k as u32 as usize;
            let child = &records[i];
            if child.node != parent.node && child.end_us <= hi {
                found.push(i);
            }
        }
        for &i in &inverted {
            examined += 1;
            if nests(parent, &records[i], eps) {
                found.push(i);
            }
        }
        if found.is_empty() {
            continue;
        }
        // The sweep ran in start order; children are reported in ingest
        // order.
        found.sort_unstable();
        paths.push(CorrelatedPath {
            parent,
            children: found.iter().map(|&i| &records[i]).collect(),
        });
    }
    (paths, examined)
}

/// The data sink every subscriber puts around its [`Receiver`]: runs one
/// delivery from `src` through [`Receiver::ingest`], addresses the
/// replies to the publishing daemon's control port, and prices the work
/// from [`crate::cost`].
pub fn receive_stream(
    rx: &mut Receiver,
    now_wall: SimTime,
    self_ep: EndPoint,
    src: EndPoint,
    data: &[u8],
    on_batch: &mut dyn FnMut(u64, &[Vec<i64>]),
) -> KernelOutput {
    // `simos` hands a sink the late network duplicate of an already
    // delivered kernel message with its payload gone: a duplicate, not a
    // batch whose header does not parse.
    if data.is_empty() {
        rx.duplicate_batches += 1;
        return KernelOutput {
            cost: cost::GPA_RECORD,
            ..Default::default()
        };
    }
    let (n, replies) = rx.ingest(now_wall, self_ep, src, data, on_batch);
    let cost = cost::GPA_RECORD * (n as u64 + 1) + cost::GPA_REPLY * replies.len() as u64;
    let sends = replies
        .into_iter()
        .map(|msg| KernelSend {
            dst: EndPoint::new(src.ip, CONTROL_PORT),
            src_port: self_ep.port,
            kind: 0,
            data: msg.encode().into(),
        })
        .collect();
    KernelOutput {
        cost,
        sends,
        ..Default::default()
    }
}

/// The kernel sink that feeds a shared [`Gpa`] from daemon publications.
pub struct GpaSink {
    gpa: Rc<RefCell<Gpa>>,
    /// This sink's own data endpoint, named in ACK/NACK replies so the
    /// daemon knows which subscription stream they govern.
    self_ep: EndPoint,
}

impl GpaSink {
    /// A sink feeding `gpa`, listening at `self_ep`.
    pub fn new(gpa: Rc<RefCell<Gpa>>, self_ep: EndPoint) -> Self {
        GpaSink { gpa, self_ep }
    }
}

impl KernelSink for GpaSink {
    fn on_message(
        &mut self,
        now_wall: SimTime,
        _node: NodeId,
        src: EndPoint,
        _msg: Message,
        data: simos::Bytes,
    ) -> KernelOutput {
        self.gpa.borrow_mut().with_rx(|gpa, rx| {
            receive_stream(rx, now_wall, self.self_ep, src, &data, &mut |seq, rows| {
                gpa.ingest_batch(src, seq, rows)
            })
        })
    }
}

/// Receives control-plane replies (subscribe NACKs) from remote daemons
/// and records them on the shared [`Gpa`].
///
/// Installed on the GPA node at the port its subscribe requests name as
/// their source, so daemon replies route back here.
pub struct ControlReplySink {
    gpa: Rc<RefCell<Gpa>>,
}

impl ControlReplySink {
    /// A sink recording NACKs onto `gpa`.
    pub fn new(gpa: Rc<RefCell<Gpa>>) -> Self {
        ControlReplySink { gpa }
    }
}

impl KernelSink for ControlReplySink {
    fn on_message(
        &mut self,
        _now_wall: SimTime,
        _node: NodeId,
        src: EndPoint,
        _msg: Message,
        data: simos::Bytes,
    ) -> KernelOutput {
        if let Ok(pubsub::control::ControlMsg::SubscribeNack {
            topic,
            reply_to,
            diagnostics,
        }) = pubsub::control::ControlMsg::decode(&data)
        {
            self.gpa
                .borrow_mut()
                .record_subscription_failure(SubscriptionFailure {
                    topic,
                    subscriber: reply_to,
                    from: src,
                    diagnostics,
                });
        }
        KernelOutput {
            cost: cost::GPA_SUBSCRIBE_NACK,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simnet::{FlowKey, Ip};

    fn rec(
        node: u32,
        src_ip: u32,
        dst_ip: u32,
        class: u16,
        start: u64,
        end: u64,
    ) -> InteractionRecord {
        InteractionRecord {
            node: NodeId(node),
            flow: FlowKey::new(
                EndPoint::new(Ip(src_ip), Port(40000)),
                EndPoint::new(Ip(dst_ip), Port(class)),
            ),
            class_port: Port(class),
            pid: 1,
            start_us: start,
            end_us: end,
            req_packets: 1,
            req_bytes: 100,
            resp_packets: 1,
            resp_bytes: 100,
            kernel_in_us: 10,
            user_us: 5,
            kernel_out_us: 3,
            blocked_us: 0,
            blocked_io_us: 0,
        }
    }

    fn gpa_with(records: Vec<InteractionRecord>) -> Gpa {
        let mut g = Gpa::new(GpaConfig::default());
        g.ingest_records(&records);
        g
    }

    const SRC: EndPoint = EndPoint::new(Ip(1), Port(9997));

    const ME: EndPoint = EndPoint::new(Ip(99), Port(9999));

    /// A daemon's end of the channel: publishes rows through a real hub,
    /// frames them into a batch payload and seals it.
    struct Feed {
        hub: pubsub::Hub,
        batch: Vec<u8>,
        sealed: u64,
    }

    impl Feed {
        fn new() -> Feed {
            let mut hub = pubsub::Hub::new();
            let t = hub.topic("t");
            hub.subscribe(t, EndPoint::new(Ip(99), Port(9999))).unwrap();
            Feed {
                hub,
                batch: Vec::new(),
                sealed: 0,
            }
        }

        fn frame(&mut self, msg: &[u8]) {
            pubsub::frame_into(&mut self.batch, msg);
        }

        fn push(&mut self, schema: &pbio::Schema, row: &[i64]) {
            let t = self.hub.topic("t");
            let msg = self.hub.publish_raw(t, schema, row).unwrap().remove(0).1;
            self.frame(&msg);
        }

        fn push_load(&mut self, load: &LoadRecord) {
            let mut row = Vec::new();
            load.to_raw_row(&mut row);
            self.push(&LoadRecord::schema(), &row);
        }

        /// Seals the batch as the stream's next and ingests it from
        /// [`SRC`]. Returns the records decoded.
        fn ingest_into(&mut self, g: &mut Gpa) -> usize {
            self.sealed += 1;
            let wire = pubsub::reliable::encode_batch(self.sealed, &self.batch);
            self.batch.clear();
            g.ingest_wire(SimTime::from_millis(self.sealed), ME, SRC, &wire)
                .0
        }
    }

    #[test]
    fn installed_digest_folds_shards_to_the_sequential_answer() {
        let src = "
            static int seen = 0;
            static int bytes = 0;
            static int worst_us = 0;
            seen = seen + 1;
            bytes = bytes + req_bytes + resp_bytes;
            worst_us = max(worst_us, end_us - start_us);
            return 0;
        ";
        let mut sharded = Gpa::new(GpaConfig::default());
        sharded.install_digest(src, 8).unwrap();
        let mut sequential = Gpa::new(GpaConfig::default());
        sequential.install_digest(src, 1).unwrap();
        for i in 0..200u64 {
            // 16 distinct flows spread across the shards.
            let r = rec(1, 10 + (i % 16) as u32, 20, 80, i * 10, i * 10 + 7 + i % 13);
            sharded.ingest_record(&r);
            sequential.ingest_record(&r);
        }
        let stats = sharded.digest_stats().unwrap();
        assert!(stats.sharded, "{stats:?}");
        assert_eq!(stats.events, 200);
        assert!(
            stats.per_shard_events.iter().filter(|&&n| n > 0).count() > 1,
            "partitioning actually spread the flows: {stats:?}"
        );
        assert_eq!(sharded.digest_global("seen"), Some(ecode::Value::Int(200)));
        for name in ["seen", "bytes", "worst_us"] {
            assert_eq!(
                sharded.digest_global(name),
                sequential.digest_global(name),
                "{name} must fold to the sequential value"
            );
        }
    }

    #[test]
    fn class_summaries_aggregate() {
        let g = gpa_with(vec![
            rec(1, 10, 20, 80, 0, 100),
            rec(1, 10, 20, 80, 200, 400),
        ]);
        let s = g.class_summary(NodeId(1), Port(80)).unwrap();
        assert_eq!(s.count, 2);
        assert!((s.mean_total_us - 150.0).abs() < 1e-9);
        assert!(g.class_summary(NodeId(2), Port(80)).is_none());
    }

    /// A sender naming a fresh class on every record grows the class
    /// table to its cap and no further; the records past it are stored,
    /// correlated and counted, not aggregated.
    #[test]
    fn class_table_is_bounded_and_counts_what_it_refuses() {
        let recs: Vec<_> = (0..10_000u16)
            .map(|port| rec(1, 10, 20, 1 + port, 0, 100))
            .collect();
        let g = gpa_with(recs);
        assert_eq!(g.interaction_count(), 10_000);
        assert_eq!(g.all_class_summaries().len(), MAX_CLASSES);
        assert_eq!(g.gpa_stats().classes_refused, 10_000 - MAX_CLASSES as u64);
        // Classes already held keep aggregating.
        let mut g = g;
        g.ingest_record(&rec(1, 10, 20, 1, 200, 300));
        assert_eq!(g.class_summary(NodeId(1), Port(1)).unwrap().count, 2);
        assert_eq!(g.gpa_stats().classes_refused, 10_000 - MAX_CLASSES as u64);
    }

    /// A sender naming a fresh source endpoint on every batch opens
    /// streams up to the receiver's cap and no further; the batches past
    /// it are refused unread and counted, and the streams already open
    /// keep delivering.
    #[test]
    fn source_table_is_bounded_and_counts_what_it_refuses() {
        use pubsub::reliable::{encode_batch, MAX_SOURCES};
        let mut g = Gpa::new(GpaConfig::default());
        let mut row = Vec::new();
        rec(1, 10, 20, 80, 0, 100).to_raw_row(&mut row);
        let mut feed = Feed::new();
        feed.push(&InteractionRecord::schema(), &row);
        let first = encode_batch(1, &feed.batch);
        feed.batch.clear();
        feed.push(&InteractionRecord::schema(), &row);
        let second = encode_batch(2, &feed.batch);
        for i in 0..10_000u32 {
            let src = EndPoint::new(Ip(1_000 + i), Port(9997));
            let (n, replies) = g.ingest_wire(SimTime::ZERO, ME, src, &first);
            let open = (i as usize) < MAX_SOURCES;
            assert_eq!((n, replies.len()), if open { (1, 1) } else { (0, 0) });
        }
        assert_eq!(g.receiver().streams().len(), MAX_SOURCES);
        assert_eq!(g.interaction_count(), MAX_SOURCES as u64);
        let s = g.gpa_stats();
        assert_eq!(s.sources_refused, 10_000 - MAX_SOURCES as u64);
        assert_eq!(s.batches_received, MAX_SOURCES as u64);
        assert_eq!(g.decode_failures(), 0);
        assert!(format!("{s:?}").ends_with(", sources_refused: 8976, load_nodes_refused: 0 }"));
        let open = EndPoint::new(Ip(1_000), Port(9997));
        assert_eq!(g.ingest_wire(SimTime::ZERO, ME, open, &second).0, 1);
    }

    /// A sender naming a fresh node in every load report grows the load
    /// views to their cap and no further; the reports past it are kept
    /// in the history and counted, and the nodes already held keep
    /// updating.
    #[test]
    fn load_views_are_bounded_and_count_what_they_refuse() {
        let report = |node: u32, wall_us: u64| LoadRecord {
            node: NodeId(node),
            wall_us,
            cpu_utilization: 0.5,
            mean_kernel_us: 10.0,
            interactions: 3,
            monitor_us: 1,
        };
        let mut g = Gpa::new(GpaConfig::default());
        let mut feed = Feed::new();
        for node in 0..10_000u32 {
            feed.push_load(&report(node, 1_000));
        }
        assert_eq!(feed.ingest_into(&mut g), 10_000);
        assert_eq!(g.load_views.len(), MAX_LOAD_NODES);
        assert_eq!(g.gpa_stats().load_nodes_refused, 5_904);
        assert_eq!(g.load_history().len(), 10_000);
        assert!(g.node_load(NodeId(MAX_LOAD_NODES as u32 - 1)).is_some());
        assert!(g.node_load(NodeId(MAX_LOAD_NODES as u32)).is_none());
        feed.push_load(&report(0, 2_000));
        feed.ingest_into(&mut g);
        let view = g.node_load(NodeId(0)).unwrap();
        assert_eq!((view.latest.wall_us, view.reports), (2_000, 2));
        assert_eq!(g.gpa_stats().load_nodes_refused, 5_904);
    }

    #[test]
    fn correlation_nests_by_ip_and_time() {
        // Parent: client(10)→proxy(20), measured at proxy (node 1),
        // span [1000, 9000].
        // Child: proxy(20)→server(30), measured at server (node 2),
        // span [2000, 8000] — nests, initiator ip matches.
        let parent = rec(1, 10, 20, 2049, 1_000, 9_000);
        let child = rec(2, 20, 30, 2049, 2_000, 8_000);
        let stranger = rec(2, 99, 30, 2049, 2_000, 8_000); // wrong initiator
        let late = rec(2, 20, 30, 2049, 2_000, 20_000); // doesn't nest
        let g = gpa_with(vec![parent, child, stranger, late]);
        let paths = g.correlate();
        assert_eq!(paths.len(), 1);
        assert_eq!(*paths[0].parent, parent);
        assert_eq!(paths[0].children, vec![&child]);
        assert_eq!(paths[0].downstream_us(), 6_000);
    }

    #[test]
    fn correlation_absorbs_clock_error() {
        // Child starts 500 µs "before" the parent by its skewed clock;
        // the 1 ms default bound forgives it.
        let parent = rec(1, 10, 20, 80, 1_000, 9_000);
        let child = rec(2, 20, 30, 80, 600, 8_900);
        let g = gpa_with(vec![parent, child]);
        assert_eq!(g.correlate().len(), 1);

        // Beyond the bound, correlation refuses.
        let parent = rec(1, 10, 20, 80, 10_000, 19_000);
        let child = rec(2, 20, 30, 80, 8_000, 18_000);
        let g2 = gpa_with(vec![parent, child]);
        assert_eq!(g2.correlate().len(), 0);
    }

    #[test]
    fn load_views_track_latest_and_mean() {
        // A cap of 2 on 3 reports: the views cover all of them, the
        // history the last two.
        let mut g = Gpa::new(GpaConfig {
            max_records: 2,
            ..GpaConfig::default()
        });
        let mut feed = Feed::new();
        for (i, util) in [0.2, 0.4, 0.9].iter().enumerate() {
            feed.push_load(&LoadRecord {
                node: NodeId(5),
                wall_us: i as u64 * 1000,
                cpu_utilization: *util,
                mean_kernel_us: 10.0,
                interactions: 3,
                monitor_us: 1,
            });
        }
        assert_eq!(feed.ingest_into(&mut g), 3);
        let view = g.node_load(NodeId(5)).unwrap();
        assert_eq!(view.reports, 3);
        assert_eq!(view.latest.cpu_utilization, 0.9);
        assert!((view.mean_utilization - 0.5).abs() < 1e-9);
        let history: Vec<u64> = g.load_history().iter().map(|l| l.wall_us).collect();
        assert_eq!(history, [1000, 2000]);
        assert_eq!(g.gpa_stats().records_evicted, 1);
        assert_eq!(g.ingested, 2 + g.gpa_stats().records_evicted);
        assert!(g.node_load(NodeId(6)).is_none());
    }

    #[test]
    fn record_cap_evicts_oldest() {
        // 92 evictions at a cap of 8 compact the store 18 times.
        let fed: Vec<_> = (0..100)
            .map(|i| rec(1, 10, 20, 80, i * 100, i * 100 + 50))
            .collect();
        let mut g = Gpa::new(GpaConfig {
            max_records: 8,
            ..GpaConfig::default()
        });
        for (i, r) in fed.iter().enumerate() {
            g.ingest_record(r);
            let held = (i + 1).min(8);
            assert_eq!(g.interactions(), &fed[i + 1 - held..=i]);
            assert_eq!(g.interaction_count(), held as u64);
            assert_eq!(g.gpa_stats().records_evicted, (i + 1 - held) as u64);
        }
        assert_eq!(
            g.ingested,
            g.interaction_count() + g.gpa_stats().records_evicted
        );
        // Evicted records stay in the aggregates.
        assert_eq!(g.class_summary(NodeId(1), Port(80)).unwrap().count, 100);

        // A cap of zero retains nothing and counts everything.
        let mut g = Gpa::new(GpaConfig {
            max_records: 0,
            ..GpaConfig::default()
        });
        g.ingest_records(&fed[..3]);
        assert!(g.interactions().is_empty());
        assert_eq!(g.gpa_stats().records_evicted, 3);
    }

    /// The all-pairs loop `correlate()` ran before it had an index, its
    /// two additions made saturating: what the sweep must reproduce.
    fn all_pairs(records: &[InteractionRecord], eps: u64) -> Vec<CorrelatedPath<'_>> {
        let mut paths = Vec::new();
        for parent in records {
            let mut children = Vec::new();
            for child in records {
                if child.node == parent.node {
                    continue;
                }
                if child.flow.src.ip != parent.flow.dst.ip {
                    continue;
                }
                let nests = child.start_us.saturating_add(eps) >= parent.start_us
                    && child.end_us <= parent.end_us.saturating_add(eps);
                if nests {
                    children.push(child);
                }
            }
            if !children.is_empty() {
                paths.push(CorrelatedPath { parent, children });
            }
        }
        paths
    }

    /// `CorrelatedPath` in a comparable form.
    fn flat(paths: Vec<CorrelatedPath>) -> Vec<(InteractionRecord, Vec<InteractionRecord>)> {
        let owned = |p: CorrelatedPath| (*p.parent, p.children.into_iter().copied().collect());
        paths.into_iter().map(owned).collect()
    }

    /// `correlate()` answers from the store it holds: every parent and
    /// child is a retained record itself, not a copy of one, and parents
    /// come in store order. The store has evicted and compacted first.
    #[test]
    fn paths_point_into_the_store() {
        let mut g = Gpa::new(GpaConfig {
            max_records: 300,
            ..GpaConfig::default()
        });
        for i in 0..1_000u64 {
            let front = 20 + (i % 3) as u32;
            g.ingest_record(&rec(front, 10, front, 80, i * 40, i * 40 + 300));
            g.ingest_record(&rec(9, front, 9, 6379, i * 40 + 50, i * 40 + 200));
        }
        let store = g.interactions();
        let position = |r: &InteractionRecord| {
            let offset = (r as *const InteractionRecord as usize)
                .checked_sub(store.as_ptr() as usize)
                .expect("a record at or past the start of the store");
            let k = offset / std::mem::size_of::<InteractionRecord>();
            assert!(std::ptr::eq(r, &store[k]), "record {k} is a copy");
            k
        };
        let paths = g.correlate();
        assert!(paths.len() > 100, "{} paths", paths.len());
        let mut last = None;
        for p in &paths {
            let k = position(p.parent);
            assert!(last < Some(k), "parents in store order");
            last = Some(k);
            for &c in &p.children {
                position(c);
            }
        }
    }

    /// Timestamps within `eps` of `u64::MAX` arrive like any others: the
    /// wire carries 64 bits and the GPA does not own the sender.
    #[test]
    fn correlation_saturates_at_the_end_of_time() {
        const END: u64 = u64::MAX;
        let parent = rec(1, 10, 20, 80, END - 900, END - 100);
        let child = rec(2, 20, 30, 80, END - 950, END);
        let early = rec(2, 20, 30, 80, END - 2_000, END - 500);
        let mut feed = Feed::new();
        let mut row = Vec::new();
        for r in [parent, child, early] {
            r.to_raw_row(&mut row);
            feed.push(&InteractionRecord::schema(), &row);
        }
        let mut g = Gpa::new(GpaConfig::default());
        assert_eq!(feed.ingest_into(&mut g), 3);
        assert_eq!(g.interactions(), &[parent, child, early]);
        let paths = flat(g.correlate());
        assert_eq!(paths, vec![(parent, vec![child])]);
        assert_eq!(paths, flat(all_pairs(g.interactions(), 1_000)));
    }

    /// The regression guard for the sweep's complexity, in candidates
    /// examined and not in seconds: 25,000 requests through 8 front
    /// ends 320 µs apart on each, so every span widened by `eps` holds
    /// several neighbours' back-end calls, and every fourth call
    /// outlasts all of them (examined, then rejected).
    #[test]
    fn sweep_examines_candidates_in_proportion_to_its_output() {
        let mut records = Vec::with_capacity(50_000);
        for i in 0..25_000u64 {
            let front = 20 + (i % 8) as u32;
            let back = 30 + (i % 5) as u32;
            let t = i * 40;
            let call = if i % 4 == 0 { 5_000 } else { 150 };
            records.push(rec(front, 10, front, 80, t, t + 300));
            records.push(rec(back, front, back, 6379, t + 50, t + 50 + call));
        }
        let (paths, examined) = sweep(&records, 1_000);
        let children: usize = paths.iter().map(|p| p.children.len()).sum();
        assert!(children >= 25_000, "{children} children");
        assert!(examined > children as u64, "some candidates are rejected");
        let bound = 2 * (records.len() + children) as u64;
        assert!(
            examined <= bound,
            "examined {examined} candidates for {} records and {children} children \
             (bound {bound}); all pairs would be {}",
            records.len(),
            records.len() * records.len(),
        );
    }

    /// One wire batch mixing everything a stream can carry. What a row
    /// is follows from the announced schema, field types included: an
    /// 18-field schema that differs from the interaction schema in one
    /// field's type must not be ingested as interactions.
    #[test]
    fn mixed_batch_sorts_records_by_announced_schema() {
        let mut g = Gpa::new(GpaConfig::default());
        g.install_digest(
            "static int seen = 0; static int bytes = 0;
             seen = seen + 1; bytes = bytes + req_bytes; return 0;",
            2,
        )
        .unwrap();
        let interaction = InteractionRecord::schema();
        let mut lookalike = pbio::Schema::build(interaction.name());
        for f in interaction.fields() {
            let ty = match f.name.as_str() {
                "pid" => pbio::FieldType::I64,
                _ => f.ty,
            };
            lookalike = lookalike.field(&f.name, ty);
        }
        let lookalike = lookalike.finish().unwrap();
        let load = LoadRecord {
            node: NodeId(5),
            wall_us: 7_000,
            cpu_utilization: 0.25,
            mean_kernel_us: 10.5,
            interactions: 3,
            monitor_us: 1,
        };
        let recs = [
            rec(1, 10, 20, 80, 0, 100),
            rec(1, 11, 20, 80, 200, 400),
            rec(2, 20, 30, 443, 250, 300),
        ];

        let mut feed = Feed::new();
        let mut row = Vec::new();
        recs[0].to_raw_row(&mut row);
        feed.push(&interaction, &row);
        feed.push_load(&load);
        recs[1].to_raw_row(&mut row);
        feed.push(&interaction, &row);
        feed.frame(&[0xFF; 5]);
        feed.frame(&[]);
        recs[2].to_raw_row(&mut row);
        feed.push(&interaction, &row);
        // Last, and from a second hub: the lookalike carries the
        // interaction schema's name and so re-announces its id.
        let mut other = Feed::new();
        other.push(&lookalike, &row);
        feed.batch.extend_from_slice(&other.batch);

        // Decoded: three interactions, the load, the lookalike's row.
        assert_eq!(feed.ingest_into(&mut g), 5);
        assert_eq!(g.interactions(), &recs);
        assert_eq!(g.load_history(), &[load]);
        assert_eq!(g.node_load(NodeId(5)).unwrap().latest, load);
        assert_eq!(g.decode_failures(), 3, "lookalike + two garbage frames");
        assert_eq!(g.digest_global("seen"), Some(ecode::Value::Int(3)));
        assert_eq!(g.digest_global("bytes"), Some(ecode::Value::Int(300)));
        assert_eq!(g.digest_stats().unwrap().skipped, 0);
        assert_eq!(g.class_summary(NodeId(1), Port(80)).unwrap().count, 2);
    }

    /// A restarted daemon numbers its schemas afresh: the id that meant
    /// "interaction" can come back announcing "load".
    #[test]
    fn reannounced_schema_id_is_reclassified() {
        let mut g = Gpa::new(GpaConfig::default());
        let load = LoadRecord {
            node: NodeId(5),
            wall_us: 7_000,
            cpu_utilization: 0.25,
            mean_kernel_us: 10.5,
            interactions: 3,
            monitor_us: 1,
        };
        let mut row = Vec::new();
        rec(1, 10, 20, 80, 0, 100).to_raw_row(&mut row);
        let mut before = Feed::new();
        before.push(&InteractionRecord::schema(), &row);
        assert_eq!(before.ingest_into(&mut g), 1);
        let mut after = Feed::new();
        after.push_load(&load);
        after.sealed = before.sealed;
        assert_eq!(after.ingest_into(&mut g), 1);
        assert_eq!(g.interaction_count(), 1);
        assert_eq!(g.load_history(), &[load]);
        assert_eq!(g.decode_failures(), 0);
    }

    #[test]
    fn percentiles_order_and_bracket_mean() {
        let mut g = Gpa::new(GpaConfig::default());
        for i in 1..=100u64 {
            g.ingest_record(&rec(1, 10, 20, 80, 0, i * 100));
        }
        let s = g.class_summary(NodeId(1), Port(80)).unwrap();
        assert!(s.p50_total_us <= s.p95_total_us);
        assert!(s.p95_total_us <= s.p99_total_us);
        // For this uniform ramp the median sits near the mean.
        let rel = (s.p50_total_us - s.mean_total_us).abs() / s.mean_total_us;
        assert!(
            rel < 0.3,
            "p50 {} vs mean {}",
            s.p50_total_us,
            s.mean_total_us
        );
    }

    #[test]
    fn nack_and_delivery_logs_keep_the_newest_and_count_the_rest() {
        use pubsub::reliable::encode_batch;
        let mut g = Gpa::new(GpaConfig {
            max_records: 8,
            ..GpaConfig::default()
        });
        // A daemon that rejects every subscribe, 100 times over.
        for i in 0..100u16 {
            g.record_subscription_failure(SubscriptionFailure {
                topic: format!("topic-{i}"),
                subscriber: ME,
                from: SRC,
                diagnostics: vec!["E0001".into()],
            });
            g.ingest_wire(
                SimTime::from_millis(u64::from(i)),
                ME,
                SRC,
                &encode_batch(u64::from(i) + 1, &[]),
            );
        }
        let topics: Vec<&str> = g
            .subscription_failures()
            .iter()
            .map(|f| f.topic.as_str())
            .collect();
        assert_eq!(topics.len(), 8);
        assert_eq!((topics[0], topics[7]), ("topic-92", "topic-99"));
        let seqs: Vec<u64> = g.delivery_log().iter().map(|&(_, seq)| seq).collect();
        assert_eq!(seqs, (93..=100).collect::<Vec<u64>>());
        let s = g.gpa_stats();
        assert_eq!(s.subscription_failures_evicted, 92);
        assert_eq!(s.deliveries_evicted, 92);
        // Window's bound on what it buffers behind the slice.
        assert!(g.subscription_failures.items.len() <= 8 + 8 / COMPACT_DIVISOR + 1);

        // The stream's own counters are its receiver's, read through
        // the GPA; a header that does not parse opens nothing.
        assert_eq!((s.batches_received, s.acks_sent), (100, 100));
        let (n, replies) = g.ingest_wire(SimTime::from_millis(100), ME, SRC, &[0x80]);
        assert_eq!((n, replies.len(), g.decode_failures()), (0, 0, 1));
        assert_eq!(g.gpa_stats(), s);
        assert!(g.streams_converged());
    }

    #[test]
    fn dump_json_is_valid() {
        let g = gpa_with(vec![rec(1, 10, 20, 80, 0, 100)]);
        let dump = g.dump_json();
        let parsed: serde_json::Value = serde_json::from_str(&dump).unwrap();
        assert_eq!(parsed["interaction_count"], 1);
    }

    /// Records built to collide: three nodes and three IPs, so every
    /// index group is dense and same-node pairs are common; starts on a
    /// 500 µs grid one step either side, so equal timestamps and spans
    /// exactly `eps` apart (and one off) are common for every `eps` the
    /// test uses; starts below `eps`; an eighth of the records within
    /// `eps` of `u64::MAX`; zero-length spans; a sixth inverted.
    fn arb_record() -> impl Strategy<Value = InteractionRecord> {
        let lens = prop::sample::select(vec![0u64, 1, 499, 500, 501, 1_000, 1_001, 2_000, 5_000]);
        (
            (1u32..4, 1u32..4, 1u32..4),
            (0u64..8, 0u64..3, 0u8..8),
            (lens, 0u8..6),
        )
            .prop_map(|((node, src, dst), (slot, step, far), (len, inverted))| {
                let origin = if far == 0 { u64::MAX - 4_000 } else { 0 };
                let start = (origin + slot * 500 + step).saturating_sub(1);
                let end = if inverted == 0 {
                    start.saturating_sub(len)
                } else {
                    start.saturating_add(len)
                };
                rec(node, src, dst, 80, start, end)
            })
    }

    proptest! {
        /// `correlate()` is the all-pairs loop: same paths in the same
        /// order, same children in the same order, on stores below
        /// their cap and on stores that have evicted and compacted.
        #[test]
        fn prop_correlate_equals_all_pairs(
            records in proptest::collection::vec(arb_record(), 0..200),
            eps in prop::sample::select(vec![0u64, 1, 500, 1_000, 3_000]),
            cap in prop::option::of(1usize..64),
        ) {
            let mut g = Gpa::new(GpaConfig {
                clock_error_bound: SimDuration::from_micros(eps),
                max_records: cap.unwrap_or(usize::MAX),
            });
            g.ingest_records(&records);
            let held = records.len().min(cap.unwrap_or(usize::MAX));
            prop_assert!(g.interactions() == &records[records.len() - held..]);
            prop_assert!(
                flat(g.correlate()) == flat(all_pairs(g.interactions(), eps)),
                "correlate() is not the all-pairs loop on {} records, eps {eps}, cap {cap:?}",
                records.len()
            );
        }
    }
}
