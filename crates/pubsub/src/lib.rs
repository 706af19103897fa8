//! Kernel-level publish/subscribe channels for monitoring data.
//!
//! "After local, in-kernel analysis, monitoring data may then be
//! aggregated and sent to remote analyzers (or to any remote data
//! consumer) through kernel-level publish-subscribe channels." (§1)
//!
//! This crate is the channel bookkeeping and wire format; the actual
//! transport is `simos::World::kernel_send` / `KernelSink` (real simulated
//! packets consuming real bandwidth and CPU). Pieces:
//!
//! * [`Hub`] — the publisher side: topics, per-topic subscriber lists,
//!   per-subscription **dynamic data filters** written in E-Code (the
//!   paper's "dynamic data filters"), and PBIO encoding of records —
//!   a daemon's whole wake in one [`Hub::publish_rows`], each
//!   delivered record framed straight into its subscriber's batch,
//! * [`ChannelDecoder`] — the subscriber side: learns schemas from the
//!   stream (self-describing) and decodes records,
//! * [`frame_into`] / [`split_frames`] — the frame layer that packs
//!   published messages into one batch payload,
//! * [`reliable`] — the sequenced stream a batch travels in, both halves:
//!   the publisher's [`reliable::Sender`] (sequence numbers, resend
//!   buffer, retransmits) and the subscriber's [`reliable::Receiver`]
//!   (dedup, reorder, gap NACKs and abandonment, cumulative ACKs,
//!   decoding into raw rows) — the one receive path every subscriber
//!   uses,
//! * [`control`] — SUBSCRIBE/UNSUBSCRIBE and data ACK/NACK
//!   control-message codecs.
//! * [`digest`] — the consumer-side fold: an E-Code program whose
//!   statics accumulate over every record, run as K replicas on the
//!   caller's thread and folded back exactly
//!   ([`digest::ShardedDigest`]).
//!
//! # Example
//!
//! ```
//! use pbio::{FieldType, Schema, Value};
//! use pubsub::{ChannelDecoder, Hub};
//! use simnet::{EndPoint, Ip, Port};
//!
//! let schema = Schema::build("metric")
//!     .field("latency_us", FieldType::U64)
//!     .finish()?;
//! let mut hub = Hub::new();
//! let topic = hub.topic("interactions");
//! let sub = EndPoint::new(Ip(2), Port(9999));
//! // Only deliver latencies over 1 ms:
//! hub.subscribe_with_schema(topic, sub, Some("return latency_us > 1000;"), &schema)?;
//!
//! let sends = hub.publish(topic, &schema, &[Value::U64(5_000)])?;
//! assert_eq!(sends.len(), 1);
//! let mut dec = ChannelDecoder::new();
//! let (t, values) = dec.decode(&sends[0].1)?.expect("a record");
//! assert_eq!(t, topic);
//! assert_eq!(values, vec![Value::U64(5_000)]);
//!
//! let dropped = hub.publish(topic, &schema, &[Value::U64(10)])?;
//! assert!(dropped.is_empty(), "filter suppressed the record");
//! # Ok::<(), pubsub::PubSubError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod digest;
pub mod reliable;

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use ecode::{Instance, Type, VerifyLimits};
use pbio::{
    read_u64, row_to_values, write_u64, BatchEncoder, FieldType, PbioError, RecordReader,
    RecordWriter, Schema, SchemaId, SchemaRegistry, Value,
};
use simnet::EndPoint;

/// A channel topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicId(pub u32);

/// Errors from channel operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PubSubError {
    /// The referenced topic does not exist.
    UnknownTopic(TopicId),
    /// A subscription filter failed static verification. Carries the
    /// full line-numbered diagnostics for the NACK path.
    BadFilter(ecode::VerifyError),
    /// Record encoding/decoding failed.
    Codec(PbioError),
    /// A record's fields did not match its schema.
    SchemaMismatch,
}

impl fmt::Display for PubSubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PubSubError::UnknownTopic(t) => write!(f, "unknown topic {}", t.0),
            PubSubError::BadFilter(e) => write!(f, "filter error: {e}"),
            PubSubError::Codec(e) => write!(f, "codec error: {e}"),
            PubSubError::SchemaMismatch => f.write_str("record does not match schema"),
        }
    }
}

impl std::error::Error for PubSubError {}

impl From<PbioError> for PubSubError {
    fn from(e: PbioError) -> Self {
        PubSubError::Codec(e)
    }
}

/// Worst-case fuel a subscription filter may cost per record. Filters
/// are statically verified against this budget at subscribe time, so a
/// filter that could exceed it is rejected before it ever runs.
pub const FILTER_FUEL_BUDGET: u64 = 10_000;

/// The E-Code view of a record, shared by filters and digests: its
/// numeric and boolean fields are inputs by field name, string/bytes
/// fields are not visible. Returns the inputs and, in input order, the
/// index of the field each one reads.
fn ecode_inputs(schema: &Schema) -> (Vec<(&str, Type)>, Vec<usize>) {
    let mut inputs = Vec::new();
    let mut field_indices = Vec::new();
    for (i, f) in schema.fields().iter().enumerate() {
        let ty = match f.ty {
            FieldType::U64 | FieldType::I64 => Type::Int,
            FieldType::F64 => Type::Double,
            FieldType::Bool => Type::Bool,
            FieldType::Str | FieldType::Bytes => continue,
        };
        inputs.push((f.name.as_str(), ty));
        field_indices.push(i);
    }
    (inputs, field_indices)
}

/// A compiled per-subscription filter over a record's
/// [E-Code inputs](ecode_inputs).
struct Filter {
    /// Persistent VM instance, reused (with fresh statics via
    /// `reset_globals`) across evaluations so the publish hot path does
    /// not clone the program per record.
    instance: Instance,
    /// The record fields that are filter inputs, in input order:
    /// `(field index, is a bool)`.
    columns: Vec<(usize, bool)>,
    /// Reusable gather of `columns` out of the record's raw row.
    gathered: Vec<i64>,
    /// Statically proven worst-case fuel per evaluation.
    fuel_bound: u64,
    /// The schema `columns` index into: the only one whose records this
    /// filter can decide.
    schema_id: SchemaId,
}

impl Filter {
    /// Verifies `src` against `schema` and, if it passes, takes the
    /// schema's wire id from `schemas`.
    fn compile(
        src: &str,
        schema: &Schema,
        schemas: &mut SchemaRegistry,
    ) -> Result<Filter, PubSubError> {
        let (inputs, field_indices) = ecode_inputs(schema);
        let limits = VerifyLimits::with_max_fuel(FILTER_FUEL_BUDGET);
        let verified = ecode::verify(src, &inputs, &limits).map_err(PubSubError::BadFilter)?;
        let (program, report) = verified.into_parts();
        let is_bool = inputs.iter().map(|&(_, ty)| ty == Type::Bool);
        Ok(Filter {
            instance: Instance::new(&program),
            columns: field_indices.into_iter().zip(is_bool).collect(),
            gathered: Vec::new(),
            fuel_bound: report.fuel_bound,
            schema_id: schemas.register(schema),
        })
    }

    /// Returns whether the record passes, plus the fuel spent deciding.
    /// `row` is the record's raw row (one `i64` per schema field,
    /// [`Hub::publish_raw`]'s bit convention); entries at string/bytes
    /// positions are never read.
    fn passes(&mut self, schema_id: SchemaId, row: &[i64]) -> (bool, u64) {
        // A record of another schema on the topic is not this filter's
        // to decide: same policy as a runtime trap, below.
        if schema_id != self.schema_id {
            return (true, self.fuel_bound);
        }
        self.gathered.clear();
        for &(i, is_bool) in &self.columns {
            // Any nonzero raw bool is true; the VM wants exactly 0/1.
            let v = if is_bool {
                (row[i] != 0) as i64
            } else {
                row[i]
            };
            self.gathered.push(v);
        }
        // Filters keep fresh-statics-per-evaluation semantics: reset,
        // then run the persistent instance.
        self.instance.reset_globals();
        // The verifier proved `fuel_bound` suffices, so granting exactly
        // that much can never abort with OutOfFuel.
        match self.instance.run_raw(&self.gathered, self.fuel_bound) {
            Ok(out) => (out.ret != 0, out.fuel_used),
            // Defense in depth: a runtime trap (e.g. an input-dependent
            // division by zero, which verification only warns about) fails
            // open — the subscriber gets the record rather than silently
            // losing data — and is charged the worst case.
            Err(_) => (true, self.fuel_bound),
        }
    }
}

/// A filter as [`Hub::subscriptions`] reports it: `(fuel bound, tier)`.
type FilterShape = (u64, ecode::ExecTier);

struct Subscription {
    endpoint: EndPoint,
    filter: Option<Filter>,
    /// Schema ids already announced to this subscriber.
    sent_schemas: simcore::hash::HashSet<u32>,
    delivered: u64,
    filtered: u64,
}

/// Where the delivery core writes each subscriber's messages.
trait Outbox {
    /// Whether each message is length-prefixed, as [`frame_into`] frames
    /// it.
    const FRAMED: bool;
    /// The buffer `endpoint`'s `messages` of this call go into, opened
    /// once per call at its first delivery; `bytes` is what their
    /// records take, headers not counted.
    fn open(&mut self, endpoint: EndPoint, messages: usize, bytes: usize) -> &mut Vec<u8>;
}

/// The most a frame's length, topic, schema id and schema flag add to
/// a record: a 3-byte length (under 2 MiB), two 5-byte ids and a byte.
const MESSAGE_OVERHEAD: usize = 14;

/// One unframed message per delivery, for the one-record entry points
/// ([`Hub::publish`], [`Hub::publish_raw`]): a subscriber is opened at
/// most once per call because the call carries one record.
impl Outbox for Vec<(EndPoint, Vec<u8>)> {
    const FRAMED: bool = false;
    fn open(&mut self, endpoint: EndPoint, _messages: usize, bytes: usize) -> &mut Vec<u8> {
        self.push((endpoint, Vec::with_capacity(bytes + 8)));
        &mut self.last_mut().expect("just pushed").1
    }
}

/// Every delivered record framed into its subscriber's batch
/// ([`Hub::publish_rows`]), reserved once for the whole call.
impl Outbox for BTreeMap<EndPoint, Vec<u8>> {
    const FRAMED: bool = true;
    fn open(&mut self, endpoint: EndPoint, messages: usize, bytes: usize) -> &mut Vec<u8> {
        let batch = self.entry(endpoint).or_default();
        batch.reserve(bytes + messages * MESSAGE_OVERHEAD);
        batch
    }
}

/// The records of one publish call: one schema on one topic, each as
/// its raw row (what filters read) and its encoded bytes.
struct Records<'a> {
    schema: &'a Schema,
    schema_id: SchemaId,
    /// The message header every record shares: topic and schema id.
    head: &'a [u8],
    /// Raw rows back to back, one stride each.
    rows: &'a [i64],
    /// The encoded records back to back; record `i` ends at `ends[i]`.
    bytes: &'a [u8],
    ends: &'a [usize],
}

impl Records<'_> {
    fn record(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// The delivery core behind every publish entry point. For each
/// subscription in registration order (never hash order), runs its
/// filter over every row (adding the cost to `filter_fuel`), then
/// writes a message for each record that passed into the buffer `out`
/// opens for that subscriber: the shared header, whether the schema is
/// inlined (only in the first message a subscriber gets under it), the
/// schema if so, and the record. `passed` is reusable scratch. Returns
/// the deliveries made.
///
/// Subscribers' filters share no state, so deciding one subscriber's
/// records before the next subscriber's gives what deciding record by
/// record would.
fn deliver<O: Outbox>(
    topic_subs: &mut [Subscription],
    filter_fuel: &mut u64,
    recs: &Records<'_>,
    passed: &mut Vec<usize>,
    out: &mut O,
) -> u64 {
    let stride = recs.schema.len();
    let mut delivered = 0;
    for sub in topic_subs {
        passed.clear();
        for (i, row) in recs.rows.chunks_exact(stride).enumerate() {
            if let Some(filter) = sub.filter.as_mut() {
                let (pass, fuel) = filter.passes(recs.schema_id, row);
                *filter_fuel += fuel;
                if !pass {
                    sub.filtered += 1;
                    continue;
                }
            }
            passed.push(i);
        }
        if passed.is_empty() {
            continue;
        }
        let bytes = passed.iter().map(|&i| recs.record(i).len()).sum();
        let buf = out.open(sub.endpoint, passed.len(), bytes);
        // The schema rides in the first message only, once per subscriber.
        let mut schema = Vec::new();
        if sub.sent_schemas.insert(recs.schema_id.0) {
            recs.schema.encode(&mut schema);
        }
        for &i in passed.iter() {
            let record = recs.record(i);
            if O::FRAMED {
                let len = recs.head.len() + 1 + schema.len() + record.len();
                write_u64(buf, len as u64);
            }
            buf.extend_from_slice(recs.head);
            buf.push(!schema.is_empty() as u8);
            buf.extend_from_slice(&schema);
            buf.extend_from_slice(record);
            schema.clear();
        }
        sub.delivered += passed.len() as u64;
        delivered += passed.len() as u64;
    }
    delivered
}

/// The publisher half of a node's monitoring channels.
pub struct Hub {
    topics: HashMap<String, TopicId>,
    subs: simcore::hash::HashMap<TopicId, Vec<Subscription>>,
    schemas: SchemaRegistry,
    next_topic: u32,
    /// Total E-Code fuel burned in filters (host converts to CPU cost).
    filter_fuel: u64,
    /// Per-schema batch encoders for the raw publish path, keyed by
    /// registered schema id (schema validation is loop-invariant; spend
    /// it once).
    raw_encoders: simcore::hash::HashMap<u32, BatchEncoder>,
    /// Reusable scratch for one publish call: the message header, the
    /// encoded records and where each ends, and one subscriber's
    /// passing records.
    head: Vec<u8>,
    records: Vec<u8>,
    ends: Vec<usize>,
    passed: Vec<usize>,
}

impl Default for Hub {
    fn default() -> Self {
        Self::new()
    }
}

impl Hub {
    /// An empty hub.
    pub fn new() -> Self {
        Hub {
            topics: HashMap::new(),
            subs: Default::default(),
            schemas: SchemaRegistry::new(),
            next_topic: 0,
            filter_fuel: 0,
            raw_encoders: Default::default(),
            head: Vec::new(),
            records: Vec::new(),
            ends: Vec::new(),
            passed: Vec::new(),
        }
    }

    /// Gets or creates a topic by name.
    pub fn topic(&mut self, name: &str) -> TopicId {
        if let Some(&t) = self.topics.get(name) {
            return t;
        }
        let t = TopicId(self.next_topic);
        self.next_topic += 1;
        self.topics.insert(name.to_owned(), t);
        self.subs.insert(t, Vec::new());
        t
    }

    /// Looks up a topic by name without creating it.
    pub fn topic_id(&self, name: &str) -> Option<TopicId> {
        self.topics.get(name).copied()
    }

    /// Subscribes `endpoint` unfiltered: every record published on `topic`
    /// is delivered to it. Replaces the endpoint's subscription on the
    /// topic if it has one.
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownTopic`] if the topic does not exist.
    pub fn subscribe(&mut self, topic: TopicId, endpoint: EndPoint) -> Result<(), PubSubError> {
        self.set_subscription(topic, endpoint, None)
    }

    /// Subscribes `endpoint` with an optional `filter`: E-Code source over
    /// the numeric/boolean fields of `schema`, compiled and **statically
    /// verified** now; a nonzero return delivers the record. The filter
    /// decides records of that one schema: a record of another schema on
    /// the topic is delivered and charged the filter's fuel bound.
    /// Replaces the endpoint's subscription on the topic if it has one.
    /// Returns the filter's proven worst-case fuel per record (`None`
    /// when no filter was given), which hosts use to pre-size cost
    /// accounting.
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownTopic`], or [`PubSubError::BadFilter`]
    /// carrying the verifier's line-numbered diagnostics — nothing is
    /// registered in that case.
    pub fn subscribe_with_schema(
        &mut self,
        topic: TopicId,
        endpoint: EndPoint,
        filter: Option<&str>,
        schema: &Schema,
    ) -> Result<Option<u64>, PubSubError> {
        let compiled = match filter {
            Some(src) => Some(Filter::compile(src, schema, &mut self.schemas)?),
            None => None,
        };
        let fuel_bound = compiled.as_ref().map(|f| f.fuel_bound);
        self.set_subscription(topic, endpoint, compiled)?;
        Ok(fuel_bound)
    }

    fn set_subscription(
        &mut self,
        topic: TopicId,
        endpoint: EndPoint,
        filter: Option<Filter>,
    ) -> Result<(), PubSubError> {
        let topic_subs = self
            .subs
            .get_mut(&topic)
            .ok_or(PubSubError::UnknownTopic(topic))?;
        let sub = Subscription {
            endpoint,
            filter,
            sent_schemas: Default::default(),
            delivered: 0,
            filtered: 0,
        };
        // One subscription per endpoint: asking again replaces the filter
        // in place (and re-announces schemas, as for a subscriber that
        // restarted), so repeated Subscribes cannot grow the list.
        match topic_subs.iter_mut().find(|s| s.endpoint == endpoint) {
            Some(existing) => *existing = sub,
            None => topic_subs.push(sub),
        }
        Ok(())
    }

    /// Removes the subscription of `endpoint` on `topic`. Returns how
    /// many were removed (0 or 1).
    pub fn unsubscribe(&mut self, topic: TopicId, endpoint: EndPoint) -> usize {
        let Some(subs) = self.subs.get_mut(&topic) else {
            return 0;
        };
        let before = subs.len();
        subs.retain(|s| s.endpoint != endpoint);
        before - subs.len()
    }

    /// Whether `endpoint` holds a subscription on any topic.
    pub fn serves(&self, endpoint: EndPoint) -> bool {
        self.subs.values().flatten().any(|s| s.endpoint == endpoint)
    }

    /// Encodes and fans a record out to every passing subscriber. Returns
    /// `(endpoint, wire bytes)` pairs the caller hands to the kernel
    /// transport. The first delivery of a schema to a subscriber inlines
    /// the schema description (self-describing stream).
    ///
    /// This is the general, string-capable entry point; all-numeric
    /// records go through [`publish_raw`](Hub::publish_raw).
    ///
    /// # Errors
    ///
    /// Codec errors if the values do not match the schema.
    pub fn publish(
        &mut self,
        topic: TopicId,
        schema: &Schema,
        values: &[Value],
    ) -> Result<Vec<(EndPoint, Vec<u8>)>, PubSubError> {
        let schema_id = self.admit(topic, schema, values.len(), 1)?;
        let mut rw = RecordWriter::new(schema);
        for v in values {
            rw.push_value(v)?;
        }
        self.records.clear();
        self.records.extend_from_slice(&rw.finish()?);
        self.ends.clear();
        self.ends.push(self.records.len());
        // Filters read the raw row; string/bytes slots are placeholders
        // no filter column points at.
        let row: Vec<i64> = values.iter().map(|v| v.to_raw().unwrap_or(0)).collect();
        let mut out = Vec::new();
        self.fan_out(topic, schema, schema_id, &row, &mut out);
        Ok(out)
    }

    /// [`publish`](Hub::publish) over a raw numeric row (one `i64` per
    /// schema field, digest raw-row bit convention: integers hold the
    /// value, doubles hold `f64::to_bits`, bools are nonzero-for-true).
    ///
    /// Wire bytes, filter decisions, fuel accounting, and delivery
    /// counters are **identical** to `publish` with the equivalent
    /// [`Value`]s; the difference is purely cost: the schema is compiled
    /// to a [`BatchEncoder`] once (cached per schema id) and the record
    /// encodes into a reusable scratch. It is
    /// [`publish_rows`](Hub::publish_rows) for one row, with each
    /// subscriber's message returned on its own instead of framed into
    /// a batch.
    ///
    /// # Errors
    ///
    /// Same as `publish`, plus [`PubSubError::Codec`] if the schema has
    /// string/bytes fields (those records have no raw-row form — keep
    /// publishing them through `publish`).
    pub fn publish_raw(
        &mut self,
        topic: TopicId,
        schema: &Schema,
        row: &[i64],
    ) -> Result<Vec<(EndPoint, Vec<u8>)>, PubSubError> {
        let mut out = Vec::new();
        self.publish_into(topic, schema, row, 1, &mut out)?;
        Ok(out)
    }

    /// Publishes a wake's records on one topic, `rows` holding their raw
    /// rows back to back ([`publish_raw`](Hub::publish_raw)'s bit
    /// convention). Each record a subscriber's filter passes is framed
    /// ([`frame_into`]'s frame) straight into that subscriber's batch in
    /// `batches`, created at its first delivery. Returns the deliveries
    /// made, over every subscriber.
    ///
    /// The schema is admitted, and its encoder and the topic's
    /// subscriptions looked up, once per call; filters run once per
    /// record with the same fuel. Bytes, decisions, fuel and counters
    /// are those of one `publish_raw` per row, each message framed into
    /// its subscriber's batch. No rows is no call: nothing is admitted.
    ///
    /// # Errors
    ///
    /// As `publish_raw`; [`PubSubError::SchemaMismatch`] if `rows` is
    /// not a whole number of rows. Nothing is delivered on error.
    pub fn publish_rows(
        &mut self,
        topic: TopicId,
        schema: &Schema,
        rows: &[i64],
        batches: &mut BTreeMap<EndPoint, Vec<u8>>,
    ) -> Result<u64, PubSubError> {
        if rows.is_empty() {
            return Ok(0);
        }
        let n_rows = rows.len() / schema.len().max(1);
        self.publish_into(topic, schema, rows, n_rows, batches)
    }

    /// Encodes `n_rows` raw rows and hands them to the delivery core.
    fn publish_into(
        &mut self,
        topic: TopicId,
        schema: &Schema,
        rows: &[i64],
        n_rows: usize,
        out: &mut impl Outbox,
    ) -> Result<u64, PubSubError> {
        let schema_id = self.admit(topic, schema, rows.len(), n_rows)?;
        let enc = match self.raw_encoders.entry(schema_id.0) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => v.insert(BatchEncoder::new(schema)?),
        };
        self.records.clear();
        self.ends.clear();
        for row in rows.chunks_exact(enc.stride()) {
            enc.encode_row_into(row, &mut self.records)?;
            self.ends.push(self.records.len());
        }
        Ok(self.fan_out(topic, schema, schema_id, rows, out))
    }

    /// Hands the records in the scratch, and their `rows`, to the
    /// delivery core.
    fn fan_out(
        &mut self,
        topic: TopicId,
        schema: &Schema,
        schema_id: SchemaId,
        rows: &[i64],
        out: &mut impl Outbox,
    ) -> u64 {
        let recs = Records {
            schema,
            schema_id,
            head: &self.head,
            rows,
            bytes: &self.records,
            ends: &self.ends,
        };
        let topic_subs = self.subs.get_mut(&topic).expect("admitted topic");
        let (fuel, passed) = (&mut self.filter_fuel, &mut self.passed);
        deliver(topic_subs, fuel, &recs, passed, out)
    }

    /// What every publish does before encoding: the topic must exist,
    /// the values must be `n_rows` records of one entry per field, and
    /// the schema gets its wire id, which with the topic makes the
    /// message header.
    fn admit(
        &mut self,
        topic: TopicId,
        schema: &Schema,
        n_values: usize,
        n_rows: usize,
    ) -> Result<SchemaId, PubSubError> {
        if !self.subs.contains_key(&topic) {
            return Err(PubSubError::UnknownTopic(topic));
        }
        if n_values != schema.len() * n_rows {
            return Err(PubSubError::SchemaMismatch);
        }
        let schema_id = self.schemas.register(schema);
        self.head.clear();
        write_u64(&mut self.head, topic.0 as u64);
        write_u64(&mut self.head, schema_id.0 as u64);
        Ok(schema_id)
    }

    /// Total E-Code fuel burned by subscription filters so far (the host
    /// converts this to CPU time and charges it as monitoring overhead).
    pub fn filter_fuel(&self) -> u64 {
        self.filter_fuel
    }

    /// The largest statically proven per-record fuel bound across all
    /// installed filters — the worst case one published record can cost
    /// in filter CPU per subscriber. Hosts use it to pre-size
    /// per-instruction cost accounting.
    pub fn max_filter_fuel_bound(&self) -> u64 {
        self.subs
            .values()
            .flatten()
            .filter_map(|s| s.filter.as_ref().map(|f| f.fuel_bound))
            .max()
            .unwrap_or(0)
    }

    /// How many installed filters run on each execution tier, as
    /// `(compiled, not compiled)`. Tier selection happens automatically at
    /// compile time ([`ecode::Instance::new`]); this only observes the
    /// outcome — both tiers are observably identical.
    pub fn filter_tiers(&self) -> (usize, usize) {
        // Counting is order-free, so iterating the subscription map in
        // hash order cannot be observed in the result.
        let tier_count = |want: ecode::ExecTier| {
            self.subs
                .values()
                .flatten()
                .filter(|s| s.filter.as_ref().is_some_and(|f| f.instance.tier() == want))
                .count()
        };
        (
            tier_count(ecode::ExecTier::Compiled),
            tier_count(ecode::ExecTier::Fused),
        )
    }

    /// Every subscription as `(topic, subscriber, filter)`, sorted by
    /// topic name then subscriber; a filter is its proven fuel bound and
    /// the tier it runs on. [`delivery_stats`](Hub::delivery_stats) has
    /// each one's counts.
    pub fn subscriptions(&self) -> Vec<(String, EndPoint, Option<FilterShape>)> {
        // Hash order in, `(topic, subscriber)` order out.
        let mut all: Vec<_> = self
            .topics
            .iter()
            .flat_map(|(name, id)| {
                self.subs.get(id).into_iter().flatten().map(move |s| {
                    let filter = s.filter.as_ref().map(|f| (f.fuel_bound, f.instance.tier()));
                    (name.clone(), s.endpoint, filter)
                })
            })
            .collect();
        all.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        all
    }

    /// (delivered, filtered) counts for a subscriber on a topic.
    pub fn delivery_stats(&self, topic: TopicId, endpoint: EndPoint) -> Option<(u64, u64)> {
        self.subs
            .get(&topic)?
            .iter()
            .find(|s| s.endpoint == endpoint)
            .map(|s| (s.delivered, s.filtered))
    }
}

/// A schema learned from the stream.
struct Learned {
    schema: Schema,
    /// Its row codec, compiled once (or why it has none: string/bytes
    /// fields).
    codec: Result<BatchEncoder, PbioError>,
    /// Its index among the expected schemas, compared once.
    known: Option<usize>,
}

/// The most schema ids one [`ChannelDecoder`] learns. Ids come off the
/// wire, so without a bound a peer could grow the table by one schema
/// per message, or aim any number of ids at one bucket of its fixed
/// hash; a daemon announces one per topic it publishes. A new id past
/// the bound is refused: its messages do not decode.
pub const MAX_SCHEMAS: usize = 256;

/// The subscriber half: decodes the self-describing stream.
#[derive(Default)]
pub struct ChannelDecoder {
    expected: Vec<Schema>,
    /// Schemas learned from the stream, by wire id; at most
    /// [`MAX_SCHEMAS`].
    schemas: simcore::hash::HashMap<u32, Learned>,
    /// Row scratch behind [`decode`](ChannelDecoder::decode).
    row: Vec<i64>,
}

impl ChannelDecoder {
    /// An empty decoder (learns schemas from the stream).
    pub fn new() -> Self {
        ChannelDecoder::default()
    }

    /// A decoder for a consumer that understands exactly `expected`:
    /// each schema the stream announces is compared against them once —
    /// name, field names and field types — and
    /// [`decode_row`](ChannelDecoder::decode_row) reports which one (if
    /// any) a record is under.
    pub fn expecting(expected: Vec<Schema>) -> Self {
        ChannelDecoder {
            expected,
            ..ChannelDecoder::default()
        }
    }

    /// Parses a message header, learning an inlined schema. Returns the
    /// header fields and the still-encoded record bytes (none for a
    /// schema-only announcement).
    fn open<'w>(&mut self, wire: &'w [u8]) -> Result<(TopicId, u32, &'w [u8]), PbioError> {
        let mut buf = wire;
        let topic = TopicId(read_u64(&mut buf)? as u32);
        let schema_id = read_u64(&mut buf)? as u32;
        let (&announces, mut buf) = buf.split_first().ok_or(PbioError::UnexpectedEof)?;
        if announces != 0 {
            let schema = Schema::decode(&mut buf)?;
            if self.schemas.len() >= MAX_SCHEMAS && !self.schemas.contains_key(&schema_id) {
                return Err(PbioError::UnknownSchema(schema_id));
            }
            let learned = Learned {
                codec: BatchEncoder::new(&schema),
                known: self.expected.iter().position(|s| *s == schema),
                schema,
            };
            self.schemas.insert(schema_id, learned);
        }
        Ok((topic, schema_id, buf))
    }

    /// [`decode`](ChannelDecoder::decode) for all-numeric schemas, without
    /// the `Value`s: appends the record's raw row (one `i64` per field,
    /// [`Hub::publish_raw`]'s bit convention) to `row` and returns the
    /// topic and the record's schema as an index into the
    /// [expected](ChannelDecoder::expecting) ones. This is the receive
    /// hot path: nothing is allocated once `row` has grown to size, and
    /// a message that fails to decode leaves `row` as it was.
    ///
    /// # Errors
    ///
    /// As `decode`, plus [`PbioError::BadSchema`] for a schema with
    /// string/bytes fields.
    pub fn decode_row(
        &mut self,
        wire: &[u8],
        row: &mut Vec<i64>,
    ) -> Result<Option<(TopicId, Option<usize>)>, PubSubError> {
        let (topic, schema_id, record) = self.open(wire)?;
        if record.is_empty() {
            return Ok(None);
        }
        let learned = self.schemas.get(&schema_id);
        let learned = learned.ok_or(PbioError::UnknownSchema(schema_id))?;
        let codec = learned.codec.as_ref().map_err(Clone::clone)?;
        codec.decode_row_into(record, row)?;
        Ok(Some((topic, learned.known)))
    }

    /// Decodes one published message into `(topic, values)`. Returns
    /// `Ok(None)` for a schema-only announcement carrying no record.
    ///
    /// # Errors
    ///
    /// Codec errors on malformed input or unknown schema ids.
    pub fn decode(&mut self, wire: &[u8]) -> Result<Option<(TopicId, Vec<Value>)>, PubSubError> {
        let (topic, schema_id, record) = self.open(wire)?;
        if record.is_empty() {
            return Ok(None);
        }
        let learned = self.schemas.get(&schema_id);
        let learned = learned.ok_or(PbioError::UnknownSchema(schema_id))?;
        let values = match &learned.codec {
            // Numeric records take the row codec, as `decode_row` does.
            Ok(codec) => {
                self.row.clear();
                codec.decode_row_into(record, &mut self.row)?;
                row_to_values(&learned.schema, &self.row)?
            }
            Err(_) => RecordReader::new(&learned.schema, record).read_all()?,
        };
        Ok(Some((topic, values)))
    }
}

/// Appends one published message to a batch payload, length-prefixed:
/// the frame layer between a batch's sequence header
/// ([`reliable::encode_batch`]) and each message's own topic/schema
/// header.
pub fn frame_into(batch: &mut Vec<u8>, message: &[u8]) {
    write_u64(batch, message.len() as u64);
    batch.extend_from_slice(message);
}

/// Splits a batch payload back into the messages
/// [`frame_into`] put there. A truncated tail is dropped.
pub fn split_frames(data: &[u8]) -> Vec<&[u8]> {
    frames(data).map_while(Result::ok).collect()
}

/// The messages [`frame_into`] put in a batch payload, in order; a tail
/// that does not hold a whole frame ends the payload with one error.
fn frames(mut data: &[u8]) -> impl Iterator<Item = Result<&[u8], PbioError>> {
    std::iter::from_fn(move || {
        if data.is_empty() {
            return None;
        }
        let len = read_u64(&mut data).map(|len| usize::try_from(len).unwrap_or(usize::MAX));
        match len {
            Ok(len) if len <= data.len() => {
                let (frame, rest) = data.split_at(len);
                data = rest;
                Some(Ok(frame))
            }
            _ => {
                data = &[];
                Some(Err(PbioError::UnexpectedEof))
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simnet::{Ip, Port};

    fn schema() -> Schema {
        Schema::build("metric")
            .field("latency_us", FieldType::U64)
            .field("node", FieldType::Str)
            .field("load", FieldType::F64)
            .finish()
            .unwrap()
    }

    fn ep(host: u32) -> EndPoint {
        EndPoint::new(Ip(host), Port(9999))
    }

    fn rec(latency: u64, load: f64) -> Vec<Value> {
        vec![
            Value::U64(latency),
            Value::Str("proxy".into()),
            Value::F64(load),
        ]
    }

    #[test]
    fn frames_round_trip_and_tolerate_truncation() {
        let mut batch = Vec::new();
        frame_into(&mut batch, &[1, 2, 3]);
        frame_into(&mut batch, &[4, 5]);
        assert_eq!(split_frames(&batch), [&[1u8, 2, 3][..], &[4u8, 5][..]]);
        // A last frame that claims more bytes than follow is dropped,
        // and is one error to a reader that counts it.
        assert_eq!(split_frames(&batch[..batch.len() - 1]), [&[1u8, 2, 3][..]]);
        let read: Vec<_> = frames(&batch[..batch.len() - 1]).collect();
        assert_eq!(read, [Ok(&[1u8, 2, 3][..]), Err(PbioError::UnexpectedEof)]);
        assert_eq!(frames(&[0xFF; 11]).count(), 1, "a length that never ends");
        write_u64(&mut batch, 100);
        assert_eq!(split_frames(&batch).len(), 2);
        assert!(split_frames(&[]).is_empty());
    }

    #[test]
    fn publish_without_subscribers_sends_nothing() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        let out = hub.publish(t, &schema(), &rec(1, 0.5)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn fanout_to_multiple_subscribers() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe(t, ep(1)).unwrap();
        hub.subscribe(t, ep(2)).unwrap();
        let out = hub.publish(t, &schema(), &rec(5, 0.1)).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn schema_travels_once_per_subscriber() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe(t, ep(1)).unwrap();
        let first = hub.publish(t, &schema(), &rec(5, 0.1)).unwrap();
        let second = hub.publish(t, &schema(), &rec(6, 0.2)).unwrap();
        assert!(
            first[0].1.len() > second[0].1.len() + 20,
            "first message carries the schema: {} vs {}",
            first[0].1.len(),
            second[0].1.len()
        );
        // Both decode fine in order.
        let mut dec = ChannelDecoder::new();
        assert!(dec.decode(&first[0].1).unwrap().is_some());
        let (topic, vals) = dec.decode(&second[0].1).unwrap().unwrap();
        assert_eq!(topic, t);
        assert_eq!(vals[0], Value::U64(6));
    }

    #[test]
    fn decoder_without_schema_errors() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe(t, ep(1)).unwrap();
        let first = hub.publish(t, &schema(), &rec(5, 0.1)).unwrap();
        let second = hub.publish(t, &schema(), &rec(6, 0.2)).unwrap();
        let _ = first;
        let mut dec = ChannelDecoder::new();
        // Skipping the schema-bearing message leaves the id unknown.
        assert!(matches!(
            dec.decode(&second[0].1),
            Err(PubSubError::Codec(PbioError::UnknownSchema(_)))
        ));
    }

    #[test]
    fn filter_suppresses_and_counts() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe_with_schema(t, ep(1), Some("return latency_us > 100;"), &schema())
            .unwrap();
        assert!(hub.publish(t, &schema(), &rec(50, 0.0)).unwrap().is_empty());
        assert_eq!(hub.publish(t, &schema(), &rec(500, 0.0)).unwrap().len(), 1);
        assert_eq!(hub.delivery_stats(t, ep(1)), Some((1, 1)));
        assert!(hub.filter_fuel() > 0);
        // A trivial comparison filter always compiles.
        assert_eq!(hub.filter_tiers(), (1, 0));
    }

    #[test]
    fn filter_sees_float_fields() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe_with_schema(t, ep(1), Some("return load > 0.9;"), &schema())
            .unwrap();
        assert!(hub.publish(t, &schema(), &rec(1, 0.5)).unwrap().is_empty());
        assert_eq!(hub.publish(t, &schema(), &rec(1, 0.95)).unwrap().len(), 1);
    }

    /// A filter that traps at run time (the verifier only warns about an
    /// input-dependent division by zero) fails open — the record is
    /// delivered — and is charged its proven worst case.
    #[test]
    fn trapping_filter_delivers_and_is_charged_its_bound() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        let bound = hub
            .subscribe_with_schema(t, ep(1), Some("return 1000 / latency_us > 5;"), &schema())
            .unwrap()
            .unwrap();
        assert_eq!(hub.publish(t, &schema(), &rec(0, 0.0)).unwrap().len(), 1);
        assert_eq!(hub.filter_fuel(), bound);
        assert_eq!(hub.delivery_stats(t, ep(1)), Some((1, 0)));
        // The same filter still decides records that do not trap.
        assert!(hub
            .publish(t, &schema(), &rec(500, 0.0))
            .unwrap()
            .is_empty());
        assert_eq!(hub.delivery_stats(t, ep(1)), Some((1, 1)));
        // The raw entry point shares the filter path.
        let numeric = numeric_schema();
        let mut hub = Hub::new();
        let t = hub.topic("m");
        let bound = hub
            .subscribe_with_schema(t, ep(1), Some("return 1000 / latency_us > 5;"), &numeric)
            .unwrap()
            .unwrap();
        assert_eq!(
            hub.publish_raw(t, &numeric, &[0, 0, 0, 0]).unwrap().len(),
            1
        );
        assert_eq!(hub.filter_fuel(), bound);
    }

    #[test]
    fn bad_filter_is_reported_eagerly() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        let err = hub
            .subscribe_with_schema(t, ep(1), Some("return nonsense_field;"), &schema())
            .unwrap_err();
        assert!(matches!(err, PubSubError::BadFilter(_)));
    }

    #[test]
    fn unsubscribe_removes() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe(t, ep(1)).unwrap();
        hub.subscribe(t, ep(2)).unwrap();
        assert_eq!(hub.unsubscribe(t, ep(1)), 1);
        assert_eq!(hub.publish(t, &schema(), &rec(5, 0.1)).unwrap().len(), 1);
        assert_eq!(hub.unsubscribe(t, ep(1)), 0);
    }

    #[test]
    fn unknown_topic_errors() {
        let mut hub = Hub::new();
        let bogus = TopicId(99);
        assert!(matches!(
            hub.subscribe(bogus, ep(1)),
            Err(PubSubError::UnknownTopic(_))
        ));
        assert!(matches!(
            hub.publish(bogus, &schema(), &rec(1, 0.0)),
            Err(PubSubError::UnknownTopic(_))
        ));
    }

    #[test]
    fn value_count_mismatch_errors() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        assert!(matches!(
            hub.publish(t, &schema(), &[Value::U64(1)]),
            Err(PubSubError::SchemaMismatch)
        ));
    }

    #[test]
    fn topics_are_stable_by_name() {
        let mut hub = Hub::new();
        let a = hub.topic("alpha");
        let b = hub.topic("beta");
        assert_ne!(a, b);
        assert_eq!(hub.topic("alpha"), a);
        assert_eq!(hub.topic_id("beta"), Some(b));
        assert_eq!(hub.topic_id("gamma"), None);
    }

    fn numeric_schema() -> Schema {
        Schema::build("numeric")
            .field("latency_us", FieldType::U64)
            .field("delta", FieldType::I64)
            .field("load", FieldType::F64)
            .field("hot", FieldType::Bool)
            .finish()
            .unwrap()
    }

    /// `publish_raw` is a pure producer-side optimization: over the same
    /// record stream — filters, schema inlining, counters, fuel, and
    /// every wire byte included — it must be indistinguishable from
    /// `publish` with the equivalent values.
    #[test]
    fn publish_raw_is_byte_identical_to_publish() {
        let schema = numeric_schema();
        let mut by_values = Hub::new();
        let mut by_rows = Hub::new();
        for hub in [&mut by_values, &mut by_rows] {
            let t = hub.topic("m");
            hub.subscribe_with_schema(t, ep(1), Some("return latency_us > 100 && hot;"), &schema)
                .unwrap();
            hub.subscribe(t, ep(2)).unwrap();
        }
        let t = by_values.topic("m");
        for i in 0..20u64 {
            let latency = i * 30;
            let delta = 5 - i as i64;
            let load = 0.25 + i as f64;
            let hot = i % 3 == 0;
            let values = vec![
                Value::U64(latency),
                Value::I64(delta),
                Value::F64(load),
                Value::Bool(hot),
            ];
            let row = [latency as i64, delta, load.to_bits() as i64, hot as i64];
            let a = by_values.publish(t, &schema, &values).unwrap();
            let b = by_rows.publish_raw(t, &schema, &row).unwrap();
            assert_eq!(a, b, "wire divergence at record {i}");
        }
        for e in [ep(1), ep(2)] {
            assert_eq!(by_values.delivery_stats(t, e), by_rows.delivery_stats(t, e));
        }
        assert_eq!(by_values.filter_fuel(), by_rows.filter_fuel());
        assert!(by_rows.filter_fuel() > 0);
    }

    /// `decode_row` yields the published row (bools normalized), borrows
    /// the schema it learned, and agrees with `decode` value for value.
    #[test]
    fn decode_row_round_trips_and_matches_decode() {
        let schema = numeric_schema();
        let mut hub = Hub::new();
        let t = hub.topic("m");
        hub.subscribe(t, ep(1)).unwrap();
        let mut dec = ChannelDecoder::expecting(vec![self::schema(), schema.clone()]);
        let mut rows = Vec::new();
        for i in 0..5i64 {
            let row = [i * 1000, -i, (0.5 * i as f64).to_bits() as i64, i % 2 * 7];
            let wire = &hub.publish_raw(t, &schema, &row).unwrap()[0].1;
            let start = rows.len();
            let frame = dec.decode_row(wire, &mut rows).unwrap();
            assert_eq!(frame, Some((t, Some(1))));
            assert_eq!(rows[start..], [row[0], row[1], row[2], i % 2]);
            let (topic, values) = dec.decode(wire).unwrap().unwrap();
            assert_eq!(topic, t);
            assert_eq!(
                values,
                pbio::row_to_values(&schema, &rows[start..]).unwrap()
            );
        }
        assert_eq!(rows.len(), 5 * schema.len());
    }

    #[test]
    fn decode_row_rejects_what_decode_rejects_and_string_schemas() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe(t, ep(1)).unwrap();
        let numeric = numeric_schema();
        let first = hub.publish_raw(t, &numeric, &[1, 2, 3, 1]).unwrap();
        let second = hub.publish_raw(t, &numeric, &[4, 5, 6, 0]).unwrap();
        let strings = hub.publish(t, &schema(), &rec(5, 0.1)).unwrap();
        let mut rows = vec![42];

        let mut dec = ChannelDecoder::new();
        assert!(matches!(
            dec.decode_row(&second[0].1, &mut rows),
            Err(PubSubError::Codec(PbioError::UnknownSchema(_)))
        ));
        dec.decode_row(&first[0].1, &mut rows).unwrap();
        let truncated = &second[0].1[..second[0].1.len() - 1];
        assert_eq!(
            dec.decode_row(truncated, &mut rows),
            Err(PubSubError::Codec(PbioError::UnexpectedEof))
        );
        assert_eq!(
            dec.decode(truncated).unwrap_err(),
            PubSubError::Codec(PbioError::UnexpectedEof)
        );
        // A string schema is learned (so `decode` works) but has no row form.
        assert!(matches!(
            dec.decode_row(&strings[0].1, &mut rows),
            Err(PubSubError::Codec(PbioError::BadSchema(_)))
        ));
        assert_eq!(dec.decode(&strings[0].1).unwrap().unwrap().1, rec(5, 0.1));
        assert_eq!(rows, [42, 1, 2, 3, 1], "failed frames leave the rows alone");
    }

    /// Schema ids come off the wire: a peer announcing a fresh one in
    /// every message stops growing the decoder at its cap, and an id
    /// already learned, announced again, still decodes.
    #[test]
    fn decoder_learns_at_most_max_schemas() {
        let schema = numeric_schema();
        let mut hub = Hub::new();
        let t = hub.topic("m");
        hub.subscribe(t, ep(1)).unwrap();
        let wire = &hub.publish_raw(t, &schema, &[1, 2, 3, 1]).unwrap()[0].1;
        let announce = |id: u32| {
            let mut head = Vec::new();
            write_u64(&mut head, u64::from(t.0));
            write_u64(&mut head, u64::from(id));
            head.push(1);
            schema.encode(&mut head);
            head
        };
        let record = &wire[announce(0).len()..];
        let forged = |id| [announce(id), record.to_vec()].concat();
        let mut dec = ChannelDecoder::new();
        let mut rows = Vec::new();
        for id in 0..MAX_SCHEMAS as u32 + 10 {
            let got = dec.decode_row(&forged(id), &mut rows);
            if (id as usize) < MAX_SCHEMAS {
                assert_eq!(got, Ok(Some((t, None))));
            } else {
                assert_eq!(got, Err(PubSubError::Codec(PbioError::UnknownSchema(id))));
            }
        }
        assert_eq!(dec.schemas.len(), MAX_SCHEMAS);
        assert_eq!(dec.decode_row(&forged(3), &mut rows), Ok(Some((t, None))));
        assert_eq!(rows.len(), (MAX_SCHEMAS + 1) * schema.len());
    }

    /// `(threshold, schema)` of the filter `return x > threshold;`,
    /// compiled at subscribe time against that schema. Schemas are named
    /// by index: 0 is `narrow`, 1 is `wide`.
    type ModelFilter = Option<(i64, usize)>;

    /// One step of a hub's life, for [`hub_matches_model`].
    #[derive(Debug, Clone, Copy)]
    enum HubOp {
        /// Host and its filter.
        Subscribe(u32, ModelFilter),
        Unsubscribe(u32),
        /// A record of that schema with this `x`.
        Publish(usize, i64),
    }
    use HubOp::{Publish, Subscribe, Unsubscribe};

    /// A filter compiled against the two-field schema meets a one-field
    /// record of the topic's other schema.
    const WIDE_FILTER_MEETS_A_NARROW_RECORD: [HubOp; 2] =
        [Subscribe(1, Some((0, 1))), Publish(0, 1)];

    /// Drives a hub through `ops` beside a model in which each endpoint's
    /// own predicate decides: no filter delivers, a filter decides records
    /// of the schema it was compiled for and fails open on the other. The
    /// two schemas put
    /// `x` at different positions, and the field beside it would fail
    /// every threshold if it were read as `x`.
    fn hub_matches_model(case: &str, ops: &[HubOp]) {
        let narrow = Schema::build("narrow").field("x", FieldType::I64);
        let wide = Schema::build("wide")
            .field("y", FieldType::I64)
            .field("x", FieldType::I64);
        let schemas = [narrow.finish().unwrap(), wide.finish().unwrap()];
        let mut hub = Hub::new();
        let t = hub.topic("t");
        // (host, filter, publishes since it joined), registration order.
        let mut model: Vec<(u32, ModelFilter, u64)> = Vec::new();
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Subscribe(host, filter) => {
                    match filter {
                        Some((threshold, compiled)) => hub
                            .subscribe_with_schema(
                                t,
                                ep(host),
                                Some(&format!("return x > {threshold};")),
                                &schemas[compiled],
                            )
                            .map(drop),
                        None => hub.subscribe(t, ep(host)),
                    }
                    .unwrap();
                    // A host that asks again keeps its place in the
                    // delivery order and starts over.
                    match model.iter_mut().find(|m| m.0 == host) {
                        Some(m) => *m = (host, filter, 0),
                        None => model.push((host, filter, 0)),
                    }
                }
                Unsubscribe(host) => {
                    let before = model.len();
                    model.retain(|m| m.0 != host);
                    assert_eq!(hub.unsubscribe(t, ep(host)), before - model.len());
                }
                Publish(schema, x) => {
                    let row = [vec![x], vec![i64::MIN, x]];
                    let sends = hub.publish_raw(t, &schemas[schema], &row[schema]).unwrap();
                    let got: Vec<EndPoint> = sends.iter().map(|s| s.0).collect();
                    let mut want = Vec::new();
                    for (host, filter, seen) in &mut model {
                        *seen += 1;
                        let passes = filter.is_none_or(|(threshold, compiled)| {
                            compiled != schema || x > threshold
                        });
                        if passes {
                            want.push(ep(*host));
                        }
                        let (delivered, filtered) = hub.delivery_stats(t, ep(*host)).unwrap();
                        assert_eq!(delivered + filtered, *seen, "{case}, step {step}: {op:?}");
                    }
                    assert_eq!(got, want, "{case}, step {step}: {op:?}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_each_endpoints_own_filter_decides(
            ops in prop::collection::vec((0u8..4, 1u32..5, 0u8..4, -4i64..4, 0usize..2), 0..40),
        ) {
            hub_matches_model("wide filter meets a narrow record", &WIDE_FILTER_MEETS_A_NARROW_RECORD);
            let ops: Vec<HubOp> = ops
                .into_iter()
                .map(|(op, host, kind, x, schema)| match (op, kind) {
                    (0, 0) => Subscribe(host, None),
                    (0, _) => Subscribe(host, Some((x, schema))),
                    (1, _) => Unsubscribe(host),
                    _ => Publish(schema, x),
                })
                .collect();
            hub_matches_model("generated", &ops);
        }
    }

    /// Two hubs with the same subscriptions: one unfiltered, one with a
    /// threshold, one whose filter traps on a zero latency (and so fails
    /// open at its bound), and one compiled for another schema.
    fn wake_hubs() -> [(Hub, TopicId); 2] {
        let numeric = numeric_schema();
        let other = Schema::build("other").field("z", FieldType::U64);
        let other = other.finish().unwrap();
        [(); 2].map(|()| {
            let mut hub = Hub::new();
            let t = hub.topic("m");
            hub.subscribe(t, ep(1)).unwrap();
            let filters = [
                (2, "return latency_us > 300;", &numeric),
                (3, "return 1000 / latency_us > 5;", &numeric),
                (4, "return z > 1;", &other),
            ];
            for (host, src, schema) in filters {
                hub.subscribe_with_schema(t, ep(host), Some(src), schema)
                    .unwrap();
            }
            (hub, t)
        })
    }

    proptest! {
        /// One `publish_rows` per wake makes exactly the batches, filter
        /// fuel and counters of one `publish_raw` per row with each
        /// message framed into its subscriber's batch.
        #[test]
        fn prop_publish_rows_is_publish_raw_per_row_framed(
            wakes in prop::collection::vec(
                prop::collection::vec((0i64..400, any::<i64>(), any::<i64>(), 0i64..3), 0..12),
                1..5,
            ),
        ) {
            let numeric = numeric_schema();
            let [(mut rows_hub, t), (mut raw_hub, _)] = wake_hubs();
            for wake in &wakes {
                let rows: Vec<i64> = wake.iter().flat_map(|&(a, b, c, d)| [a, b, c, d]).collect();
                let mut got = BTreeMap::new();
                let n = rows_hub.publish_rows(t, &numeric, &rows, &mut got).unwrap();
                let mut want: BTreeMap<EndPoint, Vec<u8>> = BTreeMap::new();
                let mut sends = 0;
                for row in rows.chunks_exact(4) {
                    for (to, wire) in raw_hub.publish_raw(t, &numeric, row).unwrap() {
                        frame_into(want.entry(to).or_default(), &wire);
                        sends += 1;
                    }
                }
                prop_assert_eq!(n, sends);
                prop_assert_eq!(got, want);
                prop_assert_eq!(rows_hub.filter_fuel(), raw_hub.filter_fuel());
                for host in 1..5 {
                    prop_assert_eq!(
                        rows_hub.delivery_stats(t, ep(host)),
                        raw_hub.delivery_stats(t, ep(host))
                    );
                }
            }
        }
    }

    #[test]
    fn publish_rows_rejects_partial_rows_and_admits_nothing_for_none() {
        let numeric = numeric_schema();
        let [(mut hub, t), _] = wake_hubs();
        let mut batches = BTreeMap::new();
        assert_eq!(
            hub.publish_rows(t, &numeric, &[1, 2, 3, 1, 5], &mut batches),
            Err(PubSubError::SchemaMismatch)
        );
        assert_eq!(
            hub.publish_rows(TopicId(9), &numeric, &[1, 2, 3, 1], &mut batches),
            Err(PubSubError::UnknownTopic(TopicId(9)))
        );
        assert_eq!(hub.publish_rows(t, &numeric, &[], &mut batches), Ok(0));
        assert!(batches.is_empty());
        assert_eq!(hub.filter_fuel(), 0);
    }

    #[test]
    fn publish_raw_rejects_string_schemas() {
        let mut hub = Hub::new();
        let t = hub.topic("m");
        hub.subscribe(t, ep(1)).unwrap();
        assert!(matches!(
            hub.publish_raw(t, &schema(), &[1, 2, 3]),
            Err(PubSubError::Codec(PbioError::BadSchema(_)))
        ));
        // Row/schema arity mismatches fail the same way `publish` does.
        assert!(matches!(
            hub.publish_raw(t, &numeric_schema(), &[1]),
            Err(PubSubError::SchemaMismatch)
        ));
    }
}

#[cfg(test)]
#[allow(unused)] // a typecheck-only proptest elides macro bodies, orphaning these imports
mod wire_fuzz {
    use super::*;
    use proptest::prelude::*;
    use simnet::{Ip, Port};

    proptest! {
        /// The channel decoder is total on arbitrary input.
        #[test]
        fn prop_decoder_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut dec = ChannelDecoder::new();
            let _ = dec.decode(&bytes);
            let _ = dec.decode_row(&bytes, &mut Vec::new());
        }

        /// Publish → decode round-trips arbitrary numeric records.
        #[test]
        fn prop_publish_decode_roundtrip(a in any::<u64>(), b in any::<i64>(), c in -1e300f64..1e300) {
            let schema = Schema::build("fuzzrec")
                .field("a", FieldType::U64)
                .field("b", FieldType::I64)
                .field("c", FieldType::F64)
                .finish()
                .unwrap();
            let mut hub = Hub::new();
            let t = hub.topic("x");
            hub.subscribe(t, EndPoint::new(Ip(1), Port(9))).unwrap();
            let values = vec![Value::U64(a), Value::I64(b), Value::F64(c)];
            let sends = hub.publish(t, &schema, &values).unwrap();
            prop_assert_eq!(sends.len(), 1);
            let mut dec = ChannelDecoder::new();
            let (topic, decoded) = dec.decode(&sends[0].1).unwrap().unwrap();
            prop_assert_eq!(topic, t);
            prop_assert_eq!(decoded, values);
        }
    }
}
