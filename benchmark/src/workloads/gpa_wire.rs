//! `gpa_wire`: sealed wire batches from eight daemons into a default
//! GPA with a four-static mergeable digest at two shards — reassembly,
//! PBIO decode, record store and digest plane — ending with the folded
//! digest read (drain barrier + fold). `gpa_wire_large` is the same
//! path at ISSUE.md's size: 786,432 records, a 90 MB store, nothing
//! cache-resident.

use std::hint::black_box;

use simcore::SimTime;
use sysprof::{Gpa, GpaConfig, InteractionRecord};

use super::{RepOut, Size, Whole, Workload};
use crate::corpus::{DIGEST_FOUR, DIGEST_FOUR_GLOBALS};
use crate::fingerprint::{Fingerprint, Fnv};
use crate::gen::{self, WireInput, GPA_EP};
use crate::procfs;
use crate::replay::{self, ReplaySize};
use crate::stats;
use crate::trace::Tracer;

/// Daemons feeding the GPA.
const SOURCES: usize = 8;
/// Record frames per sealed batch.
const FRAMES_PER_BATCH: usize = 64;
/// Shards of the end-to-end digest: one worker per core of the
/// 2-processor reference host.
const SHARDS: usize = 2;

/// The generated wire input and the sequential reference digest.
pub struct GpaWire {
    records: Vec<InteractionRecord>,
    input: WireInput,
    /// Raw bits of the digest statics from a `shards = 1` digest over
    /// the same records: what the sharded fold must equal bit for bit.
    reference: Vec<i64>,
    size: Size,
}

impl GpaWire {
    /// Generates records and wire batches for `seed`. The record count
    /// stays below the GPA's default `max_records`, so no repetition
    /// measures eviction (that is `core.gpa.ingest_at_cap_us_per_record`).
    pub fn new(seed: u64, size: Size) -> GpaWire {
        let batches = match size {
            Size::Quick => 256,
            Size::Full => 1_024,
            Size::Large => 12_288,
        };
        let records = gen::records(seed, batches * FRAMES_PER_BATCH, SOURCES);
        let input = gen::wire_input(seed, &records, SOURCES, FRAMES_PER_BATCH);
        let mut sequential = Gpa::new(GpaConfig::default());
        sequential
            .install_digest(DIGEST_FOUR, 1)
            .expect("corpus digest installs");
        sequential.ingest_records(&records);
        let reference = sequential
            .digest()
            .expect("installed")
            .merged()
            .expect("single replica folds")
            .raw_globals()
            .to_vec();
        GpaWire {
            records,
            input,
            reference,
            size,
        }
    }
}

impl Workload for GpaWire {
    fn unit(&self) -> &'static str {
        "records"
    }

    fn setups(&self) -> usize {
        if self.size == Size::Large {
            3
        } else {
            7
        }
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let mut gpa = Gpa::new(GpaConfig::default());
        gpa.install_digest(DIGEST_FOUR, SHARDS)
            .expect("corpus digest installs");
        let input = &self.input;
        let ((decoded, replies), wall_ns) = tr.time("gpa_wire.rep", |tr| {
            let mut decoded = 0u64;
            let mut replies = Fnv::default();
            for (k, (src, wire)) in input.arrivals.iter().enumerate() {
                let now = SimTime::from_micros(k as u64 * 10);
                let open = tr.begin("core.gpa.ingest_wire");
                let (n, ctl) = gpa.ingest_wire(now, GPA_EP, *src, wire);
                tr.end(open);
                decoded += n as u64;
                replies.u64(ctl.len() as u64);
            }
            let open = tr.begin("core.gpa.digest_global");
            black_box(gpa.digest_global(DIGEST_FOUR_GLOBALS[0]));
            tr.end(open);
            (decoded, replies.finish())
        });

        let held = gpa.interaction_count();
        let gstats = gpa.gpa_stats();
        let dstats = gpa.digest_stats().expect("digest installed");
        let folded = gpa
            .digest()
            .expect("digest installed")
            .merged()
            .expect("mergeable digest folds")
            .raw_globals()
            .to_vec();

        let mut fp = Fingerprint::default();
        fp.put("records", input.records);
        fp.put("batches", input.batches);
        fp.put("wire_bytes", input.wire_bytes);
        fp.put("gpa.records_held", held);
        fp.put("gpa.decode_failures", gpa.decode_failures());
        fp.put("gpa.batches_received", gstats.batches_received);
        fp.put("gpa.duplicate_batches", gstats.duplicate_batches);
        fp.put("gpa.out_of_order", gstats.out_of_order);
        fp.put("gpa.gaps_detected", gstats.gaps_detected);
        fp.put("gpa.gaps_recovered", gstats.gaps_recovered);
        fp.put("gpa.gaps_abandoned", gstats.gaps_abandoned);
        fp.put("gpa.nacks_sent", gstats.nacks_sent);
        fp.put("gpa.replies_hash", replies);
        fp.put("digest.events", dstats.events);
        fp.put("digest.shards", dstats.shards);
        for (name, bits) in DIGEST_FOUR_GLOBALS.iter().zip(&folded) {
            fp.put(&format!("digest.{name}.bits"), bits);
        }

        let mut violations = Vec::new();
        if decoded != input.records || held != input.records {
            violations.push(format!(
                "{} records sent, {decoded} decoded, {held} held: not exactly once",
                input.records
            ));
        }
        if folded != self.reference {
            violations.push(format!(
                "sharded digest {folded:?} != shards=1 digest {:?}",
                self.reference
            ));
        }
        if gstats.duplicate_batches != input.duplicates {
            violations.push("duplicate batches were not all recognised".to_owned());
        }
        let missing = input.records.abs_diff(held);
        RepOut {
            wall_ns,
            units: input.records,
            attempted: input.records,
            failed: missing + gpa.decode_failures(),
            fingerprint: fp,
            violations,
            counts: vec![
                ("core.gpa.records_held", held as f64),
                ("core.gpa.decode_failures", gpa.decode_failures() as f64),
                ("core.gpa.gaps_abandoned", gstats.gaps_abandoned as f64),
                (
                    "pubsub.reliable.duplicates",
                    gstats.duplicate_batches as f64,
                ),
                ("pubsub.reliable.out_of_order", gstats.out_of_order as f64),
            ],
        }
    }

    fn layers(
        &mut self,
        tr: &mut Tracer,
        _whole: Whole,
        _last: &RepOut,
    ) -> Vec<(&'static str, f64)> {
        let quick = self.size == Size::Quick;
        let size = ReplaySize::of(quick);
        // Per-batch ingest latency from the traced repetition's spans.
        let batch_us: Vec<f64> = tr
            .durations_of("core.gpa.ingest_wire")
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect();

        // Memory held per record: six GPAs loaded side by side, and the
        // largest resident growth any one of them caused. The first few
        // are served from what the allocator kept of the repetitions'
        // freed GPAs and grow nothing; once that pool is spent, a GPA
        // costs what it holds. (Three at the large size, 90 MB each.)
        let copies = if self.size == Size::Large { 3 } else { 6 };
        let mut loaded = Vec::new();
        let mut growth_mb = 0.0f64;
        for _ in 0..copies {
            let before = procfs::rss_mb();
            let mut gpa = Gpa::new(GpaConfig::default());
            gpa.ingest_records(&self.records);
            loaded.push(gpa);
            growth_mb = growth_mb.max(procfs::rss_mb() - before);
        }
        drop(loaded);
        let bytes_held = growth_mb * 1024.0 * 1024.0 / self.records.len() as f64;

        let recv = replay::recv_side(tr, &self.input, &self.records);
        let (cap, more) = if quick { (4_096, 256) } else { (65_536, 2_048) };
        let at_cap_us = replay::gpa_at_cap(tr, &self.records, cap, more);
        let sample = &self.records[..size.records.min(self.records.len())];
        let batch_eval_ns = replay::ecode_batch_eval(tr, sample);
        let s1 = replay::digest(tr, &self.records, 1);
        let s2 = replay::digest(tr, &self.records, 2);
        let s8 = replay::digest(tr, &self.records, 8);
        assert_eq!(
            s1.globals, self.reference,
            "replayed digest disagrees with the GPA's"
        );
        assert_eq!(
            s2.globals, s1.globals,
            "2-shard fold differs from sequential"
        );
        assert_eq!(
            s8.globals, s1.globals,
            "8-shard fold differs from sequential"
        );

        vec![
            (
                "pubsub.reliable.offer_ns_per_batch",
                recv.offer_ns_per_batch,
            ),
            ("pbio.decode_ns_per_record", recv.decode_ns),
            ("core.gpa.ingest_wire_ns_per_record", recv.ingest_wire_ns),
            (
                "core.gpa.ingest_record_ns_per_record",
                recv.ingest_record_ns,
            ),
            (
                "core.gpa.ingest_batch_p50_us",
                stats::percentile(&batch_us, 50.0),
            ),
            (
                "core.gpa.ingest_batch_p99_us",
                stats::percentile(&batch_us, 99.0),
            ),
            ("core.gpa.ingest_at_cap_us_per_record", at_cap_us),
            ("core.gpa.bytes_per_record_held", bytes_held),
            ("ecode.batch_eval_ns_per_row", batch_eval_ns),
            ("pubsub.digest.ingest_ns_per_record.s1", s1.ingest_ns),
            ("pubsub.digest.ingest_ns_per_record.s2", s2.ingest_ns),
            ("pubsub.digest.ingest_ns_per_record.s8", s8.ingest_ns),
            ("pubsub.digest.merged_us", s2.merged_us),
            ("pubsub.digest.install_us.s1", s1.install_us),
            ("pubsub.digest.install_us.s2", s2.install_us),
            ("pubsub.digest.install_us.s8", s8.install_us),
        ]
    }
}
