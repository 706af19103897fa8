//! `gpa_query`: the GPA read the other way. A GPA loaded (untimed)
//! with the records a real key-value-store world delivered answers one
//! operator pass per repetition: `correlate()` +
//! `all_class_summaries()` + `dump_json()`. The traced run also times
//! `correlate()` once over a store one size up, past the 2 MiB L2.

use simcore::SimDuration;
use sysprof::{Gpa, GpaConfig};
use sysprof_apps::{KvStoreScenario, ScenarioSpec};

use super::{RepOut, Size, Whole, Workload};
use crate::fingerprint::{Fingerprint, Fnv};
use crate::trace::Tracer;

/// The loaded GPA and the reference result every pass must reproduce.
pub struct GpaQuery {
    gpa: Gpa,
    reference: Option<u64>,
    seed: u64,
    size: Size,
}

/// Runs the capturing world for `seed` and loads the first `records`
/// interactions its GPA received into a fresh GPA. The count is fixed
/// because `correlate()` is at least quadratic in it: a world that
/// delivers 3 % more records under another seed would move the metric
/// by 6 % with no change in the program.
///
/// 4,096 records (0.5 MB) stay in the L2 and a pass takes 12 ms. Past
/// the L2 the cost per pair rises steeply — 16,384: 0.25 s; 20,480:
/// 0.65 s; ISSUE.md's 26,250: 2.0 s — and follows the host's shared
/// last-level cache: ten 12-second runs at 16,384 or 20,480 records
/// spread 11–14 %, against 1–3 % at 4,096. So the end-to-end workload
/// runs at 4,096 and the large store is a per-layer figure.
fn load(seed: u64, size: Size) -> Gpa {
    let (millis, records) = match size {
        Size::Quick => (150, 1_024),
        Size::Full => (500, 4_096),
        Size::Large => (2_200, 26_250),
    };
    let spec = KvStoreScenario {
        duration: SimDuration::from_millis(millis),
        ..KvStoreScenario::default()
    };
    let run = spec.run(seed);
    let captured = run.sysprof.gpa();
    let captured = captured.borrow();
    let taken = captured.interactions();
    assert!(
        taken.len() >= records,
        "the capturing world delivered {} records, fewer than {records}",
        taken.len()
    );
    let mut gpa = Gpa::new(GpaConfig::default());
    gpa.ingest_records(&taken[..records]);
    gpa
}

impl GpaQuery {
    /// Sets the store up for `seed` at `size` (quick or full).
    pub fn new(seed: u64, size: Size) -> GpaQuery {
        GpaQuery {
            gpa: load(seed, size),
            reference: None,
            seed,
            size,
        }
    }
}

impl Workload for GpaQuery {
    fn unit(&self) -> &'static str {
        "passes"
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let gpa = &self.gpa;
        let ((paths, summaries, dump), wall_ns) = tr.time("gpa_query.rep", |tr| {
            let open = tr.begin("core.gpa.correlate");
            let paths = gpa.correlate();
            tr.end(open);
            let open = tr.begin("core.gpa.all_class_summaries");
            let summaries = gpa.all_class_summaries();
            tr.end(open);
            let open = tr.begin("core.gpa.dump_json");
            let dump = gpa.dump_json();
            tr.end(open);
            (paths, summaries, dump)
        });

        let mut h = Fnv::default();
        let mut children = 0u64;
        for p in &paths {
            h.u64(p.parent.node.0 as u64);
            h.u64(p.parent.start_us);
            h.u64(p.parent.end_us);
            h.u64(p.children.len() as u64);
            h.u64(p.downstream_us());
            children += p.children.len() as u64;
        }
        let paths_hash = h.finish();
        let mut h = Fnv::default();
        h.bytes(dump.as_bytes());
        let dump_hash = h.finish();

        let mut fp = Fingerprint::default();
        fp.put("gpa.records_held", gpa.interaction_count());
        fp.put("correlate.paths", paths.len());
        fp.put("correlate.children", children);
        fp.put("correlate.paths_hash", paths_hash);
        fp.put("class_summaries", summaries.len());
        fp.put("dump_json.bytes", dump.len());
        fp.put("dump_json.hash", dump_hash);

        // Reads must not change the store: every pass equals the first.
        let result = paths_hash ^ dump_hash.rotate_left(1);
        let reference = *self.reference.get_or_insert(result);
        let differs = result != reference;
        RepOut {
            wall_ns,
            units: 1,
            attempted: 1,
            failed: differs as u64,
            fingerprint: fp,
            violations: if paths.is_empty() {
                vec!["correlate() found no path in a routed workload".to_owned()]
            } else {
                Vec::new()
            },
            counts: vec![
                ("core.gpa.records_held", gpa.interaction_count() as f64),
                ("core.gpa.paths_found", paths.len() as f64),
            ],
        }
    }

    fn layers(
        &mut self,
        tr: &mut Tracer,
        _whole: Whole,
        _last: &RepOut,
    ) -> Vec<(&'static str, f64)> {
        let st = tr.self_times();
        let mean = |name: &str, unit_ns: f64| {
            st.get(name)
                .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / unit_ns)
        };

        // The same call over a store one size up (26,250 records in a
        // full run): the faster of two passes.
        let large = load(self.seed, self.size.up());
        let mut large_ns = u64::MAX;
        let mut found = None;
        for _ in 0..2 {
            let (paths, ns) = tr.time("core.gpa.correlate.large", |_| large.correlate().len());
            assert!(paths > 0, "correlate() found no path in the large store");
            assert_eq!(*found.get_or_insert(paths), paths, "passes disagree");
            large_ns = large_ns.min(ns);
        }
        vec![
            ("core.gpa.correlate_ms.large", large_ns as f64 / 1e6),
            (
                "core.gpa.records_held.large",
                large.interaction_count() as f64,
            ),
            ("core.gpa.correlate_ms", mean("core.gpa.correlate", 1e6)),
            (
                "core.gpa.class_summaries_us",
                mean("core.gpa.all_class_summaries", 1e3),
            ),
            ("core.gpa.dump_json_us", mean("core.gpa.dump_json", 1e3)),
        ]
    }
}
