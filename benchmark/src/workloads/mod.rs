//! The seven workloads: six short ones whose working sets stay in the
//! caches, and `gpa_wire_large`, the wire-to-digest path at a size far
//! out of them.
//!
//! A workload is built from `(seed, size)` — that is its set-up: input
//! generation, world capture, prefill — and then asked for repetitions.
//! Each repetition does a fixed amount of work through the product's
//! public functions, times only those calls, and folds what it can
//! observe into a fingerprint. `layers` runs the stage-isolated replays
//! that attribute the whole to this repo's modules.

use crate::fingerprint::Fingerprint;
use crate::trace::Tracer;

pub mod cluster;
pub mod gpa_query;
pub mod gpa_wire;
pub mod install_churn;
pub mod node_hotpath;

/// What one repetition did.
#[derive(Debug, Clone, Default)]
pub struct RepOut {
    /// Wall time of the calls into the product, ns.
    pub wall_ns: u64,
    /// Units of work done (the numerator of `work_per_s`): hits, events,
    /// records, operator passes or installs, per workload.
    pub units: u64,
    /// Operations attempted, for the failure share.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Deterministic results; equal on every repetition of a seed.
    pub fingerprint: Fingerprint,
    /// Invariants that did not hold (checked on every seed).
    pub violations: Vec<String>,
    /// Exact, seed-determined figures (`sim_overhead_pct`,
    /// `wire_bytes_per_record`) and the layer counters read from the
    /// product's `*Stats` accessors.
    pub counts: Vec<(&'static str, f64)>,
}

impl RepOut {
    /// The value of a named count, if this repetition reported it.
    pub fn count(&self, name: &str) -> Option<f64> {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Wall time of the fastest untraced repetition, handed to
/// [`Workload::layers`] so a ledger can be reconciled against it.
#[derive(Debug, Clone, Copy)]
pub struct Whole {
    /// Smallest `wall_ns` among the untraced repetitions.
    pub wall_ns: f64,
}

/// How much work one repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The harness's own test: every repetition well under a second.
    Quick,
    /// Tens of milliseconds per repetition, working set cache-resident,
    /// so a run holds hundreds of repetitions.
    Full,
    /// The sizes ISSUE.md measured at: the store outgrows the 2 MiB L2
    /// (786,432 wire records, 26,250 stored ones). A repetition takes
    /// half a second and more, so a run holds tens, not hundreds.
    Large,
}

impl Size {
    /// The size every workload runs at in a `--quick` or a full suite.
    pub fn of(quick: bool) -> Size {
        if quick {
            Size::Quick
        } else {
            Size::Full
        }
    }

    /// One step up: what a `*_large` workload runs at.
    pub fn up(self) -> Size {
        match self {
            Size::Quick => Size::Full,
            Size::Full | Size::Large => Size::Large,
        }
    }
}

/// One workload, set up and ready to repeat.
pub trait Workload {
    /// What `work_per_s` counts for this workload: hits, events,
    /// records, passes or installs.
    fn unit(&self) -> &'static str;

    /// Set-ups a run makes (`setup_s` is their median). A set-up of a
    /// [`Size::Large`] workload costs a second, so a run affords three.
    fn setups(&self) -> usize {
        7
    }

    /// Runs one repetition.
    fn rep(&mut self, tr: &mut Tracer) -> RepOut;

    /// Per-layer timings from stage-isolated replays, plus the ledger
    /// where the workload has one. `last` is the traced repetition.
    fn layers(&mut self, tr: &mut Tracer, whole: Whole, last: &RepOut) -> Vec<(&'static str, f64)>;
}

/// Sets a workload up from the seed. `quick` selects the small sizes
/// (every repetition well under a second) used by the harness's own
/// test; the fingerprints of the two sizes are kept apart.
/// `gpa_wire_large` runs one size up from `gpa_wire`.
pub fn build(name: &str, seed: u64, quick: bool) -> Option<Box<dyn Workload>> {
    let size = Size::of(quick);
    Some(match name {
        "cluster_kv" => Box::new(cluster::Cluster::kv(seed, quick)),
        "cluster_iperf" => Box::new(cluster::Cluster::iperf(seed, quick)),
        "node_hotpath" => Box::new(node_hotpath::NodeHotpath::new(seed, quick)),
        "gpa_wire" => Box::new(gpa_wire::GpaWire::new(seed, size)),
        "gpa_query" => Box::new(gpa_query::GpaQuery::new(seed, size)),
        "gpa_wire_large" => Box::new(gpa_wire::GpaWire::new(seed, size.up())),
        "install_churn" => Box::new(install_churn::InstallChurn::new(seed, quick)),
        _ => return None,
    })
}
