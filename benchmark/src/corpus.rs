//! The fixed E-Code corpus `install_churn` submits, and the one place
//! every harness program is installed through.
//!
//! Twelve programs the product runs today (the CPAs, subscription
//! filters and digests of `examples/`, `crates/bench`, the benches and
//! the sharded-GPA tests) and four that must be refused, one per
//! rejection class. Every program goes through the product's own entry
//! point for its kind — `CpaAnalyzer::compile` (against
//! `sysprof::EVENT_INPUTS`), `Hub::subscribe_with_schema` (the public
//! door to the private `Filter::compile`) and `ShardedDigest::compile`
//! (both against `InteractionRecord::schema()`) — never a hand-copied
//! input signature: `crates/bench`'s `CPA_EVENT_INPUTS` calls the
//! timestamp `wall` where the product says `wall_us`, so its
//! `latency_minmax` is refused by `CpaAnalyzer::compile` with E0004.
//! That very source is kept here as the "unknown identifier" reject.

use ecode::{ExecTier, Severity, VerifyError};
use kprof::EventMask;
use pbio::Schema;
use pubsub::digest::ShardedDigest;
use pubsub::{Hub, PubSubError};
use simnet::{EndPoint, Ip, Port};
use sysprof::CpaAnalyzer;

/// Which install entry point a program goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `CpaAnalyzer::compile`.
    Cpa,
    /// `Hub::subscribe_with_schema`.
    Filter,
    /// `ShardedDigest::compile(.., 1)`.
    Digest,
}

/// One corpus program.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Stable name (fingerprint key).
    pub name: &'static str,
    /// Install entry point.
    pub kind: Kind,
    /// E-Code source.
    pub source: String,
    /// `None` for a program that must install; the diagnostic code that
    /// must refuse it otherwise.
    pub reject_code: Option<&'static str>,
}

/// What one install attempt produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Execution tier of the installed program; `None` when refused.
    pub tier: Option<ExecTier>,
    /// Codes of the rejecting diagnostics, in report order.
    pub error_codes: Vec<&'static str>,
}

impl Outcome {
    /// Whether the program was installed.
    pub fn accepted(&self) -> bool {
        self.tier.is_some()
    }
}

/// The pipeline CPA of `crates/bench` (`CPA_PROGRAM`): running ratio
/// with a guarded reporter.
pub const CPA_RATIO: &str = r#"
    static int n = 0;
    static double acc = 0.0;
    n = n + 1;
    acc = acc + size;
    if (size > 800 && port_dst == 80) {
        out(0, acc / n);
        return 1;
    }
    return 0;
"#;

/// The subscription filter of `crates/bench` (`SUB_FILTER`).
pub const FILTER_RESP: &str = "return resp_bytes > 150;";

/// The four-static mergeable digest of `crates/bench`
/// (`DIGEST_PROGRAM`): two counters, a max-fold and a gated counter.
pub const DIGEST_FOUR: &str = "
    static int requests = 0;
    static int bytes = 0;
    static int worst_us = 0;
    static int big_resp = 0;
    requests = requests + 1;
    bytes = bytes + req_bytes + resp_bytes;
    worst_us = max(worst_us, end_us - start_us);
    if (resp_bytes > 150) { big_resp = big_resp + 1; }
    return requests;
";

/// Statics of [`DIGEST_FOUR`], declaration order.
pub const DIGEST_FOUR_GLOBALS: [&str; 4] = ["requests", "bytes", "worst_us", "big_resp"];

const CPA_GATED_COUNTER: &str = r#"
    static int seen = 0;
    static int nfs = 0;
    static int big = 0;
    seen = seen + 1;
    if (port_dst == 2049 && size > 1000) {
        nfs = nfs + 1;
        big = max(big, size);
    }
    return nfs > 0 && seen % 100 == 0;
"#;

/// `crates/bench`'s `latency_minmax`, with the timestamp input under
/// `{wall}`: `wall_us` is the product's name, `wall` the stale one.
fn latency_minmax(wall: &str) -> String {
    format!(
        r#"
    static int events = 0;
    static int lo = 9223372036854775807;
    static int hi = 0;
    static int span = 0;
    events = events + 1;
    lo = min(lo, {wall});
    hi = max(hi, {wall});
    span = hi - lo;
    if (events % 1000 == 0) {{ out(1, span); }}
    return 0;
"#
    )
}

const CPA_RX_SIZE_PROFILE: &str = r#"
    static int packets = 0;
    static int big_packets = 0;
    static double total_bytes = 0.0;
    if (kind == 7) {
        packets = packets + 1;
        total_bytes = total_bytes + size;
        if (size >= 1400) {
            big_packets = big_packets + 1;
        }
        out(0, total_bytes / packets);
        out(1, big_packets);
    }
    return size >= 1400;
"#;

const CPA_PORT_RATIO: &str = r#"static int reqs = 0;
static int total = 0;
if (port_dst == 2049) {
    reqs = reqs + 1;
}
total = total + size;
if (1 == 1) {
    out(0, total / max(reqs, 1));
}
return reqs;
"#;

const CPA_BIG_RX_MEAN: &str = r#"
    static int count = 0;
    static double total = 0.0;
    if (kind == 7 && size > 1000) {
        count = count + 1;
        total = total + size;
        out(0, total / count);
    }
    return count % 100 == 0;
"#;

const DIGEST_SLO: &str = "
    static int requests = 0;
    static int bytes = 0;
    static int worst_us = 0;
    static int slo_misses = 0;
    requests = requests + 1;
    bytes = bytes + req_bytes + resp_bytes;
    worst_us = max(worst_us, end_us - start_us);
    if (end_us - start_us > 1000) { slo_misses = slo_misses + 1; }
    return requests;
";

const DIGEST_SEEN: &str = "
    static int seen = 0;
    static int bytes = 0;
    static int worst_us = 0;
    seen = seen + 1;
    bytes = bytes + req_bytes + resp_bytes;
    worst_us = max(worst_us, end_us - start_us);
    return 0;
";

/// 700 increments: worst-case fuel above the CPA budget of 2,000.
fn over_budget() -> String {
    let mut src = String::from("static int s = 0;\n");
    for _ in 0..700 {
        src.push_str("s = s + 1;\n");
    }
    src.push_str("return s;\n");
    src
}

/// The sixteen programs, in a fixed order.
pub fn corpus() -> Vec<Entry> {
    let ok = |name, kind, source: &str| Entry {
        name,
        kind,
        source: source.to_owned(),
        reject_code: None,
    };
    let bad = |name, kind, source: String, code| Entry {
        name,
        kind,
        source,
        reject_code: Some(code),
    };
    vec![
        ok("cpa.ratio", Kind::Cpa, CPA_RATIO),
        ok("cpa.gated_counter", Kind::Cpa, CPA_GATED_COUNTER),
        ok("cpa.latency_minmax", Kind::Cpa, &latency_minmax("wall_us")),
        ok("cpa.rx_size_profile", Kind::Cpa, CPA_RX_SIZE_PROFILE),
        ok("cpa.port_ratio", Kind::Cpa, CPA_PORT_RATIO),
        ok("cpa.big_rx_mean", Kind::Cpa, CPA_BIG_RX_MEAN),
        ok("filter.resp_bytes", Kind::Filter, FILTER_RESP),
        ok(
            "filter.kernel_in_5",
            Kind::Filter,
            "return kernel_in_us > 5;",
        ),
        ok(
            "filter.kernel_in_1000",
            Kind::Filter,
            "return kernel_in_us > 1000;",
        ),
        ok("digest.four", Kind::Digest, DIGEST_FOUR),
        ok("digest.slo", Kind::Digest, DIGEST_SLO),
        ok("digest.seen", Kind::Digest, DIGEST_SEEN),
        bad(
            "reject.div_by_zero",
            Kind::Filter,
            "return kernel_in_us / 0;".to_owned(),
            "E0001",
        ),
        bad("reject.fuel", Kind::Cpa, over_budget(), "E0003"),
        bad(
            "reject.unknown_ident",
            Kind::Cpa,
            latency_minmax("wall"),
            "E0004",
        ),
        bad(
            "reject.out_slot",
            Kind::Cpa,
            "static int total = 0;\ntotal = total + size;\nout(500, total);\nreturn 0;\n"
                .to_owned(),
            "E0002",
        ),
    ]
}

fn error_codes(err: &VerifyError) -> Vec<&'static str> {
    err.diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect()
}

/// Installs one program through the product entry point of its kind.
/// `schema` is `InteractionRecord::schema()`, built once by the caller.
pub fn install(entry: &Entry, schema: &Schema) -> Outcome {
    let refused = |err: &VerifyError| Outcome {
        tier: None,
        error_codes: error_codes(err),
    };
    let installed = |tier| Outcome {
        tier: Some(tier),
        error_codes: Vec::new(),
    };
    let unexpected = |err: PubSubError| panic!("{}: not a verifier refusal: {err}", entry.name);
    match entry.kind {
        Kind::Cpa => match CpaAnalyzer::compile(entry.name, &entry.source, EventMask::NETWORK) {
            Ok(cpa) => installed(cpa.tier()),
            Err(err) => refused(&err.0),
        },
        Kind::Filter => {
            let mut hub = Hub::new();
            let topic = hub.topic(sysprof::INTERACTION_TOPIC);
            let ep = EndPoint::new(Ip(9), Port(9999));
            match hub.subscribe_with_schema(topic, ep, Some(&entry.source), schema) {
                Ok(_) => installed(if hub.filter_tiers().0 == 1 {
                    ExecTier::Compiled
                } else {
                    ExecTier::Fused
                }),
                Err(PubSubError::BadFilter(err)) => refused(&err),
                Err(other) => unexpected(other),
            }
        }
        Kind::Digest => match ShardedDigest::compile(&entry.source, schema, 1) {
            Ok(digest) => installed(digest.tier()),
            Err(PubSubError::BadFilter(err)) => refused(&err),
            Err(other) => unexpected(other),
        },
    }
}

/// Whether an outcome is the one the corpus entry demands.
pub fn as_expected(entry: &Entry, outcome: &Outcome) -> bool {
    match entry.reject_code {
        None => outcome.accepted(),
        Some(code) => !outcome.accepted() && outcome.error_codes.contains(&code),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_install_and_four_are_refused_for_the_stated_reason() {
        let schema = sysprof::InteractionRecord::schema();
        let corpus = corpus();
        assert_eq!(corpus.len(), 16);
        assert_eq!(
            corpus.iter().filter(|e| e.reject_code.is_none()).count(),
            12
        );
        for e in &corpus {
            let out = install(e, &schema);
            assert!(as_expected(e, &out), "{}: {out:?}", e.name);
        }
    }
}
