//! `/proc`-style textual views of monitoring state.
//!
//! The dissemination daemon "makes [the data] available to the user-level
//! through the standard `/proc` virtual filesystem interface" (§2, as
//! with Dproc). These renderers produce the file contents an
//! administrator would `cat`.

use ecode::ExecTier;
use kprof::Kprof;
use pubsub::reliable::{Receiver, Sender};
use pubsub::Hub;
use simcore::NodeId;

use crate::cost;
use crate::cpa::CpaAnalyzer;
use crate::gpa::Gpa;
use crate::lpa::Lpa;
use crate::records::ClassSummary;

/// Renders `/proc/sysprof/interactions`: the LPA's recent-interaction
/// window, one line per interaction.
pub fn render_interactions(lpa: &Lpa) -> String {
    let mut out = String::from(
        "# flow                                  class  pid    start_us     total_us  kern_in  user  kern_out  blocked\n",
    );
    for r in lpa.window_snapshot() {
        out.push_str(&format!(
            "{:<40} {:<6} {:<6} {:<12} {:<9} {:<8} {:<5} {:<9} {}\n",
            r.flow.to_string(),
            r.class_port,
            r.pid,
            r.start_us,
            r.end_us.saturating_sub(r.start_us),
            r.kernel_in_us,
            r.user_us,
            r.kernel_out_us,
            r.blocked_us,
        ));
    }
    out
}

/// Renders `/proc/sysprof/classes`: the node's per-service-class
/// statistics, in the GPA summary's table.
pub fn render_classes(lpa: &Lpa) -> String {
    render_class_table(&lpa.class_summaries())
}

/// Renders `/proc/sysprof/status`: monitoring-layer health for one node.
pub fn render_status(node: NodeId, kprof: &Kprof, lpa: &Lpa) -> String {
    let s = kprof.stats();
    let (lookups, remembered) = lpa.flow_lookups();
    format!(
        "node: {node}\n\
         effective_mask_kinds: {}\n\
         events_generated: {}\n\
         events_delivered: {}\n\
         events_suppressed: {}\n\
         predicate_rejections: {}\n\
         monitoring_overhead: {}\n\
         lpa_events: {}\n\
         lpa_records: {}\n\
         lpa_overwritten: {}\n\
         lpa_arm_dropped: {}\n\
         lpa_flow_lookups: {lookups}\n\
         lpa_flow_remembered: {remembered}\n",
        kprof.effective_mask().len(),
        s.events_generated,
        s.events_delivered,
        s.events_suppressed,
        s.predicate_rejections,
        s.total_overhead,
        lpa.events_seen(),
        lpa.records_completed(),
        lpa.overwritten(),
        lpa.arm_dropped(),
    )
}

/// Renders the GPA's cluster-wide summary table.
pub fn render_gpa_summary(gpa: &Gpa) -> String {
    render_class_table(&gpa.all_class_summaries())
}

/// One line per class summary, under a header.
fn render_class_table(summaries: &[ClassSummary]) -> String {
    let mut out = String::from(
        "# node   class   count   kern_in_us  user_us  kern_out_us  blocked_us  total_us  p50_us   p95_us   p99_us\n",
    );
    for s in summaries {
        out.push_str(&format!(
            "{:<8} {:<7} {:<7} {:<11.1} {:<8.1} {:<12.1} {:<11.1} {:<9.1} {:<8.0} {:<8.0} {:.0}\n",
            s.node.to_string(),
            s.class_port,
            s.count,
            s.mean_kernel_in_us,
            s.mean_user_us,
            s.mean_kernel_out_us,
            s.mean_blocked_us,
            s.mean_total_us,
            s.p50_total_us,
            s.p95_total_us,
            s.p99_total_us,
        ));
    }
    out
}

fn tier_name(tier: ExecTier) -> &'static str {
    match tier {
        ExecTier::Compiled => "compiled",
        ExecTier::Fused => "interpreted",
    }
}

/// Mean fuel per evaluation, `-` before the first one.
fn fuel_per(fuel: u64, n: u64) -> String {
    match n {
        0 => String::from("-"),
        n => format!("{:.1}", fuel as f64 / n as f64),
    }
}

/// Renders what an installed CPA compiled to and why, and what it has
/// cost: one `key: value` line each, keys sorted. `bail` is why the
/// program runs interpreted (`-` when it compiled), `blocks_specialized`
/// how many of the blocks a run can enter have a monomorphized form.
pub fn render_cpa(cpa: &CpaAnalyzer) -> String {
    let (whole_path, blocks) = match cpa.instance.compiled_shape() {
        Some((whole, k, n)) => (whole, format!("{k}/{n} reachable")),
        None => (false, String::from("-")),
    };
    let bail = cpa.instance.compile_bail();
    let mut lines = [
        format!("aborted: {}", cpa.aborted()),
        format!("bail: {}", bail.map_or("-".into(), |b| b.to_string())),
        format!("blocks_specialized: {blocks}"),
        format!("events: {}", cpa.events()),
        format!("flagged: {}", cpa.flagged()),
        format!("fuel_bound: {}", cpa.fuel_bound()),
        format!("fuel_per_event: {}", fuel_per(cpa.fuel_spent, cpa.events())),
        format!("ns_charged: {}", cost::ecode(cpa.fuel_spent).as_nanos()),
        format!("tier: {}", tier_name(cpa.tier())),
        format!("whole_path: {}", if whole_path { "yes" } else { "no" }),
    ];
    lines.sort();
    lines.join("\n") + "\n"
}

/// Renders every subscription on a node's hub, by topic then subscriber:
/// what it has delivered and suppressed, and, when it carries a filter,
/// the filter's proven fuel bound and execution tier (`-` without one).
pub fn render_filters(hub: &Hub) -> String {
    let mut out = String::new();
    for (topic, endpoint, filter) in hub.subscriptions() {
        let (delivered, filtered) = hub
            .topic_id(&topic)
            .and_then(|t| hub.delivery_stats(t, endpoint))
            .unwrap_or((0, 0));
        let (fuel_bound, tier) = match filter {
            Some((bound, tier)) => (bound.to_string(), tier_name(tier)),
            None => (String::from("-"), "-"),
        };
        out.push_str(&format!(
            "filter[{topic} {endpoint}].delivered: {delivered}\n\
             filter[{topic} {endpoint}].filtered: {filtered}\n\
             filter[{topic} {endpoint}].fuel_bound: {fuel_bound}\n\
             filter[{topic} {endpoint}].tier: {tier}\n"
        ));
    }
    out
}

/// Renders what the installed digest compiled to and why, and what it
/// has cost: one `key: value` line each, keys sorted. A slot that keeps
/// the digest on one replica is named with the analysis's reason.
pub fn render_digest(gpa: &Gpa) -> String {
    let Some(digest) = gpa.digest() else {
        return String::from("digest: none\n");
    };
    let stats = digest.stats();
    let evaluator = match digest.batch_bail() {
        None => String::from("vectorized"),
        Some(bail) => format!("scalar ({bail})"),
    };
    let fuel_per_record = fuel_per(stats.fuel_spent, stats.events);
    let per_replica: Vec<String> = stats.per_shard_events.iter().map(u64::to_string).collect();
    let tier = tier_name(digest.tier());
    let mut lines = vec![
        format!("aborted: {}", stats.aborted),
        format!("evaluator: {evaluator}"),
        format!("events: {}", stats.events),
        format!("events_per_replica: {}", per_replica.join(" ")),
        format!("fuel_bound: {}", digest.fuel_bound()),
        format!("fuel_per_record: {fuel_per_record}"),
        format!("replicas_requested: {}", stats.requested_shards),
        format!("replicas_running: {}", stats.shards),
        format!("skipped: {}", stats.skipped),
        format!("tier: {tier}"),
    ];
    for slot in digest.plan().unsafe_slots() {
        let why = match &slot.class {
            ecode::MergeClass::Opaque { reason, .. } => reason,
            class => class.describe(),
        };
        lines.push(format!("unmergeable.{}: {why}", slot.name));
    }
    lines.sort();
    lines.join("\n") + "\n"
}

/// Renders where each reliable stream through a node stands, one
/// `key: value` line per fact: the streams it subscribes to (`rx`, by
/// source) before the streams it publishes (`tx`, by subscriber), keys
/// sorted within a stream.
pub fn render_streams(tx: Option<&Sender>, rx: Option<&Receiver>) -> String {
    let sides = [
        ("rx", rx.map(Receiver::streams)),
        ("tx", tx.map(Sender::streams)),
    ];
    let mut out = String::new();
    for (side, streams) in sides {
        for (peer, state) in streams.into_iter().flatten() {
            for (key, value) in state {
                out.push_str(&format!("{side}[{peer}].{key}: {value}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpa::LpaConfig;
    use simnet::Ip;

    #[test]
    fn renders_are_nonempty_and_have_headers() {
        let lpa = Lpa::new(NodeId(0), Ip::for_node_index(0), LpaConfig::default());
        let kprof = Kprof::new(NodeId(0));
        let gpa = Gpa::new(crate::GpaConfig::default());
        assert!(render_interactions(&lpa).starts_with("# flow"));
        assert_eq!(render_classes(&lpa), render_gpa_summary(&gpa));
        assert!(render_classes(&lpa).starts_with("# node"));
        let status = render_status(NodeId(0), &kprof, &lpa);
        assert!(status.contains("events_generated: 0"));
        assert!(status.ends_with("lpa_flow_lookups: 0\nlpa_flow_remembered: 0\n"));
        assert!(render_gpa_summary(&gpa).starts_with("# node"));
        assert_eq!(render_digest(&gpa), "digest: none\n");
        assert_eq!(render_streams(None, Some(gpa.receiver())), "");
    }
}
