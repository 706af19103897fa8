//! The one detector: the signals that turn a tier's class summaries into
//! an indictment.
//!
//! A *tier* is the caller's role map — the shards of a store, the leaves
//! of a fan-out, the ranks of a ring — as `(node, class)` members, read
//! in member order by [`Gpa::tier`](crate::Gpa::tier). Each signal gives
//! one [`Finding`] per member, most indicted first and ties to the lower
//! member index, or `None` for an empty tier. The set is small and knows
//! nothing of any application (Landau et al., PAPERS.md). Nothing here
//! panics: values are ordered with `f64::total_cmp`.

use std::fmt;

use simcore::NodeId;
use simnet::Port;

use crate::gpa::CorrelatedPath;
use crate::records::ClassSummary;

/// What a [`Finding`]'s value and baseline measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Percent of the tier's interactions; baseline: the tier's count.
    Share,
    /// Mean user time, µs; baseline: the tier median.
    User,
    /// p95/p50 of total latency, 0 when p50 is 0; baseline: p50, µs.
    TailRatio,
    /// Mean blocked time, µs; baseline: the tier median.
    Blocked,
    /// Percent of the latency of the member's correlated paths spent in
    /// their children; baseline: how many paths.
    Downstream,
}

/// One tier member's value of one [`Signal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Finding {
    /// What was measured.
    pub signal: Signal,
    /// The member's position in the tier.
    pub member: usize,
    /// The member's node.
    pub node: NodeId,
    /// The member's service class.
    pub class: Port,
    /// The member's value.
    pub value: f64,
    /// What the value is held against.
    pub baseline: f64,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (value, baseline) = match self.signal {
            Signal::Share => ("% of the tier's interactions", " in the tier"),
            Signal::User => ("µs mean user", "µs tier median"),
            Signal::TailRatio => ("x p95/p50", "µs p50"),
            Signal::Blocked => ("µs mean blocked", "µs tier median"),
            Signal::Downstream => ("% of path latency downstream", " correlated paths"),
        };
        write!(
            f,
            "member {} (node {}, port {}): {:.0}{value}, {:.0}{baseline}",
            self.member, self.node.0, self.class.0, self.value, self.baseline
        )
    }
}

/// Each member's share of the tier's interactions.
pub fn share(tier: &[ClassSummary]) -> Option<Vec<Finding>> {
    let total: u64 = tier.iter().map(|s| s.count).sum();
    rank(Signal::Share, tier, |s| match total {
        0 => (0.0, 0.0),
        total => (100.0 * s.count as f64 / total as f64, total as f64),
    })
}

/// Each member's mean user time against the tier median.
pub fn user(tier: &[ClassSummary]) -> Option<Vec<Finding>> {
    against_median(Signal::User, tier, |s| s.mean_user_us)
}

/// Each member's p95/p50 total-latency ratio.
pub fn tail_ratio(tier: &[ClassSummary]) -> Option<Vec<Finding>> {
    rank(Signal::TailRatio, tier, |s| match s.p50_total_us {
        p50 if p50 > 0.0 => (s.p95_total_us / p50, p50),
        p50 => (0.0, p50),
    })
}

/// Each member's mean blocked time against the tier median.
pub fn blocked(tier: &[ClassSummary]) -> Option<Vec<Finding>> {
    against_median(Signal::Blocked, tier, |s| s.mean_blocked_us)
}

/// For each member, the share of its correlated paths' latency spent
/// downstream: `paths` (from [`Gpa::correlate`](crate::Gpa::correlate))
/// whose parent the member measured.
pub fn downstream(tier: &[ClassSummary], paths: &[CorrelatedPath<'_>]) -> Option<Vec<Finding>> {
    rank(Signal::Downstream, tier, |s| {
        let rooted = paths
            .iter()
            .filter(|p| p.parent.node == s.node && p.parent.class_port == s.class_port);
        let (n, total, down) = rooted.fold((0u64, 0u64, 0u64), |(n, t, d), p| {
            let span = p.parent.end_us.saturating_sub(p.parent.start_us);
            (
                n + 1,
                t.saturating_add(span),
                d.saturating_add(p.downstream_us()),
            )
        });
        match total {
            0 => (0.0, n as f64),
            total => (100.0 * down.min(total) as f64 / total as f64, n as f64),
        }
    })
}

/// [`rank`] against the tier median of `value` (`sorted[len / 2]`).
fn against_median(
    signal: Signal,
    tier: &[ClassSummary],
    value: impl Fn(&ClassSummary) -> f64,
) -> Option<Vec<Finding>> {
    let mut sorted: Vec<f64> = tier.iter().map(&value).collect();
    sorted.sort_by(f64::total_cmp);
    let median = *sorted.get(sorted.len() / 2)?;
    rank(signal, tier, |s| (value(s), median))
}

/// One finding per member, `measure`'s (value, baseline), largest value
/// first; the sort is stable, so ties stay in member order.
fn rank(
    signal: Signal,
    tier: &[ClassSummary],
    measure: impl Fn(&ClassSummary) -> (f64, f64),
) -> Option<Vec<Finding>> {
    let finding = |(member, s): (usize, &ClassSummary)| {
        let (value, baseline) = measure(s);
        Finding {
            signal,
            member,
            node: s.node,
            class: s.class_port,
            value,
            baseline,
        }
    };
    let mut findings: Vec<Finding> = tier.iter().enumerate().map(finding).collect();
    findings.sort_by(|a, b| b.value.total_cmp(&a.value));
    (!findings.is_empty()).then_some(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::InteractionRecord;
    use crate::{Gpa, GpaConfig};
    use simnet::{EndPoint, FlowKey, Ip};

    /// A member of port 80 on `node` with these statistics.
    fn member(node: u32, count: u64, user: f64, p50: f64, p95: f64) -> ClassSummary {
        ClassSummary {
            node: NodeId(node),
            class_port: Port(80),
            count,
            mean_kernel_in_us: 0.0,
            mean_user_us: user,
            mean_kernel_out_us: 0.0,
            mean_blocked_us: user / 2.0,
            mean_total_us: p50,
            p50_total_us: p50,
            p95_total_us: p95,
            p99_total_us: p95,
        }
    }

    fn members(findings: &[Finding]) -> Vec<usize> {
        findings.iter().map(|f| f.member).collect()
    }

    #[test]
    fn ties_go_to_the_lower_member_and_the_order_is_by_value() {
        let tier = [
            member(1, 10, 5.0, 1.0, 2.0),
            member(2, 30, 9.0, 1.0, 2.0),
            member(3, 30, 9.0, 1.0, 2.0),
            member(4, 20, 1.0, 1.0, 2.0),
        ];
        let share = share(&tier).unwrap();
        assert_eq!(members(&share), [1, 2, 3, 0]);
        assert_eq!(
            (share[0].value, share[0].baseline),
            (100.0 * 30.0 / 90.0, 90.0)
        );
        assert_eq!(share[0].node, NodeId(2));
        assert_eq!(members(&user(&tier).unwrap()), [1, 2, 0, 3]);
        assert_eq!(members(&blocked(&tier).unwrap()), [1, 2, 0, 3]);
        // Every ratio is 2: the tier order, untouched.
        assert_eq!(members(&tail_ratio(&tier).unwrap()), [0, 1, 2, 3]);
    }

    #[test]
    fn the_median_of_an_even_tier_is_the_upper_middle() {
        let tier: Vec<_> = [1.0, 4.0, 2.0, 3.0]
            .iter()
            .enumerate()
            .map(|(i, &u)| member(i as u32, 1, u, 1.0, 1.0))
            .collect();
        let findings = user(&tier).unwrap();
        assert_eq!(members(&findings), [1, 3, 2, 0]);
        assert!(findings.iter().all(|f| f.baseline == 3.0));
        assert!(blocked(&tier).unwrap().iter().all(|f| f.baseline == 1.5));
    }

    #[test]
    fn an_empty_tier_indicts_nobody() {
        assert_eq!(share(&[]), None);
        assert_eq!(user(&[]), None);
        assert_eq!(tail_ratio(&[]), None);
        assert_eq!(blocked(&[]), None);
        assert_eq!(downstream(&[], &[]), None);
    }

    /// Members the GPA never heard from read as empty summaries: every
    /// signal is 0 and the first member is named, as the S3 rows at
    /// `class-aggregates` show.
    #[test]
    fn an_all_absent_tier_reads_zero_and_names_the_first_member() {
        let gpa = Gpa::new(GpaConfig::default());
        let tier = gpa.tier([(NodeId(4), Port(80)), (NodeId(5), Port(81))]);
        assert_eq!(tier[1].class_port, Port(81));
        for findings in [
            share(&tier),
            user(&tier),
            tail_ratio(&tier),
            blocked(&tier),
            downstream(&tier, &gpa.correlate()),
        ] {
            let findings = findings.unwrap();
            assert_eq!(members(&findings), [0, 1]);
            assert!(findings.iter().all(|f| f.value == 0.0 && f.baseline == 0.0));
        }
    }

    #[test]
    fn a_zero_p50_gives_a_zero_tail_ratio() {
        let tier = [member(1, 5, 0.0, 0.0, 700.0), member(2, 5, 0.0, 10.0, 40.0)];
        let tail = tail_ratio(&tier).unwrap();
        assert_eq!(members(&tail), [1, 0]);
        assert_eq!((tail[0].value, tail[0].baseline), (4.0, 10.0));
        assert_eq!((tail[1].value, tail[1].baseline), (0.0, 0.0));
    }

    #[test]
    fn a_one_member_tier_is_its_own_median() {
        let tier = [member(7, 12, 40.0, 10.0, 30.0)];
        let one = |f: Option<Vec<Finding>>| {
            let f = f.unwrap();
            assert_eq!(f.len(), 1);
            (f[0].value, f[0].baseline)
        };
        assert_eq!(one(share(&tier)), (100.0, 12.0));
        assert_eq!(one(user(&tier)), (40.0, 40.0));
        assert_eq!(one(blocked(&tier)), (20.0, 20.0));
        assert_eq!(one(tail_ratio(&tier)), (3.0, 10.0));
        let f = user(&tier).unwrap()[0];
        assert_eq!(
            f.to_string(),
            "member 0 (node 7, port 80): 40µs mean user, 40µs tier median"
        );
    }

    #[test]
    fn downstream_share_is_over_the_member_s_own_paths() {
        let rec = |node: u32, class: u16, start_us, end_us| InteractionRecord {
            node: NodeId(node),
            flow: FlowKey::new(
                EndPoint::new(Ip(1), Port(40_000)),
                EndPoint::new(Ip(2), Port(class)),
            ),
            class_port: Port(class),
            pid: 1,
            start_us,
            end_us,
            req_packets: 1,
            req_bytes: 1,
            resp_packets: 1,
            resp_bytes: 1,
            kernel_in_us: 0,
            user_us: 0,
            kernel_out_us: 0,
            blocked_us: 0,
            blocked_io_us: 0,
        };
        let path = |parent, children| CorrelatedPath { parent, children };
        let recs = [
            rec(1, 80, 0, 1_000),
            rec(2, 90, 100, 400),
            rec(2, 90, 0, 500),
            rec(3, 80, 0, 100),
        ];
        let [front, short, long, brief] = &recs;
        let paths = [
            path(front, vec![short]),
            path(front, vec![long]),
            path(brief, vec![long]),
        ];
        let tier = [member(1, 2, 0.0, 0.0, 0.0), member(9, 0, 0.0, 0.0, 0.0)];
        let findings = downstream(&tier, &paths).unwrap();
        assert_eq!(members(&findings), [0, 1]);
        assert_eq!((findings[0].value, findings[0].baseline), (40.0, 2.0));
        assert_eq!((findings[1].value, findings[1].baseline), (0.0, 0.0));
        // Children that outlast the parent cap the share at 100 %, and
        // spans off the wire that sum past `u64::MAX` saturate.
        let over = [member(3, 1, 0.0, 0.0, 0.0)];
        assert_eq!(downstream(&over, &paths).unwrap()[0].value, 100.0);
        let (endless, endless_child) = (rec(3, 80, 0, u64::MAX), rec(2, 90, 0, u64::MAX));
        let forged = [path(&endless, vec![&endless_child, &endless_child])];
        assert_eq!(downstream(&over, &forged).unwrap()[0].value, 100.0);
    }
}
