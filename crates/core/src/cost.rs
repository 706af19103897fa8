//! What each step of the monitor's own path costs in simulated CPU time.
//!
//! Together with [`kprof::cost`] and [`simos::cost::TX_STACK`] (what the
//! kernel charges per packet it sends for the monitor) this is the whole
//! overhead model: every nanosecond of `CpuUsage::monitor` on a monitored
//! node, and of kernel time the monitor spends on the GPA node, is a sum
//! of these constants.
//! Each is named after the sysbench per-layer stage whose *simulated*
//! counterpart it is (`benchmark/README.md` lists the stages), so the
//! wall-clock ledger and the modelled overhead read against one
//! vocabulary. They are constants, not configuration: nothing in the
//! repository ever ran with a second value, and a perturbation sweep
//! (ROADMAP item 8) turns what an operator turns — masks, predicates,
//! the LPA window, class-only aggregation, the daemon period — not the
//! price list.

use simcore::SimDuration;

/// `core.lpa.on_event`: the LPA's analysis of one delivered event.
pub const LPA_EVENT: SimDuration = SimDuration::from_nanos(350);

/// `core.lpa.on_event`: added when the event completes an interaction
/// record (pairing, attribution, staging into the double buffer).
pub const LPA_RECORD: SimDuration = SimDuration::from_nanos(500);

/// `core.cpa.on_event` and the filter share of `pubsub.hub.publish_raw`:
/// nanoseconds per E-Code instruction (unit of fuel) a CPA or a
/// subscription filter burns.
pub const NS_PER_ECODE_INSTR: u64 = 2;

/// What `fuel` E-Code instructions cost: an integer product, saturating.
/// It equals the float price it replaced, `(fuel as f64 * 2.0) as u64`,
/// for every fuel up to 2⁵³, far past any fuel budget.
pub(crate) fn ecode(fuel: u64) -> SimDuration {
    SimDuration::from_nanos(fuel.saturating_mul(NS_PER_ECODE_INSTR))
}

/// `core.daemon.on_wake`: fixed cost of a wake (context switch + buffer
/// copy setup), before any record is touched.
pub const DAEMON_WAKE: SimDuration = SimDuration::from_micros(5);

/// `core.daemon.on_wake` (`core.lpa.drain` + `pubsub.hub.publish_raw` +
/// `pbio.encode`): per interaction record drained, encoded and published.
pub const DAEMON_RECORD: SimDuration = SimDuration::from_nanos(800);

/// `core.daemon.on_wake`: per batch put back on the wire after its
/// retransmit timeout (wire re-framing + send setup).
pub const DAEMON_RETRANSMIT: SimDuration = SimDuration::from_micros(2);

/// Control plane on a monitored node (no sysbench stage): decoding and
/// applying one Subscribe / Unsubscribe / DataAck / DataNack message.
pub const CONTROL_MESSAGE: SimDuration = SimDuration::from_micros(3);

/// `core.gpa.ingest_wire` (`pubsub.reliable.offer` + `pbio.decode` +
/// `core.gpa.ingest_records`): per record ingested from a data batch,
/// charged once more per batch for the sequence header and reassembly.
pub const GPA_RECORD: SimDuration = SimDuration::from_nanos(600);

/// `core.gpa.ingest_wire`: per DataAck / DataNack reply a batch produces.
pub const GPA_REPLY: SimDuration = SimDuration::from_micros(1);

/// Control plane on the GPA node (no sysbench stage): recording one
/// SubscribeNack a daemon sent back.
pub const GPA_SUBSCRIBE_NACK: SimDuration = SimDuration::from_micros(1);

/// Query plane on the GPA node (no sysbench stage; `gpa_query` times the
/// store reads underneath): one lookup and its encoded answer.
pub const GPA_QUERY: SimDuration = SimDuration::from_micros(10);

/// Query plane on the asking node (no sysbench stage): decoding one
/// answer.
pub const QUERY_ANSWER: SimDuration = SimDuration::from_micros(3);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpa::FUEL_BUDGET;

    /// The E-Code price before it was an integer product, verbatim.
    fn float_price(fuel: u64) -> SimDuration {
        SimDuration::from_nanos((fuel as f64 * 2.0) as u64)
    }

    #[test]
    fn integer_ecode_price_is_the_float_price_up_to_2_pow_53() {
        for fuel in [0, 1, FUEL_BUDGET, 1 << 52, 1 << 53] {
            assert_eq!(ecode(fuel), float_price(fuel), "fuel {fuel}");
        }
    }
}
