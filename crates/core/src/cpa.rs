//! Custom Performance Analyzers (CPAs): runtime-installable E-Code
//! analyzers.
//!
//! "In addition to the statically defined LPAs, custom analyzers can be
//! dynamically created and downloaded into the kernel. CPAs function just
//! like normal LPAs, including registering of callbacks with Kprof …
//! CPAs are specified in the form of E-Code (a language subset of C),
//! compiled through run-time code generation." (§2)
//!
//! Every event delivered to a CPA runs its program once over the event's
//! fields; the VM's fuel consumption converts to CPU time charged as
//! monitoring overhead. Programs accumulate state in `static` variables,
//! flag events by returning nonzero, and publish computed metrics with
//! `out(slot, value)`.

use ecode::{ExecTier, Instance, Type, Value, VerifyError, VerifyLimits, VerifyReport};
use kprof::{Analyzer, AnalyzerOutcome, Event, EventMask, EventPayload, Interest, Predicate};

use crate::cost;

/// The per-event inputs every CPA program sees, in order:
///
/// | name       | meaning                                              |
/// |------------|------------------------------------------------------|
/// | `kind`     | [`kprof::EventKind`] discriminant (0–19)             |
/// | `pid`      | process id, 0 when unknown                           |
/// | `wall_us`  | node wall-clock timestamp, µs                        |
/// | `size`     | packet wire bytes (network events), else 0           |
/// | `aux`      | syscall kernel time µs / file or block I/O bytes     |
/// | `port_src` | network flow source port, else 0                     |
/// | `port_dst` | network flow destination port, else 0                |
pub const EVENT_INPUTS: [(&str, Type); 7] = [
    ("kind", Type::Int),
    ("pid", Type::Int),
    ("wall_us", Type::Int),
    ("size", Type::Int),
    ("aux", Type::Int),
    ("port_src", Type::Int),
    ("port_dst", Type::Int),
];

/// Fuel a CPA program may spend per event: the verifier rejects a
/// program whose proven worst case exceeds it, and a run that traps is
/// charged all of it.
pub(crate) const FUEL_BUDGET: u64 = 2_000;

/// Error installing a CPA: the program failed static verification. Carries
/// the full diagnostic list — nothing touches Kprof when this is returned.
#[derive(Debug, Clone, PartialEq)]
pub struct CpaError(pub VerifyError);

impl std::fmt::Display for CpaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpa rejected by verifier:\n{}", self.0)
    }
}

impl std::error::Error for CpaError {}

/// A custom analyzer: an E-Code program behind the [`Analyzer`] interface.
pub struct CpaAnalyzer {
    name: String,
    pub(crate) instance: Instance,
    mask: EventMask,
    predicate: Predicate,
    report: VerifyReport,
    /// Events whose program run returned nonzero.
    flagged: u64,
    events: u64,
    /// Fuel charged over all events (the whole budget for an aborted run).
    pub(crate) fuel_spent: u64,
    aborted: u64,
    /// Latest value written to each output slot.
    outputs: std::collections::BTreeMap<i64, f64>,
}

impl CpaAnalyzer {
    /// Verifies `source` against [`EVENT_INPUTS`] and the default fuel
    /// budget, then wraps the optimized program as an analyzer subscribed
    /// to `mask`. Rejection happens *before* anything is registered with
    /// Kprof — a bad program never sees a single event.
    ///
    /// # Errors
    ///
    /// [`CpaError`] with line-numbered diagnostics if the source fails
    /// static verification (compile error, guaranteed trap, out-of-range
    /// output slot, or worst-case fuel above the budget).
    pub fn compile(name: &str, source: &str, mask: EventMask) -> Result<CpaAnalyzer, CpaError> {
        let limits = VerifyLimits::with_max_fuel(FUEL_BUDGET);
        let verified = ecode::verify(source, &EVENT_INPUTS, &limits).map_err(CpaError)?;
        let (program, report) = verified.into_parts();
        Ok(CpaAnalyzer {
            name: name.to_owned(),
            instance: Instance::new(&program),
            mask,
            predicate: Predicate::new(),
            report,
            flagged: 0,
            events: 0,
            fuel_spent: 0,
            aborted: 0,
            outputs: Default::default(),
        })
    }

    /// Adds a Kprof pruning predicate.
    #[must_use]
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// The verifier's report: proven worst-case fuel bound (before and
    /// after optimization) and any warnings.
    pub fn report(&self) -> &VerifyReport {
        &self.report
    }

    /// The proven worst-case fuel per event. Hosts can pre-size cost
    /// accounting with this instead of assuming the full budget.
    pub fn fuel_bound(&self) -> u64 {
        self.report.fuel_bound
    }

    /// Events processed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events the program flagged (returned nonzero for).
    pub fn flagged(&self) -> u64 {
        self.flagged
    }

    /// Runs aborted for exceeding the fuel budget.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Latest value published to an output slot.
    pub fn output(&self, slot: i64) -> Option<f64> {
        self.outputs.get(&slot).copied()
    }

    /// A static variable's current value.
    pub fn global(&self, name: &str) -> Option<Value> {
        self.instance.global(name)
    }

    /// Which execution tier the program was installed on: `Compiled` when
    /// it lowered to specialized blocks, `Fused` when it did not and runs
    /// on the checked per-op interpreter. Either way the observable
    /// behavior (globals, outputs, flags, fuel) is identical;
    /// [`procfs::render_cpa`](crate::procfs::render_cpa) says why and
    /// what it costs.
    pub fn tier(&self) -> ExecTier {
        self.instance.tier()
    }

    fn inputs_for(event: &Event) -> [i64; 7] {
        let kind = event.kind() as u8 as i64;
        let pid = event.payload.pid().map(|p| p.0 as i64).unwrap_or(0);
        let wall = event.wall.as_micros() as i64;
        let (size, ports) = match &event.payload {
            EventPayload::Net { size, flow, .. } => (
                *size as i64,
                (flow.src.port.0 as i64, flow.dst.port.0 as i64),
            ),
            _ => (0, (0, 0)),
        };
        let aux = match &event.payload {
            EventPayload::SyscallExit { kernel_time, .. } => kernel_time.as_micros() as i64,
            EventPayload::FileRead { bytes, .. }
            | EventPayload::FileWrite { bytes, .. }
            | EventPayload::BlockIoStart { bytes, .. }
            | EventPayload::BlockIoComplete { bytes, .. } => *bytes as i64,
            _ => 0,
        };
        // Every entry in EVENT_INPUTS is Type::Int, so the raw input bits
        // are the values themselves — no Value boxing on the hot path.
        [kind, pid, wall, size, aux, ports.0, ports.1]
    }
}

impl Analyzer for CpaAnalyzer {
    fn name(&self) -> &str {
        &self.name
    }

    fn interest(&self) -> Interest {
        Interest {
            mask: self.mask,
            predicate: self.predicate.clone(),
        }
    }

    fn on_event(&mut self, event: &Event) -> AnalyzerOutcome {
        self.events += 1;
        let inputs = Self::inputs_for(event);
        // The outcome borrows the instance's output arena; fold it into
        // the persistent per-slot map before the next run overwrites it.
        let fuel_used = match self.instance.run_raw(&inputs, FUEL_BUDGET) {
            Ok(out) => {
                if out.ret != 0 {
                    self.flagged += 1;
                }
                for &(slot, value) in out.outputs {
                    self.outputs.insert(slot, value);
                }
                out.fuel_used
            }
            Err(_) => {
                self.aborted += 1;
                FUEL_BUDGET
            }
        };
        self.fuel_spent += fuel_used;
        AnalyzerOutcome {
            cost: cost::ecode(fuel_used),
            buffer_full: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kprof::{EventKind, Pid};
    use simcore::{NodeId, SimDuration, SimTime};
    use simnet::{EndPoint, FlowKey, Ip, PacketId, Port};

    fn net_event(size: u32, dst_port: u16) -> Event {
        Event {
            seq: 0,
            node: NodeId(0),
            cpu: 0,
            wall: SimTime::from_micros(77),
            payload: EventPayload::Net {
                point: kprof::NetPoint::RxNic,
                flow: FlowKey::new(
                    EndPoint::new(Ip(1), Port(555)),
                    EndPoint::new(Ip(2), Port(dst_port)),
                ),
                packet: PacketId(1),
                size,
                pid: Some(Pid(4)),
                arm: None,
            },
        }
    }

    #[test]
    fn counts_large_packets_to_port() {
        let src = r#"
            static int big = 0;
            if (kind == 7 && size > 1000 && port_dst == 2049) {
                big = big + 1;
            }
            return big;
        "#;
        let mut cpa = CpaAnalyzer::compile("big-counter", src, EventMask::NETWORK).unwrap();
        assert_eq!(
            cpa.tier(),
            ExecTier::Compiled,
            "the canonical counting CPA must land on the compiled tier"
        );
        cpa.on_event(&net_event(1500, 2049));
        cpa.on_event(&net_event(200, 2049)); // too small
        cpa.on_event(&net_event(1500, 80)); // wrong port
        let out = cpa.on_event(&net_event(1400, 2049));
        assert!(out.cost > SimDuration::ZERO);
        assert_eq!(cpa.global("big"), Some(Value::Int(2)));
        assert_eq!(cpa.events(), 4);
        assert_eq!(
            EventKind::NetRxNic as u8,
            7,
            "the documented kind table must stay stable"
        );
    }

    #[test]
    fn outputs_publish_metrics() {
        let src = r#"
            static int n = 0;
            static double total = 0.0;
            n = n + 1;
            total = total + size;
            out(0, total / n);
            return 0;
        "#;
        let mut cpa = CpaAnalyzer::compile("avg-size", src, EventMask::NETWORK).unwrap();
        cpa.on_event(&net_event(100, 1));
        cpa.on_event(&net_event(300, 1));
        assert_eq!(cpa.output(0), Some(200.0));
        assert_eq!(cpa.output(1), None);
    }

    #[test]
    fn flagging_counts_nonzero_returns() {
        let mut cpa =
            CpaAnalyzer::compile("flag", "return size > 500;", EventMask::NETWORK).unwrap();
        cpa.on_event(&net_event(600, 1));
        cpa.on_event(&net_event(100, 1));
        assert_eq!(cpa.flagged(), 1);
    }

    #[test]
    fn bad_source_reports_error() {
        assert!(CpaAnalyzer::compile("broken", "return nonsense;", EventMask::ALL).is_err());
        assert!(CpaAnalyzer::compile("broken", "int x = ;", EventMask::ALL).is_err());
    }

    #[test]
    fn runtime_trap_is_counted_not_fatal() {
        // Division by an input verifies (with a warning) and traps when
        // the input is zero.
        let mut cpa =
            CpaAnalyzer::compile("divider", "return 100 / size;", EventMask::NETWORK).unwrap();
        assert!(!cpa.report().warnings.is_empty(), "{:?}", cpa.report());
        cpa.on_event(&net_event(4, 1));
        let out = cpa.on_event(&net_event(0, 1));
        assert_eq!(cpa.aborted(), 1);
        assert_eq!(cpa.events(), 2);
        // An aborted run is charged the whole budget.
        assert_eq!(out.cost, cost::ecode(FUEL_BUDGET));
    }

    #[test]
    fn cost_scales_with_fuel() {
        let mut cheap = CpaAnalyzer::compile("cheap", "return 0;", EventMask::NETWORK).unwrap();
        let mut pricey = CpaAnalyzer::compile(
            "pricey",
            "int s = 0; s = s + size; s = s * 2; s = s % 97; return s;",
            EventMask::NETWORK,
        )
        .unwrap();
        let c1 = cheap.on_event(&net_event(1, 1)).cost;
        let c2 = pricey.on_event(&net_event(1, 1)).cost;
        assert!(c2 > c1, "{c2} vs {c1}");
    }
}
