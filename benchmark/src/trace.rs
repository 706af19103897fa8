//! In-memory span recorder.
//!
//! Spans wrap the calls the harness makes into a layer's public
//! functions (per chunk or per batch, never per event). They live in a
//! preallocated vector and are written out when the run ends; while
//! recording is off, [`Tracer::begin`] and [`Tracer::end`] touch neither
//! the clock nor the vector, so the end-to-end repetitions run the same
//! code with no measurement inside them.

use std::collections::BTreeMap;

use serde_json::Value;

/// Monotonic host clock in nanoseconds, supplied by the binary.
pub type Clock = fn() -> u64;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.gpa.ingest_wire`.
    pub name: &'static str,
    /// Start, ns on the harness clock.
    pub start_ns: u64,
    /// End, ns on the harness clock.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Repetition the span belongs to.
    pub rep: u32,
}

/// Handle returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Count, total and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their durations minus the time their children cover, ns.
    pub self_ns: u64,
}

/// The span recorder plus the harness clock.
pub struct Tracer {
    clock: Clock,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
    dropped: u64,
}

impl Tracer {
    /// A tracer with room for `capacity` spans; recording starts off.
    pub fn new(clock: Clock, capacity: usize) -> Tracer {
        Tracer {
            clock,
            recording: false,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            rep: 0,
            dropped: 0,
        }
    }

    /// The harness clock, ns.
    pub fn now(&self) -> u64 {
        (self.clock)()
    }

    /// Turns span recording on or off.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Tags subsequent spans with a repetition number.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span; a no-op (no clock read) while recording is off or
    /// the preallocated vector is full.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.recording {
            return Open(None);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`begin`](Tracer::begin).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now();
        self.spans[idx as usize].end_ns = end_ns;
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// time. Unlike [`begin`](Tracer::begin), this always reads the
    /// clock: it is the timer of the stage-isolated replays and of the
    /// timed region of a repetition.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let open = self.begin(name);
        let t0 = self.now();
        let r = f(self);
        let ns = self.now().saturating_sub(t0);
        self.end(open);
        (r, ns)
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the vector was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-name count, total and self time (a span's duration minus the
    /// part of it its direct children cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(covered);
        }
        out
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations_of(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// The trace file contents: every span plus the per-name self times.
    pub fn to_json(&self, workload: &str) -> Value {
        let base = self.spans.first().map_or(0, |s| s.start_ns);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::String(s.name.into())),
                    ("start_ns".into(), Value::U64(s.start_ns - base)),
                    ("end_ns".into(), Value::U64(s.end_ns - base)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("workload".into(), Value::String(workload.into())),
                    ("rep".into(), Value::U64(s.rep as u64)),
                ])
            })
            .collect();
        let self_times = self
            .self_times()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_owned(),
                    Value::Object(vec![
                        ("count".into(), Value::U64(t.count)),
                        ("total_ns".into(), Value::U64(t.total_ns)),
                        ("self_ns".into(), Value::U64(t.self_ns)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::String(workload.into())),
            ("dropped_spans".into(), Value::U64(self.dropped)),
            ("self_time".into(), Value::Object(self_times)),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_clock() -> u64 {
        use std::cell::Cell;
        thread_local!(static T: Cell<u64> = const { Cell::new(0) });
        T.with(|t| {
            t.set(t.get() + 10);
            t.get()
        })
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new(fake_clock, 8);
        tr.set_recording(true);
        let outer = tr.begin("outer");
        let inner = tr.begin("inner");
        tr.end(inner);
        tr.end(outer);
        let st = tr.self_times();
        assert_eq!(st["inner"].total_ns, 10);
        assert_eq!(st["outer"].total_ns, 30);
        assert_eq!(st["outer"].self_ns, 20);
        assert_eq!(tr.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_means_no_spans_and_full_means_dropped() {
        let mut tr = Tracer::new(fake_clock, 1);
        let o = tr.begin("x");
        tr.end(o);
        assert!(tr.spans().is_empty());
        tr.set_recording(true);
        let a = tr.begin("a");
        let b = tr.begin("b");
        tr.end(b);
        tr.end(a);
        assert_eq!(tr.spans().len(), 1);
        assert_eq!(tr.dropped(), 1);
    }
}
