//! Per-node wall clocks with NTP-style offset and drift.
//!
//! The global performance analyzer correlates logs from different machines
//! using "NTP timestamps" (§2). Real NTP keeps clocks within a bounded
//! offset of true time but never perfectly aligned; reproducing that error
//! is essential for testing GPA correlation honestly.

use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// Static description of a node clock's error model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockSpec {
    /// Constant offset from true (global simulation) time, in nanoseconds.
    /// May be negative (clock runs behind).
    pub offset_ns: i64,
    /// Drift rate in parts-per-million: the clock gains `drift_ppm`
    /// microseconds per second of true time. May be negative.
    pub drift_ppm: f64,
}

impl ClockSpec {
    /// A perfectly synchronized clock.
    pub const PERFECT: ClockSpec = ClockSpec {
        offset_ns: 0,
        drift_ppm: 0.0,
    };
}

/// A node's wall clock: converts between global simulation time and the
/// node-local timestamps that appear in monitoring records.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NtpClock {
    spec: ClockSpec,
}

impl NtpClock {
    /// Creates a clock with the given error model.
    pub fn new(spec: ClockSpec) -> Self {
        NtpClock { spec }
    }

    /// The error model.
    pub fn spec(&self) -> &ClockSpec {
        &self.spec
    }

    /// The node-local wall-clock reading at global time `t`.
    ///
    /// Readings saturate at zero: a clock with a negative offset reads zero
    /// near simulation start rather than underflowing.
    pub fn wall(&self, t: SimTime) -> SimTime {
        let true_ns = t.as_nanos() as i128;
        // A drift of ±0.0 makes the drift term exactly 0: skip the float
        // round trip, whose f64 → i128 conversion is a libcall.
        let drift_ns = if self.spec.drift_ppm == 0.0 {
            0
        } else {
            drift_ns(true_ns, self.spec.drift_ppm)
        };
        let wall = true_ns + self.spec.offset_ns as i128 + drift_ns;
        SimTime::from_nanos(wall.clamp(0, u64::MAX as i128) as u64)
    }
}

/// The drift term of a clock whose rate is off, cold and out of line:
/// every instrumentation hit reads `wall`, and every scenario clock runs
/// at the perfect rate, so `wall` stays the short fast path.
#[cold]
#[inline(never)]
fn drift_ns(true_ns: i128, drift_ppm: f64) -> i128 {
    (true_ns as f64 * drift_ppm / 1e6) as i128
}

impl Default for NtpClock {
    fn default() -> Self {
        NtpClock::new(ClockSpec::PERFECT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `wall` before its perfect-rate fast path, verbatim: every drift,
    /// zero included, goes through the float.
    fn reference_wall(spec: &ClockSpec, t: SimTime) -> SimTime {
        let true_ns = t.as_nanos() as i128;
        let drift_ns = (true_ns as f64 * spec.drift_ppm / 1e6) as i128;
        let wall = true_ns + spec.offset_ns as i128 + drift_ns;
        SimTime::from_nanos(wall.clamp(0, u64::MAX as i128) as u64)
    }

    proptest! {
        /// A drift of `0.0` or `-0.0` reads exactly what the float formula
        /// reads, over the whole time range and offsets of either sign,
        /// including negative ones that saturate at 0 and positive ones
        /// that saturate at `u64::MAX`.
        #[test]
        fn prop_perfect_rate_fast_path_is_the_general_formula(
            near_t in 0u64..10_000_000_000,
            any_t in any::<u64>(),
            near_offset in -10_000_000_000i64..10_000_000_000,
            any_offset in any::<i64>(),
        ) {
            for t in [near_t, any_t, u64::MAX] {
                for offset_ns in [near_offset, any_offset, i64::MIN, i64::MAX] {
                    for drift_ppm in [0.0, -0.0] {
                        let spec = ClockSpec { offset_ns, drift_ppm };
                        let t = SimTime::from_nanos(t);
                        prop_assert_eq!(NtpClock::new(spec).wall(t), reference_wall(&spec, t));
                    }
                }
            }
        }
    }

    #[test]
    fn perfect_clock_is_identity() {
        let c = NtpClock::default();
        let t = SimTime::from_secs(12);
        assert_eq!(c.wall(t), t);
    }

    #[test]
    fn positive_offset_moves_wall_ahead() {
        let c = NtpClock::new(ClockSpec {
            offset_ns: 5_000,
            drift_ppm: 0.0,
        });
        assert_eq!(c.wall(SimTime::from_micros(1)).as_nanos(), 6_000);
    }

    #[test]
    fn negative_offset_saturates_at_zero() {
        let c = NtpClock::new(ClockSpec {
            offset_ns: -1_000_000,
            drift_ppm: 0.0,
        });
        assert_eq!(c.wall(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(c.wall(SimTime::from_millis(2)).as_nanos(), 1_000_000);
    }

    #[test]
    fn drift_accumulates() {
        let c = NtpClock::new(ClockSpec {
            offset_ns: 0,
            drift_ppm: 10.0,
        });
        // 10 ppm over 1 s = 10 µs fast.
        assert_eq!(c.wall(SimTime::from_secs(1)).as_nanos(), 1_000_010_000);
    }

    #[test]
    fn zero_skew_spec_is_exactly_the_perfect_clock() {
        let explicit = NtpClock::new(ClockSpec {
            offset_ns: 0,
            drift_ppm: 0.0,
        });
        for s in [0u64, 1, 60, 86_400] {
            let t = SimTime::from_secs(s);
            assert_eq!(explicit.wall(t), t);
        }
    }
}
