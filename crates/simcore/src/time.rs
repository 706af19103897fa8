//! Nanosecond-resolution virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant on the global simulation clock, in nanoseconds since the start
/// of the simulation.
///
/// `SimTime` is totally ordered and supports the arithmetic a simulator
/// needs: `SimTime + SimDuration -> SimTime`, `SimTime - SimTime ->
/// SimDuration`.
///
/// # Example
///
/// ```
/// use simcore::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(3));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
///
/// # Example
///
/// ```
/// use simcore::SimDuration;
/// let d = SimDuration::from_micros(2) * 3;
/// assert_eq!(d.as_nanos(), 6_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration since `earlier`, or [`SimDuration::ZERO`] if `earlier`
    /// is in the future (saturating).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds (rounds to nearest ns).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative, got {s}"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// The duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a float factor (rounds to nearest ns; saturates at MAX).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor >= 0.0 && !factor.is_nan(),
            "factor must be non-negative, got {factor}"
        );
        let v = self.0 as f64 * factor;
        if v >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(v.round() as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Elapsed time between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; saturates to
    /// zero in release builds.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction underflow: {self} - {rhs}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(
            self >= rhs,
            "SimDuration subtraction underflow: {self} - {rhs}"
        );
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn time_arithmetic() {
        let a = SimTime::from_micros(10);
        let b = a + SimDuration::from_micros(5);
        assert_eq!(b - a, SimDuration::from_micros(5));
        assert_eq!(b.saturating_since(a).as_micros(), 5);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let d = SimDuration::MAX;
        assert_eq!(d + SimDuration::from_secs(1), SimDuration::MAX);
        assert_eq!(d * 2, SimDuration::MAX);
        assert_eq!(
            SimDuration::ZERO.saturating_sub(SimDuration::from_secs(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(100);
        assert_eq!(d.mul_f64(1.5).as_nanos(), 150);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    #[should_panic(expected = "factor must be non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = SimDuration::from_nanos(1).mul_f64(-1.0);
    }

    #[test]
    fn from_secs_f64() {
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }
}
