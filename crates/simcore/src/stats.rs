//! Online statistics used by analyzers and the benchmark harness.
//!
//! The local and global performance analyzers must summarize metric streams
//! without storing every sample (they run "in the kernel" where buffers are
//! scarce), so everything here is O(1) or O(bins) per observation:
//! [`OnlineStats`] (Welford), [`Histogram`] (log-scale bins with percentile
//! queries) and [`RateMeter`] (windowed event rates).

use serde::{Deserialize, Serialize};

use crate::{SimDuration, SimTime};

/// Streaming mean/variance/min/max via Welford's algorithm.
///
/// # Example
///
/// ```
/// use simcore::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for v in [1.0, 2.0, 3.0] { s.record(v); }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. Non-finite values are ignored (and counted
    /// nowhere); analyzers must never poison their summaries.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for OnlineStats {
    /// [`OnlineStats::new`]: `min` and `max` start at the infinities, so
    /// the first observation sets both.
    fn default() -> Self {
        OnlineStats::new()
    }
}

/// A log-scale histogram of non-negative values with percentile queries.
///
/// Bins are powers of `2^(1/4)` (four bins per octave), giving ≤ ~19%
/// relative error on percentile estimates over a huge dynamic range with a
/// few hundred bins — the same trick HdrHistogram-style recorders use.
///
/// A value `v ≥ 1` lands in bin `1 + ⌊4·log2(v)⌋` *as libm computes
/// `log2`*, and binning reproduces that exactly without calling libm on
/// almost every value: with `v = m · 2^e` (`1 ≤ m < 2`), the bin is `1 +
/// 4e + #{k ∈ 1..=3 : m ≥ 2^(k/4)}`, read off the float's exponent and
/// mantissa bits. Where the two can disagree is where libm's rounding
/// decides — a mantissa within 2^-29 of a quarter-octave step, of 1 or of
/// 2 (`8 − ulp` is in bin 13, not 12, because `log2` rounds it to 3) —
/// and there the bin is computed with `log2` itself. A test holds the
/// two equal on every integer below 2^20, ±64 ulps around every step and
/// 10^6 random bit patterns.
///
/// # Example
///
/// ```
/// use simcore::stats::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000 { h.record(v as f64); }
/// let p50 = h.percentile(50.0).unwrap();
/// assert!(p50 > 350.0 && p50 < 700.0, "p50 was {p50}");
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    /// bins[i] counts values in [bound(i-1), bound(i)); bin 0 is [0, 1).
    bins: Vec<u64>,
    count: u64,
    sum: f64,
}

const BINS_PER_OCTAVE: f64 = 4.0;

/// The fraction field of an `f64`: the mantissa `m` without its leading 1.
const FRACTION: u64 = (1 << 52) - 1;
/// The fraction fields of the quarter-octave steps `2^(1/4)`, `2^(1/2)`
/// and `2^(3/4)`, to within an ulp: [`GUARD`] covers the difference.
const STEPS: [u64; 3] = [
    1.189_207_115_002_721_f64.to_bits() & FRACTION,
    std::f64::consts::SQRT_2.to_bits() & FRACTION,
    1.681_792_830_507_429_f64.to_bits() & FRACTION,
];
/// A fraction field this close to a step, to 0 or to 2^52 (2^-29 of the
/// mantissa) is binned by libm's `log2`: that rounding decides it.
const GUARD: u64 = 1 << 23;

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bin of a finite, non-negative `value` (see the type's docs).
    fn bin_index(value: f64) -> usize {
        if value < 1.0 {
            return 0;
        }
        let bits = value.to_bits();
        let fraction = bits & FRACTION;
        if !(GUARD..=FRACTION - GUARD).contains(&fraction)
            || STEPS.iter().any(|&step| fraction.abs_diff(step) < GUARD)
        {
            return Self::log2_bin(value);
        }
        let octave = (bits >> 52) as usize - 1023;
        1 + 4 * octave + STEPS.iter().filter(|&&step| fraction >= step).count()
    }

    /// The bin of a finite `value ≥ 1` by libm, which defines it.
    fn log2_bin(value: f64) -> usize {
        1 + (value.log2() * BINS_PER_OCTAVE).floor() as usize
    }

    fn bin_upper_bound(index: usize) -> f64 {
        if index == 0 {
            1.0
        } else {
            2f64.powf(index as f64 / BINS_PER_OCTAVE)
        }
    }

    /// Adds one observation. Negative and non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        let idx = Self::bin_index(value);
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `p`-th percentile (0–100). Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile must be in [0,100], got {p}"
        );
        if self.count == 0 {
            return None;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Midpoint of the bin, geometric-ish.
                let hi = Self::bin_upper_bound(i);
                let lo = if i == 0 {
                    0.0
                } else {
                    Self::bin_upper_bound(i - 1)
                };
                return Some((lo + hi) / 2.0);
            }
        }
        Some(Self::bin_upper_bound(self.bins.len().saturating_sub(1)))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Windowed event-rate meter: counts events per fixed window and reports
/// the completed-window series (used for the throughput-over-time figures).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateMeter {
    window: SimDuration,
    window_start: SimTime,
    current_count: u64,
    /// Completed windows: (window start, events in window).
    series: Vec<(SimTime, u64)>,
}

impl RateMeter {
    /// Creates a meter with the given window length, starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(start: SimTime, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "RateMeter window must be non-zero");
        RateMeter {
            window,
            window_start: start,
            current_count: 0,
            series: Vec::new(),
        }
    }

    /// Records one event at time `now`, closing any windows that have
    /// elapsed since the last event.
    pub fn record(&mut self, now: SimTime) {
        self.roll_to(now);
        self.current_count += 1;
    }

    /// Closes all windows ending at or before `now` (recording zero-count
    /// windows for idle gaps).
    pub fn roll_to(&mut self, now: SimTime) {
        while now >= self.window_start + self.window {
            self.series.push((self.window_start, self.current_count));
            self.current_count = 0;
            self.window_start += self.window;
        }
    }

    /// Completed windows as `(window_start, count)` pairs.
    pub fn series(&self) -> &[(SimTime, u64)] {
        &self.series
    }

    /// Completed windows as events-per-second rates.
    pub fn rates_per_sec(&self) -> Vec<(SimTime, f64)> {
        let w = self.window.as_secs_f64();
        self.series
            .iter()
            .map(|&(t, c)| (t, c as f64 / w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    /// A default-built accumulator is a new one: its first observation is
    /// its min and its max, whatever the sign.
    #[test]
    fn default_online_stats_is_new() {
        for v in [5.0, -5.0] {
            let mut s = OnlineStats::default();
            s.record(v);
            assert_eq!((s.min(), s.max()), (Some(v), Some(v)));
        }
    }

    #[test]
    fn online_stats_ignores_non_finite() {
        let mut s = OnlineStats::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = OnlineStats::new();
        for &v in &data {
            whole.record(v);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &v in &data[..37] {
            left.record(v);
        }
        for &v in &data[37..] {
            right.record(v);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 3.0);
    }

    #[test]
    fn histogram_percentiles_bracket_truth() {
        let mut h = Histogram::new();
        for v in 1..=10_000u32 {
            h.record(v as f64);
        }
        for (p, truth) in [(50.0, 5000.0), (90.0, 9000.0), (99.0, 9900.0)] {
            let est = h.percentile(p).unwrap();
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.25, "p{p}: est {est} truth {truth} rel {rel}");
        }
    }

    #[test]
    fn histogram_handles_zero_and_subunit() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(0.5);
        h.record(0.9);
        assert_eq!(h.count(), 3);
        let p = h.percentile(50.0).unwrap();
        assert!(p <= 1.0);
    }

    #[test]
    fn histogram_empty_percentile_none() {
        assert_eq!(Histogram::new().percentile(50.0), None);
    }

    /// Binning from the exponent and mantissa is libm's binning: on every
    /// integer below 2^20, ±64 ulps around every finite quarter-octave
    /// step 2^(k/4), and 10^6 seeded random bit patterns (sign cleared;
    /// those below 1 or not finite are skipped).
    #[test]
    fn fast_bin_is_the_libm_bin() {
        let check = |v: f64| {
            if v.is_finite() && v >= 1.0 {
                let (fast, libm) = (Histogram::bin_index(v), Histogram::log2_bin(v));
                assert_eq!(fast, libm, "{v:e} ({:#x})", v.to_bits());
            }
        };
        for i in 0..1u32 << 20 {
            check(f64::from(i));
        }
        for k in 0..4 * 1024 {
            let step = 2f64.powf(f64::from(k) / BINS_PER_OCTAVE).to_bits();
            for bits in step - 64..=step + 64 {
                check(f64::from_bits(bits));
            }
        }
        let mut rng = crate::SimRng::seed(0xB1A5);
        for _ in 0..1_000_000 {
            check(f64::from_bits(rng.uniform_u64(0, u64::MAX) & !(1 << 63)));
        }
        // libm rounds log2(8 − ulp) up to 3: bin 13, as 8's, not 12.
        let below_eight = f64::from_bits(8f64.to_bits() - 1);
        assert_eq!(Histogram::bin_index(below_eight), 13);
        assert_eq!(Histogram::bin_index(8.0), 13);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10.0);
        b.record(1000.0);
        b.record(2000.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.mean() > 500.0);
    }

    #[test]
    fn rate_meter_windows() {
        let mut m = RateMeter::new(SimTime::ZERO, SimDuration::from_secs(1));
        for i in 0..10 {
            m.record(SimTime::from_millis(i * 100)); // all within first second
        }
        m.record(SimTime::from_millis(1500)); // second window
        m.roll_to(SimTime::from_secs(4));
        let series = m.series();
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].1, 10);
        assert_eq!(series[1].1, 1);
        assert_eq!(series[2].1, 0);
        assert_eq!(series[3].1, 0);
        let rates = m.rates_per_sec();
        assert_eq!(rates[0].1, 10.0);
    }

    proptest! {
        #[test]
        fn prop_histogram_percentile_monotone(values in proptest::collection::vec(0.0f64..1e6, 1..500)) {
            let mut h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            let p10 = h.percentile(10.0).unwrap();
            let p50 = h.percentile(50.0).unwrap();
            let p99 = h.percentile(99.0).unwrap();
            prop_assert!(p10 <= p50 && p50 <= p99);
        }

        #[test]
        fn prop_online_stats_mean_bounded(values in proptest::collection::vec(-1e9f64..1e9, 1..500)) {
            let mut s = OnlineStats::new();
            for v in &values {
                s.record(*v);
            }
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(s.mean() >= lo - 1e-6 && s.mean() <= hi + 1e-6);
        }

        #[test]
        fn prop_merge_commutative_count(xs in proptest::collection::vec(-1e6f64..1e6, 0..100),
                                        ys in proptest::collection::vec(-1e6f64..1e6, 0..100)) {
            let mut a = OnlineStats::new();
            let mut b = OnlineStats::new();
            for x in &xs { a.record(*x); }
            for y in &ys { b.record(*y); }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab.count(), ba.count());
            prop_assert!((ab.mean() - ba.mean()).abs() < 1e-6);
        }
    }
}
