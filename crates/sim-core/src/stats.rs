//! Statistics collection for simulators.
//!
//! [`BusyTracker`] measures the fraction of virtual time a resource (a
//! flash channel, the NPU, the DRAM bus) spends busy. This is what
//! "Channel Usage" in Figures 12, 14 and 15 reports. The rest summarize
//! samples and memo-cache traffic for the serving reports.

use crate::time::SimTime;

/// The approved f64 reduction: a strict left-to-right fold.
///
/// Floating-point addition is not associative, so any reduction whose
/// order can vary (rayon-style tree sums, hash-map iteration) produces
/// run-to-run drift in the last ulps — enough to break bit-exact golden
/// reports. This helper pins the order. It is bit-identical to
/// `iter().sum::<f64>()` (std's `Sum` for `f64` is exactly
/// `fold(0.0, Add::add)`), but spelling it `sum_ordered` makes the
/// ordering contract visible at the call site and gives the simlint D3
/// rule a single sanctioned home for float accumulation.
pub fn sum_ordered<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    xs.into_iter().fold(0.0, |acc, x| acc + x)
}

/// Tracks the total busy time of a single resource.
///
/// Busy intervals are reported by the simulator as they are *retired*
/// (i.e., after the fact), so overlapping bookkeeping errors are caught:
/// intervals must be non-overlapping and non-decreasing in start time.
///
/// # Examples
///
/// ```
/// use sim_core::{BusyTracker, SimTime};
///
/// let mut ch = BusyTracker::new();
/// ch.add_interval(SimTime::from_nanos(0), SimTime::from_nanos(30));
/// ch.add_interval(SimTime::from_nanos(50), SimTime::from_nanos(70));
/// assert_eq!(ch.busy_time(), SimTime::from_nanos(50));
/// assert!((ch.utilization(SimTime::from_nanos(100)) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BusyTracker {
    busy: SimTime,
    last_end: SimTime,
}

impl BusyTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or the interval overlaps a previously
    /// recorded one (i.e. `start < last_end`).
    #[inline]
    pub fn add_interval(&mut self, start: SimTime, end: SimTime) {
        assert!(end >= start, "interval ends before it starts");
        assert!(
            start >= self.last_end,
            "overlapping busy interval: starts at {start}, previous ended {}",
            self.last_end
        );
        self.busy += end - start;
        self.last_end = end;
    }

    /// Total accumulated busy time.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// End of the most recent busy interval.
    pub fn last_end(&self) -> SimTime {
        self.last_end
    }

    /// Busy fraction over `[0, horizon)`. Returns 0 for a zero horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_picos() as f64 / horizon.as_picos() as f64
    }
}

/// Hit/miss counters for a memoization cache (the GeMV cache and the
/// op-cost cache in the system simulator both report through this).
///
/// A *hit* is a lookup served from memory; a *miss* is a lookup that had
/// to run the underlying computation. The split is what serving reports
/// surface to show how much work the fleet shares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    hits: u64,
    misses: u64,
}

impl CacheStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one lookup served from memory.
    #[inline]
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Records one lookup that ran the underlying computation.
    #[inline]
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Lookups served from memory.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that ran the underlying computation.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total lookups observed.
    #[inline]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Zeroes both counters, keeping the cache contents they described.
    ///
    /// Used when a pre-warmed memo cache is handed to a fresh
    /// measurement run: the entries stay (that is the point of
    /// warming), but the lookups that created them should not leak into
    /// the new run's report.
    #[inline]
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Running mean/min/max aggregate over `f64` samples, used for
/// summarising per-channel utilizations and per-request latencies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Aggregate {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Aggregate {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// A full sample set with order statistics, for latency distributions
/// (p50/p99 token latency in serving reports).
///
/// Unlike [`Aggregate`], which keeps O(1) state, `Samples` retains every
/// pushed value so exact percentiles can be computed. Sorting happens
/// lazily on the first percentile or mean query after a push, in IEEE
/// 754 total order ([`f64::total_cmp`]). Each value is kept as a `u64`
/// key whose integer order is `total_cmp`'s, so the sort is a plain
/// unstable integer sort; since `total_cmp` calls two values equal
/// only when their bits are equal, the sorted values are the same bits
/// a stable `total_cmp` sort would give. The mean folds left to right
/// over the sorted values, so it does not depend on push order or on
/// which query came first.
///
/// # Examples
///
/// ```
/// use sim_core::Samples;
///
/// let mut s = Samples::new();
/// for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.percentile(50.0), Some(3.0));
/// assert_eq!(s.percentile(0.0), Some(1.0));
/// assert_eq!(s.percentile(100.0), Some(5.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Each value's [`total_order_key`].
    keys: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples {
            keys: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.keys.push(total_order_key(x));
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Mean of samples, or `None` if empty: a left-to-right fold over
    /// the values in total order, so every push order of one sample set
    /// gives the same bits.
    pub fn mean(&mut self) -> Option<f64> {
        if self.keys.is_empty() {
            return None;
        }
        self.sort();
        Some(sum_ordered(self.values()) / self.keys.len() as f64)
    }

    /// Sorts the values into total order, once per batch of pushes.
    fn sort(&mut self) {
        if !self.sorted {
            self.keys.sort_unstable();
            self.sorted = true;
        }
    }

    /// The values, in push order or (once sorted) total order.
    fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.keys.iter().map(|&k| from_total_order_key(k))
    }

    /// The `p`-th percentile (`0.0..=100.0`) by nearest-rank, or `None`
    /// if empty.
    ///
    /// Samples are ordered by [`f64::total_cmp`] (IEEE 754 total
    /// order), so a stray NaN sample cannot panic a report: positive
    /// NaNs sort above `+inf`, negative NaNs below `-inf`, and every
    /// ordinary value keeps its usual rank.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.keys.is_empty() {
            return None;
        }
        self.sort();
        // Nearest-rank: ceil(p/100 * n), clamped to [1, n].
        let n = self.keys.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(from_total_order_key(self.keys[rank - 1]))
    }

    /// Collapses to the O(1) summary form.
    pub fn aggregate(&self) -> Aggregate {
        self.values().collect()
    }
}

/// A `u64` whose unsigned order is [`f64::total_cmp`]'s order on `x`:
/// a negative value's bits are inverted (larger magnitudes sort lower,
/// negative NaNs lowest), a non-negative value's sign bit is set (above
/// every negative, positive NaNs highest). It is a bijection on bit
/// patterns, undone by [`from_total_order_key`], so equal keys mean
/// equal bits.
#[inline]
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The value behind a [`total_order_key`].
#[inline]
fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Samples::new();
        s.extend(iter);
        s
    }
}

/// A mean with dispersion: sample count, mean, sample standard
/// deviation, and a 95% confidence half-width for the mean.
///
/// This is what a Monte Carlo harness reports per metric: run the same
/// scenario over N decorrelated seeds, collect one scalar per seed
/// (throughput, TTFT p99, ...), and summarise the spread. The CI uses
/// the normal approximation (`1.96 · s/√n`), which is the standard
/// reporting convention for simulation batches of this size; for very
/// small N it understates slightly versus Student's t.
///
/// # Examples
///
/// ```
/// use sim_core::Estimate;
///
/// let e = Estimate::from_samples(&[10.0, 12.0, 11.0, 13.0]);
/// assert_eq!(e.n, 4);
/// assert!((e.mean - 11.5).abs() < 1e-12);
/// assert!(e.ci95 > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Estimate {
    /// Number of samples.
    pub n: u64,
    /// Sample mean (0 when empty).
    pub mean: f64,
    /// Sample standard deviation, Bessel-corrected (0 when n < 2).
    pub stddev: f64,
    /// 95% confidence half-width for the mean: `1.96 · stddev / √n`
    /// (0 when n < 2).
    pub ci95: f64,
}

impl Estimate {
    /// Summarises a slice of samples. Summation is left-to-right in
    /// slice order, so the result is deterministic for a given input
    /// ordering.
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len() as u64;
        if n == 0 {
            return Self::default();
        }
        let mean = sum_ordered(samples.iter().copied()) / n as f64;
        if n < 2 {
            return Estimate {
                n,
                mean,
                stddev: 0.0,
                ci95: 0.0,
            };
        }
        let var = sum_ordered(samples.iter().map(|x| (x - mean) * (x - mean))) / (n - 1) as f64;
        let stddev = var.sqrt();
        Estimate {
            n,
            mean,
            stddev,
            ci95: 1.96 * stddev / (n as f64).sqrt(),
        }
    }
}

impl Extend<f64> for Aggregate {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Aggregate {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut agg = Aggregate::new();
        agg.extend(iter);
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn busy_tracker_accumulates() {
        let mut t = BusyTracker::new();
        t.add_interval(SimTime::from_nanos(10), SimTime::from_nanos(20));
        t.add_interval(SimTime::from_nanos(20), SimTime::from_nanos(25));
        assert_eq!(t.busy_time(), SimTime::from_nanos(15));
        assert_eq!(t.last_end(), SimTime::from_nanos(25));
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn busy_tracker_rejects_overlap() {
        let mut t = BusyTracker::new();
        t.add_interval(SimTime::from_nanos(10), SimTime::from_nanos(20));
        t.add_interval(SimTime::from_nanos(15), SimTime::from_nanos(30));
    }

    #[test]
    fn utilization_bounds() {
        let mut t = BusyTracker::new();
        t.add_interval(SimTime::ZERO, SimTime::from_nanos(100));
        assert!((t.utilization(SimTime::from_nanos(100)) - 1.0).abs() < 1e-12);
        assert_eq!(BusyTracker::new().utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn cache_stats_track_hits_and_misses() {
        let mut c = CacheStats::new();
        assert_eq!(c.lookups(), 0);
        c.miss();
        c.hit();
        c.hit();
        c.hit();
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.lookups(), 4);
    }

    #[test]
    fn aggregate_stats() {
        let agg: Aggregate = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(agg.count(), 3);
        assert_eq!(agg.mean(), Some(2.0));
        assert_eq!(agg.min(), Some(1.0));
        assert_eq!(agg.max(), Some(3.0));
    }

    #[test]
    fn samples_percentiles_nearest_rank() {
        let mut s: Samples = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(1.0), Some(1.0));
        assert_eq!(s.mean(), Some(50.5));
        assert_eq!(s.count(), 100);
        let agg = s.aggregate();
        assert_eq!(agg.min(), Some(1.0));
        assert_eq!(agg.max(), Some(100.0));
    }

    #[test]
    fn nan_samples_sort_by_total_order_instead_of_panicking() {
        // Regression pin: the old `partial_cmp().expect("NaN sample")`
        // comparator panicked the whole report on one bad sample.
        // total_cmp places positive NaN above +inf and negative NaN
        // below -inf, leaving ordinary ranks untouched.
        let mut s: Samples = [2.0, f64::NAN, 1.0, 3.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(50.0), Some(2.0));
        assert!(s.percentile(100.0).unwrap().is_nan());
        let mut neg: Samples = [1.0, -f64::NAN, 2.0].into_iter().collect();
        assert!(neg.percentile(0.0).unwrap().is_nan());
        assert_eq!(neg.percentile(100.0), Some(2.0));
    }

    #[test]
    fn samples_mean_does_not_depend_on_query_order() {
        // Values whose left-to-right sum rounds differently in push
        // order and in sorted order: the mean must be one number.
        let pushed = [1e16, 1.0, -1e16, 1.0, 3.0, 0.1];
        let mut a: Samples = pushed.into_iter().collect();
        let mean = a.mean().expect("non-empty");
        assert_eq!(a.percentile(50.0), Some(1.0));
        assert_eq!(a.mean().map(f64::to_bits), Some(mean.to_bits()));
        let mut b: Samples = pushed.into_iter().rev().collect();
        b.percentile(99.0);
        assert_eq!(b.mean().map(f64::to_bits), Some(mean.to_bits()));
        let in_push_order = sum_ordered(pushed) / pushed.len() as f64;
        assert_ne!(
            in_push_order.to_bits(),
            mean.to_bits(),
            "the set must tell the orders apart"
        );
    }

    /// An `f64` from the corners of the total order, picked by `w`:
    /// signed zeros, infinities, NaNs of both signs with payloads,
    /// subnormals of both signs, a three-value palette (long runs of
    /// duplicates once sorted) and raw bit patterns.
    fn edge_value(w: u64) -> f64 {
        let mantissa = (w >> 8) & ((1 << 52) - 1) | 1;
        match w & 15 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::from_bits(0x7FF0 << 48 | mantissa),
            5 => f64::from_bits(0xFFF0 << 48 | mantissa),
            6 => f64::from_bits(mantissa),
            7 => f64::from_bits(1 << 63 | mantissa),
            8..=11 => [1.0, -1.0, 0.5][(w >> 8) as usize % 3],
            _ => f64::from_bits(w),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The key sort leaves exactly the bits a stable
        /// `sort_by(f64::total_cmp)` leaves.
        #[test]
        fn key_sort_matches_total_cmp_bit_for_bit(
            words in proptest::collection::vec(any::<u64>(), 0..400)
        ) {
            let values: Vec<f64> = words.into_iter().map(edge_value).collect();
            let mut want = values.clone();
            want.sort_by(f64::total_cmp);
            let mut s: Samples = values.into_iter().collect();
            s.sort();
            let got: Vec<u64> = s.values().map(f64::to_bits).collect();
            prop_assert_eq!(got, want.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_samples_are_none() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn estimate_mean_stddev_ci() {
        let e = Estimate::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(e.n, 8);
        assert!((e.mean - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        let expected_sd = (32.0f64 / 7.0).sqrt();
        assert!((e.stddev - expected_sd).abs() < 1e-12);
        assert!((e.ci95 - 1.96 * expected_sd / 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn estimate_degenerate_sizes() {
        let empty = Estimate::from_samples(&[]);
        assert_eq!(empty, Estimate::default());
        let one = Estimate::from_samples(&[3.5]);
        assert_eq!(one.n, 1);
        assert_eq!(one.mean, 3.5);
        assert_eq!(one.stddev, 0.0);
        assert_eq!(one.ci95, 0.0);
    }

    #[test]
    fn estimate_constant_samples_have_zero_spread() {
        let e = Estimate::from_samples(&[7.0; 16]);
        assert_eq!(e.mean, 7.0);
        assert_eq!(e.stddev, 0.0);
        assert_eq!(e.ci95, 0.0);
    }

    #[test]
    fn cache_stats_reset_zeroes_counters() {
        let mut c = CacheStats::new();
        c.hit();
        c.miss();
        c.reset();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.lookups(), 0);
    }

    #[test]
    fn empty_aggregate_is_none() {
        let agg = Aggregate::new();
        assert_eq!(agg.mean(), None);
        assert_eq!(agg.min(), None);
        assert_eq!(agg.max(), None);
    }
}
