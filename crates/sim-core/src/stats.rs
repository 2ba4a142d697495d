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
/// lazily on the first percentile query after a push.
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
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.values.len() as u64
    }

    /// Mean of samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty())
            .then(|| sum_ordered(self.values.iter().copied()) / self.values.len() as f64)
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
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        // Nearest-rank: ceil(p/100 * n), clamped to [1, n].
        let n = self.values.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(self.values[rank - 1])
    }

    /// Collapses to the O(1) summary form.
    pub fn aggregate(&self) -> Aggregate {
        self.values.iter().copied().collect()
    }
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
