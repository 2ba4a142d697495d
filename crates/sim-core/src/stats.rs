//! Statistics collection for simulators.
//!
//! [`BusyTracker`] measures the fraction of virtual time a resource (a
//! flash channel, the NPU, the DRAM bus) spends busy. This is what
//! "Channel Usage" in Figures 12, 14 and 15 reports. [`Samples`] keeps
//! the durations a serving report summarizes (token latency, TTFT) as
//! integer picoseconds and answers exact percentiles and an exact mean.
//! [`Aggregate`] and [`Estimate`] summarize `f64` values: a running
//! mean/min/max, and a Monte Carlo metric's spread. [`CacheStats`]
//! counts memo-cache traffic. [`sum_ordered`] is the one approved `f64`
//! reduction.

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

/// Every duration pushed, with order statistics and an exact mean: the
/// latency distributions of serving reports (token latency and TTFT
/// p50/p99 and means).
///
/// Unlike [`Aggregate`], which keeps O(1) state, `Samples` retains every
/// pushed value so exact percentiles can be computed. Values are
/// integer picoseconds, run-length encoded: a push equal to the
/// previous one bumps a count. Serving runs push long runs of equal
/// token latencies (every member of a batch step, every token of an
/// unchanged batch), so the pairs are far fewer than the values.
///
/// Nothing is sorted. A percentile is a weighted selection over the
/// pairs, O(n) per query; it reorders the pairs in place, which is why
/// it takes `&mut self`. The mean is the exact `u128` sum of the
/// picoseconds over the count, rounded once. Both read the multiset
/// alone, so every push order and every query order of one sample set
/// gives the same bits. Results are in seconds.
///
/// # Examples
///
/// ```
/// use sim_core::{Samples, SimTime};
///
/// let mut s = Samples::new();
/// for ms in [5, 1, 4, 2, 3] {
///     s.push(SimTime::from_millis(ms));
/// }
/// assert_eq!(s.percentile(50.0), Some(0.003));
/// assert_eq!(s.percentile(0.0), Some(0.001));
/// assert_eq!(s.percentile(100.0), Some(0.005));
/// assert_eq!(s.mean(), Some(0.003));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// `(ps, count)` pairs: a value in picoseconds and how many equal
    /// pushes in a row it stands for. Selection permutes them.
    runs: Vec<(u64, u64)>,
    /// Values pushed, the counts summed.
    count: u64,
    /// Picoseconds pushed, summed exactly.
    sum_ps: u128,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, t: SimTime) {
        let ps = t.as_picos();
        self.count += 1;
        self.sum_ps += u128::from(ps);
        match self.runs.last_mut() {
            Some((last, n)) if *last == ps => *n += 1,
            _ => self.runs.push((ps, 1)),
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean in seconds, or `None` if empty: `sum_ps / (count · 10¹²)`
    /// correctly rounded to the nearest `f64`.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| ratio_f64(self.sum_ps, u128::from(self.count) * PICOS_PER_SEC))
    }

    /// The `p`-th percentile (`0.0..=100.0`) by nearest rank, in
    /// seconds, or `None` if empty.
    ///
    /// Each step partitions the remaining pairs around their median
    /// value with `select_nth_unstable`, then keeps the side whose
    /// counts hold the rank, so a query costs O(pairs).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return None;
        }
        // Nearest-rank: ceil(p/100 * n), clamped to [1, n].
        let n = self.count;
        let mut rank = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        // Invariant: `rank` lies within the counts of `runs`, so it is
        // never empty.
        let mut runs = &mut self.runs[..];
        loop {
            let mid = runs.len() / 2;
            let (below, &mut (ps, k), above) =
                std::mem::take(&mut runs).select_nth_unstable_by_key(mid, |&(ps, _)| ps);
            let below_n: u64 = below.iter().map(|&(_, k)| k).sum();
            if rank <= below_n {
                runs = below;
            } else if rank <= below_n + k {
                return Some(SimTime::from_picos(ps).as_secs_f64());
            } else {
                rank -= below_n + k;
                runs = above;
            }
        }
    }
}

/// Picoseconds per second, the unit step from a [`Samples`] sum to a
/// mean in seconds.
const PICOS_PER_SEC: u128 = 1_000_000_000_000;

/// `num / den` correctly rounded to the nearest `f64` (ties to even),
/// for `0 < den < 2¹⁰⁴`.
///
/// Long division runs until the quotient holds at least 55 significant
/// bits (53 for the significand, a round bit and one more) or the
/// remainder is zero. A non-zero remainder is then ORed into the low
/// bit as a sticky bit, so the one rounding `as f64` does is the
/// rounding of the exact ratio, and the power-of-two scale is exact.
fn ratio_f64(num: u128, den: u128) -> f64 {
    debug_assert!(den > 0 && den >> 104 == 0, "denominator {den} out of range");
    let (mut q, mut r, mut exp) = (num / den, num % den, 0i32);
    while q >> 54 == 0 && r != 0 {
        // `r < den < 2¹⁰⁴` and `q < 2⁵⁴`, so neither shift overflows
        // and each step adds at least 24 quotient bits.
        let shift = r.leading_zeros().min(64);
        let wide = r << shift;
        q = (q << shift) | (wide / den);
        r = wide % den;
        exp -= shift as i32;
    }
    // Before the last step `q < 2⁵⁴`, so `num · 2^-exp / den < 2⁵⁵`
    // there; the last shift is at most 64, so `-exp < 55 + 104 + 64`
    // and the scale is a normal power of two.
    let scale = f64::from_bits(((1023 + exp) as u64) << 52);
    (q | u128::from(r != 0)) as f64 * scale
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
        let mut s = Samples::new();
        for ms in 1..=100 {
            s.push(SimTime::from_millis(ms));
        }
        assert_eq!(s.percentile(50.0), Some(0.05));
        assert_eq!(s.percentile(99.0), Some(0.099));
        assert_eq!(s.percentile(100.0), Some(0.1));
        assert_eq!(s.percentile(1.0), Some(0.001));
        assert_eq!(s.mean(), Some(0.0505));
        assert_eq!(s.count(), 100);
    }

    #[test]
    fn samples_mean_is_exact_past_u64_sums() {
        // 4,096 × (2⁵³ − 1) ps overflows a u64 sum; the exact mean is
        // one value's seconds, a single correctly rounded division.
        let x = SimTime::from_picos((1 << 53) - 1);
        let mut s = Samples::new();
        for _ in 0..4096 {
            s.push(x);
        }
        assert!(4096 * u128::from(x.as_picos()) > u128::from(u64::MAX));
        assert_eq!(s.mean().map(f64::to_bits), Some(x.as_secs_f64().to_bits()));
    }

    #[test]
    fn ratio_rounds_once_at_and_past_ties() {
        // 1 + 2⁻⁵³ is the tie between 1 and the next f64 up.
        let den = 3u128 << 100;
        let tie = den + (3 << 47);
        assert_eq!(ratio_f64(tie, den), 1.0, "a tie rounds to even");
        assert_eq!(
            ratio_f64(tie + 1, den),
            1.0 + f64::EPSILON,
            "past a tie, the sticky bit"
        );
        assert_eq!(ratio_f64(tie - 1, den), 1.0);
        // 2⁵³ + 1.5: a first quotient of 54 bits needs more of them.
        assert_eq!(ratio_f64((1 << 54) + 3, 2), 9_007_199_254_740_994.0);
        // Many quotient steps, then a scale of 2⁻¹⁰⁰.
        assert_eq!(ratio_f64(1, den), 1.0 / 3.0 / 2f64.powi(100));
    }

    /// A picosecond value picked by `w`: one of a three-value palette
    /// (long runs of duplicates), a latency-sized value below 2⁴⁰ ps,
    /// or the raw word (the whole `u64` range).
    fn ps_value(w: u64) -> u64 {
        match w & 3 {
            0 => [0, 1_000_000_000, u64::MAX][(w >> 2) as usize % 3],
            1 | 2 => w >> 24,
            _ => w,
        }
    }

    /// A push order shaped like a serving run's token latencies, built
    /// from `words`: each word opens either a run of one repeated
    /// [`ps_value`] (up to 64 copies) or an ascending run of up to 16
    /// values drawn from the words after it, each value repeated up to
    /// 4 times. Successive ascending runs overlap in range, so the
    /// pairs are not in order.
    fn run_shaped(words: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < words.len() {
            let w = words[i];
            i += 1;
            if w & 1 == 0 {
                let len = (w >> 1) % 64 + 1;
                out.extend(std::iter::repeat(ps_value(w >> 7)).take(len as usize));
            } else {
                let n = ((w >> 1) % 16 + 1) as usize;
                let mut run: Vec<u64> = words[i..].iter().take(n).map(|&v| ps_value(v)).collect();
                i += run.len();
                run.sort_unstable();
                let reps = ((w >> 5) % 4 + 1) as usize;
                for x in run {
                    out.extend(std::iter::repeat(x).take(reps));
                }
            }
        }
        out
    }

    fn samples_of(ps: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::new();
        for x in ps {
            s.push(SimTime::from_picos(x));
        }
        s
    }

    const PERCENTILES: [f64; 5] = [0.0, 1.0, 50.0, 99.0, 100.0];

    /// Every query's bits, percentiles first and the mean last.
    fn query_bits(s: &mut Samples) -> Vec<Option<u64>> {
        let mut bits: Vec<_> = PERCENTILES
            .iter()
            .map(|&p| s.percentile(p).map(f64::to_bits))
            .collect();
        bits.push(s.mean().map(f64::to_bits));
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Selection answers each percentile with the nearest-rank
        /// value of a full sort, also for a set queried halfway through
        /// its pushes (which permutes its pairs) and then extended.
        #[test]
        fn selection_percentiles_match_a_full_sort(
            words in proptest::collection::vec(any::<u64>(), 0..60)
        ) {
            let pushed = run_shaped(&words);
            let mut sorted = pushed.clone();
            sorted.sort_unstable();
            let n = sorted.len();
            let (head, tail) = pushed.split_at(n / 2);
            let mut s = samples_of(pushed.iter().copied());
            let mut t = samples_of(head.iter().copied());
            t.percentile(50.0);
            for &x in tail {
                t.push(SimTime::from_picos(x));
            }
            prop_assert_eq!(s.count(), n as u64);
            prop_assert_eq!(t.count(), n as u64);
            for p in PERCENTILES {
                let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
                let want = sorted
                    .get(rank - 1)
                    .map(|&x| SimTime::from_picos(x).as_secs_f64().to_bits());
                prop_assert_eq!(s.percentile(p).map(f64::to_bits), want);
                prop_assert_eq!(t.percentile(p).map(f64::to_bits), want);
            }
        }

        /// The reversed and a shuffled push order answer every query
        /// with the same bits.
        #[test]
        fn samples_do_not_depend_on_push_order(
            words in proptest::collection::vec(any::<u64>(), 0..60),
            seed in any::<u64>()
        ) {
            let pushed = run_shaped(&words);
            let mut shuffled = pushed.clone();
            let mut rng = crate::SplitMix64::new(seed);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let want = query_bits(&mut samples_of(pushed.iter().copied()));
            prop_assert_eq!(&query_bits(&mut samples_of(pushed.iter().rev().copied())), &want);
            prop_assert_eq!(&query_bits(&mut samples_of(shuffled)), &want);
        }

        /// Where the picosecond sum and `count · 10¹²` are both below
        /// 2⁵³, each converts to f64 exactly and one IEEE division is
        /// the correctly rounded mean: an independent oracle.
        #[test]
        fn samples_mean_is_the_correctly_rounded_ratio(
            words in proptest::collection::vec(any::<u64>(), 0..60)
        ) {
            let pushed: Vec<u64> = run_shaped(&words).into_iter().map(|x| x >> 24).collect();
            let sum: u64 = pushed.iter().sum();
            let den = pushed.len() as u64 * 1_000_000_000_000;
            prop_assert!(sum < 1 << 53 && den < 1 << 53);
            let want = (den > 0).then(|| (sum as f64 / den as f64).to_bits());
            prop_assert_eq!(samples_of(pushed).mean().map(f64::to_bits), want);
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
    fn empty_aggregate_is_none() {
        let agg = Aggregate::new();
        assert_eq!(agg.mean(), None);
        assert_eq!(agg.min(), None);
        assert_eq!(agg.max(), None);
    }
}
