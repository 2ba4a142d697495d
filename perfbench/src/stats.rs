//! Order statistics over wall-clock samples.

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of `xs`: the highest order statistic with at least
/// [`TAIL_BEYOND`] samples above it, with its percentile (the share of
/// samples at or below it, in %). `None` when there are too few samples
/// for any such statistic.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
    })
}

/// Samples a tail statistic must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail statistic and how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Share of samples at or below `value`, in %.
    pub percentile: f64,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Length of one window of consecutive operations, seconds.
pub const WINDOW_S: f64 = 1.0;
/// Share of the operations the calm pool holds at the least.
pub const CALM_SHARE: f64 = 0.25;
/// Operations the calm pool holds at the least.
pub const CALM_MIN: usize = 30;

/// The wall times of the run's calmest stretches.
///
/// Other tenants of a shared host slow every operation for about a
/// second at a time, by up to 50%, and how many such bursts land in a
/// run varies from run to run. So `ops` — `(start s, wall ms)` in run
/// order — is split into consecutive windows of [`WINDOW_S`], windows
/// are ranked by their median, and whole windows are pooled from the
/// calmest up until the pool holds [`CALM_SHARE`] of the operations and
/// at least [`CALM_MIN`] (or all of them). A change that slows every
/// operation slows the pool just as much.
pub fn calm_pool(ops: &[(f64, f64)]) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut window_start = f64::NEG_INFINITY;
    for &(start, ms) in ops {
        if start - window_start >= WINDOW_S {
            windows.push(Vec::new());
            window_start = start;
        }
        windows.last_mut().expect("a window is open").push(ms);
    }
    let mut ranked: Vec<(f64, Vec<f64>)> = windows.into_iter().map(|w| (median(&w), w)).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let want = ((ops.len() as f64 * CALM_SHARE).ceil() as usize)
        .max(CALM_MIN)
        .min(ops.len());
    let mut pool = Vec::new();
    for (_, w) in ranked {
        if pool.len() >= want {
            break;
        }
        pool.extend(w);
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn calm_pool_keeps_the_calmest_windows() {
        // 40 s of 100 ms operations; seconds 10..30 run 50% slower.
        let ops: Vec<(f64, f64)> = (0..400)
            .map(|i| {
                let t = i as f64 * 0.1;
                (
                    t,
                    if (10.0..30.0).contains(&t) {
                        150.0
                    } else {
                        100.0
                    },
                )
            })
            .collect();
        let pool = calm_pool(&ops);
        assert_eq!(pool.len(), 100);
        assert!(pool.iter().all(|&ms| ms == 100.0));
        // Few operations: the pool still holds CALM_MIN, or all of them.
        let few: Vec<(f64, f64)> = (0..30)
            .map(|i| (i as f64 * 0.4, 400.0 + i as f64))
            .collect();
        assert!(calm_pool(&few).len() >= CALM_MIN);
        assert_eq!(calm_pool(&few[..12]).len(), 12);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        for n in 11..400 {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let t = tail(&xs).expect("enough samples");
            let above = xs.iter().filter(|&&x| x > t.value).count();
            assert!(above >= TAIL_BEYOND, "n={n}: {above} beyond");
            assert_eq!(t.beyond, TAIL_BEYOND);
            // The next-higher order statistic would leave only nine.
            assert_eq!(above, TAIL_BEYOND, "n={n}: not the highest such statistic");
            assert!((0.0..100.0).contains(&t.percentile));
        }
    }
}
