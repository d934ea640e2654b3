//! Order statistics shared by the measurement loop and `compare`.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The tail percentile every workload reports.
pub const TAIL_PERCENTILE: u32 = 90;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    v[rank(v.len(), p).max(1) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100)
}

/// The highest whole percentile with at least [`TAIL_SAMPLES`] samples
/// beyond it among `n`, or `None` when `n` is too small for any.
pub fn highest_tail_percentile(n: usize) -> Option<u32> {
    (1..100)
        .rev()
        .find(|&p| n.saturating_sub(rank(n, p)) >= TAIL_SAMPLES)
}

/// Median over `rounds` contiguous, equal slices of `values` of
/// `statistic(slice)`: a burst of interference that spoils one slice
/// moves the result much less than it moves the statistic of the whole.
/// With fewer values than rounds, the statistic of the whole.
pub fn median_of_rounds(values: &[f64], rounds: usize, statistic: impl Fn(&[f64]) -> f64) -> f64 {
    let n = values.len();
    if n < rounds {
        return statistic(values);
    }
    let per_round: Vec<f64> = (0..rounds)
        .map(|r| statistic(&values[r * n / rounds..(r + 1) * n / rounds]))
        .collect();
    median(&per_round)
}

/// First, second and third quartile by the exclusive method — the
/// default of Python's `statistics.quantiles(values, n=4)`.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let ld = v.len();
    let m = ld + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a metric's bound is measured against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_tail_percentile(10), None);
        assert_eq!(highest_tail_percentile(11), Some(9));
        assert_eq!(highest_tail_percentile(100), Some(90));
        assert_eq!(highest_tail_percentile(120), Some(91));
        assert_eq!(highest_tail_percentile(1000), Some(99));
        for n in 11..2000 {
            let p = highest_tail_percentile(n).expect("n > 10 has a tail percentile");
            assert!(n - rank(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - rank(n, p + 1) < TAIL_SAMPLES,
                    "n={n}: p{} also fits",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90), 90.0);
    }

    #[test]
    fn median_of_rounds_discounts_one_spoiled_round() {
        let mut v = vec![10.0; 100];
        for x in &mut v[20..40] {
            *x = 50.0; // one round of five hit by interference
        }
        assert_eq!(median_of_rounds(&v, 5, |r| percentile(r, 90)), 10.0);
        assert_eq!(percentile(&v, 90), 50.0);
        // Rounds cover every value even when they do not divide evenly.
        let ramp: Vec<f64> = (0..7).map(f64::from).collect();
        assert_eq!(median_of_rounds(&ramp, 5, |r| r.len() as f64), 1.0);
        assert_eq!(median_of_rounds(&ramp[..3], 5, |r| r.len() as f64), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert_eq!(median(&v), 5.5);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
