//! Generic uniformly-sampled time series with windowed statistics.
//!
//! Shared by the early-warning-signal detectors (`resilience-stats`), the
//! MAPE-K loop (`resilience-engineering`), and the agent testbed.

use serde::{Deserialize, Serialize};

/// A uniformly-sampled scalar time series.
///
/// # Example
///
/// ```
/// use resilience_core::TimeSeries;
/// let s: TimeSeries = (0..10).map(|i| i as f64).collect();
/// assert_eq!(s.len(), 10);
/// assert!((s.mean() - 4.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    values: Vec<f64>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries { values: Vec::new() }
    }

    /// Series from existing samples.
    pub fn from_values(values: Vec<f64>) -> Self {
        TimeSeries { values }
    }

    /// Append a sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Arithmetic mean (`NaN` if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            f64::NAN
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Population variance (`NaN` if empty).
    pub fn variance(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        let m = self.mean();
        self.values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / self.values.len() as f64
    }

    /// Population standard deviation (`NaN` if empty).
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Lag-1 autocorrelation (`NaN` for < 2 samples or zero variance).
    ///
    /// Rising lag-1 autocorrelation is the canonical early-warning signal
    /// of critical slowing down (Scheffer et al., cited in §3.4.1).
    pub fn lag1_autocorrelation(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return f64::NAN;
        }
        let m = self.mean();
        let denom: f64 = self.values.iter().map(|v| (v - m).powi(2)).sum();
        if denom == 0.0 {
            return f64::NAN;
        }
        let numer: f64 = self
            .values
            .windows(2)
            .map(|w| (w[0] - m) * (w[1] - m))
            .sum();
        numer / denom
    }

    /// Sample skewness (`NaN` for < 3 samples or zero variance).
    pub fn skewness(&self) -> f64 {
        let n = self.values.len();
        if n < 3 {
            return f64::NAN;
        }
        let m = self.mean();
        let sd = self.std_dev();
        if sd == 0.0 {
            return f64::NAN;
        }
        let m3 = self
            .values
            .iter()
            .map(|v| ((v - m) / sd).powi(3))
            .sum::<f64>()
            / n as f64;
        m3
    }

    /// Iterate over sliding windows of width `w` (stride 1).
    pub fn windows(&self, w: usize) -> impl Iterator<Item = &[f64]> {
        self.values.windows(w.max(1))
    }

    /// Map each sliding window of width `w` through `f`, producing a
    /// derived series aligned to the window's *end*.
    pub fn rolling<F: FnMut(&[f64]) -> f64>(&self, w: usize, mut f: F) -> TimeSeries {
        TimeSeries {
            values: self.values.windows(w.max(1)).map(&mut f).collect(),
        }
    }

    /// Minimum value (`NaN` if empty).
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::min)
    }

    /// Maximum value (`NaN` if empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::max)
    }
}

impl FromIterator<f64> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        TimeSeries {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for TimeSeries {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

impl AsRef<[f64]> for TimeSeries {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_variance() {
        let s = TimeSeries::from_values(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_stats_are_nan() {
        let s = TimeSeries::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn lag1_autocorrelation_of_alternating_is_negative() {
        let s: TimeSeries = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(s.lag1_autocorrelation() < -0.9);
    }

    #[test]
    fn lag1_autocorrelation_of_slow_ramp_is_positive() {
        let s: TimeSeries = (0..100).map(|i| (i as f64 / 10.0).sin()).collect();
        assert!(s.lag1_autocorrelation() > 0.8);
    }

    #[test]
    fn lag1_autocorrelation_degenerate_cases() {
        assert!(TimeSeries::from_values(vec![1.0])
            .lag1_autocorrelation()
            .is_nan());
        assert!(TimeSeries::from_values(vec![3.0; 10])
            .lag1_autocorrelation()
            .is_nan());
    }

    #[test]
    fn skewness_sign() {
        // Right-skewed: many small, few large.
        let mut v = vec![1.0; 50];
        v.extend(vec![10.0; 5]);
        let s = TimeSeries::from_values(v);
        assert!(s.skewness() > 0.5);
        // Symmetric.
        let sym: TimeSeries = (-50..=50).map(|i| i as f64).collect();
        assert!(sym.skewness().abs() < 1e-9);
    }

    #[test]
    fn rolling_mean() {
        let s = TimeSeries::from_values(vec![1.0, 2.0, 3.0, 4.0]);
        let r = s.rolling(2, |w| w.iter().sum::<f64>() / w.len() as f64);
        assert_eq!(r.values(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn min_max() {
        let s = TimeSeries::from_values(vec![3.0, -1.0, 7.0]);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn collect_and_extend() {
        let mut s: TimeSeries = [1.0, 2.0].into_iter().collect();
        s.extend([3.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_ref(), &[1.0, 2.0, 3.0]);
    }

    proptest! {
        #[test]
        fn prop_variance_nonnegative(values in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let s = TimeSeries::from_values(values);
            prop_assert!(s.variance() >= 0.0);
        }

        #[test]
        fn prop_lag1_in_range(values in proptest::collection::vec(-1e3f64..1e3, 2..100)) {
            let s = TimeSeries::from_values(values);
            let r = s.lag1_autocorrelation();
            if !r.is_nan() {
                prop_assert!((-1.0001..=1.0001).contains(&r));
            }
        }

        #[test]
        fn prop_mean_between_min_max(values in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let s = TimeSeries::from_values(values);
            prop_assert!(s.mean() >= s.min() - 1e-9 && s.mean() <= s.max() + 1e-9);
        }
    }
}
