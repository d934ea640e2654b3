//! Quality-of-service trajectories `Q(t)`.
//!
//! Bruneau's seismic-resilience framework (the paper's §4.1, Fig. 3)
//! measures a system by its quality over time: quality degrades abruptly at
//! `t0` when a shock hits and recovers by `t1`. A [`QualityTrajectory`] is a
//! uniformly-sampled record of `Q(t) ∈ [0, 100]`.

use serde::{Deserialize, Serialize};

/// Full quality (the pre-event baseline).
pub const FULL_QUALITY: f64 = 100.0;

/// A uniformly sampled quality trajectory `Q(t)`, `Q ∈ [0, 100]`.
///
/// # Example
///
/// ```
/// use resilience_core::QualityTrajectory;
/// let mut q = QualityTrajectory::new(1.0);
/// q.push(100.0);
/// q.push(60.0);
/// q.push(80.0);
/// q.push(100.0);
/// assert_eq!(q.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityTrajectory {
    dt: f64,
    samples: Vec<f64>,
}

impl QualityTrajectory {
    /// Empty trajectory with sample spacing `dt` (> 0).
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or is not finite.
    pub fn new(dt: f64) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive, got {dt}");
        QualityTrajectory {
            dt,
            samples: Vec::new(),
        }
    }

    /// Build from existing samples. Samples are clamped to `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or is not finite.
    pub fn from_samples(dt: f64, samples: Vec<f64>) -> Self {
        let mut t = QualityTrajectory::new(dt);
        for s in samples {
            t.push(s);
        }
        t
    }

    /// Append a quality sample (clamped to `[0, 100]`; NaN becomes 0).
    pub fn push(&mut self, q: f64) {
        let q = if q.is_nan() {
            0.0
        } else {
            q.clamp(0.0, FULL_QUALITY)
        };
        self.samples.push(q);
    }

    /// Sample spacing.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Total elapsed time covered (0 for < 2 samples).
    pub fn duration(&self) -> f64 {
        if self.samples.len() < 2 {
            0.0
        } else {
            (self.samples.len() - 1) as f64 * self.dt
        }
    }

    /// Index of the first sample where quality drops below `threshold`,
    /// if any.
    pub fn first_drop_below(&self, threshold: f64) -> Option<usize> {
        self.samples.iter().position(|&q| q < threshold)
    }

    /// Index of the first sample at or after `from` where quality has
    /// recovered to at least `threshold`, if any.
    pub fn first_recovery_at(&self, from: usize, threshold: f64) -> Option<usize> {
        self.samples[from.min(self.samples.len())..]
            .iter()
            .position(|&q| q >= threshold)
            .map(|i| i + from)
    }

    /// Synthesize the canonical Bruneau shape: full quality, an abrupt drop
    /// of `drop` at step `t0`, then linear recovery taking `recovery_steps`
    /// steps back to full quality, then `tail` steps at full quality.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn bruneau_shape(
        dt: f64,
        t0: usize,
        drop: f64,
        recovery_steps: usize,
        tail: usize,
    ) -> Self {
        let mut t = QualityTrajectory::new(dt);
        for _ in 0..t0 {
            t.push(FULL_QUALITY);
        }
        if recovery_steps == 0 {
            t.push(FULL_QUALITY - drop);
        } else {
            for i in 0..=recovery_steps {
                let frac = i as f64 / recovery_steps as f64;
                t.push(FULL_QUALITY - drop * (1.0 - frac));
            }
        }
        for _ in 0..tail {
            t.push(FULL_QUALITY);
        }
        t
    }
}

impl Extend<f64> for QualityTrajectory {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for q in iter {
            self.push(q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_clamps() {
        let mut t = QualityTrajectory::new(1.0);
        t.push(150.0);
        t.push(-20.0);
        t.push(f64::NAN);
        assert_eq!(t.samples(), &[100.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        let _ = QualityTrajectory::new(0.0);
    }

    #[test]
    fn duration_and_len() {
        let t = QualityTrajectory::from_samples(0.5, vec![100.0, 90.0, 100.0]);
        assert_eq!(t.len(), 3);
        assert!((t.duration() - 1.0).abs() < 1e-12);
        assert_eq!(QualityTrajectory::new(1.0).duration(), 0.0);
    }

    #[test]
    fn drop_and_recovery_detection() {
        let t = QualityTrajectory::from_samples(1.0, vec![100.0, 100.0, 60.0, 80.0, 100.0]);
        assert_eq!(t.first_drop_below(100.0), Some(2));
        assert_eq!(t.first_recovery_at(2, 100.0), Some(4));
        assert_eq!(t.first_drop_below(50.0), None);
        assert_eq!(t.first_recovery_at(2, 100.1), None);
    }

    #[test]
    fn bruneau_shape_properties() {
        let t = QualityTrajectory::bruneau_shape(1.0, 3, 40.0, 4, 2);
        // 3 pre-event + 5 recovery samples (0..=4) + 2 tail
        assert_eq!(t.len(), 10);
        assert_eq!(t.samples()[0], 100.0);
        assert_eq!(t.samples()[3], 60.0); // the drop
        assert_eq!(t.samples()[7], 100.0); // recovered
        assert_eq!(*t.samples().last().unwrap(), 100.0);
        // Monotone recovery
        for w in t.samples()[3..8].windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn bruneau_shape_instant_recovery() {
        let t = QualityTrajectory::bruneau_shape(1.0, 1, 30.0, 0, 1);
        assert_eq!(t.samples(), &[100.0, 70.0, 100.0]);
    }

    #[test]
    fn extend_pushes_clamped() {
        let mut t = QualityTrajectory::new(1.0);
        t.extend([120.0, 80.0]);
        assert_eq!(t.samples(), &[100.0, 80.0]);
    }

    proptest! {
        #[test]
        fn prop_samples_always_in_range(values in proptest::collection::vec(-1e6f64..1e6, 0..100)) {
            let t = QualityTrajectory::from_samples(1.0, values);
            for &q in t.samples() {
                prop_assert!((0.0..=100.0).contains(&q));
            }
        }

        #[test]
        fn prop_bruneau_shape_min_is_drop(drop in 0.0f64..100.0, rec in 1usize..20) {
            let t = QualityTrajectory::bruneau_shape(1.0, 2, drop, rec, 2);
            let min = t.samples().iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert!((min - (100.0 - drop)).abs() < 1e-9);
        }
    }
}
