//! Bruneau's quantitative resilience metric (the paper's §4.1, Fig. 3).
//!
//! "If we denote by Q(t) the quality of the system at time t, the resilience
//! of the system is measured as ∫ₜ₀ᵗ¹ [100 − Q(t)] dt. As the measured
//! triangle area gets smaller, the system becomes more resilient."
//!
//! Two dimensions govern the area (the paper lists them explicitly):
//! *resistance* (reduced service degradation at `t0` — here `robustness`)
//! and *recoverability* (reduced time to recovery — here `rapidity`).

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::quality::{QualityTrajectory, FULL_QUALITY};

/// The resilience loss `R = ∫ [100 − Q(t)] dt`, computed by trapezoidal
/// integration over the whole trajectory. Smaller is more resilient; `0`
/// means quality never dipped.
///
/// # Example
///
/// ```
/// use resilience_core::{QualityTrajectory, resilience_loss};
/// // A triangle: drop to 60 then linear recovery over 2 time units.
/// let q = QualityTrajectory::from_samples(1.0, vec![100.0, 60.0, 80.0, 100.0]);
/// let r = resilience_loss(&q);
/// assert!(r > 0.0);
/// ```
pub fn resilience_loss(traj: &QualityTrajectory) -> f64 {
    let s = traj.samples();
    if s.len() < 2 {
        return s
            .first()
            .map_or(0.0, |&q| 0.0f64.max(FULL_QUALITY - q) * 0.0);
    }
    let dt = traj.dt();
    let mut area = 0.0;
    for w in s.windows(2) {
        let a = FULL_QUALITY - w[0];
        let b = FULL_QUALITY - w[1];
        area += 0.5 * (a + b) * dt;
    }
    area
}

/// Summary of one shock-and-recovery episode in a quality trajectory —
/// the "resilience triangle".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceTriangle {
    /// Sample index at which quality first dropped below full.
    pub t0_index: usize,
    /// Sample index at which quality first returned to at least
    /// `recovery_threshold` (or the final index if it never did).
    pub t1_index: usize,
    /// Whether quality actually recovered within the trajectory.
    pub recovered: bool,
    /// Maximum quality drop (`100 − min Q` over the episode); the paper's
    /// *resistance* dimension, inverted: smaller drop = more robust.
    pub max_drop: f64,
    /// Time from drop to recovery (`(t1 − t0)·dt`); the paper's
    /// *recoverability* dimension: shorter = more rapid.
    pub recovery_time: f64,
    /// The loss integral over `[t0, t1]`.
    pub loss: f64,
}

impl ResilienceTriangle {
    /// Robustness as a fraction in `[0, 1]`: `1 − max_drop/100`.
    pub fn robustness(&self) -> f64 {
        1.0 - self.max_drop / FULL_QUALITY
    }
}

/// Analyze the first shock episode of a trajectory: find the drop point
/// `t0`, the recovery point `t1` (first return to `recovery_threshold`),
/// and integrate the loss between them.
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrajectory`] if the trajectory is empty, and
/// [`CoreError::InvalidParameter`] if `recovery_threshold` is outside
/// `(0, 100]`.
pub fn analyze_triangle(
    traj: &QualityTrajectory,
    recovery_threshold: f64,
) -> Result<Option<ResilienceTriangle>, CoreError> {
    if traj.is_empty() {
        return Err(CoreError::EmptyTrajectory);
    }
    if !(recovery_threshold > 0.0 && recovery_threshold <= FULL_QUALITY) {
        return Err(crate::error::invalid_param(
            "recovery_threshold",
            format!("must be in (0, 100], got {recovery_threshold}"),
        ));
    }
    let s = traj.samples();
    let t0 = match traj.first_drop_below(recovery_threshold) {
        Some(i) => i,
        None => return Ok(None), // never degraded: no triangle
    };
    let (t1, recovered) = match traj.first_recovery_at(t0, recovery_threshold) {
        Some(i) => (i, true),
        None => (s.len() - 1, false),
    };
    let dt = traj.dt();
    let lo = t0.saturating_sub(1);
    let mut loss = 0.0;
    for w in s[lo..=t1].windows(2) {
        loss += 0.5 * ((FULL_QUALITY - w[0]) + (FULL_QUALITY - w[1])) * dt;
    }
    let max_drop = FULL_QUALITY - s[t0..=t1].iter().copied().fold(f64::INFINITY, f64::min);
    Ok(Some(ResilienceTriangle {
        t0_index: t0,
        t1_index: t1,
        recovered,
        max_drop,
        recovery_time: (t1 - t0) as f64 * dt,
        loss,
    }))
}

/// The exact trapezoidal-rule area of a *sampled* Bruneau shape, where the
/// "instantaneous" drop necessarily occupies one sample interval `dt`:
/// `R = drop·dt/2 + drop·recovery_time/2`. [`resilience_loss`] of a
/// [`QualityTrajectory::bruneau_shape`] matches this exactly.
pub fn discrete_triangle_loss(drop: f64, recovery_time: f64, dt: f64) -> f64 {
    0.5 * drop * dt + 0.5 * drop * recovery_time
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exact triangle area for the canonical linear-recovery shape
    /// with an instantaneous drop: a drop of `drop` recovered linearly
    /// over `recovery_time` gives `R = drop · recovery_time / 2`.
    fn analytic_triangle_loss(drop: f64, recovery_time: f64) -> f64 {
        0.5 * drop * recovery_time
    }

    #[test]
    fn loss_zero_when_quality_full() {
        let t = QualityTrajectory::from_samples(1.0, vec![100.0; 10]);
        assert_eq!(resilience_loss(&t), 0.0);
    }

    #[test]
    fn loss_matches_discrete_triangle() {
        // Drop of 40 recovered linearly over 4 time units, dt = 1:
        // R = 40·1/2 (drop edge) + 40·4/2 (recovery) = 100.
        let t = QualityTrajectory::bruneau_shape(1.0, 3, 40.0, 4, 3);
        let r = resilience_loss(&t);
        assert!(
            (r - discrete_triangle_loss(40.0, 4.0, 1.0)).abs() < 1e-9,
            "got {r}"
        );
        // The discrete area converges to the analytic one as dt → 0.
        assert!(discrete_triangle_loss(40.0, 4.0, 1e-9) - analytic_triangle_loss(40.0, 4.0) < 1e-6);
    }

    #[test]
    fn loss_scales_with_dt() {
        let coarse = QualityTrajectory::from_samples(1.0, vec![100.0, 50.0, 100.0]);
        let fine = QualityTrajectory::from_samples(0.5, vec![100.0, 50.0, 100.0]);
        assert!((resilience_loss(&coarse) - 2.0 * resilience_loss(&fine)).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_loss() {
        let t = QualityTrajectory::from_samples(1.0, vec![40.0]);
        assert_eq!(resilience_loss(&t), 0.0);
    }

    #[test]
    fn triangle_analysis_happy_path() {
        let t = QualityTrajectory::bruneau_shape(1.0, 5, 30.0, 6, 4);
        let tri = analyze_triangle(&t, 100.0).unwrap().unwrap();
        assert_eq!(tri.t0_index, 5);
        assert_eq!(tri.t1_index, 11);
        assert!(tri.recovered);
        assert!((tri.max_drop - 30.0).abs() < 1e-9);
        assert!((tri.recovery_time - 6.0).abs() < 1e-9);
        assert!((tri.loss - discrete_triangle_loss(30.0, 6.0, 1.0)).abs() < 1e-9);
        assert!((tri.robustness() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn triangle_analysis_no_drop() {
        let t = QualityTrajectory::from_samples(1.0, vec![100.0; 5]);
        assert_eq!(analyze_triangle(&t, 100.0).unwrap(), None);
    }

    #[test]
    fn triangle_analysis_never_recovers() {
        let t = QualityTrajectory::from_samples(1.0, vec![100.0, 40.0, 40.0, 40.0]);
        let tri = analyze_triangle(&t, 100.0).unwrap().unwrap();
        assert!(!tri.recovered);
        assert_eq!(tri.t1_index, 3);
        assert!((tri.max_drop - 60.0).abs() < 1e-9);
    }

    #[test]
    fn triangle_analysis_validates_inputs() {
        let empty = QualityTrajectory::new(1.0);
        assert_eq!(
            analyze_triangle(&empty, 100.0),
            Err(CoreError::EmptyTrajectory)
        );
        let t = QualityTrajectory::from_samples(1.0, vec![100.0]);
        assert!(analyze_triangle(&t, 0.0).is_err());
        assert!(analyze_triangle(&t, 101.0).is_err());
    }

    #[test]
    fn smaller_triangle_means_more_resilient() {
        // The paper's core ordering: faster recovery ⇒ smaller R.
        let slow = QualityTrajectory::bruneau_shape(1.0, 2, 50.0, 10, 2);
        let fast = QualityTrajectory::bruneau_shape(1.0, 2, 50.0, 3, 2);
        assert!(resilience_loss(&fast) < resilience_loss(&slow));
        // And a shallower drop ⇒ smaller R (resistance dimension).
        let shallow = QualityTrajectory::bruneau_shape(1.0, 2, 20.0, 10, 2);
        assert!(resilience_loss(&shallow) < resilience_loss(&slow));
    }

    proptest! {
        #[test]
        fn prop_loss_nonnegative(values in proptest::collection::vec(0.0f64..100.0, 2..60)) {
            let t = QualityTrajectory::from_samples(1.0, values);
            prop_assert!(resilience_loss(&t) >= 0.0);
        }

        #[test]
        fn prop_loss_bounded_by_total_blackout(values in proptest::collection::vec(0.0f64..100.0, 2..60)) {
            let t = QualityTrajectory::from_samples(1.0, values);
            let max = 100.0 * t.duration();
            prop_assert!(resilience_loss(&t) <= max + 1e-9);
        }

        #[test]
        fn prop_discrete_matches_synthetic(drop in 1.0f64..99.0, rec in 1usize..30) {
            let t = QualityTrajectory::bruneau_shape(1.0, 1, drop, rec, 1);
            let r = resilience_loss(&t);
            let expect = discrete_triangle_loss(drop, rec as f64, 1.0);
            prop_assert!((r - expect).abs() < 1e-6, "r={r} expect={expect}");
        }
    }
}
