//! Live Q(t)/Bruneau scoring with per-cause deficit attribution.
//!
//! A [`TrajectoryObserver`] folds telemetry charges into the quality
//! series *incrementally*, exactly mirroring how the instrumented
//! layer computes its own Q(t): charges accumulate in call order into
//! one running total (so the observed quality sample is bit-identical
//! to the layer's own), while per-cause sub-accumulators split the
//! same deficit by *why* quality was lost — a request shed, a hard
//! failure, a degraded (reduced/cached) response, or a supervisor
//! retry in flight.
//!
//! Integrating each per-cause deficit series with the same trapezoid
//! rule as [`resilience_loss`] yields a [`DeficitAttribution`]
//! whose components sum to the run's total Bruneau deficit (up to
//! float-addition association — the trapezoid is linear, so the only
//! discrepancy is summation order; the reconciliation tests bound it
//! at one part in 10⁹).

use resilience_core::bruneau::resilience_loss;
use resilience_core::quality::{QualityTrajectory, FULL_QUALITY};
use serde::Serialize;

/// Why a unit of quality was lost. The declaration order indexes the
/// per-cause series (`cause as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum DeficitCause {
    /// Request turned away at admission.
    Shed,
    /// Hard failure (backend fault with degradation off, or a trial
    /// lost for good).
    Failed,
    /// Served degraded: reduced fidelity or a cached answer.
    Degraded,
    /// Trial unhealthy but still inside its retry budget (the
    /// supervisor will re-dispatch it).
    Retry,
}

impl DeficitCause {
    /// All causes, in attribution-report order.
    pub const ALL: [DeficitCause; 4] = [
        DeficitCause::Shed,
        DeficitCause::Failed,
        DeficitCause::Degraded,
        DeficitCause::Retry,
    ];

    /// Stable lowercase label (metric/JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            DeficitCause::Shed => "shed",
            DeficitCause::Failed => "failed",
            DeficitCause::Degraded => "degraded",
            DeficitCause::Retry => "retry",
        }
    }
}

/// Bruneau deficit split by cause: each component is the trapezoidal
/// integral of that cause's quality-point deficit series, and `total`
/// is `resilience_loss` of the observed trajectory itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DeficitAttribution {
    /// Area lost to shed requests.
    pub shed: f64,
    /// Area lost to hard failures / lost trials.
    pub failed: f64,
    /// Area lost to degraded (reduced or cached) responses.
    pub degraded: f64,
    /// Area lost to trials awaiting a supervisor retry.
    pub retry: f64,
    /// `resilience_loss` of the full trajectory.
    pub total: f64,
}

impl DeficitAttribution {
    /// Sum of the four per-cause components (should reconcile with
    /// `total` up to float association).
    pub fn components_sum(&self) -> f64 {
        self.shed + self.failed + self.degraded + self.retry
    }
}

/// Folds per-tick deficit charges into a quality trajectory plus
/// per-cause deficit series, in lock-step with the instrumented layer.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryObserver {
    quality: QualityTrajectory,
    /// Per-cause quality-point deficits, one entry per quality sample.
    series: [Vec<f64>; 4],
    /// Charges accumulated since the last sample, per cause.
    pending: [f64; 4],
    /// Charges accumulated since the last sample, in call order —
    /// mirrors the instrumented layer's own single accumulator so the
    /// derived quality sample is bit-identical to the layer's.
    pending_total: f64,
}

impl TrajectoryObserver {
    /// An empty observer with sample spacing `dt`.
    pub fn new(dt: f64) -> Self {
        TrajectoryObserver {
            quality: QualityTrajectory::new(dt),
            series: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            pending: [0.0; 4],
            pending_total: 0.0,
        }
    }

    /// Charge `penalty` (in per-adjudication deficit units, the same
    /// units the layer adds to its own deficit accumulator) to `cause`.
    pub fn charge(&mut self, cause: DeficitCause, penalty: f64) {
        self.pending[cause as usize] += penalty;
        self.pending_total += penalty;
    }

    /// Close the tick: with `adjudicated` decisions this tick, sample
    /// `Q = 100·(1 − deficit/adjudicated)` (or 100 when nothing was
    /// adjudicated) and commit the per-cause split. Returns the sample.
    pub fn end_tick(&mut self, adjudicated: u64) -> f64 {
        let q = if adjudicated == 0 {
            FULL_QUALITY
        } else {
            FULL_QUALITY * (1.0 - self.pending_total / adjudicated as f64)
        };
        self.quality.push(q);
        for (i, series) in self.series.iter_mut().enumerate() {
            let pts = if adjudicated == 0 {
                0.0
            } else {
                FULL_QUALITY * self.pending[i] / adjudicated as f64
            };
            series.push(pts);
        }
        self.pending = [0.0; 4];
        self.pending_total = 0.0;
        q
    }

    /// Push a full-quality sample with no charges (baseline sample or
    /// a demand-free tick).
    pub fn push_full(&mut self) {
        self.quality.push(FULL_QUALITY);
        for series in &mut self.series {
            series.push(0.0);
        }
        self.pending = [0.0; 4];
        self.pending_total = 0.0;
    }

    /// Push a supervised-runtime health sample: `healthy` of `n` trial
    /// slots healthy, of which `lost` are unhealthy-for-good. The
    /// quality sample is `100·healthy/n` — bit-identical to
    /// `RunReport::health_from_log` — with the deficit split between
    /// [`DeficitCause::Failed`] (`100·lost/n`) and
    /// [`DeficitCause::Retry`] (the exact residual, so the per-sample
    /// causes always sum to `100 − Q`).
    pub fn push_health(&mut self, healthy: u64, lost: u64, n: u64) {
        debug_assert!(healthy + lost <= n.max(1));
        if n == 0 {
            self.push_full();
            return;
        }
        let q = FULL_QUALITY * healthy as f64 / n as f64;
        let failed_pts = FULL_QUALITY * lost as f64 / n as f64;
        let retry_pts = (FULL_QUALITY - q) - failed_pts;
        self.quality.push(q);
        self.series[DeficitCause::Shed as usize].push(0.0);
        self.series[DeficitCause::Failed as usize].push(failed_pts);
        self.series[DeficitCause::Degraded as usize].push(0.0);
        self.series[DeficitCause::Retry as usize].push(retry_pts.max(0.0));
        self.pending = [0.0; 4];
        self.pending_total = 0.0;
    }

    /// The observed quality trajectory.
    pub fn quality(&self) -> &QualityTrajectory {
        &self.quality
    }

    /// The per-sample quality-point deficit series for `cause`.
    pub fn cause_series(&self, cause: DeficitCause) -> &[f64] {
        &self.series[cause as usize]
    }

    /// Integrate the attribution: per-cause trapezoidal areas plus the
    /// trajectory's own `resilience_loss` as the authoritative total.
    pub fn attribution(&self) -> DeficitAttribution {
        DeficitAttribution {
            shed: self.cause_area(DeficitCause::Shed),
            failed: self.cause_area(DeficitCause::Failed),
            degraded: self.cause_area(DeficitCause::Degraded),
            retry: self.cause_area(DeficitCause::Retry),
            total: resilience_loss(&self.quality),
        }
    }

    /// Trapezoidal integral of one cause's deficit series, using the
    /// same rule (and the same `dt`) as `bruneau::resilience_loss`.
    fn cause_area(&self, cause: DeficitCause) -> f64 {
        let s = &self.series[cause as usize];
        if s.len() < 2 {
            return 0.0;
        }
        let dt = self.quality.dt();
        let mut area = 0.0;
        for w in s.windows(2) {
            area += 0.5 * (w[0] + w[1]) * dt;
        }
        area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn attribution_sums_to_total() {
        let mut obs = TrajectoryObserver::new(1.0);
        obs.push_full();
        for tick in 0..50u64 {
            if tick % 3 == 0 {
                obs.charge(DeficitCause::Shed, 1.0);
            }
            if tick % 7 == 0 {
                obs.charge(DeficitCause::Failed, 1.0);
            }
            obs.charge(DeficitCause::Degraded, 0.25);
            obs.charge(DeficitCause::Degraded, 0.5);
            obs.end_tick(4);
        }
        let attr = obs.attribution();
        assert!(attr.total > 0.0);
        assert!(
            close(attr.components_sum(), attr.total),
            "components {} vs total {}",
            attr.components_sum(),
            attr.total
        );
    }

    #[test]
    fn quality_sample_matches_layer_formula() {
        let mut obs = TrajectoryObserver::new(1.0);
        obs.charge(DeficitCause::Shed, 1.0);
        obs.charge(DeficitCause::Degraded, 0.5);
        let q = obs.end_tick(3);
        // Exactly the layer's own expression, same operand order.
        assert_eq!(q, FULL_QUALITY * (1.0 - (1.0 + 0.5) / 3.0));
        assert_eq!(obs.end_tick(0), FULL_QUALITY);
    }

    #[test]
    fn health_samples_match_health_from_log() {
        use resilience_core::faults::{AttemptRecord, RunReport};
        // 4 trials; trial 1 fails then recovers, trial 2 fails twice
        // and is lost.
        let mut log = vec![
            AttemptRecord {
                trial: 0,
                attempt: 0,
                ok: true,
            },
            AttemptRecord {
                trial: 1,
                attempt: 0,
                ok: false,
            },
            AttemptRecord {
                trial: 2,
                attempt: 0,
                ok: false,
            },
            AttemptRecord {
                trial: 3,
                attempt: 0,
                ok: true,
            },
            AttemptRecord {
                trial: 1,
                attempt: 1,
                ok: true,
            },
            AttemptRecord {
                trial: 2,
                attempt: 1,
                ok: false,
            },
        ];
        let health = RunReport::health_from_log(4, &mut log);

        let mut obs = TrajectoryObserver::new(1.0);
        obs.push_full();
        // Replay the sorted log the way the report module does,
        // attributing unhealthy slots to retry vs failed.
        let mut unhealthy = std::collections::BTreeSet::new();
        let lost_trials: std::collections::BTreeSet<u64> = [2u64].into_iter().collect();
        for rec in &log {
            if rec.ok {
                unhealthy.remove(&rec.trial);
            } else {
                unhealthy.insert(rec.trial);
            }
            let lost = unhealthy.intersection(&lost_trials).count() as u64;
            obs.push_health(4 - unhealthy.len() as u64, lost, 4);
        }
        assert_eq!(obs.quality(), &health, "samples must be bit-identical");
        let attr = obs.attribution();
        assert!(close(attr.components_sum(), attr.total));
        assert!(attr.failed > 0.0 && attr.retry > 0.0);
        assert_eq!(attr.shed, 0.0);
    }

    #[test]
    fn empty_observer_attributes_zero() {
        let obs = TrajectoryObserver::new(1.0);
        let attr = obs.attribution();
        assert_eq!(attr.total, 0.0);
        assert_eq!(attr.components_sum(), 0.0);
    }
}
