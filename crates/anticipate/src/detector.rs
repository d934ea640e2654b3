//! Online early-warning detection: critical slowing down over a live
//! signal stream.
//!
//! Near a fold bifurcation the return rate to equilibrium vanishes, so
//! a system's output shows **rising variance** and **rising lag-1
//! autocorrelation** before it tips (Scheffer 2009; the paper's
//! §3.4.1). `resilience-stats::ews` measures those indicators in
//! *batch* over a recorded series; this module is the *online*
//! analogue, built to sit inside a serving tick loop:
//!
//! * each sample is detrended against an exponential moving average
//!   (the cheap online stand-in for the batch pipeline's rolling-mean
//!   detrend), and the residual enters a fixed-size ring buffer;
//! * window variance is maintained with the sliding-window Welford
//!   update (replace-one-element form), window lag-1 autocorrelation
//!   with an incremental adjacent-pair cross-sum — O(1) per sample, no
//!   rescan of the window (the tests pin both against a from-scratch
//!   `resilience_core::TimeSeries` recomputation);
//! * the two indicators blend into a composite warning score in
//!   `[0, 1]`, and a hysteretic latch with confirmation runs on both
//!   flanks turns the score into a warning flag that a single spike
//!   cannot flap.
//!
//! The detector is a pure fold over its input sequence — no clocks, no
//! randomness — so any consumer driving it from a logical tick loop
//! gets bit-identical warning scores on every thread budget.

use serde::{Deserialize, Serialize};

/// EMA smoothing factor for the detrend baseline, in `(0, 1]`.
pub const DETREND_ALPHA: f64 = 0.15;
/// Residual standard deviation that saturates the variance term of the
/// score (the signal the serving layer feeds is a `[0, 1]` deficit
/// fraction, so 0.25 ≈ "a quarter of capacity is flapping").
pub const VARIANCE_SCALE: f64 = 0.25;
/// Weight of the variance term in the composite score.
pub const VARIANCE_WEIGHT: f64 = 0.5;
/// Weight of the lag-1 autocorrelation term in the composite score.
pub const AUTOCORR_WEIGHT: f64 = 0.5;
/// Latch the warning off after the score holds at or below this for
/// [`EarlyWarningConfig::confirm`] consecutive samples.
pub const WARN_OFF: f64 = 0.15;

/// Tuning of the online early-warning detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EarlyWarningConfig {
    /// Rolling-window length (samples). The detector reports a zero
    /// score until the window has filled once.
    pub window: usize,
    /// Latch the warning on after the score holds at or above this for
    /// [`confirm`](Self::confirm) consecutive samples.
    pub warn_on: f64,
    /// Consecutive samples on a flank required to move the latch — the
    /// anti-flap guard: one spike can never toggle the warning.
    pub confirm: u32,
}

impl Default for EarlyWarningConfig {
    fn default() -> Self {
        EarlyWarningConfig {
            window: 32,
            warn_on: 0.35,
            confirm: 3,
        }
    }
}

/// One tick's detector readout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarningSnapshot {
    /// Composite warning score in `[0, 1]` (0 until the window fills).
    pub score: f64,
    /// Residual variance over the current window.
    pub variance: f64,
    /// Residual lag-1 autocorrelation over the current window, in
    /// `[-1, 1]` (0 until defined).
    pub autocorr: f64,
    /// Whether the hysteretic warning latch is currently on.
    pub active: bool,
}

/// The online critical-slowing-down detector.
#[derive(Debug, Clone)]
pub struct EarlyWarning {
    config: EarlyWarningConfig,
    /// EMA detrend baseline (tracks the signal's slow component).
    trend: f64,
    /// Samples observed so far (the first initializes the baseline).
    seen: u64,
    /// Ring buffer of detrended residuals; `head` indexes the oldest.
    ring: Vec<f64>,
    head: usize,
    len: usize,
    /// Welford state over the current window.
    mean: f64,
    m2: f64,
    /// Sum of adjacent-pair products `Σ rᵢ·rᵢ₊₁` over the window.
    cross: f64,
    score: f64,
    variance: f64,
    autocorr: f64,
    active: bool,
    above: u32,
    below: u32,
}

impl EarlyWarning {
    /// A detector with an empty window.
    ///
    /// # Panics
    ///
    /// Panics if `window < 4` (variance and lag-1 autocorrelation need
    /// a few points to mean anything).
    pub fn new(config: EarlyWarningConfig) -> Self {
        assert!(config.window >= 4, "window must be at least 4 samples");
        let window = config.window;
        EarlyWarning {
            config,
            trend: 0.0,
            seen: 0,
            ring: vec![0.0; window],
            head: 0,
            len: 0,
            mean: 0.0,
            m2: 0.0,
            cross: 0.0,
            score: 0.0,
            variance: 0.0,
            autocorr: 0.0,
            active: false,
            above: 0,
            below: 0,
        }
    }

    /// The detector's tuning.
    pub fn config(&self) -> &EarlyWarningConfig {
        &self.config
    }

    /// Whether the rolling window has filled once (scores are 0 before
    /// that — the detector refuses to warn on insufficient evidence).
    fn is_warm(&self) -> bool {
        self.len == self.config.window
    }

    /// Current composite warning score in `[0, 1]`.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Whether the hysteretic warning latch is on.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Current readout.
    pub fn snapshot(&self) -> WarningSnapshot {
        WarningSnapshot {
            score: self.score,
            variance: self.variance,
            autocorr: self.autocorr,
            active: self.active,
        }
    }

    /// Feed one sample of the observed signal; returns the updated
    /// readout. O(1): no loop over the window.
    pub fn observe(&mut self, sample: f64) -> WarningSnapshot {
        // Detrend against the EMA baseline; the first sample seeds the
        // baseline and contributes a zero residual.
        let residual = if self.seen == 0 {
            self.trend = sample;
            0.0
        } else {
            let r = sample - self.trend;
            self.trend += DETREND_ALPHA * (sample - self.trend);
            r
        };
        self.seen += 1;
        self.push(residual);
        self.refresh_indicators();
        self.latch();
        self.snapshot()
    }

    /// Insert `residual`, evicting the oldest once the window is full.
    fn push(&mut self, residual: f64) {
        let w = self.config.window;
        if self.len < w {
            // Plain Welford accumulation while filling.
            if self.len >= 1 {
                let newest = self.ring[(self.head + self.len - 1) % w];
                self.cross += newest * residual;
            }
            self.ring[(self.head + self.len) % w] = residual;
            self.len += 1;
            let delta = residual - self.mean;
            self.mean += delta / self.len as f64;
            self.m2 += delta * (residual - self.mean);
        } else {
            // Sliding Welford: replace the oldest element with the new
            // one in a single rank-preserving update.
            let oldest = self.ring[self.head];
            let second = self.ring[(self.head + 1) % w];
            let newest = self.ring[(self.head + w - 1) % w];
            self.cross += newest * residual - oldest * second;
            let old_mean = self.mean;
            self.mean += (residual - oldest) / w as f64;
            self.m2 += (residual - oldest) * (residual - self.mean + oldest - old_mean);
            self.ring[self.head] = residual;
            self.head = (self.head + 1) % w;
        }
    }

    /// Recompute variance / autocorrelation / score from the window
    /// accumulators.
    fn refresh_indicators(&mut self) {
        let n = self.len;
        // Float error can push m2 epsilon-negative; clamp at the read.
        let m2 = self.m2.max(0.0);
        self.variance = if n >= 2 { m2 / (n - 1) as f64 } else { 0.0 };
        self.autocorr = if n >= 3 && m2 > 1e-18 {
            // Σ(rᵢ−μ)(rᵢ₊₁−μ) expanded around the maintained cross-sum:
            // the two (w−1)-element partial sums are the full sum minus
            // one endpoint each.
            let w = self.config.window;
            let sum = self.mean * n as f64;
            let oldest = self.ring[self.head];
            let newest = self.ring[(self.head + n - 1) % w];
            let numerator = self.cross - self.mean * (2.0 * sum - oldest - newest)
                + (n - 1) as f64 * self.mean * self.mean;
            (numerator / m2).clamp(-1.0, 1.0)
        } else {
            0.0
        };
        self.score = if self.is_warm() {
            // The autocorrelation term is *gated by* the spread rather
            // than added to it: a near-constant stream has decaying EMA
            // residuals whose lag-1 autocorrelation sits near +1, and
            // an ungated memory term would hold the score above the
            // release band forever. No variability, no warning.
            let spread = (self.variance.sqrt() / VARIANCE_SCALE).clamp(0.0, 1.0);
            let memory = self.autocorr.clamp(0.0, 1.0);
            let total = VARIANCE_WEIGHT + AUTOCORR_WEIGHT;
            (spread * (VARIANCE_WEIGHT + AUTOCORR_WEIGHT * memory) / total).clamp(0.0, 1.0)
        } else {
            0.0
        };
    }

    /// Advance the hysteretic latch: `confirm` consecutive samples on a
    /// flank are required to move it, and mid-band samples reset both
    /// confirmation runs.
    fn latch(&mut self) {
        if self.score >= self.config.warn_on {
            self.above += 1;
            self.below = 0;
            if self.above >= self.config.confirm {
                self.active = true;
            }
        } else if self.score <= WARN_OFF {
            self.below += 1;
            self.above = 0;
            if self.below >= self.config.confirm {
                self.active = false;
            }
        } else {
            self.above = 0;
            self.below = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::TimeSeries;

    fn config() -> EarlyWarningConfig {
        EarlyWarningConfig {
            window: 16,
            ..EarlyWarningConfig::default()
        }
    }

    /// A deterministic pseudo-random stream (no rand dependency).
    fn stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// Replay the detector's own detrend chain to recover the residual
    /// window, then read its indicators off a `TimeSeries`: sample
    /// variance is the population variance · n/(n−1), and the
    /// autocorrelation is gated and clamped where the detector does.
    fn reference_indicators(samples: &[f64], alpha: f64, window: usize) -> (f64, f64) {
        let mut trend = 0.0;
        let mut residuals = Vec::new();
        for (i, &x) in samples.iter().enumerate() {
            if i == 0 {
                trend = x;
                residuals.push(0.0);
            } else {
                residuals.push(x - trend);
                trend += alpha * (x - trend);
            }
        }
        let tail =
            TimeSeries::from_values(residuals[residuals.len().saturating_sub(window)..].to_vec());
        let n = tail.len() as f64;
        if tail.len() < 2 {
            return (0.0, 0.0);
        }
        let m2 = tail.variance() * n;
        let autocorr = if tail.len() >= 3 && m2 > 1e-18 {
            tail.lag1_autocorrelation().clamp(-1.0, 1.0)
        } else {
            0.0
        };
        (m2 / (n - 1.0), autocorr)
    }

    #[test]
    fn incremental_indicators_match_time_series_reference() {
        let cfg = config();
        for seed in 1..6u64 {
            let samples = stream(seed, 200);
            let mut detector = EarlyWarning::new(cfg.clone());
            for (i, &x) in samples.iter().enumerate() {
                let snap = detector.observe(x);
                let (var, ac) = reference_indicators(&samples[..=i], DETREND_ALPHA, cfg.window);
                assert!(
                    (snap.variance - var).abs() <= 1e-9 * var.max(1.0),
                    "seed {seed} sample {i}: variance {} vs reference {var}",
                    snap.variance
                );
                assert!(
                    (snap.autocorr - ac).abs() <= 1e-7,
                    "seed {seed} sample {i}: autocorr {} vs reference {ac}",
                    snap.autocorr
                );
            }
        }
    }

    #[test]
    fn cold_window_never_scores() {
        let mut d = EarlyWarning::new(config());
        for &x in stream(3, 15).iter() {
            let snap = d.observe(x);
            assert_eq!(snap.score, 0.0, "score must stay 0 until the window fills");
            assert!(!snap.active);
        }
        assert!(!d.is_warm());
        d.observe(0.5);
        assert!(d.is_warm());
    }

    #[test]
    fn single_spike_cannot_latch_the_warning() {
        let mut d = EarlyWarning::new(EarlyWarningConfig {
            window: 8,
            confirm: 3,
            ..EarlyWarningConfig::default()
        });
        for _ in 0..40 {
            d.observe(0.0);
        }
        assert!(!d.active());
        // One spike: big residual for a single tick.
        d.observe(1.0);
        assert!(!d.active(), "one sample must not latch the warning");
    }

    #[test]
    fn sustained_oscillation_latches_then_calm_releases() {
        let mut d = EarlyWarning::new(EarlyWarningConfig {
            window: 8,
            confirm: 2,
            ..EarlyWarningConfig::default()
        });
        // A smooth swing with period ≈ 14 ticks: large within-window
        // variance and lag-1 autocorrelation ≈ cos(0.45) ≈ 0.9 — the
        // canonical pre-tipping signature at this window size.
        for t in 0..60 {
            let phase = (t as f64 * 0.45).sin();
            d.observe(0.5 + 0.45 * phase);
        }
        assert!(
            d.active(),
            "sustained swings must latch (score {})",
            d.score()
        );
        for _ in 0..80 {
            d.observe(0.5);
        }
        assert!(!d.active(), "calm stream must release the latch");
    }

    #[test]
    fn detector_is_a_pure_fold() {
        let samples = stream(9, 300);
        let run = || {
            let mut d = EarlyWarning::new(config());
            samples.iter().map(|&x| d.observe(x)).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "window must be at least 4")]
    fn tiny_window_rejected() {
        let _ = EarlyWarning::new(EarlyWarningConfig {
            window: 3,
            ..EarlyWarningConfig::default()
        });
    }
}
