//! Heavy-tail-aware loss provisioning (§3.4.6, the Taleb caveat).
//!
//! The paper warns that "common statistics based on Gaussian
//! distribution … do not work for extreme events": under a power-law
//! loss distribution the sample mean is an unreliable — possibly
//! meaningless — basis for provisioning reserves. [`LossWindow`] keeps
//! a bounded, deterministic window of observed per-tick losses,
//! estimates the tail exponent with the Hill estimator from
//! `resilience-stats`, and provisions either from the sample mean
//! (light tails) or from a tail quantile (heavy tails). The Emergency
//! policy pins [`ProvisioningPolicy::TailQuantile`]; the Alert policy
//! uses [`ProvisioningPolicy::Auto`] and lets the measured tail decide.

use serde::{Deserialize, Serialize};

use resilience_stats::hill_estimator;

/// How observed losses become a provisioning estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProvisioningPolicy {
    /// Provision from the sample mean — correct when losses are
    /// light-tailed, dangerously optimistic when they are not.
    SampleMean,
    /// Provision from a tail quantile of the observed losses.
    TailQuantile,
    /// Measure the tail index and pick: [`Self::TailQuantile`] when the
    /// Hill estimate says the tail is heavy, [`Self::SampleMean`]
    /// otherwise (or when there is too little data to estimate).
    Auto,
}

/// A bounded ring of observed positive losses with deterministic
/// mean / quantile / tail-index readouts.
///
/// Capacity is fixed at construction; once full, the oldest sample is
/// overwritten. All statistics are pure functions of the sample
/// sequence, so two replays of the same trace produce bit-identical
/// estimates regardless of thread budget.
#[derive(Debug, Clone)]
pub struct LossWindow {
    ring: Vec<f64>,
    head: usize,
    len: usize,
    observed: u64,
}

impl LossWindow {
    /// An empty window retaining the last `capacity` losses.
    ///
    /// # Panics
    /// If `capacity < 4` — the Hill estimator needs at least k+1 = 3
    /// positive observations and a quantile over fewer points is
    /// meaningless.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 4, "loss window capacity must be >= 4");
        LossWindow {
            ring: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
            observed: 0,
        }
    }

    /// Record one loss observation. Non-positive samples are counted
    /// but not stored: zero loss carries no tail information and would
    /// poison the Hill estimate (which needs positive support).
    pub fn record(&mut self, loss: f64) {
        self.observed += 1;
        if loss <= 0.0 || !loss.is_finite() {
            return;
        }
        if self.ring.len() < self.ring.capacity() {
            self.ring.push(loss);
            self.len += 1;
        } else {
            self.ring[self.head] = loss;
            self.head = (self.head + 1) % self.ring.len();
        }
    }

    /// Number of retained (positive) losses.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no positive loss has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total observations fed in, including non-positive ones.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Sample mean of retained losses; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        self.ring.iter().sum::<f64>() / self.ring.len() as f64
    }

    /// The `q_milli`/1000 quantile of retained losses (950 = p95),
    /// nearest-rank on the sorted window; 0 when empty.
    pub fn quantile(&self, q_milli: u64) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        let mut sorted = self.ring.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q = (q_milli.min(1000)) as f64 / 1000.0;
        let rank = ((sorted.len() as f64) * q).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Hill tail-exponent estimate over the retained losses, using the
    /// top ~10% of the window (k clamped to [2, 64]). `None` until
    /// enough positive losses have accumulated.
    fn hill_alpha(&self) -> Option<f64> {
        let k = (self.ring.len() / 10).clamp(2, 64);
        hill_estimator(&self.ring, k)
    }

    /// Resolve [`ProvisioningPolicy::Auto`] against the measured tail:
    /// heavy (α̂ < `heavy_alpha`) selects the tail quantile.
    fn auto_policy(&self, heavy_alpha: f64) -> ProvisioningPolicy {
        match self.hill_alpha() {
            Some(alpha) if alpha < heavy_alpha => ProvisioningPolicy::TailQuantile,
            _ => ProvisioningPolicy::SampleMean,
        }
    }

    /// The provisioning estimate a policy yields on this window.
    /// `Auto` takes the tail quantile when the Hill estimate of the tail
    /// exponent is below `heavy_alpha`, the sample mean otherwise.
    pub fn provision(&self, policy: ProvisioningPolicy, q_milli: u64, heavy_alpha: f64) -> f64 {
        match policy {
            ProvisioningPolicy::SampleMean => self.mean(),
            ProvisioningPolicy::TailQuantile => self.quantile(q_milli),
            ProvisioningPolicy::Auto => {
                self.provision(self.auto_policy(heavy_alpha), q_milli, heavy_alpha)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_quantile_on_a_simple_window() {
        let mut w = LossWindow::new(8);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.record(x);
        }
        assert!((w.mean() - 2.5).abs() < 1e-12);
        assert_eq!(w.quantile(1000), 4.0);
        assert_eq!(w.quantile(500), 2.0);
        assert!(w.quantile(950) >= w.mean());
    }

    #[test]
    fn ring_overwrites_oldest_deterministically() {
        let mut w = LossWindow::new(4);
        for x in 1..=10 {
            w.record(x as f64);
        }
        assert_eq!(w.len(), 4);
        assert_eq!(w.observed(), 10);
        // Window holds {7, 8, 9, 10}.
        assert!((w.mean() - 8.5).abs() < 1e-12);
        assert_eq!(w.quantile(1000), 10.0);
    }

    #[test]
    fn non_positive_losses_are_counted_but_not_stored() {
        let mut w = LossWindow::new(8);
        w.record(0.0);
        w.record(-1.0);
        w.record(f64::NAN);
        assert!(w.is_empty());
        assert_eq!(w.observed(), 3);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.provision(ProvisioningPolicy::TailQuantile, 950, 2.5), 0.0);
    }

    #[test]
    fn heavy_tail_flips_auto_to_quantile() {
        // Pareto(alpha = 1.2) via inverse transform on a deterministic
        // low-discrepancy sequence: clearly heavy-tailed.
        let mut heavy = LossWindow::new(256);
        let mut light = LossWindow::new(256);
        for i in 0..256u32 {
            let u = (i as f64 + 0.5) / 256.0;
            heavy.record(u.powf(-1.0 / 1.2));
            // Thin-tailed: bounded uniform losses.
            light.record(0.5 + u);
        }
        assert_eq!(heavy.auto_policy(2.5), ProvisioningPolicy::TailQuantile);
        assert_eq!(light.auto_policy(2.5), ProvisioningPolicy::SampleMean);
        // Under heavy tails the quantile provision dominates the mean.
        let q = heavy.provision(ProvisioningPolicy::Auto, 950, 2.5);
        assert!(q > heavy.mean(), "p95 {} vs mean {}", q, heavy.mean());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn tiny_window_rejected() {
        LossWindow::new(3);
    }
}
