//! Tail-quantile loss provisioning (§3.4.6, the Taleb caveat).
//!
//! The paper warns that "common statistics based on Gaussian
//! distribution … do not work for extreme events": under a power-law
//! loss distribution the sample mean is an unreliable — possibly
//! meaningless — basis for provisioning reserves. [`LossWindow`] keeps
//! a bounded, deterministic window of observed per-tick losses and
//! provisions from a tail quantile of it, which stays meaningful
//! whether the tail is light or heavy.

/// A bounded ring of observed positive losses with a deterministic
/// quantile readout.
///
/// Capacity is fixed at construction; once full, the oldest sample is
/// overwritten. The quantile is a pure function of the sample
/// sequence, so two replays of the same trace produce bit-identical
/// estimates regardless of thread budget.
#[derive(Debug, Clone)]
pub struct LossWindow {
    ring: Vec<f64>,
    head: usize,
}

impl LossWindow {
    /// An empty window retaining the last `capacity` losses.
    ///
    /// # Panics
    /// If `capacity < 4` — a tail quantile over fewer points is
    /// meaningless.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 4, "loss window capacity must be >= 4");
        LossWindow {
            ring: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// Record one loss observation. Non-positive and non-finite samples
    /// are ignored: zero loss carries no tail information.
    pub fn record(&mut self, loss: f64) {
        if loss <= 0.0 || !loss.is_finite() {
            return;
        }
        if self.ring.len() < self.ring.capacity() {
            self.ring.push(loss);
        } else {
            self.ring[self.head] = loss;
            self.head = (self.head + 1) % self.ring.len();
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_on_a_simple_window() {
        let mut w = LossWindow::new(8);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.record(x);
        }
        assert_eq!(w.quantile(1000), 4.0);
        assert_eq!(w.quantile(500), 2.0);
        assert_eq!(w.quantile(950), 4.0);
        assert_eq!(w.quantile(0), 1.0);
    }

    #[test]
    fn ring_overwrites_oldest_deterministically() {
        let mut w = LossWindow::new(4);
        for x in 1..=10 {
            w.record(x as f64);
        }
        // Window holds {7, 8, 9, 10}.
        assert_eq!(w.quantile(0), 7.0);
        assert_eq!(w.quantile(500), 8.0);
        assert_eq!(w.quantile(1000), 10.0);
    }

    #[test]
    fn non_positive_losses_are_not_stored() {
        let mut w = LossWindow::new(8);
        w.record(0.0);
        w.record(-1.0);
        w.record(f64::NAN);
        w.record(f64::INFINITY);
        assert_eq!(w.quantile(950), 0.0);
        w.record(0.5);
        assert_eq!(w.quantile(0), 0.5);
    }

    #[test]
    fn heavy_tail_quantile_dominates_the_mean() {
        // Pareto(alpha = 1.2) via inverse transform on a deterministic
        // low-discrepancy sequence: the p95 sits far above the mean a
        // Gaussian-minded provisioner would reserve.
        let mut heavy = LossWindow::new(256);
        let mut sum = 0.0;
        for i in 0..256u32 {
            let u = (f64::from(i) + 0.5) / 256.0;
            let loss = u.powf(-1.0 / 1.2);
            heavy.record(loss);
            sum += loss;
        }
        let mean = sum / 256.0;
        let q = heavy.quantile(950);
        assert!(q > mean, "p95 {q} vs mean {mean}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn tiny_window_rejected() {
        LossWindow::new(3);
    }
}
