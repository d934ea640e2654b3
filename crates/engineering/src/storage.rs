//! Redundant disk arrays (the paper's §3.1.2).
//!
//! "Mission-critical storage systems use RAID (Redundant Arrays of
//! Inexpensive Disks) so that the system can continue to function even
//! though one or more disks fail."
//!
//! Model: an array of `data + parity` disks tolerates up to `parity`
//! simultaneous failures (erasure-coding abstraction: RAID-5 ↦ parity 1,
//! RAID-6 ↦ parity 2). Disks fail independently per step with probability
//! `fail_rate`; a failed disk is rebuilt after `rebuild_steps` steps. Data
//! is lost the moment more than `parity` disks are simultaneously down.

use rand::Rng;
use resilience_core::RunContext;

/// A redundant storage array.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageArray {
    /// Number of data disks.
    pub data_disks: usize,
    /// Number of parity (redundant) disks.
    pub parity_disks: usize,
    /// Per-disk, per-step failure probability.
    pub fail_rate: f64,
    /// Steps to rebuild a failed disk onto a spare.
    pub rebuild_steps: usize,
}

/// Result of a storage simulation batch.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageOutcome {
    /// Trials run.
    pub trials: usize,
    /// Trials that lost data within the horizon.
    pub data_losses: usize,
    /// Mean steps to data loss among lossy trials (`None` if no losses).
    pub mean_steps_to_loss: Option<f64>,
}

impl StorageOutcome {
    /// Probability of surviving the horizon without data loss.
    pub fn survival_probability(&self) -> f64 {
        if self.trials == 0 {
            1.0
        } else {
            1.0 - self.data_losses as f64 / self.trials as f64
        }
    }
}

impl StorageArray {
    /// New array.
    ///
    /// # Panics
    ///
    /// Panics if there are no data disks or `fail_rate ∉ [0, 1]`.
    pub fn new(
        data_disks: usize,
        parity_disks: usize,
        fail_rate: f64,
        rebuild_steps: usize,
    ) -> Self {
        assert!(data_disks > 0, "array needs at least one data disk");
        assert!(
            (0.0..=1.0).contains(&fail_rate),
            "failure rate must be in [0,1]"
        );
        StorageArray {
            data_disks,
            parity_disks,
            fail_rate,
            rebuild_steps,
        }
    }

    /// Total disks.
    fn total_disks(&self) -> usize {
        self.data_disks + self.parity_disks
    }

    /// Simulate one array lifetime; returns the step at which data was
    /// lost, or `None` if it survived `horizon` steps.
    pub fn simulate_to_loss<R: Rng + ?Sized>(&self, horizon: usize, rng: &mut R) -> Option<usize> {
        let n = self.total_disks();
        // remaining rebuild time per disk; 0 = healthy.
        let mut down: Vec<usize> = vec![0; n];
        for t in 1..=horizon {
            // Rebuild progress.
            for d in down.iter_mut() {
                if *d > 0 {
                    *d -= 1;
                }
            }
            // New failures.
            for d in down.iter_mut() {
                if *d == 0 && rng.gen_bool(self.fail_rate) {
                    *d = self.rebuild_steps.max(1);
                }
            }
            let failed = down.iter().filter(|&&d| d > 0).count();
            if failed > self.parity_disks {
                return Some(t);
            }
        }
        None
    }

    /// Monte-Carlo batch over `trials` lifetimes of `horizon` steps.
    pub fn run_trials<R: Rng + ?Sized>(
        &self,
        horizon: usize,
        trials: usize,
        rng: &mut R,
    ) -> StorageOutcome {
        let mut losses = 0;
        let mut loss_steps = 0usize;
        for _ in 0..trials {
            if let Some(t) = self.simulate_to_loss(horizon, rng) {
                losses += 1;
                loss_steps += t;
            }
        }
        StorageOutcome {
            trials,
            data_losses: losses,
            mean_steps_to_loss: (losses > 0).then(|| loss_steps as f64 / losses as f64),
        }
    }

    /// Monte-Carlo batch distributed over the context's thread budget.
    ///
    /// Trial `i` runs on its own rng derived from `(master_seed, i)`, so
    /// the outcome is a pure function of `master_seed` no matter how many
    /// threads execute it (unlike [`StorageArray::run_trials`], which
    /// threads one rng through every trial).
    pub fn run_trials_par(
        &self,
        horizon: usize,
        trials: usize,
        master_seed: u64,
        ctx: &RunContext,
    ) -> StorageOutcome {
        let (losses, loss_steps) = ctx.run_trials(
            trials as u64,
            master_seed,
            |_, rng| self.simulate_to_loss(horizon, rng),
            (0usize, 0usize),
            |(losses, steps), outcome| match outcome {
                Some(t) => (losses + 1, steps + t),
                None => (losses, steps),
            },
        );
        StorageOutcome {
            trials,
            data_losses: losses,
            mean_steps_to_loss: (losses > 0).then(|| loss_steps as f64 / losses as f64),
        }
    }

    /// Exact probability that more than `parity` of the disks are down in
    /// a single *independent snapshot* where each disk is down with
    /// probability `p_down` — a closed-form cross-check for the
    /// no-rebuild limiting case.
    pub fn snapshot_loss_probability(&self, p_down: f64) -> f64 {
        let n = self.total_disks();
        let k = self.parity_disks;
        // 1 − Σ_{i=0..k} C(n,i) p^i (1−p)^(n−i)
        let mut survive = 0.0;
        for i in 0..=k.min(n) {
            survive += binom(n, i) * p_down.powi(i as i32) * (1.0 - p_down).powi((n - i) as i32);
        }
        1.0 - survive
    }
}

fn binom(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut r = 1.0;
    for i in 0..k {
        r = r * (n - i) as f64 / (i + 1) as f64;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::seeded_rng;

    #[test]
    fn no_failures_means_survival() {
        let mut rng = seeded_rng(151);
        let a = StorageArray::new(8, 1, 0.0, 10);
        assert_eq!(a.simulate_to_loss(1_000, &mut rng), None);
        let out = a.run_trials(1_000, 50, &mut rng);
        assert_eq!(out.survival_probability(), 1.0);
        assert_eq!(out.mean_steps_to_loss, None);
    }

    #[test]
    fn zero_parity_loses_on_first_failure() {
        let mut rng = seeded_rng(152);
        let a = StorageArray::new(4, 0, 1.0, 10);
        assert_eq!(a.simulate_to_loss(10, &mut rng), Some(1));
    }

    /// The E8(a) reproduction: more parity ⇒ strictly better survival.
    #[test]
    fn parity_ladder_improves_survival() {
        let mut rng = seeded_rng(153);
        let mut survival = Vec::new();
        for parity in 0..=3 {
            let a = StorageArray::new(8, parity, 0.002, 2);
            let out = a.run_trials(300, 400, &mut rng);
            survival.push(out.survival_probability());
        }
        for w in survival.windows(2) {
            assert!(w[1] >= w[0], "ladder {survival:?}");
        }
        assert!(survival[0] < 0.05, "no redundancy dies: {}", survival[0]);
        assert!(survival[3] > 0.6, "triple parity thrives: {}", survival[3]);
    }

    #[test]
    fn faster_rebuild_improves_survival() {
        let mut rng = seeded_rng(154);
        let slow = StorageArray::new(8, 1, 0.003, 10).run_trials(100, 400, &mut rng);
        let fast = StorageArray::new(8, 1, 0.003, 1).run_trials(100, 400, &mut rng);
        assert!(
            fast.survival_probability() > slow.survival_probability() + 0.1,
            "fast {} vs slow {}",
            fast.survival_probability(),
            slow.survival_probability()
        );
    }

    #[test]
    fn snapshot_formula_matches_binomial() {
        let a = StorageArray::new(3, 1, 0.0, 1);
        // n=4, k=1, p=0.5: survive = C(4,0)·0.0625 + C(4,1)·0.0625 =
        // 0.0625 + 0.25 = 0.3125 ⇒ loss 0.6875.
        let loss = a.snapshot_loss_probability(0.5);
        assert!((loss - 0.6875).abs() < 1e-12);
        // p=0 ⇒ no loss; p=1 ⇒ certain loss (n > k).
        assert_eq!(a.snapshot_loss_probability(0.0), 0.0);
        assert!((a.snapshot_loss_probability(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_loss_decreases_with_parity() {
        let p = 0.1;
        let mut prev = 1.0;
        for parity in 0..4 {
            let a = StorageArray::new(6, parity, 0.0, 1);
            let loss = a.snapshot_loss_probability(p);
            assert!(loss < prev);
            prev = loss;
        }
    }

    #[test]
    #[should_panic(expected = "data disk")]
    fn rejects_empty_array() {
        let _ = StorageArray::new(0, 1, 0.1, 1);
    }

    #[test]
    fn parallel_batch_is_thread_count_invariant() {
        let a = StorageArray::new(8, 1, 0.004, 2);
        let serial = a.run_trials_par(200, 300, 42, &RunContext::new(7));
        let parallel = a.run_trials_par(200, 300, 42, &RunContext::with_threads(7, 4));
        assert_eq!(serial, parallel);
        assert!(
            serial.survival_probability() < 1.0,
            "failures expected at this rate"
        );
    }
}
