//! The insurance argument (the paper's §3.4.6).
//!
//! "A power-law distribution may not have a finite average value or a
//! finite standard deviation. This means that we can not rely on insurance
//! because insurance is based on the estimated average loss of multiple
//! incidents." — Taleb via Maruyama & Minami.
//!
//! [`MeanStability`] quantifies how wildly the running sample mean of a
//! loss process swings as more data arrives; [`InsuranceExperiment`]
//! simulates an insurer pricing premiums from historical averages and
//! measures how often it is ruined.

use rand::Rng;
use resilience_core::RunContext;

use crate::distributions::Sampler;

/// Running means `x̄₁, x̄₂, …, x̄ₙ` of a sample — the insurer's premium
/// estimate as history accumulates.
fn running_means(data: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(data.len());
    let mut sum = 0.0;
    for (i, &x) in data.iter().enumerate() {
        sum += x;
        out.push(sum / (i + 1) as f64);
    }
    out
}

/// How stable is the sample mean of a loss distribution?
#[derive(Debug, Clone, PartialEq)]
pub struct MeanStability {
    /// Sample size used.
    pub n: usize,
    /// Final running mean.
    pub final_mean: f64,
    /// Largest relative jump of the running mean in its second half
    /// (`|x̄ₖ − x̄ₖ₋₁| / x̄ₖ₋₁`): a single late observation moving the
    /// estimate is the heavy-tail signature.
    pub max_late_jump: f64,
    /// Ratio of the maximum single observation to the final mean: how much
    /// one X-event dominates history.
    pub max_to_mean: f64,
}

impl MeanStability {
    /// Measure the mean stability of `n` draws from `sampler`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`.
    pub fn measure<R: Rng>(sampler: &dyn Sampler, n: usize, rng: &mut R) -> Self {
        assert!(n >= 4, "need at least 4 samples");
        let data: Vec<f64> = (0..n).map(|_| sampler.sample(rng)).collect();
        let means = running_means(&data);
        let half = n / 2;
        let mut max_late_jump = 0.0f64;
        for i in half.max(1)..n {
            let prev = means[i - 1].abs().max(f64::MIN_POSITIVE);
            max_late_jump = max_late_jump.max((means[i] - means[i - 1]).abs() / prev);
        }
        let max_obs = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let final_mean = *means.last().expect("n >= 4");
        MeanStability {
            n,
            final_mean,
            max_late_jump,
            max_to_mean: max_obs / final_mean.abs().max(f64::MIN_POSITIVE),
        }
    }
}

/// An insurer prices premiums from a training history, then faces a test
/// period. Ruin occurs when cumulative losses exceed cumulative premium
/// income plus initial capital.
#[derive(Debug, Clone, PartialEq)]
pub struct InsuranceExperiment {
    /// Number of historical losses used to set the premium.
    pub history: usize,
    /// Loading factor on the premium (1.2 = 20% safety margin).
    pub loading: f64,
    /// Initial capital in units of the estimated mean loss.
    pub capital_multiple: f64,
    /// Length of the insured period (number of losses).
    pub horizon: usize,
}

/// Outcome of a batch of insurance trials.
#[derive(Debug, Clone, PartialEq)]
pub struct InsuranceOutcome {
    /// Number of trials run.
    pub trials: usize,
    /// Number of trials ending in ruin.
    pub ruins: usize,
}

impl InsuranceOutcome {
    /// Fraction of trials ending in ruin.
    pub fn ruin_probability(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.ruins as f64 / self.trials as f64
        }
    }
}

impl InsuranceExperiment {
    /// A conventional setup: premium = 1.2 × historical mean, capital =
    /// 10 × historical mean.
    pub fn conventional(history: usize, horizon: usize) -> Self {
        InsuranceExperiment {
            history,
            loading: 1.2,
            capital_multiple: 10.0,
            horizon,
        }
    }

    /// Run `trials` independent insurer lifetimes against `losses`.
    pub fn run<R: Rng>(
        &self,
        losses: &dyn Sampler,
        trials: usize,
        rng: &mut R,
    ) -> InsuranceOutcome {
        let mut ruins = 0;
        for _ in 0..trials {
            // Price from history.
            let hist_mean = (0..self.history.max(1))
                .map(|_| losses.sample(rng))
                .sum::<f64>()
                / self.history.max(1) as f64;
            let premium = self.loading * hist_mean;
            let mut capital = self.capital_multiple * hist_mean;
            let mut ruined = false;
            for _ in 0..self.horizon {
                capital += premium;
                capital -= losses.sample(rng);
                if capital < 0.0 {
                    ruined = true;
                    break;
                }
            }
            if ruined {
                ruins += 1;
            }
        }
        InsuranceOutcome { trials, ruins }
    }

    /// Run `trials` insurer lifetimes distributed over the context's
    /// thread budget. Lifetime `i` draws every loss from an rng derived
    /// from `(master_seed, i)`, so the outcome is a pure function of
    /// `master_seed` for any thread count.
    pub fn run_par(
        &self,
        losses: &(dyn Sampler + Sync),
        trials: usize,
        master_seed: u64,
        ctx: &RunContext,
    ) -> InsuranceOutcome {
        let ruins = ctx.run_trials(
            trials as u64,
            master_seed,
            |_, rng| {
                let hist_mean = (0..self.history.max(1))
                    .map(|_| losses.sample(rng))
                    .sum::<f64>()
                    / self.history.max(1) as f64;
                let premium = self.loading * hist_mean;
                let mut capital = self.capital_multiple * hist_mean;
                for _ in 0..self.horizon {
                    capital += premium;
                    capital -= losses.sample(rng);
                    if capital < 0.0 {
                        return true;
                    }
                }
                false
            },
            0usize,
            |ruins, ruined| ruins + usize::from(ruined),
        );
        InsuranceOutcome { trials, ruins }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{Gaussian, Pareto};
    use resilience_core::seeded_rng;

    #[test]
    fn running_means_basic() {
        assert_eq!(running_means(&[2.0, 4.0, 6.0]), vec![2.0, 3.0, 4.0]);
        assert!(running_means(&[]).is_empty());
    }

    #[test]
    fn gaussian_means_stabilize_heavy_means_dont() {
        let mut rng = seeded_rng(21);
        let gauss = Gaussian::new(10.0, 2.0).unwrap();
        let heavy = Pareto::new(1.0, 1.1).unwrap(); // barely finite mean
        let g = MeanStability::measure(&gauss, 20_000, &mut rng);
        let h = MeanStability::measure(&heavy, 20_000, &mut rng);
        // Late jumps: Gaussian's running mean barely moves in the second
        // half; the heavy tail still jumps by whole percents.
        assert!(g.max_late_jump < 0.01, "gauss jump {}", g.max_late_jump);
        assert!(
            h.max_late_jump > 10.0 * g.max_late_jump,
            "heavy jump {}",
            h.max_late_jump
        );
        // One observation dominating the mean is the X-event signature.
        assert!(h.max_to_mean > 5.0 * g.max_to_mean);
    }

    #[test]
    fn gaussian_mean_converges_to_truth() {
        let mut rng = seeded_rng(22);
        let gauss = Gaussian::new(10.0, 2.0).unwrap();
        let m = MeanStability::measure(&gauss, 20_000, &mut rng);
        assert!((m.final_mean - 10.0).abs() < 0.2);
        assert_eq!(m.n, 20_000);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn measure_needs_samples() {
        let mut rng = seeded_rng(23);
        let _ = MeanStability::measure(&Gaussian::standard(), 2, &mut rng);
    }

    #[test]
    fn insurance_survives_gaussian_fails_pareto() {
        let mut rng = seeded_rng(24);
        let exp = InsuranceExperiment::conventional(200, 2_000);
        // Gaussian world: loaded premiums and capital make ruin rare.
        let gauss = Gaussian::new(10.0, 2.0).unwrap();
        let g = exp.run(&gauss, 200, &mut rng);
        // Pareto α = 1.3: finite mean exists but one X-event wipes the
        // insurer out regularly.
        let heavy = Pareto::new(1.0, 1.3).unwrap();
        let h = exp.run(&heavy, 200, &mut rng);
        assert!(
            g.ruin_probability() < 0.05,
            "gaussian ruin {}",
            g.ruin_probability()
        );
        assert!(
            h.ruin_probability() > 0.3,
            "heavy ruin {}",
            h.ruin_probability()
        );
        assert!(h.ruin_probability() > 5.0 * (g.ruin_probability() + 0.01));
    }

    #[test]
    fn heavier_tails_ruin_more() {
        let mut rng = seeded_rng(25);
        let exp = InsuranceExperiment::conventional(200, 1_000);
        let mild = Pareto::new(1.0, 3.0).unwrap();
        let wild = Pareto::new(1.0, 1.1).unwrap();
        let m = exp.run(&mild, 150, &mut rng);
        let w = exp.run(&wild, 150, &mut rng);
        assert!(w.ruin_probability() > m.ruin_probability());
    }

    #[test]
    fn outcome_edge_cases() {
        let o = InsuranceOutcome {
            trials: 0,
            ruins: 0,
        };
        assert_eq!(o.ruin_probability(), 0.0);
    }

    #[test]
    fn parallel_batch_is_thread_count_invariant() {
        use resilience_core::RunContext;
        let exp = InsuranceExperiment::conventional(50, 500);
        let heavy = Pareto::new(1.0, 1.3).unwrap();
        let serial = exp.run_par(&heavy, 200, 31, &RunContext::new(2));
        let parallel = exp.run_par(&heavy, 200, 31, &RunContext::with_threads(2, 4));
        assert_eq!(serial, parallel);
        assert!(serial.ruins > 0, "heavy tail should ruin someone");
    }
}
