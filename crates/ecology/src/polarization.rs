//! Diminishing returns vs. linear accumulation and social polarization
//! (the paper's §3.2.4, closing paragraph).
//!
//! "Many systems, especially those that appear in nature, seem to have the
//! law of diminishing return. … On the other hand, artificial systems are
//! often linear. A prominent example is our financial system. … your money
//! adds up linearly. This leads to polarization between the rich and the
//! poor, and may make the society more fragile."
//!
//! Model: `agents` accumulate wealth over rounds. Each round an agent's
//! income is `wealth^gamma × noise`: `gamma = 1` is the linear
//! (proportional, rich-get-richer) financial regime; `gamma < 1` is the
//! diminishing-return regime. [`gini`] and [`top_share`] quantify the
//! resulting polarization; fragility is the share of social wealth wiped
//! out when a shock hits the richest stratum.

use rand::Rng;

/// A wealth-accumulation society.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WealthModel {
    /// Number of agents.
    pub agents: usize,
    /// Accumulation rounds.
    pub rounds: usize,
    /// Income exponent: 1 = linear/proportional, < 1 = diminishing
    /// returns.
    pub gamma: f64,
    /// Income noise amplitude (uniform multiplicative, ±).
    pub noise: f64,
}

impl WealthModel {
    /// New model.
    ///
    /// # Panics
    ///
    /// Panics if there are no agents, `gamma ∉ (0, 1]`, or
    /// `noise ∉ [0, 1)`.
    pub fn new(agents: usize, rounds: usize, gamma: f64, noise: f64) -> Self {
        assert!(agents > 0, "need at least one agent");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        assert!((0.0..1.0).contains(&noise), "noise must be in [0, 1)");
        WealthModel {
            agents,
            rounds,
            gamma,
            noise,
        }
    }

    /// Simulate the wealth distribution (every agent starts at 1).
    pub fn simulate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut wealth = vec![1.0f64; self.agents];
        for _ in 0..self.rounds {
            for w in wealth.iter_mut() {
                let factor = 1.0 + rng.gen_range(-self.noise..=self.noise);
                *w += 0.1 * w.powf(self.gamma) * factor.max(0.0);
            }
        }
        wealth
    }
}

/// The Gini coefficient of a wealth distribution, in `[0, 1)`:
/// 0 = perfect equality, → 1 = total concentration.
///
/// # Panics
///
/// Panics on an empty distribution or negative wealth.
pub fn gini(wealth: &[f64]) -> f64 {
    assert!(!wealth.is_empty(), "gini of empty distribution");
    assert!(
        wealth.iter().all(|&w| w >= 0.0),
        "wealth must be non-negative"
    );
    let mut sorted: Vec<f64> = wealth.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &w)| (i as f64 + 1.0) * w)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

/// Share of total wealth held by the richest `frac` of agents.
///
/// # Panics
///
/// Panics on an empty distribution or `frac ∉ (0, 1]`.
pub fn top_share(wealth: &[f64], frac: f64) -> f64 {
    assert!(!wealth.is_empty(), "top share of empty distribution");
    assert!(frac > 0.0 && frac <= 1.0, "fraction must be in (0, 1]");
    let mut sorted: Vec<f64> = wealth.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let take = ((sorted.len() as f64) * frac).ceil() as usize;
    let top: f64 = sorted[..take.min(sorted.len())].iter().sum();
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        0.0
    } else {
        top / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::seeded_rng;

    #[test]
    fn gini_extremes() {
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-12);
        // One agent holds everything: Gini → (n−1)/n.
        let concentrated = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!((concentrated - 0.75).abs() < 1e-12);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn top_share_basics() {
        let w = [1.0, 1.0, 1.0, 7.0];
        assert!((top_share(&w, 0.25) - 0.7).abs() < 1e-12);
        assert!((top_share(&w, 1.0) - 1.0).abs() < 1e-12);
    }

    /// The §3.2.4 claim: linear accumulation polarizes; diminishing
    /// returns equalize.
    #[test]
    fn linear_accumulation_polarizes() {
        let mut rng = seeded_rng(901);
        let linear = WealthModel::new(500, 200, 1.0, 0.9).simulate(&mut rng);
        let diminishing = WealthModel::new(500, 200, 0.5, 0.9).simulate(&mut rng);
        let g_lin = gini(&linear);
        let g_dim = gini(&diminishing);
        assert!(
            g_lin > 2.0 * g_dim,
            "linear Gini {g_lin} vs diminishing {g_dim}"
        );
        // Fragility: in the linear society, losing the top 10% destroys a
        // far larger share of total wealth.
        let frag_lin = top_share(&linear, 0.1);
        let frag_dim = top_share(&diminishing, 0.1);
        assert!(
            frag_lin > frag_dim + 0.1,
            "top-decile exposure {frag_lin} vs {frag_dim}"
        );
    }

    #[test]
    fn no_noise_means_no_inequality() {
        let mut rng = seeded_rng(902);
        let equal = WealthModel::new(100, 100, 1.0, 0.0).simulate(&mut rng);
        assert!(gini(&equal) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_bad_gamma() {
        let _ = WealthModel::new(10, 10, 0.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn gini_rejects_empty() {
        let _ = gini(&[]);
    }
}
