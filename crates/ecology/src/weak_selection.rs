//! Weak selection and the near-neutral theory (the paper's §3.2.4 and
//! Fig. 2; Kimura 1968, Ohta 1992, Akashi et al. 2012).
//!
//! A new allele with selection coefficient `s` in a haploid Wright–Fisher
//! population of size `N` fixes with probability
//! `u(s) = (1 − e^(−2s)) / (1 − e^(−2Ns))` (Kimura). When `|Ns| ≲ 1` the
//! allele behaves *nearly neutrally*: even slightly deleterious mutations
//! fix at appreciable rates — which, combined with Fig. 2's concave
//! fitness (selection coefficients shrinking as cumulative advantage
//! grows), explains "why we observe so much of slightly deleterious
//! mutations in the nature".

use rand::Rng;

use crate::fitness::ConcaveFitness;

/// Classification of a mutation's selection regime by `|2Ns|` (Ohta's
/// near-neutral zone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionRegime {
    /// `|2Ns| < 0.5` — drift dominates entirely.
    EffectivelyNeutral,
    /// `0.5 ≤ |2Ns| < 4` — selection and drift comparable (the
    /// near-neutral zone).
    NearlyNeutral,
    /// `|2Ns| ≥ 4` — selection dominates.
    Strong,
}

impl SelectionRegime {
    /// Classify a selection coefficient in a population of size `n`.
    pub fn classify(n: usize, s: f64) -> SelectionRegime {
        let x = (2.0 * n as f64 * s).abs();
        if x < 0.5 {
            SelectionRegime::EffectivelyNeutral
        } else if x < 4.0 {
            SelectionRegime::NearlyNeutral
        } else {
            SelectionRegime::Strong
        }
    }
}

/// Haploid Wright–Fisher dynamics of a biallelic locus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlleleDynamics {
    /// Population size.
    pub n: usize,
    /// Selection coefficient of the focal allele (relative fitness 1+s).
    pub s: f64,
}

impl AlleleDynamics {
    /// New dynamics.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s ≤ −1` (fitness must stay positive).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "population size must be positive");
        assert!(
            s > -1.0 && s.is_finite(),
            "selection coefficient must exceed -1"
        );
        AlleleDynamics { n, s }
    }

    /// Kimura's fixation probability for an allele starting at one copy.
    pub fn fixation_probability(&self) -> f64 {
        let n = self.n as f64;
        if self.s.abs() < 1e-12 {
            return 1.0 / n;
        }
        let num = 1.0 - (-2.0 * self.s).exp();
        let den = 1.0 - (-2.0 * n * self.s).exp();
        num / den
    }

    /// The regime of this locus.
    pub fn regime(&self) -> SelectionRegime {
        SelectionRegime::classify(self.n, self.s)
    }

    /// Simulate one trajectory from `copies` initial copies until fixation
    /// (`true`) or loss (`false`).
    fn simulate_to_fixation<R: Rng + ?Sized>(&self, copies: usize, rng: &mut R) -> bool {
        let mut i = copies.min(self.n);
        loop {
            if i == 0 {
                return false;
            }
            if i == self.n {
                return true;
            }
            let p = i as f64 / self.n as f64;
            // Selection shifts the sampling probability.
            let p_sel = p * (1.0 + self.s) / (1.0 + p * self.s);
            i = binomial(self.n, p_sel, rng);
        }
    }

    /// Monte-Carlo fixation probability from a single copy.
    pub fn simulate_fixation_probability<R: Rng + ?Sized>(
        &self,
        trials: usize,
        rng: &mut R,
    ) -> f64 {
        let fixed = (0..trials)
            .filter(|_| self.simulate_to_fixation(1, rng))
            .count();
        fixed as f64 / trials.max(1) as f64
    }
}

/// One fixed mutation in the accumulation experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedMutation {
    /// Advantage level the lineage had when the mutation arose.
    pub background_advantage: f64,
    /// The mutation's selection coefficient on that background.
    pub s: f64,
    /// Whether the mutation was deleterious (`s < 0`).
    pub deleterious: bool,
}

/// The Akashi et al. experiment behind Fig. 2: a lineage accumulates
/// mutations; fitness is a concave function of cumulative advantage, so
/// the selection coefficient of each ±1-advantage mutation shrinks as the
/// lineage climbs. Track which mutations *fix* (by Kimura probability).
///
/// Returns the list of fixed mutations in order.
pub fn concave_accumulation<R: Rng + ?Sized>(
    landscape: &ConcaveFitness,
    population: usize,
    attempts: usize,
    rng: &mut R,
) -> Vec<FixedMutation> {
    let mut advantage: f64 = 5.0; // start partway up the curve
    let mut fixed = Vec::new();
    for _ in 0..attempts {
        // Half the proposed mutations are deleterious, half beneficial.
        let delta = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let target = (advantage + delta).max(0.0);
        let s = landscape.at(target) / landscape.at(advantage) - 1.0;
        let dynamics = AlleleDynamics::new(population, s.max(-0.99));
        if rng.gen_bool(dynamics.fixation_probability().clamp(0.0, 1.0)) {
            fixed.push(FixedMutation {
                background_advantage: advantage,
                s,
                deleterious: s < 0.0,
            });
            advantage = target;
        }
    }
    fixed
}

/// Sample `Binomial(n, p)` by inversion for moderate `n` (exact, O(n) worst
/// case; fine for the population sizes used here).
fn binomial<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> usize {
    let p = p.clamp(0.0, 1.0);
    let mut count = 0;
    for _ in 0..n {
        if rng.gen_bool(p) {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::seeded_rng;

    #[test]
    fn neutral_fixation_is_one_over_n() {
        let d = AlleleDynamics::new(100, 0.0);
        assert!((d.fixation_probability() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn beneficial_fixes_more_deleterious_less() {
        let neutral = AlleleDynamics::new(100, 0.0).fixation_probability();
        let good = AlleleDynamics::new(100, 0.05).fixation_probability();
        let bad = AlleleDynamics::new(100, -0.05).fixation_probability();
        assert!(good > neutral && neutral > bad);
        // Strongly beneficial: ≈ 2s.
        let strong = AlleleDynamics::new(10_000, 0.05).fixation_probability();
        assert!((strong - (1.0 - (-0.1f64).exp())).abs() < 1e-6);
    }

    #[test]
    fn regime_classification() {
        assert_eq!(
            SelectionRegime::classify(100, 0.001),
            SelectionRegime::EffectivelyNeutral
        );
        assert_eq!(
            SelectionRegime::classify(100, 0.01),
            SelectionRegime::NearlyNeutral
        );
        assert_eq!(SelectionRegime::classify(100, 0.5), SelectionRegime::Strong);
        assert_eq!(
            AlleleDynamics::new(100, -0.01).regime(),
            SelectionRegime::NearlyNeutral
        );
    }

    #[test]
    fn simulation_matches_kimura() {
        let mut rng = seeded_rng(51);
        let d = AlleleDynamics::new(50, 0.02);
        let sim = d.simulate_fixation_probability(4_000, &mut rng);
        let theory = d.fixation_probability();
        assert!((sim - theory).abs() < 0.015, "sim {sim} vs theory {theory}");
    }

    #[test]
    fn neutral_simulation_matches_one_over_n() {
        let mut rng = seeded_rng(52);
        let d = AlleleDynamics::new(40, 0.0);
        let sim = d.simulate_fixation_probability(4_000, &mut rng);
        assert!((sim - 0.025).abs() < 0.012, "sim {sim}");
    }

    #[test]
    fn fixation_from_full_population_is_certain() {
        let mut rng = seeded_rng(53);
        let d = AlleleDynamics::new(30, -0.1);
        assert!(d.simulate_to_fixation(30, &mut rng));
        assert!(!d.simulate_to_fixation(0, &mut rng));
    }

    #[test]
    #[should_panic(expected = "population size")]
    fn zero_population_rejected() {
        let _ = AlleleDynamics::new(0, 0.1);
    }

    #[test]
    fn concave_accumulation_fixes_slightly_deleterious() {
        // The near-neutral prediction: on a concave landscape a material
        // share of FIXED mutations is slightly deleterious, because |s|
        // shrinks with advantage; and every fixed deleterious mutation is
        // only *slightly* deleterious (|2Ns| small or modest).
        let mut rng = seeded_rng(54);
        let landscape = ConcaveFitness::new(0.3);
        let n = 200;
        let fixed = concave_accumulation(&landscape, n, 60_000, &mut rng);
        assert!(
            fixed.len() > 100,
            "need enough fixations, got {}",
            fixed.len()
        );
        let del = fixed.iter().filter(|m| m.deleterious).count();
        let frac_del = del as f64 / fixed.len() as f64;
        assert!(
            frac_del > 0.2,
            "deleterious fixations should be common: {frac_del}"
        );
        for m in fixed.iter().filter(|m| m.deleterious) {
            assert!(
                m.s > -0.05,
                "fixed deleterious mutations are only slightly deleterious: s={}",
                m.s
            );
        }
    }

    #[test]
    fn accumulation_climbs_on_average() {
        let mut rng = seeded_rng(55);
        let landscape = ConcaveFitness::new(0.3);
        let fixed = concave_accumulation(&landscape, 200, 60_000, &mut rng);
        let beneficial = fixed.iter().filter(|m| !m.deleterious).count();
        let deleterious = fixed.len() - beneficial;
        // Selection still biases fixations towards beneficial overall.
        assert!(beneficial > deleterious);
    }
}
