//! N-version design diversity (the paper's §3.2.2).
//!
//! "The Boeing 777 … signals are controlled by a redundant system
//! consisting of three computers … based on different hardware and software
//! developed by independent vendors. If these three computers share the
//! same design, a design flaw would make all the computers fail at the same
//! time. By having diversity in its designs, Boeing 777 can withstand a
//! computer failure caused by a design flaw of a single computer."
//!
//! Model: each flight presents scenarios; a *design flaw* manifests in a
//! scenario with probability `flaw_rate` per design, and every unit sharing
//! that design fails together (common-mode). Independent *hardware* faults
//! strike units individually. The controller votes: it functions while a
//! majority of units agree (i.e. while at most `⌊(n−1)/2⌋` units are
//! faulty).

use rand::Rng;

/// Whether the redundant units share one design or use independent ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignStrategy {
    /// All units run the same design: redundancy without diversity.
    Identical,
    /// Every unit has an independently developed design: redundancy with
    /// diversity.
    Diverse,
}

/// A majority-voting redundant controller.
#[derive(Debug, Clone, PartialEq)]
pub struct NVersionController {
    /// Number of redundant units (e.g. 3 for the 777).
    pub units: usize,
    /// The design strategy.
    pub strategy: DesignStrategy,
    /// Probability per scenario that a given design's latent flaw
    /// manifests (common-mode failure of every unit with that design).
    pub flaw_rate: f64,
    /// Probability per scenario of an independent hardware fault per unit.
    pub hardware_fault_rate: f64,
}

/// Outcome of a mission batch.
#[derive(Debug, Clone, PartialEq)]
pub struct NVersionOutcome {
    /// Scenarios evaluated.
    pub scenarios: usize,
    /// Scenarios in which the voter lost its majority.
    pub system_failures: usize,
}

impl NVersionOutcome {
    /// Per-scenario system failure probability.
    pub fn failure_probability(&self) -> f64 {
        if self.scenarios == 0 {
            0.0
        } else {
            self.system_failures as f64 / self.scenarios as f64
        }
    }
}

impl NVersionController {
    /// New controller.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` or the rates are outside `[0, 1]`.
    pub fn new(
        units: usize,
        strategy: DesignStrategy,
        flaw_rate: f64,
        hardware_fault_rate: f64,
    ) -> Self {
        assert!(units > 0, "need at least one unit");
        assert!((0.0..=1.0).contains(&flaw_rate), "flaw rate in [0,1]");
        assert!(
            (0.0..=1.0).contains(&hardware_fault_rate),
            "hardware fault rate in [0,1]"
        );
        NVersionController {
            units,
            strategy,
            flaw_rate,
            hardware_fault_rate,
        }
    }

    /// Maximum simultaneous unit failures the voter tolerates.
    fn fault_tolerance(&self) -> usize {
        (self.units - 1) / 2
    }

    /// Simulate one scenario; `true` = system failed.
    fn scenario_fails<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        let mut failed = 0usize;
        match self.strategy {
            DesignStrategy::Identical => {
                // One design: its flaw takes out every unit at once.
                if rng.gen_bool(self.flaw_rate) {
                    failed = self.units;
                } else {
                    for _ in 0..self.units {
                        if rng.gen_bool(self.hardware_fault_rate) {
                            failed += 1;
                        }
                    }
                }
            }
            DesignStrategy::Diverse => {
                for _ in 0..self.units {
                    if rng.gen_bool(self.flaw_rate) || rng.gen_bool(self.hardware_fault_rate) {
                        failed += 1;
                    }
                }
            }
        }
        failed > self.fault_tolerance()
    }

    /// Run a batch of scenarios.
    pub fn run<R: Rng + ?Sized>(&self, scenarios: usize, rng: &mut R) -> NVersionOutcome {
        let failures = (0..scenarios).filter(|_| self.scenario_fails(rng)).count();
        NVersionOutcome {
            scenarios,
            system_failures: failures,
        }
    }

    /// Closed-form failure probability (per scenario).
    pub fn analytic_failure_probability(&self) -> f64 {
        let n = self.units;
        let t = self.fault_tolerance();
        let unit_fail = match self.strategy {
            DesignStrategy::Identical => self.hardware_fault_rate,
            DesignStrategy::Diverse => {
                1.0 - (1.0 - self.flaw_rate) * (1.0 - self.hardware_fault_rate)
            }
        };
        // P(more than t of n independent unit failures).
        let mut p_majority_lost = 0.0;
        for k in (t + 1)..=n {
            p_majority_lost +=
                binom(n, k) * unit_fail.powi(k as i32) * (1.0 - unit_fail).powi((n - k) as i32);
        }
        match self.strategy {
            DesignStrategy::Identical => {
                // Flaw (all fail) OR independent hardware majority loss.
                self.flaw_rate + (1.0 - self.flaw_rate) * p_majority_lost
            }
            DesignStrategy::Diverse => p_majority_lost,
        }
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
    fn fault_tolerance_of_tmr() {
        let c = NVersionController::new(3, DesignStrategy::Diverse, 0.0, 0.0);
        assert_eq!(c.fault_tolerance(), 1);
        let c5 = NVersionController::new(5, DesignStrategy::Diverse, 0.0, 0.0);
        assert_eq!(c5.fault_tolerance(), 2);
        let c1 = NVersionController::new(1, DesignStrategy::Identical, 0.0, 0.0);
        assert_eq!(c1.fault_tolerance(), 0);
    }

    /// The E9 reproduction: design diversity beats identical redundancy
    /// when design flaws dominate.
    #[test]
    fn diversity_beats_identical_redundancy() {
        let mut rng = seeded_rng(161);
        let flaw = 0.01;
        let hw = 0.01;
        let identical = NVersionController::new(3, DesignStrategy::Identical, flaw, hw);
        let diverse = NVersionController::new(3, DesignStrategy::Diverse, flaw, hw);
        let id_out = identical.run(100_000, &mut rng);
        let div_out = diverse.run(100_000, &mut rng);
        // Identical: ≈ flaw_rate (0.01). Diverse: ≈ 3·(0.02)² ≈ 0.0012.
        assert!(
            div_out.failure_probability() < 0.3 * id_out.failure_probability(),
            "diverse {} vs identical {}",
            div_out.failure_probability(),
            id_out.failure_probability()
        );
    }

    #[test]
    fn simulation_matches_analytic() {
        let mut rng = seeded_rng(162);
        for strategy in [DesignStrategy::Identical, DesignStrategy::Diverse] {
            let c = NVersionController::new(3, strategy, 0.05, 0.08);
            let sim = c.run(200_000, &mut rng).failure_probability();
            let exact = c.analytic_failure_probability();
            assert!(
                (sim - exact).abs() < 0.005,
                "{strategy:?}: sim {sim} vs exact {exact}"
            );
        }
    }

    #[test]
    fn analytic_extremes() {
        // No faults at all.
        let c = NVersionController::new(3, DesignStrategy::Diverse, 0.0, 0.0);
        assert_eq!(c.analytic_failure_probability(), 0.0);
        // Certain flaw, identical: always fails.
        let c = NVersionController::new(3, DesignStrategy::Identical, 1.0, 0.0);
        assert!((c.analytic_failure_probability() - 1.0).abs() < 1e-12);
        // Certain flaw, diverse: all units fail independently-but-surely.
        let c = NVersionController::new(3, DesignStrategy::Diverse, 1.0, 0.0);
        assert!((c.analytic_failure_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_units_help_only_against_independent_faults() {
        // Against common-mode flaws, piling on identical units is useless
        // (the paper's point about shared designs).
        let flaw = 0.02;
        let id3 = NVersionController::new(3, DesignStrategy::Identical, flaw, 0.001);
        let id7 = NVersionController::new(7, DesignStrategy::Identical, flaw, 0.001);
        assert!(
            (id7.analytic_failure_probability() - id3.analytic_failure_probability()).abs() < 1e-3,
            "identical redundancy saturates at the flaw rate"
        );
        // Against independent faults, more diverse units help.
        let div3 = NVersionController::new(3, DesignStrategy::Diverse, flaw, 0.001);
        let div5 = NVersionController::new(5, DesignStrategy::Diverse, flaw, 0.001);
        assert!(div5.analytic_failure_probability() < div3.analytic_failure_probability());
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn rejects_zero_units() {
        let _ = NVersionController::new(0, DesignStrategy::Diverse, 0.1, 0.1);
    }
}
