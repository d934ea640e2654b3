//! The dynamic system: a configuration living in a mutable environment.

use std::sync::Arc;

use rand::Rng;

use resilience_core::{Config, Constraint, QualityTrajectory, Shock, ShockKind};

use crate::repair::{RepairOutcome, RepairStrategy};

/// A dynamic constraint-satisfaction system: the paper's Fig. 4 — a
/// bit-string status that must satisfy the (possibly changing) environment,
/// updating itself to adapt.
///
/// Quality is reported as `100 · (1 − violation/len)` so a fully-violated
/// system scores 0 and a fit system scores 100, allowing Bruneau analysis
/// of repair episodes.
pub struct DcspSystem {
    state: Config,
    env: Arc<dyn Constraint>,
    time: usize,
    quality: QualityTrajectory,
}

impl std::fmt::Debug for DcspSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DcspSystem")
            .field("state", &self.state)
            .field("env", &self.env.describe())
            .field("time", &self.time)
            .finish()
    }
}

/// Record of one shock-repair episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeRecord {
    /// Time step at which the shock struck.
    pub shock_time: usize,
    /// The realized shock.
    pub shock: Shock,
    /// Steps the repair took (flips performed).
    pub repair_steps: usize,
    /// Whether fitness was regained within the allowed steps.
    pub recovered: bool,
}

impl DcspSystem {
    /// A system whose initial state is `initial` under environment `env`.
    pub fn new(initial: Config, env: Arc<dyn Constraint>) -> Self {
        let mut quality = QualityTrajectory::new(1.0);
        let q = Self::quality_of(&initial, env.as_ref());
        quality.push(q);
        DcspSystem {
            state: initial,
            env,
            time: 0,
            quality,
        }
    }

    /// A system that starts fit under an [`resilience_core::AllOnes`]-like
    /// constraint whose arity is known: the initial state is all-ones.
    ///
    /// # Panics
    ///
    /// Panics if the constraint has no arity. Use
    /// [`DcspSystem::try_fit_under`] to handle that case as a typed
    /// error instead.
    pub fn fit_under(env: Arc<dyn Constraint>) -> Self {
        match Self::try_fit_under(env) {
            Ok(system) => system,
            Err(err) => panic!("fit_under requires a constraint with a known arity: {err}"),
        }
    }

    /// A system that starts fit under a constraint with a known arity,
    /// rejecting arity-less constraints with
    /// [`CoreError::UnknownArity`](resilience_core::CoreError::UnknownArity)
    /// instead of panicking.
    pub fn try_fit_under(env: Arc<dyn Constraint>) -> Result<Self, resilience_core::CoreError> {
        let n = env
            .arity()
            .ok_or(resilience_core::CoreError::UnknownArity)?;
        Ok(DcspSystem::new(Config::ones(n), env))
    }

    /// Current configuration.
    pub fn state(&self) -> &Config {
        &self.state
    }

    /// Current environment.
    pub fn environment(&self) -> &Arc<dyn Constraint> {
        &self.env
    }

    /// Simulation clock (advanced by shocks and repair flips).
    pub fn time(&self) -> usize {
        self.time
    }

    /// Whether the current state satisfies the environment.
    pub fn is_fit(&self) -> bool {
        self.env.is_fit(&self.state)
    }

    /// Current violation degree.
    pub fn violation(&self) -> f64 {
        self.env.violation(&self.state)
    }

    /// Quality in `[0, 100]`: full when fit, degraded proportionally to the
    /// violation degree otherwise.
    pub fn quality(&self) -> f64 {
        Self::quality_of(&self.state, self.env.as_ref())
    }

    fn quality_of(state: &Config, env: &dyn Constraint) -> f64 {
        let v = env.violation(state);
        if v <= 0.0 {
            100.0
        } else {
            let n = state.len().max(1) as f64;
            (100.0 * (1.0 - v / n)).clamp(0.0, 100.0)
        }
    }

    /// The recorded quality trajectory (one sample per time step).
    pub fn quality_trajectory(&self) -> &QualityTrajectory {
        &self.quality
    }

    /// Apply one shock of kind `kind` to the state, advancing time by one.
    pub fn strike<R: Rng + ?Sized>(&mut self, kind: &ShockKind, rng: &mut R) -> Shock {
        let shock = kind.strike(&mut self.state, rng);
        self.tick();
        shock
    }

    /// Replace the environment (the paper's "environment changes from C to
    /// C'"), advancing time by one.
    pub fn shift_environment(&mut self, new_env: Arc<dyn Constraint>) {
        self.env = new_env;
        self.tick();
    }

    /// Run `strategy` until fit or `max_steps` flips are spent. Each flip
    /// advances time by one (the paper's one-bit-per-step repair).
    pub fn repair<S: RepairStrategy + ?Sized>(
        &mut self,
        strategy: &S,
        max_steps: usize,
    ) -> RepairOutcome {
        let mut steps = 0;
        let mut flips = Vec::new();
        while steps < max_steps && !self.is_fit() {
            match strategy.propose_flip(&self.state, self.env.as_ref()) {
                Some(bit) => {
                    self.state.flip(bit);
                    flips.push(bit);
                    steps += 1;
                    self.tick();
                }
                None => break, // strategy is stuck
            }
        }
        RepairOutcome {
            steps,
            flips,
            recovered: self.is_fit(),
        }
    }

    /// One full episode: shock then repair, with bookkeeping.
    pub fn episode<R: Rng + ?Sized, S: RepairStrategy + ?Sized>(
        &mut self,
        kind: &ShockKind,
        strategy: &S,
        max_steps: usize,
        rng: &mut R,
    ) -> EpisodeRecord {
        let shock_time = self.time;
        let shock = self.strike(kind, rng);
        let outcome = self.repair(strategy, max_steps);
        EpisodeRecord {
            shock_time,
            shock,
            repair_steps: outcome.steps,
            recovered: outcome.recovered,
        }
    }

    /// Advance the clock by one step with no state change (idle step).
    pub fn idle(&mut self) {
        self.tick();
    }

    /// Verify k-recoverability of the *current* state against all damage
    /// patterns of at most `max_damage` flips, repaired by `strategy`
    /// within `k` steps: [`crate::recoverability::check_recoverability`]
    /// with the orbit walk allowed, so a constraint declaring automorphisms
    /// the strategy respects costs one repair walk per damage orbit.
    /// Verification is a pure query — the clock and state are untouched.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`](resilience_core::CoreError::InvalidParameter)
    /// when the system is not currently fit (recoverability is defined
    /// from a fit configuration) or the damage-pattern count does not fit
    /// `u64`.
    pub fn verify_recoverability<S: RepairStrategy + ?Sized>(
        &self,
        strategy: &S,
        max_damage: usize,
        k: usize,
        ctx: &resilience_core::RunContext,
    ) -> Result<crate::recoverability::RecoverabilityReport, resilience_core::CoreError> {
        let options = crate::recoverability::RecoverabilityOptions {
            symmetry: true,
            stats: false,
        };
        crate::recoverability::check_recoverability(
            &self.state,
            self.env.as_ref(),
            strategy,
            max_damage,
            k,
            ctx,
            options,
        )
        .map(|(report, _)| report)
    }

    fn tick(&mut self) {
        self.time += 1;
        self.quality.push(self.quality());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::GreedyRepair;
    use resilience_core::{resilience_loss, seeded_rng, AllOnes, AtLeastOnes};

    #[test]
    fn starts_fit() {
        let sys = DcspSystem::fit_under(Arc::new(AllOnes::new(8)));
        assert!(sys.is_fit());
        assert_eq!(sys.quality(), 100.0);
        assert_eq!(sys.time(), 0);
        assert_eq!(sys.quality_trajectory().len(), 1);
    }

    #[test]
    fn try_fit_under_rejects_arityless_constraints() {
        let anon = resilience_core::PredicateConstraint::new("anything", |_| true);
        let err = DcspSystem::try_fit_under(Arc::new(anon)).unwrap_err();
        assert_eq!(err, resilience_core::CoreError::UnknownArity);
        assert!(DcspSystem::try_fit_under(Arc::new(AllOnes::new(8)))
            .unwrap()
            .is_fit());
    }

    #[test]
    fn system_level_verification_uses_the_orbit_walk() {
        let ctx = resilience_core::RunContext::with_threads(0, 2);
        let sys = DcspSystem::fit_under(Arc::new(AllOnes::new(10)));
        let report = sys
            .verify_recoverability(&GreedyRepair::new(), 3, 3, &ctx)
            .unwrap();
        assert!(report.is_k_recoverable());
        assert_eq!(report.cases, 10 + 45 + 120);
        // Same verdict as the one-thread rank walk.
        let (direct, _) = crate::recoverability::check_recoverability(
            sys.state(),
            sys.environment().as_ref(),
            &GreedyRepair::new(),
            3,
            3,
            &resilience_core::RunContext::new(0),
            crate::recoverability::RecoverabilityOptions::default(),
        )
        .unwrap();
        assert_eq!(report, direct);
    }

    #[test]
    fn verification_errors_instead_of_panicking() {
        let ctx = resilience_core::RunContext::new(0);
        let greedy = GreedyRepair::new();
        // Σ_{s≤26} C(70, s) does not fit the u64 rank space.
        let wide = DcspSystem::fit_under(Arc::new(AllOnes::new(70)));
        let err = wide
            .verify_recoverability(&greedy, 26, 26, &ctx)
            .unwrap_err();
        assert!(matches!(
            err,
            resilience_core::CoreError::InvalidParameter {
                name: "max_damage",
                ..
            }
        ));
        // An unfit system has no recoverability to check.
        let mut rng = seeded_rng(3);
        let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(8)));
        sys.strike(&ShockKind::BitDamage { flips: 2 }, &mut rng);
        let err = sys.verify_recoverability(&greedy, 2, 2, &ctx).unwrap_err();
        assert!(matches!(
            err,
            resilience_core::CoreError::InvalidParameter { name: "start", .. }
        ));
    }

    #[test]
    fn shock_degrades_quality_proportionally() {
        let mut rng = seeded_rng(1);
        let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(10)));
        sys.strike(&ShockKind::BitDamage { flips: 2 }, &mut rng);
        assert!(!sys.is_fit());
        assert!((sys.quality() - 80.0).abs() < 1e-9);
        assert_eq!(sys.time(), 1);
    }

    #[test]
    fn repair_restores_fitness_and_records_trajectory() {
        let mut rng = seeded_rng(2);
        let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(12)));
        sys.strike(&ShockKind::BitDamage { flips: 4 }, &mut rng);
        let out = sys.repair(&GreedyRepair::new(), 20);
        assert!(out.recovered);
        assert_eq!(out.steps, 4);
        assert_eq!(out.flips.len(), 4);
        assert!(sys.is_fit());
        // Quality trajectory shows a triangle we can integrate.
        let loss = resilience_loss(sys.quality_trajectory());
        assert!(loss > 0.0);
    }

    #[test]
    fn repair_respects_step_budget() {
        let mut rng = seeded_rng(3);
        let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(12)));
        sys.strike(&ShockKind::BitDamage { flips: 6 }, &mut rng);
        let out = sys.repair(&GreedyRepair::new(), 3);
        assert!(!out.recovered);
        assert_eq!(out.steps, 3);
        assert!(!sys.is_fit());
    }

    #[test]
    fn environment_shift_can_unfit_a_system() {
        let mut sys = DcspSystem::new("1100".parse().unwrap(), Arc::new(AtLeastOnes::new(4, 2)));
        assert!(sys.is_fit());
        sys.shift_environment(Arc::new(AtLeastOnes::new(4, 3)));
        assert!(!sys.is_fit());
        // Adaptation to the new environment.
        let out = sys.repair(&GreedyRepair::new(), 4);
        assert!(out.recovered);
        assert_eq!(out.steps, 1);
    }

    #[test]
    fn episode_bookkeeping() {
        let mut rng = seeded_rng(4);
        let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(8)));
        sys.idle();
        sys.idle();
        let record = sys.episode(
            &ShockKind::BitDamage { flips: 2 },
            &GreedyRepair::new(),
            8,
            &mut rng,
        );
        assert_eq!(record.shock_time, 2);
        assert_eq!(record.shock.magnitude(), 2);
        assert!(record.recovered);
        assert_eq!(record.repair_steps, 2);
    }

    #[test]
    fn quality_floor_is_zero() {
        let mut rng = seeded_rng(5);
        let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(4)));
        sys.strike(&ShockKind::BitDamage { flips: 4 }, &mut rng);
        assert_eq!(sys.quality(), 0.0);
    }

    #[test]
    fn debug_output_mentions_env() {
        let sys = DcspSystem::fit_under(Arc::new(AllOnes::new(4)));
        let s = format!("{sys:?}");
        assert!(s.contains("components good"));
    }
}
