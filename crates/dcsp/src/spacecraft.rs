//! The paper's worked example (§4.2): a hypothetical spacecraft.
//!
//! "The system consists of a fixed set of n components, each of which has a
//! single binary variable nᵢ representing the availability of the
//! component. … Suppose that the constraint C = 1ⁿ at every time t … and
//! that the spacecraft is occasionally hit by space debris causing at most
//! k component failures. … If the spacecraft can fix one component at each
//! time step, we consider that the spacecraft is k-recoverable under the
//! presence of an event of type D assuming that once the spacecraft has
//! component failures at time t, it will not have another component failure
//! until time t + k."

use rand::Rng;

use resilience_core::{resilience_loss, Config, QualityTrajectory, ShockSchedule};

/// The spacecraft: `n` components, all required good, hit by debris that
/// damages at most `max_debris_damage` components, repairing one component
/// per time step.
///
/// # Example
///
/// ```
/// use resilience_dcsp::Spacecraft;
/// use resilience_core::{seeded_rng, ShockSchedule};
///
/// let mut craft = Spacecraft::new(12, 3, 1);
/// assert_eq!(craft.guaranteed_k(), 3); // ≤3 damage, 1 repair/step
/// // Debris every 10 steps: each strike is repaired before the next.
/// let schedule = ShockSchedule::Periodic { period: 10 };
/// let log = craft.simulate_mission(55, &schedule, &mut seeded_rng(1));
/// assert_eq!(log.strikes, 5);
/// assert!(log.longest_outage <= craft.guaranteed_k());
/// assert_eq!(craft.quality(), 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct Spacecraft {
    components: Config,
    /// The constraint's one fit configuration, `1ⁿ`: the repair goal.
    all_good: Config,
    max_debris_damage: usize,
    repairs_per_step: usize,
}

/// Timeline record of a mission simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionLog {
    /// Quality over time (fraction of good components × 100).
    pub quality: QualityTrajectory,
    /// Number of debris strikes.
    pub strikes: usize,
    /// Total component-failures inflicted.
    pub total_damage: usize,
    /// Steps on which the spacecraft was fully operational.
    pub steps_fit: usize,
    /// Total steps simulated.
    pub steps: usize,
    /// Longest run of consecutive degraded steps.
    pub longest_outage: usize,
}

impl MissionLog {
    /// Bruneau resilience loss over the whole mission.
    pub fn resilience_loss(&self) -> f64 {
        resilience_loss(&self.quality)
    }

    /// Fraction of steps at full function.
    pub fn availability(&self) -> f64 {
        if self.steps == 0 {
            1.0
        } else {
            self.steps_fit as f64 / self.steps as f64
        }
    }
}

impl Spacecraft {
    /// A new spacecraft with `n` good components.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `repairs_per_step == 0`.
    pub fn new(n: usize, max_debris_damage: usize, repairs_per_step: usize) -> Self {
        assert!(n > 0, "a spacecraft needs at least one component");
        assert!(
            repairs_per_step > 0,
            "must repair at least one component per step"
        );
        Spacecraft {
            components: Config::ones(n),
            all_good: Config::ones(n),
            max_debris_damage,
            repairs_per_step,
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Never empty (constructor enforces `n > 0`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether all components are good (`s ∈ C = 1ⁿ`).
    fn is_operational(&self) -> bool {
        self.components.count_ones() == self.components.len()
    }

    /// Number of failed components.
    fn failed_components(&self) -> usize {
        self.components.count_zeros()
    }

    /// The theoretical guarantee from the paper: with one repair per step
    /// and debris damaging at most `d` components, the craft is
    /// k-recoverable with `k = ceil(d / repairs_per_step)`.
    pub fn guaranteed_k(&self) -> usize {
        self.max_debris_damage.div_ceil(self.repairs_per_step)
    }

    /// One debris strike: damages `1..=max_debris_damage` good components.
    fn debris_strike<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        if self.max_debris_damage == 0 {
            return 0;
        }
        let k = rng.gen_range(1..=self.max_debris_damage);
        let before = self.failed_components();
        // Damage only good components: debris cannot "repair". Sampling
        // over the count and selecting with `nth_one` picks the same bits
        // as indexing a collected `iter_ones()` vector, without the O(n)
        // alloc.
        let good = self.components.count_ones();
        let k = k.min(good);
        // Every sampled index is below `good`, so `nth_one` finds each.
        let chosen: Vec<usize> = rand::seq::index::sample(rng, good, k)
            .into_iter()
            .filter_map(|i| self.components.nth_one(i))
            .collect();
        debug_assert_eq!(chosen.len(), k, "every sampled index has a set bit");
        for bit in chosen {
            self.components.clear(bit);
        }
        self.failed_components() - before
    }

    /// One repair step: fix up to `repairs_per_step` failed components,
    /// lowest-indexed first. Returns how many were fixed.
    fn repair_step(&mut self) -> usize {
        // Both configurations have `n` bits, so the step cannot fail.
        self.components
            .flip_toward(&self.all_good, self.repairs_per_step)
            .unwrap_or(0)
    }

    /// Quality: percentage of good components.
    pub fn quality(&self) -> f64 {
        100.0 * self.components.density()
    }

    /// Simulate a mission of `steps` steps under a debris arrival
    /// `schedule`. Each step: debris may strike, then one repair step runs.
    pub fn simulate_mission<R: Rng + ?Sized>(
        &mut self,
        steps: usize,
        schedule: &ShockSchedule,
        rng: &mut R,
    ) -> MissionLog {
        let mut quality = QualityTrajectory::new(1.0);
        quality.push(self.quality());
        let mut strikes = 0;
        let mut total_damage = 0;
        let mut steps_fit = 0;
        let mut outage = 0;
        let mut longest_outage = 0;
        for t in 1..=steps {
            if schedule.fires_at(t, rng) {
                strikes += 1;
                total_damage += self.debris_strike(rng);
            }
            self.repair_step();
            quality.push(self.quality());
            if self.is_operational() {
                steps_fit += 1;
                outage = 0;
            } else {
                outage += 1;
                longest_outage = longest_outage.max(outage);
            }
        }
        MissionLog {
            quality,
            strikes,
            total_damage,
            steps_fit,
            steps,
            longest_outage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::seeded_rng;

    #[test]
    fn new_spacecraft_is_operational() {
        let s = Spacecraft::new(10, 3, 1);
        assert!(s.is_operational());
        assert_eq!(s.failed_components(), 0);
        assert_eq!(s.quality(), 100.0);
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn zero_components_rejected() {
        let _ = Spacecraft::new(0, 1, 1);
    }

    #[test]
    fn guaranteed_k_formula() {
        assert_eq!(Spacecraft::new(10, 3, 1).guaranteed_k(), 3);
        assert_eq!(Spacecraft::new(10, 3, 2).guaranteed_k(), 2);
        assert_eq!(Spacecraft::new(10, 4, 2).guaranteed_k(), 2);
        assert_eq!(Spacecraft::new(10, 0, 1).guaranteed_k(), 0);
    }

    #[test]
    fn debris_damages_within_bound() {
        let mut rng = seeded_rng(11);
        for _ in 0..50 {
            let mut s = Spacecraft::new(20, 4, 1);
            let dmg = s.debris_strike(&mut rng);
            assert!((1..=4).contains(&dmg));
            assert_eq!(s.failed_components(), dmg);
        }
    }

    #[test]
    fn zero_damage_bound_is_noop() {
        let mut rng = seeded_rng(12);
        let mut s = Spacecraft::new(5, 0, 1);
        assert_eq!(s.debris_strike(&mut rng), 0);
        assert!(s.is_operational());
    }

    #[test]
    fn repair_fixes_one_per_step() {
        let mut rng = seeded_rng(13);
        let mut s = Spacecraft::new(10, 3, 1);
        s.debris_strike(&mut rng);
        let failed = s.failed_components();
        let mut steps = 0;
        while !s.is_operational() {
            assert_eq!(s.repair_step(), 1);
            steps += 1;
        }
        assert_eq!(
            steps, failed,
            "one repair per step ⇒ k steps for k failures"
        );
    }

    #[test]
    fn recovery_within_guaranteed_k() {
        // The paper's k-recoverability guarantee, across many strikes.
        let mut rng = seeded_rng(14);
        for trial in 0..100 {
            let mut s = Spacecraft::new(16, 5, 2);
            s.debris_strike(&mut rng);
            let k = s.guaranteed_k();
            for _ in 0..k {
                s.repair_step();
            }
            assert!(
                s.is_operational(),
                "trial {trial} failed to recover in k={k}"
            );
        }
    }

    #[test]
    fn mission_with_sparse_debris_recovers_every_time() {
        let mut rng = seeded_rng(15);
        let mut s = Spacecraft::new(12, 3, 1);
        // Debris every 10 steps; guaranteed_k = 3 < 10 ⇒ always back to
        // full function before the next strike. The extra 5 steps let the
        // final strike's repairs finish.
        let log = s.simulate_mission(205, &ShockSchedule::Periodic { period: 10 }, &mut rng);
        assert_eq!(log.strikes, 20);
        assert!(log.longest_outage <= 3, "outage {}", log.longest_outage);
        assert!(s.is_operational());
        assert!(log.availability() > 0.6);
        assert!(log.resilience_loss() > 0.0);
    }

    #[test]
    fn mission_with_dense_debris_accumulates_damage() {
        let mut rng = seeded_rng(16);
        // Strikes (up to 4 damage) every step but only 1 repair/step ⇒
        // failures accumulate: expected damage/step (=2.5) > repair rate.
        let mut s = Spacecraft::new(30, 4, 1);
        let log = s.simulate_mission(100, &ShockSchedule::Periodic { period: 1 }, &mut rng);
        assert!(
            log.availability() < 0.3,
            "availability {}",
            log.availability()
        );
        assert!(!s.is_operational());
        // Faster repair restores resilience.
        let mut rng = seeded_rng(16);
        let mut fast = Spacecraft::new(30, 4, 4);
        let fast_log = fast.simulate_mission(100, &ShockSchedule::Periodic { period: 1 }, &mut rng);
        assert!(fast_log.resilience_loss() < log.resilience_loss());
    }

    #[test]
    fn quiet_mission_has_zero_loss() {
        let mut rng = seeded_rng(17);
        let mut s = Spacecraft::new(8, 2, 1);
        let log = s.simulate_mission(50, &ShockSchedule::Never, &mut rng);
        assert_eq!(log.strikes, 0);
        assert_eq!(log.resilience_loss(), 0.0);
        assert_eq!(log.availability(), 1.0);
        assert_eq!(log.longest_outage, 0);
    }
}
