//! The MAPE autonomic-computing loop (the paper's §3.3.2).
//!
//! "IBM proposed the concept of Autonomic Computing in 2003. This
//! architecture is based on so-called the MAPE (Monitor - Analyze - Plan -
//! Execute) cycles. … the fundamental strategy is to make the system more
//! adaptable — it senses the changes and reacts automatically to handle
//! the situations."
//!
//! Model: the environment demands a target configuration that drifts over
//! time; the managed system runs a MAPE cycle each step — **M**onitor the
//! target through a (possibly noisy) sensor, **A**nalyze the mismatch,
//! **P**lan which bits to fix, **E**xecute up to `adaptation_rate` flips.
//! Adaptability is exactly the paper's "relative speed of the system's
//! capability to adapt against environmental changes": the race between
//! `adaptation_rate` and the drift rate.

use rand::Rng;

use resilience_core::{Config, TimeSeries};

/// A MAPE-managed system tracking a drifting target.
#[derive(Debug, Clone, PartialEq)]
pub struct MapeLoop {
    /// Configuration length.
    pub n_bits: usize,
    /// Bits the Execute phase can flip per cycle (the adaptability knob).
    pub adaptation_rate: usize,
    /// Probability that Monitor misreads a bit of the target per cycle.
    pub sensor_noise: f64,
}

/// Result of a tracking run.
#[derive(Debug, Clone, PartialEq)]
pub struct MapeOutcome {
    /// Hamming mismatch to the true target per step.
    pub error: TimeSeries,
    /// Steps on which the system matched the target exactly.
    pub steps_in_sync: usize,
    /// Steps simulated.
    pub steps: usize,
}

impl MapeOutcome {
    /// Mean tracking error.
    pub fn mean_error(&self) -> f64 {
        self.error.mean()
    }

    /// Fraction of steps exactly in sync.
    pub fn sync_fraction(&self) -> f64 {
        if self.steps == 0 {
            1.0
        } else {
            self.steps_in_sync as f64 / self.steps as f64
        }
    }
}

impl MapeLoop {
    /// New loop.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits == 0` or `sensor_noise ∉ [0, 1]`.
    pub fn new(n_bits: usize, adaptation_rate: usize, sensor_noise: f64) -> Self {
        assert!(n_bits > 0, "need at least one managed variable");
        assert!(
            (0.0..=1.0).contains(&sensor_noise),
            "sensor noise must be in [0,1]"
        );
        MapeLoop {
            n_bits,
            adaptation_rate,
            sensor_noise,
        }
    }

    /// Run `steps` MAPE cycles against a target that flips `drift_rate`
    /// random bits per cycle.
    pub fn track_drift<R: Rng + ?Sized>(
        &self,
        steps: usize,
        drift_rate: usize,
        rng: &mut R,
    ) -> MapeOutcome {
        let mut target = Config::random(self.n_bits, rng);
        let mut state = target.clone(); // start in sync
        let mut error = TimeSeries::new();
        let mut steps_in_sync = 0;
        for _ in 0..steps {
            // Environment drifts.
            target.flip_random(drift_rate, rng);
            // Monitor: sense the target with noise.
            let mut sensed = target.clone();
            if self.sensor_noise > 0.0 {
                sensed.mutate(self.sensor_noise, rng);
            }
            // Analyze, Plan, Execute: diff the sensed target against the
            // state and fix the first `adaptation_rate` mismatches.
            state
                .flip_toward(&sensed, self.adaptation_rate)
                .expect("lengths match by construction");
            let err = state.hamming(&target).expect("lengths match");
            error.push(err as f64);
            if err == 0 {
                steps_in_sync += 1;
            }
        }
        MapeOutcome {
            error,
            steps_in_sync,
            steps,
        }
    }

    /// Recovery drill: the system starts `displacement` bits away from a
    /// *static* target; returns the number of cycles to full sync (`None`
    /// if not reached within `max_steps` — only possible with sensor
    /// noise).
    pub fn recovery_time<R: Rng + ?Sized>(
        &self,
        displacement: usize,
        max_steps: usize,
        rng: &mut R,
    ) -> Option<usize> {
        let target = Config::random(self.n_bits, rng);
        let mut state = target.clone();
        state.flip_random(displacement, rng);
        for t in 1..=max_steps {
            let mut sensed = target.clone();
            if self.sensor_noise > 0.0 {
                sensed.mutate(self.sensor_noise, rng);
            }
            state
                .flip_toward(&sensed, self.adaptation_rate)
                .expect("lengths match");
            if state == target {
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::seeded_rng;

    #[test]
    fn static_target_perfect_sensor_stays_synced() {
        let mut rng = seeded_rng(201);
        let m = MapeLoop::new(32, 4, 0.0);
        let out = m.track_drift(200, 0, &mut rng);
        assert_eq!(out.sync_fraction(), 1.0);
        assert_eq!(out.mean_error(), 0.0);
    }

    /// The E11 reproduction: adaptation must outpace the drift.
    #[test]
    fn adaptation_rate_races_drift_rate() {
        let mut rng = seeded_rng(202);
        let drift = 3;
        // Slower than drift: error grows to saturation (half the bits).
        let slow = MapeLoop::new(64, 1, 0.0).track_drift(2_000, drift, &mut rng);
        // Faster than drift: error stays near drift size.
        let fast = MapeLoop::new(64, 8, 0.0).track_drift(2_000, drift, &mut rng);
        assert!(
            slow.mean_error() > 20.0,
            "slow adaptation drowns: {}",
            slow.mean_error()
        );
        assert!(
            fast.mean_error() < 4.0,
            "fast adaptation tracks: {}",
            fast.mean_error()
        );
        assert!(fast.sync_fraction() > slow.sync_fraction());
    }

    #[test]
    fn recovery_time_is_ceil_displacement_over_rate() {
        let mut rng = seeded_rng(203);
        for (disp, rate, expect) in [(8usize, 2usize, 4usize), (9, 2, 5), (5, 5, 1), (1, 3, 1)] {
            let m = MapeLoop::new(32, rate, 0.0);
            assert_eq!(
                m.recovery_time(disp, 100, &mut rng),
                Some(expect),
                "disp {disp} rate {rate}"
            );
        }
    }

    #[test]
    fn zero_adaptation_never_recovers() {
        let mut rng = seeded_rng(204);
        let m = MapeLoop::new(16, 0, 0.0);
        assert_eq!(m.recovery_time(3, 200, &mut rng), None);
    }

    #[test]
    fn sensor_noise_degrades_tracking() {
        let mut rng = seeded_rng(205);
        let clean = MapeLoop::new(64, 8, 0.0).track_drift(2_000, 2, &mut rng);
        let noisy = MapeLoop::new(64, 8, 0.1).track_drift(2_000, 2, &mut rng);
        assert!(
            noisy.mean_error() > clean.mean_error(),
            "noisy {} vs clean {}",
            noisy.mean_error(),
            clean.mean_error()
        );
    }

    #[test]
    #[should_panic(expected = "managed variable")]
    fn rejects_zero_bits() {
        let _ = MapeLoop::new(0, 1, 0.0);
    }
}
