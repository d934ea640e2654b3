//! Regulatory adaptability (the paper's §3.3.3).
//!
//! "A legal system is usually very rigid. Laws take a long time to be
//! discussed at the parliament/diet and once they are passed they stay the
//! same for many years. However, there are other regulatory approaches …
//! co-regulation combining top-down guidances and bottom-up
//! self-regulations. Ikegai argues that co-regulation is more flexible and
//! faster to adapt to the environment change."
//!
//! Model: a scalar social norm must track a drifting environment (e.g.
//! what Internet services exist to be regulated). **Top-down** law is
//! revised only every `review_period` steps and lands `deliberation_delay`
//! steps later (parliament is slow), but each revision jumps exactly onto
//! the target as observed at revision time. **Co-regulation** nudges the
//! norm a fraction of the gap every step.

use rand::Rng;

use resilience_core::TimeSeries;

/// How the regulatory norm is updated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegulatoryRegime {
    /// Parliament: full corrections on a slow cadence, with delay.
    TopDown {
        /// Steps between revisions.
        review_period: usize,
        /// Steps from a revision being drafted to taking effect.
        deliberation_delay: usize,
    },
    /// Stakeholder self-/co-regulation: small corrections every step.
    CoRegulation {
        /// Fraction of the current gap closed per step, in `(0, 1]`.
        step_fraction: f64,
    },
}

/// Result of a regulation-tracking run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegulationOutcome {
    /// |norm − environment| per step.
    pub gap: TimeSeries,
}

/// Track an environment performing a Gaussian random walk with per-step
/// standard deviation `drift` for `steps` steps.
///
/// # Panics
///
/// Panics on invalid regime parameters (`step_fraction ∉ (0, 1]` or
/// `review_period == 0`).
pub fn track_environment<R: Rng + ?Sized>(
    regime: RegulatoryRegime,
    drift: f64,
    steps: usize,
    rng: &mut R,
) -> RegulationOutcome {
    match regime {
        RegulatoryRegime::TopDown { review_period, .. } => {
            assert!(review_period > 0, "review period must be positive");
        }
        RegulatoryRegime::CoRegulation { step_fraction } => {
            assert!(
                step_fraction > 0.0 && step_fraction <= 1.0,
                "step fraction must be in (0, 1]"
            );
        }
    }
    let mut environment = 0.0f64;
    let mut norm = 0.0f64;
    let mut gap = TimeSeries::new();
    // Pending top-down revision: (effective_at, new_value).
    let mut pending: Option<(usize, f64)> = None;
    for t in 0..steps {
        // Environment drifts.
        environment += drift * gaussian(rng);
        match regime {
            RegulatoryRegime::TopDown {
                review_period,
                deliberation_delay,
            } => {
                if t % review_period == 0 {
                    // Draft a bill matching today's environment…
                    pending = Some((t + deliberation_delay, environment));
                }
                if let Some((when, value)) = pending {
                    // …which becomes law only after deliberation.
                    if t >= when {
                        norm = value;
                        pending = None;
                    }
                }
            }
            RegulatoryRegime::CoRegulation { step_fraction } => {
                norm += step_fraction * (environment - norm);
            }
        }
        gap.push((environment - norm).abs());
    }
    RegulationOutcome { gap }
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::seeded_rng;

    /// The §3.3.3 claim: co-regulation tracks a fast-changing landscape
    /// more closely than slow top-down legislation.
    #[test]
    fn co_regulation_tracks_closer_than_top_down() {
        let mut rng = seeded_rng(701);
        let top_down = track_environment(
            RegulatoryRegime::TopDown {
                review_period: 50,
                deliberation_delay: 10,
            },
            0.5,
            4_000,
            &mut rng,
        );
        let co = track_environment(
            RegulatoryRegime::CoRegulation { step_fraction: 0.3 },
            0.5,
            4_000,
            &mut rng,
        );
        assert!(
            co.gap.mean() * 2.0 < top_down.gap.mean(),
            "co {} vs top-down {}",
            co.gap.mean(),
            top_down.gap.mean()
        );
        assert!(co.gap.max() < top_down.gap.max());
    }

    #[test]
    fn static_environment_needs_no_regulation_speed() {
        let mut rng = seeded_rng(702);
        let top_down = track_environment(
            RegulatoryRegime::TopDown {
                review_period: 100,
                deliberation_delay: 20,
            },
            0.0,
            1_000,
            &mut rng,
        );
        assert_eq!(top_down.gap.mean(), 0.0);
    }

    #[test]
    fn faster_review_cycles_shrink_the_gap() {
        let mut rng = seeded_rng(703);
        let slow = track_environment(
            RegulatoryRegime::TopDown {
                review_period: 200,
                deliberation_delay: 10,
            },
            0.5,
            4_000,
            &mut rng,
        );
        let fast = track_environment(
            RegulatoryRegime::TopDown {
                review_period: 20,
                deliberation_delay: 10,
            },
            0.5,
            4_000,
            &mut rng,
        );
        assert!(fast.gap.mean() < slow.gap.mean());
    }

    #[test]
    fn full_step_co_regulation_has_only_drift_noise() {
        let mut rng = seeded_rng(704);
        let co = track_environment(
            RegulatoryRegime::CoRegulation { step_fraction: 1.0 },
            0.5,
            2_000,
            &mut rng,
        );
        // Closing the whole gap each step leaves only the one-step drift.
        assert!(co.gap.mean() < 0.6);
    }

    #[test]
    #[should_panic(expected = "step fraction")]
    fn rejects_zero_step_fraction() {
        let mut rng = seeded_rng(705);
        let _ = track_environment(
            RegulatoryRegime::CoRegulation { step_fraction: 0.0 },
            0.1,
            10,
            &mut rng,
        );
    }
}
