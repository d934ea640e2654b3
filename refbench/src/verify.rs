//! The `verify_dcsp` workload: the reference verification instances.
//!
//! One operation checks 4-recoverability of the all-ones 24-bit
//! configuration against every damage of up to 4 bits on the exhaustive
//! engine — not `_auto`, which sends `AllOnes` to the orbit checker and
//! would time almost nothing — then runs the quiet and the adversarial
//! maintainability analyses over all 2^20 states of `AtLeastOnes(20, 14)`.
//! The instances are fixed: the seed does not change them.

use std::time::Instant;

use resilience_core::{AllOnes, AtLeastOnes, Config, RunContext};
use resilience_dcsp::maintainability::{analyze_bit_dcsp, analyze_bit_dcsp_adversarial};
use resilience_dcsp::recoverability::{
    is_k_recoverable_exhaustive_parallel, is_k_recoverable_exhaustive_parallel_stats,
};
use resilience_dcsp::{GreedyRepair, MaintainabilityReport, RecoverabilityReport, VerifyStats};

use crate::digest::Digest;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::{Layers, Workload};

const RECOVER_BITS: usize = 24;
const MAX_DAMAGE: usize = 4;
const K: usize = 4;
const STATE_BITS: usize = 20;
const THRESHOLD: usize = 14;
const ADVERSARY_DAMAGE: usize = 2;

/// Damage cases of up to `d` flips among `n` bits: Σ_{s=1..d} C(n, s).
fn damage_cases(n: usize, d: usize) -> usize {
    let mut choose = 1usize;
    (1..=d)
        .map(|s| {
            choose = choose * (n + 1 - s) / s;
            choose
        })
        .sum()
}

#[derive(Debug)]
pub struct VerifyOut {
    recoverability: RecoverabilityReport,
    bfs: MaintainabilityReport,
    adversarial: MaintainabilityReport,
}

/// What every operation must reproduce. The maintainability reports
/// hold two words per state, so only their digest is kept: a second
/// copy would double the workload's resident set.
#[derive(Debug)]
struct Reference {
    recoverability: RecoverabilityReport,
    maintainability: u64,
    stats: VerifyStats,
    levels: usize,
    hopeless: usize,
}

#[derive(Debug)]
pub struct Verify {
    start: Config,
    all_ones: AllOnes,
    at_least: AtLeastOnes,
    greedy: GreedyRepair,
    ctx: RunContext,
    generate_ms: f64,
    reference: Option<Reference>,
}

impl Verify {
    /// Build the instances, the repair strategy and a one-thread context.
    pub fn setup(seed: u64) -> Self {
        let t = Instant::now();
        let start = Config::ones(RECOVER_BITS);
        let all_ones = AllOnes::new(RECOVER_BITS);
        let at_least = AtLeastOnes::new(STATE_BITS, THRESHOLD);
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        Verify {
            start,
            all_ones,
            at_least,
            greedy: GreedyRepair::new(),
            ctx: RunContext::with_threads(seed, 1),
            generate_ms,
            reference: None,
        }
    }

    fn states() -> f64 {
        (1u64 << STATE_BITS) as f64
    }
}

fn maintainability_digest(out: &VerifyOut) -> u64 {
    let mut d = Digest::default();
    for report in [&out.bfs, &out.adversarial] {
        for (state, level) in report.levels.iter().enumerate() {
            let next = report.policy.next_state(state);
            d = d
                .u64(level.map_or(u64::MAX, |l| l as u64))
                .u64(next.map_or(u64::MAX, |n| n as u64));
        }
    }
    d.finish()
}

impl Workload for Verify {
    type Out = VerifyOut;

    fn input_ms(&self) -> f64 {
        self.generate_ms
    }

    fn prepare(&mut self) -> Result<u64, String> {
        let out = self.op(0, None);
        // The stats variant partitions the damage space differently; its
        // report must agree, and it supplies the memo-cache counters.
        let (report, stats) = is_k_recoverable_exhaustive_parallel_stats(
            &self.start,
            &self.all_ones,
            &self.greedy,
            MAX_DAMAGE,
            K,
            &self.ctx,
        );
        if report != out.recoverability {
            return Err("the stats engine's report differs from the exhaustive one".to_string());
        }
        let r = &out.recoverability;
        let mut d = Digest::default()
            .u64(r.k as u64)
            .u64(r.cases as u64)
            .u64(r.recovered_within_k as u64)
            .u64(r.worst_steps as u64);
        for bit in r.counterexample.iter().flatten() {
            d = d.u64(*bit as u64);
        }
        let maintainability = maintainability_digest(&out);
        self.reference = Some(Reference {
            recoverability: report,
            maintainability,
            stats,
            levels: out.bfs.frontier_sizes().len(),
            hopeless: out.bfs.hopeless_states().len(),
        });
        self.check(0, &out)?;
        Ok(d.u64(maintainability).finish())
    }

    fn work_per_op(&self) -> f64 {
        damage_cases(RECOVER_BITS, MAX_DAMAGE) as f64 + 2.0 * Self::states()
    }

    fn op(&self, _i: u64, mut rec: Option<&mut Recorder>) -> VerifyOut {
        let recoverability = Recorder::maybe(rec.as_deref_mut(), "dcsp.recoverability", || {
            is_k_recoverable_exhaustive_parallel(
                &self.start,
                &self.all_ones,
                &self.greedy,
                MAX_DAMAGE,
                K,
                &self.ctx,
            )
        });
        let bfs = Recorder::maybe(rec.as_deref_mut(), "dcsp.maintainability.bfs", || {
            analyze_bit_dcsp(STATE_BITS, &self.at_least)
        });
        let adversarial = Recorder::maybe(rec, "dcsp.maintainability.adversarial", || {
            analyze_bit_dcsp_adversarial(STATE_BITS, &self.at_least, ADVERSARY_DAMAGE, 1)
        });
        VerifyOut {
            recoverability,
            bfs,
            adversarial,
        }
    }

    fn check(&self, _i: u64, out: &VerifyOut) -> Result<(), String> {
        let want = damage_cases(RECOVER_BITS, MAX_DAMAGE);
        if out.recoverability.cases != want {
            return Err(format!(
                "checked {} damage cases, the closed form gives {want}",
                out.recoverability.cases
            ));
        }
        let Some(reference) = &self.reference else {
            return Ok(());
        };
        if out.recoverability != reference.recoverability {
            return Err("recoverability report differs from the reference".to_string());
        }
        if maintainability_digest(out) != reference.maintainability {
            return Err("maintainability reports differ from the reference".to_string());
        }
        Ok(())
    }

    fn layers(&self, rec: &Recorder, layers: &mut Layers) {
        let Some(reference) = &self.reference else {
            return;
        };
        let (r, stats) = (&reference.recoverability, &reference.stats);
        let med = |name| median(&rec.durations(name));
        let share = |name| median(&rec.ratios(name, "op"));
        let lookups = stats.cache_hits + stats.cache_misses;
        let analyses_ms = med("dcsp.maintainability.bfs") + med("dcsp.maintainability.adversarial");
        layers.extend([
            (
                "dcsp.recoverability.cases_per_s",
                r.cases as f64 / med("dcsp.recoverability") * 1e3,
            ),
            ("dcsp.recoverability.share", share("dcsp.recoverability")),
            ("dcsp.recoverability.cases", r.cases as f64),
            ("dcsp.recoverability.cache_hits", stats.cache_hits as f64),
            (
                "dcsp.recoverability.cache_misses",
                stats.cache_misses as f64,
            ),
            (
                "dcsp.recoverability.hit_ratio",
                if lookups == 0 {
                    0.0
                } else {
                    stats.cache_hits as f64 / lookups as f64
                },
            ),
            (
                "dcsp.recoverability.states_explored",
                stats.states_explored as f64,
            ),
            (
                "dcsp.maintainability.states_per_s",
                2.0 * Self::states() / analyses_ms * 1e3,
            ),
            (
                "dcsp.maintainability.bfs_share",
                share("dcsp.maintainability.bfs"),
            ),
            (
                "dcsp.maintainability.adversarial_share",
                share("dcsp.maintainability.adversarial"),
            ),
            ("dcsp.maintainability.states", Self::states()),
            ("dcsp.maintainability.levels", reference.levels as f64),
            ("dcsp.maintainability.hopeless", reference.hopeless as f64),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::damage_cases;

    #[test]
    fn closed_form_damage_cases() {
        assert_eq!(damage_cases(24, 4), 24 + 276 + 2024 + 10626);
        assert_eq!(damage_cases(5, 5), 31);
        assert_eq!(damage_cases(3, 0), 0);
    }
}
