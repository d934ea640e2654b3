//! The paper's worked example (§4.2): a spacecraft pelted by space debris.
//!
//! The craft has n components, all required (`C = 1^n`); debris damages at
//! most k components at a time; one component is repaired per step, so the
//! craft is k-recoverable. We fly three missions with different repair
//! capacities and compare availability and Bruneau loss, then verify the
//! k-recoverability guarantee exhaustively.
//!
//! ```bash
//! cargo run --example spacecraft_mission
//! ```

use systems_resilience::core::{seeded_rng, AllOnes, Config, CoreError, RunContext, ShockSchedule};
use systems_resilience::dcsp::recoverability::{check_recoverability, RecoverabilityOptions};
use systems_resilience::dcsp::{GreedyRepair, Spacecraft};

fn main() -> Result<(), CoreError> {
    println!("== mission simulations ==");
    for repairs_per_step in [1usize, 2, 4] {
        let mut rng = seeded_rng(7);
        let mut craft = Spacecraft::new(24, 4, repairs_per_step);
        let log = craft.simulate_mission(600, &ShockSchedule::Periodic { period: 8 }, &mut rng);
        println!(
            "repairs/step {repairs_per_step}: guaranteed k = {}, strikes {}, \
             availability {:.2}, longest outage {}, Bruneau loss {:.0}",
            craft.guaranteed_k(),
            log.strikes,
            log.availability(),
            log.longest_outage,
            log.resilience_loss()
        );
    }

    println!("\n== exhaustive k-recoverability check (n = 10) ==");
    let start = Config::ones(10);
    let env = AllOnes::new(10);
    let ctx = RunContext::new(0);
    for (damage, k) in [(2usize, 2usize), (3, 3), (3, 2)] {
        let (report, _) = check_recoverability(
            &start,
            &env,
            &GreedyRepair::new(),
            damage,
            k,
            &ctx,
            RecoverabilityOptions::default(),
        )?;
        println!(
            "debris ≤{damage}, budget k={k}: {} perturbations, worst {} steps, \
             k-recoverable: {}{}",
            report.cases,
            report.worst_steps,
            report.is_k_recoverable(),
            report
                .counterexample
                .as_ref()
                .map(|w| format!("  (counterexample: damage {w:?})"))
                .unwrap_or_default()
        );
    }
    Ok(())
}
