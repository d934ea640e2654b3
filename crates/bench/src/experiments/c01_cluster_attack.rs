//! CLUSTER_ATTACK — attack-vs-random resilience curves at cluster
//! scale (paper §5.1, measured as Bruneau R instead of bare giant
//! fraction).
//!
//! For each topology family (scale-free, Erdős–Rényi control) and each
//! removal fraction, one cluster run removes that fraction of nodes at
//! a fixed tick — either uniformly at random or hubs-first — without
//! recovery, and the run is scored by R = ∫(100 − Q(t))dt. The grid is
//! dispatched through `run_trials`, so the table is bit-identical for
//! any thread budget.

use crate::table::ExperimentTable;
use resilience_cluster::{AttackSpec, ClusterConfig, ClusterEngine, TopologyKind};
use resilience_core::{FaultPlan, RunContext};
use resilience_networks::AttackStrategy;

/// Node-removal fractions swept (0 first: the fault-free baseline).
const FRACTIONS: [f64; 6] = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3];

/// Fleet size per run.
const N: usize = 4_000;

/// Tick the attack lands on.
const ATTACK_TICK: u64 = 8;

/// One grid point's outcome.
struct Outcome {
    topology: usize,
    strategy: AttackStrategy,
    fraction: f64,
    r_loss: f64,
    giant_fraction: f64,
}

/// Run CLUSTER_ATTACK.
pub fn run(ctx: &RunContext) -> ExperimentTable {
    let topologies = [
        ("scale-free (BA m=3)", TopologyKind::ScaleFree { m: 3 }),
        (
            "random (ER <k>=6)",
            TopologyKind::Random { mean_degree: 6.0 },
        ),
    ];
    let engines: Vec<ClusterEngine> = topologies
        .iter()
        .enumerate()
        .map(|(i, (_, kind))| {
            let mut config = ClusterConfig::new(N, kind.clone());
            config.ticks = 40;
            // Headroom above the chain threshold: a toppling node sheds
            // ~(1+α)/k̄ per neighbor while a degree-d survivor's margin
            // is α·d/k̄, so α > (1+α)·1/m keeps a *single* overloaded
            // neighbor from tipping the minimum-degree bulk and turning
            // every removal into the same global collapse. Above it,
            // overloads need several dead neighbors at once — common
            // around attacked hubs, rare under random removal — and R
            // reads as percolation damage (dead + disconnected nodes)
            // amplified by attack-localized cascades. No retries: the
            // damage persists for the rest of the run.
            config.headroom = 1.0;
            config.recovery.retries = 0;
            ClusterEngine::new(config, ctx.derive(600 + i as u64))
        })
        .collect();

    // The full grid, one trial per point.
    let mut grid: Vec<(usize, AttackStrategy, f64)> = Vec::new();
    for topology in 0..topologies.len() {
        for strategy in [AttackStrategy::Random, AttackStrategy::TargetedByDegree] {
            for &fraction in &FRACTIONS {
                grid.push((topology, strategy, fraction));
            }
        }
    }

    let outcomes: Vec<Outcome> = ctx.run_trials(
        grid.len() as u64,
        ctx.derive(610),
        |trial, rng| {
            use rand::Rng;
            let (topology, strategy, fraction) = grid[trial as usize];
            let attack = AttackSpec {
                tick: ATTACK_TICK,
                strategy,
                fraction,
                recoverable: false,
            };
            let run_seed: u64 = rng.gen();
            let report = engines[topology].run(run_seed, Some(&attack), &FaultPlan::none());
            Outcome {
                topology,
                strategy,
                fraction,
                r_loss: report.resilience_loss(),
                giant_fraction: report.final_giant as f64 / report.n as f64,
            }
        },
        Vec::new(),
        |mut acc, o| {
            acc.push(o);
            acc
        },
    );

    let lookup = |topology: usize, strategy: AttackStrategy, fraction: f64| -> &Outcome {
        outcomes
            .iter()
            .find(|o| o.topology == topology && o.strategy == strategy && o.fraction == fraction)
            .expect("grid point ran")
    };

    let mut rows = Vec::new();
    let mut curve_area = [[0.0f64; 2]; 2]; // [topology][random|targeted]
    for (topology, (name, _)) in topologies.iter().enumerate() {
        for &fraction in &FRACTIONS {
            let random = lookup(topology, AttackStrategy::Random, fraction);
            let targeted = lookup(topology, AttackStrategy::TargetedByDegree, fraction);
            curve_area[topology][0] += random.r_loss;
            curve_area[topology][1] += targeted.r_loss;
            rows.push(vec![
                (*name).into(),
                format!("{fraction:.2}"),
                format!("{:.0}", random.r_loss),
                format!("{:.0}", targeted.r_loss),
                format!("{:.3}", random.giant_fraction),
                format!("{:.3}", targeted.giant_fraction),
            ]);
        }
    }
    let sf_ratio = curve_area[0][1] / curve_area[0][0].max(1e-9);
    let er_ratio = curve_area[1][1] / curve_area[1][0].max(1e-9);

    ExperimentTable {
        perf: None,
        id: "CLUSTER_ATTACK".into(),
        title: "Cluster-scale attack vs. random failure, scored as Bruneau R".into(),
        claim: "§5.1: scale-free systems tolerate random component failures \
                but degrade sharply under attacks aimed at the hubs; a random \
                topology shows no such asymmetry"
            .into(),
        headers: vec![
            "topology".into(),
            "removal fraction".into(),
            "R (random failure)".into(),
            "R (hub attack)".into(),
            "giant frac (random)".into(),
            "giant frac (attack)".into(),
        ],
        rows,
        finding: format!(
            "integrated over the removal sweep, hub attacks cost the \
             scale-free cluster {sf_ratio:.1}× the R of random failures, \
             while the Erdős–Rényi control's ratio stays near parity \
             ({er_ratio:.1}×) — the Barabási asymmetry expressed in \
             resilience-triangle area"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_asymmetry_is_scale_free_specific() {
        let t = run(&RunContext::new(0));
        assert_eq!(t.rows.len(), 2 * FRACTIONS.len());
        let sum = |topology_prefix: &str, col: usize| -> f64 {
            t.rows
                .iter()
                .filter(|r| r[0].starts_with(topology_prefix))
                .map(|r| r[col].parse::<f64>().unwrap())
                .sum()
        };
        let sf_random = sum("scale-free", 2);
        let sf_attack = sum("scale-free", 3);
        let er_random = sum("random", 2);
        let er_attack = sum("random", 3);
        // Targeted attack must degrade R much faster than random failure
        // on the scale-free cluster…
        assert!(
            sf_attack > 1.5 * sf_random,
            "scale-free: attack R {sf_attack} vs random R {sf_random}"
        );
        // …and the asymmetry must be specific to the scale-free
        // topology: the ER control's ratio stays well below it.
        let sf_ratio = sf_attack / sf_random.max(1e-9);
        let er_ratio = er_attack / er_random.max(1e-9);
        assert!(
            er_ratio < 0.66 * sf_ratio,
            "asymmetry not scale-free specific: sf {sf_ratio} vs er {er_ratio}"
        );
    }

    #[test]
    fn zero_removal_matches_fault_free_baseline() {
        let t = run(&RunContext::new(0));
        // At f=0 no attack happens, so both strategies must report the
        // same fault-free baseline R. (The baseline is not necessarily
        // zero: an ER draw can contain naturally isolated nodes, which
        // score as disconnected — that *is* the fault-free baseline.)
        let zero_rows: Vec<_> = t.rows.iter().filter(|r| r[1] == "0.00").collect();
        assert_eq!(zero_rows.len(), 2);
        for row in &zero_rows {
            assert_eq!(row[2], row[3], "f=0 must be strategy-independent");
        }
        // The connected scale-free topology's baseline is exactly zero.
        assert_eq!(zero_rows[0][2], "0");
        assert_eq!(zero_rows[0][4], "1.000");
    }
}
