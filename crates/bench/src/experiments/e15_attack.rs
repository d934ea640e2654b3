//! E15 — scale-free robustness vs. targeted attack (paper §5.1).

use resilience_core::seeded_rng;
use resilience_networks::attack::{attack_sweep, AttackStrategy};
use resilience_networks::generators::{barabasi_albert, erdos_renyi};

use crate::table::ExperimentTable;
use resilience_core::RunContext;

/// Run E15.
pub fn run(ctx: &RunContext) -> ExperimentTable {
    let seed = ctx.seed;
    let mut rng = seeded_rng(seed.wrapping_add(15));
    let n = 3_000;
    let ba = barabasi_albert(n, 2, &mut rng);
    let er = erdos_renyi(n, 4.0 / n as f64, &mut rng);
    let removals = n / 2;

    let mut rows = Vec::new();
    let mut scores = std::collections::HashMap::new();
    for (name, graph) in [
        ("Barabási–Albert (scale-free)", &ba),
        ("Erdős–Rényi (random)", &er),
    ] {
        for strategy in [AttackStrategy::Random, AttackStrategy::TargetedByDegree] {
            let curve = attack_sweep(graph, strategy, removals, &mut rng);
            let collapse = curve.collapse_point(0.1);
            let robustness = curve.robustness();
            scores.insert((name, strategy), robustness);
            rows.push(vec![
                name.into(),
                format!("{strategy:?}"),
                format!("{robustness:.3}"),
                format!("{collapse:.2}"),
                format!("{:.3}", curve.giant.last().copied().unwrap_or(0.0)),
            ]);
        }
    }
    let ba_gap = scores[&("Barabási–Albert (scale-free)", AttackStrategy::Random)]
        - scores[&(
            "Barabási–Albert (scale-free)",
            AttackStrategy::TargetedByDegree,
        )];
    let er_gap = scores[&("Erdős–Rényi (random)", AttackStrategy::Random)]
        - scores[&("Erdős–Rényi (random)", AttackStrategy::TargetedByDegree)];
    ExperimentTable {
        perf: None,
        id: "E15".into(),
        title: "Scale-free networks: random failure vs. hub attack".into(),
        claim: "§5.1 (Barabási): scale-free networks are extremely robust \
                against random failures, but an attack deliberately aimed at \
                the hubs turns that connectivity into a vulnerability"
            .into(),
        headers: vec![
            "topology".into(),
            "attack".into(),
            "robustness (mean giant fraction)".into(),
            "collapse point (<10% giant)".into(),
            "giant after 50% removal".into(),
        ],
        rows,
        finding: format!(
            "the scale-free graph keeps its giant component through 50% \
             random removals yet shatters under hub attack — its \
             random-vs-targeted robustness gap ({ba_gap:.3}) is ~{:.1}× the \
             Erdős–Rényi control's ({er_gap:.3}), reproducing the Barabási \
             asymmetry (the control is drawn by O(edges) geometric \
             skip-sampling, the generator the cluster runs share, and its \
             draws precede the random-removal shuffles on one stream)",
            ba_gap / er_gap.max(1e-9)
        ),
    }
}

#[cfg(test)]
mod tests {
    use resilience_core::RunContext;
    #[test]
    fn asymmetry_reproduced() {
        let t = super::run(&RunContext::new(0));
        assert_eq!(t.rows.len(), 4);
        let ba_random: f64 = t.rows[0][2].parse().unwrap();
        let ba_target: f64 = t.rows[1][2].parse().unwrap();
        assert!(ba_target < 0.6 * ba_random);
    }
}
