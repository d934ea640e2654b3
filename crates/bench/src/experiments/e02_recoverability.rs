//! E2 — spacecraft k-recoverability (paper §4.2 worked example).

use resilience_core::{AllOnes, Config};
use resilience_dcsp::recoverability::{check_recoverability, RecoverabilityOptions};
use resilience_dcsp::repair::GreedyRepair;

use crate::table::ExperimentTable;
use resilience_core::RunContext;

/// Run E2. Deterministic (exhaustive): `check_recoverability` walks every
/// damage pattern, cut into rank ranges on `ctx`'s worker threads; the
/// rank-ordered fold makes the table identical for any thread count (and
/// to the sequential reference checker). Rows beyond `n = 24` allow the
/// orbit walk — one repair walk per damage-count orbit, counts multiplied
/// by orbit size — which `tests/symmetry_equivalence.rs` pins
/// bit-identical to the rank walk.
pub fn run(ctx: &RunContext) -> ExperimentTable {
    let mut rows = Vec::new();
    let mut all_match = true;
    for &(n, damage, k) in &[
        (8usize, 1usize, 1usize),
        (8, 2, 2),
        (8, 3, 3),
        (12, 3, 3),
        (8, 3, 2), // under-budgeted: must fail
        (12, 4, 3),
        (16, 3, 3),
        (20, 4, 4),
        (24, 4, 3), // under-budgeted at scale: must fail
        (24, 4, 4),
        (28, 4, 4), // beyond the exhaustive ceiling: orbit-reduced
        (30, 4, 3), // under-budgeted beyond the ceiling: must fail
        (30, 4, 4),
    ] {
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let options = RecoverabilityOptions {
            symmetry: n > 24,
            stats: false,
        };
        let (report, _) =
            check_recoverability(&start, &env, &GreedyRepair::new(), damage, k, ctx, options)
                .expect("ones(n) is fit under AllOnes(n) and the damage space fits u64");
        let expected = k >= damage;
        if report.is_k_recoverable() != expected {
            all_match = false;
        }
        rows.push(vec![
            format!("{n}"),
            format!("{damage}"),
            format!("{k}"),
            format!("{}", report.cases),
            format!("{}", report.worst_steps),
            format!("{}", report.is_k_recoverable()),
            format!("{expected}"),
        ]);
    }
    ExperimentTable {
        perf: None,
        id: "E2".into(),
        title: "Spacecraft k-recoverability".into(),
        claim: "§4.2: with one repair per step and debris damaging at most k \
                components, the spacecraft is k-recoverable (and not \
                (k−1)-recoverable)"
            .into(),
        headers: vec![
            "components n".into(),
            "max damage d".into(),
            "budget k".into(),
            "perturbations checked".into(),
            "worst repair steps".into(),
            "k-recoverable".into(),
            "theory".into(),
        ],
        rows,
        finding: format!(
            "exhaustive check over every ≤d-bit perturbation agrees with the \
             paper's guarantee k-recoverable ⇔ k ≥ d on all rows ({all_match}); \
             the n > 24 rows cover every perturbation through 4 \
             symmetry-orbit representatives each"
        ),
    }
}

#[cfg(test)]
mod tests {
    use resilience_core::RunContext;
    #[test]
    fn theory_matches_measurement() {
        let t = super::run(&RunContext::new(0));
        assert!(t.finding.contains("(true)"));
        assert_eq!(t.rows.len(), 13);
        for row in &t.rows {
            assert_eq!(row[5], row[6], "row {row:?}");
        }
    }

    #[test]
    fn table_is_thread_invariant() {
        let serial = super::run(&RunContext::with_threads(0, 1));
        let parallel = super::run(&RunContext::with_threads(0, 4));
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.finding, parallel.finding);
    }
}
