//! E3 — K-maintainability policy construction (paper §4.3).

use resilience_core::AtLeastOnes;
use resilience_dcsp::maintainability::{
    analyze_bit_dcsp, analyze_bit_dcsp_adversarial, analyze_bit_dcsp_adversarial_frontiers,
    analyze_bit_dcsp_frontiers, TransitionSystem,
};

use crate::table::ExperimentTable;
use resilience_core::RunContext;

/// Run E3. Deterministic; the implicit rows chunk their min-max sweeps
/// over `ctx`'s worker threads with thread-invariant output.
pub fn run(ctx: &RunContext) -> ExperimentTable {
    let mut rows = Vec::new();
    let mut polynomial_scaling = true;
    let mut prev_per_state: Option<f64> = None;
    let check_scaling = |per_state: f64, prev: &mut Option<f64>, ok: &mut bool| {
        if let Some(p) = *prev {
            // Per-state cost should stay within a small constant factor —
            // the polynomial-time claim (here O(n) edges per state).
            if per_state > p * 16.0 {
                *ok = false;
            }
        }
        *prev = Some(per_state.max(1e-12));
    };
    for &n in &[6usize, 8, 10, 12, 14] {
        let need = n - n / 3;
        let env = AtLeastOnes::new(n, need);
        let ts = TransitionSystem::from_bit_dcsp(n, &env, 2);
        let report = ts.analyze();
        let adversarial = ts.analyze_adversarial();
        let states = 1usize << n;
        // Work done by the backward BFS = controllable edges traversed.
        // Deterministic (unlike wall time, which the determinism contract
        // forbids inside table content — wall time lives in `perf`).
        let edges: usize = (0..states).map(|s| ts.controllable_moves(s).len()).sum();
        check_scaling(
            edges as f64 / states as f64,
            &mut prev_per_state,
            &mut polynomial_scaling,
        );
        rows.push(vec![
            format!("{n}"),
            format!("{states}"),
            format!("{:?}", report.min_k()),
            format!("{:?}", adversarial.min_k()),
            format!("{}", report.hopeless_states().len()),
            format!("{edges} edges"),
        ]);
    }
    // Beyond 2^14 states the explicit transition system is replaced by the
    // implicit generator: single-bit-flip moves are produced on the fly,
    // so only the level/value arrays are materialized and the model check
    // scales to 2^20 states and beyond.
    for &n in &[16usize, 18, 20] {
        let need = n - n / 3;
        let env = AtLeastOnes::new(n, need);
        let report = analyze_bit_dcsp(n, &env);
        let adversarial = analyze_bit_dcsp_adversarial(n, &env, 2, ctx.threads());
        let states = 1usize << n;
        let edges = states * n; // n bit-flips per state, generated implicitly
        check_scaling(n as f64, &mut prev_per_state, &mut polynomial_scaling);
        rows.push(vec![
            format!("{n}"),
            format!("{states}"),
            format!("{:?}", report.min_k()),
            format!("{:?}", adversarial.min_k()),
            format!("{}", report.hopeless_states().len()),
            format!("{edges} edges (implicit)"),
        ]);
    }
    // Beyond the dense implicit path's 2^24 cap the per-state level array
    // itself no longer fits. `AtLeastOnes` is fully symmetric, so both
    // analyses are solved on the 27 popcount orbits and summarized as
    // per-depth counts, which is all this table reports anyway.
    // Equivalence with the dense analysis is pinned by
    // `tests/symmetry_equivalence.rs`.
    {
        let n = 26usize;
        let need = n - n / 3;
        let env = AtLeastOnes::new(n, need);
        let summary = analyze_bit_dcsp_frontiers(n, &env).expect("orbits reach 2^63 states");
        let adversarial = analyze_bit_dcsp_adversarial_frontiers(n, &env, 2, ctx.threads())
            .expect("orbits reach 2^63 states");
        let states = 1usize << n;
        let edges = states * n;
        check_scaling(n as f64, &mut prev_per_state, &mut polynomial_scaling);
        rows.push(vec![
            format!("{n}"),
            format!("{states}"),
            format!("{:?}", summary.min_k()),
            format!("{:?}", adversarial.min_k()),
            format!("{}", summary.hopeless),
            format!("{edges} edges (orbits)"),
        ]);
    }
    ExperimentTable {
        perf: None,
        id: "E3".into(),
        title: "K-maintainability policy construction".into(),
        claim: "§4.3 (after Baral & Eiter): a polynomial-time algorithm \
                constructs k-maintainable policies; every non-normal state \
                returns to normal within k admin steps"
            .into(),
        headers: vec![
            "bits".into(),
            "states".into(),
            "min k (quiet env)".into(),
            "min k (adversarial env)".into(),
            "hopeless states".into(),
            "construction work".into(),
        ],
        rows,
        finding: format!(
            "backward-BFS policy construction succeeds on every instance with \
             zero hopeless states; min k equals the deepest repair distance; \
             per-state edge count stays near-linear as the space grows \
             1048576× to 2^26 states — the implicit rows never materialize \
             the transition system, generating bit-flip moves on the fly, and \
             the 2^26 row is solved on its 27 popcount orbits instead of \
             per-state levels (polynomial scaling: {polynomial_scaling}); the \
             adversarial variant reports None as expected — an environment \
             allowed a 2-bit counter-move after every 1-bit repair can keep \
             the system unfit forever, the paper's §4.3 motivation for \
             reasoning under uncertainty instead of worst-case model checking"
        ),
    }
}

#[cfg(test)]
mod tests {
    use resilience_core::RunContext;
    #[test]
    fn runs() {
        let t = super::run(&RunContext::new(0));
        assert_eq!(t.rows.len(), 9);
        // No hopeless states in any row.
        for row in &t.rows {
            assert_eq!(row[4], "0");
            assert_ne!(row[2], "None");
        }
        // The implicit rows report the same structure as the explicit ones:
        // min k (quiet) = bits needed from all-zeros = need.
        let row20 = &t.rows[7];
        assert_eq!(row20[0], "20");
        assert_eq!(row20[2], format!("{:?}", Some(20 - 20 / 3)));
        assert_eq!(row20[3], "None");
        // The orbit row continues the pattern past the dense cap.
        let row26 = &t.rows[8];
        assert_eq!(row26[0], "26");
        assert_eq!(row26[2], format!("{:?}", Some(26 - 26 / 3)));
        assert_eq!(row26[3], "None");
        assert!(row26[5].contains("orbits"));
    }
}
