//! The `Constraint::flip_violations` contract: every entry equals, bit
//! for bit, the violation a probe reads after flipping that one bit of a
//! copy. The counting constraints override the default from one
//! popcount. The combinators and the cost adapter keep the default;
//! they are checked too, over counting parts, so that an override added
//! to them later is held to the same contract.

use std::sync::Arc;

use proptest::prelude::*;
use rand::Rng;
use systems_resilience::core::{
    seeded_rng, AllOnes, AndConstraint, AtLeastOnes, Config, Constraint, NotConstraint,
    OrConstraint,
};
use systems_resilience::dcsp::{CostConstraint, WeightedMismatch};

/// The probe loop `flip_violations` must reproduce.
fn probe_loop(env: &dyn Constraint, config: &Config) -> Vec<u64> {
    let mut probe = config.clone();
    (0..config.len())
        .map(|i| {
            probe.flip(i);
            let v = env.violation(&probe);
            probe.flip(i);
            v.to_bits()
        })
        .collect()
}

fn batched(env: &dyn Constraint, config: &Config) -> Vec<u64> {
    let mut out = vec![f64::NAN; config.len()];
    env.flip_violations(config, &mut out);
    out.iter().map(|v| v.to_bits()).collect()
}

/// The constraints of arity `n` with an override, alone and under each
/// combinator, plus the cost adapter.
fn constraints(n: usize, k: usize, seed: u64) -> Vec<Arc<dyn Constraint>> {
    let all_ones: Arc<dyn Constraint> = Arc::new(AllOnes::new(n));
    let at_least: Arc<dyn Constraint> = Arc::new(AtLeastOnes::new(n, k));
    let mut rng = seeded_rng(seed);
    let weights = (0..n).map(|_| rng.gen_range(0.1..3.0)).collect();
    let target = Config::random(n, &mut rng);
    let cost: Arc<dyn Constraint> = Arc::new(CostConstraint::new(
        "weighted mismatch",
        Arc::new(WeightedMismatch::new(target, weights)),
        0.7,
        Some(n),
    ));
    vec![
        all_ones.clone(),
        at_least.clone(),
        Arc::new(AndConstraint::new(vec![all_ones.clone(), at_least.clone()])),
        Arc::new(OrConstraint::new(vec![at_least.clone(), cost.clone()])),
        Arc::new(NotConstraint::new(all_ones)),
        cost,
    ]
}

/// A configuration of length `len` whose density is drawn too, so
/// near-fit and near-empty states are as likely as balanced ones.
fn config(len: usize, seed: u64) -> Config {
    let mut rng = seeded_rng(seed);
    let p = rng.gen_range(0.0..1.0);
    let mut c = Config::zeros(len);
    for i in 0..len {
        if rng.gen_bool(p) {
            c.set(i);
        }
    }
    c
}

fn check(n: usize, k: usize, len: usize, seed: u64) -> Result<(), String> {
    let cfg = config(len, seed);
    for env in constraints(n, k, seed ^ 0x5eed) {
        let want = probe_loop(env.as_ref(), &cfg);
        let got = batched(env.as_ref(), &cfg);
        if got != want {
            return Err(format!(
                "{}: flip_violations differs on {cfg} (arity {n}, length {len})",
                env.describe()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn overrides_match_the_probe_loop(
        n in 0usize..=130,
        k_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let k = ((n as f64) * k_frac) as usize;
        check(n, k.min(n), n, seed)?;
    }

    #[test]
    fn overrides_match_the_probe_loop_at_the_wrong_length(
        n in 0usize..=130,
        k_frac in 0.0f64..=1.0,
        len in 0usize..=130,
        seed in any::<u64>(),
    ) {
        prop_assume!(len != n);
        let k = ((n as f64) * k_frac) as usize;
        check(n, k.min(n), len, seed)?;
    }
}

#[test]
fn overrides_match_the_probe_loop_at_word_boundaries() {
    let lengths: [usize; 10] = [0, 1, 2, 63, 64, 65, 127, 128, 129, 130];
    for (i, &n) in lengths.iter().enumerate() {
        for k in [0, n / 3, n.saturating_sub(1), n] {
            for seed in 0..8 {
                let seed = (i as u64) << 32 | (k as u64) << 8 | seed;
                check(n, k, n, seed).unwrap();
                check(n, k, n + 1, seed).unwrap();
                check(n, k, n.saturating_sub(1), seed).unwrap();
            }
        }
    }
}
