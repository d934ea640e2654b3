//! Property test for the fault-recovery determinism contract: a
//! *recoverable* fault plan — every injected fault transient, clearing
//! within the retry budget, no permanent faults — must leave the folded
//! result of a supervised run bit-identical to the fault-free run, for
//! any thread budget. This is the invariant that lets `--fault-plan`
//! serve as a chaos test: if the table changes under recoverable chaos,
//! the supervisor dropped, duplicated, or mis-seeded a trial.
//!
//! Also here: the fault-spec grammar contract. `FaultConfig`'s
//! `Display` is the canonical spec, and the strict parser must invert
//! it exactly (`parse(cfg.to_string()) == cfg`) for any config whose
//! durations are whole milliseconds — the spec's unit — while malformed
//! specs must be rejected with an error naming the offending token.
//! No spec built from edge values may panic the parser, and every spec
//! it accepts must serve a short trace without panicking.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use proptest::prelude::*;
use rand::Rng;
use systems_resilience::core::{
    CoreError, FaultConfig, FaultPlan, RecoveryPolicy, RunContext, Supervision,
};
use systems_resilience::service::{RequestTrace, ServiceConfig, ServiceEngine, TraceSpec};

/// The reference workload: XOR-fold of seeded draws, so any dropped,
/// duplicated, or re-ordered trial changes the result.
fn fold(ctx: &RunContext, trials: u64, master: u64) -> Vec<u64> {
    ctx.run_trials(
        trials,
        master,
        |idx, rng| idx ^ rng.gen::<u64>(),
        Vec::new(),
        |mut acc, x| {
            acc.push(x);
            acc
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recoverable-only plans reproduce the fault-free fold bit for bit
    /// on thread budgets 1, 2, and 4.
    #[test]
    fn recoverable_plans_preserve_results(
        plan_seed in any::<u64>(),
        master in any::<u64>(),
        panic_rate in 0.0f64..0.15,
        poison_rate in 0.0f64..0.15,
        delay_rate in 0.0f64..0.05,
        times in 1u32..=3,
    ) {
        let plan = FaultPlan {
            seed: plan_seed,
            panic_rate,
            delay_rate,
            poison_rate,
            permanent_rate: 0.0,
            delay: Duration::from_micros(50),
            transient_attempts: times,
            ..FaultPlan::none()
        };
        let policy = RecoveryPolicy {
            retries: 3,
            backoff: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(1),
            deadline: None,
        };
        let config = FaultConfig { plan, policy };
        prop_assert!(config.plan.recoverable_under(&config.policy));

        let clean = fold(&RunContext::new(9), 48, master);
        for threads in [1usize, 2, 4] {
            let ctx = RunContext::with_threads(9, threads)
                .supervised(Supervision::new("prop-chaos", config.clone()));
            let chaotic = fold(&ctx, 48, master);
            prop_assert!(
                chaotic == clean,
                "fold changed under recoverable chaos: threads={} plan={:?}",
                threads,
                config.plan
            );
            let report = ctx.run_report().expect("supervised context reports");
            prop_assert!(report.lost.is_empty(), "recoverable plan lost trials");
            // Every failure event is a retry that eventually succeeded,
            // so extra attempts can only come from recovered trials.
            prop_assert!(report.attempts >= report.trials);
            if report.attempts > report.trials {
                prop_assert!(report.recovered > 0);
            }
        }
    }
}

/// Every key the spec grammar understands.
const KNOWN_KEYS: [&str; 14] = [
    "seed",
    "panic",
    "delay",
    "poison",
    "permanent",
    "gray",
    "correlated",
    "gray_factor",
    "delay_ms",
    "times",
    "retries",
    "backoff_ms",
    "backoff_cap_ms",
    "deadline_ms",
];

/// Lowercase-letter word derived from `n` (base-26), at least 2 chars —
/// the vendored proptest has no string strategies, so random words are
/// drawn as integers and rendered here.
fn word(mut n: u64) -> String {
    let mut s = String::new();
    loop {
        s.push((b'a' + (n % 26) as u8) as char);
        n /= 26;
        if n == 0 && s.len() >= 2 {
            return s;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse` inverts `Display` exactly: the canonical spec re-parses
    /// to a bit-identical config. Slot-chain rates are drawn in
    /// thousandths so the five together never exceed 1.0 (the plan's
    /// validity bound; `correlated` rides its own stream and is bounded
    /// separately); durations are whole milliseconds, the spec's unit;
    /// a zero deadline draw stands for "no deadline" (the spec omits
    /// the key).
    #[test]
    fn fault_spec_display_round_trips_through_parse(
        seed in any::<u64>(),
        panic_m in 0u32..=200,
        delay_m in 0u32..=200,
        poison_m in 0u32..=200,
        permanent_m in 0u32..=200,
        gray_m in 0u32..=200,
        correlated_m in 0u32..=1000,
        gray_factor in 1u64..=8,
        delay_ms in 0u64..=50,
        times in 1u32..=4,
        retries in 0u32..=6,
        backoff_ms in 0u64..=20,
        backoff_cap_ms in 0u64..=64,
        deadline_ms in 0u64..=500,
    ) {
        let cfg = FaultConfig {
            plan: FaultPlan {
                seed,
                panic_rate: f64::from(panic_m) / 1000.0,
                delay_rate: f64::from(delay_m) / 1000.0,
                poison_rate: f64::from(poison_m) / 1000.0,
                permanent_rate: f64::from(permanent_m) / 1000.0,
                gray_rate: f64::from(gray_m) / 1000.0,
                correlated_rate: f64::from(correlated_m) / 1000.0,
                gray_factor,
                delay: Duration::from_millis(delay_ms),
                transient_attempts: times,
            },
            policy: RecoveryPolicy {
                retries,
                backoff: Duration::from_millis(backoff_ms),
                backoff_cap: Duration::from_millis(backoff_cap_ms),
                deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            },
        };
        let spec = cfg.to_string();
        let reparsed = FaultConfig::parse(&spec)
            .unwrap_or_else(|e| panic!("canonical spec `{spec}` must parse: {e}"));
        prop_assert!(reparsed == cfg, "spec `{}` did not round-trip: {:?}", spec, reparsed);
    }

    /// An unknown key is rejected, and the error names the exact
    /// offending token so the user can find it in a long spec. The `zz`
    /// prefix guarantees the key collides with no known key.
    #[test]
    fn unknown_keys_are_rejected_naming_the_token(
        key_word in any::<u64>(),
        value in any::<u32>(),
    ) {
        let token = format!("zz{}={value}", word(key_word));
        let err = FaultConfig::parse(&format!("seed=1,panic=0.1,{token}"))
            .expect_err("unknown key must be rejected");
        let msg = err.to_string();
        prop_assert!(msg.contains(&token), "error `{}` does not name `{}`", msg, token);
    }

    /// A known key with an unparseable (letters-only) value is
    /// rejected, and the error names the exact offending token.
    #[test]
    fn bad_values_are_rejected_naming_the_token(
        key_idx in 0usize..KNOWN_KEYS.len(),
        garbage in any::<u64>(),
    ) {
        let token = format!("{}=x{}", KNOWN_KEYS[key_idx], word(garbage));
        let err = FaultConfig::parse(&token).expect_err("garbage value must be rejected");
        let msg = err.to_string();
        prop_assert!(msg.contains(&token), "error `{}` does not name `{}`", msg, token);
    }

    /// A token with no `=` at all is rejected, naming the token.
    #[test]
    fn keyless_tokens_are_rejected_naming_the_token(raw in any::<u64>()) {
        let token = word(raw);
        let err = FaultConfig::parse(&format!("seed=1,{token}"))
            .expect_err("key-only token must be rejected");
        let msg = err.to_string();
        prop_assert!(msg.contains(&token), "error `{}` does not name `{}`", msg, token);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Specs assembled from edge values (0, 1, `u32::MAX`, `u32::MAX + 1`,
    /// `u64::MAX`, plus a mid-range rate) never panic the parser, and
    /// every spec it accepts serves a 50-request trace with the default
    /// config without panicking. Every spec sets the two work
    /// multipliers, `delay_ms` and `gray_factor`, to integer edge values
    /// beside a valid pair of the rates that make them bite; up to two
    /// more tokens come from any key and any edge value.
    #[test]
    fn edge_value_specs_parse_and_serve_without_panicking(
        rates in 0usize..RATE_PAIRS.len(),
        multipliers in (0usize..INTEGER_EDGES, 0usize..INTEGER_EDGES),
        extra in proptest::collection::vec(
            (0usize..KNOWN_KEYS.len(), 0usize..EDGE_VALUES.len()),
            0..=2,
        ),
    ) {
        let mut spec = format!(
            "delay={},gray={},delay_ms={},gray_factor={}",
            RATE_PAIRS[rates].0, RATE_PAIRS[rates].1,
            EDGE_VALUES[multipliers.0], EDGE_VALUES[multipliers.1],
        );
        for &(k, v) in &extra {
            spec.push_str(&format!(",{}={}", KNOWN_KEYS[k], EDGE_VALUES[v]));
        }
        let parsed = catch_unwind(|| FaultConfig::parse(&spec));
        prop_assert!(parsed.is_ok(), "parse panicked on `{}`", spec);
        if let Ok(Ok(cfg)) = parsed {
            let trace = RequestTrace::generate(&TraceSpec::new(50, 42));
            let engine = ServiceEngine::new(ServiceConfig::default());
            let served = catch_unwind(AssertUnwindSafe(|| engine.serve(&trace, &cfg.plan)));
            prop_assert!(served.is_ok(), "serve panicked under `{}`", spec);
        }
    }
}

/// Values at the edges of the spec grammar's integer types, then a
/// mid-range rate.
const EDGE_VALUES: [&str; 6] = [
    "0",
    "1",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "0.5",
];

/// The integer edge values: the first entries of [`EDGE_VALUES`].
const INTEGER_EDGES: usize = 5;

/// `(delay, gray)` rate pairs the plan accepts (their sum is at most 1).
const RATE_PAIRS: [(&str, &str); 6] = [
    ("0", "0"),
    ("1", "0"),
    ("0", "1"),
    ("0.5", "0.5"),
    ("0.5", "0"),
    ("0", "0.5"),
];

/// The largest `delay_ms` and `gray_factor` the parser accepts serve
/// a short trace to the end.
#[test]
fn largest_accepted_work_multipliers_serve() {
    let trace = RequestTrace::generate(&TraceSpec::new(50, 42));
    let engine = ServiceEngine::new(ServiceConfig::default());
    for spec in [
        "seed=1,delay=0.5,delay_ms=4294967295",
        "seed=1,gray=0.5,gray_factor=4294967295",
    ] {
        let plan = FaultConfig::parse(spec).expect(spec).plan;
        assert_eq!(engine.serve(&trace, &plan).total(), 50, "{spec}");
    }
}

/// A plan built in code skips the parser's bound: `validate` rejects a
/// `gray_factor` or `delay` above `u32::MAX` (ms), naming the field, and
/// the serve still takes such a plan to the end without overflowing its
/// work arithmetic.
#[test]
fn unbounded_work_multipliers_are_rejected_and_still_serve() {
    let trace = RequestTrace::generate(&TraceSpec::new(50, 42));
    let engine = ServiceEngine::new(ServiceConfig::default());
    let delayed = |delay| FaultPlan {
        seed: 1,
        delay_rate: 0.5,
        delay,
        ..FaultPlan::none()
    };
    for (field, plan) in [
        (
            "gray_factor",
            FaultPlan {
                seed: 1,
                gray_rate: 0.5,
                gray_factor: u64::MAX,
                ..FaultPlan::none()
            },
        ),
        ("delay", delayed(Duration::from_millis(1 << 61))),
        ("delay", delayed(Duration::MAX)),
    ] {
        match plan.validate() {
            Err(CoreError::InvalidParameter { name, .. }) => assert_eq!(name, field),
            other => panic!("{field}: expected InvalidParameter, got {other:?}"),
        }
        assert_eq!(engine.serve(&trace, &plan).total(), 50, "{field}");
    }
}
