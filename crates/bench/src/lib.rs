//! Experiment harness for the Systems Resilience reproduction.
//!
//! The paper is a position paper with no numbered tables, so every figure
//! and quantitative claim becomes an experiment (`E1`–`E22`, indexed in
//! DESIGN.md). Each experiment module exposes `run(&RunContext) ->`
//! [`ExperimentTable`]; the `experiments` binary renders them as the
//! Markdown tables recorded in EXPERIMENTS.md:
//!
//! ```bash
//! cargo run --release -p resilience-bench --bin experiments        # all
//! cargo run --release -p resilience-bench --bin experiments -- e4 e15
//! cargo run --release -p resilience-bench --bin experiments -- --threads 4
//! ```
//!
//! Tables are a pure function of the master seed: the parallel runtime
//! (`resilience_core::runtime`) guarantees bit-identical output for any
//! `--threads` value.
//!
//! Criterion benchmarks for the hot kernels live in `benches/`; the
//! self-checking drivers (`serve --compare*`, `bench_smoke`) share the
//! [`harness`] module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never `unwrap()`; tests are exempt because a failed unwrap
// there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod checkpoint;
pub mod experiments;
pub mod harness;
pub mod table;

pub use checkpoint::{sidecar_for, CheckpointEntry, Journal, ReportEntry};
pub use table::{ExperimentTable, PerfSummary};

/// The worker-thread budget from `RESILIENCE_THREADS`, shared by every
/// binary that takes `--threads`: 1 when the variable is unset.
///
/// # Errors
///
/// A one-line message naming the variable when its value is not a
/// positive integer or not valid unicode.
pub fn env_threads() -> Result<usize, String> {
    match std::env::var("RESILIENCE_THREADS") {
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!(
                "RESILIENCE_THREADS must be a positive integer, got `{raw}`"
            )),
        },
        Err(std::env::VarError::NotPresent) => Ok(1),
        Err(std::env::VarError::NotUnicode(raw)) => {
            Err(format!("RESILIENCE_THREADS is not valid unicode: {raw:?}"))
        }
    }
}
