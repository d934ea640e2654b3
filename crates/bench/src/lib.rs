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

pub use checkpoint::{CheckpointEntry, ExperimentCheckpoint, ReportEntry, ReportJournal};
pub use table::{ExperimentTable, PerfSummary};
