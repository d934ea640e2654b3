//! Pins the supervised runtime's observable output: for every plan of a
//! grid, the fold result, [`RunReport::serialize_full`] (counters, lost
//! list, health trajectory and attempt-log segments) and the trace JSON
//! that `record_run_events` replays from it, each folded into one FNV-1a
//! digest.
//!
//! Every plan runs at several trial counts and thread budgets, with a
//! clean trial function and one that genuinely panics on some indices,
//! plus two merged `run_trials` calls on one context (two segments).
//! The digests must agree across thread budgets and match the pinned
//! values, so a change to how attempts are scheduled that moves any
//! outcome, count, or logical-time sample fails here. Plans with a
//! `deadline_ms` are left out: their outcome depends on wall time.

use rand::Rng;
use systems_resilience::core::faults::RunReport;
use systems_resilience::core::{FaultConfig, RunContext, Supervision};
use systems_resilience::telemetry::{record_run_events, Tracer};

/// 64-bit FNV-1a, continued from `h` over `bytes`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Running digests of the three pinned outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digests {
    fold: u64,
    report: u64,
    trace: u64,
}

impl Digests {
    fn new() -> Self {
        Digests {
            fold: FNV_OFFSET,
            report: FNV_OFFSET,
            trace: FNV_OFFSET,
        }
    }

    fn absorb(&mut self, kept: &[u64], report: &RunReport) {
        for x in kept {
            self.fold = fnv1a(self.fold, &x.to_le_bytes());
        }
        // A separator, so a fold that moves a value between runs shows.
        self.fold = fnv1a(self.fold, &(kept.len() as u64).to_le_bytes());
        let full = serde_json::to_string(&report.serialize_full()).expect("report renders");
        self.report = fnv1a(self.report, full.as_bytes());
        let mut tracer = Tracer::new();
        record_run_events(&mut tracer, report);
        self.trace = fnv1a(self.trace, tracer.to_json().as_bytes());
    }
}

fn clean_trial(idx: u64, rng: &mut rand_chacha::ChaCha8Rng) -> u64 {
    idx ^ rng.gen::<u64>()
}

/// A genuine bug: every trial with `idx % 7 == 3` panics, on every
/// attempt.
fn buggy_trial(idx: u64, rng: &mut rand_chacha::ChaCha8Rng) -> u64 {
    if idx % 7 == 3 {
        panic!("trial bug at index {idx}");
    }
    clean_trial(idx, rng)
}

type TrialFn = fn(u64, &mut rand_chacha::ChaCha8Rng) -> u64;

fn collect(ctx: &RunContext, n: u64, master: u64, trial: TrialFn) -> Vec<u64> {
    ctx.run_trials(n, master, trial, Vec::new(), |mut acc, x| {
        acc.push(x);
        acc
    })
}

/// Every run of the grid for one plan at one thread budget.
fn plan_digests(supervision: &Supervision, threads: usize) -> Digests {
    let mut d = Digests::new();
    for trial in [clean_trial as TrialFn, buggy_trial as TrialFn] {
        for n in [0u64, 1, 37, 500] {
            let ctx = RunContext::with_threads(5, threads).supervised(supervision.clone());
            let kept = collect(&ctx, n, 19, trial);
            d.absorb(
                &kept,
                &ctx.run_report().expect("supervised context reports"),
            );
        }
        // Two streams on one context: the report merges two segments.
        let ctx = RunContext::with_threads(5, threads).supervised(supervision.clone());
        let mut kept = collect(&ctx, 37, 23, trial);
        kept.extend(collect(&ctx, 500, 29, trial));
        let report = ctx.run_report().expect("supervised context reports");
        assert_eq!(report.segments.len(), 2);
        d.absorb(&kept, &report);
    }
    d
}

fn plan(spec: &str) -> Supervision {
    Supervision::new("pin", FaultConfig::parse(spec).expect("valid spec"))
}

fn assert_pinned(supervision: Supervision, pinned: Digests) {
    let base = plan_digests(&supervision, 1);
    for threads in [2usize, 4] {
        assert_eq!(
            base,
            plan_digests(&supervision, threads),
            "threads={threads}"
        );
    }
    assert_eq!(base, pinned, "supervised output moved");
}

#[test]
fn isolation_only_runs_match_pinned_digests() {
    assert_pinned(
        Supervision::isolation("pin"),
        Digests {
            fold: 0x2063_e431_8e63_3e2a,
            report: 0xdf79_e9de_1ffd_7250,
            trace: 0xbb2f_3cfd_5e28_92df,
        },
    );
}

#[test]
fn recoverable_chaos_runs_match_pinned_digests() {
    assert_pinned(
        plan("seed=11,panic=0.2,delay=0.05,delay_ms=1,poison=0.15,times=2,retries=3,backoff_ms=0"),
        Digests {
            fold: 0x2063_e431_8e63_3e2a,
            report: 0x8b55_77de_08fb_c97c,
            trace: 0xc2a7_f6a8_9bdd_788f,
        },
    );
}

#[test]
fn permanent_fault_runs_match_pinned_digests() {
    assert_pinned(
        plan("seed=3,permanent=0.15,retries=2,backoff_ms=0"),
        Digests {
            fold: 0x9182_ccbd_fc08_a679,
            report: 0x2424_470b_67b8_d368,
            trace: 0x3e03_97ca_0079_cac3,
        },
    );
}

#[test]
fn zero_retry_runs_match_pinned_digests() {
    assert_pinned(
        plan("seed=5,panic=0.1,poison=0.05,times=1,retries=0"),
        Digests {
            fold: 0x4566_55a8_ea8f_ddb9,
            report: 0x96f6_9386_1b8b_77fb,
            trace: 0xfb37_bfb4_1287_fd29,
        },
    );
}
