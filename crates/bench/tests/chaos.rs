//! End-to-end chaos tests of the `experiments` binary: tables survive a
//! recoverable fault plan bit-for-bit, killed runs resume byte-identically,
//! and exhausted retry budgets degrade the output instead of aborting.

use std::path::PathBuf;
use std::process::Command;

/// A recoverable plan: every transient fault clears within the retry
/// budget (`times=2 <= retries=3`), and no permanent faults.
const RECOVERABLE_PLAN: &str = "seed=7,panic=0.02,poison=0.02,times=2,retries=3,backoff_ms=0";

fn experiments() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.env_remove("RESILIENCE_THREADS");
    cmd.env_remove("RESILIENCE_ONLY");
    cmd.env_remove("RESILIENCE_FAULTS");
    cmd
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("resilience-chaos-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn recoverable_plan_leaves_stdout_bit_identical() {
    let clean = experiments().arg("e8").output().expect("binary runs");
    assert_eq!(clean.status.code(), Some(0));
    let chaos = experiments()
        .args(["--fault-plan", RECOVERABLE_PLAN, "e8"])
        .output()
        .expect("binary runs");
    assert_eq!(chaos.status.code(), Some(0));
    assert_eq!(
        clean.stdout, chaos.stdout,
        "a recoverable fault plan must not change the table"
    );
    let stderr = String::from_utf8_lossy(&chaos.stderr);
    assert!(
        stderr.contains("run report"),
        "supervised runs report on stderr: {stderr}"
    );
    let recovered_nonzero = stderr
        .split("recovered=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok())
        .is_some_and(|n| n > 0);
    assert!(recovered_nonzero, "faults must actually fire: {stderr}");
    assert!(stderr.contains("lost=0"), "nothing may be lost: {stderr}");
}

#[test]
fn chaos_runs_are_thread_invariant_under_env_plan() {
    // The plan arrives via RESILIENCE_FAULTS instead of the flag, and
    // the table must still match the fault-free run on any thread budget.
    let clean = experiments().arg("e13").output().expect("binary runs");
    for threads in ["1", "4"] {
        let chaos = experiments()
            .env("RESILIENCE_FAULTS", RECOVERABLE_PLAN)
            .args(["--threads", threads, "e13"])
            .output()
            .expect("binary runs");
        assert_eq!(chaos.status.code(), Some(0));
        assert_eq!(clean.stdout, chaos.stdout, "threads={threads}");
    }
}

#[test]
fn resume_replays_completed_experiments_byte_identically() {
    let ckpt = tmp("resume.jsonl");
    let ckpt_arg = ckpt.to_str().expect("utf-8 temp path");

    // Phase 1: run only e20, journaling it — then "die".
    let phase1 = experiments()
        .args(["--resume", ckpt_arg, "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(phase1.status.code(), Some(0));

    // Phase 2: re-issue the full command; e20 replays, e13 computes.
    let phase2 = experiments()
        .args(["--resume", ckpt_arg, "e20", "e13"])
        .output()
        .expect("binary runs");
    assert_eq!(phase2.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&phase2.stderr);
    assert!(stderr.contains("e20: resumed from checkpoint"), "{stderr}");
    assert!(stderr.contains("running e13"), "{stderr}");

    let fresh = experiments()
        .args(["e20", "e13"])
        .output()
        .expect("binary runs");
    assert_eq!(
        phase2.stdout, fresh.stdout,
        "a resumed run must be byte-identical to an uninterrupted one"
    );
}

#[test]
fn checkpoint_is_keyed_by_seed() {
    let ckpt = tmp("seed-keyed.jsonl");
    let ckpt_arg = ckpt.to_str().expect("utf-8 temp path");
    let first = experiments()
        .args(["--resume", ckpt_arg, "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(first.status.code(), Some(0));
    // A different seed must not reuse the journaled table.
    let reseeded = experiments()
        .args(["--resume", ckpt_arg, "--seed", "7", "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(reseeded.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&reseeded.stderr);
    assert!(
        !stderr.contains("resumed from checkpoint"),
        "seed changed, nothing may be replayed: {stderr}"
    );
}

#[test]
fn exhausted_retry_budget_degrades_instead_of_aborting() {
    let run = |threads: &str, report: &PathBuf| {
        experiments()
            .args([
                "--fault-plan",
                "seed=3,permanent=0.001,retries=2,backoff_ms=0",
                "--threads",
                threads,
                "--report-json",
                report.to_str().expect("utf-8 temp path"),
                "e8",
            ])
            .output()
            .expect("binary runs")
    };
    let report1 = tmp("lossy-threads1.json");
    let first = run("1", &report1);
    assert_eq!(
        first.status.code(),
        Some(0),
        "lost trials degrade the table, they never abort the run"
    );
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(
        stdout.contains("partial table"),
        "lost trials must be called out in the output: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(stderr.contains("health R="), "{stderr}");
    assert!(!stderr.contains("lost=0"), "this plan must lose trials");

    // Degradation is deterministic: same plan, same partial table.
    let second = run("1", &tmp("lossy-threads1-again.json"));
    assert_eq!(first.stdout, second.stdout);

    // And the loss accounting does not depend on the worker count: four
    // workers give the same table and the same report document.
    let report4 = tmp("lossy-threads4.json");
    let parallel = run("4", &report4);
    assert_eq!(parallel.status.code(), Some(0));
    assert_eq!(first.stdout, parallel.stdout);
    let doc1 = std::fs::read(&report1).expect("threads-1 report written");
    let doc4 = std::fs::read(&report4).expect("threads-4 report written");
    assert!(
        String::from_utf8_lossy(&doc1).contains("\"cause\": \"panicked\""),
        "the report lists the lost trials"
    );
    assert_eq!(doc1, doc4, "run reports differ between 1 and 4 workers");
}
