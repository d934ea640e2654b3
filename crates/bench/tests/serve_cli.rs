//! End-to-end tests of the `serve` load-driver binary.
//!
//! These spawn the real executable (Cargo exposes it via
//! `CARGO_BIN_EXE_serve`) and assert the serving layer's two headline
//! guarantees from the outside: the per-request outcome log is
//! bit-identical for any `--threads` budget, and `--compare` upholds the
//! graceful-degradation acceptance criteria (it exits non-zero itself if
//! they fail, so here we also check the JSON it emits).

use std::process::Command;

const CHAOS: &str = "seed=11,panic=0.1,delay=0.05,poison=0.1,permanent=0.05";

fn serve() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
    cmd.env_remove("RESILIENCE_THREADS");
    cmd
}

fn stdout_of(cmd: &mut Command) -> String {
    let out = cmd.output().expect("serve binary runs");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn outcome_log_is_bit_identical_across_thread_budgets() {
    let log_at = |threads: &str| {
        stdout_of(serve().args([
            "--requests",
            "250",
            "--seed",
            "42",
            "--fault-plan",
            CHAOS,
            "--log",
            "--threads",
            threads,
        ]))
    };
    let log1 = log_at("1");
    assert_eq!(
        log1.lines().count(),
        250,
        "one outcome line per request expected"
    );
    for threads in ["2", "4"] {
        assert_eq!(
            log1,
            log_at(threads),
            "--threads {threads} changed the outcome log"
        );
    }
}

#[test]
fn compare_emits_the_acceptance_criteria_and_passes_them() {
    let json = stdout_of(serve().args(["--compare", "--requests", "400", "--seed", "42"]));
    // The binary self-checks (exit 1 on violation); spot-check the JSON.
    assert!(json.contains("\"degradation_on\""), "json: {json}");
    assert!(json.contains("\"degradation_off\""), "json: {json}");
    assert!(json.contains("\"resilience_improvement\""), "json: {json}");
    assert!(
        json.contains("\"failed\": 0"),
        "degradation-on arm must have zero hard failures: {json}"
    );
}

#[test]
fn unknown_flag_exits_2_naming_it() {
    let out = serve().arg("--frobnicate").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--frobnicate"), "stderr: {stderr}");
}

#[test]
fn bad_degradation_value_exits_2() {
    let out = serve()
        .args(["--degradation", "sideways"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sideways"), "stderr: {stderr}");
}

#[test]
fn threads_env_var_is_honoured_and_harmless() {
    // Same outcome log via the env var as via the flag.
    let via_flag = stdout_of(serve().args([
        "--requests",
        "120",
        "--seed",
        "7",
        "--log",
        "--threads",
        "3",
    ]));
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .env("RESILIENCE_THREADS", "3")
        .args(["--requests", "120", "--seed", "7", "--log"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert_eq!(via_flag, String::from_utf8_lossy(&out.stdout));
}

#[test]
fn invalid_threads_env_var_exits_2_naming_it() {
    for bad in ["0", "banana"] {
        let out = serve()
            .env("RESILIENCE_THREADS", bad)
            .args(["--requests", "10"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "RESILIENCE_THREADS={bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("RESILIENCE_THREADS"), "stderr: {stderr}");
        assert!(stderr.contains(bad), "stderr: {stderr}");
        assert!(out.stdout.is_empty(), "nothing may run: {stderr}");
    }
}

#[test]
fn single_run_flag_under_compare_exits_2_naming_it() {
    // A comparison fixes its own arms and output, so a single-run flag
    // beside it would be silently ignored; it is rejected instead.
    let out = serve()
        .args(["--compare-modes", "--log"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--log"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run: {stderr}");
}

#[test]
fn two_comparisons_exit_2_naming_both() {
    let out = serve()
        .args(["--compare", "--compare-redundancy"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--compare ") && stderr.contains("--compare-redundancy"),
        "stderr: {stderr}"
    );
}
