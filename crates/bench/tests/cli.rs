//! End-to-end tests of the `experiments` binary's argument handling.
//!
//! Cargo exposes the built binary path via `CARGO_BIN_EXE_experiments`,
//! so these run the real executable exactly as a user would.

use std::process::Command;

fn experiments() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    // Isolate from the ambient environment so the env-var tests and the
    // default-threads assumption hold regardless of the caller's shell.
    cmd.env_remove("RESILIENCE_THREADS");
    cmd.env_remove("RESILIENCE_ONLY");
    cmd.env_remove("RESILIENCE_FAULTS");
    cmd
}

#[test]
fn seed_flag_without_value_exits_2() {
    let out = experiments().arg("--seed").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed"), "stderr: {stderr}");
}

#[test]
fn seed_flag_with_garbage_exits_2_naming_the_value() {
    let out = experiments()
        .args(["--seed", "banana"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("banana"), "stderr: {stderr}");
}

#[test]
fn threads_flag_with_garbage_exits_2_naming_the_value() {
    let out = experiments()
        .args(["--threads", "many", "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("many"), "stderr: {stderr}");
}

#[test]
fn bad_fault_plan_exits_2_naming_the_token() {
    let out = experiments()
        .args(["--fault-plan", "panic=0.01,frobnicate=3", "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("frobnicate=3"), "stderr: {stderr}");
}

#[test]
fn bad_fault_plan_value_exits_2_naming_the_token() {
    let out = experiments()
        .args(["--fault-plan", "panic=lots", "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("panic=lots"), "stderr: {stderr}");
}

#[test]
fn bad_faults_env_var_exits_2_naming_the_token() {
    let out = experiments()
        .env("RESILIENCE_FAULTS", "seed=nope")
        .arg("e20")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("seed=nope"), "stderr: {stderr}");
}

#[test]
fn fault_plan_flag_overrides_faults_env_var() {
    // The env var is garbage, but the flag wins, so the run succeeds.
    let out = experiments()
        .env("RESILIENCE_FAULTS", "garbage")
        .args(["--fault-plan", "seed=1,panic=0.01", "--json", "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn unknown_experiment_id_exits_2() {
    let out = experiments().arg("e99").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment"), "stderr: {stderr}");
    assert!(stderr.contains("e99"), "stderr: {stderr}");
}

#[test]
fn zero_threads_rejected_with_exit_2() {
    let out = experiments()
        .args(["--threads", "0", "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads"), "stderr: {stderr}");
}

#[test]
fn invalid_threads_env_var_exits_2() {
    let out = experiments()
        .env("RESILIENCE_THREADS", "0")
        .arg("e20")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("RESILIENCE_THREADS"), "stderr: {stderr}");
}

#[test]
fn threads_flag_overrides_env_var() {
    // The flag wins even when the env var is garbage-free but different.
    let out = experiments()
        .env("RESILIENCE_THREADS", "2")
        .args(["--threads", "1", "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 thread"), "stderr: {stderr}");
}

#[test]
fn json_output_round_trips_and_is_thread_invariant() {
    let run = |threads: &str| {
        let out = experiments()
            .args(["--json", "--threads", threads, "e20"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0));
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(serial, parallel, "stdout must not depend on thread count");
    let value: serde_json::Value = serde_json::from_str(&serial).expect("valid JSON");
    assert_eq!(value["id"], serde_json::Value::String("E20".into()));
}

#[test]
fn only_flag_selects_comma_separated_ids() {
    let out = experiments()
        .args(["--json", "--only", "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(value["id"], serde_json::Value::String("E20".into()));
    // Equivalent to positional selection.
    let positional = experiments()
        .args(["--json", "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(out.stdout, positional.stdout);
}

#[test]
fn only_flag_without_value_exits_2() {
    let out = experiments().arg("--only").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--only"), "stderr: {stderr}");
}

#[test]
fn only_flag_with_unknown_id_exits_2() {
    let out = experiments()
        .args(["--only", "e20,e99"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("e99"), "stderr: {stderr}");
}

#[test]
fn only_env_var_provides_default_selection() {
    let out = experiments()
        .env("RESILIENCE_ONLY", "e20")
        .arg("--json")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(value["id"], serde_json::Value::String("E20".into()));
}

#[test]
fn explicit_ids_override_only_env_var() {
    // The env var names e1, but the command line asks for e20.
    let out = experiments()
        .env("RESILIENCE_ONLY", "e1")
        .args(["--json", "--only", "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(value["id"], serde_json::Value::String("E20".into()));
}

#[test]
fn empty_only_env_var_exits_2() {
    let out = experiments()
        .env("RESILIENCE_ONLY", ",,")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("RESILIENCE_ONLY"), "stderr: {stderr}");
}

fn report_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("resilience-report-json-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn report_json_writes_the_supervised_run_report() {
    let path = report_path("chaos.json");
    let out = experiments()
        .args([
            "--fault-plan",
            "seed=7,panic=0.05,times=2",
            "--report-json",
            path.to_str().expect("utf8 path"),
            "--json",
            "e8",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let raw = std::fs::read_to_string(&path).expect("report file written");
    let reports: serde_json::Value = serde_json::from_str(&raw).expect("valid JSON");
    let reports = reports.as_array().expect("a JSON array of reports");
    assert_eq!(reports.len(), 1, "one report per experiment run");
    let report = &reports[0];
    assert_eq!(report["experiment"].as_str(), Some("e8"));
    assert!(report["trials"].as_u64().expect("trials") > 0);
    assert!(report["attempts"].as_u64().expect("attempts") > 0);
    assert!(
        report["faults_injected"].as_u64().expect("faults") > 0,
        "the plan must actually injure the run"
    );
    let r = report["resilience_loss"].as_f64().expect("resilience loss");
    assert!(
        r.is_finite() && r > 0.0,
        "injected faults must cost quality"
    );
    assert!(
        report["health"].as_object().is_some(),
        "health trajectory present"
    );
    assert!(report["lost"].as_array().is_some(), "lost trials present");
}

#[test]
fn report_json_without_a_fault_plan_records_a_clean_trajectory() {
    let path = report_path("clean.json");
    let out = experiments()
        .args([
            "--report-json",
            path.to_str().expect("utf8 path"),
            "--json",
            "e8",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let raw = std::fs::read_to_string(&path).expect("report file written");
    let reports: serde_json::Value = serde_json::from_str(&raw).expect("valid JSON");
    let report = &reports.as_array().expect("array")[0];
    assert_eq!(report["faults_injected"].as_u64(), Some(0));
    assert_eq!(
        report["resilience_loss"].as_f64(),
        Some(0.0),
        "a fault-free run loses no quality"
    );
}

#[test]
fn report_json_without_path_exits_2() {
    let out = experiments()
        .arg("--report-json")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--report-json"), "stderr: {stderr}");
}

#[test]
fn help_exits_0() {
    let out = experiments().arg("--help").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "stderr: {stderr}");
}

#[test]
fn resume_drops_a_torn_tail_cut_inside_a_multibyte_character() {
    let ckpt = report_path("torn-utf8.ckpt");
    let ckpt_arg = ckpt.to_str().expect("utf-8 temp path");
    let _ = std::fs::remove_file(ckpt.with_file_name("torn-utf8.ckpt.reports"));
    let first = experiments()
        .args(["--resume", ckpt_arg, "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(first.status.code(), Some(0));

    // A killed append-style writer leaves a prefix of the line behind;
    // cut it one byte into the line's first multi-byte character.
    let line = std::fs::read(&ckpt).expect("journal written");
    let cut = line
        .iter()
        .position(|&b| b >= 0x80)
        .expect("non-ASCII byte")
        + 1;
    let mut torn = line.clone();
    torn.extend_from_slice(&line[..cut]);
    std::fs::write(&ckpt, torn).expect("append torn tail");

    let resumed = experiments()
        .args(["--resume", ckpt_arg, "e20"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("e20: resumed from checkpoint"), "{stderr}");
    assert_eq!(resumed.stdout, first.stdout);
}

/// 200,000 unclosed `[`: deep enough to overflow the stack of a parser
/// that recursed without a nesting limit.
fn deeply_nested_line() -> Vec<u8> {
    vec![b'['; 200_000]
}

#[test]
fn resume_drops_a_deeply_nested_torn_tail() {
    for (name, newline) in [("deep-tail.ckpt", false), ("deep-tail-nl.ckpt", true)] {
        let ckpt = report_path(name);
        let ckpt_arg = ckpt.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(ckpt.with_file_name(format!("{name}.reports")));
        let first = experiments()
            .args(["--resume", ckpt_arg, "e20"])
            .output()
            .expect("binary runs");
        assert_eq!(first.status.code(), Some(0));

        let mut torn = std::fs::read(&ckpt).expect("journal written");
        torn.extend(deeply_nested_line());
        if newline {
            torn.push(b'\n');
        }
        std::fs::write(&ckpt, torn).expect("append deep tail");

        let resumed = experiments()
            .args(["--resume", ckpt_arg, "e20"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert_eq!(resumed.status.code(), Some(0), "stderr: {stderr}");
        assert!(stderr.contains("e20: resumed from checkpoint"), "{stderr}");
        assert_eq!(resumed.stdout, first.stdout);
    }
}

#[test]
fn deeply_nested_line_before_a_valid_one_is_corrupt() {
    let ckpt = report_path("deep-middle.ckpt");
    let ckpt_arg = ckpt.to_str().expect("utf-8 temp path");
    let _ = std::fs::remove_file(ckpt.with_file_name("deep-middle.ckpt.reports"));
    let first = experiments()
        .args(["--resume", ckpt_arg, "e20"])
        .output()
        .expect("binary runs");
    assert_eq!(first.status.code(), Some(0));

    let line = std::fs::read(&ckpt).expect("journal written");
    let mut corrupt = line.clone();
    corrupt.extend(deeply_nested_line());
    corrupt.push(b'\n');
    corrupt.extend_from_slice(&line);
    std::fs::write(&ckpt, corrupt).expect("write corrupt journal");

    let resumed = experiments()
        .args(["--resume", ckpt_arg, "e20"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("corrupt entry on line 2"), "{stderr}");
}

#[test]
fn validate_json_rejects_a_deeply_nested_document() {
    let deep = report_path("deep.json");
    std::fs::write(&deep, deeply_nested_line()).expect("write deep document");
    let schema = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/metrics.schema.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_validate_json"))
        .arg(schema)
        .arg(&deep)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("is not valid JSON"), "{stderr}");
}
