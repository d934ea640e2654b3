//! Byte-identity safety net for the `serve --compare*` drivers.
//!
//! Each comparison driver is spawned on the stock 600-request seed-42
//! trace (where every driver's own acceptance gates pass) and its stdout
//! hashed with FNV-1a. The output has no wall-time fields, so it is fully
//! deterministic; the one build-dependent field, `meta.profile`, is
//! normalised before hashing so the digests hold for debug and release
//! builds alike. `--compare-modes` additionally hashes the three
//! exposition files it writes for the anticipatory arm.
//!
//! When a change is *meant* to alter a driver's output, the failure
//! message prints the new digest to paste over the pinned one.

use std::path::PathBuf;
use std::process::Command;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run `serve` with `args` on the stock trace; return its stdout with
/// the build profile normalised.
fn compare_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .env_remove("RESILIENCE_THREADS")
        .args(["--requests", "600", "--seed", "42"])
        .args(args)
        .output()
        .expect("serve binary runs");
    assert!(
        out.status.success(),
        "serve {args:?} failed its own gates: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf8 stdout")
        .replace("\"profile\": \"debug\"", "\"profile\": \"release\"")
}

fn assert_digest(what: &str, bytes: &[u8], expected: u64) {
    let got = fnv1a(bytes);
    assert_eq!(
        got, expected,
        "{what} changed: digest is now {got:#018x} (expected {expected:#018x})"
    );
}

/// A per-test scratch directory under the target dir.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn compare_degradation_stdout_is_pinned() {
    let out = compare_stdout(&["--compare"]);
    assert_digest(
        "serve --compare stdout",
        out.as_bytes(),
        0xeba2_2d01_fb9a_b609,
    );
}

#[test]
fn compare_modes_stdout_and_expositions_are_pinned() {
    let dir = scratch("compare_golden_modes");
    let path = |f: &str| dir.join(f).to_string_lossy().into_owned();
    let (metrics, prom, pm) = (path("metrics.json"), path("metrics.prom"), path("pm.json"));
    let out = compare_stdout(&[
        "--compare-modes",
        "--metrics-out",
        &metrics,
        "--prom-out",
        &prom,
        "--postmortem-out",
        &pm,
    ]);
    assert_digest(
        "serve --compare-modes stdout",
        out.as_bytes(),
        0x7b79_407b_c35d_7996,
    );
    let read = |p: &str| std::fs::read(p).expect("exposition written");
    assert_digest(
        "--compare-modes --metrics-out",
        &read(&metrics),
        0x8dac_ef6e_0a02_5d99,
    );
    assert_digest(
        "--compare-modes --prom-out",
        &read(&prom),
        0x5cf9_b021_9171_7b6a,
    );
    assert_digest(
        "--compare-modes --postmortem-out",
        &read(&pm),
        0xe2f6_46ec_0afc_ed63,
    );
}

#[test]
fn compare_redundancy_stdout_is_pinned() {
    let out = compare_stdout(&["--compare-redundancy"]);
    assert_digest(
        "serve --compare-redundancy stdout",
        out.as_bytes(),
        0x6a09_5f0a_fc9f_f328,
    );
}
