//! Byte-level oracle for `experiments --resume`.
//!
//! Two runs write a checkpoint journal and its `.reports` sidecar: a
//! fault-free `e20 e13`, and `e8` under a recoverable chaos plan. The
//! exact bytes of both files are pinned by FNV-1a digest (the chaos
//! sidecar is about 5 MB, too large for a fixture), so any change to the
//! journal format, the entry order or the serialization shows here. The
//! journals are written on two threads; the bytes are thread-invariant.
//! Each run is then resumed from its own journal, and the resumed stdout
//! must equal a fresh single-thread run byte for byte.
//!
//! When a change is *meant* to alter the journal bytes, the failure
//! message prints the new digest to paste over the pinned one.

use std::path::PathBuf;
use std::process::Command;

/// The recoverable plan of `chaos.rs`: every transient fault clears
/// within the retry budget.
const RECOVERABLE_PLAN: &str = "seed=7,panic=0.02,poison=0.02,times=2,retries=3,backoff_ms=0";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn experiments() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.env_remove("RESILIENCE_THREADS");
    cmd.env_remove("RESILIENCE_ONLY");
    cmd.env_remove("RESILIENCE_FAULTS");
    cmd
}

/// Run `experiments` with `args`, assert exit 0, return stdout.
fn run(args: &[&str]) -> Vec<u8> {
    let out = experiments().args(args).output().expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "experiments {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// A fresh journal path in a per-test scratch directory.
fn journal(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("resume-oracle");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join(format!("{name}.reports")));
    path
}

fn assert_digest(path: &PathBuf, expected: u64) {
    let bytes = std::fs::read(path).expect("journal written");
    let got = fnv1a(&bytes);
    assert_eq!(
        got,
        expected,
        "{} changed: digest is now {got:#018x} (expected {expected:#018x})",
        path.display()
    );
}

/// Write the journal under `plan` on two threads, pin both files, then
/// resume and compare against a fresh run.
fn check(name: &str, plan: &[&str], ids: &[&str], ckpt_digest: u64, reports_digest: u64) {
    let ckpt = journal(name);
    let ckpt_arg = ckpt.to_str().expect("utf-8 scratch path");
    let reports = ckpt.with_file_name(format!("{name}.reports"));
    let resume: Vec<&str> = ["--resume", ckpt_arg]
        .iter()
        .chain(plan)
        .chain(ids)
        .copied()
        .collect();

    let written = run(&[&["--threads", "2"][..], &resume].concat());
    assert_digest(&ckpt, ckpt_digest);
    assert_digest(&reports, reports_digest);

    let out = experiments().args(&resume).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for id in ids {
        assert!(
            stderr.contains(&format!("{id}: resumed from checkpoint")),
            "{stderr}"
        );
    }
    let fresh = run(&[&["--threads", "1"][..], plan, ids].concat());
    assert_eq!(written, fresh, "the journaling run matches a fresh run");
    assert_eq!(out.stdout, fresh, "a resumed run matches a fresh run");
    // Resuming rewrites nothing.
    assert_digest(&ckpt, ckpt_digest);
    assert_digest(&reports, reports_digest);
}

#[test]
fn fault_free_journal_bytes_are_pinned_and_resume_exactly() {
    check(
        "clean.ckpt",
        &[],
        &["e20", "e13"],
        0x2ee5_a6db_c6d1_da3d,
        0x2150_cf19_ff19_ac81,
    );
}

#[test]
fn chaos_journal_bytes_are_pinned_and_resume_exactly() {
    check(
        "chaos.ckpt",
        &["--fault-plan", RECOVERABLE_PLAN],
        &["e8"],
        0x93ad_d948_7b47_b15b,
        0x18a5_89d9_e4a4_0787,
    );
}
