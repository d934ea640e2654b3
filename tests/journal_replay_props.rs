//! Property test: replaying a resume journal cannot panic.
//!
//! `experiments --resume` loads two JSON-lines journals — the experiment
//! checkpoint ([`CheckpointEntry`]) and its run-report sidecar
//! ([`ReportEntry`]) — through one [`Journal::load`]. A killed writer or
//! a damaged disk can leave any bytes after the last complete line, so
//! each case takes a valid journal and appends an arbitrary tail: a cut
//! prefix of a real line (possibly inside a multi-byte character),
//! random bytes (possibly invalid UTF-8), and sometimes an embedded
//! newline. Under `catch_unwind`, `load` must
//!
//! * never panic;
//! * return `Ok`, with the valid entries first, or a
//!   `CoreError::Checkpoint` naming the file and a line of the tail;
//! * when the tail holds no `\n`, return exactly the valid entries — plus
//!   the tail itself, if it happens to parse as an entry.

use std::fmt::Debug;
use std::panic::catch_unwind;
use std::path::PathBuf;

use proptest::collection::vec;
use proptest::prelude::*;
use resilience_bench::checkpoint::JournalEntry;
use resilience_bench::{CheckpointEntry, ExperimentTable, Journal, ReportEntry};
use systems_resilience::core::{
    AttemptRecord, AttemptSegment, CoreError, FailureCause, LostTrial, RunReport,
};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("journal-replay-props");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn checkpoint_entries() -> Vec<CheckpointEntry> {
    ["e1", "e2"]
        .into_iter()
        .map(|id| CheckpointEntry {
            id: id.into(),
            seed: 42,
            faults: String::new(),
            table: ExperimentTable {
                id: id.to_uppercase(),
                title: "Recovery — within k steps".into(),
                claim: "§4.2: every shock of type D is repaired".into(),
                headers: vec!["k".into(), "recovered".into()],
                rows: vec![vec!["2".into(), "100 %".into()]],
                finding: "ok".into(),
                perf: None,
            },
        })
        .collect()
}

fn report_entries() -> Vec<ReportEntry> {
    let mut report = RunReport::new("e8");
    report.trials = 4;
    report.attempts = 5;
    report.faults_injected = 2;
    report.recovered = 1;
    report.lost = vec![LostTrial {
        stream: 0,
        trial: 2,
        cause: FailureCause::Panicked,
        detail: "injected — boom".into(),
    }];
    report.segments = vec![AttemptSegment {
        trials: 4,
        log: vec![AttemptRecord {
            trial: 2,
            attempt: 0,
            ok: false,
        }],
        lost: vec![2],
    }];
    vec![ReportEntry {
        id: "e8".into(),
        seed: 7,
        faults: "seed=7,panic=0.02".into(),
        report,
    }]
}

/// The bytes the journal writer produces for `entries`.
fn journal_bytes<E: JournalEntry + Clone>(name: &str, entries: &[E]) -> Vec<u8> {
    let path = scratch(name);
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::<E>::load(&path).expect("fresh journal");
    for entry in entries {
        journal.record(entry.clone()).expect("record");
    }
    std::fs::read(&path).expect("journal written")
}

/// The tail a case appends: the first `cut` bytes of a real line, then
/// `noise`, with byte `newline` (when in range) replaced by `\n`.
fn tail(line: &[u8], cut: usize, noise: &[u8], newline: usize) -> Vec<u8> {
    let mut tail = line[..cut % (line.len() + 1)].to_vec();
    tail.extend_from_slice(noise);
    if let Some(b) = tail.get_mut(newline) {
        *b = b'\n';
    }
    tail
}

/// Load `valid ++ tail` under `catch_unwind` and check the contract.
fn check_replay<E>(name: &str, valid: &[E], tail: &[u8]) -> Result<(), String>
where
    E: JournalEntry + Clone + PartialEq + Debug,
{
    let mut bytes = journal_bytes(name, valid);
    let valid_lines = bytes.iter().filter(|&&b| b == b'\n').count();
    bytes.extend_from_slice(tail);
    let path = scratch(name);
    std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;

    let loaded = catch_unwind(|| Journal::<E>::load(&path))
        .map_err(|_| "Journal::load panicked".to_string())?;
    match loaded {
        Ok(journal) => {
            let entries = journal.entries();
            prop_assert!(
                entries.len() >= valid.len() && entries[..valid.len()] == *valid,
                "valid entries lost or reordered: {entries:?}"
            );
            if !tail.contains(&b'\n') {
                let mut expected = valid.to_vec();
                expected.extend(
                    std::str::from_utf8(tail)
                        .ok()
                        .and_then(|text| serde_json::from_str::<E>(text).ok()),
                );
                prop_assert_eq!(entries, expected.as_slice());
            }
        }
        Err(CoreError::Checkpoint { reason }) => {
            // A torn final line is dropped, so only a tail that starts
            // another line can be an error.
            prop_assert!(tail.contains(&b'\n'), "torn tail rejected: {reason}");
            prop_assert!(
                reason.contains(&path.display().to_string()),
                "error must name the file: {reason}"
            );
            let line: usize = reason
                .split("line ")
                .nth(1)
                .and_then(|rest| rest.split(':').next())
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("error must name the line: {reason}"))?;
            prop_assert!(
                line > valid_lines,
                "only a tail line can be corrupt, got line {line}: {reason}"
            );
        }
        Err(other) => return Err(format!("unexpected error kind: {other}")),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Checkpoint replay survives any tail.
    #[test]
    fn checkpoint_replay_never_panics(
        cut in 0usize..1024,
        noise in vec(any::<u8>(), 0..24),
        newline in 0usize..96,
    ) {
        let valid = checkpoint_entries();
        let bytes = journal_bytes("checkpoint-line", &valid[..1]);
        let tail = tail(&bytes[..bytes.len() - 1], cut, &noise, newline);
        check_replay("checkpoint.ckpt", &valid, &tail)?;
    }

    /// Report-sidecar replay survives any tail.
    #[test]
    fn report_replay_never_panics(
        cut in 0usize..4096,
        noise in vec(any::<u8>(), 0..24),
        newline in 0usize..96,
    ) {
        let valid = report_entries();
        let bytes = journal_bytes("report-line", &valid);
        let tail = tail(&bytes[..bytes.len() - 1], cut, &noise, newline);
        check_replay("reports.ckpt.reports", &valid, &tail)?;
    }
}
