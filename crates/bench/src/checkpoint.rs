//! Experiment-level resume journals for `experiments --resume`.
//!
//! A [`Journal`] is a JSON-lines file keyed by `(id, seed, faults)`. The
//! checkpoint holds one [`CheckpointEntry`] per completed experiment; its
//! `.reports` sidecar ([`sidecar_for`]) holds one [`ReportEntry`] per
//! supervised run, so a resumed run re-emits the identical stderr health
//! report (and derived telemetry) for experiments it did not re-run. A
//! checkpoint written without a sidecar resumes with its tables only.
//!
//! Every write is an *atomic replace* — the full journal is rendered to a
//! sibling temp file, synced, then renamed over the real path — so a kill
//! at any instant leaves either the previous or the new complete journal
//! on disk. A killed run therefore loses at most the experiment that was
//! in flight; `--resume <path>` replays the recorded tables verbatim
//! (every [`ExperimentTable`] field is a `String`, so the re-rendered
//! output is byte-identical) and computes only what is missing. Loading
//! still drops a torn final line, so journals from append-style writers,
//! or torn by filesystems without atomic rename, resume too.
//!
//! The faults key is the canonical fingerprint of the active fault
//! configuration ([`resilience_core::FaultConfig::to_spec`], empty when
//! faults are off), so a journal written under one seed or fault plan is
//! never replayed into a run with different parameters.

use crate::table::ExperimentTable;
use resilience_core::{CoreError, RunReport};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One line of a [`Journal`]: a JSON object keyed by `(id, seed, faults)`.
pub trait JournalEntry: Serialize + Deserialize {
    /// The entry's `(id, seed, faults)` key.
    fn key(&self) -> (&str, u64, &str);
}

/// One completed experiment in the checkpoint.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CheckpointEntry {
    /// Experiment id, e.g. "e4".
    pub id: String,
    /// Master seed the table was computed under.
    pub seed: u64,
    /// Canonical fault-config fingerprint ("" when faults are off).
    pub faults: String,
    /// The completed table, verbatim.
    pub table: ExperimentTable,
}

impl JournalEntry for CheckpointEntry {
    fn key(&self) -> (&str, u64, &str) {
        (&self.id, self.seed, &self.faults)
    }
}

/// One journaled supervised run report.
///
/// Serialized through [`RunReport::serialize_full`] rather than the
/// report's standard (summary) serialization, so the retained attempt
/// segments survive the round trip and a resumed run can re-derive the
/// exact event trace the original run would have produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportEntry {
    /// Experiment id, e.g. "e4".
    pub id: String,
    /// Master seed the run used.
    pub seed: u64,
    /// Canonical fault-config fingerprint ("" when faults are off).
    pub faults: String,
    /// The supervised run report, attempt segments included.
    pub report: RunReport,
}

impl JournalEntry for ReportEntry {
    fn key(&self) -> (&str, u64, &str) {
        (&self.id, self.seed, &self.faults)
    }
}

impl Serialize for ReportEntry {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("id".to_string(), Serialize::serialize(&self.id)),
            ("seed".to_string(), Serialize::serialize(&self.seed)),
            ("faults".to_string(), Serialize::serialize(&self.faults)),
            ("report".to_string(), self.report.serialize_full()),
        ])
    }
}

impl Deserialize for ReportEntry {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Object(entries) = v else {
            return Err(serde::DeError::new("expected object for ReportEntry"));
        };
        Ok(ReportEntry {
            id: Deserialize::deserialize(serde::object_field(entries, "id")?)?,
            seed: Deserialize::deserialize(serde::object_field(entries, "seed")?)?,
            faults: Deserialize::deserialize(serde::object_field(entries, "faults")?)?,
            report: Deserialize::deserialize(serde::object_field(entries, "report")?)?,
        })
    }
}

/// The report sidecar path for a checkpoint at `checkpoint_path`:
/// `<checkpoint_path>.reports`.
pub fn sidecar_for(checkpoint_path: &Path) -> PathBuf {
    with_suffix(checkpoint_path, "reports")
}

/// `path` with `.suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "journal".to_string());
    path.with_file_name(format!("{file_name}.{suffix}"))
}

/// A JSON-lines journal of entries keyed by `(id, seed, faults)`.
#[derive(Debug)]
pub struct Journal<E> {
    path: PathBuf,
    entries: Vec<E>,
}

impl<E: JournalEntry> Journal<E> {
    /// Open (or create) the journal at `path`, loading existing entries.
    ///
    /// A missing file is an empty journal and blank lines are skipped.
    /// The file is split on `\n` before any line is decoded, so a final
    /// line that is not UTF-8 or does not parse — the signature of a
    /// process killed mid-append, possibly inside a multi-byte character
    /// — is dropped silently. Such a line anywhere else is a
    /// [`CoreError::Checkpoint`] naming the path and the line.
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, CoreError> {
        let path = path.into();
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(checkpoint_err(&path, format!("read failed: {e}"))),
        };
        // Like `BufRead::lines`, a trailing newline ends the last line
        // rather than starting an empty one.
        let body = bytes.strip_suffix(b"\n").unwrap_or(&bytes);
        let lines: Vec<&[u8]> = body.split(|&b| b == b'\n').collect();
        let last = lines.len() - 1;
        let mut entries = Vec::new();
        for (i, line) in lines.into_iter().enumerate() {
            let parsed = match std::str::from_utf8(line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => serde_json::from_str::<E>(text).map_err(|e| e.to_string()),
                Err(e) => Err(format!("not UTF-8: {e}")),
            };
            match parsed {
                Ok(entry) => entries.push(entry),
                // Only the final line may be torn (kill mid-write).
                Err(_) if i == last => {}
                Err(e) => {
                    return Err(checkpoint_err(
                        &path,
                        format!("corrupt entry on line {}: {e}", i + 1),
                    ));
                }
            }
        }
        Ok(Journal { path, entries })
    }

    /// The journal's on-disk location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The entries on record, in journal order.
    pub fn entries(&self) -> &[E] {
        &self.entries
    }

    /// The first entry recorded for `(id, seed, faults)`, if this exact
    /// combination already completed.
    pub fn lookup(&self, id: &str, seed: u64, faults: &str) -> Option<&E> {
        self.entries.iter().find(|e| e.key() == (id, seed, faults))
    }

    /// Record an entry, persisting the journal immediately via an atomic
    /// replace: the whole journal (existing entries plus the new one) is
    /// written to a sibling temp file, synced, then renamed over the real
    /// path. A crash at any point leaves a complete journal on disk —
    /// either the old one or the new one. Journals are small (one line
    /// per experiment), so the full rewrite is cheap.
    pub fn record(&mut self, entry: E) -> Result<(), CoreError> {
        let mut rendered = String::new();
        for existing in self.entries.iter().chain(std::iter::once(&entry)) {
            let line = serde_json::to_string(existing)
                .map_err(|e| checkpoint_err(&self.path, format!("serialize failed: {e}")))?;
            rendered.push_str(&line);
            rendered.push('\n');
        }
        // The temp file must live in the same directory for the rename
        // to be atomic (cross-device renames are copies).
        let tmp = with_suffix(&self.path, "tmp");
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| checkpoint_err(&tmp, format!("create temp failed: {e}")))?;
        file.write_all(rendered.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| checkpoint_err(&tmp, format!("write temp failed: {e}")))?;
        drop(file);
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| checkpoint_err(&self.path, format!("atomic replace failed: {e}")))?;
        self.entries.push(entry);
        Ok(())
    }
}

fn checkpoint_err(path: &Path, detail: String) -> CoreError {
    CoreError::Checkpoint {
        reason: format!("{}: {detail}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(id: &str) -> ExperimentTable {
        ExperimentTable {
            id: id.to_uppercase(),
            title: "demo".into(),
            claim: "c".into(),
            headers: vec!["a".into()],
            rows: vec![vec!["1".into()]],
            finding: "f".into(),
            perf: None,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("resilience-ckpt-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn missing_file_is_empty_journal() {
        let ckpt = Journal::<CheckpointEntry>::load(tmp("missing.jsonl")).expect("load");
        assert!(ckpt.entries().is_empty());
    }

    #[test]
    fn round_trips_entries_keyed_by_id_seed_faults() {
        let path = tmp("roundtrip.jsonl");
        let mut ckpt = Journal::<CheckpointEntry>::load(&path).expect("load");
        ckpt.record(CheckpointEntry {
            id: "e1".into(),
            seed: 42,
            faults: String::new(),
            table: table("e1"),
        })
        .expect("record");
        drop(ckpt);

        let ckpt = Journal::<CheckpointEntry>::load(&path).expect("reload");
        assert_eq!(ckpt.entries().len(), 1);
        assert_eq!(
            ckpt.lookup("e1", 42, "").map(|e| &e.table),
            Some(&table("e1"))
        );
        assert_eq!(ckpt.lookup("e1", 7, ""), None, "different seed");
        assert_eq!(ckpt.lookup("e1", 42, "seed=1"), None, "different plan");
        assert_eq!(ckpt.lookup("e2", 42, ""), None, "different id");
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let path = tmp("torn.jsonl");
        let mut ckpt = Journal::<CheckpointEntry>::load(&path).expect("load");
        ckpt.record(CheckpointEntry {
            id: "e1".into(),
            seed: 1,
            faults: String::new(),
            table: table("e1"),
        })
        .expect("record");
        drop(ckpt);
        // Simulate an old append-style writer killed mid-append: a
        // half-written final line.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("append");
        write!(file, "{{\"id\":\"e2\",\"se").expect("torn write");
        drop(file);

        let ckpt = Journal::<CheckpointEntry>::load(&path).expect("reload tolerates torn tail");
        assert_eq!(ckpt.entries().len(), 1);
        assert!(ckpt.lookup("e1", 1, "").is_some());
    }

    #[test]
    fn truncated_tail_still_resumes_and_next_record_heals_the_file() {
        let path = tmp("truncated-resume.jsonl");
        let mut ckpt = Journal::<CheckpointEntry>::load(&path).expect("load");
        for (id, seed) in [("e1", 1u64), ("e2", 1)] {
            ckpt.record(CheckpointEntry {
                id: id.into(),
                seed,
                faults: String::new(),
                table: table(id),
            })
            .expect("record");
        }
        drop(ckpt);
        // Truncate the file mid-way through the last entry (a torn tail
        // from a non-atomic writer or filesystem).
        let contents = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &contents[..contents.len() - 20]).expect("truncate");

        // Resume: the torn entry is gone, the intact prefix survives.
        let mut ckpt = Journal::<CheckpointEntry>::load(&path).expect("resume from torn tail");
        assert_eq!(ckpt.entries().len(), 1);
        assert!(ckpt.lookup("e1", 1, "").is_some());
        assert!(ckpt.lookup("e2", 1, "").is_none(), "torn entry dropped");

        // Recording again rewrites the whole journal atomically: the
        // file on disk is complete and fully parseable afterwards.
        ckpt.record(CheckpointEntry {
            id: "e3".into(),
            seed: 1,
            faults: String::new(),
            table: table("e3"),
        })
        .expect("record heals");
        drop(ckpt);
        let healed = Journal::<CheckpointEntry>::load(&path).expect("healed journal loads");
        assert_eq!(healed.entries().len(), 2);
        assert!(healed.lookup("e1", 1, "").is_some());
        assert!(healed.lookup("e3", 1, "").is_some());
        // No half-written garbage anywhere: every line parses.
        let contents = std::fs::read_to_string(&path).expect("read");
        for line in contents.lines() {
            serde_json::from_str::<CheckpointEntry>(line).expect("every line is complete");
        }
    }

    #[test]
    fn stale_temp_file_is_ignored_and_replaced() {
        let path = tmp("stale-tmp.jsonl");
        let tmp_path = path.with_file_name("stale-tmp.jsonl.tmp");
        // A crash between temp-write and rename leaves a .tmp behind; it
        // must not confuse a later run.
        std::fs::write(&tmp_path, "half-written garbage").expect("write stale tmp");
        let mut ckpt = Journal::<CheckpointEntry>::load(&path).expect("load ignores stale tmp");
        assert!(ckpt.entries().is_empty());
        ckpt.record(CheckpointEntry {
            id: "e1".into(),
            seed: 9,
            faults: String::new(),
            table: table("e1"),
        })
        .expect("record replaces stale tmp");
        assert!(!tmp_path.exists(), "temp file renamed away");
        let reloaded = Journal::<CheckpointEntry>::load(&path).expect("reload");
        assert_eq!(reloaded.entries().len(), 1);
        let _ = std::fs::remove_file(&tmp_path);
    }

    #[test]
    fn report_journal_round_trips_segments_and_keys_like_the_checkpoint() {
        use resilience_core::faults::{AttemptRecord, AttemptSegment, FailureCause, LostTrial};

        let path = tmp("reports.jsonl.reports");
        let mut report = RunReport::new("e1");
        report.trials = 4;
        report.attempts = 5;
        report.faults_injected = 2;
        report.recovered = 1;
        report.lost = vec![LostTrial {
            stream: 0,
            trial: 2,
            cause: FailureCause::Panicked,
            detail: "boom".into(),
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

        let mut journal = Journal::<ReportEntry>::load(&path).expect("load");
        journal
            .record(ReportEntry {
                id: "e1".into(),
                seed: 42,
                faults: "seed=7".into(),
                report: report.clone(),
            })
            .expect("record");
        drop(journal);

        let journal = Journal::<ReportEntry>::load(&path).expect("reload");
        assert_eq!(journal.entries().len(), 1);
        let back = journal.lookup("e1", 42, "seed=7").expect("found");
        assert_eq!(back.report, report, "segments survive the round trip");
        assert_eq!(journal.lookup("e1", 42, ""), None, "different plan");
        assert_eq!(journal.lookup("e1", 7, "seed=7"), None, "different seed");
    }

    #[test]
    fn sidecar_path_appends_reports_extension() {
        assert_eq!(
            sidecar_for(Path::new("/x/run.ckpt")),
            PathBuf::from("/x/run.ckpt.reports")
        );
    }

    #[test]
    fn corruption_before_the_final_line_is_an_error() {
        let path = tmp("corrupt.jsonl");
        // Bad JSON, and a line cut inside a multi-byte character.
        for bytes in [
            &b"not json at all\n{\"also\":\"bad\"}\n"[..],
            b"{\"id\":\"\xe2\x80\"}\n\n",
        ] {
            std::fs::write(&path, bytes).expect("write");
            let err = Journal::<CheckpointEntry>::load(&path).unwrap_err();
            assert!(matches!(err, CoreError::Checkpoint { .. }));
            assert!(
                err.to_string()
                    .contains("corrupt.jsonl: corrupt entry on line 1"),
                "{err}"
            );
        }
    }
}
