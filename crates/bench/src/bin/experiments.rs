//! Regenerate the paper-reproduction tables (E1–E22 plus the
//! `cluster_*` cascade-simulator experiments).
//!
//! Usage:
//!
//! ```bash
//! experiments                 # run everything, Markdown to stdout
//! experiments e4 e15          # selected experiments
//! experiments --only e4,e15   # same, comma-separated
//! experiments --only 'cluster_*'  # trailing `*` selects by prefix
//! experiments --seed 7 e12    # override the master seed
//! experiments --json e1       # machine-readable output
//! experiments --threads 4     # parallel Monte Carlo (same tables!)
//! experiments --fault-plan seed=7,panic=0.02,times=2 e1   # chaos mode
//! experiments --resume run.ckpt e1 e2                     # resumable run
//! ```
//!
//! The thread budget can also be set with `RESILIENCE_THREADS`; the
//! `--threads` flag wins when both are given. Likewise a default
//! experiment selection can be set with `RESILIENCE_ONLY` (comma-
//! separated ids, e.g. `RESILIENCE_ONLY=e2,e3`) and a default fault
//! plan with `RESILIENCE_FAULTS` (same `key=value` spec as
//! `--fault-plan`); explicit command-line values win over the
//! environment in both cases.
//!
//! Tables are a pure function of the seed — any thread count produces
//! bit-identical output, only the wall-time (reported on stderr)
//! changes. The same holds under a *recoverable* fault plan: injected
//! panics, delays, and poisoned results are retried from a fresh
//! per-trial rng, so the tables match the fault-free run bit for bit.
//! Trials that exhaust the retry budget are dropped from the fold and
//! reported (stderr run report + a `> **partial table**` annotation in
//! Markdown mode) — the run degrades, it never aborts.
//!
//! `--resume <path>` journals each completed experiment to `path`
//! (JSON lines, flushed per experiment) and replays already-journaled
//! tables on restart, so killing a run and re-issuing the same command
//! produces byte-identical output to an uninterrupted run. Supervised
//! run reports are journaled alongside the tables in a `<path>.reports`
//! sidecar, so a resumed experiment re-emits the *identical* stderr
//! health report (and partial-table annotation) the uninterrupted run
//! would have printed — resumed and live runs report the same R.
//!
//! `--report-json <path>` writes the supervised run reports — health
//! trajectory, Bruneau resilience loss, retry counts, lost trials — as
//! a JSON array, one element per selected experiment (journaled
//! reports from a `--resume` sidecar are included, so resumed and
//! uninterrupted runs produce the same array). Without a fault plan
//! the runs are wrapped in panic-isolation-only supervision so the
//! report exists and records a fault-free trajectory.
//!
//! `--trace-out <path>` derives the structured telemetry event trace —
//! retries, supervisor plans, lost trials — from each run report and
//! writes a JSON array of `{id, events}` documents. The trace is a
//! pure function of the report, so it is bit-identical for any
//! `--threads` value and identical between resumed and live runs.
//!
//! `--metrics-out <path>` folds each run report into a metrics
//! registry (`runtime_*` family) and writes a JSON array of
//! `{id, prometheus}` documents carrying the Prometheus text
//! exposition. Like the trace, it is a pure function of the report:
//! bit-identical for any `--threads` value, with or without a
//! recoverable fault plan.
//!
//! `--postmortem-out <path>` derives a trial-loss incident bundle from
//! each run report: every lost trial becomes one flight-recorder
//! trigger, rendered as a `resilience-incident/v1` postmortem
//! (validated by `schemas/incident.schema.json`). A JSON array of
//! `{id, bundle}` documents, pure function of the reports — so it is
//! bit-identical for any `--threads` value and identical between
//! resumed and live runs.

// Drivers surface failures as `die(...)` usage errors or documented
// panics, never bare `unwrap()`.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use resilience_bench::experiments::registry;
use resilience_bench::{CheckpointEntry, ExperimentCheckpoint, ReportEntry, ReportJournal};
use resilience_core::faults::LostTrial;
use resilience_core::{FaultConfig, RunContext, RunReport, Supervision};
use resilience_telemetry::{record_run_events, record_run_metrics, MetricsRegistry, Tracer};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 42u64;
    let mut json = false;
    let mut threads = env_threads();
    let mut fault_spec = env_faults();
    let mut resume_path: Option<String> = None;
    let mut report_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut postmortem_out: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let raw = it.next().unwrap_or_else(|| die("--seed needs an integer"));
                seed = raw
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--seed needs an integer, got `{raw}`")));
            }
            "--threads" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| die("--threads needs an integer"));
                threads = raw
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--threads needs an integer, got `{raw}`")));
                if threads == 0 {
                    die("--threads must be at least 1");
                }
            }
            "--json" => json = true,
            "--fault-plan" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| die("--fault-plan needs a key=value spec"));
                fault_spec = Some(raw);
            }
            "--resume" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| die("--resume needs a checkpoint path"));
                resume_path = Some(raw);
            }
            "--report-json" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| die("--report-json needs an output path"));
                report_json = Some(raw);
            }
            "--trace-out" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| die("--trace-out needs an output path"));
                trace_out = Some(raw);
            }
            "--metrics-out" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| die("--metrics-out needs an output path"));
                metrics_out = Some(raw);
            }
            "--postmortem-out" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| die("--postmortem-out needs an output path"));
                postmortem_out = Some(raw);
            }
            "--only" => {
                let list = it
                    .next()
                    .unwrap_or_else(|| die("--only needs a comma-separated id list"));
                wanted.extend(parse_id_list(&list));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--seed N] [--threads N] [--json] \
                     [--fault-plan SPEC] [--resume PATH] [--report-json PATH] \
                     [--trace-out PATH] [--metrics-out PATH] [--postmortem-out PATH] \
                     [--only e2,e3,cluster_*] [e1 e2 ... e22 cluster_attack ...]"
                );
                return;
            }
            other => wanted.push(other.to_ascii_lowercase()),
        }
    }
    let faults: Option<FaultConfig> = fault_spec.map(|spec| {
        FaultConfig::parse(&spec).unwrap_or_else(|err| die(&format!("bad fault plan: {err}")))
    });
    let fingerprint = faults
        .as_ref()
        .map(FaultConfig::to_spec)
        .unwrap_or_default();
    let mut checkpoint = resume_path
        .map(|path| ExperimentCheckpoint::load(path).unwrap_or_else(|err| die(&format!("{err}"))));
    let mut report_journal = checkpoint.as_ref().map(|ckpt| {
        ReportJournal::load(ReportJournal::sidecar_for(ckpt.path()))
            .unwrap_or_else(|err| die(&format!("{err}")))
    });
    if wanted.is_empty() {
        // Fall back to the environment's default selection.
        match std::env::var("RESILIENCE_ONLY") {
            Ok(list) => {
                wanted = parse_id_list(&list);
                if wanted.is_empty() {
                    die("RESILIENCE_ONLY must name at least one experiment");
                }
            }
            Err(std::env::VarError::NotPresent) => {}
            Err(std::env::VarError::NotUnicode(raw)) => {
                die(&format!("RESILIENCE_ONLY is not valid unicode: {raw:?}"))
            }
        }
    }
    let reg = registry();
    let selected: Vec<_> = if wanted.is_empty() {
        reg
    } else {
        for w in &wanted {
            if !reg.iter().any(|(id, _)| matches_selection(id, w)) {
                die(&format!(
                    "unknown experiment `{w}` (expected e1..e22 or cluster_*; \
                     a trailing `*` selects by prefix)"
                ));
            }
        }
        reg.into_iter()
            .filter(|(id, _)| wanted.iter().any(|w| matches_selection(id, w)))
            .collect()
    };
    let wants_reports = report_json.is_some() || trace_out.is_some() || postmortem_out.is_some();
    let mut reports: Vec<(String, RunReport)> = Vec::new();
    for (id, runner) in selected {
        if let Some(table) = checkpoint
            .as_ref()
            .and_then(|c| c.lookup(id, seed, &fingerprint))
        {
            eprintln!("{id}: resumed from checkpoint");
            // Replay the journaled run report so a resumed run tells the
            // same health story — same stderr report, same partial-table
            // annotation, same R — as the uninterrupted run.
            let mut lost: Vec<LostTrial> = Vec::new();
            if let Some(report) = report_journal
                .as_ref()
                .and_then(|j| j.lookup(id, seed, &fingerprint))
            {
                eprintln!("{report}");
                lost = report.lost.clone();
                if wants_reports {
                    reports.push((id.to_string(), report.clone()));
                }
            }
            emit(table, json);
            emit_lost_note(&lost, json);
            continue;
        }
        eprintln!("running {id}…");
        let mut ctx = RunContext::with_threads(seed, threads);
        if let Some(cfg) = &faults {
            ctx = ctx.supervised(Supervision::new(id, cfg.clone()));
        } else if wants_reports || report_journal.is_some() {
            // A report was asked for (or will be journaled) but no
            // faults are planned: wrap the run in isolation-only
            // supervision so the health trajectory is still recorded.
            ctx = ctx.supervised(Supervision::isolation(id));
        }
        let start = Instant::now();
        let mut table = runner(&ctx);
        let perf = resilience_bench::PerfSummary {
            wall_secs: start.elapsed().as_secs_f64(),
            threads,
            trials: ctx.trials_run(),
        };
        table.perf = Some(perf);
        match perf.trials_per_sec() {
            Some(rate) => eprintln!(
                "{id}: {:.3}s on {threads} thread(s), {} trials ({:.0} trials/s)",
                perf.wall_secs, perf.trials, rate
            ),
            None => eprintln!("{id}: {:.3}s on {threads} thread(s)", perf.wall_secs),
        }
        let lost = match ctx.run_report() {
            Some(report) => {
                // The run's own health trajectory, scored like any other
                // system the harness studies.
                eprintln!("{report}");
                let lost = report.lost.clone();
                if let Some(journal) = report_journal.as_mut() {
                    journal
                        .record(ReportEntry {
                            id: id.to_string(),
                            seed,
                            faults: fingerprint.clone(),
                            report: report.clone(),
                        })
                        .unwrap_or_else(|err| die(&format!("{err}")));
                }
                if wants_reports {
                    reports.push((id.to_string(), report));
                }
                lost
            }
            None => Vec::new(),
        };
        emit(&table, json);
        emit_lost_note(&lost, json);
        if let Some(ckpt) = checkpoint.as_mut() {
            ckpt.record(CheckpointEntry {
                id: id.to_string(),
                seed,
                faults: fingerprint.clone(),
                table,
            })
            .unwrap_or_else(|err| die(&format!("{err}")));
        }
    }
    if let Some(path) = &report_json {
        let bare: Vec<&RunReport> = reports.iter().map(|(_, r)| r).collect();
        let rendered = serde_json::to_string_pretty(&bare).expect("reports render");
        std::fs::write(path, format!("{rendered}\n"))
            .unwrap_or_else(|err| die(&format!("cannot write --report-json {path}: {err}")));
        eprintln!("{} run report(s) written to {path}", bare.len());
    }
    if let Some(path) = &trace_out {
        let docs: Vec<serde::Value> = reports
            .iter()
            .map(|(id, report)| {
                let mut tracer = Tracer::new();
                record_run_events(&mut tracer, report);
                serde::Value::Object(vec![
                    ("id".to_string(), serde::Serialize::serialize(id)),
                    (
                        "events".to_string(),
                        serde::Serialize::serialize(&tracer.merged()),
                    ),
                ])
            })
            .collect();
        let rendered = serde_json::to_string_pretty(&docs).expect("traces render");
        std::fs::write(path, format!("{rendered}\n"))
            .unwrap_or_else(|err| die(&format!("cannot write --trace-out {path}: {err}")));
        eprintln!("{} event trace(s) written to {path}", docs.len());
    }
    if let Some(path) = &metrics_out {
        let docs: Vec<serde::Value> = reports
            .iter()
            .map(|(id, report)| {
                let mut registry = MetricsRegistry::new();
                record_run_metrics(&mut registry, report);
                serde::Value::Object(vec![
                    ("id".to_string(), serde::Serialize::serialize(id)),
                    (
                        "prometheus".to_string(),
                        serde::Serialize::serialize(&registry.to_prometheus()),
                    ),
                ])
            })
            .collect();
        let rendered = serde_json::to_string_pretty(&docs).expect("metrics render");
        std::fs::write(path, format!("{rendered}\n"))
            .unwrap_or_else(|err| die(&format!("cannot write --metrics-out {path}: {err}")));
        eprintln!("{} metrics exposition(s) written to {path}", docs.len());
    }
    if let Some(path) = &postmortem_out {
        use resilience_telemetry::{postmortem_bundle, CausalTracer, FlightRecorder, TriggerKind};
        let docs: Vec<serde::Value> = reports
            .iter()
            .map(|(id, report)| {
                // Each lost trial is one trigger, anchored at the trial
                // index (the Monte-Carlo fold has no tick clock). The
                // causal tracer is empty here: supervised trials carry
                // no span sketches, so the bundle documents the losses
                // themselves.
                let causal = CausalTracer::new();
                let mut recorder = FlightRecorder::new();
                for l in &report.lost {
                    recorder.trigger(
                        &causal,
                        l.trial,
                        TriggerKind::TrialLoss,
                        0,
                        format!(
                            "stream {} trial {}: {} ({})",
                            l.stream, l.trial, l.cause, l.detail
                        ),
                    );
                }
                let incidents = recorder.finalize(&causal, &[]);
                serde::Value::Object(vec![
                    ("id".to_string(), serde::Serialize::serialize(id)),
                    (
                        "bundle".to_string(),
                        postmortem_bundle(&format!("experiments/{id}"), &incidents, &causal),
                    ),
                ])
            })
            .collect();
        let rendered = serde_json::to_string_pretty(&docs).expect("postmortems render");
        std::fs::write(path, format!("{rendered}\n"))
            .unwrap_or_else(|err| die(&format!("cannot write --postmortem-out {path}: {err}")));
        eprintln!("{} postmortem bundle(s) written to {path}", docs.len());
    }
}

/// Does experiment `id` match selection token `w`? A trailing `*`
/// matches by prefix (`cluster_*`); anything else matches exactly.
fn matches_selection(id: &str, w: &str) -> bool {
    match w.strip_suffix('*') {
        Some(prefix) => id.starts_with(prefix),
        None => id == w,
    }
}

/// Print the partial-table annotation for lost trials (Markdown mode
/// only), identically for live and resumed runs.
fn emit_lost_note(lost: &[LostTrial], json: bool) {
    if !lost.is_empty() && !json {
        let trials: Vec<String> = lost.iter().map(|l| l.trial.to_string()).collect();
        println!(
            "> **partial table:** {} trial(s) lost after exhausting the retry \
             budget (trial {})\n",
            lost.len(),
            trials.join(", ")
        );
    }
}

/// Print one table to stdout in the selected format.
fn emit(table: &resilience_bench::ExperimentTable, json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(table).expect("tables serialize")
        );
    } else {
        println!("{}", table.to_markdown());
    }
}

/// Split a comma-separated experiment-id list, lowercased, skipping
/// empty segments (so trailing commas are harmless).
fn parse_id_list(raw: &str) -> Vec<String> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_ascii_lowercase)
        .collect()
}

/// Thread budget from `RESILIENCE_THREADS` (default 1; rejects 0).
fn env_threads() -> usize {
    match std::env::var("RESILIENCE_THREADS") {
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => die(&format!(
                "RESILIENCE_THREADS must be a positive integer, got `{raw}`"
            )),
        },
        Err(std::env::VarError::NotPresent) => 1,
        Err(std::env::VarError::NotUnicode(raw)) => {
            die(&format!("RESILIENCE_THREADS is not valid unicode: {raw:?}"))
        }
    }
}

/// Default fault plan from `RESILIENCE_FAULTS` (validated later with
/// the same strict parser as `--fault-plan`).
fn env_faults() -> Option<String> {
    match std::env::var("RESILIENCE_FAULTS") {
        Ok(raw) => Some(raw),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(raw)) => {
            die(&format!("RESILIENCE_FAULTS is not valid unicode: {raw:?}"))
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
