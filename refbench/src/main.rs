//! The reference benchmark.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE] [--trace-out FILE]
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! With `--workload`, runs that workload in this process and prints its
//! metrics, then one JSON result object as the last line of stdout.
//! Without it, runs every workload in turn, each in a child process of
//! its own, and prints a summary. `--trace 1` selects the traced pass
//! (per-layer metrics, self-time table, `--trace-out` chrome trace)
//! instead of the untraced one (end-to-end metrics). `--out` appends one
//! record per workload run to a JSON-lines file that `compare` reads.
//! The process exits non-zero when any operation or check failed.

// Failures surface as counted operation failures or usage errors, never
// bare `unwrap()` (the convention of the repository's bench binaries).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod calib;
mod cluster;
mod compare;
mod digest;
mod metrics;
mod serve;
mod spans;
mod stats;
mod verify;
mod workload;

use std::fs::OpenOptions;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use cluster::Cluster;
use metrics::{DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use serve::{Serve, Shape};
use verify::Verify;
use workload::RunResult;

/// Decision/report digests of every workload at the default seed.
const GOLDEN: &str = include_str!("../golden.txt");

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
        out: None,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; expected one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}; expected 0 or 1")),
                };
            }
            "--out" => args.out = Some(value()?),
            "--trace-out" => args.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn golden(workload: &str) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

fn run_workload(workload: &str, args: &Args) -> RunResult {
    let golden = (args.seed == DEFAULT_SEED)
        .then(|| golden(workload))
        .flatten();
    let (seed, seconds, traced) = (args.seed, args.seconds, args.traced);
    match workload {
        "serve_reactive" => workload::run(
            |s| Serve::setup(Shape::Reactive, s),
            seed,
            seconds,
            traced,
            golden,
        ),
        "serve_storm_traced" => workload::run(
            |s| Serve::setup(Shape::Storm, s),
            seed,
            seconds,
            traced,
            golden,
        ),
        "serve_replicated" => workload::run(
            |s| Serve::setup(Shape::Replicated, s),
            seed,
            seconds,
            traced,
            golden,
        ),
        "cluster_100k" => workload::run(Cluster::setup, seed, seconds, traced, golden),
        "verify_dcsp" => workload::run(Verify::setup, seed, seconds, traced, golden),
        other => unreachable!("workload {other} was validated at parse time"),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(r: &RunResult) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|(name, value, _)| {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            (
                name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(*value)),
                    ("unit".to_string(), Value::String(unit.to_string())),
                ]),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(r.correct())),
        ("attempted".to_string(), Value::UInt(r.attempted)),
        ("failed".to_string(), Value::UInt(r.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("result serializes")
}

fn append_record(path: &str, workload: &str, args: &Args, result: &str) -> Result<(), String> {
    let line = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{},\"result\":{result}}}\n",
        args.seed,
        u8::from(args.traced)
    );
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("cannot append to {path}: {e}"))
}

fn single(workload: &str, args: &Args) -> Result<bool, String> {
    let r = run_workload(workload, args);
    let pass = if args.traced { "traced" } else { "untraced" };
    println!(
        "{workload}: seed {} {pass} pass, {} ops attempted, {} failed",
        args.seed, r.attempted, r.failed
    );
    for e in &r.errors {
        eprintln!("FAIL {workload}: {e}");
    }
    println!("  {:<40} {:>16} {:<6} samples", "metric", "value", "unit");
    let mut zeros = 0;
    for (name, value, n) in &r.metrics {
        if r.spans.is_some() && *value == 0.0 {
            zeros += 1;
            continue;
        }
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("  {name:<40} {:>16} {unit:<6} {n}", compare::sig(*value));
    }
    if zeros > 0 {
        println!("  ({zeros} per-layer metrics read 0; the result line lists them)");
    }
    if let Some(rec) = &r.spans {
        println!("  {:<40} {:>16} {:<6} spans", "self time by span", "ms", "");
        for (name, count, ms) in rec.self_times() {
            println!("  {name:<40} {ms:>16.3} {:<6} {count}", "ms");
        }
        if let Some(path) = &args.trace_out {
            std::fs::write(path, rec.to_chrome_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    let line = result_json(&r);
    if let Some(path) = &args.out {
        append_record(path, workload, args, &line)?;
    }
    println!("{line}");
    Ok(r.correct())
}

/// Run every workload in a child process of its own, one after another.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut ok = true;
    let mut summary = Vec::new();
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(path) = &args.trace_out {
            let stem = path.strip_suffix(".json").unwrap_or(path);
            cmd.args(["--trace-out", &format!("{stem}-{workload}.json")]);
        }
        let output = cmd
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let result = stdout.lines().last().unwrap_or_default();
        let parsed = serde_json::parse_value_complete(result).ok();
        let passed = output.status.success()
            && parsed
                .as_ref()
                .is_some_and(|v| v["correct"] == Value::Bool(true));
        if let (Some(path), Some(_)) = (&args.out, &parsed) {
            append_record(path, workload, args, result)?;
        }
        ok &= passed;
        summary.push((workload, passed));
    }
    println!();
    for (workload, passed) in summary {
        println!("{workload:<20} {}", if passed { "ok" } else { "FAILED" });
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = if argv.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = argv.skip(1).collect();
        match files.as_slice() {
            [a, b] => std::fs::read_to_string(a)
                .and_then(|a_text| Ok((a_text, std::fs::read_to_string(b)?)))
                .map_err(|e| format!("cannot read run records: {e}"))
                .and_then(|(a_text, b_text)| compare::compare(&a_text, &b_text))
                .map(|worse| worse == 0),
            _ => Err("usage: benchmark compare A.jsonl B.jsonl".to_string()),
        }
    } else {
        parse_args(argv).and_then(|args| match &args.workload {
            Some(w) => single(w, &args),
            None => all(&args),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_run_arguments() {
        let a = parse(&[
            "--workload",
            "cluster_100k",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("cluster_100k"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 3.0, true));
        let d = parse(&[]).expect("defaults");
        assert_eq!(
            (d.seed, d.seconds, d.traced),
            (42, RUN_SECONDS as f64, false)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
    }

    #[test]
    fn every_workload_has_a_golden_digest() {
        for w in WORKLOADS {
            assert!(golden(w).is_some(), "{w} has no golden digest");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let r = RunResult {
            attempted: 3,
            failed: 0,
            errors: Vec::new(),
            metrics: vec![("op_ms_p50", 1.25, 3)],
            spans: None,
        };
        let v = serde_json::parse_value_complete(&result_json(&r)).expect("JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["metrics"]["op_ms_p50"]["unit"].as_str(), Some("ms"));
        assert_eq!(v["metrics"]["op_ms_p50"]["value"].as_f64(), Some(1.25));
    }
}
