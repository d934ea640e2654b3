//! One workload's run: set-up, untimed reference checks, then a closed
//! loop of operations for a fixed wall-clock budget, with timed set-up
//! batches between them — untraced for the end-to-end metrics, or
//! traced for the per-layer ones.
//!
//! End-to-end times are scaled to the reference host by the calibration
//! bursts around each operation and set-up batch (see `calib`);
//! per-layer times are raw wall times.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::calib;
use crate::metrics::{self, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{
    highest_tail_percentile, median, median_of_rounds, percentile, TAIL_PERCENTILE, TAIL_SAMPLES,
};

/// Timed set-up batches per run, spread evenly over the measured
/// window; `setup_s` is the median of their per-set-up means.
const SETUP_REPS: usize = 11;

/// Least wall time of one timed set-up batch.
const SETUP_BATCH: Duration = Duration::from_millis(2);

/// Equal slices of a run's operations; the tail and the throughput are
/// the median of their per-round values.
const ROUNDS: usize = 5;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A benchmark workload: its inputs, the operation it repeats, and the
/// checks every operation's output must pass. Built by a set-up
/// function of the seed, which `run` times.
pub trait Workload {
    type Out;

    /// Milliseconds the set-up spent generating its input.
    fn input_ms(&self) -> f64;

    /// Compute the reference outputs and check the invariants that must
    /// hold for every seed (untimed). Returns the digest the golden file
    /// pins for the default seed.
    fn prepare(&mut self) -> Result<u64, String>;

    /// Work items one operation completes: simulated requests,
    /// node-ticks, or damage cases plus states.
    fn work_per_op(&self) -> f64;

    /// Operation `i`. With a recorder, each layer call runs in its own
    /// span, inside the measurement loop's `op` span.
    fn op(&self, i: u64, rec: Option<&mut Recorder>) -> Self::Out;

    /// Check operation `i`'s output against the reference.
    fn check(&self, i: u64, out: &Self::Out) -> Result<(), String>;

    /// Replay probes after a traced operation, outside its `op` span.
    fn probe(&self, _i: u64, _out: &Self::Out, _rec: &mut Recorder) {}

    /// Per-layer metrics from the reference outputs and recorded spans.
    fn layers(&self, rec: &Recorder, layers: &mut Layers);
}

/// A finished run, ready to print.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// `(name, value, sample count)` for every metric of the pass.
    pub metrics: Vec<(&'static str, f64, usize)>,
    /// The traced pass's recorder.
    pub spans: Option<Recorder>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, i: u64, why: String) {
        self.failed += 1;
        // Keep the first few: one is enough to debug, thousands flood.
        if self.errors.len() < 5 {
            self.errors.push(format!("op {i}: {why}"));
        }
    }

    fn finish(
        self,
        metrics: Vec<(&'static str, f64, usize)>,
        spans: Option<Recorder>,
    ) -> RunResult {
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
            metrics,
            spans,
        }
    }
}

/// The timed set-up batches of a run. They run between operations, one
/// every `1 / SETUP_REPS` of the budget, so that, like the operations,
/// they sample the host's load over the whole run rather than over the
/// few milliseconds before the first operation.
struct Setups<F> {
    setup: F,
    seed: u64,
    per_batch: usize,
    budget: Duration,
    batches: usize,
    /// Input-generation ms each set-up reported.
    input_ms: Vec<f64>,
}

impl<F> Setups<F> {
    /// Time the next batch if it is due `elapsed` into the run; returns
    /// its raw wall ms per set-up. Each batch's results are dropped after
    /// its clock stops.
    fn tick<W: Workload>(&mut self, elapsed: Duration) -> Option<f64>
    where
        F: Fn(u64) -> W,
    {
        let due = self.budget.mul_f64(self.batches as f64 / SETUP_REPS as f64);
        if self.batches == SETUP_REPS || elapsed < due {
            return None;
        }
        self.batches += 1;
        let mut batch = Vec::with_capacity(self.per_batch);
        let t = Instant::now();
        for _ in 0..self.per_batch {
            batch.push((self.setup)(self.seed));
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 / self.per_batch as f64;
        self.input_ms.extend(batch.iter().map(W::input_ms));
        Some(ms)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Set up the workload from `seed`, check it, and measure it for
/// `seconds`. `golden` is the digest the reference must reproduce.
pub fn run<W: Workload>(
    setup: impl Fn(u64) -> W,
    seed: u64,
    seconds: f64,
    traced: bool,
    golden: Option<u64>,
) -> RunResult {
    // The first set-up is the one the run uses; it also sizes the timed
    // batches, so that a set-up of microseconds is not lost in timer and
    // scheduling noise.
    let t = Instant::now();
    let mut w = setup(seed);
    let per_batch = (SETUP_BATCH.as_secs_f64() / t.elapsed().as_secs_f64().max(1e-9))
        .ceil()
        .clamp(1.0, 100_000.0) as usize;
    let setups = Setups {
        setup,
        seed,
        per_batch,
        budget: Duration::from_secs_f64(seconds),
        batches: 0,
        input_ms: vec![w.input_ms()],
    };

    let mut tally = Tally::default();
    match catch_unwind(AssertUnwindSafe(|| w.prepare())) {
        Ok(Ok(digest)) => {
            if let Some(want) = golden.filter(|&want| want != digest) {
                tally.fail(
                    0,
                    format!("golden digest mismatch: want {want:016x}, got {digest:016x}"),
                );
            }
        }
        Ok(Err(why)) => tally.fail(0, format!("reference check: {why}")),
        Err(p) => tally.fail(0, format!("reference run panicked: {}", panic_message(&*p))),
    }
    if tally.failed > 0 {
        tally.attempted = 1;
        return tally.finish(Vec::new(), None);
    }

    if traced {
        traced_pass(&w, setups, tally)
    } else {
        untraced_pass(&w, setups, tally)
    }
}

fn untraced_pass<W: Workload>(
    w: &W,
    mut setups: Setups<impl Fn(u64) -> W>,
    mut tally: Tally,
) -> RunResult {
    let mut op_ms = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let start = Instant::now();
    let mut i = 0u64;
    let mut before = calib::burst_ms();
    while i == 0 || start.elapsed() < setups.budget {
        if let Some(ms) = setups.tick(start.elapsed()) {
            let after = calib::burst_ms();
            setup_s.push(calib::normalize(ms, before, after) / 1e3);
            before = after;
        }
        tally.attempted += 1;
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| black_box(w.op(i, None))));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let after = calib::burst_ms();
        let scaled = calib::normalize(ms, before, after);
        before = after;
        match out {
            Ok(out) => {
                op_ms.push(scaled);
                if let Err(why) = w.check(i, &out) {
                    tally.fail(i, why);
                }
            }
            Err(p) => tally.fail(i, format!("panicked: {}", panic_message(&*p))),
        }
        i += 1;
    }
    let done = op_ms.len();
    if highest_tail_percentile(done) < Some(TAIL_PERCENTILE) {
        eprintln!(
            "warning: {done} operations leave fewer than {TAIL_SAMPLES} samples beyond \
             p{TAIL_PERCENTILE}; op_ms_p{TAIL_PERCENTILE} is noisy"
        );
    }
    let mut metrics = vec![("setup_s", median(&setup_s), setup_s.len())];
    if done > 0 {
        let work = w.work_per_op();
        metrics.extend([
            ("op_ms_p50", median(&op_ms), done),
            (
                "op_ms_p90",
                median_of_rounds(&op_ms, ROUNDS, |r| percentile(r, TAIL_PERCENTILE)),
                done,
            ),
            (
                "work_per_s",
                median_of_rounds(&op_ms, ROUNDS, |r| {
                    work * r.len() as f64 / r.iter().sum::<f64>() * 1e3
                }),
                done,
            ),
        ]);
    }
    metrics.push(("peak_rss_mib", peak_rss_mib(), 1));
    tally.finish(metrics, None)
}

fn traced_pass<W: Workload>(
    w: &W,
    mut setups: Setups<impl Fn(u64) -> W>,
    mut tally: Tally,
) -> RunResult {
    let mut rec = Recorder::default();
    let mut untraced_ms = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed() < setups.budget {
        setups.tick(start.elapsed());
        tally.attempted += 1;
        rec.set_op(i);
        // The same operation untraced, interleaved with the traced one so
        // that load drift lands on both sides of the overhead ratio.
        let t = Instant::now();
        let plain = catch_unwind(AssertUnwindSafe(|| black_box(w.op(i, None))));
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(plain);
        let iteration = catch_unwind(AssertUnwindSafe(|| {
            let out = rec.span("op", |rec| w.op(i, Some(rec)));
            w.probe(i, &out, &mut rec);
            rec.span("bench.check", |_| w.check(i, &out))
        }));
        match iteration {
            Ok(Ok(())) => {}
            Ok(Err(why)) => tally.fail(i, why),
            Err(p) => {
                rec.close_all();
                tally.fail(i, format!("panicked: {}", panic_message(&*p)));
            }
        }
        i += 1;
    }

    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let op_ms = rec.durations("op");
    let overhead: Vec<f64> = op_ms.iter().zip(&untraced_ms).map(|(t, u)| t / u).collect();
    let mut layers = Layers::from([
        ("bench.op_ms_p50", med(&op_ms)),
        ("bench.untraced_op_ms_p50", median(&untraced_ms)),
        ("bench.span_overhead_ratio", med(&overhead)),
        ("bench.check_ms", med(&rec.durations("bench.check"))),
        ("input.generate_ms", median(&setups.input_ms)),
    ]);
    w.layers(&rec, &mut layers);
    for name in layers.keys() {
        assert!(
            metrics::find(name).is_some_and(|m| m.bound.is_none()),
            "workload reported {name}, which is not a per-layer metric"
        );
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                layers.get(m.name).copied().unwrap_or(0.0),
                op_ms.len(),
            )
        })
        .collect();
    tally.finish(metrics, Some(rec))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
