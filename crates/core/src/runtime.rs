//! Deterministic parallel Monte Carlo runtime with self-healing
//! supervision.
//!
//! Every experiment in the workspace is a pure function of a master seed.
//! This module keeps that property while fanning trials out across
//! threads: [`ParallelTrials::run`] seeds trial `i` with
//! [`derive_seed`]`(master, i)` and folds results **in trial-index
//! order**, so the reduction is bit-identical no matter how many worker
//! threads execute the trials — `threads = 1` is simply the serial path
//! with no thread machinery at all.
//!
//! [`RunContext`] carries the master seed and thread budget into each
//! experiment, counts the trials executed, and is what the `experiments`
//! binary uses to report wall-time and trials/sec per experiment.
//!
//! A context can additionally be [`RunContext::supervised`]: trials then
//! run under per-trial panic isolation ([`std::panic::catch_unwind`]),
//! deterministic fault injection from a [`FaultPlan`], bounded retries
//! with capped exponential backoff, optional per-attempt deadlines, and
//! a supervisor thread running a small MAPE-K loop (Monitor worker
//! events, Analyze failures against the retry budget, Plan backed-off
//! re-dispatches, Execute them through the work queue, with the attempt
//! log as its Knowledge base). Because a retried trial re-seeds its rng
//! from scratch, recovered trials reproduce their fault-free results
//! bit-for-bit; trials that exhaust the budget are *lost* — the fold
//! skips them and the [`RunReport`] names them — instead of aborting the
//! process.

use crate::error::CoreError;
use crate::faults::{
    AttemptRecord, AttemptSegment, FailureCause, FaultKind, LostTrial, RunReport, Supervision,
    TrialCheckpoint,
};
use crate::rng::{derive_seed, seeded_rng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-run inputs shared by every experiment: the master seed and the
/// worker-thread budget, plus a running count of Monte Carlo trials for
/// throughput reporting.
#[derive(Debug)]
pub struct RunContext {
    /// Master seed; every random stream in the experiment derives from it.
    pub seed: u64,
    threads: usize,
    trials_run: AtomicU64,
    supervision: Option<Supervision>,
    report: Mutex<Option<RunReport>>,
}

impl RunContext {
    /// Serial context (one worker thread).
    pub fn new(seed: u64) -> Self {
        Self::with_threads(seed, 1)
    }

    /// Context with an explicit thread budget.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(seed: u64, threads: usize) -> Self {
        assert!(threads >= 1, "thread budget must be at least 1");
        RunContext {
            seed,
            threads,
            trials_run: AtomicU64::new(0),
            supervision: None,
            report: Mutex::new(None),
        }
    }

    /// Enable fault-injection supervision: every subsequent
    /// [`RunContext::run_trials`] call runs under panic isolation, the
    /// plan's injected faults, and the recovery policy, and contributes
    /// to the aggregated [`RunContext::run_report`].
    pub fn supervised(mut self, supervision: Supervision) -> Self {
        let experiment = supervision.experiment.clone();
        self.supervision = Some(supervision);
        self.report = Mutex::new(Some(RunReport::new(experiment)));
        self
    }

    /// The active supervision settings, if any.
    pub fn supervision(&self) -> Option<&Supervision> {
        self.supervision.as_ref()
    }

    /// The aggregated self-measurement of all supervised `run_trials`
    /// calls so far (`None` for unsupervised contexts).
    pub fn run_report(&self) -> Option<RunReport> {
        self.report
            .lock()
            .expect("run report mutex poisoned")
            .clone()
    }

    /// The worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sub-seed for stream `stream` of this run (see [`derive_seed`]).
    pub fn derive(&self, stream: u64) -> u64 {
        derive_seed(self.seed, stream)
    }

    /// Total Monte Carlo trials executed through this context so far.
    pub fn trials_run(&self) -> u64 {
        self.trials_run.load(Ordering::Relaxed)
    }

    /// Record `n` trials executed outside [`RunContext::run_trials`]
    /// (e.g. a sequential simulation loop that still counts as work).
    pub fn record_trials(&self, n: u64) {
        self.trials_run.fetch_add(n, Ordering::Relaxed);
    }

    /// Partition `0..total` into contiguous chunks on this context's
    /// thread budget and fold the partial results in chunk order. See
    /// [`ParallelTrials::run_ranges`]. Records `total` work items.
    pub fn run_ranges<T, Acc, F, R>(
        &self,
        total: u64,
        chunk_size: u64,
        range_fn: F,
        init: Acc,
        reduce: R,
    ) -> Acc
    where
        T: Send,
        F: Fn(std::ops::Range<u64>) -> T + Sync,
        R: FnMut(Acc, T) -> Acc,
    {
        self.record_trials(total);
        ParallelTrials::new(self.threads).run_ranges(total, chunk_size, range_fn, init, reduce)
    }

    /// Run `n_trials` seeded trials on this context's thread budget and
    /// fold the results in trial order. See [`ParallelTrials::run`].
    ///
    /// On a [`RunContext::supervised`] context the trials run under the
    /// fault-injection and recovery layer instead (see
    /// [`ParallelTrials::run_supervised`]); trials lost after exhausting
    /// the retry budget are skipped by the fold, never aborting the run.
    pub fn run_trials<T, Acc, F, R>(
        &self,
        n_trials: u64,
        master_seed: u64,
        trial_fn: F,
        init: Acc,
        reduce: R,
    ) -> Acc
    where
        T: Send,
        F: Fn(u64, &mut ChaCha8Rng) -> T + Sync,
        R: FnMut(Acc, T) -> Acc,
    {
        self.record_trials(n_trials);
        if let Some(sup) = &self.supervision {
            let (acc, report) = ParallelTrials::new(self.threads).run_supervised(
                sup,
                n_trials,
                master_seed,
                trial_fn,
                init,
                reduce,
            );
            let mut agg = self.report.lock().expect("run report mutex poisoned");
            match agg.as_mut() {
                Some(existing) => existing.merge(report),
                None => *agg = Some(report),
            }
            acc
        } else {
            ParallelTrials::new(self.threads).run(n_trials, master_seed, trial_fn, init, reduce)
        }
    }

    /// Like [`RunContext::run_trials`], but resumable: completed trials
    /// are journaled into `checkpoint` (appended and flushed as each one
    /// finishes, so a killed process loses at most in-flight work), and
    /// trials already present in the journal are *not* re-executed — the
    /// fold consumes their recorded results instead, in trial order, so
    /// a resumed run is bit-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] if a recorded value fails to serialize,
    /// append, or deserialize; trials computed before the error are
    /// preserved in the journal.
    pub fn run_trials_resumable<T, Acc, F, R>(
        &self,
        n_trials: u64,
        master_seed: u64,
        checkpoint: &mut TrialCheckpoint,
        trial_fn: F,
        init: Acc,
        mut reduce: R,
    ) -> Result<Acc, CoreError>
    where
        T: serde::Serialize + serde::Deserialize + Send,
        F: Fn(u64, &mut ChaCha8Rng) -> T + Sync,
        R: FnMut(Acc, T) -> Acc,
    {
        // Deserialize what the journal already holds.
        let mut done: BTreeMap<u64, T> = BTreeMap::new();
        for trial in 0..n_trials {
            if let Some(v) = checkpoint.value::<T>(trial)? {
                done.insert(trial, v);
            }
        }
        let missing: Vec<u64> = (0..n_trials).filter(|t| !done.contains_key(t)).collect();

        // Execute the missing trials (supervised or not), journaling each
        // completion from inside the trial closure so progress survives a
        // kill at any point.
        let journal: Mutex<(&mut TrialCheckpoint, Option<CoreError>)> =
            Mutex::new((checkpoint, None));
        let missing_ref = &missing;
        let fresh: Vec<(u64, T)> = self.run_trials(
            missing.len() as u64,
            master_seed,
            |slot, _| {
                let trial = missing_ref[usize::try_from(slot).expect("slot fits usize")];
                let mut rng = seeded_rng(derive_seed(master_seed, trial));
                let value = trial_fn(trial, &mut rng);
                let mut j = journal.lock().expect("journal mutex poisoned");
                if j.1.is_none() {
                    if let Err(e) = j.0.record(trial, &value) {
                        j.1 = Some(e);
                    }
                }
                (trial, value)
            },
            Vec::new(),
            |mut acc, pair| {
                acc.push(pair);
                acc
            },
        );
        if let Some(e) = journal.into_inner().expect("journal mutex poisoned").1 {
            return Err(e);
        }
        done.extend(fresh);
        Ok(done.into_values().fold(init, &mut reduce))
    }
}

/// A work-distributing executor for independent Monte Carlo trials.
///
/// Trials are claimed by worker threads one index at a time from a shared
/// atomic counter (so imbalanced trial costs still load-balance), but the
/// *output* never depends on the schedule: trial `i` always runs on an rng
/// seeded with `derive_seed(master_seed, i)`, and the reduction folds
/// results sorted by trial index.
#[derive(Debug, Clone, Copy)]
pub struct ParallelTrials {
    threads: usize,
}

impl ParallelTrials {
    /// An executor with the given thread budget.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "thread budget must be at least 1");
        ParallelTrials { threads }
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `n_trials` independent trials and fold their results.
    ///
    /// `trial_fn(i, rng)` computes trial `i` on an rng seeded with
    /// `derive_seed(master_seed, i)`; `reduce` folds `init` over the
    /// results in ascending trial order. The returned accumulator is
    /// bit-identical for every thread budget.
    pub fn run<T, Acc, F, R>(
        &self,
        n_trials: u64,
        master_seed: u64,
        trial_fn: F,
        init: Acc,
        mut reduce: R,
    ) -> Acc
    where
        T: Send,
        F: Fn(u64, &mut ChaCha8Rng) -> T + Sync,
        R: FnMut(Acc, T) -> Acc,
    {
        let workers = self
            .threads
            .min(usize::try_from(n_trials).unwrap_or(usize::MAX));
        if workers <= 1 {
            let mut acc = init;
            for idx in 0..n_trials {
                let mut rng = seeded_rng(derive_seed(master_seed, idx));
                acc = reduce(acc, trial_fn(idx, &mut rng));
            }
            return acc;
        }

        let next = AtomicU64::new(0);
        let results: Mutex<Vec<(u64, T)>> =
            Mutex::new(Vec::with_capacity(usize::try_from(n_trials).unwrap_or(0)));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(u64, T)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n_trials {
                            break;
                        }
                        let mut rng = seeded_rng(derive_seed(master_seed, idx));
                        local.push((idx, trial_fn(idx, &mut rng)));
                    }
                    results
                        .lock()
                        .expect("trial result mutex poisoned")
                        .append(&mut local);
                });
            }
        });

        let mut collected = results.into_inner().expect("trial result mutex poisoned");
        collected.sort_unstable_by_key(|(idx, _)| *idx);
        debug_assert_eq!(collected.len() as u64, n_trials);
        collected
            .into_iter()
            .fold(init, |acc, (_, value)| reduce(acc, value))
    }

    /// Run `n_trials` trials under the fault-injection and self-healing
    /// layer: per-trial panic isolation, deterministic injected faults
    /// from `supervision.config.plan`, bounded retries with capped
    /// exponential backoff, optional per-attempt deadlines, and a
    /// supervisor thread (a MAPE-K loop) that monitors worker events,
    /// re-dispatches failed trials, and abandons a trial only after its
    /// retry budget is exhausted.
    ///
    /// Determinism contract: a retried trial re-seeds its rng from
    /// scratch, so any trial that *completes* contributes exactly the
    /// value it would produce fault-free, and the fold (ascending trial
    /// order, lost trials skipped) is bit-identical for every thread
    /// budget. Under a plan whose faults are all recoverable within the
    /// policy (see [`crate::faults::FaultPlan::recoverable_under`]) the
    /// result equals the unsupervised run bit-for-bit.
    ///
    /// Returns the accumulator plus the run's [`RunReport`] — including
    /// the health trajectory in deterministic logical time and its
    /// Bruneau score.
    pub fn run_supervised<T, Acc, F, R>(
        &self,
        supervision: &Supervision,
        n_trials: u64,
        master_seed: u64,
        trial_fn: F,
        init: Acc,
        reduce: R,
    ) -> (Acc, RunReport)
    where
        T: Send,
        F: Fn(u64, &mut ChaCha8Rng) -> T + Sync,
        R: FnMut(Acc, T) -> Acc,
    {
        let mut report = RunReport::new(supervision.experiment.clone());
        report.trials = n_trials;
        if n_trials == 0 {
            report.health = RunReport::health_from_log(0, &mut Vec::new());
            return (init, report);
        }
        quiet_panic_hook::install();

        let plan = &supervision.config.plan;
        let policy = &supervision.config.policy;
        let experiment = supervision.experiment.as_str();
        let workers = self
            .threads
            .min(usize::try_from(n_trials).unwrap_or(usize::MAX))
            .max(1);

        let next_fresh = AtomicU64::new(0);
        let faults_injected = AtomicU64::new(0);
        let queue: Mutex<WorkQueue> = Mutex::new(WorkQueue {
            retries: std::collections::VecDeque::new(),
            done: false,
        });
        let idle = Condvar::new();
        let (tx, rx) = mpsc::channel::<Event<T>>();

        let run_attempt = |trial: u64, attempt: u32, events: &mpsc::Sender<Event<T>>| {
            let fault = plan.fires(experiment, master_seed, trial, attempt);
            if fault.is_some() {
                faults_injected.fetch_add(1, Ordering::Relaxed);
            }
            let started = Instant::now();
            let caught = quiet_panic_hook::suppressed(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    if fault == Some(FaultKind::Panic) {
                        panic!("injected fault: panic (trial {trial}, attempt {attempt})");
                    }
                    // A gray backend is a slow success: to the runtime it
                    // is a delay that never fails.
                    if fault == Some(FaultKind::Delay) || fault == Some(FaultKind::Gray) {
                        std::thread::sleep(plan.delay);
                    }
                    let mut rng = seeded_rng(derive_seed(master_seed, trial));
                    trial_fn(trial, &mut rng)
                }))
            });
            let outcome = match caught {
                Err(payload) => {
                    Outcome::Fail(FailureCause::Panicked, panic_message(payload.as_ref()))
                }
                Ok(value) => {
                    if fault == Some(FaultKind::Poison) {
                        Outcome::Fail(
                            FailureCause::Poisoned,
                            format!("injected fault: poisoned result (trial {trial})"),
                        )
                    } else if policy.deadline.is_some_and(|d| started.elapsed() > d) {
                        Outcome::Fail(
                            FailureCause::DeadlineExceeded,
                            format!("attempt exceeded the per-trial deadline (trial {trial})"),
                        )
                    } else {
                        Outcome::Ok(value)
                    }
                }
            };
            // The supervisor owns the receiving end for the whole scope.
            let _ = events.send(Event {
                trial,
                attempt,
                outcome,
            });
        };

        let supervised = std::thread::scope(|scope| {
            for _ in 0..workers {
                let events = tx.clone();
                scope.spawn(|| {
                    let events = events;
                    loop {
                        // Re-dispatched work first, then fresh trials,
                        // then block until the supervisor produces more
                        // work or declares the run finished.
                        let mut job = {
                            let mut q = queue.lock().expect("work queue mutex poisoned");
                            if q.done && q.retries.is_empty() {
                                return;
                            }
                            q.retries.pop_front()
                        };
                        if job.is_none() {
                            let fresh = next_fresh.fetch_add(1, Ordering::Relaxed);
                            if fresh < n_trials {
                                job = Some((fresh, 0));
                            }
                        }
                        let (trial, attempt) = match job {
                            Some(job) => job,
                            None => {
                                let mut q = queue.lock().expect("work queue mutex poisoned");
                                loop {
                                    if let Some(job) = q.retries.pop_front() {
                                        break job;
                                    }
                                    if q.done {
                                        return;
                                    }
                                    q = idle
                                        .wait_timeout(q, Duration::from_millis(1))
                                        .expect("work queue mutex poisoned")
                                        .0;
                                }
                            }
                        };
                        run_attempt(trial, attempt, &events);
                    }
                });
            }
            drop(tx);

            // The MAPE-K supervisor: Monitor events, Analyze failures
            // against the retry budget, Plan backed-off re-dispatches,
            // Execute them through the work queue; the attempt log is its
            // knowledge base (and the source of the health trajectory).
            let supervisor = scope.spawn(|| supervise(n_trials, policy, rx, &queue, &idle));
            supervisor.join().expect("supervisor thread panicked")
        });

        let SupervisorVerdict {
            results,
            mut log,
            recovered,
            mut lost,
        } = supervised;
        // The supervisor records losses as events arrive, i.e. in
        // thread-schedule order; the report lists them by trial.
        lost.sort_unstable_by_key(|&(trial, _, _)| trial);
        report.attempts = log.len() as u64;
        report.faults_injected = faults_injected.load(Ordering::Relaxed);
        report.recovered = recovered;
        report.lost = lost
            .into_iter()
            .map(|(trial, cause, detail)| LostTrial {
                stream: master_seed,
                trial,
                cause,
                detail,
            })
            .collect();
        report.health = RunReport::health_from_log(n_trials, &mut log);
        // Retain the sorted log so telemetry can replay the supervisor's
        // decisions (retries, plans, losses) in logical order post-run.
        report.segments = vec![AttemptSegment {
            trials: n_trials,
            log,
            lost: report.lost.iter().map(|l| l.trial).collect(),
        }];
        let acc = results.into_iter().flatten().fold(init, reduce);
        (acc, report)
    }

    /// Partition the index space `0..total` into contiguous chunks of at
    /// most `chunk_size` items, evaluate `range_fn` on each chunk, and
    /// fold the partial results **in ascending chunk order**.
    ///
    /// This is the deterministic-fold primitive for exhaustive sweeps
    /// (rather than seeded Monte Carlo trials): chunks are claimed by
    /// worker threads from a shared counter for load balancing, but the
    /// reduction order — and therefore the result — never depends on the
    /// schedule or the thread budget.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn run_ranges<T, Acc, F, R>(
        &self,
        total: u64,
        chunk_size: u64,
        range_fn: F,
        init: Acc,
        mut reduce: R,
    ) -> Acc
    where
        T: Send,
        F: Fn(std::ops::Range<u64>) -> T + Sync,
        R: FnMut(Acc, T) -> Acc,
    {
        assert!(chunk_size >= 1, "chunk size must be at least 1");
        let n_chunks = total.div_ceil(chunk_size);
        let chunk_range = |c: u64| (c * chunk_size)..((c + 1) * chunk_size).min(total);
        let workers = self
            .threads
            .min(usize::try_from(n_chunks).unwrap_or(usize::MAX));
        if workers <= 1 {
            let mut acc = init;
            for c in 0..n_chunks {
                acc = reduce(acc, range_fn(chunk_range(c)));
            }
            return acc;
        }

        let next = AtomicU64::new(0);
        let results: Mutex<Vec<(u64, T)>> =
            Mutex::new(Vec::with_capacity(usize::try_from(n_chunks).unwrap_or(0)));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(u64, T)> = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        local.push((c, range_fn(chunk_range(c))));
                    }
                    results
                        .lock()
                        .expect("chunk result mutex poisoned")
                        .append(&mut local);
                });
            }
        });

        let mut collected = results.into_inner().expect("chunk result mutex poisoned");
        collected.sort_unstable_by_key(|(c, _)| *c);
        debug_assert_eq!(collected.len() as u64, n_chunks);
        collected
            .into_iter()
            .fold(init, |acc, (_, value)| reduce(acc, value))
    }
}

/// Re-dispatch queue shared between the supervisor and the workers.
#[derive(Debug)]
struct WorkQueue {
    retries: std::collections::VecDeque<(u64, u32)>,
    done: bool,
}

/// One adjudicable worker event: the outcome of a single attempt.
struct Event<T> {
    trial: u64,
    attempt: u32,
    outcome: Outcome<T>,
}

enum Outcome<T> {
    Ok(T),
    Fail(FailureCause, String),
}

/// What the supervisor hands back once every trial is accounted for.
struct SupervisorVerdict<T> {
    /// Per-trial results in index order; `None` marks a lost trial.
    results: Vec<Option<T>>,
    /// Every adjudicated attempt (the MAPE-K knowledge base).
    log: Vec<AttemptRecord>,
    /// Trials that failed at least once but ultimately completed.
    recovered: u64,
    /// `(trial, final cause, detail)` for abandoned trials.
    lost: Vec<(u64, FailureCause, String)>,
}

/// The supervisor loop. Runs on its own thread until `completed + lost`
/// accounts for every trial, then flips the queue's `done` flag and
/// wakes every idle worker.
fn supervise<T>(
    n_trials: u64,
    policy: &crate::faults::RecoveryPolicy,
    events: mpsc::Receiver<Event<T>>,
    queue: &Mutex<WorkQueue>,
    idle: &Condvar,
) -> SupervisorVerdict<T> {
    let n = usize::try_from(n_trials).expect("trial count fits usize");
    let mut results: Vec<Option<T>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let mut failures: Vec<u32> = vec![0; n];
    let mut log: Vec<AttemptRecord> = Vec::new();
    let mut recovered = 0u64;
    let mut lost: Vec<(u64, FailureCause, String)> = Vec::new();
    // Plan phase output: re-dispatches waiting out their backoff.
    let mut pending: std::collections::BinaryHeap<std::cmp::Reverse<(Instant, u64, u32)>> =
        std::collections::BinaryHeap::new();
    let mut settled = 0u64;

    while settled < n_trials {
        // Monitor: wait for worker events, but never past the next
        // planned re-dispatch.
        let timeout = pending
            .peek()
            .map(|std::cmp::Reverse((at, _, _))| at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(5))
            .min(Duration::from_millis(5));
        let first = match events.recv_timeout(timeout) {
            Ok(event) => Some(event),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // All workers exited with trials unaccounted for —
                // impossible unless a worker thread itself died; abandon
                // what remains rather than spinning forever.
                for (trial, slot) in results.iter().enumerate() {
                    if slot.is_none() && !lost.iter().any(|(t, _, _)| *t == trial as u64) {
                        lost.push((
                            trial as u64,
                            FailureCause::Panicked,
                            "worker pool died before the trial settled".to_string(),
                        ));
                    }
                }
                break;
            }
        };
        for event in first.into_iter().chain(events.try_iter()) {
            let idx = usize::try_from(event.trial).expect("trial fits usize");
            match event.outcome {
                Outcome::Ok(value) => {
                    log.push(AttemptRecord {
                        trial: event.trial,
                        attempt: event.attempt,
                        ok: true,
                    });
                    if failures[idx] > 0 {
                        recovered += 1;
                    }
                    results[idx] = Some(value);
                    settled += 1;
                }
                Outcome::Fail(cause, detail) => {
                    log.push(AttemptRecord {
                        trial: event.trial,
                        attempt: event.attempt,
                        ok: false,
                    });
                    failures[idx] += 1;
                    // Analyze: still within the paper's k-budget?
                    if failures[idx] >= policy.max_attempts() {
                        lost.push((event.trial, cause, detail));
                        settled += 1;
                    } else {
                        // Plan: re-dispatch after capped exponential
                        // backoff.
                        let eligible = Instant::now() + policy.backoff_for(failures[idx]);
                        pending.push(std::cmp::Reverse((
                            eligible,
                            event.trial,
                            event.attempt + 1,
                        )));
                    }
                }
            }
        }
        // Execute: release every re-dispatch whose backoff elapsed.
        let now = Instant::now();
        let mut released = false;
        while pending
            .peek()
            .is_some_and(|std::cmp::Reverse((at, _, _))| *at <= now)
        {
            if let Some(std::cmp::Reverse((_, trial, attempt))) = pending.pop() {
                queue
                    .lock()
                    .expect("work queue mutex poisoned")
                    .retries
                    .push_back((trial, attempt));
                released = true;
            }
        }
        if released {
            idle.notify_all();
        }
    }

    queue.lock().expect("work queue mutex poisoned").done = true;
    idle.notify_all();
    SupervisorVerdict {
        results,
        log,
        recovered,
        lost,
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Keeps injected/isolated panics from spraying the default panic
/// message onto stderr while leaving every other thread's panics — and
/// every other test's — untouched: the hook installed here delegates to
/// the previously installed hook unless the current thread has opted
/// into suppression for the duration of a `catch_unwind`.
mod quiet_panic_hook {
    use std::cell::Cell;
    use std::sync::Once;

    thread_local! {
        static SUPPRESS: Cell<bool> = const { Cell::new(false) };
    }

    /// Install the delegating hook (once per process).
    pub(super) fn install() {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !SUPPRESS.with(Cell::get) {
                    previous(info);
                }
            }));
        });
    }

    /// Run `f` with this thread's panics suppressed.
    pub(super) fn suppressed<R>(f: impl FnOnce() -> R) -> R {
        SUPPRESS.with(|s| s.set(true));
        let out = f();
        SUPPRESS.with(|s| s.set(false));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn mean_of_trials(threads: usize, n_trials: u64, master: u64) -> Vec<f64> {
        ParallelTrials::new(threads).run(
            n_trials,
            master,
            |idx, rng| idx as f64 + rng.gen::<f64>(),
            Vec::new(),
            |mut acc, x| {
                acc.push(x);
                acc
            },
        )
    }

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        for n_trials in [0u64, 1, 3, 17, 160] {
            let serial = mean_of_trials(1, n_trials, 42);
            for threads in [2, 4, 7] {
                let parallel = mean_of_trials(threads, n_trials, 42);
                assert_eq!(serial, parallel, "n_trials={n_trials} threads={threads}");
            }
        }
    }

    #[test]
    fn reduction_is_in_trial_order() {
        let order = ParallelTrials::new(4).run(
            100,
            7,
            |idx, _| idx,
            Vec::new(),
            |mut acc, idx| {
                acc.push(idx);
                acc
            },
        );
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn trials_use_derived_seeds() {
        let draws = ParallelTrials::new(3).run(
            8,
            99,
            |_, rng| rng.gen::<u64>(),
            Vec::new(),
            |mut acc, x| {
                acc.push(x);
                acc
            },
        );
        let expected: Vec<u64> = (0..8)
            .map(|i| seeded_rng(derive_seed(99, i)).gen::<u64>())
            .collect();
        assert_eq!(draws, expected);
    }

    #[test]
    fn context_counts_trials() {
        let ctx = RunContext::with_threads(1, 2);
        let total: u64 = ctx.run_trials(50, ctx.seed, |_, _| 1u64, 0, |acc, x| acc + x);
        assert_eq!(total, 50);
        ctx.record_trials(10);
        assert_eq!(ctx.trials_run(), 60);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_rejected() {
        let _ = ParallelTrials::new(0);
    }

    fn ranges_of(threads: usize, total: u64, chunk: u64) -> Vec<std::ops::Range<u64>> {
        ParallelTrials::new(threads).run_ranges(
            total,
            chunk,
            |r| r,
            Vec::new(),
            |mut acc, r| {
                acc.push(r);
                acc
            },
        )
    }

    #[test]
    fn run_ranges_covers_everything_in_order() {
        for (total, chunk) in [(0u64, 5u64), (1, 5), (10, 3), (12, 4), (100, 7)] {
            let serial = ranges_of(1, total, chunk);
            // Contiguous, ordered, exact cover of 0..total.
            let mut expected_start = 0;
            for r in &serial {
                assert_eq!(r.start, expected_start);
                assert!(r.end - r.start <= chunk);
                expected_start = r.end;
            }
            assert_eq!(expected_start, total);
            for threads in [2, 4, 7] {
                assert_eq!(
                    serial,
                    ranges_of(threads, total, chunk),
                    "total={total} chunk={chunk} threads={threads}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn run_ranges_rejects_zero_chunk() {
        let _ = ranges_of(1, 10, 0);
    }

    #[test]
    fn context_run_ranges_records_work() {
        let ctx = RunContext::with_threads(1, 3);
        let sum: u64 = ctx.run_ranges(20, 6, |r| r.end - r.start, 0, |acc, x| acc + x);
        assert_eq!(sum, 20);
        assert_eq!(ctx.trials_run(), 20);
    }

    #[test]
    fn context_derive_matches_free_function() {
        let ctx = RunContext::new(5);
        assert_eq!(ctx.derive(11), derive_seed(5, 11));
    }

    // -----------------------------------------------------------------
    // Supervised execution: fault injection, recovery, degradation.
    // -----------------------------------------------------------------

    use crate::faults::{FaultConfig, FaultPlan, RecoveryPolicy, Supervision};
    use std::time::Duration;

    fn draws(ctx: &RunContext, n: u64, master: u64) -> Vec<u64> {
        ctx.run_trials(
            n,
            master,
            |idx, rng| idx ^ rng.gen::<u64>(),
            Vec::new(),
            |mut acc, x| {
                acc.push(x);
                acc
            },
        )
    }

    fn chaos_config() -> FaultConfig {
        FaultConfig::parse(
            "seed=11,panic=0.2,delay=0.05,delay_ms=1,poison=0.15,times=2,retries=3,backoff_ms=1",
        )
        .expect("valid chaos spec")
    }

    #[test]
    fn supervised_quiet_plan_matches_unsupervised_bitwise() {
        let clean = draws(&RunContext::new(42), 64, 7);
        for threads in [1usize, 2, 4] {
            let ctx = RunContext::with_threads(42, threads)
                .supervised(Supervision::isolation("quiet-test"));
            assert_eq!(draws(&ctx, 64, 7), clean, "threads={threads}");
            let report = ctx.run_report().expect("supervised context reports");
            assert_eq!(report.trials, 64);
            assert_eq!(report.attempts, 64);
            assert_eq!(report.faults_injected, 0);
            assert_eq!(report.recovered, 0);
            assert!(report.lost.is_empty());
            assert_eq!(report.resilience_loss(), 0.0);
        }
    }

    #[test]
    fn recoverable_faults_leave_results_bit_identical() {
        let cfg = chaos_config();
        assert!(cfg.plan.recoverable_under(&cfg.policy));
        let clean = draws(&RunContext::new(42), 96, 13);
        for threads in [1usize, 2, 4] {
            let ctx = RunContext::with_threads(42, threads)
                .supervised(Supervision::new("chaos-test", cfg.clone()));
            assert_eq!(draws(&ctx, 96, 13), clean, "threads={threads}");
            let report = ctx.run_report().expect("supervised context reports");
            assert!(report.faults_injected > 0, "plan must actually fire");
            assert!(report.recovered > 0, "failed slots must recover");
            assert!(report.lost.is_empty(), "all faults are recoverable");
            assert!(report.attempts > report.trials);
            assert!(
                report.resilience_loss() > 0.0,
                "a disturbed run scores a nonzero resilience triangle"
            );
        }
    }

    #[test]
    fn supervised_reports_are_thread_invariant() {
        let cfg = chaos_config();
        let reports: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                let ctx = RunContext::with_threads(9, threads)
                    .supervised(Supervision::new("report-test", cfg.clone()));
                let _ = draws(&ctx, 80, 3);
                ctx.run_report().expect("report")
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
    }

    #[test]
    fn genuine_panic_is_isolated_and_degrades_gracefully() {
        let policy = RecoveryPolicy {
            retries: 2,
            backoff: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
            deadline: None,
        };
        let cfg = FaultConfig {
            plan: FaultPlan::none(),
            policy,
        };
        for threads in [1usize, 4] {
            let ctx = RunContext::with_threads(1, threads)
                .supervised(Supervision::new("panic-test", cfg.clone()));
            // Trial 3 always panics — a deterministic genuine bug.
            let kept: Vec<u64> = ctx.run_trials(
                8,
                5,
                |idx, _| {
                    if idx == 3 {
                        panic!("trial bug at index 3");
                    }
                    idx
                },
                Vec::new(),
                |mut acc, x| {
                    acc.push(x);
                    acc
                },
            );
            assert_eq!(kept, vec![0, 1, 2, 4, 5, 6, 7], "threads={threads}");
            let report = ctx.run_report().expect("report");
            assert_eq!(report.lost.len(), 1);
            assert_eq!(report.lost[0].trial, 3);
            assert_eq!(report.lost[0].cause, crate::faults::FailureCause::Panicked);
            assert!(
                report.lost[0].detail.contains("trial bug"),
                "detail = {:?}",
                report.lost[0].detail
            );
            // 1 + 2 retries on the doomed slot, 7 clean slots.
            assert_eq!(report.attempts, 10);
            assert!(
                report.resilience_loss() > 0.0,
                "an unrecovered slot leaves the health trajectory degraded"
            );
        }
    }

    #[test]
    fn permanent_faults_are_lost_deterministically() {
        let cfg =
            FaultConfig::parse("seed=3,permanent=0.15,retries=2,backoff_ms=1").expect("valid spec");
        let run = |threads: usize| {
            let ctx = RunContext::with_threads(4, threads)
                .supervised(Supervision::new("perm-test", cfg.clone()));
            let kept = draws(&ctx, 64, 21);
            (kept, ctx.run_report().expect("report"))
        };
        let (kept1, report1) = run(1);
        assert!(!report1.lost.is_empty(), "permanent faults must lose slots");
        assert_eq!(
            kept1.len() as u64 + report1.lost.len() as u64,
            report1.trials
        );
        // The supervisor sees losses in thread-schedule order, and only
        // a few percent of four-thread schedules reorder them; repeat so
        // a report that leaks that order fails reliably.
        for _ in 0..200 {
            let (kept4, report4) = run(4);
            assert_eq!(kept1, kept4);
            assert_eq!(report1, report4);
        }
    }

    #[test]
    fn delay_fault_with_deadline_recovers_within_budget() {
        // The injected delay blows the deadline on the first attempt;
        // the fault clears on the retry (times=1), so the slot recovers.
        let cfg = FaultConfig::parse(
            "seed=2,delay=0.3,delay_ms=25,times=1,retries=2,backoff_ms=1,deadline_ms=10",
        )
        .expect("valid spec");
        let clean = draws(&RunContext::new(8), 16, 2);
        let ctx = RunContext::with_threads(8, 2).supervised(Supervision::new("deadline-test", cfg));
        assert_eq!(draws(&ctx, 16, 2), clean);
        let report = ctx.run_report().expect("report");
        assert!(report.recovered > 0, "deadline misses must be retried");
        assert!(report
            .lost
            .iter()
            .all(|l| l.cause != crate::faults::FailureCause::DeadlineExceeded));
    }

    // -----------------------------------------------------------------
    // Checkpoint / resume.
    // -----------------------------------------------------------------

    use crate::faults::TrialCheckpoint;

    #[test]
    fn resumable_run_skips_completed_trials_and_matches() {
        let full: Vec<u64> = RunContext::new(1)
            .run_trials_resumable(
                40,
                9,
                &mut TrialCheckpoint::in_memory(),
                |idx, rng| idx ^ rng.gen::<u64>(),
                Vec::new(),
                |mut acc, x| {
                    acc.push(x);
                    acc
                },
            )
            .expect("clean run");

        // Phase 1: run only the first 15 trials, then "die".
        let mut ckpt = TrialCheckpoint::in_memory();
        let _ = RunContext::new(1)
            .run_trials_resumable(
                15,
                9,
                &mut ckpt,
                |idx, rng| idx ^ rng.gen::<u64>(),
                0u64,
                |acc, _| acc + 1,
            )
            .expect("phase 1");
        assert_eq!(ckpt.completed_ranges(), vec![(0, 14)]);

        // Phase 2: resume the full run; already-journaled trials must not
        // re-execute.
        let executed = AtomicU64::new(0);
        let resumed: Vec<u64> = RunContext::with_threads(1, 4)
            .run_trials_resumable(
                40,
                9,
                &mut ckpt,
                |idx, rng| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    idx ^ rng.gen::<u64>()
                },
                Vec::new(),
                |mut acc, x| {
                    acc.push(x);
                    acc
                },
            )
            .expect("phase 2");
        assert_eq!(resumed, full, "resume must be bit-identical");
        assert_eq!(executed.load(Ordering::Relaxed), 25, "15 trials skipped");
        assert_eq!(ckpt.completed_ranges(), vec![(0, 39)]);
    }

    #[test]
    fn resumable_supervised_run_matches_clean_run() {
        let cfg = chaos_config();
        let clean = draws(&RunContext::new(6), 32, 4);
        let mut ckpt = TrialCheckpoint::in_memory();
        let ctx = RunContext::with_threads(6, 2).supervised(Supervision::new("resume-chaos", cfg));
        let resumed: Vec<u64> = ctx
            .run_trials_resumable(
                32,
                4,
                &mut ckpt,
                |idx, rng| idx ^ rng.gen::<u64>(),
                Vec::new(),
                |mut acc, x| {
                    acc.push(x);
                    acc
                },
            )
            .expect("supervised resumable run");
        assert_eq!(resumed, clean);
    }
}
