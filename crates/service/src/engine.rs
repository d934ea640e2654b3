//! The graceful-degradation service engine: one tick loop for every
//! configuration.
//!
//! [`ServiceEngine::serve`] replays an open-loop [`RequestTrace`]
//! against the backend engines on a discrete logical clock. Every
//! family is served by a [`ReplicaSet`]: `N` replicas splitting the
//! family's capacity when [`ServiceConfig::replication`] is set, and a
//! set of one holding all of it otherwise. Per tick, in order:
//!
//! 1. every family's retry budget refills;
//! 2. every replica bulkhead advances one tick of logical service;
//!    each completed attempt either runs its backend computation (a
//!    seeded Monte Carlo fold on the configured thread budget) or dies
//!    of its fault draw, and is adjudicated against its replica's
//!    circuit breaker — a request whose attempt died keeps racing its
//!    sibling, fails over, or falls back to the cached answer;
//! 3. the tick's arrivals pass admission control — breaker gates, the
//!    brownout dimmer, queue room and deadline feasibility — and are
//!    routed to a replica (possibly degraded, possibly hedged),
//!    answered from cache, or explicitly shed;
//! 4. the tick's quality sample `Q(t)` is recorded;
//! 5. the brownout controller and, when configured, the anticipation
//!    loop observe it (self-scored control). A mode change moves the
//!    anticipation levers — deadline scale, brownout floor and ceiling,
//!    every replica breaker's cooldown, and the pressure bias — so
//!    anticipation composes with replication;
//! 6. the telemetry spine, when attached, records the tick's changes.
//!
//! **Replicated-only behaviour.** The loop asks whether a serve is
//! replicated in exactly three places, each marked where it happens:
//!
//! 1. an attempt's fault key — an unreplicated attempt draws
//!    [`FaultPlan::slot_fault`] and no correlated blast (so an
//!    unreplicated serve ignores `correlated=`: one backend has no
//!    diversity class to blast), a replicated attempt draws
//!    [`FaultPlan::replica_fault`] and
//!    [`FaultPlan::correlated_hit`] on its replica's diversity class;
//! 2. whether the report fills `replica_log` and `replica_stats`;
//! 3. whether `ReplicaRouted` events are emitted.
//!
//! Everything else is shared. A set of one never hedges (there is no
//! second replica) and never fails over (the only spare is the replica
//! that just failed), so its retry budget is never spent.
//!
//! **Determinism contract.** Every decision reads only logical-clock
//! state: arrival ticks, work units, seeded fault lookups, and breaker/
//! dimmer/mode state derived from them. The only parallelism is inside
//! the backend computation, which folds its trials in 4096-trial chunks
//! in ascending order through [`ParallelTrials::run_ranges`] and is
//! therefore bit-identical for any thread budget. The thread budget fans
//! out only a backend call larger than one chunk: opening a thread scope
//! costs more than a serve-sized call, so those run inline. Consequently
//! the entire per-request outcome log — dispositions, latencies, *and*
//! backend values — replays exactly for any `threads`, which is what
//! the replay tests assert.
//!
//! **Q(t) definition.** For a tick with `n > 0` adjudications,
//! `Q(t) = 100 · (1 − deficit/n)` where each shed or failed request
//! contributes `1.0` to the deficit and each degraded response
//! contributes [`ServiceConfig::reduced_penalty`] or
//! [`ServiceConfig::cached_penalty`]; ticks with no adjudications
//! sample 100 (no demand went unserved). The run's resilience loss is
//! `bruneau::resilience_loss` over this trajectory — the service scores
//! its own resilience triangle.

use resilience_anticipate::{
    AnticipationConfig, AnticipationController, LossWindow, ModeTransition, OperatingMode,
};
use resilience_core::bruneau::resilience_loss;
use resilience_core::faults::{FaultKind, FaultPlan};
use resilience_core::quality::{QualityTrajectory, FULL_QUALITY};
use resilience_core::rng::{derive_seed, first_draw};
use resilience_core::runtime::ParallelTrials;
use resilience_telemetry::causal::{
    AttemptKind, AttemptSketch, RequestSketch, ShedGate, SketchOutcome,
};
use resilience_telemetry::incident::TriggerKind;
use resilience_telemetry::{DeficitCause, Event, Telemetry};

use crate::breaker::{BreakerState, BreakerTransition, CircuitBreaker};
use crate::brownout::{BrownoutConfig, BrownoutController};
use crate::bulkhead::{Bulkhead, Job};
use crate::replica::{
    ReplicaFamilyStats, ReplicaOutcome, ReplicaRouter, ReplicaSet, ReplicationConfig, RetryBudget,
};
use crate::request::{Disposition, Fidelity, Request, RequestOutcome, RequestTrace, ShedReason};

/// Tuning of the serving layer. All quantities are logical-clock units;
/// `threads` is the only physical knob and never changes any output.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Logical servers dedicated to each family bulkhead.
    pub servers_per_family: usize,
    /// Work units one logical server retires per tick.
    pub rate_per_server: u64,
    /// Queue slots per family bulkhead.
    pub queue_capacity: usize,
    /// Consecutive backend failures that trip a family's breaker.
    pub breaker_threshold: u32,
    /// Ticks a tripped breaker stays open before probing.
    pub breaker_cooldown: u64,
    /// Whether graceful degradation (brownout + cached fallbacks) is on.
    /// Off, the service can only serve at full fidelity or say no — the
    /// ablation arm of the BENCH_4 comparison.
    pub degradation: bool,
    /// Brownout controller tuning (unused when `degradation` is off).
    pub brownout: BrownoutConfig,
    /// Quality deficit charged for a reduced-fidelity response.
    pub reduced_penalty: f64,
    /// Quality deficit charged for a cached response.
    pub cached_penalty: f64,
    /// Monte Carlo trials per work unit in the backend computation.
    pub trials_per_work_unit: u64,
    /// Physical worker threads for backend computations. Only a backend
    /// call of more than one 4096-trial chunk fans out over them; a
    /// serve-sized call runs inline, since a thread scope costs more
    /// than the call.
    pub threads: usize,
    /// The anticipation loop: early-warning detection over the live
    /// deficit stream plus Normal/Alert/Emergency policy switching.
    /// `None` (the default) serves purely reactively. Composes with
    /// `replication`: a mode change scales the deadline every admission,
    /// hedge and failover reads, and every replica breaker's cooldown.
    pub anticipation: Option<AnticipationConfig>,
    /// The replication layer: per-family replica sets with
    /// deterministic routing, hedged requests, failover, and a retry
    /// budget. `None` (the default) serves each family as a set of one
    /// replica through the same loop, drawing per-slot faults and
    /// leaving the report's replication section empty.
    pub replication: Option<ReplicationConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            servers_per_family: 2,
            rate_per_server: 8,
            queue_capacity: 16,
            breaker_threshold: 3,
            breaker_cooldown: 30,
            degradation: true,
            brownout: BrownoutConfig::default(),
            reduced_penalty: 0.25,
            cached_penalty: 0.5,
            trials_per_work_unit: 16,
            threads: 1,
            anticipation: None,
            replication: None,
        }
    }
}

/// Per-family tallies in the final report.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct FamilyStats {
    /// Requests addressed to the family.
    pub arrivals: u64,
    /// Served at full fidelity.
    pub served_full: u64,
    /// Served reduced.
    pub served_reduced: u64,
    /// Served from cache.
    pub served_cached: u64,
    /// Shed at admission.
    pub shed: u64,
    /// Hard backend failures (degradation off only).
    pub failed: u64,
}

/// The run's complete, deterministic self-measurement.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ServiceReport {
    /// Per-request outcomes in request-id order; the replayable log.
    pub outcomes: Vec<RequestOutcome>,
    /// Per-family tallies, indexed like the trace's family table.
    pub per_family: Vec<FamilyStats>,
    /// Breaker transitions per family.
    pub breaker_transitions: Vec<Vec<BreakerTransition>>,
    /// Brownout level changes `(tick, level)`.
    pub brownout_history: Vec<(u64, u8)>,
    /// Operating-mode transitions of the anticipation loop (empty when
    /// anticipation is off; bounded by its configured cap).
    pub mode_transitions: Vec<ModeTransition>,
    /// Per-tick warning score in milli-units (empty when anticipation
    /// is off).
    pub warning_scores: Vec<u64>,
    /// Ticks spent in Alert.
    pub alert_ticks: u64,
    /// Ticks spent in Emergency.
    pub emergency_ticks: u64,
    /// Which replica served each dispatched request, in request-id
    /// order (empty when replication is off). Requests answered at
    /// admission (cached or shed) have no entry — no replica served
    /// them.
    pub replica_log: Vec<ReplicaOutcome>,
    /// Per-family replication tallies (empty when replication is off).
    pub replica_stats: Vec<ReplicaFamilyStats>,
    /// The Q(t) trajectory (dt = 1 tick).
    pub quality: QualityTrajectory,
    /// Logical ticks the run spanned.
    pub ticks: u64,
}

impl ServiceReport {
    /// The run's Bruneau resilience loss `R = ∫ [100 − Q(t)] dt`.
    pub fn resilience_loss(&self) -> f64 {
        resilience_loss(&self.quality)
    }

    /// Whether this report came from the replicated serve path.
    pub fn replication_active(&self) -> bool {
        !self.replica_stats.is_empty()
    }

    /// Hedge attempts launched across all families (0 when replication
    /// is off).
    pub fn hedges_launched(&self) -> u64 {
        self.replica_stats.iter().map(|s| s.hedges_launched).sum()
    }

    /// Failovers dispatched across all families.
    pub fn failovers(&self) -> u64 {
        self.replica_stats.iter().map(|s| s.failovers).sum()
    }

    /// Requests served at any fidelity.
    pub fn served(&self) -> u64 {
        self.per_family
            .iter()
            .map(|f| f.served_full + f.served_reduced + f.served_cached)
            .sum()
    }

    /// Requests served degraded (reduced or cached).
    pub fn degraded(&self) -> u64 {
        self.per_family
            .iter()
            .map(|f| f.served_reduced + f.served_cached)
            .sum()
    }

    /// Requests shed at admission.
    pub fn shed(&self) -> u64 {
        self.per_family.iter().map(|f| f.shed).sum()
    }

    /// Hard backend failures (always 0 with degradation on).
    pub fn failed(&self) -> u64 {
        self.per_family.iter().map(|f| f.failed).sum()
    }

    /// Total requests adjudicated.
    pub fn total(&self) -> u64 {
        self.per_family.iter().map(|f| f.arrivals).sum()
    }

    /// Served fraction of all requests (any fidelity).
    pub fn goodput(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        self.served() as f64 / total as f64
    }

    /// Shed fraction of all requests.
    pub fn shed_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.shed() as f64 / total as f64
    }

    /// Mean latency over served requests in ticks (0 if none served).
    pub fn mean_latency(&self) -> f64 {
        let mut sum = 0u64;
        let mut n = 0u64;
        for o in &self.outcomes {
            if let Disposition::Served { latency, .. } = o.disposition {
                sum += latency;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

/// The serving front end: replica sets of bulkheads and breakers, the
/// brownout dimmer, and the optional anticipation loop over a set of
/// backend families.
#[derive(Debug)]
pub struct ServiceEngine {
    pub(crate) config: ServiceConfig,
}

impl ServiceEngine {
    /// An engine with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, if a replication config asks for zero
    /// replicas, or (delegated to the bulkhead constructor) if
    /// `servers_per_family == 0` or `rate_per_server == 0`.
    pub fn new(config: ServiceConfig) -> Self {
        assert!(config.threads >= 1, "thread budget must be at least 1");
        if let Some(rcfg) = &config.replication {
            assert!(
                rcfg.replicas >= 1,
                "a replica set needs at least one replica"
            );
        }
        ServiceEngine { config }
    }

    /// Replay `trace` under `plan`, returning the deterministic report.
    ///
    /// The plan is keyed by `(family label, trace seed, request id)` —
    /// the same slot-key scheme as the Monte Carlo supervisor — so a
    /// given chaos plan damages the same requests no matter how the
    /// service schedules them.
    pub fn serve(&self, trace: &RequestTrace, plan: &FaultPlan) -> ServiceReport {
        self.serve_inner(trace, plan, None)
    }

    /// [`ServiceEngine::serve`] with the telemetry spine attached:
    /// every admission verdict, disposition, cache hit/miss, breaker
    /// transition, brownout move, and bulkhead occupancy change is
    /// recorded into `telemetry` as it happens, the trajectory observer
    /// is charged in the exact order the engine accumulates its own
    /// deficit (so the observed Q(t) is bit-identical to the report's),
    /// and the service metric families are registered at the end.
    ///
    /// The returned report is byte-identical to what [`serve`]
    /// (telemetry off) produces for the same inputs — recording only
    /// observes, it never steers.
    ///
    /// [`serve`]: ServiceEngine::serve
    pub fn serve_traced(
        &self,
        trace: &RequestTrace,
        plan: &FaultPlan,
        telemetry: &mut Telemetry,
    ) -> ServiceReport {
        self.serve_inner(trace, plan, Some(telemetry))
    }

    /// The tick loop. Each stage is one method of [`ServeLoop`].
    fn serve_inner(
        &self,
        trace: &RequestTrace,
        plan: &FaultPlan,
        telemetry: Option<&mut Telemetry>,
    ) -> ServiceReport {
        let mut state = ServeLoop::new(&self.config, trace, plan, telemetry);
        while state.pending > 0 {
            state.begin_tick();
            state.complete();
            state.admit_arrivals();
            let q = state.sample_quality();
            state.steer();
            state.record_tick(q);
            state.tick += 1;
        }
        state.finish()
    }

    /// Work units actually scheduled for a request at `fidelity`.
    fn effective_work(cfg: &ServiceConfig, cost: u64, fidelity: Fidelity) -> u64 {
        match fidelity {
            Fidelity::Full => cost.max(1),
            Fidelity::Reduced => (cost / cfg.brownout.reduced_divisor.max(1)).max(1),
            Fidelity::Cached => 0,
        }
    }

    /// The backend computation: an XOR fold of one seeded Monte Carlo
    /// draw per trial, in [`BACKEND_CHUNK`]-sized ranges folded in chunk
    /// order — bit-identical for any thread budget.
    fn backend_value(pool: &ParallelTrials, seed: u64, trials: u64) -> u64 {
        pool.run_ranges(
            trials,
            BACKEND_CHUNK,
            |range| {
                range.fold(0u64, |acc, idx| {
                    acc ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ first_draw(derive_seed(seed, idx))
                })
            },
            0u64,
            |acc, x| acc ^ x,
        )
    }
}

/// Trials per chunk of a backend computation. Only a call larger than
/// one chunk fans out over the thread budget: a serve's calls (16 to
/// ~2000 trials) run inline, because opening a thread scope costs more
/// than the whole call.
const BACKEND_CHUNK: u64 = 4096;

/// One dispatched attempt of an in-flight request.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    replica: u32,
    kind: AttemptKind,
    fault: Option<FaultKind>,
    /// Whether a correlated blast on the replica's diversity class
    /// fells this attempt.
    correlated: bool,
    /// Tick the attempt entered its bulkhead queue.
    enqueued: u64,
    /// Scheduled work after fault inflation (delay/gray).
    work: u64,
    /// Tick the attempt completed — won, or died of its fault. `None`
    /// while it races, and for a loser cancelled by its sibling's win.
    completed: Option<u64>,
}

impl Attempt {
    /// Whether the backend dies instead of answering. Delay and gray
    /// faults only inflate the logical service time: a gray backend is
    /// slow, not wrong, which is exactly why the breaker never sees it.
    fn dead(&self) -> bool {
        self.correlated || matches!(self.fault, Some(FaultKind::Panic | FaultKind::Poison))
    }

    fn cause(&self) -> &'static str {
        if self.correlated {
            "correlated-failure"
        } else if self.fault == Some(FaultKind::Panic) {
            "backend-panic"
        } else {
            "poisoned-result"
        }
    }

    fn sketch(&self, base_work: u64, rate: u64) -> AttemptSketch {
        AttemptSketch {
            replica: self.replica,
            kind: self.kind,
            enqueued: self.enqueued,
            base_work,
            work: self.work,
            rate,
            completed: self.completed,
            won: self.completed.is_some() && !self.dead(),
        }
    }
}

/// An admitted request awaiting its fate. A flight runs at most three
/// attempts — a primary, a hedge launched beside it at admission, and
/// one failover — and at most two of them race at once, so the attempts
/// live inline in launch order.
#[derive(Debug, Clone)]
struct Flight {
    request: Request,
    fidelity: Fidelity,
    /// Effective deadline at admission (after anticipatory scaling).
    deadline: u64,
    /// Scheduled work before fault inflation; the same for every
    /// attempt, since they all run at the flight's fidelity.
    base_work: u64,
    attempts: [Option<Attempt>; 3],
}

impl Flight {
    fn attempts(&self) -> impl Iterator<Item = &Attempt> {
        self.attempts.iter().flatten()
    }

    fn racing(&self) -> impl Iterator<Item = &Attempt> {
        self.attempts().filter(|a| a.completed.is_none())
    }

    fn launched(&self, kind: AttemptKind) -> bool {
        self.attempts().any(|a| a.kind == kind)
    }

    fn launch(&mut self, attempt: Attempt) {
        let slot = self
            .attempts
            .iter_mut()
            .find(|a| a.is_none())
            .expect("a flight launches at most three attempts");
        *slot = Some(attempt);
    }

    /// Mark the racing attempt on `replica` completed at `tick`.
    fn complete(&mut self, replica: u32, tick: u64) -> Attempt {
        let attempt = self
            .attempts
            .iter_mut()
            .flatten()
            .find(|a| a.replica == replica && a.completed.is_none())
            .expect("completed job has a racing attempt");
        attempt.completed = Some(tick);
        *attempt
    }
}

/// How a settled request reached its disposition.
enum Decided<'f> {
    /// On arrival — cached or shed — with the gate evidence the
    /// critical-path extractor blames for a shed.
    AtArrival {
        request: Request,
        gate: Option<ShedGate>,
    },
    /// After its attempts ran.
    Flight(&'f Flight),
}

/// Telemetry cursors: what has already been emitted, so state changes
/// surface once each.
#[derive(Debug)]
struct Cursors {
    /// Breaker transitions emitted, per (family, replica).
    transitions: Vec<Vec<usize>>,
    brownout: usize,
    modes: usize,
    warning: Option<u64>,
    /// Last family queue depth emitted (occupancy fires on change).
    queued: Vec<Option<usize>>,
}

/// The whole state of one serve, advanced one tick at a time by the
/// stage methods in loop order.
struct ServeLoop<'a> {
    cfg: &'a ServiceConfig,
    trace: &'a RequestTrace,
    plan: &'a FaultPlan,
    telemetry: Option<&'a mut Telemetry>,
    /// Whether the config asked for replication; an unreplicated serve
    /// runs every family as a set of one. Read in exactly three places.
    replicated: bool,
    hedge_fraction_milli: u64,
    pool: ParallelTrials,
    backend_master: u64,
    /// Per-family cache tables: the level-2 / fallback answer.
    cached_values: Vec<u64>,
    delay_work: u64,
    tick_ceiling: u64,

    sets: Vec<ReplicaSet>,
    budgets: Vec<RetryBudget>,
    replica_stats: Vec<ReplicaFamilyStats>,
    brownout: BrownoutController,
    /// The anticipation loop: a warning detector over the raw pressure
    /// signal, the mode state machine, and the loss window behind
    /// heavy-tail-aware provisioning.
    anticipation: Option<(AnticipationController, LossWindow)>,
    /// Mode-policy levers currently in force.
    deadline_scale_milli: u64,
    pressure_bias: f64,
    warning_scores: Vec<u64>,

    flights: Vec<Option<Flight>>,
    outcomes: Vec<Option<RequestOutcome>>,
    replica_log: Vec<Option<ReplicaOutcome>>,
    per_family: Vec<FamilyStats>,
    quality: QualityTrajectory,
    next_arrival: usize,
    tick: u64,
    pending: u64,

    /// This tick's quality deficit.
    deficit: f64,
    /// This tick's sheds and hard failures only — the involuntary part
    /// of the deficit. The brownout controller must steer by this (plus
    /// occupancy), not the full deficit: counting its own planned
    /// degradation as pressure would be a positive feedback loop that
    /// never lets the dimmer recover (at level 2 every response charges
    /// `cached_penalty`, which would hold the pressure above the raise
    /// threshold forever).
    hard: u64,
    adjudicated: u64,

    /// Reusable routing buffers: per-replica eligibility and the
    /// router's ranking of the eligible replicas.
    eligible: Vec<bool>,
    ranked: Vec<u32>,
    cursors: Cursors,
}

impl<'a> ServeLoop<'a> {
    fn new(
        cfg: &'a ServiceConfig,
        trace: &'a RequestTrace,
        plan: &'a FaultPlan,
        telemetry: Option<&'a mut Telemetry>,
    ) -> Self {
        let n_families = trace.families.len().max(1);
        let rcfg = cfg.replication.clone().unwrap_or(ReplicationConfig {
            replicas: 1,
            ..ReplicationConfig::default()
        });
        let pool = ParallelTrials::new(cfg.threads);
        let backend_master = derive_seed(trace.seed, 0xbac0);
        // Deterministic (seeded) and computed before the clock starts,
        // so cache hits cost zero backend work during the run.
        let cached_values = (0..n_families)
            .map(|fam| {
                let seed = derive_seed(backend_master, 0xcafe + fam as u64);
                ServiceEngine::backend_value(&pool, seed, 64)
            })
            .collect();
        let mut sets: Vec<ReplicaSet> = (0..n_families)
            .map(|_| {
                ReplicaSet::new(
                    &rcfg,
                    cfg.servers_per_family,
                    cfg.rate_per_server,
                    cfg.queue_capacity,
                    cfg.breaker_threshold,
                    cfg.breaker_cooldown,
                )
            })
            .collect();

        let mut brownout = BrownoutController::new(cfg.brownout.clone());
        let anticipation = cfg.anticipation.as_ref().map(|a| {
            (
                AnticipationController::new(a.clone()),
                LossWindow::new(a.loss_window),
            )
        });
        // The controller starts in Normal, so Normal's policy set
        // applies from tick 0 — not only after the first transition.
        let mut deadline_scale_milli = 1000;
        if let Some(acfg) = cfg.anticipation.as_ref() {
            brownout.set_floor(0, acfg.normal.brownout_floor);
            brownout.set_ceiling(0, acfg.normal.brownout_ceiling);
            deadline_scale_milli = acfg.normal.deadline_scale_milli;
            set_cooldowns(&mut sets, cfg, acfg.normal.cooldown_scale_milli);
        }

        // Hard ceiling so a logic bug can never hang the run: up to
        // three dispatches per request (primary, hedge, failover), each
        // possibly gray- or delay-inflated. It only guards against
        // non-convergence, so it is deliberately generous.
        let total_work: u64 = trace.requests.iter().map(|r| r.cost).sum();
        let delay_work = plan.delay.as_millis() as u64 * cfg.rate_per_server;
        let tick_ceiling = trace
            .horizon()
            .saturating_add(
                total_work
                    .saturating_mul(3)
                    .saturating_mul(plan.gray_factor.max(1)),
            )
            .saturating_add((trace.len() as u64).saturating_mul(3 * delay_work))
            .saturating_add(cfg.breaker_cooldown + 1000);

        ServeLoop {
            cfg,
            trace,
            plan,
            telemetry,
            replicated: cfg.replication.is_some(),
            hedge_fraction_milli: rcfg.hedge_fraction_milli,
            pool,
            backend_master,
            cached_values,
            delay_work,
            tick_ceiling,
            budgets: (0..n_families)
                .map(|_| RetryBudget::new(rcfg.budget_capacity, rcfg.budget_refill_milli))
                .collect(),
            replica_stats: vec![
                ReplicaFamilyStats {
                    replicas: rcfg.replicas as u32,
                    ..ReplicaFamilyStats::default()
                };
                n_families
            ],
            sets,
            brownout,
            anticipation,
            deadline_scale_milli,
            pressure_bias: 0.0,
            warning_scores: Vec::new(),
            flights: vec![None; trace.len()],
            outcomes: vec![None; trace.len()],
            replica_log: vec![None; trace.len()],
            per_family: vec![FamilyStats::default(); n_families],
            quality: QualityTrajectory::new(1.0),
            next_arrival: 0,
            tick: 0,
            pending: trace.len() as u64,
            deficit: 0.0,
            hard: 0,
            adjudicated: 0,
            eligible: Vec::with_capacity(rcfg.replicas),
            ranked: Vec::with_capacity(rcfg.replicas),
            cursors: Cursors {
                transitions: vec![vec![0; rcfg.replicas]; n_families],
                brownout: 0,
                modes: 0,
                warning: None,
                queued: vec![None; n_families],
            },
        }
    }

    /// Stage 0: reset the tick's accumulators and refill every family's
    /// retry budget.
    fn begin_tick(&mut self) {
        assert!(
            self.tick <= self.tick_ceiling,
            "service engine failed to converge by tick {}",
            self.tick
        );
        self.deficit = 0.0;
        self.hard = 0;
        self.adjudicated = 0;
        for budget in &mut self.budgets {
            budget.tick();
        }
    }

    /// Stage 1: advance every replica one tick of service and adjudicate
    /// the completed attempts. Replicas advance in (family, replica,
    /// server) order — a pure function of logical state, so when both
    /// attempts of a hedged request complete on the same tick the
    /// winner is always the lower replica index.
    fn complete(&mut self) {
        for fam in 0..self.sets.len() {
            for r in 0..self.sets[fam].len() {
                for job in self.sets[fam].bulkheads[r].tick() {
                    let idx = usize::try_from(job.id).expect("request id fits usize");
                    self.resolve(fam, r as u32, idx);
                }
            }
        }
    }

    /// Resolve one completed attempt: run the backend or record the
    /// attempt's death against its breaker, then settle the request —
    /// unless a sibling attempt is still racing or a failover was
    /// dispatched.
    fn resolve(&mut self, fam: usize, replica: u32, idx: usize) {
        let Some(mut flight) = self.flights[idx].take() else {
            // The sibling attempt won earlier this same tick; this
            // completion is an orphan and must not touch the breaker.
            return;
        };
        let (cfg, tick) = (self.cfg, self.tick);
        let attempt = flight.complete(replica, tick);
        let latency = tick.saturating_sub(flight.request.arrival);
        let breaker = &mut self.sets[fam].breakers[replica as usize];
        if attempt.dead() {
            breaker.record_failure(tick);
            if flight.racing().next().is_some()
                || (!flight.launched(AttemptKind::Failover)
                    && self.fail_over(fam, &mut flight, replica))
            {
                // The request's fate rides on the sibling or the
                // failover now.
                self.flights[idx] = Some(flight);
                return;
            }
            // No replica left to try: degrade to the cached answer, or
            // fail hard with degradation off.
            let (disposition, penalty) = if cfg.degradation {
                let value = self.cached_values[fam];
                let fidelity = Fidelity::Cached;
                let served = Disposition::Served {
                    fidelity,
                    latency,
                    value,
                };
                (served, cfg.cached_penalty)
            } else {
                let cause = attempt.cause().to_string();
                (Disposition::Failed { cause }, 1.0)
            };
            self.settle(fam, disposition, penalty, Decided::Flight(&flight));
            return;
        }

        breaker.record_success(tick);
        let request = flight.request;
        let trials = flight.base_work * cfg.trials_per_work_unit;
        let value = ServiceEngine::backend_value(
            &self.pool,
            derive_seed(self.backend_master, request.id),
            trials,
        );
        // First success wins: reclaim the racing loser's unfinished work.
        let mut reclaimed = 0u64;
        for other in flight.racing() {
            if let Some(job) = self.sets[fam].bulkheads[other.replica as usize].cancel(request.id) {
                reclaimed += job.work;
            }
        }
        let stats = &mut self.replica_stats[fam];
        stats.reclaimed_work += reclaimed;
        let hedge_won = attempt.kind == AttemptKind::Hedge;
        if hedge_won {
            stats.hedges_won += 1;
            if let Some(tel) = self.telemetry.as_deref_mut() {
                tel.tracer.record(
                    tick,
                    Event::HedgeWon {
                        id: request.id,
                        family: fam as u32,
                        replica,
                        reclaimed,
                    },
                );
            }
        }
        self.replica_log[idx] = Some(ReplicaOutcome {
            id: request.id,
            replica,
            hedged: flight.launched(AttemptKind::Hedge),
            hedge_won,
            failed_over: flight.launched(AttemptKind::Failover),
        });
        let penalty = match flight.fidelity {
            Fidelity::Full => 0.0,
            Fidelity::Reduced => cfg.reduced_penalty,
            Fidelity::Cached => cfg.cached_penalty,
        };
        let disposition = Disposition::Served {
            fidelity: flight.fidelity,
            latency,
            value,
        };
        self.settle(fam, disposition, penalty, Decided::Flight(&flight));
    }

    /// Stage 2: admit this tick's arrivals, in trace order.
    fn admit_arrivals(&mut self) {
        while let Some(&request) = self
            .trace
            .requests
            .get(self.next_arrival)
            .filter(|r| r.arrival == self.tick)
        {
            self.next_arrival += 1;
            let fam = request.family.min(self.sets.len() - 1);
            self.per_family[fam].arrivals += 1;
            if let Some((disposition, penalty, gate)) = self.route(fam, request) {
                self.settle(
                    fam,
                    disposition,
                    penalty,
                    Decided::AtArrival { request, gate },
                );
            }
        }
    }

    /// Admission control for one arrival, gate by gate: breakers →
    /// brownout level → queue room → deadline feasibility. A request
    /// that passes is routed to the best-ranked replica that can meet
    /// its deadline and possibly hedged; otherwise it is answered now
    /// (cached or shed) with its penalty and gate evidence.
    fn route(
        &mut self,
        fam: usize,
        request: Request,
    ) -> Option<(Disposition, f64, Option<ShedGate>)> {
        let (cfg, tick) = (self.cfg, self.tick);
        let deadline = self.deadline(&request);
        let cached = Disposition::Served {
            fidelity: Fidelity::Cached,
            latency: 0,
            value: self.cached_values[fam],
        };

        // Breaker gates first, every replica in index order (the gate is
        // mutating: a half-open breaker admits exactly one probe).
        let set = &mut self.sets[fam];
        self.eligible.clear();
        self.eligible
            .extend(set.breakers.iter_mut().map(|b| b.allow(tick)));
        if !self.eligible.contains(&true) {
            return Some(if cfg.degradation {
                // Brownout the failure: answer from cache rather than
                // turning the caller away.
                (cached, cfg.cached_penalty, None)
            } else {
                // Dwell anchor: the lock-out became total when the
                // *last* replica's breaker opened.
                let open_since = set.breakers.iter().filter_map(last_open_tick).max();
                (
                    Disposition::Shed {
                        reason: ShedReason::BreakerOpen,
                    },
                    1.0,
                    Some(ShedGate::BreakerOpen { open_since }),
                )
            });
        }

        // Candidate fidelities, cheapest-last: the dimmer level picks
        // the starting fidelity; under pressure admission may degrade
        // one step further to fit the deadline, and level 2 answers
        // from cache outright.
        let candidates: &[Fidelity] = match (cfg.degradation, self.brownout.level()) {
            (false, _) => &[Fidelity::Full],
            (true, 0) => &[Fidelity::Full, Fidelity::Reduced],
            (true, 1) => &[Fidelity::Reduced],
            (true, _) => return Some((cached, cfg.cached_penalty, None)),
        };

        // The blame model for gate sheds reasons about the family's
        // total capacity and backlog.
        let aggregate_rate = cfg.rate_per_server * cfg.servers_per_family as u64;
        ReplicaRouter::rank(set, &self.eligible, tick, &mut self.ranked);
        if self.ranked.is_empty() {
            let backlog = set.bulkheads.iter().map(Bulkhead::backlog).sum();
            return Some((
                Disposition::Shed {
                    reason: ShedReason::QueueFull,
                },
                1.0,
                Some(ShedGate::QueueFull {
                    backlog,
                    aggregate_rate,
                }),
            ));
        }
        let mut last_candidate = (0u64, 0u64); // (base work, inflated work)
        for &fidelity in candidates {
            let base_work = ServiceEngine::effective_work(cfg, request.cost, fidelity);
            for i in 0..self.ranked.len() {
                let r = self.ranked[i];
                let primary = self.attempt(fam, &request, r, base_work, AttemptKind::Primary);
                let bulkhead = &self.sets[fam].bulkheads[r as usize];
                let est = bulkhead.estimated_completion_ticks(primary.work);
                if est > deadline {
                    last_candidate = (base_work, primary.work);
                    continue;
                }
                let mut flight = Flight {
                    request,
                    fidelity,
                    deadline,
                    base_work,
                    attempts: [None; 3],
                };
                self.dispatch(fam, &mut flight, primary);
                if let Some(tel) = self.telemetry.as_deref_mut() {
                    // Replicated-only site 3 of 3: a set of one has no
                    // routing choice to report.
                    if self.replicated {
                        tel.tracer.record(
                            tick,
                            Event::ReplicaRouted {
                                id: request.id,
                                family: fam as u32,
                                replica: r,
                            },
                        );
                    }
                    tel.tracer.record(
                        tick,
                        Event::RequestAdmitted {
                            id: request.id,
                            family: fam as u32,
                            fidelity: fidelity.to_string(),
                        },
                    );
                }
                // Hedging reuses the routing buffers, so this returns
                // without reading `ranked` again.
                self.maybe_hedge(fam, &mut flight, r, est);
                let idx = usize::try_from(request.id).expect("request id fits usize");
                self.flights[idx] = Some(flight);
                return None;
            }
        }
        let backlog = self.sets[fam].bulkheads.iter().map(Bulkhead::backlog).sum();
        Some((
            Disposition::Shed {
                reason: ShedReason::DeadlineUnmeetable,
            },
            1.0,
            Some(ShedGate::DeadlineUnmeetable {
                backlog,
                aggregate_rate,
                base_work: last_candidate.0,
                work: last_candidate.1,
            }),
        ))
    }

    /// The effective deadline of `request` under the anticipation
    /// policy in force. A scale below 1000 tightens deadlines: marginal
    /// requests degrade or shed at admission instead of piling onto
    /// queues the warning says are about to stop draining. Integer
    /// milli-scaling keeps it a pure function of logical state.
    fn deadline(&self, request: &Request) -> u64 {
        request.deadline.saturating_mul(self.deadline_scale_milli) / 1000
    }

    /// An attempt of `request` on `replica`, enqueued now: its fault
    /// draws — a pure function of the plan, the trace identity and the
    /// replica's diversity class — and its scheduled work. Delay faults
    /// add the plan's fixed delay work; gray faults inflate the work by
    /// `gray_factor`.
    fn attempt(
        &self,
        fam: usize,
        request: &Request,
        replica: u32,
        base_work: u64,
        kind: AttemptKind,
    ) -> Attempt {
        let (plan, label, seed) = (self.plan, &self.trace.families[fam], self.trace.seed);
        // Replicated-only site 1 of 3: the fault key. An unreplicated
        // attempt draws the slot's own fault and no correlated blast —
        // one backend has no diversity class to blast, so `correlated=`
        // does nothing. A replica draws its own fate plus its class's
        // shared blast.
        let (fault, correlated) = if self.replicated {
            (
                plan.replica_fault(label, seed, request.id, replica),
                plan.correlated_hit(label, seed, request.id, self.sets[fam].class_of(replica)),
            )
        } else {
            (plan.slot_fault(label, seed, request.id), false)
        };
        let fault = fault.map(|f| f.kind);
        let work = base_work
            + match fault {
                Some(FaultKind::Delay) => self.delay_work,
                Some(FaultKind::Gray) => base_work.saturating_mul(plan.gray_factor.max(1) - 1),
                _ => 0,
            };
        Attempt {
            replica,
            kind,
            fault,
            correlated,
            enqueued: self.tick,
            work,
            completed: None,
        }
    }

    /// Enqueue `attempt` on its replica and book it in the flight and
    /// the family's replication tallies.
    fn dispatch(&mut self, fam: usize, flight: &mut Flight, attempt: Attempt) {
        let replica = attempt.replica as usize;
        self.sets[fam].bulkheads[replica].admit(Job {
            id: flight.request.id,
            work: attempt.work,
        });
        self.sets[fam].breakers[replica].on_admitted();
        let stats = &mut self.replica_stats[fam];
        stats.routed += 1;
        match attempt.kind {
            AttemptKind::Primary => {}
            AttemptKind::Hedge => stats.hedges_launched += 1,
            AttemptKind::Failover => stats.failovers += 1,
        }
        stats.correlated_hits += u64::from(attempt.correlated);
        stats.gray_slots += u64::from(attempt.fault == Some(FaultKind::Gray));
        flight.launch(attempt);
    }

    /// Launch a hedge attempt when the primary's projected completion
    /// eats more than `hedge_fraction_milli` of the deadline. Probe
    /// safety: both the primary and the hedge target must *peek*
    /// Closed — hedging a half-open probe (or onto one) could cancel
    /// the probe and wedge the breaker's half-open state forever.
    fn maybe_hedge(&mut self, fam: usize, flight: &mut Flight, primary: u32, primary_est: u64) {
        let tick = self.tick;
        let set = &self.sets[fam];
        if set.len() < 2
            || primary_est.saturating_mul(1000)
                <= self.hedge_fraction_milli.saturating_mul(flight.deadline)
            || set.breakers[primary as usize].peek_state(tick) != BreakerState::Closed
        {
            return;
        }
        let hedge = AttemptKind::Hedge;
        let Some(attempt) = self.pick_spare(fam, flight, hedge, flight.deadline, primary) else {
            return;
        };
        if !self.budgets[fam].try_spend() {
            self.record_exhausted(fam, "hedge");
            return;
        }
        self.dispatch(fam, flight, attempt);
        if let Some(tel) = self.telemetry.as_deref_mut() {
            tel.tracer.record(
                tick,
                Event::HedgeLaunched {
                    id: flight.request.id,
                    family: fam as u32,
                    replica: attempt.replica,
                },
            );
        }
    }

    /// Fail over a flight whose last racing attempt just died on `from`.
    /// Target first, token second: a hopeless failover (no viable
    /// replica) must not drain the budget. Returns whether a failover
    /// was dispatched.
    fn fail_over(&mut self, fam: usize, flight: &mut Flight, from: u32) -> bool {
        let tick = self.tick;
        let remaining = flight
            .request
            .arrival
            .saturating_add(flight.deadline)
            .saturating_sub(tick);
        let failover = AttemptKind::Failover;
        let Some(attempt) = self.pick_spare(fam, flight, failover, remaining, from) else {
            return false;
        };
        if !self.budgets[fam].try_spend() {
            self.record_exhausted(fam, "failover");
            return false;
        }
        self.dispatch(fam, flight, attempt);
        if let Some(tel) = self.telemetry.as_deref_mut() {
            tel.tracer.record(
                tick,
                Event::ReplicaFailover {
                    id: flight.request.id,
                    family: fam as u32,
                    from_replica: from,
                    to_replica: attempt.replica,
                },
            );
        }
        true
    }

    /// A `kind` attempt of `flight` on a spare replica: not `exclude`,
    /// peek-Closed (never disturb a half-open probe), queue room, and a
    /// completion estimate inside `deadline` ticks from now — the best
    /// such replica by the router's load-aware key.
    fn pick_spare(
        &mut self,
        fam: usize,
        flight: &Flight,
        kind: AttemptKind,
        deadline: u64,
        exclude: u32,
    ) -> Option<Attempt> {
        let tick = self.tick;
        let set = &self.sets[fam];
        self.eligible.clear();
        self.eligible.extend((0..set.len() as u32).map(|r| {
            r != exclude && set.breakers[r as usize].peek_state(tick) == BreakerState::Closed
        }));
        ReplicaRouter::rank(set, &self.eligible, tick, &mut self.ranked);
        self.ranked
            .iter()
            .map(|&r| self.attempt(fam, &flight.request, r, flight.base_work, kind))
            .find(|a| {
                let bulkhead = &self.sets[fam].bulkheads[a.replica as usize];
                bulkhead.estimated_completion_ticks(a.work) <= deadline
            })
    }

    fn record_exhausted(&mut self, fam: usize, kind: &str) {
        if let Some(tel) = self.telemetry.as_deref_mut() {
            tel.tracer.record(
                self.tick,
                Event::RetryBudgetExhausted {
                    family: fam as u32,
                    kind: kind.to_string(),
                },
            );
        }
    }

    /// Record a request's final disposition: family tallies, the tick's
    /// deficit, the outcome log, and — traced — its events, its charge
    /// to the observed trajectory, and its causal sketch.
    fn settle(&mut self, fam: usize, disposition: Disposition, penalty: f64, how: Decided<'_>) {
        let tick = self.tick;
        let (request, deadline) = match &how {
            Decided::AtArrival { request, .. } => (*request, self.deadline(request)),
            Decided::Flight(flight) => (flight.request, flight.deadline),
        };
        let tally = &mut self.per_family[fam];
        match &disposition {
            Disposition::Served { fidelity, .. } => match fidelity {
                Fidelity::Full => tally.served_full += 1,
                Fidelity::Reduced => tally.served_reduced += 1,
                Fidelity::Cached => tally.served_cached += 1,
            },
            Disposition::Failed { .. } => {
                tally.failed += 1;
                self.hard += 1;
            }
            Disposition::Shed { .. } => {
                tally.shed += 1;
                self.hard += 1;
            }
        }
        if let Some(tel) = self.telemetry.as_deref_mut() {
            let (id, family) = (request.id, fam as u32);
            let outcome = match &disposition {
                Disposition::Served {
                    fidelity, latency, ..
                } => {
                    tel.tracer.record(
                        tick,
                        Event::RequestServed {
                            id,
                            family,
                            fidelity: fidelity.to_string(),
                            latency: *latency,
                        },
                    );
                    tel.tracer.record(
                        tick,
                        match fidelity {
                            Fidelity::Cached => Event::CacheHit { family },
                            _ => Event::CacheMiss { family },
                        },
                    );
                    tel.trajectory.charge(DeficitCause::Degraded, penalty);
                    SketchOutcome::Served {
                        fidelity: fidelity.as_str(),
                        latency: *latency,
                        // A cached answer after attempts ran is the
                        // fallback for a dead backend.
                        fallback: matches!(how, Decided::Flight(_))
                            && *fidelity == Fidelity::Cached,
                    }
                }
                Disposition::Failed { cause } => {
                    tel.tracer.record(
                        tick,
                        Event::RequestFailed {
                            id,
                            family,
                            cause: cause.clone(),
                        },
                    );
                    tel.trajectory.charge(DeficitCause::Failed, penalty);
                    SketchOutcome::Failed { cause }
                }
                Disposition::Shed { reason } => {
                    tel.tracer.record(
                        tick,
                        Event::RequestShed {
                            id,
                            family,
                            reason: reason.to_string(),
                        },
                    );
                    tel.trajectory.charge(DeficitCause::Shed, penalty);
                    SketchOutcome::Shed {
                        reason: reason.as_str(),
                    }
                }
            };
            let (attempts, gate) = match how {
                Decided::AtArrival { gate, .. } => (Vec::new(), gate),
                Decided::Flight(flight) => {
                    let rate = self.cfg.rate_per_server;
                    let mut attempts: Vec<AttemptSketch> = flight
                        .attempts()
                        .map(|a| a.sketch(flight.base_work, rate))
                        .collect();
                    attempts.sort_by_key(|a| (a.enqueued, a.replica));
                    (attempts, None)
                }
            };
            tel.causal.record(&RequestSketch {
                id,
                family,
                arrival: request.arrival,
                deadline,
                decided_at: tick,
                outcome,
                attempts,
                gate,
            });
        }
        let idx = usize::try_from(request.id).expect("request id fits usize");
        self.outcomes[idx] = Some(RequestOutcome {
            id: request.id,
            family: fam,
            decided_at: tick,
            disposition,
        });
        self.deficit += penalty;
        self.adjudicated += 1;
        self.pending -= 1;
    }

    /// Stage 3: sample the tick's Q(t).
    fn sample_quality(&mut self) -> f64 {
        let q = if self.adjudicated == 0 {
            FULL_QUALITY
        } else {
            FULL_QUALITY * (1.0 - self.deficit / self.adjudicated as f64)
        };
        self.quality.push(q);
        q
    }

    /// Stage 4: feed the self-scored controllers — the brownout dimmer,
    /// then the anticipation loop, whose mode changes move the policy
    /// levers.
    fn steer(&mut self) {
        let (cfg, tick) = (self.cfg, self.tick);
        // Family-level pressure: aggregate queued over aggregate
        // capacity, so splitting a queue into N replica slices does not
        // N-fold the brownout pressure.
        let occupancy = self
            .sets
            .iter()
            .map(|set| {
                let (queued, capacity) = set.queue_depth();
                match (queued, capacity) {
                    (0, _) => 0.0,
                    (_, 0) => 1.0,
                    _ => queued as f64 / capacity as f64,
                }
            })
            .fold(0.0f64, f64::max);
        let hard_deficit = if self.adjudicated == 0 {
            0.0
        } else {
            self.hard as f64 / self.adjudicated as f64
        };
        if cfg.degradation {
            // `pressure_bias` is the anticipatory provisioning estimate
            // (0 in Normal): the dimmer steers by the larger of what is
            // being lost now and what the loss distribution says to
            // provision for.
            self.brownout
                .observe(tick, hard_deficit.max(self.pressure_bias), occupancy);
        }
        let Some((controller, losses)) = self.anticipation.as_mut() else {
            return;
        };
        if self.adjudicated > 0 && self.deficit > 0.0 {
            losses.record(self.deficit / self.adjudicated as f64);
        }
        let before = controller.mode();
        let mode = controller.observe(tick, hard_deficit.max(occupancy));
        self.warning_scores.push(controller.score_milli());
        if mode == before {
            return;
        }
        let acfg = controller.config();
        let policy = acfg.policy(mode);
        self.brownout.set_floor(tick, policy.brownout_floor);
        self.brownout.set_ceiling(tick, policy.brownout_ceiling);
        set_cooldowns(&mut self.sets, cfg, policy.cooldown_scale_milli);
        self.deadline_scale_milli = policy.deadline_scale_milli;
        // Provisioning is re-estimated at mode changes (not every tick):
        // the quantile sort stays off the hot path and the bias is
        // constant within a mode.
        self.pressure_bias = match mode {
            OperatingMode::Normal => 0.0,
            _ => losses
                .provision(
                    policy.provisioning,
                    acfg.quantile_milli,
                    acfg.heavy_tail_alpha,
                )
                .clamp(0.0, 1.0),
        };
    }

    /// Stage 5: surface the tick's state changes to the telemetry spine
    /// — once per change, in family order, all at the current tick so
    /// the lane-0 buffer stays tick-ordered — and close the observed
    /// trajectory's tick.
    fn record_tick(&mut self, q: f64) {
        let tick = self.tick;
        let Some(tel) = self.telemetry.as_deref_mut() else {
            return;
        };
        let cursors = &mut self.cursors;
        for (fam, set) in self.sets.iter().enumerate() {
            for (r, breaker) in set.breakers.iter().enumerate() {
                let all = breaker.transitions();
                for t in &all[cursors.transitions[fam][r]..] {
                    tel.tracer.record(
                        tick,
                        Event::BreakerTransition {
                            family: fam as u32,
                            from: t.from.to_string(),
                            to: t.to.to_string(),
                        },
                    );
                }
                cursors.transitions[fam][r] = all.len();
            }
        }
        let history = self.brownout.history();
        for &(_, level) in &history[cursors.brownout..] {
            tel.tracer
                .record(tick, Event::BrownoutLevelChange { level });
        }
        cursors.brownout = history.len();
        if let Some((controller, _)) = self.anticipation.as_ref() {
            for t in &controller.transitions()[cursors.modes..] {
                tel.tracer.record(
                    tick,
                    Event::ModeTransition {
                        from: t.from.to_string(),
                        to: t.to.to_string(),
                        score_milli: t.score_milli,
                    },
                );
                if t.is_escalation() {
                    // Emergency escalation trips the flight recorder at
                    // the transition's own tick.
                    let captured = tel.incidents.trigger(
                        &tel.causal,
                        t.tick,
                        TriggerKind::ModeEscalation,
                        t.score_milli,
                        format!("{}->{}", t.from, t.to),
                    );
                    tel.tracer.record(
                        tick,
                        Event::IncidentSnapshot {
                            trigger: TriggerKind::ModeEscalation.as_str().to_string(),
                            trigger_tick: t.tick,
                            captured,
                        },
                    );
                }
            }
            cursors.modes = controller.transitions().len();
            let score = controller.score_milli();
            if cursors.warning != Some(score) {
                tel.tracer
                    .record(tick, Event::WarningScore { score_milli: score });
                cursors.warning = Some(score);
            }
        }
        for (fam, set) in self.sets.iter().enumerate() {
            let (queued, capacity) = set.queue_depth();
            if cursors.queued[fam] != Some(queued) {
                tel.tracer.record(
                    tick,
                    Event::BulkheadOccupancy {
                        family: fam as u32,
                        queued: queued as u32,
                        capacity: capacity as u32,
                    },
                );
                cursors.queued[fam] = Some(queued);
            }
        }
        // The observer accumulated the same penalties in the same order
        // as `deficit`, so its sample is bit-identical to the engine's.
        let observed = tel.trajectory.end_tick(self.adjudicated);
        debug_assert_eq!(observed.to_bits(), q.to_bits());
    }

    /// Assemble the report and, traced, register the metric families.
    fn finish(mut self) -> ServiceReport {
        let outcomes = self
            .outcomes
            .into_iter()
            .map(|o| o.expect("every request adjudicated"))
            .collect();
        let (mode_transitions, alert_ticks, emergency_ticks) = match &self.anticipation {
            Some((controller, _)) => (
                controller.transitions().to_vec(),
                controller.alert_ticks(),
                controller.emergency_ticks(),
            ),
            None => (Vec::new(), 0, 0),
        };
        // Per-family breaker transitions, merged across replicas in
        // (tick, replica) order — the order the telemetry cursor walk
        // emits them in.
        let breaker_transitions = self
            .sets
            .iter()
            .map(|set| {
                let mut merged: Vec<(u64, u32, BreakerTransition)> = Vec::new();
                for (r, b) in set.breakers.iter().enumerate() {
                    merged.extend(b.transitions().iter().map(|t| (t.tick, r as u32, *t)));
                }
                merged.sort_by_key(|&(tick, r, _)| (tick, r));
                merged.into_iter().map(|(_, _, t)| t).collect()
            })
            .collect();
        // Replicated-only site 2 of 3: the replication section of the
        // report. A set of one has nothing to report there, and an
        // empty section keeps `replication_active()` false.
        let (replica_log, replica_stats) = if self.replicated {
            for (stats, budget) in self.replica_stats.iter_mut().zip(&self.budgets) {
                stats.budget_spent = budget.spent();
                stats.budget_exhausted = budget.exhausted();
            }
            (
                self.replica_log.into_iter().flatten().collect(),
                self.replica_stats,
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let report = ServiceReport {
            outcomes,
            per_family: self.per_family,
            breaker_transitions,
            brownout_history: self.brownout.history().to_vec(),
            mode_transitions,
            warning_scores: self.warning_scores,
            alert_ticks,
            emergency_ticks,
            replica_log,
            replica_stats,
            quality: self.quality,
            ticks: self.tick,
        };
        if let Some(tel) = self.telemetry {
            record_service_metrics(&mut tel.metrics, &report);
            if !tel.causal.is_empty() {
                resilience_telemetry::record_causal_metrics(&mut tel.metrics, &tel.causal);
                let incidents = tel.incidents.finalize(&tel.causal, &report.warning_scores);
                resilience_telemetry::record_incident_metrics(&mut tel.metrics, &incidents);
            }
        }
        report
    }
}

/// Scale every replica breaker's cooldown to `scale_milli` of the
/// configured one (an anticipation policy lever).
fn set_cooldowns(sets: &mut [ReplicaSet], cfg: &ServiceConfig, scale_milli: u64) {
    let cooldown = cfg.breaker_cooldown.saturating_mul(scale_milli) / 1000;
    for breaker in sets.iter_mut().flat_map(|s| s.breakers.iter_mut()) {
        breaker.set_cooldown(cooldown);
    }
}

/// Register the service-layer metric families for `report` in
/// `registry`. Called by [`ServiceEngine::serve_traced`] after the run;
/// public so drivers can score an existing report into a shared
/// registry. All values are pure functions of the report, so the
/// exposition is as deterministic as the report itself.
pub fn record_service_metrics(
    registry: &mut resilience_telemetry::MetricsRegistry,
    report: &ServiceReport,
) {
    registry.inc_counter(
        "service_requests_total",
        "Requests adjudicated by the serving layer",
        report.total(),
    );
    registry.inc_counter(
        "service_served_full_total",
        "Requests served at full fidelity",
        report.per_family.iter().map(|f| f.served_full).sum(),
    );
    registry.inc_counter(
        "service_served_reduced_total",
        "Requests served at reduced fidelity",
        report.per_family.iter().map(|f| f.served_reduced).sum(),
    );
    registry.inc_counter(
        "service_served_cached_total",
        "Requests answered from the precomputed cache table",
        report.per_family.iter().map(|f| f.served_cached).sum(),
    );
    registry.inc_counter(
        "service_shed_total",
        "Requests shed at admission",
        report.shed(),
    );
    registry.inc_counter(
        "service_failed_total",
        "Requests failed hard (degradation off)",
        report.failed(),
    );
    registry.inc_counter(
        "service_breaker_transitions_total",
        "Circuit-breaker state changes across all families",
        report
            .breaker_transitions
            .iter()
            .map(|t| t.len() as u64)
            .sum(),
    );
    registry.inc_counter(
        "service_brownout_changes_total",
        "Brownout dimmer level changes",
        report.brownout_history.len() as u64,
    );
    registry.set_gauge(
        "service_ticks",
        "Logical ticks the run spanned",
        report.ticks as f64,
    );
    registry.set_gauge(
        "service_goodput",
        "Served fraction of all requests (any fidelity)",
        report.goodput(),
    );
    registry.set_gauge(
        "service_resilience_loss",
        "Bruneau resilience loss of the run's Q(t)",
        report.resilience_loss(),
    );
    for o in &report.outcomes {
        if let Disposition::Served { latency, .. } = o.disposition {
            registry.observe(
                "service_latency_ticks",
                "Served-request latency in logical ticks",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                latency as f64,
            );
        }
    }
    // Anticipation families only exist on anticipatory runs: an empty
    // warning-score log means the loop was off, and registering zeroed
    // families would change the reactive arm's exposition bytes.
    if !report.warning_scores.is_empty() {
        registry.inc_counter(
            "anticipate_mode_transitions_total",
            "Operating-mode changes of the anticipation loop",
            report.mode_transitions.len() as u64,
        );
        registry.set_gauge(
            "anticipate_alert_ticks",
            "Ticks spent in Alert mode",
            report.alert_ticks as f64,
        );
        registry.set_gauge(
            "anticipate_emergency_ticks",
            "Ticks spent in Emergency mode",
            report.emergency_ticks as f64,
        );
        registry.set_gauge(
            "anticipate_warning_score_milli",
            "Final warning score of the run, in milli-units",
            report.warning_scores.last().copied().unwrap_or(0) as f64,
        );
        for &score in &report.warning_scores {
            registry.observe(
                "anticipate_warning_score_ticks",
                "Per-tick warning score in milli-units",
                &[50.0, 100.0, 200.0, 350.0, 500.0, 750.0, 900.0],
                score as f64,
            );
        }
    }
    // Replication families only exist on replicated runs, mirroring
    // the anticipation gate above: registering zeroed families would
    // change the unreplicated arm's exposition bytes.
    if report.replication_active() {
        registry.set_gauge(
            "replica_factor",
            "Replicas per family in the replicated serve path",
            report
                .replica_stats
                .first()
                .map_or(0.0, |s| s.replicas as f64),
        );
        registry.inc_counter(
            "replica_attempts_total",
            "Attempts dispatched to replicas (primaries + hedges + failovers)",
            report.replica_stats.iter().map(|s| s.routed).sum(),
        );
        registry.inc_counter(
            "replica_failovers_total",
            "Failovers dispatched after a replica failure",
            report.failovers(),
        );
        registry.inc_counter(
            "replica_correlated_hits_total",
            "Dispatched attempts felled by a correlated blast",
            report.replica_stats.iter().map(|s| s.correlated_hits).sum(),
        );
        registry.inc_counter(
            "replica_gray_slots_total",
            "Dispatched attempts that drew a gray fault",
            report.replica_stats.iter().map(|s| s.gray_slots).sum(),
        );
        registry.inc_counter(
            "hedge_launched_total",
            "Hedge attempts launched by the replica router",
            report.hedges_launched(),
        );
        registry.inc_counter(
            "hedge_won_total",
            "Hedge attempts that won their race",
            report.replica_stats.iter().map(|s| s.hedges_won).sum(),
        );
        registry.inc_counter(
            "hedge_reclaimed_work_total",
            "Work units reclaimed from cancelled hedge losers",
            report.replica_stats.iter().map(|s| s.reclaimed_work).sum(),
        );
        registry.inc_counter(
            "retry_budget_spent_total",
            "Retry-budget tokens spent on hedges and failovers",
            report.replica_stats.iter().map(|s| s.budget_spent).sum(),
        );
        registry.inc_counter(
            "retry_budget_exhausted_total",
            "Hedge/failover attempts rejected by an empty retry budget",
            report
                .replica_stats
                .iter()
                .map(|s| s.budget_exhausted)
                .sum(),
        );
    }
}

/// Tick the breaker last entered `Open`, if it ever has — the dwell
/// anchor the extractor blames breaker-open sheds on.
fn last_open_tick(breaker: &CircuitBreaker) -> Option<u64> {
    breaker
        .transitions()
        .iter()
        .rev()
        .find(|t| t.to == BreakerState::Open)
        .map(|t| t.tick)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The chunked one-block fold equals the per-trial generator fold it
    /// replaced, across chunk edges and the multi-chunk fan-out path.
    #[test]
    fn chunked_backend_matches_per_trial_fold() {
        for trials in [0, 1, 4095, 4096, 4097, 3 * BACKEND_CHUNK + 17] {
            for seed in [0, 42, u64::MAX] {
                let per_trial = ParallelTrials::new(1).run(
                    trials,
                    seed,
                    |idx, rng| idx.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ rng.gen::<u64>(),
                    0u64,
                    |acc, x| acc ^ x,
                );
                for threads in 1..=4 {
                    let pool = ParallelTrials::new(threads);
                    assert_eq!(
                        ServiceEngine::backend_value(&pool, seed, trials),
                        per_trial,
                        "trials {trials}, seed {seed}, threads {threads}"
                    );
                }
            }
        }
    }
}
