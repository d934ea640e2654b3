//! The cluster engine: a deterministic multi-node simulation on the
//! logical tick clock.
//!
//! Every tick runs the same fixed phase order, so a run is a pure
//! function of `(config, topology seed, run seed, attack, fault plan)`:
//!
//! 1. **Execute** (MAPE-K) — revivals scheduled by earlier planning fire.
//! 2. **Burn** — the prescribed-burn policy relieves stressed nodes.
//! 3. **Surge** — seeded load grains drop onto random nodes (the slow
//!    sandpile drive toward criticality).
//! 4. **Chaos** — the fault plan's pure slot lookup kills or delays
//!    nodes (`slot_fault("cluster", tick, node)`).
//! 5. **Attack** — if scheduled this tick, remove a fraction of nodes
//!    (random or hub-targeted).
//! 6. **Cascade** — sandpile redistribution propagates to quiescence
//!    ([`crate::cascade::propagate`]).
//! 7. **Plan** (MAPE-K) — every node that died is checked against the
//!    recovery policy's retry budget; survivors of the budget get a
//!    revival scheduled after capped-exponential backoff.
//! 8. **Drain** — served work relaxes each alive node's load toward
//!    baseline.
//! 9. **Score** — giant-component analysis, then per-cause deficit
//!    charges into the [`TrajectoryObserver`]: dead-awaiting-retry
//!    (Retry), dead-for-good (Failed), alive-but-disconnected
//!    (Degraded, half weight), dropped load (Shed) and burn relief
//!    cost (Degraded).
//!
//! Float accumulation order is pinned everywhere (ascending node ids),
//! so cascade logs, Q(t) trajectories, and attributions are bit-identical
//! regardless of the thread budget running the surrounding trials.

use crate::burn::{select_most_stressed, BurnPolicy};
use crate::cascade::{propagate, CascadeScratch, CascadeStats};
use crate::node::NodeFleet;
use rand::Rng;
use resilience_anticipate::OperatingMode;
use resilience_core::modes::{CappedLog, Escalation, Ladder, LadderState, Rung};
use resilience_core::{resilience_loss, seeded_rng, FaultKind, FaultPlan, RecoveryPolicy};
use resilience_dcsp::BitWords;
use resilience_networks::{AttackStrategy, Graph, TopologyKind};
use resilience_telemetry::{DeficitAttribution, DeficitCause, TrajectoryObserver};
use serde::{Deserialize, Serialize};

/// Quality-point cost of one burned node for one tick (the controlled
/// degradation a prescribed burn accepts).
pub const BURN_COST: f64 = 0.25;

/// Quality-point cost of one alive-but-disconnected node for one tick
/// (it still serves locally but is cut off from the collective).
pub const DISCONNECT_COST: f64 = 0.5;

/// Static description of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub n: usize,
    /// Topology generator family.
    pub topology: TopologyKind,
    /// Motter–Lai overload headroom α: capacity = (1 + α)·baseline.
    pub headroom: f64,
    /// Fraction of excess load served away per tick, in `[0, 1]`.
    pub drain: f64,
    /// Seeded load grains dropped per tick (the sandpile drive).
    pub surge_drops: usize,
    /// Size of each grain, in load units.
    pub surge_grain: f64,
    /// Ticks to simulate.
    pub ticks: u64,
    /// MAPE-K recovery policy (backoff milliseconds read as ticks).
    pub recovery: RecoveryPolicy,
    /// Prescribed-burn policy.
    pub burn: BurnPolicy,
    /// Per-node anticipatory mode switching (the cross-node MAPE-K
    /// anticipation loop). `None` (the default) keeps the purely
    /// reactive engine with outputs byte-identical to previous
    /// releases.
    pub anticipation: Option<NodeAnticipationConfig>,
}

impl ClusterConfig {
    /// A quiet cluster over `topology`: moderate headroom, no surge, no
    /// burns, default recovery.
    pub fn new(n: usize, topology: TopologyKind) -> Self {
        ClusterConfig {
            n,
            topology,
            headroom: 0.25,
            drain: 0.05,
            surge_drops: 0,
            surge_grain: 0.5,
            ticks: 60,
            recovery: RecoveryPolicy::default(),
            burn: BurnPolicy::None,
            anticipation: None,
        }
    }
}

/// Tuning of per-node anticipatory mode switching.
///
/// Each alive node watches its *neighborhood cascade pressure*: the
/// worse of two signals — the fraction of dead neighbors (the cascade
/// front approaching) and its own load stress (how close it is to
/// toppling). The pressure drives a per-node Normal/Alert/Emergency
/// state on the workspace's one hysteresis ladder
/// (`resilience_core::modes`), one rung per tick at most. Escalations
/// fire the tick a threshold is reached, while de-escalations wait out
/// the dwell (a node's first change is exempt) — the anti-flap
/// discipline lives on the release side. Each mode carries a local
/// policy: Alert nodes drain excess load faster (serve it away before
/// the front arrives), and Emergency nodes shed their excess outright
/// (a voluntary, charged quality loss that keeps the node standing
/// instead of toppling into the cascade).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAnticipationConfig {
    /// Enter Alert at or above this neighborhood pressure.
    pub alert_on: f64,
    /// Leave Alert for Normal below this pressure.
    pub alert_off: f64,
    /// Enter Emergency at or above this pressure.
    pub emergency_on: f64,
    /// Leave Emergency for Alert below this pressure.
    pub emergency_off: f64,
    /// Minimum ticks a node holds a mode before it may *de-escalate*
    /// (escalations are never delayed).
    pub dwell: u64,
    /// Drain multiplier for Alert nodes, in milli-units (3000 = 3× the
    /// configured drain, capped at full drain).
    pub alert_drain_milli: u64,
}

impl Default for NodeAnticipationConfig {
    fn default() -> Self {
        NodeAnticipationConfig {
            alert_on: 0.25,
            alert_off: 0.10,
            emergency_on: 0.50,
            emergency_off: 0.25,
            dwell: 4,
            alert_drain_milli: 3000,
        }
    }
}

impl NodeAnticipationConfig {
    /// The per-node ladder these bands describe: escalate at or above
    /// `*_on`, release below `*_off`. Only release waits out the dwell:
    /// under a surge, a node that waited to escalate would topple.
    pub fn ladder(&self) -> Ladder {
        let rungs = vec![
            Rung::new(self.alert_on, self.alert_off.next_down()),
            Rung::new(self.emergency_on, self.emergency_off.next_down()),
        ];
        Ladder::new(rungs, self.dwell, Escalation::Immediate)
    }
}

/// One recorded per-node mode change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeModeShift {
    /// Tick of the change.
    pub tick: u64,
    /// Node id.
    pub node: u32,
    /// Mode left.
    pub from: OperatingMode,
    /// Mode entered.
    pub to: OperatingMode,
}

/// An exogenous node-removal event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackSpec {
    /// Tick at which the attack lands.
    pub tick: u64,
    /// Victim selection strategy.
    pub strategy: AttackStrategy,
    /// Fraction of the fleet removed, in `[0, 1]`.
    pub fraction: f64,
    /// Whether victims may be recovered by the supervisor. Percolation
    /// sweeps use `false` so the damage plateau is what R integrates.
    pub recoverable: bool,
}

/// One cascade observed during a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CascadeRecord {
    /// Tick the cascade started.
    pub tick: u64,
    /// The propagation outcome.
    pub stats: CascadeStats,
}

/// Everything a cluster run produced. Serializable: the JSON encoding of
/// a report is the "cascade log" the determinism suite compares bit for
/// bit across thread budgets.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterReport {
    /// Fleet size.
    pub n: u64,
    /// Ticks simulated.
    pub ticks: u64,
    /// Topology family label.
    pub topology: String,
    /// The run seed.
    pub seed: u64,
    /// Q(t) samples (one baseline sample + one per tick).
    pub quality: resilience_core::QualityTrajectory,
    /// Bruneau deficit split by cause.
    pub attribution: DeficitAttribution,
    /// Every cascade with at least one death, in tick order.
    pub cascades: Vec<CascadeRecord>,
    /// Nodes revived by the supervisor.
    pub recovered: u64,
    /// Nodes dead for good (budget exhausted, condemned, or permanent).
    pub lost: u64,
    /// Nodes killed by the chaos fault plan.
    pub exo_kills: u64,
    /// Nodes killed by the attack.
    pub attack_kills: u64,
    /// Burn firings.
    pub burns: u64,
    /// Nodes relieved across all burns.
    pub burned_nodes: u64,
    /// Excess load removed by burns, in load units.
    pub burn_relieved: f64,
    /// Alive nodes at the end of the run.
    pub final_alive: u64,
    /// Giant-component size at the end of the run.
    pub final_giant: u64,
    /// Smallest giant-component size seen at any scored tick.
    pub min_giant: u64,
    /// Per-node mode changes of the anticipation loop, in tick order
    /// (empty when anticipation is off; at most
    /// [`LOG_CAP`](resilience_core::modes::LOG_CAP)).
    pub mode_shifts: Vec<NodeModeShift>,
    /// Mode shifts beyond the cap, counted but not retained.
    pub truncated_mode_shifts: u64,
    /// Node-ticks spent in Alert.
    pub alert_node_ticks: u64,
    /// Node-ticks spent in Emergency.
    pub emergency_node_ticks: u64,
    /// Load shed voluntarily by Emergency nodes, in load units.
    pub anticipatory_shed: f64,
}

impl ClusterReport {
    /// Bruneau resilience loss R of the run's Q(t).
    pub fn resilience_loss(&self) -> f64 {
        resilience_loss(&self.quality)
    }

    /// Sizes (trigger + toppled) of every recorded cascade.
    pub fn cascade_sizes(&self) -> Vec<u64> {
        self.cascades.iter().map(|c| c.stats.size()).collect()
    }

    /// The largest recorded cascade (0 if none).
    pub fn largest_cascade(&self) -> u64 {
        self.cascade_sizes().into_iter().max().unwrap_or(0)
    }

    /// Total nodes toppled by overload across the run.
    pub fn total_toppled(&self) -> u64 {
        self.cascades.iter().map(|c| c.stats.toppled).sum()
    }
}

/// A provisioned cluster: topology plus fleet template, reusable across
/// many seeded runs (and shareable across trial threads — `run` takes
/// `&self`).
#[derive(Debug, Clone)]
pub struct ClusterEngine {
    topology: Graph,
    template: NodeFleet,
    attack_order: Vec<u32>,
    config: ClusterConfig,
}

impl ClusterEngine {
    /// Generate the topology from `topology_seed` and provision the
    /// fleet.
    pub fn new(config: ClusterConfig, topology_seed: u64) -> Self {
        let topology = Graph::generate(&config.topology, config.n, topology_seed);
        Self::with_topology(config, topology)
    }

    /// Provision over an existing topology.
    pub fn with_topology(config: ClusterConfig, topology: Graph) -> Self {
        let template = NodeFleet::provision(&topology, config.headroom);
        let attack_order = topology.nodes_by_degree_desc();
        ClusterEngine {
            topology,
            template,
            attack_order,
            config,
        }
    }

    /// The generated topology.
    pub fn topology(&self) -> &Graph {
        &self.topology
    }

    /// The run configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Simulate one run. Pure in all arguments: the same inputs yield a
    /// bit-identical [`ClusterReport`] on any machine and thread budget.
    pub fn run(
        &self,
        run_seed: u64,
        attack: Option<&AttackSpec>,
        plan: &FaultPlan,
    ) -> ClusterReport {
        let n = self.config.n;
        let policy = &self.config.recovery;
        let mut rng = seeded_rng(run_seed);
        let mut fleet = self.template.clone();
        let mut alive = BitWords::new_filled(n);
        let mut scratch = CascadeScratch::new(n);
        let mut obs = TrajectoryObserver::new(1.0);
        obs.push_full(); // baseline sample before any damage

        let mut scheduled: Vec<u32> = Vec::new(); // dead, revival planned
        let mut due: Vec<u32> = Vec::new();
        let mut newly_dead: Vec<u32> = Vec::new();
        let mut spiked: Vec<u32> = Vec::new();
        let mut report = ClusterReport {
            n: n as u64,
            ticks: self.config.ticks,
            topology: self.config.topology.label().to_string(),
            seed: run_seed,
            quality: resilience_core::QualityTrajectory::new(1.0),
            attribution: DeficitAttribution {
                shed: 0.0,
                failed: 0.0,
                degraded: 0.0,
                retry: 0.0,
                total: 0.0,
            },
            cascades: Vec::new(),
            recovered: 0,
            lost: 0,
            exo_kills: 0,
            attack_kills: 0,
            burns: 0,
            burned_nodes: 0,
            burn_relieved: 0.0,
            final_alive: 0,
            final_giant: 0,
            min_giant: u64::MAX,
            mode_shifts: Vec::new(),
            truncated_mode_shifts: 0,
            alert_node_ticks: 0,
            emergency_node_ticks: 0,
            anticipatory_shed: 0.0,
        };
        let mut lost_count: u64 = 0;
        // Per-node anticipation: one ladder, one state per node.
        let ladder = self.config.anticipation.as_ref().map(|a| a.ladder());
        let mut modes = vec![LadderState::default(); if ladder.is_some() { n } else { 0 }];
        let mut mode_shifts = CappedLog::default();

        for tick in 0..self.config.ticks {
            // 1. Execute: fire due revivals in ascending node order.
            due.clear();
            scheduled.retain(|&v| {
                if fleet.revive_at[v as usize] <= tick {
                    due.push(v);
                    false
                } else {
                    true
                }
            });
            due.sort_unstable();
            for &v in &due {
                fleet.revive(v as usize);
                alive.set(v as usize);
                report.recovered += 1;
            }

            // 2. Burn.
            let mut burned_now: u64 = 0;
            if self.config.burn.fires_at(tick) {
                let count = self.config.burn.burn_count(n);
                let victims = match self.config.burn {
                    BurnPolicy::None => Vec::new(),
                    BurnPolicy::HubRelief { .. } => {
                        select_most_stressed(&fleet.load, &fleet.baseline, &alive, count)
                    }
                    BurnPolicy::RandomRelief { .. } => {
                        let mut picks = Vec::with_capacity(count);
                        for _ in 0..count {
                            let v = rng.gen_range(0..n) as u32;
                            if alive.get(v as usize) && !picks.contains(&v) {
                                picks.push(v);
                            }
                        }
                        picks.sort_unstable();
                        picks
                    }
                };
                report.burns += 1;
                for &v in &victims {
                    let v = v as usize;
                    let excess = fleet.load[v] - fleet.baseline[v];
                    if excess > 0.0 {
                        fleet.load[v] = fleet.baseline[v];
                        report.burn_relieved += excess;
                    }
                    burned_now += 1;
                }
                report.burned_nodes += burned_now;
            }

            // 3. Surge: seeded grains; grains on dead nodes are dropped.
            spiked.clear();
            for _ in 0..self.config.surge_drops {
                let v = rng.gen_range(0..n);
                if alive.get(v) {
                    fleet.load[v] += self.config.surge_grain;
                    spiked.push(v as u32);
                }
            }

            // 4. Chaos faults: pure per-(tick, node) lookup.
            newly_dead.clear();
            if !plan.is_quiet() {
                for v in 0..n {
                    if !alive.get(v) {
                        continue;
                    }
                    if let Some(fault) = plan.slot_fault("cluster", tick, v as u64) {
                        match fault.kind {
                            FaultKind::Panic | FaultKind::Poison => {
                                alive.clear(v);
                                newly_dead.push(v as u32);
                                report.exo_kills += 1;
                                if fault.is_permanent() {
                                    fleet.condemn(v, policy);
                                }
                            }
                            FaultKind::Delay | FaultKind::Gray => {
                                // Timing / gray fault: the node stays
                                // alive but work piles up.
                                fleet.load[v] += self.config.surge_grain;
                                spiked.push(v as u32);
                            }
                        }
                    }
                }
            }

            // 5. Attack.
            if let Some(spec) = attack.filter(|s| s.tick == tick) {
                let count = ((spec.fraction * n as f64).round() as usize).min(n);
                let victims: Vec<u32> = match spec.strategy {
                    AttackStrategy::TargetedByDegree => self.attack_order[..count].to_vec(),
                    AttackStrategy::Random => {
                        // Partial Fisher–Yates over the id range.
                        let mut ids: Vec<u32> = (0..n as u32).collect();
                        for i in 0..count {
                            let j = rng.gen_range(i..n);
                            ids.swap(i, j);
                        }
                        ids.truncate(count);
                        ids
                    }
                };
                for &v in &victims {
                    let v = v as usize;
                    if alive.get(v) {
                        alive.clear(v);
                        newly_dead.push(v as u32);
                        report.attack_kills += 1;
                        if !spec.recoverable {
                            fleet.condemn(v, policy);
                        }
                    }
                }
            }

            // Surge/delay spikes can overload without a death.
            spiked.sort_unstable();
            spiked.dedup();
            for &v in &spiked {
                let v = v as usize;
                if alive.get(v) && fleet.load[v] > fleet.capacity[v] {
                    alive.clear(v);
                    newly_dead.push(v as u32);
                }
            }

            // 6. Cascade.
            newly_dead.sort_unstable();
            newly_dead.dedup();
            let mut shed_now = 0.0;
            if !newly_dead.is_empty() {
                let trigger_ids = newly_dead.clone();
                let stats = propagate(
                    &self.topology,
                    &mut alive,
                    &mut fleet.load,
                    &fleet.capacity,
                    &mut newly_dead,
                    &mut scratch,
                );
                shed_now = stats.shed_load;
                report.cascades.push(CascadeRecord { tick, stats });

                // 7. Plan: MAPE-K recovery for everything that died.
                for &v in trigger_ids.iter().chain(scratch.toppled_ids.iter()) {
                    let v = v as usize;
                    if fleet.failures[v] > policy.retries {
                        // Condemned (permanent fault / unrecoverable
                        // attack): dead for good.
                        lost_count += 1;
                    } else if fleet.plan_recovery(v, tick, policy) {
                        scheduled.push(v as u32);
                    } else {
                        lost_count += 1;
                    }
                }
            }

            // 7½. Anticipate: per-node mode switching from neighborhood
            // cascade pressure. Runs after the cascade so the
            // dead-neighbor census is current, and before the drain so
            // Alert's faster drain applies this tick. Emergency nodes
            // shed their excess outright — a voluntary, Shed-charged
            // loss that keeps the node standing instead of toppling.
            if let Some(ladder) = &ladder {
                for (v, mode) in modes.iter_mut().enumerate() {
                    if !alive.get(v) {
                        continue;
                    }
                    let neighbors = self.topology.neighbors(v);
                    let dead = neighbors
                        .iter()
                        .filter(|&&u| !alive.get(u as usize))
                        .count();
                    let dead_frac = if neighbors.is_empty() {
                        0.0
                    } else {
                        dead as f64 / neighbors.len() as f64
                    };
                    let span = fleet.capacity[v] - fleet.baseline[v];
                    let stress = if span > 0.0 {
                        ((fleet.load[v] - fleet.baseline[v]) / span).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    // The worse of the two signals, at full range: a
                    // blend would cap stress-only pressure at half
                    // scale, pushing Emergency past the topple point.
                    let pressure = dead_frac.max(stress);
                    if let Some((from, to)) = ladder.step(mode, tick, pressure) {
                        mode_shifts.push(NodeModeShift {
                            tick,
                            node: v as u32,
                            from: OperatingMode::from_level(from),
                            to: OperatingMode::from_level(to),
                        });
                    }
                    match mode.level() {
                        1 => report.alert_node_ticks += 1,
                        2 => {
                            report.emergency_node_ticks += 1;
                            let excess = fleet.load[v] - fleet.baseline[v];
                            if excess > 0.0 {
                                fleet.load[v] = fleet.baseline[v];
                                report.anticipatory_shed += excess;
                                shed_now += excess;
                            }
                        }
                        _ => {}
                    }
                }
            }

            // 8. Drain excess load on alive nodes (Alert nodes drain
            // faster — the anticipatory "serve it away before the front
            // arrives" policy).
            if self.config.drain > 0.0 {
                let keep = 1.0 - self.config.drain;
                let alert_keep = self.config.anticipation.as_ref().map(|a| {
                    1.0 - (self.config.drain * a.alert_drain_milli as f64 / 1000.0).min(1.0)
                });
                alive.for_each_one(|v| {
                    let excess = fleet.load[v] - fleet.baseline[v];
                    if excess != 0.0 {
                        let k = match alert_keep {
                            Some(ak) if modes[v].level() == 1 => ak,
                            _ => keep,
                        };
                        fleet.load[v] = fleet.baseline[v] + excess * k;
                    }
                });
            }

            // 9. Score the tick.
            let alive_count = alive.count() as u64;
            let giant = self.topology.giant_component(|v| alive.get(v)) as u64;
            report.min_giant = report.min_giant.min(giant);
            let disconnected = alive_count.saturating_sub(giant);
            obs.charge(DeficitCause::Retry, scheduled.len() as f64);
            obs.charge(DeficitCause::Failed, lost_count as f64);
            obs.charge(
                DeficitCause::Degraded,
                DISCONNECT_COST * disconnected as f64,
            );
            obs.charge(DeficitCause::Degraded, BURN_COST * burned_now as f64);
            // Shed load beyond the fleet's total demand is meaningless:
            // cap the charge so the tick's deficit never exceeds `n`
            // (dead + ½·disconnected + ¼·burned is provably ≤ n, so
            // only the shed component needs the guard — this keeps the
            // per-cause areas reconciling exactly with total R).
            let base = scheduled.len() as f64
                + lost_count as f64
                + DISCONNECT_COST * disconnected as f64
                + BURN_COST * burned_now as f64;
            obs.charge(DeficitCause::Shed, shed_now.min((n as f64 - base).max(0.0)));
            obs.end_tick(n as u64);
        }

        report.final_alive = alive.count() as u64;
        report.final_giant = self.topology.giant_component(|v| alive.get(v)) as u64;
        if report.min_giant == u64::MAX {
            report.min_giant = report.final_giant;
        }
        report.lost = lost_count;
        (report.mode_shifts, report.truncated_mode_shifts) = mode_shifts.into_parts();
        report.attribution = obs.attribution();
        report.quality = obs.quality().clone();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::modes::LOG_CAP;
    use resilience_core::quality::FULL_QUALITY;

    fn small_config() -> ClusterConfig {
        let mut c = ClusterConfig::new(400, TopologyKind::ScaleFree { m: 3 });
        c.ticks = 30;
        c
    }

    #[test]
    fn quiet_run_stays_at_full_quality() {
        let engine = ClusterEngine::new(small_config(), 7);
        let report = engine.run(1, None, &FaultPlan::none());
        assert_eq!(report.resilience_loss(), 0.0);
        assert_eq!(report.final_alive, 400);
        assert_eq!(report.final_giant as usize, 400);
        assert!(report.cascades.is_empty());
        for &q in report.quality.samples() {
            assert_eq!(q, FULL_QUALITY);
        }
    }

    #[test]
    fn attack_degrades_quality_and_targeted_beats_random() {
        let engine = ClusterEngine::new(small_config(), 7);
        let attack = |strategy, fraction| AttackSpec {
            tick: 5,
            strategy,
            fraction,
            recoverable: false,
        };
        let targeted = engine.run(
            1,
            Some(&attack(AttackStrategy::TargetedByDegree, 0.1)),
            &FaultPlan::none(),
        );
        let random = engine.run(
            1,
            Some(&attack(AttackStrategy::Random, 0.1)),
            &FaultPlan::none(),
        );
        assert!(targeted.resilience_loss() > 0.0);
        assert!(
            targeted.resilience_loss() > random.resilience_loss(),
            "hub attack should hurt a scale-free cluster more: targeted {} vs random {}",
            targeted.resilience_loss(),
            random.resilience_loss()
        );
        assert_eq!(targeted.attack_kills, 40);
    }

    #[test]
    fn runs_are_bit_identical() {
        let engine = ClusterEngine::new(small_config(), 3);
        let attack = AttackSpec {
            tick: 4,
            strategy: AttackStrategy::Random,
            fraction: 0.2,
            recoverable: true,
        };
        let plan = FaultPlan {
            panic_rate: 0.002,
            ..FaultPlan::none()
        };
        let a = engine.run(11, Some(&attack), &plan);
        let b = engine.run(11, Some(&attack), &plan);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let c = engine.run(12, Some(&attack), &plan);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn recoverable_attack_is_healed_by_the_supervisor() {
        let mut config = small_config();
        config.ticks = 40;
        let engine = ClusterEngine::new(config, 5);
        let attack = AttackSpec {
            tick: 5,
            strategy: AttackStrategy::Random,
            fraction: 0.1,
            recoverable: true,
        };
        let report = engine.run(2, Some(&attack), &FaultPlan::none());
        assert!(report.recovered > 0, "supervisor should revive victims");
        // Healed cluster ends whole again.
        assert_eq!(report.final_alive, 400);
        // Quality dipped then recovered: R is positive but bounded well
        // below the unrecoverable plateau.
        let unrec = AttackSpec {
            recoverable: false,
            ..attack
        };
        let plateau = engine.run(2, Some(&unrec), &FaultPlan::none());
        assert!(report.resilience_loss() > 0.0);
        assert!(report.resilience_loss() < plateau.resilience_loss());
    }

    #[test]
    fn surge_without_headroom_cascades_and_attribution_reconciles() {
        let mut config = small_config();
        config.surge_drops = 80;
        config.surge_grain = 0.6;
        config.headroom = 0.4;
        config.drain = 0.02;
        config.ticks = 50;
        let engine = ClusterEngine::new(config, 9);
        let report = engine.run(4, None, &FaultPlan::none());
        assert!(
            !report.cascades.is_empty(),
            "surge pressure should topple nodes"
        );
        assert!(report.total_toppled() > 0);
        // Per-cause areas reconcile with the trajectory's total R.
        let att = report.attribution;
        assert!(
            (att.components_sum() - att.total).abs() <= 1e-6 * att.total.max(1.0),
            "attribution drift: components {} vs total {}",
            att.components_sum(),
            att.total
        );
        assert_eq!(att.total, report.resilience_loss());
    }

    /// The surge regime used by the anticipation tests: grains smaller
    /// than the headroom span, so stress accumulates across ticks and
    /// the warning signal (rising load stress, then dead neighbors)
    /// precedes the topple instead of arriving with it. Grains at 0.6
    /// would collapse the whole fleet on tick 0 — nothing left to warn.
    fn surge_config() -> ClusterConfig {
        let mut config = small_config();
        config.surge_drops = 80;
        config.surge_grain = 0.05;
        config.headroom = 0.4;
        config.drain = 0.02;
        config.ticks = 50;
        config
    }

    #[test]
    fn anticipation_off_is_byte_identical_to_the_previous_engine() {
        // `anticipation: None` must leave every output untouched —
        // same quality samples, same cascades, same attribution.
        let engine = ClusterEngine::new(surge_config(), 9);
        let report = engine.run(4, None, &FaultPlan::none());
        assert!(report.mode_shifts.is_empty());
        assert_eq!(report.alert_node_ticks, 0);
        assert_eq!(report.anticipatory_shed, 0.0);
        let again = engine.run(4, None, &FaultPlan::none());
        assert_eq!(report, again);
    }

    #[test]
    fn anticipatory_cluster_beats_reactive_under_surge() {
        let reactive = ClusterEngine::new(surge_config(), 9).run(4, None, &FaultPlan::none());
        let mut config = surge_config();
        config.anticipation = Some(NodeAnticipationConfig::default());
        let anticipatory = ClusterEngine::new(config, 9).run(4, None, &FaultPlan::none());
        assert!(
            !anticipatory.mode_shifts.is_empty(),
            "surge pressure must move node modes"
        );
        assert!(anticipatory.anticipatory_shed > 0.0);
        assert!(
            anticipatory.resilience_loss() < reactive.resilience_loss(),
            "anticipation must lower R: anticipatory {} vs reactive {}",
            anticipatory.resilience_loss(),
            reactive.resilience_loss()
        );
        assert!(
            anticipatory.total_toppled() < reactive.total_toppled(),
            "voluntary shedding must prevent topples: {} vs {}",
            anticipatory.total_toppled(),
            reactive.total_toppled()
        );
        // The anticipatory run is still bit-replayable.
        let mut config = surge_config();
        config.anticipation = Some(NodeAnticipationConfig::default());
        let again = ClusterEngine::new(config, 9).run(4, None, &FaultPlan::none());
        assert_eq!(anticipatory, again);
    }

    /// Byte-identity pin of the node-anticipation ladder: every output
    /// the ladder drives (the shift log, the per-mode node-ticks, the
    /// voluntary shed and the Q(t) samples it shapes) hashed with
    /// 64-bit FNV-1a. A change to the ladder's bands, dwell or
    /// comparison convention moves this digest.
    #[test]
    fn node_anticipation_report_matches_pinned_digest() {
        const GOLDEN: u64 = 0x6feb_a355_bc35_6b05;
        let mut config = surge_config();
        config.anticipation = Some(NodeAnticipationConfig::default());
        let report = ClusterEngine::new(config, 9).run(4, None, &FaultPlan::none());
        let mut words = vec![report.mode_shifts.len() as u64];
        for s in &report.mode_shifts {
            words.extend([s.tick, u64::from(s.node), s.from as u64, s.to as u64]);
        }
        words.extend([
            report.truncated_mode_shifts,
            report.alert_node_ticks,
            report.emergency_node_ticks,
            report.anticipatory_shed.to_bits(),
        ]);
        words.extend(report.quality.samples().iter().map(|q| q.to_bits()));
        let digest = words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
            (h ^ w).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            digest,
            GOLDEN,
            "node-anticipation digest moved: got {digest:#018x} ({} shifts, {} truncated)",
            report.mode_shifts.len(),
            report.truncated_mode_shifts
        );
    }

    #[test]
    fn mode_shift_log_is_capped_deterministically() {
        let mut config = surge_config();
        config.ticks = 150;
        config.anticipation = Some(NodeAnticipationConfig::default());
        let report = ClusterEngine::new(config, 9).run(4, None, &FaultPlan::none());
        assert_eq!(report.mode_shifts.len(), LOG_CAP);
        assert!(report.truncated_mode_shifts > 0);
    }

    #[test]
    fn burn_policy_relieves_stress() {
        let mut config = small_config();
        // Grains smaller than the headroom: stress accumulates across
        // ticks instead of toppling nodes outright, which is the regime
        // where relieving stressed nodes has something to relieve.
        config.surge_drops = 80;
        config.surge_grain = 0.15;
        config.headroom = 0.4;
        config.drain = 0.02;
        config.ticks = 50;
        config.burn = BurnPolicy::HubRelief {
            fraction: 0.05,
            period: 4,
        };
        let engine = ClusterEngine::new(config, 9);
        let report = engine.run(4, None, &FaultPlan::none());
        assert!(report.burns > 0);
        assert!(report.burn_relieved > 0.0);
    }
}
