//! Deterministic replication: diversity-aware failover, hedged
//! requests, and per-family retry budgets.
//!
//! The paper's §3 names *redundancy* and *diversity* as the first two
//! passive resilience strategies; this module holds their building
//! blocks. Each request family owns a [`ReplicaSet`] of `N` backend
//! replicas, a [`ReplicaRouter`] ranks them by deterministic load-aware
//! scoring, and a per-family [`RetryBudget`] token bucket caps
//! failover+hedge volume so retry storms cannot amplify a partial
//! outage into a metastable collapse. The serve loop in
//! [`crate::engine`] drives them: it routes each primary, launches a
//! **hedged** secondary attempt when the primary's projected completion
//! eats too much of the deadline (first success wins, the loser's
//! unfinished work is reclaimed), and fails over on backend failure.
//! An unreplicated serve runs through the same loop as a set of one,
//! which never hedges or fails over.
//!
//! **Determinism contract.** Every routing, hedging, failover, and
//! budget decision reads only logical-clock state: seeded per-replica
//! fault draws ([`FaultPlan::replica_fault`]), seeded correlated-blast
//! draws keyed by *diversity class* ([`FaultPlan::correlated_hit`]),
//! and breaker/bulkhead state probed through the non-mutating
//! [`CircuitBreaker::peek_state`] / [`Bulkhead::peek_backlog`]
//! snapshots. The only parallelism stays inside the backend
//! computation, so the per-request outcome log — including *which
//! replica served* and *whether a hedge won* — is bit-identical for
//! any thread budget.
//!
//! **Diversity semantics.** A correlated fault makes one seeded draw
//! per `(request, diversity_class)` and fells every replica sharing
//! the class. A homogeneous set (all replicas in one class) therefore
//! dies as a unit with probability `p`; a fully diverse set loses all
//! copies only with probability `p^N` — the redundancy-vs-diversity
//! tradeoff of §4.4, measured instead of asserted.
//!
//! [`FaultPlan::replica_fault`]: resilience_core::faults::FaultPlan::replica_fault
//! [`FaultPlan::correlated_hit`]: resilience_core::faults::FaultPlan::correlated_hit

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::bulkhead::Bulkhead;

/// Tuning of the replication layer. All quantities are logical-clock
/// units; replication redistributes the family's existing capacity
/// across replicas (it never adds servers). `N = 1` splits nothing,
/// so under a quiet plan it decides exactly as the unreplicated config;
/// under chaos it draws per-replica faults, which damage different
/// requests than the unreplicated per-slot draws.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Replicas per family (`N`). For `N > 1` each replica gets
    /// `(servers_per_family / N).max(1)` servers and
    /// `(queue_capacity / N).max(1)` queue slots; a set of one keeps
    /// the family's capacity exactly.
    pub replicas: usize,
    /// Diversity-class assignment: replica `i` belongs to class
    /// `diversity_classes[i % len]`. Empty (the default) gives every
    /// replica its own class — maximal diversity; `vec![0]` makes the
    /// set homogeneous, so one correlated draw fells all of it.
    pub diversity_classes: Vec<u32>,
    /// Hedge when the primary's projected completion exceeds this
    /// fraction of the deadline, in milli-units (600 = 60%). A huge
    /// value disables hedging.
    pub hedge_fraction_milli: u64,
    /// Retry-budget capacity in whole tokens; each hedge or failover
    /// spends one. The bucket starts full.
    pub budget_capacity: u32,
    /// Budget refill per tick, in milli-tokens (125 = one token per
    /// 8 ticks).
    pub budget_refill_milli: u32,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            replicas: 2,
            diversity_classes: Vec::new(),
            hedge_fraction_milli: 600,
            budget_capacity: 8,
            budget_refill_milli: 125,
        }
    }
}

impl ReplicationConfig {
    /// The diversity class of `replica` under this configuration.
    pub fn class_of(&self, replica: u32) -> u32 {
        if self.diversity_classes.is_empty() {
            replica
        } else {
            self.diversity_classes[replica as usize % self.diversity_classes.len()]
        }
    }
}

/// A per-family token bucket on the logical tick clock, bounding the
/// *extra* attempts (hedges + failovers) the family may spend. Tokens
/// are integer milli-units so refill arithmetic is exact; the bucket
/// starts full so a cold burst can be absorbed, then sustained storms
/// are throttled to the refill rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryBudget {
    capacity_milli: u64,
    refill_milli: u64,
    tokens_milli: u64,
    spent: u64,
    exhausted: u64,
}

impl RetryBudget {
    /// A full bucket of `capacity` tokens refilling `refill_milli`
    /// milli-tokens per tick.
    pub fn new(capacity: u32, refill_milli: u32) -> Self {
        let capacity_milli = u64::from(capacity) * 1000;
        RetryBudget {
            capacity_milli,
            refill_milli: u64::from(refill_milli),
            tokens_milli: capacity_milli,
            spent: 0,
            exhausted: 0,
        }
    }

    /// Advance one tick: refill, capped at capacity.
    pub fn tick(&mut self) {
        self.tokens_milli = (self.tokens_milli + self.refill_milli).min(self.capacity_milli);
    }

    /// Spend one whole token if available. A failed spend is counted —
    /// the exhaustion tally is itself part of the deterministic report.
    pub fn try_spend(&mut self) -> bool {
        if self.tokens_milli >= 1000 {
            self.tokens_milli -= 1000;
            self.spent += 1;
            true
        } else {
            self.exhausted += 1;
            false
        }
    }

    /// Milli-tokens currently in the bucket.
    pub fn tokens_milli(&self) -> u64 {
        self.tokens_milli
    }

    /// Tokens spent so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Spend attempts rejected for lack of tokens.
    pub fn exhausted(&self) -> u64 {
        self.exhausted
    }
}

/// One family's replicas: per-replica bulkheads and breakers plus the
/// diversity-class table. Replication *splits* the family's capacity —
/// the aggregate server and queue counts match the unreplicated
/// family's (up to integer division), so any resilience gain is
/// attributable to redundancy, not to extra provisioning.
#[derive(Debug)]
pub struct ReplicaSet {
    pub(crate) bulkheads: Vec<Bulkhead>,
    pub(crate) breakers: Vec<CircuitBreaker>,
    classes: Vec<u32>,
}

impl ReplicaSet {
    /// A replica set of `rcfg.replicas` compartments carved out of one
    /// family's capacity.
    ///
    /// # Panics
    ///
    /// Panics if `rcfg.replicas == 0`.
    pub fn new(
        rcfg: &ReplicationConfig,
        servers_per_family: usize,
        rate_per_server: u64,
        queue_capacity: usize,
        breaker_threshold: u32,
        breaker_cooldown: u64,
    ) -> Self {
        assert!(
            rcfg.replicas >= 1,
            "a replica set needs at least one replica"
        );
        let n = rcfg.replicas;
        // A split never leaves a replica with nothing; a set of one is
        // the family's compartment exactly.
        let share = |total: usize| if n == 1 { total } else { (total / n).max(1) };
        let (servers, queue) = (share(servers_per_family), share(queue_capacity));
        ReplicaSet {
            bulkheads: (0..n)
                .map(|_| Bulkhead::new(queue, servers, rate_per_server))
                .collect(),
            breakers: (0..n)
                .map(|_| CircuitBreaker::new(breaker_threshold, breaker_cooldown))
                .collect(),
            classes: (0..n as u32).map(|r| rcfg.class_of(r)).collect(),
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.bulkheads.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.bulkheads.is_empty()
    }

    /// The diversity class of `replica`.
    pub fn class_of(&self, replica: u32) -> u32 {
        self.classes[replica as usize]
    }

    /// Jobs queued and queue slots, summed over the replicas: the
    /// family-level load the brownout dimmer and the occupancy events
    /// see, so splitting a queue into N slices does not N-fold it.
    pub(crate) fn queue_depth(&self) -> (usize, usize) {
        self.bulkheads.iter().fold((0, 0), |(queued, capacity), b| {
            (queued + b.queued(), capacity + b.capacity())
        })
    }
}

/// The deterministic load-aware scorer. Stateless: ranking reads only
/// the non-mutating [`CircuitBreaker::peek_state`] and
/// [`Bulkhead::peek_backlog`] probes, so scoring a candidate never
/// perturbs its admission state and the ranking is a pure function of
/// logical state.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaRouter;

impl ReplicaRouter {
    /// Replicas eligible for a new attempt — `allowed` by their breaker
    /// gate and with queue room — ranked best-first into `ranked` by the
    /// lexicographic key (breaker health, total backlog, queued jobs,
    /// replica index). The trailing index makes the order a total one,
    /// so ties never depend on anything but logical state. `ranked` is
    /// cleared first, so one buffer serves every admission.
    pub fn rank(set: &ReplicaSet, allowed: &[bool], tick: u64, ranked: &mut Vec<u32>) {
        ranked.clear();
        ranked.extend(
            (0..set.len() as u32)
                .filter(|&r| allowed[r as usize] && !set.bulkheads[r as usize].queue_full()),
        );
        ranked.sort_by_key(|&r| {
            let probe = set.bulkheads[r as usize].peek_backlog();
            let health = match set.breakers[r as usize].peek_state(tick) {
                BreakerState::Closed => 0u8,
                BreakerState::HalfOpen => 1,
                BreakerState::Open => 2,
            };
            (health, probe.backlog, probe.queued, r)
        });
    }
}

/// Which replica served one request and how: the per-request entry of
/// [`ServiceReport::replica_log`](crate::ServiceReport::replica_log),
/// bit-identical for any thread budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReplicaOutcome {
    /// Request id.
    pub id: u64,
    /// Replica that produced the served response.
    pub replica: u32,
    /// Whether a hedge attempt was launched for this request.
    pub hedged: bool,
    /// Whether the hedge attempt (not the primary) won the race.
    pub hedge_won: bool,
    /// Whether the request failed over to another replica.
    pub failed_over: bool,
}

/// Per-family replication tallies in the final report.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ReplicaFamilyStats {
    /// Replicas in the family's set.
    pub replicas: u32,
    /// Attempts dispatched to replicas (primaries + hedges + failovers).
    pub routed: u64,
    /// Hedge attempts launched.
    pub hedges_launched: u64,
    /// Hedge attempts that won their race.
    pub hedges_won: u64,
    /// Failovers dispatched after a replica failure.
    pub failovers: u64,
    /// Dispatched attempts felled by a correlated blast.
    pub correlated_hits: u64,
    /// Dispatched attempts that drew a gray fault.
    pub gray_slots: u64,
    /// Work units reclaimed from cancelled hedge losers.
    pub reclaimed_work: u64,
    /// Retry-budget tokens spent.
    pub budget_spent: u64,
    /// Hedge/failover attempts rejected by an empty budget.
    pub budget_exhausted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulkhead::Job;

    #[test]
    fn retry_budget_refills_on_the_tick_clock() {
        let mut b = RetryBudget::new(2, 500);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend(), "empty bucket rejects the spend");
        b.tick();
        assert!(!b.try_spend(), "500 milli is not yet a whole token");
        b.tick();
        assert!(b.try_spend(), "two refills make one token");
        assert_eq!(b.spent(), 3);
        assert_eq!(b.exhausted(), 2);
        for _ in 0..100 {
            b.tick();
        }
        assert_eq!(b.tokens_milli(), 2000, "refill caps at capacity");
    }

    #[test]
    fn diversity_classes_default_to_one_class_per_replica() {
        let diverse = ReplicationConfig::default();
        assert_eq!(diverse.class_of(0), 0);
        assert_eq!(diverse.class_of(1), 1);
        let homogeneous = ReplicationConfig {
            diversity_classes: vec![7],
            ..ReplicationConfig::default()
        };
        assert_eq!(homogeneous.class_of(0), 7);
        assert_eq!(homogeneous.class_of(1), 7);
        let striped = ReplicationConfig {
            diversity_classes: vec![0, 1],
            replicas: 4,
            ..ReplicationConfig::default()
        };
        assert_eq!(striped.class_of(2), 0);
        assert_eq!(striped.class_of(3), 1);
    }

    #[test]
    fn replica_sets_split_capacity_instead_of_adding_it() {
        let rcfg = ReplicationConfig {
            replicas: 2,
            ..ReplicationConfig::default()
        };
        let set = ReplicaSet::new(&rcfg, 4, 8, 16, 3, 30);
        assert_eq!(set.len(), 2);
        let total_queue: usize = set.bulkheads.iter().map(Bulkhead::capacity).sum();
        assert_eq!(total_queue, 16, "queue slots are redistributed, not added");
        assert_eq!(set.class_of(0), 0);
        assert_eq!(set.class_of(1), 1);
    }

    #[test]
    fn router_ranks_by_health_then_backlog_without_mutating() {
        let rcfg = ReplicationConfig {
            replicas: 3,
            ..ReplicationConfig::default()
        };
        let mut set = ReplicaSet::new(&rcfg, 3, 8, 12, 3, 30);
        // Load replica 0 and trip replica 2.
        set.bulkheads[0].admit(Job { id: 0, work: 40 });
        for _ in 0..3 {
            set.breakers[2].record_failure(5);
        }
        let allowed = vec![true, true, true];
        let before: Vec<_> = set.bulkheads.iter().map(Bulkhead::peek_backlog).collect();
        let mut ranked = Vec::new();
        ReplicaRouter::rank(&set, &allowed, 6, &mut ranked);
        assert_eq!(
            ranked,
            vec![1, 0, 2],
            "idle closed replica first, loaded second, open breaker last"
        );
        let after: Vec<_> = set.bulkheads.iter().map(Bulkhead::peek_backlog).collect();
        assert_eq!(before, after, "ranking never perturbs admission state");
    }
}
