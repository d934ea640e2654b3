//! Reasoning under uncertainty about the system state (the paper's §4.3).
//!
//! "However, to analyze a system based on this definition requires us to
//! know in advance all possible events, some of which could be totally
//! unexpected. … We, therefore, expect that reasoning techniques dealing
//! with various uncertainty of a system model be a promising tool."
//!
//! A [`BeliefState`] is the set of configurations the administrator
//! considers possible when sensors are incomplete. Repair planning over a
//! belief state must work for *every* member (conservative repair).

use std::collections::HashSet;

use resilience_core::{Config, Constraint};

/// A set of possible configurations — what the administrator knows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BeliefState {
    possible: HashSet<Config>,
}

impl BeliefState {
    /// Certain knowledge of a single configuration.
    pub fn certain(config: Config) -> Self {
        let mut possible = HashSet::new();
        possible.insert(config);
        BeliefState { possible }
    }

    /// Belief over an explicit set of possibilities.
    pub fn new<I: IntoIterator<Item = Config>>(configs: I) -> Self {
        BeliefState {
            possible: configs.into_iter().collect(),
        }
    }

    /// The belief after an *unobserved* damage of up to `max_flips` bits:
    /// every configuration within Hamming distance `max_flips` of a current
    /// possibility becomes possible. This is how an unanticipated shock
    /// blows up uncertainty.
    pub fn after_unobserved_damage(&self, max_flips: usize) -> BeliefState {
        let mut out: HashSet<Config> = self.possible.clone();
        let mut frontier: Vec<Config> = self.possible.iter().cloned().collect();
        for _ in 0..max_flips {
            let mut next = Vec::new();
            for cfg in &frontier {
                for i in 0..cfg.len() {
                    let mut c = cfg.clone();
                    c.flip(i);
                    if out.insert(c.clone()) {
                        next.push(c);
                    }
                }
            }
            frontier = next;
        }
        BeliefState { possible: out }
    }

    /// Incorporate a sensor reading: bit `i` is observed to be `value`.
    /// Possibilities disagreeing with the observation are discarded.
    pub fn observe_bit(&mut self, i: usize, value: bool) {
        self.possible.retain(|c| i < c.len() && c.get(i) == value);
    }

    /// Apply an *action* the administrator performs: flip bit `i` in every
    /// possibility (actions are deterministic even when state is unknown).
    fn apply_flip(&mut self, i: usize) {
        let flipped: HashSet<Config> = self
            .possible
            .iter()
            .map(|c| {
                let mut c = c.clone();
                if i < c.len() {
                    c.flip(i);
                }
                c
            })
            .collect();
        self.possible = flipped;
    }

    /// Number of possibilities.
    pub fn cardinality(&self) -> usize {
        self.possible.len()
    }

    /// Whether no configuration is considered possible (contradictory
    /// observations).
    pub fn is_contradictory(&self) -> bool {
        self.possible.is_empty()
    }

    /// Whether *every* possibility is fit — the only situation where the
    /// administrator can declare recovery.
    pub fn certainly_fit(&self, env: &dyn Constraint) -> bool {
        !self.possible.is_empty() && self.possible.iter().all(|c| env.is_fit(c))
    }

    /// Whether *some* possibility is fit.
    pub fn possibly_fit(&self, env: &dyn Constraint) -> bool {
        self.possible.iter().any(|c| env.is_fit(c))
    }

    /// Iterate over the possibilities.
    pub fn iter(&self) -> impl Iterator<Item = &Config> {
        self.possible.iter()
    }

    /// Bits whose value is the same across all possibilities (known bits),
    /// as `(index, value)` pairs. Empty if the belief is contradictory.
    pub fn known_bits(&self) -> Vec<(usize, bool)> {
        let mut iter = self.possible.iter();
        let first = match iter.next() {
            Some(f) => f,
            None => return Vec::new(),
        };
        (0..first.len())
            .filter_map(|i| {
                let v = first.get(i);
                self.possible
                    .iter()
                    .all(|c| c.get(i) == v)
                    .then_some((i, v))
            })
            .collect()
    }

    /// Greedy conservative repair: repeatedly flip the bit that minimizes
    /// the *worst-case* violation over the belief, until certainly fit or
    /// `max_steps` is exhausted. Returns the flips made and whether the
    /// belief ended certainly fit.
    pub fn conservative_repair(
        &mut self,
        env: &dyn Constraint,
        max_steps: usize,
    ) -> (Vec<usize>, bool) {
        let mut flips = Vec::new();
        let len = match self.possible.iter().next() {
            Some(c) => c.len(),
            None => return (flips, false),
        };
        for _ in 0..max_steps {
            if self.certainly_fit(env) {
                break;
            }
            let current = self.worst_violation(env);
            let mut best: Option<(usize, f64)> = None;
            for i in 0..len {
                let mut probe = self.clone();
                probe.apply_flip(i);
                let v = probe.worst_violation(env);
                if v < current {
                    match best {
                        Some((_, bv)) if bv <= v => {}
                        _ => best = Some((i, v)),
                    }
                }
            }
            match best {
                Some((i, _)) => {
                    self.apply_flip(i);
                    flips.push(i);
                }
                None => break,
            }
        }
        let ok = self.certainly_fit(env);
        (flips, ok)
    }

    fn worst_violation(&self, env: &dyn Constraint) -> f64 {
        self.possible
            .iter()
            .map(|c| env.violation(c))
            .fold(0.0, f64::max)
    }
}

impl FromIterator<Config> for BeliefState {
    fn from_iter<I: IntoIterator<Item = Config>>(iter: I) -> Self {
        BeliefState::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::{AllOnes, AtLeastOnes};

    #[test]
    fn certain_belief() {
        let b = BeliefState::certain("101".parse().unwrap());
        assert_eq!(b.cardinality(), 1);
        assert!(!b.is_contradictory());
    }

    #[test]
    fn unobserved_damage_grows_belief_to_hamming_ball() {
        let b = BeliefState::certain(Config::ones(4));
        let after = b.after_unobserved_damage(1);
        // Ball of radius 1 around 1111: itself + 4 neighbours.
        assert_eq!(after.cardinality(), 5);
        let after2 = b.after_unobserved_damage(2);
        // 1 + 4 + 6 = 11.
        assert_eq!(after2.cardinality(), 11);
    }

    #[test]
    fn observations_shrink_belief() {
        let mut b = BeliefState::certain(Config::ones(3)).after_unobserved_damage(1);
        assert_eq!(b.cardinality(), 4);
        b.observe_bit(0, true); // bit 0 is good
        assert_eq!(b.cardinality(), 3); // 111, 101, 110
        b.observe_bit(1, true);
        assert_eq!(b.cardinality(), 2); // 111, 110
        b.observe_bit(2, true);
        assert_eq!(b.cardinality(), 1);
    }

    #[test]
    fn contradictory_observations() {
        let mut b = BeliefState::certain("10".parse().unwrap());
        b.observe_bit(0, false);
        assert!(b.is_contradictory());
        assert!(!b.certainly_fit(&AllOnes::new(2)));
    }

    #[test]
    fn known_bits() {
        let b: BeliefState = ["110".parse().unwrap(), "100".parse().unwrap()]
            .into_iter()
            .collect();
        let known = b.known_bits();
        assert!(known.contains(&(0, true)));
        assert!(known.contains(&(2, false)));
        assert_eq!(known.len(), 2);
        assert!(BeliefState::default().known_bits().is_empty());
    }

    #[test]
    fn apply_flip_acts_on_all_members() {
        let mut b: BeliefState = ["10".parse().unwrap(), "00".parse().unwrap()]
            .into_iter()
            .collect();
        b.apply_flip(1);
        let members: HashSet<String> = b.iter().map(|c| c.to_string()).collect();
        assert!(members.contains("11"));
        assert!(members.contains("01"));
    }

    #[test]
    fn conservative_repair_with_graded_constraint() {
        // Under AtLeastOnes the worst-case violation is graded, so the
        // conservative repairer can hill-climb: believe either 0000 or
        // 0001; need ≥ 3 ones.
        let env = AtLeastOnes::new(4, 3);
        let mut b: BeliefState = ["0000".parse().unwrap(), "0001".parse().unwrap()]
            .into_iter()
            .collect();
        let (flips, ok) = b.conservative_repair(&env, 8);
        assert!(ok, "flips: {flips:?}, belief: {b:?}");
        assert!(flips.len() >= 3 && flips.len() <= 4);
        assert!(b.certainly_fit(&env));
    }

    #[test]
    fn conservative_repair_already_fit() {
        let env = AtLeastOnes::new(3, 1);
        let mut b = BeliefState::certain("111".parse().unwrap());
        let (flips, ok) = b.conservative_repair(&env, 5);
        assert!(ok);
        assert!(flips.is_empty());
    }

    #[test]
    fn conservative_repair_contradictory_fails() {
        let env = AtLeastOnes::new(3, 1);
        let mut b = BeliefState::default();
        let (flips, ok) = b.conservative_repair(&env, 5);
        assert!(!ok);
        assert!(flips.is_empty());
    }

    #[test]
    fn uncertainty_costs_repair_steps() {
        // With certainty, repairing 0111 under AllOnes takes 1 flip. With
        // a radius-1 belief, the conservative repairer must also cover the
        // worst member, needing at least as many flips.
        let env = AllOnes::new(4);
        let mut certain = BeliefState::certain("0111".parse().unwrap());
        let (flips_c, ok_c) = certain.conservative_repair(&env, 8);
        assert!(ok_c);
        assert_eq!(flips_c.len(), 1);

        let mut uncertain =
            BeliefState::certain("0111".parse().unwrap()).after_unobserved_damage(1);
        let (_, ok_u) = uncertain.conservative_repair(&env, 8);
        // A belief containing configs on both sides of a flip can never be
        // made certainly fit by blind flips alone: flipping maps distinct
        // members to distinct configs. So conservative repair fails.
        assert!(!ok_u);
        // …until observations restore certainty:
        let mut observed = BeliefState::certain("0111".parse().unwrap()).after_unobserved_damage(1);
        for i in 0..4 {
            let value = i != 0; // true state 0111
            observed.observe_bit(i, value);
        }
        let (flips_o, ok_o) = observed.conservative_repair(&env, 8);
        assert!(ok_o);
        assert_eq!(flips_o.len(), 1);
    }
}
