//! Constraint-automorphism orbits for symmetry-reduced verification.
//!
//! The recoverability enumerator pays Σ_s C(n,s) repair walks. When the
//! environment declares variable automorphisms
//! ([`Constraint::symmetry_classes`]) — permutations of interchangeable
//! variables that fix the fit set — damage patterns fall into *orbits*
//! that all share one verdict: a pattern's repair length is invariant
//! under any automorphism that also fixes the start configuration. The
//! symmetry-reduced checker therefore canonicalizes each orbit to its
//! preorder-minimal representative, verifies that one member, and
//! multiplies by the orbit size, breaking the combinatorial ceiling
//! because whole orbits cost one check.
//!
//! An orbit is identified by its *signature*: the number of damaged
//! variables per interchangeability class. The orbit size is the product
//! of per-class binomials, and the representative takes the
//! lowest-indexed members of each class — which is exactly the
//! lowest-preorder-rank member, so counterexamples come out bit-identical
//! to the unreduced enumerator (see `tests/symmetry_equivalence.rs`).

use std::cmp::Ordering;

use resilience_core::{Config, Constraint};

/// A partition of a constraint's variables into interchangeability
/// classes, validated against a start configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryClasses {
    /// Compacted class id per variable (ids are `0..n_classes`, numbered
    /// by first appearance).
    class_of: Vec<usize>,
    /// Members of each class, ascending.
    members: Vec<Vec<usize>>,
}

impl SymmetryClasses {
    /// Build the orbit structure for verifying recoverability of `start`
    /// under `env`. Returns `None` when no reduction is sound:
    ///
    /// * the constraint declares no symmetry,
    /// * the declared partition does not cover `start.len()` variables, or
    /// * `start` is not constant within some class (then the class's
    ///   permutations move the start configuration, so damage orbits no
    ///   longer share repair lengths).
    pub fn detect(env: &dyn Constraint, start: &Config) -> Option<SymmetryClasses> {
        let declared = env.symmetry_classes()?;
        if declared.len() != start.len() {
            return None;
        }
        // Compact ids in order of first appearance so downstream
        // enumeration order is a pure function of the declaration.
        let mut remap: Vec<Option<usize>> = vec![None; declared.len()];
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut class_of = Vec::with_capacity(declared.len());
        for (var, &raw) in declared.iter().enumerate() {
            if raw >= remap.len() {
                return None; // malformed declaration
            }
            let id = match remap[raw] {
                Some(id) => id,
                None => {
                    let id = members.len();
                    remap[raw] = Some(id);
                    members.push(Vec::new());
                    id
                }
            };
            members[id].push(var);
            class_of.push(id);
        }
        // Start must be class-constant: an automorphism permuting a class
        // with mixed start bits maps the verification problem to a
        // different start configuration.
        for class in &members {
            let first = start.get(class[0]);
            if class.iter().any(|&v| start.get(v) != first) {
                return None;
            }
        }
        Some(SymmetryClasses { class_of, members })
    }

    /// Number of variables covered.
    pub fn n_vars(&self) -> usize {
        self.class_of.len()
    }

    /// Number of interchangeability classes.
    pub fn n_classes(&self) -> usize {
        self.members.len()
    }

    /// Class id of a variable.
    pub fn class_of(&self, var: usize) -> usize {
        self.class_of[var]
    }

    /// Members of class `c`, ascending.
    pub fn class_members(&self, c: usize) -> &[usize] {
        &self.members[c]
    }

    /// Whether every variable is interchangeable with every other (one
    /// class — the spacecraft/tiger-team shape, where orbits are exactly
    /// the damage sizes).
    pub fn is_fully_symmetric(&self) -> bool {
        self.members.len() == 1
    }

    /// Enumerate every damage orbit with `1..=max_damage` damaged
    /// variables, in a deterministic order (total damage ascending, then
    /// per-class counts lexicographically descending). The orbit sizes
    /// partition the unreduced case count exactly:
    /// Σ sizes = Σ_{s=1..max_damage} C(n, s). Returns `None` when that
    /// count does not fit `u64`.
    pub fn damage_orbits(&self, max_damage: usize) -> Option<Vec<DamageOrbit>> {
        let max_damage = max_damage.min(self.n_vars());
        let mut signatures = Vec::new();
        let mut counts = vec![0usize; self.n_classes()];
        for total in 1..=max_damage {
            self.fill_signatures(total, 0, &mut counts, &mut signatures);
        }
        let orbits = signatures
            .iter()
            .map(|counts| self.orbit_of_signature(counts))
            .collect::<Option<Vec<_>>>()?;
        orbits
            .iter()
            .try_fold(0u64, |total, orbit| total.checked_add(orbit.size))?;
        Some(orbits)
    }

    /// Recursively distribute `remaining` damaged variables over classes
    /// `from..`, emitting one signature per complete distribution.
    fn fill_signatures(
        &self,
        remaining: usize,
        from: usize,
        counts: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if remaining == 0 {
            out.push(counts.clone());
            return;
        }
        if from == self.n_classes() {
            return;
        }
        let cap = self.members[from].len().min(remaining);
        // Descending count first: for the fully symmetric single-class
        // case this visits sizes in the natural ascending-total order
        // driven by the caller.
        for c in (0..=cap).rev() {
            counts[from] = c;
            self.fill_signatures(remaining - c, from + 1, counts, out);
        }
        counts[from] = 0;
    }

    /// The orbit of one signature: its size (product of per-class
    /// binomials) and its preorder-minimal representative (the lowest
    /// `count` indices of each class, merged ascending), or `None` when
    /// the size does not fit `u64`.
    fn orbit_of_signature(&self, counts: &[usize]) -> Option<DamageOrbit> {
        let mut size: u64 = 1;
        let mut representative = Vec::new();
        for (class, &count) in counts.iter().enumerate() {
            size = size.checked_mul(binomial(self.members[class].len(), count)?)?;
            representative.extend_from_slice(&self.members[class][..count]);
        }
        representative.sort_unstable();
        Some(DamageOrbit {
            signature: counts.to_vec(),
            size,
            representative,
        })
    }
}

/// One equivalence class of damage patterns under the declared
/// automorphisms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DamageOrbit {
    /// Damaged-variable count per interchangeability class.
    pub signature: Vec<usize>,
    /// Number of damage patterns in the orbit.
    pub size: u64,
    /// The orbit member with the lowest subset-preorder rank (damaged
    /// variable indices, ascending).
    pub representative: Vec<usize>,
}

/// Compare two damage subsets (ascending index sequences) by the
/// enumeration preorder of the exhaustive checker: a subset precedes its
/// extensions, and siblings order by their first differing element. This
/// is the rank order that decides which failure survives as the
/// counterexample.
pub fn preorder_cmp(a: &[usize], b: &[usize]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    // One is a prefix of the other: the prefix (shorter) comes first.
    a.len().cmp(&b.len())
}

/// C(n, k) in `u64`, or `None` when it does not fit.
pub fn binomial(n: usize, k: usize) -> Option<u64> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        // C(n, i + 1) = C(n, i) · (n − i) / (i + 1): the product fits
        // u128 because both factors fit u64, and the partial binomials
        // grow with i ≤ n / 2, so the first one past u64 settles it.
        acc = u64::try_from(u128::from(acc) * (n - i) as u128 / (i + 1) as u128).ok()?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::{AllOnes, AtLeastOnes, ExplicitSet};

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(0, 0), Some(1));
        assert_eq!(binomial(5, 0), Some(1));
        assert_eq!(binomial(5, 2), Some(10));
        assert_eq!(binomial(8, 3), Some(56));
        assert_eq!(binomial(3, 4), Some(0));
        assert_eq!(binomial(64, 32), Some(1_832_624_140_942_590_534));
        assert_eq!(binomial(67, 33), Some(14_226_520_737_620_288_370));
        assert_eq!(binomial(68, 34), None);
    }

    #[test]
    fn damage_orbits_past_u64_are_refused() {
        let classes = SymmetryClasses::detect(&AllOnes::new(70), &Config::ones(70)).unwrap();
        assert!(classes.damage_orbits(25).is_some());
        // Every orbit fits, but their total does not.
        assert_eq!(classes.damage_orbits(26), None);
        // C(70, 28) alone does not fit.
        assert_eq!(classes.damage_orbits(28), None);
    }

    #[test]
    fn detect_accepts_counting_constraints_from_uniform_start() {
        let start = Config::ones(6);
        let classes = SymmetryClasses::detect(&AllOnes::new(6), &start).expect("symmetric");
        assert!(classes.is_fully_symmetric());
        assert_eq!(classes.n_vars(), 6);
        assert_eq!(classes.class_members(0), &[0, 1, 2, 3, 4, 5]);
        assert!(SymmetryClasses::detect(&AtLeastOnes::new(6, 2), &start).is_some());
    }

    #[test]
    fn detect_rejects_undeclared_and_mismatched() {
        let set: ExplicitSet = ["1111".parse().unwrap()].into_iter().collect();
        assert!(SymmetryClasses::detect(&set, &Config::ones(4)).is_none());
        // Declared arity differs from the start length.
        assert!(SymmetryClasses::detect(&AllOnes::new(5), &Config::ones(4)).is_none());
    }

    #[test]
    fn mixed_start_within_a_class_blocks_reduction() {
        // AtLeastOnes(4, 2) is symmetric, but a start of 1100 is not
        // class-constant, so permutations move the start and orbits are
        // not verdict-uniform.
        let start: Config = "1100".parse().unwrap();
        assert!(SymmetryClasses::detect(&AtLeastOnes::new(4, 2), &start).is_none());
        // A uniform start is fine.
        assert!(SymmetryClasses::detect(&AtLeastOnes::new(4, 2), &Config::ones(4)).is_some());
    }

    #[test]
    fn fully_symmetric_orbits_are_damage_sizes() {
        let classes = SymmetryClasses::detect(&AllOnes::new(8), &Config::ones(8)).unwrap();
        let orbits = classes.damage_orbits(3).unwrap();
        assert_eq!(orbits.len(), 3);
        for (i, orbit) in orbits.iter().enumerate() {
            let s = i + 1;
            assert_eq!(Some(orbit.size), binomial(8, s));
            // Representative is the prefix {0..s-1} — the lowest-ranked
            // member of the size-s orbit.
            let want: Vec<usize> = (0..s).collect();
            assert_eq!(orbit.representative, want);
        }
        let total: u64 = orbits.iter().map(|o| o.size).sum();
        assert_eq!(total, 8 + 28 + 56);
    }

    #[test]
    fn orbit_sizes_partition_the_case_count() {
        // Two-class partition exercised directly (no constraint in the
        // workspace declares one yet, but the machinery is general).
        let classes = SymmetryClasses {
            class_of: vec![0, 0, 1, 1, 1],
            members: vec![vec![0, 1], vec![2, 3, 4]],
        };
        let orbits = classes.damage_orbits(2).unwrap();
        let total: u64 = orbits.iter().map(|o| o.size).sum();
        assert_eq!(total, 5 + 10); // C(5,1) + C(5,2)
        for orbit in &orbits {
            // Representative matches its signature and is ascending.
            let mut per_class = vec![0usize; 2];
            for &v in &orbit.representative {
                per_class[classes.class_of(v)] += 1;
            }
            assert_eq!(per_class, orbit.signature);
            assert!(orbit.representative.windows(2).all(|w| w[0] < w[1]));
        }
        // Representatives are unique.
        let mut reps: Vec<_> = orbits.iter().map(|o| o.representative.clone()).collect();
        reps.sort();
        reps.dedup();
        assert_eq!(reps.len(), orbits.len());
    }

    #[test]
    fn preorder_cmp_matches_enumeration_rank() {
        // Preorder over {0..3}, max size 2: {0}, {0,1}, {0,2}, {1}, {1,2}, {2}.
        let order: Vec<Vec<usize>> = vec![
            vec![0],
            vec![0, 1],
            vec![0, 2],
            vec![1],
            vec![1, 2],
            vec![2],
        ];
        for i in 0..order.len() {
            for j in 0..order.len() {
                assert_eq!(
                    preorder_cmp(&order[i], &order[j]),
                    i.cmp(&j),
                    "{:?} vs {:?}",
                    order[i],
                    order[j]
                );
            }
        }
    }
}
