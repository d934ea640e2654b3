//! Pins the budgeted repair step: "flip up to `r` of the lowest-indexed
//! bits that differ from a goal" (the spacecraft fixes `r` components a
//! step, §4.2; an organism flips `adaptation_rate` bits a step, §4.4).
//!
//! * Spacecraft missions: a digest of every `MissionLog` (the quality
//!   trajectory's bits and the counters) over a grid of component
//!   counts, damage bounds, repair rates, debris schedules and seeds.
//! * Greedy repair: under `AllOnes` and under a one-member `ExplicitSet`
//!   every differing bit lowers the violation by one, so `r` successive
//!   `GreedyRepair::propose_flip` calls pick the same bits as one
//!   budgeted step of `r` (`Organism::adapt` with `adaptation_rate = r`).

use systems_resilience::agents::Organism;
use systems_resilience::core::{
    seeded_rng, AllOnes, Config, Constraint, ExplicitSet, ShockSchedule,
};
use systems_resilience::dcsp::repair::{GreedyRepair, RepairStrategy};
use systems_resilience::dcsp::Spacecraft;

/// 64-bit FNV-1a over `u64` words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every mission of the grid under `schedule`, folded into one digest.
fn missions_digest(schedule: &ShockSchedule) -> u64 {
    let mut words = Vec::new();
    for n in [1usize, 10, 16, 63, 64, 65, 130] {
        for d in [0usize, 1, 3, 5] {
            for r in [1usize, 2, 3] {
                for seed in 0..3u64 {
                    let mut craft = Spacecraft::new(n, d, r);
                    let mut rng = seeded_rng(seed ^ ((n as u64) << 8) ^ ((d as u64) << 16));
                    let log = craft.simulate_mission(120, schedule, &mut rng);
                    words.extend(log.quality.samples().iter().map(|q| q.to_bits()));
                    words.extend(
                        [
                            log.strikes,
                            log.total_damage,
                            log.steps_fit,
                            log.steps,
                            log.longest_outage,
                        ]
                        .map(|x| x as u64),
                    );
                }
            }
        }
    }
    fnv1a(words)
}

#[test]
fn mission_logs_match_pinned_digests() {
    let cases = [
        (ShockSchedule::Periodic { period: 1 }, 0x1aa1_8416_d871_df8a),
        (ShockSchedule::Periodic { period: 4 }, 0x0d9d_8883_0886_47ac),
        (ShockSchedule::Poisson { p: 0.3 }, 0x5a51_04d6_2417_8168),
        (
            ShockSchedule::Explicit {
                times: vec![1, 2, 3, 10, 11, 40, 90, 119, 120],
            },
            0xe426_1a91_8952_af22,
        ),
        (ShockSchedule::Never, 0x1e3d_0443_050c_0185),
    ];
    for (schedule, want) in cases {
        let got = missions_digest(&schedule);
        assert_eq!(got, want, "{schedule:?}");
    }
}

/// `r` greedy proposals applied in turn; returns the flipped bits.
fn greedy_flips(state: &mut Config, env: &dyn Constraint, r: usize) -> Vec<usize> {
    let greedy = GreedyRepair::new();
    let mut flips = Vec::new();
    while flips.len() < r && !env.is_fit(state) {
        let Some(bit) = greedy.propose_flip(state, env) else {
            break;
        };
        state.flip(bit);
        flips.push(bit);
    }
    flips
}

#[test]
fn greedy_proposals_match_one_budgeted_step() {
    let mut rng = seeded_rng(31);
    for len in [1usize, 2, 24, 63, 64, 65, 130] {
        for case in 0..12 {
            let state = Config::random(len, &mut rng);
            let target = Config::random(len, &mut rng);
            let envs: [(Config, Box<dyn Constraint>); 2] = [
                (Config::ones(len), Box::new(AllOnes::new(len))),
                (target.clone(), Box::new(ExplicitSet::new([target]))),
            ];
            for (goal, env) in &envs {
                for r in 0..=5 {
                    let mut greedy = state.clone();
                    let flips = greedy_flips(&mut greedy, env.as_ref(), r);
                    let mut organism = Organism::new(state.clone(), 1.0, r);
                    let fixed = organism.adapt(goal);
                    let context = format!("len {len}, case {case}, r {r}, {}", env.describe());
                    assert_eq!(fixed, flips.len(), "{context}");
                    assert_eq!(organism.genome, greedy, "{context}");
                    // The bits flipped are the lowest-indexed differing ones.
                    let lowest: Vec<usize> = (0..len)
                        .filter(|&i| state.get(i) != goal.get(i))
                        .take(r)
                        .collect();
                    assert_eq!(flips, lowest, "{context}");
                }
            }
        }
    }
}
