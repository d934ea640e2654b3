//! E2 kernel: repair search and exhaustive k-recoverability, ablating the
//! repair strategy (greedy vs BFS-optimal) called out in DESIGN.md.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use resilience_core::{seeded_rng, AllOnes, Config, RunContext, ShockKind};
use resilience_dcsp::recoverability::{
    check_recoverability, recoverability_reference, RecoverabilityOptions, RecoverabilityReport,
};
use resilience_dcsp::repair::{BfsRepair, GreedyRepair, RepairStrategy};
use resilience_dcsp::DcspSystem;
use std::sync::Arc;

/// The rank walk of greedy repair from a fit `start`, without stats.
fn exhaustive(
    start: &Config,
    env: &AllOnes,
    d: usize,
    k: usize,
    ctx: &RunContext,
) -> RecoverabilityReport {
    let options = RecoverabilityOptions::default();
    check_recoverability(start, env, &GreedyRepair::new(), d, k, ctx, options)
        .expect("ones(n) is fit under AllOnes(n)")
        .0
}

fn bench_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("dcsp_repair");
    let n = 64;
    let env = AllOnes::new(n);
    let mut damaged = Config::ones(n);
    let mut rng = seeded_rng(1);
    damaged.flip_random(6, &mut rng);

    group.bench_function("greedy_propose", |b| {
        let greedy = GreedyRepair::new();
        b.iter(|| greedy.propose_flip(black_box(&damaged), &env))
    });
    group.bench_function("bfs_shortest_plan_d3", |b| {
        let mut small = Config::ones(12);
        small.flip_random(3, &mut rng);
        let bfs = BfsRepair::new(3);
        let env12 = AllOnes::new(12);
        b.iter(|| bfs.shortest_plan(black_box(&small), &env12))
    });
    group.bench_function("episode_shock_and_repair", |b| {
        b.iter(|| {
            let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(n)));
            sys.episode(
                &ShockKind::BitDamage { flips: 5 },
                &GreedyRepair::new(),
                16,
                &mut rng,
            )
        })
    });
    group.bench_function("exhaustive_k_recoverable_n10_d2", |b| {
        let start = Config::ones(10);
        let env10 = AllOnes::new(10);
        let ctx = RunContext::new(0);
        b.iter(|| exhaustive(black_box(&start), &env10, 2, 2, &ctx))
    });
    // Engine vs retained reference on the headline n=16/d=3 workload
    // (696 damage patterns): the engine memoizes repair trajectories and
    // walks ranks without per-case clones.
    let start16 = Config::ones(16);
    let env16 = AllOnes::new(16);
    group.bench_function("exhaustive_engine_n16_d3", |b| {
        let ctx = RunContext::new(0);
        b.iter(|| exhaustive(black_box(&start16), &env16, 3, 3, &ctx))
    });
    group.bench_function("exhaustive_reference_n16_d3", |b| {
        b.iter(|| recoverability_reference(black_box(&start16), &env16, &GreedyRepair::new(), 3, 3))
    });
    // Thread scaling on the widened E2 workload (n=24/d=4, 12 950 cases).
    let start24 = Config::ones(24);
    let env24 = AllOnes::new(24);
    for threads in [1usize, 4] {
        group.bench_function(format!("exhaustive_parallel_n24_d4/t{threads}"), |b| {
            let ctx = RunContext::with_threads(0, threads);
            b.iter(|| exhaustive(black_box(&start24), &env24, 4, 4, &ctx))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_repair);
criterion_main!(benches);
