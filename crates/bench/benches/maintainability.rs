//! E3 kernel: K-maintainability policy construction scaling.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use resilience_core::{AtLeastOnes, Config, PredicateConstraint};
use resilience_dcsp::maintainability::{
    analyze_bit_dcsp, analyze_bit_dcsp_adversarial, TransitionSystem,
};

fn bench_maintainability(c: &mut Criterion) {
    let mut group = c.benchmark_group("maintainability");
    for &n in &[8usize, 12] {
        let env = AtLeastOnes::new(n, n - 2);
        let ts = TransitionSystem::from_bit_dcsp(n, &env, 2);
        group.bench_function(format!("analyze/{n}bits"), |b| {
            b.iter(|| black_box(&ts).analyze())
        });
        group.bench_function(format!("analyze_reference/{n}bits"), |b| {
            b.iter(|| black_box(&ts).analyze_reference())
        });
        group.bench_function(format!("analyze_adversarial/{n}bits"), |b| {
            b.iter(|| black_box(&ts).analyze_adversarial(1))
        });
        group.bench_function(format!("analyze_adversarial_reference/{n}bits"), |b| {
            b.iter(|| black_box(&ts).analyze_adversarial_reference())
        });
    }
    // Implicit (on-the-fly) model checking past the explicit 20-bit cap's
    // comfort zone: no transition system is materialized. The predicate
    // twin of `AtLeastOnes` declares no symmetry, so this times the dense
    // per-state path rather than the popcount-orbit quotient.
    group.sample_size(10);
    for &n in &[16usize, 20] {
        let need = n - n / 3;
        let env = PredicateConstraint::new("at-least", move |c: &Config| c.count_ones() >= need);
        group.bench_function(format!("implicit_analyze/{n}bits"), |b| {
            b.iter(|| analyze_bit_dcsp(n, black_box(&env)))
        });
        for threads in [1usize, 4] {
            group.bench_function(format!("implicit_adversarial/{n}bits/t{threads}"), |b| {
                b.iter(|| analyze_bit_dcsp_adversarial(n, black_box(&env), 2, threads))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_maintainability);
criterion_main!(benches);
