//! Experiment E3 (Figure 3 of the paper): topology dependence of the
//! budget/buffer trade-off on the three-task chain.
//!
//! Measures the per-capacity joint solve and the whole sweep for the chain
//! `wa → wb → wc`, the latter through the batch engine; the series (per-task
//! budgets versus the common buffer capacity bound) is printed by
//! `figures -- fig3`.

use bbs_bench::{fig3_configuration, paper_options};
use bbs_engine::suites::fig3_scenario;
use bbs_engine::{Engine, RunSettings, Suite};
use budget_buffer::{compute_mapping, with_capacity_cap};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_chain_solves(c: &mut Criterion) {
    let configuration = fig3_configuration();
    let options = paper_options();
    let mut group = c.benchmark_group("fig3_single_capacity");
    for capacity in [1u64, 5, 10] {
        let constrained = with_capacity_cap(&configuration, capacity);
        group.bench_with_input(
            BenchmarkId::from_parameter(capacity),
            &constrained,
            |b, constrained| {
                b.iter(|| compute_mapping(black_box(constrained), &options).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_chain_sweep(c: &mut Criterion) {
    let suite = Suite::new("bench", vec![fig3_scenario()]);
    let settings = RunSettings::default();
    let engine = Engine::new(1);
    c.bench_function("fig3_full_sweep_1_to_10", |b| {
        b.iter(|| engine.run_suite(black_box(&suite), &settings).unwrap());
    });
}

criterion_group!(benches, bench_chain_solves, bench_chain_sweep);
criterion_main!(benches);
