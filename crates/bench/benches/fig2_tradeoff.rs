//! Experiment E1/E2 (Figures 2a and 2b of the paper): the budget/buffer
//! trade-off of the producer/consumer task graph.
//!
//! The bench measures the time of one joint budget/buffer solve per buffer
//! capacity (the paper reports "milliseconds" with CPLEX) and of the full
//! ten-point sweep driven through the batch engine — once per-run (cold
//! cache), once against a shared warm in-memory cache, and once against a
//! warm *disk* store with a fresh in-memory cache per run (the `bbs
//! --cache-dir` re-invocation path), to keep both memoization speed-ups
//! honest. The data series themselves are printed by
//! `cargo run -p bbs-bench --bin figures -- fig2a` / `fig2b`.

use bbs_bench::{fig2_configuration, paper_options};
use bbs_engine::suites::fig2a_scenario;
use bbs_engine::{Engine, RunSettings, SolveCache, SolveStore, Suite};
use budget_buffer::{compute_mapping, with_capacity_cap};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_single_solves(c: &mut Criterion) {
    let configuration = fig2_configuration();
    let options = paper_options();
    let mut group = c.benchmark_group("fig2a_single_capacity");
    for capacity in [1u64, 4, 7, 10] {
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

fn bench_full_sweep(c: &mut Criterion) {
    let suite = Suite::new("bench", vec![fig2a_scenario()]);
    let settings = RunSettings::default();
    let engine = Engine::new(1);
    let mut group = c.benchmark_group("fig2a_full_sweep_1_to_10");
    group.bench_function("engine_cold_cache", |b| {
        b.iter(|| engine.run_suite(black_box(&suite), &settings).unwrap());
    });
    group.bench_function("engine_warm_cache", |b| {
        let cache = Arc::new(SolveCache::new());
        b.iter(|| {
            engine
                .run_suite_with_cache(black_box(&suite), &settings, &cache)
                .unwrap()
        });
    });
    group.bench_function("engine_warm_disk_store", |b| {
        let directory =
            std::env::temp_dir().join(format!("bbs-bench-disk-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&directory);
        // Populate once; every iteration then simulates a fresh process
        // (empty in-memory tier) answering the sweep from disk.
        let warm = Arc::new(SolveCache::with_store(
            SolveStore::open(&directory).unwrap(),
        ));
        engine
            .run_suite_with_cache(&suite, &settings, &warm)
            .unwrap();
        b.iter(|| {
            let cache = Arc::new(SolveCache::with_store(
                SolveStore::open(&directory).unwrap(),
            ));
            engine
                .run_suite_with_cache(black_box(&suite), &settings, &cache)
                .unwrap()
        });
        let _ = std::fs::remove_dir_all(&directory);
    });
    group.finish();
}

criterion_group!(benches, bench_single_solves, bench_full_sweep);
criterion_main!(benches);
