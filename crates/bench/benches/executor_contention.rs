//! Executor overhead on a many-small-points workload, at several worker
//! counts.
//!
//! The paper's figure 2/3 sweeps are a many-small-points workload: hundreds
//! of work items whose per-item cost collapses to a memo-cache hit once the
//! distinct instances are solved. That is where per-item scheduling cost
//! shows: every item is one claim off the engine's shared atomic cursor
//! plus one slot write.
//!
//! The synthetic suite below has 500 single-point scenarios over one tiny
//! workload (one distinct cache key), so a run is one real solve plus 499
//! memo hits: per-item work is a few microseconds and the measured time is
//! scheduling overhead, not solver time. A cold-cache group with distinct
//! keys per scenario batch exercises the pool under real solve load.

use bbs_engine::{Engine, RunSettings, Scenario, SolveCache, Suite, SweepSpec, WorkloadSpec};
use bbs_taskgraph::presets::PresetSpec;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// `points` single-point scenarios over one shared tiny workload: one
/// distinct solve, `points - 1` memo hits — a pure scheduling stress.
fn contention_suite(points: usize) -> Suite {
    let scenarios = (0..points)
        .map(|i| {
            Scenario::new(
                &format!("p{i:04}"),
                WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
            )
            .with_sweep(SweepSpec::list([4u64]))
        })
        .collect();
    Suite::new("contention", scenarios)
}

/// A smaller suite whose scenarios sweep distinct caps, so every item is a
/// real solve: the pool under actual load imbalance.
fn solve_suite(scenarios: usize) -> Suite {
    let scenarios = (0..scenarios)
        .map(|i| {
            Scenario::new(
                &format!("s{i:02}"),
                WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
            )
            .with_sweep(SweepSpec::range(1, 6))
        })
        .collect();
    Suite::new("solves", scenarios)
}

fn bench_memo_hit_storm(c: &mut Criterion) {
    let suite = contention_suite(500);
    let mut group = c.benchmark_group("executor_contention_500pt");
    group.sample_size(20);
    for jobs in [1usize, 4, 8] {
        // Workers are spawned once and parked between runs; a fresh cache
        // per run keeps the workload at 1 solve + 499 memo hits.
        let engine = Engine::new(jobs);
        let settings = RunSettings::with_jobs(jobs);
        group.bench_function(format!("pooled_j{jobs}"), |b| {
            b.iter(|| {
                engine
                    .run_suite_with_cache(
                        black_box(&suite),
                        &settings,
                        &Arc::new(SolveCache::new()),
                    )
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_real_solves(c: &mut Criterion) {
    let suite = solve_suite(4);
    let engine = Engine::new(8);
    let settings = RunSettings::with_jobs(8);
    let mut group = c.benchmark_group("executor_real_solves_24pt");
    group.sample_size(10);
    group.bench_function("pooled_j8", |b| {
        b.iter(|| engine.run_suite(black_box(&suite), &settings).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_memo_hit_storm, bench_real_solves);
criterion_main!(benches);
