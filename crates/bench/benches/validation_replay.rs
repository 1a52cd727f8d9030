//! Validation replay throughput: the post-solve stage in isolation.
//!
//! The validation stage replays every solved mapping on the discrete-event
//! scheduler simulator — after the solves, as one cursor job on the engine's
//! workers. These measurements separate that replay cost from the solve
//! cost it rides behind:
//!
//! * `single_mapping` — one `validate_mapping` call on the solved
//!   producer/consumer mapping at the engine's default 256 iterations: the
//!   unit cost of one replay task.
//! * `paper_stage_serial` / `paper_stage_j4` — the whole stage
//!   (`validate_outcome` with `validate_all`, which builds a temporary
//!   engine) over the pre-solved 47-point `paper` outcome, at one and at
//!   four workers: stage overhead plus the cursor's scaling. The stage
//!   replays each distinct (configuration, budgets, capacities) once, so
//!   the 46 feasible points take 27 replays: fig2a and fig2b share theirs.
//! * `pooled_gen_smoke_warm` — a full pooled `run_suite` of the generated
//!   `gen-smoke` suite on a warm shared cache: with every solve a memo hit,
//!   the run is dominated by exactly the replay work `bbs validate` adds.
//! * `gen_seed11_serial` — every feasible mapping of the 200-point
//!   `generate_suite` of seed 11, replayed one after another by
//!   `validate_mapping` on one thread: the simulator kernel alone, over
//!   all four generated families (solved once, outside the timed loop).
//! * `gen_seed11_stage_j2` — the whole stage (`validate_outcome` at two
//!   workers) over the same pre-solved outcome: generated scenarios of one
//!   family and size share a configuration, so the stage replays 38
//!   distinct mappings where the kernel-only id above replays all 153.

use bbs_engine::suites::{gen_smoke_suite, paper_suite};
use bbs_engine::{
    generate_suite, run_suite, validate_outcome, Engine, GenParams, RunSettings, SolveCache,
};
use bbs_scheduler_sim::{validate_mapping, SimulationSettings};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

fn bench_validation_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("validation_replay");
    group.sample_size(10);

    // One pre-solved paper outcome, replayed fresh per iteration.
    let solved = run_suite(&paper_suite(), &RunSettings::with_jobs(4)).unwrap();
    let validate = |jobs| RunSettings {
        validate_all: true,
        jobs,
        ..RunSettings::default()
    };

    let pc = &solved.scenarios[0];
    let mapping = pc.points[0].result.as_ref().expect("fig2a cap 1 solves");
    let budgets: BTreeMap<_, _> = mapping.budgets().collect();
    let capacities: BTreeMap<_, _> = mapping.capacities().collect();
    let settings = SimulationSettings {
        iterations: RunSettings::default().simulation_iterations,
        ..SimulationSettings::default()
    };
    group.bench_function("single_mapping", |b| {
        b.iter(|| {
            black_box(validate_mapping(
                black_box(&pc.configuration),
                &budgets,
                &capacities,
                &settings,
            ))
        });
    });

    group.bench_function("paper_stage_serial", |b| {
        b.iter(|| {
            let mut outcome = solved.clone();
            validate_outcome(&mut outcome, &validate(1));
            black_box(outcome)
        });
    });
    group.bench_function("paper_stage_j4", |b| {
        b.iter(|| {
            let mut outcome = solved.clone();
            validate_outcome(&mut outcome, &validate(4));
            black_box(outcome)
        });
    });

    // Warm cache: every solve is a memo hit, so the pooled run's cost is
    // almost entirely the validation phase and its replays.
    let engine = Engine::new(4);
    let cache = Arc::new(SolveCache::new());
    let suite = gen_smoke_suite();
    engine
        .run_suite_with_cache(&suite, &validate(4), &cache)
        .unwrap();
    group.bench_function("pooled_gen_smoke_warm", |b| {
        b.iter(|| {
            black_box(
                engine
                    .run_suite_with_cache(&suite, &validate(4), &cache)
                    .unwrap(),
            )
        });
    });

    // Every feasible generated mapping, replayed serially.
    let generated = run_suite(
        &generate_suite(&GenParams {
            seed: 11,
            points: 200,
        }),
        &RunSettings::with_jobs(4),
    )
    .unwrap();
    let replays: Vec<_> = generated
        .scenarios
        .iter()
        .flat_map(|scenario| {
            scenario.points.iter().filter_map(|point| {
                let mapping = point.result.as_ref().ok()?;
                Some((
                    &scenario.configuration,
                    mapping.budgets().collect::<BTreeMap<_, _>>(),
                    mapping.capacities().collect::<BTreeMap<_, _>>(),
                ))
            })
        })
        .collect();
    group.bench_function("gen_seed11_serial", |b| {
        b.iter(|| {
            for (configuration, budgets, capacities) in &replays {
                black_box(validate_mapping(
                    black_box(configuration),
                    budgets,
                    capacities,
                    &settings,
                ));
            }
        });
    });
    group.bench_function("gen_seed11_stage_j2", |b| {
        b.iter(|| {
            let mut outcome = generated.clone();
            validate_outcome(&mut outcome, &validate(2));
            black_box(outcome)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_validation_replay);
criterion_main!(benches);
