//! Minting a suite's work items: copy-on-write views versus
//! clone-per-point, serial versus pool-parallel.
//!
//! Expanding a suite used to clone the scenario's full `Configuration` once
//! per sweep point and derive the cache key from the clone. The redesign
//! mints a `ConfigView` per point — one `Arc` bump plus a `Copy` cap — and
//! streams the key straight off the view, so minting a point is
//! allocation-free. A run mints each point inside its solve job, when a
//! thread claims the point's index; `Engine::expand_suite` mints every
//! point of a suite as one cursor job through the same call, so these
//! benches measure minting on its own.
//!
//! Three measurements over the 10 000-point `sweep-10k` suite:
//!
//! * `clone_per_point` — the pre-refactor baseline, reconstructed from the
//!   public API: `with_capacity_cap` (a full deep clone of the
//!   configuration) plus `ScenarioKeySeed::key_for` on the clone, per point.
//! * `view_serial` — `Engine::expand_suite` at `--jobs 1`: the same keys,
//!   derived by streaming each view against the shared base, drained on the
//!   calling thread into index-addressed slots.
//! * `view_pooled_j8` — `Engine::expand_suite` at `--jobs 8`: the same
//!   cursor job drained by the calling thread and seven pooled threads.
//!   The speedup over `view_serial` scales with physical cores; on a
//!   single-core runner the hand-off overhead makes it a wash, which is
//!   itself worth tracking — the pooled path must never be much *worse*
//!   than serial.

use bbs_engine::suites::sweep_10k_suite;
use bbs_engine::{Engine, RunSettings, ScenarioKeySeed};
use budget_buffer::with_capacity_cap;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn settings(jobs: usize) -> RunSettings {
    RunSettings {
        jobs,
        ..RunSettings::default()
    }
}

fn bench_suite_expansion(c: &mut Criterion) {
    let suite = sweep_10k_suite();
    let scenario = &suite.scenarios[0];
    let base = scenario.workload.resolve().unwrap();
    let caps = scenario.sweep.as_ref().unwrap().caps().unwrap();
    let options = scenario.resolved_options();
    let flow = scenario.resolved_flow().unwrap();

    let mut group = c.benchmark_group("suite_expansion_10k");
    group.sample_size(10);

    group.bench_function("clone_per_point", |b| {
        b.iter(|| {
            let seed = ScenarioKeySeed::new(&options, flow.as_str());
            let mut keys = Vec::with_capacity(caps.len());
            for &cap in &caps {
                let capped = with_capacity_cap(black_box(&base), cap);
                keys.push(seed.key_for(&capped));
            }
            black_box(keys)
        });
    });

    let engine = Engine::new(8);
    group.bench_function("view_serial", |b| {
        b.iter(|| {
            engine
                .expand_suite(black_box(&suite), &settings(1))
                .unwrap()
        });
    });

    group.bench_function("view_pooled_j8", |b| {
        b.iter(|| {
            engine
                .expand_suite(black_box(&suite), &settings(8))
                .unwrap()
        });
    });

    group.finish();
}

criterion_group!(benches, bench_suite_expansion);
criterion_main!(benches);
