//! Cache-key construction: the engine's per-sweep-point hot path.
//!
//! PR 4's contention bench showed per-item cost in memo-hit-heavy sweeps is
//! dominated by building the cache key, not by queue locks: the old key
//! serialised the full configuration to a canonical-JSON `String` plus the
//! options JSON for *every* point. This bench
//! pins the three generations of that cost:
//!
//! * `canonical_key_strings` — the old scheme: materialise the full
//!   [`CanonicalKey`] (configuration JSON + options JSON + fingerprint).
//! * `streaming_digest` — one allocation-free streaming digest of the
//!   configuration (what a stand-alone [`CacheKey::new`] costs beyond the
//!   options).
//! * `seed_key_for_sweep` — the engine's real path: a hoisted
//!   [`ScenarioKeySeed`] deriving all ten sweep-point keys (options and
//!   flow folded once, only each capped configuration streamed).
//!
//! Run on the paper's producer/consumer graph and on the 24-task random DAG
//! so both the tiny-model and big-model regimes stay measured.
//!
//! `store/disk_hit_gen_seed11` times the disk tier behind a warm generated
//! run: for every distinct key of the 200-point `bbs gen --seed 11` suite,
//! materialise the [`CanonicalKey`] and look it up in a [`SolveStore`]
//! filled during set-up — address, container read, minilz decode, the key
//! byte check and the outcome decode.

use bbs_engine::{
    generate_suite, CacheKey, CanonicalKey, Engine, GenParams, RunSettings, ScenarioKeySeed,
    SolveCache, SolveStore,
};
use bbs_taskgraph::presets::{PresetSpec, RandomWorkload};
use bbs_taskgraph::{ConfigView, Configuration};
use budget_buffer::{with_capacity_cap, SolveOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;

fn producer_consumer() -> Configuration {
    PresetSpec::named("producer-consumer").build().unwrap()
}

fn random_dag_24() -> Configuration {
    let random = RandomWorkload {
        num_tasks: 24,
        num_processors: 12,
        extra_edge_probability: 0.2,
        seed: 7 + 24,
        ..RandomWorkload::default()
    };
    PresetSpec::named("random-dag")
        .with_random(random)
        .build()
        .unwrap()
}

fn bench_key_construction(c: &mut Criterion) {
    let options = SolveOptions::default().prefer_budget_minimisation();
    let mut group = c.benchmark_group("cache_key");
    group.sample_size(50);
    for (label, base) in [("pc", producer_consumer()), ("dag24", random_dag_24())] {
        let capped: Vec<Configuration> = (1..=10u64)
            .map(|cap| with_capacity_cap(&base, cap))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("canonical_key_strings", label),
            &capped,
            |b, capped| {
                b.iter(|| {
                    for configuration in capped {
                        black_box(CanonicalKey::from_parts(
                            black_box(configuration),
                            &options,
                            "joint",
                        ));
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("streaming_digest", label),
            &capped,
            |b, capped| {
                b.iter(|| {
                    for configuration in capped {
                        black_box(black_box(configuration).canonical_digest());
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("seed_key_for_sweep", label),
            &capped,
            |b, capped| {
                b.iter(|| {
                    let seed = ScenarioKeySeed::new(&options, "joint");
                    for configuration in capped {
                        black_box(seed.key_for(black_box(configuration)));
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("standalone_cache_key", label),
            &capped,
            |b, capped| {
                b.iter(|| {
                    for configuration in capped {
                        black_box(CacheKey::new(black_box(configuration), &options, "joint"));
                    }
                });
            },
        );
    }
    group.finish();
}

/// One distinct point of a suite: its view, options JSON and flow name.
struct DistinctPoint {
    view: ConfigView,
    options_json: Arc<str>,
    flow: Arc<str>,
}

fn bench_store_disk_hits(c: &mut Criterion) {
    let suite = generate_suite(&GenParams {
        seed: 11,
        points: 200,
    });
    let directory =
        std::env::temp_dir().join(format!("bbs-bench-disk-hits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&directory);
    let cache = Arc::new(SolveCache::with_store(
        SolveStore::open(&directory).unwrap(),
    ));
    Engine::new(1)
        .run_suite_with_cache(&suite, &RunSettings::default(), &cache)
        .unwrap();

    let mut seen = HashSet::new();
    let mut points = Vec::new();
    for scenario in &suite.scenarios {
        let base = Arc::new(scenario.workload.resolve().unwrap());
        let options = scenario.resolved_options();
        let flow = scenario.resolved_flow().unwrap();
        let seed = ScenarioKeySeed::new(&options, flow.as_str());
        for cap in scenario.sweep.as_ref().unwrap().caps().unwrap() {
            let view = ConfigView::with_capacity_cap(Arc::clone(&base), cap);
            if seen.insert(seed.key_for(&view)) {
                points.push(DistinctPoint {
                    view,
                    options_json: seed.options_json(),
                    flow: seed.flow(),
                });
            }
        }
    }
    let store = SolveStore::open(&directory).unwrap();

    let mut group = c.benchmark_group("store");
    group.sample_size(30);
    group.bench_function("disk_hit_gen_seed11", |b| {
        b.iter(|| {
            for point in &points {
                let key = CanonicalKey::materialise(&point.view, &point.options_json, &point.flow);
                let hit = store.load(&key, point.view.base());
                black_box(hit.expect("filled in set-up").is_ok());
            }
        });
    });
    group.finish();
    assert_eq!(store.stats().rejected, 0, "every lookup was a disk hit");
    let _ = std::fs::remove_dir_all(&directory);
}

criterion_group!(benches, bench_key_construction, bench_store_disk_hits);
criterion_main!(benches);
