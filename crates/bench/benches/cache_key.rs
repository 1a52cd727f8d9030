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

use bbs_engine::{CacheKey, CanonicalKey, ScenarioKeySeed};
use bbs_taskgraph::presets::{PresetSpec, RandomWorkload};
use bbs_taskgraph::Configuration;
use budget_buffer::{with_capacity_cap, SolveOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

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

criterion_group!(benches, bench_key_construction);
criterion_main!(benches);
