//! Experiment E4: run-time scaling of the joint computation.
//!
//! The paper reports a run-time of "milliseconds" for its (tiny) examples
//! and argues the approach scales because the SOCP has polynomial
//! complexity. This bench measures the solve time on random streaming DAGs
//! of increasing size so the scaling trend can be inspected directly
//! (`figures -- runtime` prints a table of the same data). Beyond the
//! paper-plus sizes it also times the same recipe at 48 and 96 tasks.

use bbs_bench::{paper_options, runtime_workload, runtime_workloads};
use budget_buffer::compute_mapping;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_runtime_scaling(c: &mut Criterion) {
    let options = paper_options();
    let mut group = c.benchmark_group("runtime_scaling");
    group.sample_size(10);
    let larger = [48, 96].map(runtime_workload);
    for (name, configuration) in runtime_workloads().into_iter().chain(larger) {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &configuration,
            |b, configuration| {
                b.iter(|| compute_mapping(black_box(configuration), &options).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_runtime_scaling);
criterion_main!(benches);
