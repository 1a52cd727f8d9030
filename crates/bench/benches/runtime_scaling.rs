//! Experiment E4: run-time scaling of the joint computation.
//!
//! The paper reports a run-time of "milliseconds" for its (tiny) examples
//! and argues the approach scales because the SOCP has polynomial
//! complexity. This bench measures the solve time on random streaming DAGs
//! of increasing size so the scaling trend can be inspected directly
//! (`figures -- runtime` prints a table of the same data). Beyond the
//! paper-plus sizes it also times the same recipe at 48 and 96 tasks.
//!
//! The `lowering` group times one layer of that solve on its own:
//! `ModelBuilder::build`, which lowers the recipe's formulation at 24 and
//! 96 tasks to the standard conic form the interior-point method reads.

use bbs_bench::{paper_options, runtime_workload, runtime_workloads};
use budget_buffer::compute_mapping;
use budget_buffer::formulation::Formulation;
use budget_buffer::model::DataflowModel;
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

fn bench_lowering(c: &mut Criterion) {
    let options = paper_options();
    let mut group = c.benchmark_group("lowering");
    for (name, configuration) in [24, 96].map(runtime_workload) {
        let model = DataflowModel::build(&configuration);
        let formulation = Formulation::build(&configuration, &model, &options).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &formulation.builder,
            |b, builder| {
                b.iter(|| black_box(builder).build().unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_runtime_scaling, bench_lowering);
criterion_main!(benches);
