//! Shared workloads and helpers for the benchmark harness.
//!
//! Every experiment of the paper is *declared* as a scenario in
//! `bbs_engine::suites` and *executed* by the engine's batch executor; this
//! crate only adapts the engine's outcomes to the shapes the Criterion
//! benches and the `figures` binary consume, so there is exactly one code
//! path from scenario to numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bbs_engine::suites::{fig2a_scenario, fig3_scenario, runtime_scenario, runtime_scenarios};
use bbs_engine::{run_scenario, RunSettings, Scenario, ScenarioOutcome};
use bbs_taskgraph::{BufferRef, Configuration, TaskRef};
use budget_buffer::{Mapping, MappingError, SolveOptions, TradeoffPoint};
use std::collections::BTreeMap;

/// The buffer-capacity range swept in the paper's experiments (1..=10
/// containers).
pub const PAPER_CAPACITY_RANGE: std::ops::RangeInclusive<u64> = 1..=10;

/// The solver options used for every paper experiment: budgets are minimised
/// with priority, buffer storage as a tie-breaker.
pub fn paper_options() -> SolveOptions {
    SolveOptions::default().prefer_budget_minimisation()
}

/// The producer/consumer configuration of Experiment 1 (Figures 2a and 2b),
/// without a capacity cap (the sweep applies the caps).
pub fn fig2_configuration() -> Configuration {
    fig2a_scenario()
        .workload
        .resolve()
        .expect("built-in fig2a workload is valid")
}

/// The three-task chain of Experiment 2 (Figure 3), without capacity caps.
pub fn fig3_configuration() -> Configuration {
    fig3_scenario()
        .workload
        .resolve()
        .expect("built-in fig3 workload is valid")
}

/// Runs a built-in sweep scenario through the engine and adapts the outcome
/// to the classic `(configuration, points)` shape.
///
/// # Errors
///
/// Propagates the first solver error of the sweep.
///
/// # Panics
///
/// Panics when the scenario itself is invalid (unknown preset or flow,
/// empty sweep) or has no sweep — this helper is the bench harness's
/// adapter for the *built-in* sweep scenarios, which are validated by the
/// engine's own tests; arbitrary user scenarios should go through
/// [`bbs_engine::run_scenario`] directly.
pub fn scenario_sweep(
    scenario: &Scenario,
) -> Result<(Configuration, Vec<TradeoffPoint>), MappingError> {
    let outcome =
        run_scenario(scenario, &RunSettings::default()).expect("built-in scenarios validate");
    let points = outcome_to_tradeoff_points(&outcome)?;
    Ok((outcome.configuration, points))
}

/// Converts an engine outcome into the [`TradeoffPoint`] series the report
/// helpers in `budget_buffer::report` consume.
///
/// # Errors
///
/// Propagates the first solver error of the sweep.
///
/// # Panics
///
/// Panics if the outcome is not from a sweep scenario: a [`TradeoffPoint`]
/// is *defined* by its capacity cap, so an uncapped single solve has no
/// representation here (a cap of 0 would be rejected everywhere else).
pub fn outcome_to_tradeoff_points(
    outcome: &ScenarioOutcome,
) -> Result<Vec<TradeoffPoint>, MappingError> {
    outcome
        .points
        .iter()
        .map(|point| {
            let mapping: Mapping = point.result.clone()?;
            Ok(TradeoffPoint {
                capacity_cap: point
                    .capacity_cap
                    .expect("tradeoff points require a sweep scenario (capacity-capped points)"),
                mapping,
                solve_time: point.solve_time,
            })
        })
        .collect()
}

/// Runs the Figure 2(a)/(b) sweep through the engine: one joint solve per
/// buffer capacity.
///
/// # Errors
///
/// Propagates solver errors; the paper set-up is feasible for every capacity
/// in the range, so an error indicates a regression.
pub fn fig2_sweep() -> Result<(Configuration, Vec<TradeoffPoint>), MappingError> {
    scenario_sweep(&fig2a_scenario())
}

/// Runs the Figure 3 sweep over the chain topology through the engine.
///
/// # Errors
///
/// Propagates solver errors.
pub fn fig3_sweep() -> Result<(Configuration, Vec<TradeoffPoint>), MappingError> {
    scenario_sweep(&fig3_scenario())
}

/// Random workloads of increasing size for the run-time scaling experiment
/// (the paper's "run-time is milliseconds" claim, E4 in DESIGN.md), resolved
/// from the engine's built-in `runtime-*` scenarios.
pub fn runtime_workloads() -> Vec<(String, Configuration)> {
    runtime_scenarios()
        .into_iter()
        .map(named_workload)
        .collect()
}

/// The run-time recipe at `tasks` tasks, beyond the built-in sizes, named
/// like [`runtime_workloads`]' entries.
pub fn runtime_workload(tasks: usize) -> (String, Configuration) {
    named_workload(runtime_scenario(tasks))
}

fn named_workload(scenario: Scenario) -> (String, Configuration) {
    let configuration = scenario
        .workload
        .resolve()
        .expect("runtime workloads are valid");
    (
        format!("{}-task random DAG", configuration.num_tasks()),
        configuration,
    )
}

/// Converts a mapping into the plain maps the TDM scheduler simulator
/// consumes.
pub fn mapping_to_simulation_maps(
    mapping: &Mapping,
) -> (BTreeMap<TaskRef, u64>, BTreeMap<BufferRef, u64>) {
    (mapping.budgets().collect(), mapping.capacities().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use budget_buffer::{compute_mapping, sweep_buffer_capacity};

    #[test]
    fn fig2_sweep_produces_ten_points() {
        let (c, points) = fig2_sweep().unwrap();
        assert_eq!(points.len(), 10);
        assert_eq!(c.num_tasks(), 2);
    }

    #[test]
    fn engine_sweep_equals_direct_sweep() {
        let (c, engine_points) = fig2_sweep().unwrap();
        let direct = sweep_buffer_capacity(&c, PAPER_CAPACITY_RANGE, &paper_options()).unwrap();
        assert_eq!(engine_points.len(), direct.len());
        for (engine_point, direct_point) in engine_points.iter().zip(&direct) {
            assert_eq!(engine_point.capacity_cap, direct_point.capacity_cap);
            assert_eq!(engine_point.mapping, direct_point.mapping);
        }
    }

    #[test]
    fn runtime_workloads_are_solvable() {
        for (name, configuration) in runtime_workloads().into_iter().take(2) {
            let mapping = compute_mapping(&configuration, &paper_options())
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(mapping.total_budget() > 0, "{name} produced no budgets");
        }
    }

    #[test]
    fn simulation_maps_cover_every_task_and_buffer() {
        let c = fig2_configuration();
        let mapping = compute_mapping(&c, &paper_options()).unwrap();
        let (budgets, capacities) = mapping_to_simulation_maps(&mapping);
        assert_eq!(budgets.len(), c.num_tasks());
        assert_eq!(capacities.len(), c.num_buffers());
    }
}
