//! Shared workloads and helpers for the benchmark harness.
//!
//! Every experiment of the paper is *declared* as a scenario in
//! `bbs_engine::suites` and *executed* by the engine's batch executor; this
//! crate only resolves those scenarios' workloads and options for the
//! Criterion benches, so there is exactly one definition of each workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bbs_engine::suites::{fig2a_scenario, fig3_scenario, runtime_scenario, runtime_scenarios};
use bbs_engine::Scenario;
use bbs_taskgraph::Configuration;
use budget_buffer::SolveOptions;

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

#[cfg(test)]
mod tests {
    use super::*;
    use budget_buffer::compute_mapping;

    #[test]
    fn runtime_workloads_are_solvable() {
        for (name, configuration) in runtime_workloads().into_iter().take(2) {
            let mapping = compute_mapping(&configuration, &paper_options())
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(mapping.total_budget() > 0, "{name} produced no budgets");
        }
    }
}
