//! Simulation-backed soundness of the paper suites: every feasible mapping,
//! replayed on the discrete-event scheduler simulator, must meet the
//! throughput the solver guaranteed and stay within the buffer capacities
//! it computed.
//!
//! Two layers check the same property. The direct layer calls
//! `simulate_mapping` itself and asserts the raw measurements (worst
//! period against the requirement, every high-water mark against its
//! capacity), so it cannot be fooled by a bug in the engine's validation
//! stage. The engine layer runs the same suites through
//! `RunSettings::validate_all` and asserts that each point's attached
//! verdict equals its own direct replay, bit for bit — the stage replays
//! each distinct mapping once and fans the verdict out, so a verdict routed
//! to the wrong point fails here.
//!
//! Besides the paper suites, the 200-point `bbs gen` suites of seeds 13
//! and 14 (`certificates.rs` certifies the solver's decisions on 11 and
//! 12) replay every generated family — producer/consumer pairs, chains,
//! rings and random DAGs — with zero violations.

use bbs_engine::suites::{paper_plus_suite, paper_suite, runtime_scenario};
use bbs_engine::{generate_suite, run_suite, GenParams, RunSettings, Suite, ValidationReport};
use bbs_scheduler_sim::{measurement_tolerance, simulate_mapping, SimulationSettings};
use std::collections::BTreeMap;

fn validated_settings() -> RunSettings {
    RunSettings {
        validate_all: true,
        jobs: 4,
        ..RunSettings::default()
    }
}

/// The direct layer: replay every feasible mapping of `suite` with the
/// simulator and assert the paper's soundness property on the raw
/// measurements.
fn assert_suite_is_sound(suite: &Suite) {
    let outcome = run_suite(suite, &validated_settings()).expect("suite runs");
    let iterations = validated_settings().simulation_iterations;
    let settings = SimulationSettings {
        iterations,
        ..SimulationSettings::default()
    };
    let mut replayed = 0usize;
    for scenario in &outcome.scenarios {
        let configuration = &scenario.configuration;
        let required_period = configuration
            .task_graphs()
            .map(|(_, graph)| graph.period())
            .fold(0.0f64, f64::max);
        let tolerance = measurement_tolerance(configuration, iterations);
        for point in &scenario.points {
            let Ok(mapping) = &point.result else { continue };
            let budgets: BTreeMap<_, _> = mapping.budgets().collect();
            let capacities: BTreeMap<_, _> = mapping.capacities().collect();
            let result = simulate_mapping(configuration, &budgets, &capacities, &settings)
                .unwrap_or_else(|e| {
                    panic!(
                        "{}/{:?}: feasible mapping fails to replay: {e}",
                        scenario.scenario.name, point.capacity_cap
                    )
                });
            assert!(
                result.worst_period() <= required_period + tolerance,
                "{}/{:?}: measured worst period {} exceeds required {} + tolerance {}",
                scenario.scenario.name,
                point.capacity_cap,
                result.worst_period(),
                required_period,
                tolerance
            );
            for (buffer, &capacity) in &capacities {
                let high_water = result.high_water_mark(*buffer);
                assert!(
                    high_water <= capacity,
                    "{}/{:?}: buffer {buffer:?} peaked at {high_water} over capacity {capacity}",
                    scenario.scenario.name,
                    point.capacity_cap
                );
            }
            // The engine layer: the validation stage attached exactly this
            // point's own replay, even where it shares one replay with
            // other points of equal configuration and mapping.
            let validation = point
                .validation
                .as_ref()
                .expect("validate_all annotates every feasible point");
            let label = format!("{}/{:?}", scenario.scenario.name, point.capacity_cap);
            assert!(
                validation.is_sound(),
                "{label}: engine validation disagrees: {validation:?}"
            );
            assert_eq!(
                validation.measured_period.to_bits(),
                result.worst_period().to_bits(),
                "{label}: attached period is not this point's replay"
            );
            assert_eq!(validation.required_period, required_period, "{label}");
            assert_eq!(validation.tolerance, tolerance, "{label}");
            assert_eq!(
                validation.buffers_checked,
                capacities.len() as u64,
                "{label}"
            );
            assert_eq!(validation.buffer_violations, 0, "{label}");
            replayed += 1;
        }
    }
    assert!(
        replayed > 0,
        "the suite must have feasible points to replay"
    );
    let report = ValidationReport::from_outcome(&outcome);
    assert_eq!(report.validated_points(), replayed as u64);
    assert_eq!(report.violations(), 0, "{}", report.render_summary());
}

#[test]
fn every_feasible_paper_point_replays_soundly() {
    assert_suite_is_sound(&paper_suite());
}

#[test]
fn every_feasible_paper_plus_point_replays_soundly() {
    assert_suite_is_sound(&paper_plus_suite());
}

#[test]
fn the_48_task_runtime_recipe_solves_verifies_and_replays_soundly() {
    // Twice the largest paper size: 24 processors, seed 55. The mapping is
    // verified by the solve itself (`SolveOptions::verify`), then replayed.
    assert_suite_is_sound(&Suite::new("runtime-48", vec![runtime_scenario(48)]));
}

#[test]
fn every_feasible_generated_seed_13_point_replays_soundly() {
    assert_suite_is_sound(&generate_suite(&GenParams {
        seed: 13,
        points: 200,
    }));
}

#[test]
fn every_feasible_generated_seed_14_point_replays_soundly() {
    assert_suite_is_sound(&generate_suite(&GenParams {
        seed: 14,
        points: 200,
    }));
}
