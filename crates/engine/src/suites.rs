//! Built-in suites: the paper's six experiments (and friends) as data.
//!
//! These are the declarative equivalents of what the `figures` binary used
//! to hardcode; the binary now just names them. `paper` reproduces the six
//! experiments of the paper, `paper-plus` adds the `ring` scenario,
//! `smoke` is a three-point suite cheap enough for CI gates and tests,
//! `sweep-10k` is the 10 000-point expansion/scheduling stress sweep, and
//! `gen-smoke` is a pinned-seed sample of the scenario generator with
//! validation on every scenario.

use crate::gen::{generate_suite, GenParams};
use crate::scenario::{Flow, Scenario, Suite, SweepSpec, ValidationMode, WorkloadSpec};
use bbs_taskgraph::presets::{PresetSpec, RandomWorkload};
use budget_buffer::SolveOptions;

/// The task sizes of the run-time scaling experiment (E4).
pub const RUNTIME_SIZES: [usize; 5] = [4, 8, 12, 16, 24];

/// Names of the built-in suites, in the order `bbs list` prints them.
pub fn builtin_suite_names() -> &'static [&'static str] {
    &["paper", "paper-plus", "smoke", "sweep-10k", "gen-smoke"]
}

/// Looks a built-in suite up by name.
pub fn builtin_suite(name: &str) -> Option<Suite> {
    match name {
        "paper" => Some(paper_suite()),
        "paper-plus" => Some(paper_plus_suite()),
        "smoke" => Some(smoke_suite()),
        "sweep-10k" => Some(sweep_10k_suite()),
        "gen-smoke" => Some(gen_smoke_suite()),
        _ => None,
    }
}

fn producer_consumer_workload() -> WorkloadSpec {
    WorkloadSpec::preset(PresetSpec::named("producer-consumer"))
}

/// Figure 2(a): total budget versus buffer capacity on the
/// producer/consumer graph.
pub fn fig2a_scenario() -> Scenario {
    Scenario::new("fig2a", producer_consumer_workload()).with_sweep(SweepSpec::range(1, 10))
}

/// Figure 2(b): the same sweep, reported as the per-container budget
/// reduction. Every solve is a cache hit after `fig2a`.
pub fn fig2b_scenario() -> Scenario {
    Scenario::new("fig2b", producer_consumer_workload())
        .with_sweep(SweepSpec::range(1, 10))
        .with_derivative()
}

/// Figure 3: per-task budgets versus the common capacity cap on the
/// three-task chain.
pub fn fig3_scenario() -> Scenario {
    Scenario::new("fig3", WorkloadSpec::preset(PresetSpec::named("chain3")))
        .with_sweep(SweepSpec::range(1, 10))
}

/// Run-time scaling (E4): one scenario per random-DAG size, solved once
/// each, no sweep.
pub fn runtime_scenarios() -> Vec<Scenario> {
    RUNTIME_SIZES
        .iter()
        .map(|&n| {
            let random = RandomWorkload {
                num_tasks: n,
                num_processors: (n / 2).max(2),
                extra_edge_probability: 0.2,
                seed: 7 + n as u64,
                ..RandomWorkload::default()
            };
            Scenario::new(
                &format!("runtime-{n:02}"),
                WorkloadSpec::preset(PresetSpec::named("random-dag").with_random(random)),
            )
        })
        .collect()
}

/// Ablation (E5): joint SOCP (both back-ends) versus the two-phase
/// baselines, unconstrained and with buffers capped at 3 containers — where
/// the minimum-budget two-phase flow reports its false negative.
pub fn ablation_scenarios() -> Vec<Scenario> {
    let capped =
        || WorkloadSpec::preset(PresetSpec::named("producer-consumer").with_max_buffer_capacity(3));
    vec![
        Scenario::new("ablation-joint-ipm", producer_consumer_workload()),
        Scenario::new("ablation-joint-cp", producer_consumer_workload()).with_options(
            SolveOptions::default()
                .prefer_budget_minimisation()
                .with_cutting_plane(),
        ),
        Scenario::new("ablation-two-phase-min", producer_consumer_workload())
            .with_flow(Flow::TwoPhaseMin),
        Scenario::new("ablation-two-phase-fair", producer_consumer_workload())
            .with_flow(Flow::TwoPhaseFair),
        Scenario::new("ablation-joint-cap3", capped()),
        Scenario::new("ablation-two-phase-min-cap3", capped())
            .with_flow(Flow::TwoPhaseMin)
            .expecting_infeasible(),
    ]
}

/// Validation (E6): solve a capacity selection and execute every mapping on
/// the TDM scheduler simulator.
pub fn validate_scenario() -> Scenario {
    Scenario::new("validate", producer_consumer_workload())
        .with_sweep(SweepSpec::list([1u64, 2, 4, 6, 8, 10]))
        .with_validation(ValidationMode::Sim)
}

/// The `ring` experiment: sweep the cyclic preset. The feedback buffer
/// carries 2 initial tokens, so caps below 2 are structurally infeasible and
/// the sweep starts at 2; the flat budget curve shows that in a ring the
/// token count of the cycle — not the buffer capacity — bounds throughput.
pub fn ring_scenario() -> Scenario {
    Scenario::new(
        "ring",
        WorkloadSpec::preset(
            PresetSpec::named("ring")
                .with_tasks(3)
                .with_initial_tokens(2),
        ),
    )
    .with_sweep(SweepSpec::range(2, 10))
}

/// The six experiments of the paper.
pub fn paper_suite() -> Suite {
    let mut scenarios = vec![fig2a_scenario(), fig2b_scenario(), fig3_scenario()];
    scenarios.extend(runtime_scenarios());
    scenarios.extend(ablation_scenarios());
    scenarios.push(validate_scenario());
    Suite::new("paper", scenarios)
}

/// The paper suite plus the `ring` experiment.
pub fn paper_plus_suite() -> Suite {
    let mut suite = paper_suite();
    suite.name = "paper-plus".to_string();
    suite.scenarios.push(ring_scenario());
    suite
}

/// A cheap suite for CI gates and tests: short sweeps, small graphs.
pub fn smoke_suite() -> Suite {
    Suite::new(
        "smoke",
        vec![
            Scenario::new("smoke-pc", producer_consumer_workload())
                .with_sweep(SweepSpec::range(1, 4))
                .with_derivative(),
            Scenario::new(
                "smoke-chain",
                WorkloadSpec::preset(PresetSpec::named("chain3")),
            )
            .with_sweep(SweepSpec::list([2u64, 6])),
            Scenario::new(
                "smoke-ring",
                WorkloadSpec::preset(
                    PresetSpec::named("ring")
                        .with_tasks(3)
                        .with_initial_tokens(2),
                ),
            )
            .with_sweep(SweepSpec::list([2u64, 4])),
        ],
    )
}

/// Points of [`sweep_10k_suite`]'s single scenario.
pub const SWEEP_10K_POINTS: usize = 10_000;

/// The expansion/scheduling stress suite: one producer/consumer scenario
/// whose explicit cap list cycles 1..=10 for [`SWEEP_10K_POINTS`] points.
/// Only ten distinct cache keys exist, so the suite is cheap to *solve* —
/// 9 990 of its points are in-memory hits — and exists to exercise
/// expansion, cursor claiming and slot-ordered assembly at three orders of
/// magnitude more points than the paper suites (determinism CI gates, the
/// `suite_expansion` bench).
pub fn sweep_10k_suite() -> Suite {
    let caps: Vec<u64> = (0..SWEEP_10K_POINTS).map(|i| (i % 10) as u64 + 1).collect();
    Suite::new(
        "sweep-10k",
        vec![Scenario::new("pc-cycle", producer_consumer_workload())
            .with_sweep(SweepSpec::list(caps))],
    )
}

/// A pinned sample of the scenario generator (`bbs gen --seed 7`): every
/// scenario carries `validate: "sim"`, so the suite doubles as a cheap
/// fuzz-shaped validation gate for CI and tests.
pub fn gen_smoke_suite() -> Suite {
    let mut suite = generate_suite(&GenParams::default());
    suite.name = "gen-smoke".to_string();
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_suites_validate() {
        for name in builtin_suite_names() {
            let suite = builtin_suite(name).unwrap();
            suite.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&suite.name, name);
        }
        assert!(builtin_suite("no-such-suite").is_none());
    }

    #[test]
    fn paper_suite_covers_the_six_experiments() {
        let suite = paper_suite();
        let names: Vec<&str> = suite.scenarios.iter().map(|s| s.name.as_str()).collect();
        for expected in ["fig2a", "fig2b", "fig3", "validate"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert_eq!(
            names.iter().filter(|n| n.starts_with("runtime-")).count(),
            5
        );
        assert_eq!(
            names.iter().filter(|n| n.starts_with("ablation-")).count(),
            6
        );
        assert!(!names.contains(&"ring"));
    }

    #[test]
    fn paper_plus_adds_the_ring() {
        let suite = paper_plus_suite();
        assert!(suite.scenarios.iter().any(|s| s.name == "ring"));
        assert_eq!(suite.scenarios.len(), paper_suite().scenarios.len() + 1);
    }

    #[test]
    fn sweep_10k_cycles_ten_distinct_caps() {
        let suite = sweep_10k_suite();
        assert_eq!(suite.scenarios.len(), 1);
        let caps = suite.scenarios[0].sweep.as_ref().unwrap().caps().unwrap();
        assert_eq!(caps.len(), SWEEP_10K_POINTS);
        let mut distinct: Vec<u64> = caps.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct, (1..=10).collect::<Vec<u64>>());
        // The cycle starts at 1 and repeats verbatim.
        assert_eq!(&caps[..12], &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2]);
        suite.validate().unwrap();
    }

    #[test]
    fn suites_serialise_to_json_and_back() {
        let suite = paper_plus_suite();
        let json = serde_json::to_string_pretty(&suite).unwrap();
        let back: Suite = serde_json::from_str(&json).unwrap();
        assert_eq!(back, suite);
    }
}
