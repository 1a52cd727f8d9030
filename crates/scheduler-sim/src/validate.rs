//! Replay validation: measured behaviour against the mapping's guarantees.
//!
//! [`simulate_mapping`](crate::simulate_mapping) answers *what happened*
//! when a mapping executes; this module answers *was it sound*. A
//! [`MappingValidation`] replays a computed (budget, buffer) assignment on
//! the discrete-event simulator and compares, per task, the measured
//! steady-state period against the owning graph's throughput requirement,
//! and, per buffer, the observed high-water mark against the computed
//! capacity. Everything is a pure function of (configuration, budgets,
//! capacities, settings), so validation outcomes are deterministic no
//! matter where or when they are computed.

use std::collections::BTreeMap;

use crate::sim::{
    simulate_mapping, SimulationError, SimulationResult, SimulationSettings, MIN_MEASURED_FIRINGS,
};
use bbs_taskgraph::{BufferRef, Configuration, TaskRef};

/// One task's measured steady-state period against its graph's requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodCheck {
    /// The task whose period was measured.
    pub task: TaskRef,
    /// Measured steady-state period (average over the run's second half).
    pub measured_period: f64,
    /// The owning task graph's required period.
    pub required_period: f64,
}

impl PeriodCheck {
    /// Whether the measured period meets the requirement within `tolerance`.
    pub fn meets_requirement(&self, tolerance: f64) -> bool {
        self.measured_period <= self.required_period + tolerance
    }
}

/// One buffer's observed high-water mark against its computed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferCheck {
    /// The buffer whose fill level was observed.
    pub buffer: BufferRef,
    /// Highest fill level (in containers) observed during the replay.
    pub high_water_mark: u64,
    /// The capacity the solver computed for this buffer.
    pub capacity: u64,
}

impl BufferCheck {
    /// Whether the observed fill level stayed within the computed capacity.
    pub fn within_capacity(&self) -> bool {
        self.high_water_mark <= self.capacity
    }
}

/// The outcome of replaying one computed mapping on the simulator.
///
/// Built by [`validate_mapping`]; the per-task and per-buffer checks are in
/// the deterministic `BTreeMap` iteration order of the configuration's
/// tasks and buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingValidation {
    /// Worst (largest) measured period over all tasks; infinite when the
    /// replay itself failed.
    pub measured_period: f64,
    /// Largest required period over all task graphs (the scalar headline;
    /// the per-task checks compare against each graph's own requirement).
    pub required_period: f64,
    /// Measurement slack granted to the finite-length replay (start-up
    /// transient amortised over the steady-state half of the run).
    pub tolerance: f64,
    /// Per-task period checks, in task order.
    pub period_checks: Vec<PeriodCheck>,
    /// Per-buffer capacity checks, in buffer order.
    pub buffer_checks: Vec<BufferCheck>,
    /// The replay error, when the simulation itself could not complete —
    /// a deadlocked or mis-mapped configuration is itself a violation.
    pub error: Option<SimulationError>,
}

impl MappingValidation {
    /// Whether every task met its graph's period requirement (false when
    /// the replay failed).
    pub fn period_ok(&self) -> bool {
        self.error.is_none()
            && self
                .period_checks
                .iter()
                .all(|check| check.meets_requirement(self.tolerance))
    }

    /// Number of buffers whose observed fill exceeded the computed
    /// capacity.
    pub fn buffer_violations(&self) -> u64 {
        self.buffer_checks
            .iter()
            .filter(|check| !check.within_capacity())
            .count() as u64
    }

    /// Whether the replay confirms the mapping: it completed, every task
    /// met its period requirement, and no buffer overflowed its capacity.
    pub fn is_sound(&self) -> bool {
        self.period_ok() && self.buffer_violations() == 0
    }
}

/// The measurement slack a finite replay of `iterations` firings deserves:
/// the start-up transient of at most one replenishment interval, amortised
/// over the `iterations / 2 - 1` steady-state firings the measured period
/// averages.
pub fn measurement_tolerance(configuration: &Configuration, iterations: usize) -> f64 {
    let max_replenishment = configuration
        .processors()
        .map(|(_, p)| p.replenishment_interval())
        .fold(0.0f64, f64::max);
    max_replenishment / ((iterations / 2).saturating_sub(1).max(1)) as f64
}

/// Replays a computed mapping and grades the result.
///
/// The budgets and capacities are the values a solved mapping provides.
/// A replay that cannot complete or be measured (missing mapping entries,
/// a zero budget, budgets that do not fit a TDM wheel, deadlock, event-limit
/// blow-up, fewer than four iterations) yields a validation with
/// [`error`](MappingValidation::error) set, an infinite measured period,
/// and no checks — unconditionally unsound, never a panic.
pub fn validate_mapping(
    configuration: &Configuration,
    budgets: &BTreeMap<TaskRef, u64>,
    capacities: &BTreeMap<BufferRef, u64>,
    settings: &SimulationSettings,
) -> MappingValidation {
    let required_period = configuration
        .task_graphs()
        .map(|(_, graph)| graph.period())
        .fold(0.0f64, f64::max);
    let tolerance = measurement_tolerance(configuration, settings.iterations);
    let replay = if settings.iterations < MIN_MEASURED_FIRINGS {
        Err(SimulationError::TooFewIterations {
            iterations: settings.iterations,
        })
    } else {
        simulate_mapping(configuration, budgets, capacities, settings)
    };
    match replay {
        Ok(result) => graded(
            configuration,
            capacities,
            &result,
            required_period,
            tolerance,
        ),
        Err(error) => MappingValidation {
            measured_period: f64::INFINITY,
            required_period,
            tolerance,
            period_checks: Vec::new(),
            buffer_checks: Vec::new(),
            error: Some(error),
        },
    }
}

fn graded(
    configuration: &Configuration,
    capacities: &BTreeMap<BufferRef, u64>,
    result: &SimulationResult,
    required_period: f64,
    tolerance: f64,
) -> MappingValidation {
    let mut period_checks = Vec::new();
    for (graph_id, graph) in configuration.task_graphs() {
        for (task_id, _) in graph.tasks() {
            let task = TaskRef::new(graph_id, task_id);
            period_checks.push(PeriodCheck {
                task,
                measured_period: result.measured_period(task),
                required_period: graph.period(),
            });
        }
    }
    let buffer_checks = capacities
        .iter()
        .map(|(&buffer, &capacity)| BufferCheck {
            buffer,
            high_water_mark: result.high_water_mark(buffer),
            capacity,
        })
        .collect();
    MappingValidation {
        measured_period: result.worst_period(),
        required_period,
        tolerance,
        period_checks,
        buffer_checks,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_taskgraph::presets::{producer_consumer, PaperParameters};

    fn solved_producer_consumer() -> (
        Configuration,
        BTreeMap<TaskRef, u64>,
        BTreeMap<BufferRef, u64>,
    ) {
        let configuration = producer_consumer(PaperParameters::default(), None);
        let mut budgets = BTreeMap::new();
        let mut capacities = BTreeMap::new();
        for (graph_id, graph) in configuration.task_graphs() {
            for (task_id, _) in graph.tasks() {
                budgets.insert(TaskRef::new(graph_id, task_id), 40);
            }
            for (buffer_id, _) in graph.buffers() {
                capacities.insert(BufferRef::new(graph_id, buffer_id), 4);
            }
        }
        (configuration, budgets, capacities)
    }

    #[test]
    fn a_generous_mapping_validates_as_sound() {
        let (configuration, budgets, capacities) = solved_producer_consumer();
        let validation = validate_mapping(
            &configuration,
            &budgets,
            &capacities,
            &SimulationSettings::default(),
        );
        assert!(validation.error.is_none());
        assert!(validation.period_ok());
        assert_eq!(validation.buffer_violations(), 0);
        assert!(validation.is_sound());
        assert_eq!(validation.period_checks.len(), 2);
        assert_eq!(validation.buffer_checks.len(), 1);
        assert!(validation.measured_period.is_finite());
        // The scalar headline agrees with the per-task checks.
        let worst = validation
            .period_checks
            .iter()
            .map(|c| c.measured_period)
            .fold(0.0f64, f64::max);
        assert_eq!(validation.measured_period, worst);
    }

    #[test]
    fn starved_budgets_fail_the_period_check() {
        let (configuration, mut budgets, capacities) = solved_producer_consumer();
        for budget in budgets.values_mut() {
            *budget = 1;
        }
        let validation = validate_mapping(
            &configuration,
            &budgets,
            &capacities,
            &SimulationSettings::default(),
        );
        assert!(validation.error.is_none());
        assert!(!validation.period_ok());
        assert!(!validation.is_sound());
    }

    #[test]
    fn a_broken_replay_is_an_unsound_validation_not_a_panic() {
        let (configuration, budgets, _) = solved_producer_consumer();
        let empty_capacities = BTreeMap::new();
        let validation = validate_mapping(
            &configuration,
            &budgets,
            &empty_capacities,
            &SimulationSettings::default(),
        );
        assert!(matches!(
            validation.error,
            Some(SimulationError::MissingMapping { .. })
        ));
        assert!(validation.measured_period.is_infinite());
        assert!(!validation.is_sound());
        assert!(validation.period_checks.is_empty());
    }

    #[test]
    fn a_zero_budget_is_an_unsound_validation_not_a_panic() {
        let (configuration, mut budgets, capacities) = solved_producer_consumer();
        *budgets.values_mut().next().unwrap() = 0;
        let validation = validate_mapping(
            &configuration,
            &budgets,
            &capacities,
            &SimulationSettings::default(),
        );
        assert!(matches!(
            validation.error,
            Some(SimulationError::MissingMapping { .. })
        ));
        assert!(!validation.is_sound());
    }

    #[test]
    fn too_few_iterations_are_an_unsound_validation_not_a_panic() {
        let (configuration, budgets, capacities) = solved_producer_consumer();
        for iterations in 0..MIN_MEASURED_FIRINGS {
            let settings = SimulationSettings {
                iterations,
                ..SimulationSettings::default()
            };
            let validation = validate_mapping(&configuration, &budgets, &capacities, &settings);
            assert_eq!(
                validation.error,
                Some(SimulationError::TooFewIterations { iterations })
            );
            assert!(!validation.is_sound());
        }
    }

    #[test]
    fn tolerance_shrinks_with_longer_replays() {
        let (configuration, _, _) = solved_producer_consumer();
        let short = measurement_tolerance(&configuration, 64);
        let long = measurement_tolerance(&configuration, 256);
        assert!(long < short);
        assert!(long > 0.0);
    }
}
