//! The post-solve validation stage: replay every solved mapping on the
//! discrete-event simulator and grade it against the solver's guarantees.
//!
//! Validation runs *after* a suite's solves have been assembled into a
//! [`SuiteOutcome`]: every feasible point of a scenario that requests
//! validation (`validate: "sim"`, or all scenarios under
//! [`RunSettings::validate_all`]) becomes one replay task. The tasks run
//! as one cursor job on the [`Engine`] — the same primitive as expansion
//! and solving — and each verdict lands on the (scenario, point) its task
//! was collected from. A replay is a pure function of (configuration,
//! budgets, capacities, iterations), so validation outcomes, and the
//! [`ValidationReport`] built from them, are byte-identical across worker
//! counts.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::executor::{RunSettings, SuiteOutcome};
use crate::pool::Engine;
use bbs_scheduler_sim::{validate_mapping, SimulationSettings};
use bbs_taskgraph::{BufferRef, Configuration, TaskRef};
use serde::{Deserialize, Serialize};

/// The validation attached to one solved point: the replay's verdict on
/// the mapping's throughput and buffer guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct PointValidation {
    /// Worst measured steady-state period across all tasks (infinite when
    /// the replay failed).
    pub measured_period: f64,
    /// Largest period requirement of the configuration.
    pub required_period: f64,
    /// Transient slack granted on top of the requirement (one
    /// replenishment interval amortised over the measured iterations).
    pub tolerance: f64,
    /// Every task met its graph's period requirement within the tolerance.
    pub period_ok: bool,
    /// Buffers whose fill level the replay observed.
    pub buffers_checked: u64,
    /// Buffers whose observed high-water mark exceeded the computed
    /// capacity.
    pub buffer_violations: u64,
    /// Why the replay itself failed, when it did (a deadlocked or
    /// mis-mapped configuration is itself a violation).
    pub detail: Option<String>,
}

impl PointValidation {
    /// Whether the replay confirms the mapping's guarantees.
    pub fn is_sound(&self) -> bool {
        self.period_ok && self.buffer_violations == 0
    }
}

/// One replay to perform: the scenario's shared base configuration plus
/// the solved mapping's budgets and capacities, addressed back to its
/// (scenario, point) slot.
pub(crate) struct ReplayTask {
    pub(crate) scenario_index: usize,
    pub(crate) point_index: usize,
    configuration: Arc<Configuration>,
    budgets: BTreeMap<TaskRef, u64>,
    capacities: BTreeMap<BufferRef, u64>,
}

/// Collects the replay tasks of `outcome`, in suite order: every feasible
/// point of every scenario that requests validation (all scenarios under
/// [`RunSettings::validate_all`]). Infeasible points have nothing to replay
/// and are skipped — they are the solver's verdict, not the simulator's.
pub(crate) fn replay_tasks(outcome: &SuiteOutcome, settings: &RunSettings) -> Vec<ReplayTask> {
    let mut tasks = Vec::new();
    for (scenario_index, scenario) in outcome.scenarios.iter().enumerate() {
        let requested = settings.validate_all
            || scenario
                .scenario
                .resolved_validation()
                .ok()
                .flatten()
                .is_some();
        if !requested {
            continue;
        }
        // One shared base per scenario; capacity caps are solver
        // constraints the simulator never reads, so the uncapped base
        // stands in for every sweep point.
        let configuration = Arc::new(scenario.configuration.clone());
        for (point_index, point) in scenario.points.iter().enumerate() {
            let Ok(mapping) = &point.result else { continue };
            tasks.push(ReplayTask {
                scenario_index,
                point_index,
                configuration: Arc::clone(&configuration),
                budgets: mapping.budgets().collect(),
                capacities: mapping.capacities().collect(),
            });
        }
    }
    tasks
}

/// Replays one task behind a panic boundary: a panicking replay becomes a
/// deterministic unsound verdict on that point, never a lost suite.
pub(crate) fn replay_guarded(task: &ReplayTask, iterations: usize) -> PointValidation {
    let settings = SimulationSettings {
        iterations,
        ..SimulationSettings::default()
    };
    match catch_unwind(AssertUnwindSafe(|| {
        validate_mapping(
            &task.configuration,
            &task.budgets,
            &task.capacities,
            &settings,
        )
    })) {
        Ok(validation) => PointValidation {
            measured_period: validation.measured_period,
            required_period: validation.required_period,
            tolerance: validation.tolerance,
            period_ok: validation.period_ok(),
            buffers_checked: validation.buffer_checks.len() as u64,
            buffer_violations: validation.buffer_violations(),
            detail: validation.error.map(|e| e.to_string()),
        },
        Err(_) => PointValidation {
            measured_period: f64::INFINITY,
            required_period: 0.0,
            tolerance: 0.0,
            period_ok: false,
            buffers_checked: 0,
            buffer_violations: 0,
            detail: Some("replay panicked".to_string()),
        },
    }
}

/// Runs the validation stage on a temporary [`Engine`] of `settings.jobs`
/// workers: replays every requested feasible point of `outcome` and
/// attaches the verdicts. Engine runs do this themselves; this entry point
/// is for outcomes assembled elsewhere.
///
/// Scenarios request validation with `validate: "sim"`;
/// [`RunSettings::validate_all`] replays every scenario regardless (the
/// `bbs validate` subcommand). Verdicts are pure functions of the solved
/// mappings, so the annotated outcome — and any report built from it — is
/// byte-identical across `jobs` counts.
pub fn validate_outcome(outcome: &mut SuiteOutcome, settings: &RunSettings) {
    Engine::new(settings.jobs).validate(outcome, settings);
}

/// The deterministic summary document of one validation run: per point,
/// the solver's verdict and the replay's. Built by
/// [`ValidationReport::from_outcome`] after a run with validation;
/// serialises to pretty JSON (`bbs validate --json`) and renders the
/// human summary `bbs validate` prints. Contains no wall-clock data, so
/// it is byte-identical across worker counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Report schema version (shared with
    /// [`SCHEMA_VERSION`](crate::report::SCHEMA_VERSION)).
    pub schema_version: u64,
    /// Name of the validated suite.
    pub suite: String,
    /// One entry per scenario, in suite order.
    pub scenarios: Vec<ScenarioValidationReport>,
}

/// One scenario's slice of a [`ValidationReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioValidationReport {
    /// Name of the scenario.
    pub scenario: String,
    /// One entry per sweep point, in sweep order.
    pub points: Vec<PointValidationReport>,
}

/// One point's validation record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointValidationReport {
    /// The capacity cap of the sweep point (`None` for single solves).
    pub capacity_cap: Option<u64>,
    /// Whether the solve was feasible (infeasible points have nothing to
    /// replay).
    pub feasible: bool,
    /// Worst measured period, when the point was replayed.
    pub measured_period: Option<f64>,
    /// The period requirement the measurement is graded against.
    pub required_period: Option<f64>,
    /// Whether every task met its period requirement.
    pub period_ok: Option<bool>,
    /// Buffers whose fill level the replay observed.
    pub buffers_checked: Option<u64>,
    /// Buffers whose high-water mark exceeded the computed capacity.
    pub buffer_violations: Option<u64>,
    /// Replay failure detail, when the simulation itself could not
    /// complete.
    pub detail: Option<String>,
}

impl PointValidationReport {
    /// Violations this point contributes: one for a missed period (or
    /// failed replay) plus one per overflowed buffer.
    fn violations(&self) -> u64 {
        let period = match self.period_ok {
            Some(false) => 1,
            _ => 0,
        };
        period + self.buffer_violations.unwrap_or(0)
    }
}

impl ValidationReport {
    /// Builds the report from an outcome annotated by the validation
    /// stage.
    pub fn from_outcome(outcome: &SuiteOutcome) -> Self {
        let scenarios = outcome
            .scenarios
            .iter()
            .map(|scenario| ScenarioValidationReport {
                scenario: scenario.scenario.name.clone(),
                points: scenario
                    .points
                    .iter()
                    .map(|point| {
                        let validation = point.validation.as_ref();
                        PointValidationReport {
                            capacity_cap: point.capacity_cap,
                            feasible: point.result.is_ok(),
                            measured_period: validation.map(|v| v.measured_period),
                            required_period: validation.map(|v| v.required_period),
                            period_ok: validation.map(|v| v.period_ok),
                            buffers_checked: validation.map(|v| v.buffers_checked),
                            buffer_violations: validation.map(|v| v.buffer_violations),
                            detail: validation.and_then(|v| v.detail.clone()),
                        }
                    })
                    .collect(),
            })
            .collect();
        Self {
            schema_version: crate::report::SCHEMA_VERSION,
            suite: outcome.suite.clone(),
            scenarios,
        }
    }

    /// Points that were actually replayed.
    pub fn validated_points(&self) -> u64 {
        self.scenarios
            .iter()
            .flat_map(|s| &s.points)
            .filter(|p| p.period_ok.is_some())
            .count() as u64
    }

    /// Total violations across the suite: missed periods, failed replays
    /// and overflowed buffers.
    pub fn violations(&self) -> u64 {
        self.scenarios
            .iter()
            .flat_map(|s| &s.points)
            .map(PointValidationReport::violations)
            .sum()
    }

    /// Serialises the report as pretty JSON with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("validation report serializes");
        text.push('\n');
        text
    }

    /// Parses a report back from [`ValidationReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the JSON parser's message on malformed input.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Renders the deterministic human summary `bbs validate` prints: one
    /// line per scenario, one line per violation, one total line. No
    /// wall-clock data — byte-identical across worker counts.
    pub fn render_summary(&self) -> String {
        let mut lines = Vec::new();
        lines.push(format!("validation summary for suite `{}`", self.suite));
        let mut total_points = 0u64;
        for scenario in &self.scenarios {
            let points = scenario.points.len() as u64;
            total_points += points;
            let feasible = scenario.points.iter().filter(|p| p.feasible).count();
            let validated = scenario
                .points
                .iter()
                .filter(|p| p.period_ok.is_some())
                .count();
            let violations: u64 = scenario
                .points
                .iter()
                .map(PointValidationReport::violations)
                .sum();
            lines.push(format!(
                "  {}: {points} point(s), {feasible} feasible, {validated} replayed, \
                 {violations} violation(s)",
                scenario.scenario
            ));
            for point in &scenario.points {
                if point.violations() == 0 {
                    continue;
                }
                let cap = match point.capacity_cap {
                    Some(cap) => format!("cap {cap}"),
                    None => "single solve".to_string(),
                };
                if let Some(detail) = &point.detail {
                    lines.push(format!("    VIOLATION {cap}: replay failed: {detail}"));
                    continue;
                }
                if point.period_ok == Some(false) {
                    lines.push(format!(
                        "    VIOLATION {cap}: measured period {:.3} exceeds required {:.3}",
                        point.measured_period.unwrap_or(f64::INFINITY),
                        point.required_period.unwrap_or(0.0),
                    ));
                }
                if point.buffer_violations.unwrap_or(0) > 0 {
                    lines.push(format!(
                        "    VIOLATION {cap}: {} of {} buffer(s) exceeded computed capacity",
                        point.buffer_violations.unwrap_or(0),
                        point.buffers_checked.unwrap_or(0),
                    ));
                }
            }
        }
        lines.push(format!(
            "total: {total_points} point(s), {} replayed, {} violation(s)",
            self.validated_points(),
            self.violations()
        ));
        lines.join("\n") + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_suite;
    use crate::scenario::{Scenario, SweepSpec, ValidationMode, WorkloadSpec};
    use crate::Suite;
    use bbs_taskgraph::presets::PresetSpec;

    fn validated_suite() -> Suite {
        Suite::new(
            "validated",
            vec![Scenario::new(
                "pc",
                WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
            )
            .with_sweep(SweepSpec::list([2u64, 4]))
            .with_validation(ValidationMode::Sim)],
        )
    }

    #[test]
    fn flagged_scenarios_get_validated_and_report_sound() {
        let outcome = run_suite(&validated_suite(), &RunSettings::default()).unwrap();
        let points = &outcome.scenarios[0].points;
        assert!(points.iter().all(|p| p.validation.is_some()));
        for point in points {
            let validation = point.validation.as_ref().unwrap();
            assert!(validation.is_sound(), "unsound: {validation:?}");
            assert!(validation.measured_period.is_finite());
            assert_eq!(validation.buffers_checked, 1);
        }
        let report = ValidationReport::from_outcome(&outcome);
        assert_eq!(report.validated_points(), 2);
        assert_eq!(report.violations(), 0);
        let summary = report.render_summary();
        assert!(summary.contains("2 point(s), 2 feasible, 2 replayed, 0 violation(s)"));
        assert!(summary.ends_with("0 violation(s)\n"));
    }

    #[test]
    fn unflagged_scenarios_are_skipped_unless_validate_all() {
        let suite = Suite::new(
            "plain",
            vec![Scenario::new(
                "pc",
                WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
            )
            .with_sweep(SweepSpec::list([2u64]))],
        );
        let outcome = run_suite(&suite, &RunSettings::default()).unwrap();
        assert!(outcome.scenarios[0].points[0].validation.is_none());

        let settings = RunSettings {
            validate_all: true,
            ..RunSettings::default()
        };
        let outcome = run_suite(&suite, &settings).unwrap();
        assert!(outcome.scenarios[0].points[0].validation.is_some());
    }

    #[test]
    fn validation_report_round_trips_and_is_jobs_independent() {
        let settings_serial = RunSettings {
            validate_all: true,
            ..RunSettings::default()
        };
        let settings_parallel = RunSettings {
            validate_all: true,
            jobs: 4,
            ..RunSettings::default()
        };
        let serial = run_suite(&validated_suite(), &settings_serial).unwrap();
        let parallel = run_suite(&validated_suite(), &settings_parallel).unwrap();
        let report_serial = ValidationReport::from_outcome(&serial);
        let report_parallel = ValidationReport::from_outcome(&parallel);
        assert_eq!(report_serial.to_json(), report_parallel.to_json());
        assert_eq!(
            report_serial.render_summary(),
            report_parallel.render_summary()
        );
        let back = ValidationReport::from_json(&report_serial.to_json()).unwrap();
        assert_eq!(back, report_serial);
        assert!(ValidationReport::from_json("{broken").is_err());
    }
}
