//! Structured reports of a suite run, and their renderers.
//!
//! [`SuiteReport`] is the machine-readable result: JSON in, JSON out, with a
//! `schema_version` gate so consumers can detect drift. It deliberately
//! contains **no wall-clock measurements** — every field is a deterministic
//! function of the suite definition, which is what makes reports
//! byte-identical across `--jobs 1` and `--jobs N` (and across cache
//! hits/misses). Timings are presented separately by the human renderer.

use crate::error::EngineError;
use crate::executor::{ScenarioOutcome, SuiteOutcome};
use budget_buffer::explore::budget_reduction_from_totals;
use budget_buffer::report::{format_table, mapping_report};
use budget_buffer::MappingReport;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Version of the report schema; bump on breaking shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Cache behaviour of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheReport {
    /// Whether memoization was enabled.
    pub enabled: bool,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to solve.
    pub misses: u64,
}

/// One sweep point of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointReport {
    /// Capacity cap of the point (`None` for single solves).
    pub capacity_cap: Option<u64>,
    /// Whether a mapping was found.
    pub feasible: bool,
    /// The error, for infeasible points.
    pub error: Option<String>,
    /// The name-keyed mapping, for feasible points.
    pub mapping: Option<MappingReport>,
    /// Sum of all budgets, in cycles.
    pub total_budget: Option<u64>,
    /// Total storage, in container-size units.
    pub total_storage: Option<u64>,
    /// Worst steady-state period measured by the validation replay, when
    /// requested.
    pub measured_period: Option<f64>,
    /// Whether the measured period met the requirement (plus transient
    /// tolerance).
    pub guarantee_ok: Option<bool>,
    /// Buffers whose fill level the validation replay observed.
    pub buffers_checked: Option<u64>,
    /// Buffers whose observed high-water mark exceeded the computed
    /// capacity.
    pub buffer_violations: Option<u64>,
}

/// One scenario of the suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Flow name.
    pub flow: String,
    /// Number of tasks of the workload.
    pub tasks: u64,
    /// Number of buffers of the workload.
    pub buffers: u64,
    /// One report per sweep point, in sweep order.
    pub points: Vec<PointReport>,
    /// Budget reduction between consecutive feasible sweep points
    /// (Figure 2(b)), when the scenario requested it: `(cap, drop)` pairs
    /// where `drop` is the budget saved by allowing `cap` containers
    /// compared to the previous feasible point.
    pub budget_reduction: Option<Vec<(u64, f64)>>,
}

/// The machine-readable result of a suite run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Report schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Name of the suite.
    pub suite: String,
    /// The engine that produced the report.
    pub generator: String,
    /// Cache behaviour of the run.
    pub cache: CacheReport,
    /// One report per scenario, in suite order.
    pub scenarios: Vec<ScenarioReport>,
}

impl SuiteReport {
    /// Builds the report of a run.
    pub fn from_outcome(outcome: &SuiteOutcome) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            suite: outcome.suite.clone(),
            generator: format!("bbs-engine {}", env!("CARGO_PKG_VERSION")),
            cache: CacheReport {
                enabled: outcome.cache_enabled,
                hits: outcome.cache.hits,
                misses: outcome.cache.misses,
            },
            scenarios: outcome.scenarios.iter().map(scenario_report).collect(),
        }
    }

    /// Serialises the report as pretty JSON (ends with a newline).
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("report serialises to JSON");
        json.push('\n');
        json
    }

    /// Parses and validates a report.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidInput`] for malformed JSON or a report
    /// violating the schema invariants.
    pub fn from_json(json: &str) -> Result<Self, EngineError> {
        let report: Self = serde_json::from_str(json)
            .map_err(|e| EngineError::InvalidInput(format!("report does not parse: {e}")))?;
        report.validate()?;
        Ok(report)
    }

    /// Checks the schema invariants beyond mere JSON shape.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidInput`] naming the first violation.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(EngineError::InvalidInput(format!(
                "unsupported schema_version {} (expected {SCHEMA_VERSION})",
                self.schema_version
            )));
        }
        if self.scenarios.is_empty() {
            return Err(EngineError::InvalidInput(
                "report contains no scenarios".to_string(),
            ));
        }
        for scenario in &self.scenarios {
            if scenario.points.is_empty() {
                return Err(EngineError::InvalidInput(format!(
                    "scenario `{}` has no points",
                    scenario.scenario
                )));
            }
            for point in &scenario.points {
                if point.feasible {
                    if point.mapping.is_none()
                        || point.total_budget.is_none()
                        || point.total_storage.is_none()
                    {
                        return Err(EngineError::InvalidInput(format!(
                            "feasible point of `{}` is missing its mapping",
                            scenario.scenario
                        )));
                    }
                } else if point.error.is_none() {
                    return Err(EngineError::InvalidInput(format!(
                        "infeasible point of `{}` carries no error",
                        scenario.scenario
                    )));
                }
            }
        }
        Ok(())
    }

    /// Renders the report as long-format CSV:
    /// `scenario,flow,capacity_cap,record,name,value`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("scenario,flow,capacity_cap,record,name,value\n");
        for scenario in &self.scenarios {
            for point in &scenario.points {
                let cap = point
                    .capacity_cap
                    .map(|c| c.to_string())
                    .unwrap_or_default();
                let mut push = |record: &str, name: &str, value: String| {
                    let _ = writeln!(
                        out,
                        "{},{},{},{},{},{}",
                        csv_field(&scenario.scenario),
                        csv_field(&scenario.flow),
                        cap,
                        record,
                        csv_field(name),
                        csv_field(&value)
                    );
                };
                push("feasible", "", u64::from(point.feasible).to_string());
                if let Some(error) = &point.error {
                    push("error", "", error.clone());
                }
                if let Some(mapping) = &point.mapping {
                    for (task, budget) in &mapping.budgets {
                        push("budget", task, budget.to_string());
                    }
                    for (buffer, capacity) in &mapping.capacities {
                        push("capacity", buffer, capacity.to_string());
                    }
                    push(
                        "solver_iterations",
                        "",
                        mapping.solver_iterations.to_string(),
                    );
                }
                if let Some(total) = point.total_budget {
                    push("total_budget", "", total.to_string());
                }
                if let Some(total) = point.total_storage {
                    push("total_storage", "", total.to_string());
                }
                if let Some(period) = point.measured_period {
                    push("measured_period", "", format!("{period:?}"));
                }
                if let Some(ok) = point.guarantee_ok {
                    push("guarantee_ok", "", u64::from(ok).to_string());
                }
                if let Some(checked) = point.buffers_checked {
                    push("buffers_checked", "", checked.to_string());
                }
                if let Some(violations) = point.buffer_violations {
                    push("buffer_violations", "", violations.to_string());
                }
            }
        }
        out
    }

    /// Renders the report as the markdown document checked in as
    /// `EXPERIMENTS.md`. Deterministic: regenerating on an unchanged tree
    /// produces identical bytes.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Experiments — suite `{}`", self.suite);
        out.push('\n');
        let _ = writeln!(
            out,
            "Measured results of every scenario, produced by the batch engine:"
        );
        out.push('\n');
        let _ = writeln!(out, "```sh");
        let _ = writeln!(
            out,
            "cargo run --release -p bbs-engine --bin bbs -- run --suite {} --markdown EXPERIMENTS.md",
            self.suite
        );
        let _ = writeln!(out, "```");
        out.push('\n');
        let _ = writeln!(
            out,
            "(`--suite {}` assumes the built-in suite of that name; a suite that \
             came from a file regenerates with `--file <suite.json>` instead.)",
            self.suite
        );
        out.push('\n');
        let _ = writeln!(
            out,
            "The tables are deterministic (no wall-clock data), so this file only \
             changes when the solver, the model or the suite definition changes. \
             Solve-time tables are printed by `bbs run` and by `cargo bench`."
        );
        for scenario in &self.scenarios {
            out.push('\n');
            let _ = writeln!(
                out,
                "## `{}` — {} flow, {} tasks, {} buffers",
                scenario.scenario, scenario.flow, scenario.tasks, scenario.buffers
            );
            out.push('\n');
            let (header, rows) = scenario_table(scenario);
            out.push_str(&markdown_table(&header, &rows));
            if let Some(deltas) = &scenario.budget_reduction {
                out.push('\n');
                let _ = writeln!(out, "Budget reduction per extra container:");
                out.push('\n');
                let rows: Vec<Vec<String>> = deltas
                    .iter()
                    .map(|(cap, d)| vec![cap.to_string(), format!("{d:.1}")])
                    .collect();
                out.push_str(&markdown_table(
                    &[
                        "cap (containers)".to_string(),
                        "delta budget (cycles)".to_string(),
                    ],
                    &rows,
                ));
            }
        }
        out
    }

    /// Renders every scenario as an aligned text table (the `bbs run`
    /// stdout format, without timings).
    pub fn to_tables(&self) -> String {
        let mut out = String::new();
        for scenario in &self.scenarios {
            let _ = writeln!(
                out,
                "== {} ({} flow, {} tasks, {} buffers) ==",
                scenario.scenario, scenario.flow, scenario.tasks, scenario.buffers
            );
            let (header, rows) = scenario_table(scenario);
            let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
            out.push_str(&format_table(&header_refs, &rows));
            if let Some(deltas) = &scenario.budget_reduction {
                let rows: Vec<Vec<String>> = deltas
                    .iter()
                    .map(|(cap, d)| vec![cap.to_string(), format!("{d:.1}")])
                    .collect();
                out.push_str(&format_table(
                    &["cap (containers)", "delta budget (cycles)"],
                    &rows,
                ));
            }
            out.push('\n');
        }
        out
    }
}

fn scenario_report(outcome: &ScenarioOutcome) -> ScenarioReport {
    let points: Vec<PointReport> = outcome
        .points
        .iter()
        .map(|point| match &point.result {
            Ok(mapping) => PointReport {
                capacity_cap: point.capacity_cap,
                feasible: true,
                error: None,
                mapping: Some(mapping_report(&outcome.configuration, mapping)),
                total_budget: Some(mapping.total_budget()),
                total_storage: Some(mapping.total_storage(&outcome.configuration)),
                measured_period: point.validation.as_ref().map(|v| v.measured_period),
                guarantee_ok: point.validation.as_ref().map(|v| v.period_ok),
                buffers_checked: point.validation.as_ref().map(|v| v.buffers_checked),
                buffer_violations: point.validation.as_ref().map(|v| v.buffer_violations),
            },
            Err(error) => PointReport {
                capacity_cap: point.capacity_cap,
                feasible: false,
                error: Some(error.to_string()),
                mapping: None,
                total_budget: None,
                total_storage: None,
                measured_period: None,
                guarantee_ok: None,
                buffers_checked: None,
                buffer_violations: None,
            },
        })
        .collect();
    let budget_reduction = if outcome.scenario.derivative.unwrap_or(false) {
        // Deltas run between *consecutive feasible* sweep points and are
        // labelled with the arriving point's capacity cap, so a gap in the
        // sweep (an infeasible cap) cannot silently shift the labels.
        let feasible: Vec<(u64, u64)> = outcome
            .points
            .iter()
            .filter_map(|p| match (&p.result, p.capacity_cap) {
                (Ok(mapping), Some(cap)) => Some((cap, mapping.total_budget())),
                _ => None,
            })
            .collect();
        let totals: Vec<u64> = feasible.iter().map(|&(_, total)| total).collect();
        let deltas = budget_reduction_from_totals(&totals);
        Some(
            feasible
                .iter()
                .skip(1)
                .map(|&(cap, _)| cap)
                .zip(deltas)
                .collect(),
        )
    } else {
        None
    };
    ScenarioReport {
        scenario: outcome.scenario.name.clone(),
        flow: outcome.flow.as_str().to_string(),
        tasks: outcome.configuration.num_tasks() as u64,
        buffers: outcome.configuration.num_buffers() as u64,
        points,
        budget_reduction,
    }
}

/// Builds the shared table shape (header + rows) of one scenario. Per-task
/// budgets are listed individually for small graphs and summarised for
/// large ones.
fn scenario_table(scenario: &ScenarioReport) -> (Vec<String>, Vec<Vec<String>>) {
    let simulated = scenario.points.iter().any(|p| p.measured_period.is_some());
    let mut header = vec![
        "cap".to_string(),
        "budgets (cycles)".to_string(),
        "total budget".to_string(),
        "total storage".to_string(),
        "solver iterations".to_string(),
        "status".to_string(),
    ];
    if simulated {
        header.push("measured period".to_string());
        header.push("guarantee".to_string());
        header.push("buffers".to_string());
    }
    let rows = scenario
        .points
        .iter()
        .map(|point| {
            let mut row = vec![
                point
                    .capacity_cap
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                point
                    .mapping
                    .as_ref()
                    .map(|m| {
                        if m.budgets.len() <= 6 {
                            m.budgets
                                .values()
                                .map(u64::to_string)
                                .collect::<Vec<_>>()
                                .join("/")
                        } else {
                            format!("({} tasks)", m.budgets.len())
                        }
                    })
                    .unwrap_or_else(|| "-".to_string()),
                point
                    .total_budget
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                point
                    .total_storage
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                point
                    .mapping
                    .as_ref()
                    .map(|m| m.solver_iterations.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                if point.feasible {
                    "feasible".to_string()
                } else {
                    format!(
                        "infeasible: {}",
                        point.error.as_deref().unwrap_or("unknown")
                    )
                },
            ];
            if simulated {
                row.push(
                    point
                        .measured_period
                        .map(|p| format!("{p:.3}"))
                        .unwrap_or_else(|| "-".to_string()),
                );
                row.push(match point.guarantee_ok {
                    Some(true) => "ok".to_string(),
                    Some(false) => "VIOLATED".to_string(),
                    None => "-".to_string(),
                });
                row.push(match (point.buffers_checked, point.buffer_violations) {
                    (Some(checked), Some(0)) => format!("{checked} ok"),
                    (Some(checked), Some(over)) => format!("{over}/{checked} OVER"),
                    _ => "-".to_string(),
                });
            }
            row
        })
        .collect();
    (header, rows)
}

/// Escapes one CSV field per RFC 4180: fields containing a comma, quote or
/// line break are quoted, with inner quotes doubled. Scenario, task and
/// buffer names are arbitrary user strings, so they all go through here.
fn csv_field(raw: &str) -> String {
    if raw.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

/// Renders a GitHub-style markdown table.
fn markdown_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        header.iter().map(|_| " --- ").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Renders the run summary with timings and cache markers — the part of the
/// `bbs run` output that is *not* deterministic across disk-cache states and
/// therefore lives outside [`SuiteReport`].
pub fn render_timing_summary(outcome: &SuiteOutcome) -> String {
    use crate::cache::SolveSource;

    let mut out = String::new();
    let points: usize = outcome.scenarios.iter().map(|s| s.points.len()).sum();
    let solve_time: f64 = outcome
        .scenarios
        .iter()
        .flat_map(|s| &s.points)
        .map(|p| p.solve_time.as_secs_f64())
        .sum();
    let _ = writeln!(
        out,
        "suite `{}`: {} scenarios, {} points, cache {} ({} hits / {} misses), \
         solve time {:.1} ms, wall time {:.1} ms",
        outcome.suite,
        outcome.scenarios.len(),
        points,
        if outcome.cache_enabled { "on" } else { "off" },
        outcome.cache.hits,
        outcome.cache.misses,
        solve_time * 1e3,
        outcome.wall_time.as_secs_f64() * 1e3,
    );
    if let Some(store) = &outcome.store {
        // The remote segment appears only when a remote tier is attached:
        // local-only runs keep the historical line byte-for-byte.
        if store.remote_enabled {
            let _ = writeln!(
                out,
                "store: {} disk hits / {} remote hits / {} fresh solves / {} newly stored / {} rejected",
                store.disk_hits, store.remote_hits, store.fresh_solves, store.stored, store.rejected
            );
            // The breaker line appears only once the breaker has tripped:
            // a healthy remote run stays byte-identical to before the
            // breaker existed.
            if store.breaker_opens > 0 {
                let _ = writeln!(
                    out,
                    "remote breaker: {} opens / {} closes / {} probes / {} dropped puts{}",
                    store.breaker_opens,
                    store.breaker_closes,
                    store.breaker_probes,
                    store.dropped_puts,
                    if store.breaker_open { " / open" } else { "" }
                );
            }
        } else {
            let _ = writeln!(
                out,
                "store: {} disk hits / {} fresh solves / {} newly stored / {} rejected",
                store.disk_hits, store.fresh_solves, store.stored, store.rejected
            );
        }
    }
    let pool = &outcome.executor;
    let _ = writeln!(
        out,
        "pool: {} workers / {} caught panics",
        pool.workers, pool.caught_panics,
    );
    for scenario in &outcome.scenarios {
        let scenario_time: f64 = scenario
            .points
            .iter()
            .map(|p| p.solve_time.as_secs_f64())
            .sum();
        let memo_hits = scenario
            .points
            .iter()
            .filter(|p| p.source == SolveSource::Memory)
            .count();
        let disk_hits = scenario
            .points
            .iter()
            .filter(|p| p.source == SolveSource::Disk)
            .count();
        let _ = writeln!(
            out,
            "  {:<28} {:>3} points  {:>9.2} ms  {} memo hits, {} disk hits",
            scenario.scenario.name,
            scenario.points.len(),
            scenario_time * 1e3,
            memo_hits,
            disk_hits
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_suite, RunSettings};
    use crate::suites::smoke_suite;

    fn smoke_report() -> SuiteReport {
        let outcome = run_suite(&smoke_suite(), &RunSettings::default()).unwrap();
        SuiteReport::from_outcome(&outcome)
    }

    #[test]
    fn report_round_trips_and_validates() {
        let report = smoke_report();
        report.validate().unwrap();
        let back = SuiteReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_json_contains_no_wall_clock_fields() {
        let json = smoke_report().to_json();
        for forbidden in ["time", "duration", "elapsed"] {
            assert!(
                !json.to_lowercase().contains(forbidden),
                "report JSON must not contain `{forbidden}`"
            );
        }
    }

    #[test]
    fn validation_rejects_broken_reports() {
        let mut report = smoke_report();
        report.schema_version = 999;
        assert!(report.validate().is_err());

        let mut report = smoke_report();
        report.scenarios.clear();
        assert!(report.validate().is_err());

        let mut report = smoke_report();
        report.scenarios[0].points[0].mapping = None;
        assert!(report.validate().is_err());

        assert!(SuiteReport::from_json("{not json").is_err());
    }

    #[test]
    fn csv_is_long_format_with_header() {
        let csv = smoke_report().to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "scenario,flow,capacity_cap,record,name,value"
        );
        assert!(csv.contains("smoke-pc,joint,1,budget,wa,"));
        assert!(csv.contains("total_budget"));
    }

    #[test]
    fn csv_quotes_fields_containing_commas() {
        use crate::scenario::{Scenario, Suite, SweepSpec, WorkloadSpec};
        use bbs_taskgraph::presets::PresetSpec;
        let suite = Suite::new(
            "quoting",
            vec![Scenario::new(
                "pc, capped",
                WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
            )
            .with_sweep(SweepSpec::list([4u64]))],
        );
        let outcome = run_suite(&suite, &RunSettings::default()).unwrap();
        let csv = SuiteReport::from_outcome(&outcome).to_csv();
        for line in csv.lines().skip(1) {
            assert!(line.starts_with("\"pc, capped\","), "unquoted name: {line}");
        }
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
    }

    #[test]
    fn derivative_labels_survive_sweep_gaps() {
        use crate::scenario::{Scenario, Suite, SweepSpec, WorkloadSpec};
        use bbs_taskgraph::presets::PresetSpec;
        // Cap 1 is infeasible (below the ring's 2 initial tokens), so the
        // first delta pairs caps 2 and 3 and must be labelled with cap 3.
        let suite = Suite::new(
            "gap",
            vec![Scenario::new(
                "ring-gap",
                WorkloadSpec::preset(
                    PresetSpec::named("ring")
                        .with_tasks(3)
                        .with_initial_tokens(2),
                ),
            )
            .with_sweep(SweepSpec::range(1, 4))
            .with_derivative()
            .expecting_infeasible()],
        );
        let outcome = run_suite(&suite, &RunSettings::default()).unwrap();
        let report = SuiteReport::from_outcome(&outcome);
        assert!(!report.scenarios[0].points[0].feasible);
        let deltas = report.scenarios[0].budget_reduction.as_ref().unwrap();
        let caps: Vec<u64> = deltas.iter().map(|&(cap, _)| cap).collect();
        assert_eq!(caps, vec![3, 4], "labels skip the infeasible cap 1");
    }

    #[test]
    fn markdown_and_tables_render_every_scenario() {
        let report = smoke_report();
        let markdown = report.to_markdown();
        let tables = report.to_tables();
        for scenario in &report.scenarios {
            assert!(markdown.contains(&format!("## `{}`", scenario.scenario)));
            assert!(tables.contains(&scenario.scenario));
        }
        assert!(markdown.contains("Budget reduction per extra container"));
    }
}
