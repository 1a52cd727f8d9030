//! Human-readable and machine-readable reports.
//!
//! The examples and the engine's report renderers use these helpers to
//! print the data series behind the paper's figures as aligned text
//! tables, and to export mappings with name-based keys for further
//! processing.

use crate::explore::{budget_reduction_series, TradeoffPoint};
use crate::solution::Mapping;
use bbs_taskgraph::Configuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A serialisable view of a [`Mapping`] keyed by task and buffer names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingReport {
    /// Budget per task name, in cycles.
    pub budgets: BTreeMap<String, u64>,
    /// Capacity per buffer name, in containers.
    pub capacities: BTreeMap<String, u64>,
    /// Objective value reported by the solver.
    pub objective: f64,
    /// Solver iterations.
    pub solver_iterations: usize,
}

/// Builds the name-keyed report of a mapping.
pub fn mapping_report(configuration: &Configuration, mapping: &Mapping) -> MappingReport {
    let budgets = mapping
        .budgets()
        .map(|(task, budget)| {
            (
                configuration
                    .task_graph(task.graph)
                    .task(task.task)
                    .name()
                    .to_string(),
                budget,
            )
        })
        .collect();
    let capacities = mapping
        .capacities()
        .map(|(buffer, capacity)| {
            (
                configuration
                    .task_graph(buffer.graph)
                    .buffer(buffer.buffer)
                    .name()
                    .to_string(),
                capacity,
            )
        })
        .collect();
    MappingReport {
        budgets,
        capacities,
        objective: mapping.objective(),
        solver_iterations: mapping.solver_iterations(),
    }
}

/// Formats a table with aligned columns. The first row is the header.
///
/// # Panics
///
/// Panics if the rows do not all have the same number of columns as the
/// header.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    for row in rows {
        assert_eq!(row.len(), columns, "table rows must match the header width");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(out, "{:>width$}  ", cell, width = widths[i]);
        }
        out.push('\n');
    };
    write_row(
        &mut out,
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    write_row(&mut out, &separator);
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Renders the Figure 2(a)-style table: one row per capacity with the
/// (common) per-task budget and the totals.
pub fn tradeoff_table(configuration: &Configuration, points: &[TradeoffPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let per_task: Vec<String> = p
                .mapping
                .budgets()
                .map(|(_, budget)| budget.to_string())
                .collect();
            vec![
                p.capacity_cap.to_string(),
                per_task.join("/"),
                p.total_budget().to_string(),
                p.mapping.total_storage(configuration).to_string(),
                format!("{:.2}", p.solve_time.as_secs_f64() * 1e3),
            ]
        })
        .collect();
    format_table(
        &[
            "capacity (containers)",
            "budgets (cycles)",
            "total budget",
            "total storage",
            "solve time (ms)",
        ],
        &rows,
    )
}

/// Renders the Figure 2(b)-style table: the per-container budget reduction.
pub fn derivative_table(points: &[TradeoffPoint]) -> String {
    let deltas = budget_reduction_series(points);
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .enumerate()
        .map(|(i, d)| {
            vec![
                format!("{}", points[i + 1].capacity_cap),
                format!("{:.1}", d),
            ]
        })
        .collect();
    format_table(&["capacity (containers)", "delta budget (cycles)"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::sweep_buffer_capacity;
    use crate::options::SolveOptions;
    use crate::solver::compute_mapping;
    use bbs_taskgraph::presets::{producer_consumer, PaperParameters};

    fn sample() -> (Configuration, Vec<TradeoffPoint>) {
        let c = producer_consumer(PaperParameters::default(), None);
        let points = sweep_buffer_capacity(
            &c,
            [1u64, 5, 10],
            &SolveOptions::default().prefer_budget_minimisation(),
        )
        .unwrap();
        (c, points)
    }

    #[test]
    fn mapping_report_uses_names_and_serialises() {
        let c = producer_consumer(PaperParameters::default(), Some(10));
        let m = compute_mapping(&c, &SolveOptions::default().prefer_budget_minimisation()).unwrap();
        let report = mapping_report(&c, &m);
        assert_eq!(report.budgets.get("wa"), Some(&4));
        assert_eq!(report.capacities.get("bab"), Some(&10));
        let json = serde_json::to_string(&report).unwrap();
        let back: MappingReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn format_table_aligns_columns() {
        let table = format_table(
            &["a", "long header"],
            &[
                vec!["1".to_string(), "2".to_string()],
                vec!["100".to_string(), "x".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long header"));
        assert!(lines[1].contains("---"));
    }

    #[test]
    #[should_panic(expected = "match the header width")]
    fn format_table_rejects_ragged_rows() {
        let _ = format_table(&["a", "b"], &[vec!["1".to_string()]]);
    }

    #[test]
    fn tables_render_every_point() {
        let (c, points) = sample();
        let t = tradeoff_table(&c, &points);
        assert_eq!(t.lines().count(), 2 + points.len());
        let d = derivative_table(&points);
        assert_eq!(d.lines().count(), 2 + points.len() - 1);
    }
}
