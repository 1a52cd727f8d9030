//! The main entry point: simultaneous computation of budgets and buffer
//! capacities for a whole configuration.

use crate::error::MappingError;
use crate::formulation::Formulation;
use crate::model::DataflowModel;
use crate::options::{SolveOptions, SolverKind};
use crate::solution::Mapping;
use crate::verify::verify_mapping;
use bbs_conic::{solve_with_cutting_planes, Solution, SolveStatus};
use bbs_taskgraph::{ConfigView, Configuration};
use std::collections::BTreeMap;

/// Simultaneously computes budgets and buffer capacities that satisfy every
/// throughput, processor-capacity, memory-capacity and buffer-cap constraint
/// of the configuration, minimising the weighted sum of budgets and buffer
/// storage (Algorithm 1 of the paper).
///
/// # Errors
///
/// * [`MappingError::Model`] — the configuration is structurally invalid;
/// * [`MappingError::ProcessorOverloaded`] / [`MappingError::MemoryOverflow`]
///   / [`MappingError::CapBelowInitialTokens`] — precise early infeasibility;
/// * [`MappingError::Infeasible`] — the solver ended without an optimum;
///   its `detail` names the status, which is a certificate of infeasibility
///   only when it reads `primal infeasible` (an iteration limit or an
///   unconverged cutting-plane loop decides nothing);
/// * [`MappingError::Solver`] — numerical failure in the optimiser;
/// * [`MappingError::VerificationFailed`] — the independently verified
///   rounded mapping violates a constraint (indicates a bug; never expected).
///
/// # Example
///
/// ```
/// use bbs_taskgraph::presets::{producer_consumer, PaperParameters};
/// use budget_buffer::{compute_mapping, SolveOptions};
///
/// # fn main() -> Result<(), budget_buffer::MappingError> {
/// let configuration = producer_consumer(PaperParameters::default(), Some(10));
/// let options = SolveOptions::default().prefer_budget_minimisation();
/// let mapping = compute_mapping(&configuration, &options)?;
/// // With ten containers allowed, the minimum budget of 4 Mcycles is reached.
/// assert_eq!(mapping.budget_of_named(&configuration, "wa"), Some(4));
/// # Ok(())
/// # }
/// ```
pub fn compute_mapping(
    configuration: &Configuration,
    options: &SolveOptions,
) -> Result<Mapping, MappingError> {
    configuration.validate()?;
    let model = DataflowModel::build(configuration);
    let formulation = Formulation::build(configuration, &model, options)?;
    let (solution, iterations) = solve_formulation(&formulation, options)?;
    let mapping = extract_mapping(configuration, &formulation, &solution, iterations);
    if options.verify {
        verify_mapping(configuration, &mapping)?;
    }
    Ok(mapping)
}

/// [`compute_mapping`] for a copy-on-write [`ConfigView`]: solves the
/// view's effective configuration without ever materialising the capped
/// clone. The view's uniform capacity cap enters the formulation as the
/// `δ'` upper bound of every buffer, so the result is identical to calling
/// [`compute_mapping`] on `view.config()`.
///
/// # Errors
///
/// Same as [`compute_mapping`].
///
/// # Example
///
/// ```
/// use bbs_taskgraph::presets::{producer_consumer, PaperParameters};
/// use bbs_taskgraph::ConfigView;
/// use budget_buffer::{compute_mapping_view, SolveOptions};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), budget_buffer::MappingError> {
/// let base = Arc::new(producer_consumer(PaperParameters::default(), None));
/// let view = ConfigView::with_capacity_cap(Arc::clone(&base), 10);
/// let options = SolveOptions::default().prefer_budget_minimisation();
/// let mapping = compute_mapping_view(&view, &options)?;
/// assert_eq!(mapping.budget_of_named(&base, "wa"), Some(4));
/// # Ok(())
/// # }
/// ```
pub fn compute_mapping_view(
    view: &ConfigView,
    options: &SolveOptions,
) -> Result<Mapping, MappingError> {
    let configuration: &Configuration = view.base();
    configuration.validate()?;
    let model = DataflowModel::build_view(view);
    let formulation = Formulation::build_view(view, &model, options)?;
    let (solution, iterations) = solve_formulation(&formulation, options)?;
    let mapping = extract_mapping(configuration, &formulation, &solution, iterations);
    if options.verify {
        verify_mapping(configuration, &mapping)?;
    }
    Ok(mapping)
}

/// Solves an already-built formulation with the selected back-end.
pub(crate) fn solve_formulation(
    formulation: &Formulation,
    options: &SolveOptions,
) -> Result<(Solution, usize), MappingError> {
    match options.solver {
        SolverKind::InteriorPoint => {
            let model = formulation.builder.build()?;
            let solution = model.solve(&options.ipm)?;
            match solution.status() {
                SolveStatus::Optimal => {
                    let iterations = solution.iterations();
                    Ok((solution, iterations))
                }
                status => Err(MappingError::Infeasible {
                    detail: status.to_string(),
                }),
            }
        }
        SolverKind::CuttingPlane => {
            let outcome = solve_with_cutting_planes(
                &formulation.builder,
                &options.ipm,
                &options.cutting_plane,
            )?;
            if !outcome.converged || !outcome.solution.status().is_optimal() {
                return Err(MappingError::Infeasible {
                    detail: format!(
                        "cutting-plane loop did not converge ({} rounds, status {})",
                        outcome.rounds,
                        outcome.solution.status()
                    ),
                });
            }
            Ok((outcome.solution, outcome.rounds))
        }
    }
}

/// Reads the raw solver values out of a solution and applies the
/// conservative rounding.
pub(crate) fn extract_mapping(
    configuration: &Configuration,
    formulation: &Formulation,
    solution: &Solution,
    iterations: usize,
) -> Mapping {
    let raw_budgets: BTreeMap<_, _> = formulation
        .variables
        .budgets
        .iter()
        .map(|(&task, &var)| (task, solution.value(var)))
        .collect();
    let raw_space: BTreeMap<_, _> = formulation
        .variables
        .buffer_space
        .iter()
        .map(|(&buffer, &var)| (buffer, solution.value(var)))
        .collect();
    Mapping::from_raw(
        configuration,
        raw_budgets,
        raw_space,
        solution.objective(),
        iterations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_taskgraph::presets::{chain3, producer_consumer, ring, PaperParameters};
    use bbs_taskgraph::{find_buffer, find_task, ConfigurationBuilder};

    fn budget_first() -> SolveOptions {
        SolveOptions::default().prefer_budget_minimisation()
    }

    #[test]
    fn producer_consumer_unconstrained_reaches_minimum_budget() {
        // With no cap on the buffer the optimiser can always buy enough
        // containers to push both budgets to their floor of ̺·χ/µ = 4.
        let c = producer_consumer(PaperParameters::default(), None);
        let m = compute_mapping(&c, &budget_first()).unwrap();
        assert_eq!(m.budget_of_named(&c, "wa"), Some(4));
        assert_eq!(m.budget_of_named(&c, "wb"), Some(4));
        // The hand-derived cycle inequality 80 − 2β + 80/β ≤ 10γ gives
        // γ ≥ 9.2 at β = 4, so the capacity must be 10 containers.
        assert_eq!(m.capacity_of_named(&c, "bab"), Some(10));
    }

    #[test]
    fn producer_consumer_capacity_one_needs_large_budgets() {
        // Hand analysis: with γ = 1 the budgets satisfy β ≥ (35+√1385)/2 ≈ 36.11.
        let c = producer_consumer(PaperParameters::default(), Some(1));
        let m = compute_mapping(&c, &budget_first()).unwrap();
        let wa = find_task(&c, "wa").unwrap();
        assert_eq!(m.budget(wa), 37);
        assert!((m.raw_budget(wa) - 36.108).abs() < 0.01);
        assert_eq!(m.capacity_of_named(&c, "bab"), Some(1));
    }

    #[test]
    fn budgets_decrease_monotonically_with_capacity() {
        let mut previous = u64::MAX;
        for cap in 1..=10u64 {
            let c = producer_consumer(PaperParameters::default(), Some(cap));
            let m = compute_mapping(&c, &budget_first()).unwrap();
            let budget = m.budget_of_named(&c, "wa").unwrap();
            assert!(
                budget <= previous,
                "capacity {cap}: budget {budget} exceeds previous {previous}"
            );
            previous = budget;
        }
        assert_eq!(previous, 4, "capacity 10 reaches the floor");
    }

    #[test]
    fn symmetric_tasks_get_symmetric_budgets() {
        let c = producer_consumer(PaperParameters::default(), Some(5));
        let m = compute_mapping(&c, &budget_first()).unwrap();
        assert_eq!(
            m.budget_of_named(&c, "wa"),
            m.budget_of_named(&c, "wb"),
            "the producer/consumer instance is symmetric"
        );
    }

    #[test]
    fn chain_middle_task_keeps_larger_budget() {
        // Figure 3: the middle task interacts with two buffers, so its budget
        // is reduced later than the budgets of the end tasks.
        let c = chain3(PaperParameters::default(), Some(3));
        let m = compute_mapping(&c, &budget_first()).unwrap();
        let wa = m.budget_of_named(&c, "wa").unwrap();
        let wb = m.budget_of_named(&c, "wb").unwrap();
        let wc = m.budget_of_named(&c, "wc").unwrap();
        assert_eq!(wa, wc, "end tasks are symmetric");
        assert!(
            wb >= wa,
            "middle task budget {wb} must be at least end budget {wa}"
        );
    }

    #[test]
    fn cutting_plane_agrees_with_interior_point() {
        let c = producer_consumer(PaperParameters::default(), Some(4));
        let ipm = compute_mapping(&c, &budget_first()).unwrap();
        let cp = compute_mapping(&c, &budget_first().with_cutting_plane()).unwrap();
        assert_eq!(
            ipm.budget_of_named(&c, "wa"),
            cp.budget_of_named(&c, "wa"),
            "both solvers must find the same rounded budgets"
        );
        assert_eq!(
            ipm.capacity_of_named(&c, "bab"),
            cp.capacity_of_named(&c, "bab")
        );
    }

    #[test]
    fn ring_with_initial_tokens_is_solvable() {
        let c = ring(3, PaperParameters::default(), 4, None);
        let m = compute_mapping(&c, &budget_first()).unwrap();
        assert!(m.total_budget() >= 3 * 4);
    }

    #[test]
    fn infeasible_cap_is_reported_as_infeasible() {
        // Capacity 1 forces budgets ≈ 36.1 on each processor — fine for the
        // plain producer/consumer. Make it infeasible by also packing a
        // second task graph onto the same processors.
        let mut builder = ConfigurationBuilder::new();
        builder.processor("p1", 40.0);
        builder.processor("p2", 40.0);
        builder.unbounded_memory("mem");
        {
            let job = builder.task_graph("T1", 10.0);
            job.task("wa", 1.0, "p1");
            job.task("wb", 1.0, "p2");
            job.buffer_detailed("bab", "wa", "wb", "mem", 1, 0, 1.0, Some(1));
        }
        {
            let job = builder.task_graph("T2", 10.0);
            job.task("xa", 1.0, "p1");
            job.task("xb", 1.0, "p2");
            job.buffer_detailed("bxab", "xa", "xb", "mem", 1, 0, 1.0, Some(1));
        }
        let c = builder.build().unwrap();
        let err = compute_mapping(&c, &budget_first()).unwrap_err();
        assert!(
            matches!(err, MappingError::Infeasible { .. }),
            "expected Infeasible, got {err:?}"
        );
    }

    #[test]
    fn two_jobs_sharing_processors_with_larger_buffers_fit() {
        // Same set-up as above but with generous buffer caps: both jobs can
        // run at budget 4 + 4 = 8 ≤ 40 per processor.
        let mut builder = ConfigurationBuilder::new();
        builder.processor("p1", 40.0);
        builder.processor("p2", 40.0);
        builder.unbounded_memory("mem");
        for name in ["T1", "T2"] {
            let job = builder.task_graph(name, 10.0);
            job.task(&format!("{name}a"), 1.0, "p1");
            job.task(&format!("{name}b"), 1.0, "p2");
            job.buffer(
                &format!("{name}buf"),
                &format!("{name}a"),
                &format!("{name}b"),
                "mem",
            );
        }
        let c = builder.build().unwrap();
        let m = compute_mapping(&c, &budget_first()).unwrap();
        for (pid, _) in c.processors() {
            assert!(m.budget_on_processor(&c, pid) <= 40);
        }
        assert_eq!(m.budgets().count(), 4);
    }

    #[test]
    fn memory_capacity_forces_smaller_buffers_and_larger_budgets() {
        // A tight memory (6 units) caps the buffer at 5 containers even
        // though 10 would minimise the budgets.
        let mut builder = ConfigurationBuilder::new();
        builder.processor("p1", 40.0);
        builder.processor("p2", 40.0);
        builder.memory("tight", 6);
        {
            let job = builder.task_graph("T1", 10.0);
            job.task("wa", 1.0, "p1");
            job.task("wb", 1.0, "p2");
            job.buffer("bab", "wa", "wb", "tight");
        }
        let c = builder.build().unwrap();
        let m = compute_mapping(&c, &budget_first()).unwrap();
        let bab = find_buffer(&c, "bab").unwrap();
        assert!(
            m.capacity(bab) <= 5,
            "memory slack of 1 unit is reserved for rounding"
        );
        assert!(m.budget_of_named(&c, "wa").unwrap() > 4);
        // The unconstrained problem would have chosen 10 containers.
        let unconstrained = producer_consumer(PaperParameters::default(), None);
        let m_unconstrained = compute_mapping(&unconstrained, &budget_first()).unwrap();
        assert_eq!(
            m_unconstrained.capacity_of_named(&unconstrained, "bab"),
            Some(10)
        );
    }

    #[test]
    fn storage_first_weighting_buys_smaller_buffers() {
        let c = producer_consumer(PaperParameters::default(), None);
        let budget_first_mapping = compute_mapping(&c, &budget_first()).unwrap();
        let storage_first_mapping =
            compute_mapping(&c, &SolveOptions::default().prefer_storage_minimisation()).unwrap();
        assert!(
            storage_first_mapping.capacity_of_named(&c, "bab").unwrap()
                < budget_first_mapping.capacity_of_named(&c, "bab").unwrap()
        );
        assert!(
            storage_first_mapping.budget_of_named(&c, "wa").unwrap()
                > budget_first_mapping.budget_of_named(&c, "wa").unwrap()
        );
    }

    #[test]
    fn granularity_rounds_budgets_to_multiples() {
        let mut c = producer_consumer(PaperParameters::default(), Some(6));
        c.set_budget_granularity(5);
        let m = compute_mapping(&c, &budget_first()).unwrap();
        for (_, budget) in m.budgets() {
            assert_eq!(budget % 5, 0, "budget {budget} is not a multiple of 5");
        }
    }

    #[test]
    fn initial_tokens_reduce_required_space() {
        // With 2 initially filled containers the consumer can start earlier;
        // the required total capacity stays the same as the empty case
        // (the cycle constraint counts total capacity γ).
        let mut builder = ConfigurationBuilder::new();
        builder.processor("p1", 40.0);
        builder.processor("p2", 40.0);
        builder.unbounded_memory("mem");
        {
            let job = builder.task_graph("T1", 10.0);
            job.task("wa", 1.0, "p1");
            job.task("wb", 1.0, "p2");
            job.buffer_detailed("bab", "wa", "wb", "mem", 1, 2, 1.0, None);
        }
        let c = builder.build().unwrap();
        let m = compute_mapping(&c, &budget_first()).unwrap();
        assert_eq!(m.budget_of_named(&c, "wa"), Some(4));
        let bab = find_buffer(&c, "bab").unwrap();
        // Total capacity = initial tokens + allocated space.
        assert!(m.capacity(bab) >= 2);
    }

    #[test]
    fn invalid_configuration_is_rejected_before_solving() {
        let c = bbs_taskgraph::Configuration::new();
        assert!(matches!(
            compute_mapping(&c, &SolveOptions::default()),
            Err(MappingError::Model(_))
        ));
        let view = ConfigView::new(std::sync::Arc::new(bbs_taskgraph::Configuration::new()));
        assert!(matches!(
            compute_mapping_view(&view, &SolveOptions::default()),
            Err(MappingError::Model(_))
        ));
    }

    #[test]
    fn view_solves_match_materialised_clone_solves() {
        use crate::explore::with_capacity_cap;
        let base = std::sync::Arc::new(producer_consumer(PaperParameters::default(), None));
        for cap in 1..=10u64 {
            let view = ConfigView::with_capacity_cap(std::sync::Arc::clone(&base), cap);
            let from_view = compute_mapping_view(&view, &budget_first()).unwrap();
            let from_clone =
                compute_mapping(&with_capacity_cap(&base, cap), &budget_first()).unwrap();
            assert_eq!(from_view, from_clone, "cap {cap}: view and clone diverge");
        }
    }

    #[test]
    fn uncapped_view_solves_match_the_base() {
        let base = std::sync::Arc::new(producer_consumer(PaperParameters::default(), None));
        let view = ConfigView::new(std::sync::Arc::clone(&base));
        let from_view = compute_mapping_view(&view, &budget_first()).unwrap();
        let from_base = compute_mapping(&base, &budget_first()).unwrap();
        assert_eq!(from_view, from_base);
    }

    #[test]
    fn view_cap_below_initial_tokens_is_rejected() {
        let mut builder = ConfigurationBuilder::new();
        builder.processor("p1", 40.0);
        builder.processor("p2", 40.0);
        builder.unbounded_memory("mem");
        {
            let job = builder.task_graph("T", 10.0);
            job.task("wa", 1.0, "p1");
            job.task("wb", 1.0, "p2");
            job.buffer_detailed("bab", "wa", "wb", "mem", 1, 5, 1.0, None);
        }
        let base = std::sync::Arc::new(builder.build().unwrap());
        let view = ConfigView::with_capacity_cap(base, 2);
        let err = compute_mapping_view(&view, &budget_first()).unwrap_err();
        assert!(matches!(err, MappingError::CapBelowInitialTokens { .. }));
    }
}
