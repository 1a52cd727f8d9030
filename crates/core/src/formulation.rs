//! Algorithm 1 of the paper: the second-order cone program that jointly
//! computes budgets and buffer sizes.
//!
//! Decision variables:
//!
//! * `β'(w)` — real-valued budget of every task (Constraint 9 reserves the
//!   `+g` rounding slack per task);
//! * `λ(w)` — the budget reciprocal, coupled to `β'` through the hyperbolic
//!   (rotated-cone) Constraint 8 `λ(w)·β'(w) ≥ 1`;
//! * `δ'(e)` — real-valued token count of every *space* queue (the free
//!   containers of a buffer); data queues and self-loops have constant
//!   token counts;
//! * `s(v)` — start-time offsets of the periodic admissible schedule, with
//!   one actor per weakly-connected component pinned to zero to remove the
//!   translational degree of freedom.
//!
//! Constraints 6 and 7 are the PAS conditions for the queue classes E1 and
//! E2, Constraint 9 is the processor capacity and Constraint 10 the memory
//! capacity; the objective is the weighted sum of budgets and buffer
//! storage.

use crate::error::MappingError;
use crate::model::{DataflowModel, GraphModel, QueueRole, TokenCount};
use crate::options::SolveOptions;
use bbs_conic::{LinExpr, ModelBuilder, VarId};
use bbs_taskgraph::{BufferRef, ConfigView, Configuration, TaskRef};
use std::collections::BTreeMap;

/// Variable handles of a built formulation, used to extract the solution.
#[derive(Debug, Clone, Default)]
pub struct FormulationVariables {
    /// `β'(w)` per task.
    pub budgets: BTreeMap<TaskRef, VarId>,
    /// `λ(w)` per task.
    pub reciprocals: BTreeMap<TaskRef, VarId>,
    /// `δ'` of the space queue per buffer.
    pub buffer_space: BTreeMap<BufferRef, VarId>,
    /// Start-time variable per (graph, actor index); `None` for the pinned
    /// reference actors whose start time is fixed at zero.
    pub start_times: BTreeMap<(usize, usize), Option<VarId>>,
}

/// The assembled optimisation problem together with its variable handles.
#[derive(Debug, Clone)]
pub struct Formulation {
    /// The conic model builder holding objective and constraints.
    pub builder: ModelBuilder,
    /// Handles used to read the solution back.
    pub variables: FormulationVariables,
}

impl Formulation {
    /// Builds the joint budget/buffer formulation for a validated
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::CapBelowInitialTokens`] when a buffer's
    /// capacity cap cannot even hold its initially filled containers, and
    /// [`MappingError::ProcessorOverloaded`] / [`MappingError::MemoryOverflow`]
    /// when a resource cannot satisfy the structural minimum requirements
    /// (early, precise infeasibility detection).
    pub fn build(
        configuration: &Configuration,
        model: &DataflowModel,
        options: &SolveOptions,
    ) -> Result<Self, MappingError> {
        Self::build_inner(configuration, None, model, options)
    }

    /// Builds the formulation for a copy-on-write [`ConfigView`] without
    /// materialising the capped clone: the view's uniform capacity cap is
    /// applied symbolically to every buffer's `δ'` upper bound, replacing
    /// per-buffer caps of the base — exactly what
    /// [`Formulation::build`] on the materialised configuration would do.
    ///
    /// # Errors
    ///
    /// Same as [`Formulation::build`].
    pub fn build_view(
        view: &ConfigView,
        model: &DataflowModel,
        options: &SolveOptions,
    ) -> Result<Self, MappingError> {
        Self::build_inner(view.base(), view.capacity_cap(), model, options)
    }

    /// Shared body of [`Formulation::build`] / [`Formulation::build_view`]:
    /// `cap_override`, when present, replaces every buffer's own cap.
    fn build_inner(
        configuration: &Configuration,
        cap_override: Option<u64>,
        model: &DataflowModel,
        options: &SolveOptions,
    ) -> Result<Self, MappingError> {
        preflight(configuration)?;

        let mut builder = ModelBuilder::new();
        let mut variables = FormulationVariables::default();
        let granularity = configuration.budget_granularity() as f64;

        // --- Per-task variables: β' and λ -----------------------------------
        for task_ref in configuration.all_tasks() {
            let graph = configuration.task_graph(task_ref.graph);
            let task = graph.task(task_ref.task);
            let processor = configuration.processor(task.processor());
            let replenishment = processor.replenishment_interval();
            let beta = builder.add_var_with_cost(
                format!("beta[{task_ref}]"),
                options.budget_weight_scale * task.budget_weight(),
            );
            // Throughput-implied lower bound β ≥ ̺·χ/µ (the self-loop of the
            // execution actor) and the structural upper bound β ≤ ̺.
            let beta_min = (replenishment * task.wcet() / graph.period()).min(replenishment);
            builder.bound_lower(beta, beta_min.max(1e-6));
            builder.bound_upper(beta, replenishment);
            let lambda = builder.add_var(format!("lambda[{task_ref}]"));
            builder.bound_lower(lambda, 1e-9);
            // Constraint 8: λ·β' ≥ 1.
            builder.add_hyperbolic(lambda, beta, 1.0);
            variables.budgets.insert(task_ref, beta);
            variables.reciprocals.insert(task_ref, lambda);
        }

        // --- Per-buffer variables: δ' of the space queue ---------------------
        for buffer_ref in configuration.all_buffers() {
            let graph = configuration.task_graph(buffer_ref.graph);
            let buffer = graph.buffer(buffer_ref.buffer);
            let delta = builder.add_var_with_cost(
                format!("delta[{buffer_ref}]"),
                options.storage_weight_scale
                    * buffer.storage_weight()
                    * buffer.container_size() as f64,
            );
            builder.bound_lower(delta, 0.0);
            if let Some(cap) = cap_override.or_else(|| buffer.max_capacity()) {
                if cap < buffer.initial_tokens() {
                    return Err(MappingError::CapBelowInitialTokens {
                        buffer: buffer_ref,
                        cap,
                        initial_tokens: buffer.initial_tokens(),
                    });
                }
                builder.bound_upper(delta, (cap - buffer.initial_tokens()) as f64);
            }
            variables.buffer_space.insert(buffer_ref, delta);
        }

        // --- Start-time variables with one pinned actor per component --------
        for (graph_index, graph_model) in model.graphs().iter().enumerate() {
            for component in graph_model.weakly_connected_components() {
                for (position, &actor) in component.iter().enumerate() {
                    let var = if position == 0 {
                        None
                    } else {
                        Some(builder.add_var(format!(
                            "start[{}:{}]",
                            graph_model.graph_id, graph_model.actors[actor].name
                        )))
                    };
                    variables.start_times.insert((graph_index, actor), var);
                }
            }
        }

        // --- PAS constraints (6) and (7) -------------------------------------
        for (graph_index, graph_model) in model.graphs().iter().enumerate() {
            add_pas_constraints(
                &mut builder,
                &variables,
                configuration,
                graph_index,
                graph_model,
            );
        }

        // --- Processor capacity (9) ------------------------------------------
        for (pid, processor) in configuration.processors() {
            let tasks = configuration.tasks_on_processor(pid);
            if tasks.is_empty() {
                continue;
            }
            let mut expr = LinExpr::new();
            for task_ref in &tasks {
                expr = expr.plus(1.0, variables.budgets[task_ref]);
            }
            let rhs = processor.replenishment_interval()
                - processor.scheduling_overhead()
                - granularity * tasks.len() as f64;
            builder.add_le(expr, rhs);
        }

        // --- Memory capacity (10) ---------------------------------------------
        for (mid, memory) in configuration.memories() {
            let buffers = configuration.buffers_in_memory(mid);
            if buffers.is_empty() || memory.is_unbounded() {
                continue;
            }
            let mut expr = LinExpr::new();
            let mut fixed: f64 = 0.0;
            for buffer_ref in &buffers {
                let buffer = configuration
                    .task_graph(buffer_ref.graph)
                    .buffer(buffer_ref.buffer);
                expr = expr.plus(
                    buffer.container_size() as f64,
                    variables.buffer_space[buffer_ref],
                );
                // ι(b) filled containers plus the +1 rounding slack.
                fixed += (buffer.initial_tokens() as f64 + 1.0) * buffer.container_size() as f64;
            }
            builder.add_le(expr, memory.capacity() as f64 - fixed);
        }

        Ok(Self { builder, variables })
    }
}

/// Adds Constraints (6)/(7) for every queue of one graph model.
fn add_pas_constraints(
    builder: &mut ModelBuilder,
    variables: &FormulationVariables,
    configuration: &Configuration,
    graph_index: usize,
    graph_model: &GraphModel,
) {
    let graph_id = graph_model.graph_id;
    let graph = configuration.task_graph(graph_id);
    let period = graph_model.period;
    let start = |actor: usize| variables.start_times[&(graph_index, actor)];

    for queue in &graph_model.queues {
        // Expression  s(target) − s(source) + … ≥ rhs.
        let mut expr = LinExpr::new();
        if let Some(var) = start(queue.target) {
            expr = expr.plus(1.0, var);
        }
        if let Some(var) = start(queue.source) {
            expr = expr.plus(-1.0, var);
        }
        let source_task = graph_model.actors[queue.source].role.task();
        let task_ref = TaskRef::new(graph_id, source_task);
        let task = graph.task(source_task);
        let processor = configuration.processor(task.processor());
        let replenishment = processor.replenishment_interval();

        match queue.role {
            QueueRole::IntraTask(_) => {
                // Constraint 6: s(v2) ≥ s(v1) + ̺ − β'  ⇔
                //               s(v2) − s(v1) + β' ≥ ̺.
                expr = expr.plus(1.0, variables.budgets[&task_ref]);
                builder.add_ge(expr, replenishment);
            }
            QueueRole::ExecutionSelfLoop(_) | QueueRole::Data(_) | QueueRole::Space(_) => {
                // Constraint 7: s(vj) ≥ s(vi) + ̺·χ·λ − δ(e)·µ.
                expr = expr.plus(
                    -replenishment * task.wcet(),
                    variables.reciprocals[&task_ref],
                );
                let rhs = match queue.tokens {
                    TokenCount::Fixed(t) => -(t as f64) * period,
                    TokenCount::BufferSpace(bid) => {
                        let buffer_ref = BufferRef::new(graph_id, bid);
                        expr = expr.plus(period, variables.buffer_space[&buffer_ref]);
                        0.0
                    }
                };
                builder.add_ge(expr, rhs);
            }
        }
    }
}

/// Early, precise infeasibility detection for resources: the throughput
/// requirement already implies a minimum budget per task; if those minima do
/// not fit on a processor (or the minimum buffer storage does not fit in a
/// memory), report which resource is the problem instead of a generic
/// solver "infeasible".
fn preflight(configuration: &Configuration) -> Result<(), MappingError> {
    let granularity = configuration.budget_granularity() as f64;
    for (pid, processor) in configuration.processors() {
        let tasks = configuration.tasks_on_processor(pid);
        if tasks.is_empty() {
            continue;
        }
        let mut required = processor.scheduling_overhead();
        for task_ref in &tasks {
            let graph = configuration.task_graph(task_ref.graph);
            let task = graph.task(task_ref.task);
            let beta_min = processor.replenishment_interval() * task.wcet() / graph.period();
            required += beta_min + granularity;
        }
        if required > processor.replenishment_interval() + 1e-9 {
            return Err(MappingError::ProcessorOverloaded {
                processor: pid,
                required,
                available: processor.replenishment_interval(),
            });
        }
    }
    for (mid, memory) in configuration.memories() {
        let buffers = configuration.buffers_in_memory(mid);
        if buffers.is_empty() || memory.is_unbounded() {
            continue;
        }
        let mut required: u64 = 0;
        for buffer_ref in &buffers {
            let buffer = configuration
                .task_graph(buffer_ref.graph)
                .buffer(buffer_ref.buffer);
            required += (buffer.initial_tokens() + 1) * buffer.container_size();
        }
        if required > memory.capacity() {
            return Err(MappingError::MemoryOverflow {
                memory: mid,
                required,
                available: memory.capacity(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DataflowModel;
    use bbs_taskgraph::presets::{chain3, producer_consumer, PaperParameters};
    use bbs_taskgraph::ConfigurationBuilder;

    fn formulation_for(configuration: &Configuration) -> Formulation {
        let model = DataflowModel::build(configuration);
        Formulation::build(configuration, &model, &SolveOptions::default()).unwrap()
    }

    #[test]
    fn variable_counts_match_structure() {
        let c = producer_consumer(PaperParameters::default(), Some(10));
        let f = formulation_for(&c);
        assert_eq!(f.variables.budgets.len(), 2);
        assert_eq!(f.variables.reciprocals.len(), 2);
        assert_eq!(f.variables.buffer_space.len(), 1);
        // 4 actors, one pinned → 3 start-time variables.
        let free_starts = f
            .variables
            .start_times
            .values()
            .filter(|v| v.is_some())
            .count();
        assert_eq!(free_starts, 3);
        assert_eq!(f.variables.start_times.len(), 4);
        // Total variables: 2β + 2λ + 1δ + 3s = 8.
        assert_eq!(f.builder.num_vars(), 8);
    }

    #[test]
    fn chain_has_expected_variable_counts() {
        let c = chain3(PaperParameters::default(), Some(10));
        let f = formulation_for(&c);
        assert_eq!(f.variables.budgets.len(), 3);
        assert_eq!(f.variables.buffer_space.len(), 2);
        // 6 actors, one component, one pinned → 5 start variables.
        let free_starts = f
            .variables
            .start_times
            .values()
            .filter(|v| v.is_some())
            .count();
        assert_eq!(free_starts, 5);
    }

    #[test]
    fn hyperbolic_constraints_one_per_task() {
        let c = chain3(PaperParameters::default(), None);
        let f = formulation_for(&c);
        assert_eq!(f.builder.hyperbolic_constraints().len(), 3);
    }

    #[test]
    fn cap_below_initial_tokens_is_rejected() {
        let mut builder = ConfigurationBuilder::new();
        builder.processor("p1", 40.0);
        builder.processor("p2", 40.0);
        builder.unbounded_memory("mem");
        {
            let job = builder.task_graph("T", 10.0);
            job.task("wa", 1.0, "p1");
            job.task("wb", 1.0, "p2");
            job.buffer_detailed("bab", "wa", "wb", "mem", 1, 5, 1.0, Some(2));
        }
        let c = builder.build().unwrap();
        let model = DataflowModel::build(&c);
        let err = Formulation::build(&c, &model, &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, MappingError::CapBelowInitialTokens { .. }));
    }

    #[test]
    fn preflight_detects_processor_overload() {
        // Eight tasks of wcet 1 with period 10 on one 40-cycle processor need
        // at least 8·(4+1) = 40 > 40 − 0 … boundary; push to nine tasks.
        let mut builder = ConfigurationBuilder::new();
        builder.processor("p", 40.0);
        builder.unbounded_memory("mem");
        {
            let job = builder.task_graph("T", 10.0);
            for i in 0..9 {
                job.task(&format!("w{i}"), 1.0, "p");
            }
            for i in 0..8 {
                job.buffer(
                    &format!("b{i}"),
                    &format!("w{i}"),
                    &format!("w{}", i + 1),
                    "mem",
                );
            }
        }
        let c = builder.build().unwrap();
        let model = DataflowModel::build(&c);
        let err = Formulation::build(&c, &model, &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, MappingError::ProcessorOverloaded { .. }));
    }

    #[test]
    fn preflight_detects_memory_overflow() {
        let mut builder = ConfigurationBuilder::new();
        builder.processor("p1", 40.0);
        builder.processor("p2", 40.0);
        builder.memory("tiny", 1);
        {
            let job = builder.task_graph("T", 10.0);
            job.task("wa", 1.0, "p1");
            job.task("wb", 1.0, "p2");
            // Container size 4: even one container (plus rounding slack) overflows.
            job.buffer_detailed("bab", "wa", "wb", "tiny", 4, 0, 1.0, None);
        }
        let c = builder.build().unwrap();
        let model = DataflowModel::build(&c);
        let err = Formulation::build(&c, &model, &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, MappingError::MemoryOverflow { .. }));
    }

    #[test]
    fn weight_scales_change_objective_coefficients() {
        let c = producer_consumer(PaperParameters::default(), None);
        let model = DataflowModel::build(&c);
        let default = Formulation::build(&c, &model, &SolveOptions::default()).unwrap();
        let scaled = Formulation::build(
            &c,
            &model,
            &SolveOptions::default().prefer_budget_minimisation(),
        )
        .unwrap();
        let d = default.builder.build().unwrap();
        let s = scaled.builder.build().unwrap();
        assert_ne!(d.problem().c.as_slice(), s.problem().c.as_slice());
    }
}
