//! Discrete-event simulation of task graphs on TDM budget schedulers.
//!
//! The simulator executes every task graph of a configuration on its
//! processors: each processor runs a static TDM wheel built from the mapped
//! budgets, tasks fire when all input buffers hold data and all output
//! buffers have free containers, each firing executes the task's worst-case
//! execution time inside the task's TDM slots, and tokens move at firing
//! completion. The measured steady-state period of every task can then be
//! compared against the throughput requirement — an end-to-end, executable
//! check of the guarantee that the analytic mapping only promises on paper.
//!
//! # The event-order contract
//!
//! Reports print the measured period at full precision, and replays are not
//! stored behind any revision key, so the replay's event order and
//! arithmetic are report bytes. Three things are fixed:
//!
//! * **Event order.** Tasks are numbered in configuration order (the order
//!   of [`Configuration::all_tasks`]). At time zero the simulator tries to
//!   start tasks `0..n`; after each completion it tries the completed task,
//!   then the consumers of its output buffers, then the producers of its
//!   input buffers, each in buffer order. Every successful start takes the
//!   next sequence number, and equal completion times pop in sequence
//!   order.
//! * **Arithmetic.** Finish times come from [`TdmWheel::finish_time`] and
//!   token moves from [`FifoState`]; the event loop adds no time arithmetic
//!   of its own.
//! * **Errors and their precedence.** Processors are checked in order (a
//!   missing budget, then budgets that do not fit, then a zero budget), then
//!   buffers in order (a missing capacity, then a capacity below the initial
//!   tokens); [`SimulationError::EventLimit`] fires on the first event past
//!   the bound, and a deadlock reports the time of the last completion.
//!
//! The event loop itself runs on flat arrays built once per call, so it
//! neither allocates nor hashes per event.

use crate::fifo::FifoState;
use crate::tdm::TdmWheel;
use bbs_taskgraph::{BufferRef, Configuration, ProcessorId, TaskId, TaskRef};
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

/// The fewest firings per task a measured period can be averaged over.
pub(crate) const MIN_MEASURED_FIRINGS: usize = 4;

/// Parameters of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationSettings {
    /// Number of firings of every task to simulate (the measured period uses
    /// the second half, skipping the start-up transient).
    pub iterations: usize,
    /// Safety bound on the number of processed events, to catch livelock in
    /// malformed set-ups.
    pub max_events: usize,
}

impl Default for SimulationSettings {
    fn default() -> Self {
        Self {
            iterations: 64,
            max_events: 1_000_000,
        }
    }
}

/// Errors reported by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulationError {
    /// A task or buffer required by the configuration has no usable entry
    /// in the supplied budgets/capacities: the entry is missing, a budget
    /// is zero, or a capacity is below the buffer's initial tokens.
    MissingMapping {
        /// Description of the missing entry.
        detail: String,
    },
    /// The mapped budgets do not fit on a processor's TDM wheel.
    BudgetsDoNotFit {
        /// The overloaded processor.
        processor: ProcessorId,
    },
    /// Execution stalled: no task can make progress although not every task
    /// has finished its firings (e.g. a buffer is too small and the graph
    /// deadlocks).
    Deadlock {
        /// Simulation time at which the deadlock occurred.
        time: f64,
    },
    /// The event bound was exceeded.
    EventLimit,
    /// The run is too short to measure a period from (fewer than four
    /// firings per task).
    TooFewIterations {
        /// The requested number of firings per task.
        iterations: usize,
    },
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::MissingMapping { detail } => {
                write!(f, "missing mapping entry: {detail}")
            }
            SimulationError::BudgetsDoNotFit { processor } => {
                write!(f, "budgets do not fit on processor {processor}")
            }
            SimulationError::Deadlock { time } => {
                write!(f, "execution deadlocked at time {time}")
            }
            SimulationError::EventLimit => write!(f, "event limit exceeded"),
            SimulationError::TooFewIterations { iterations } => write!(
                f,
                "{iterations} iterations are too few to measure a period \
                 (at least {MIN_MEASURED_FIRINGS} are needed)"
            ),
        }
    }
}

impl std::error::Error for SimulationError {}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    // Tasks and buffers are stored densely in configuration order: graph
    // `g`'s tasks are `task_offsets[g]..task_offsets[g + 1]` (the last
    // offset is the total), and each task's completion times are one
    // `iterations`-long row of `completion_times`.
    task_offsets: Vec<usize>,
    buffer_offsets: Vec<usize>,
    iterations: usize,
    completion_times: Vec<f64>,
    high_water_marks: Vec<u64>,
    total_time: f64,
}

impl SimulationResult {
    /// Completion times of every firing of a task.
    ///
    /// # Panics
    ///
    /// Panics if the task is unknown.
    pub fn completion_times(&self, task: TaskRef) -> &[f64] {
        let index = dense_index(&self.task_offsets, task.graph.index(), task.task.index())
            .unwrap_or_else(|| panic!("unknown task {task}"));
        self.row(index)
    }

    /// Measured steady-state period of a task: the average distance between
    /// consecutive completions over the second half of the run.
    ///
    /// # Panics
    ///
    /// Panics if the task is unknown or the run has fewer than four firings
    /// per task.
    pub fn measured_period(&self, task: TaskRef) -> f64 {
        period_of(self.completion_times(task))
    }

    /// The worst (largest) measured period over all tasks.
    pub fn worst_period(&self) -> f64 {
        (0..self.task_offsets[self.task_offsets.len() - 1])
            .map(|index| period_of(self.row(index)))
            .fold(0.0, f64::max)
    }

    /// Highest fill level observed on a buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is unknown.
    pub fn high_water_mark(&self, buffer: BufferRef) -> u64 {
        let index = dense_index(
            &self.buffer_offsets,
            buffer.graph.index(),
            buffer.buffer.index(),
        )
        .unwrap_or_else(|| panic!("unknown buffer {buffer}"));
        self.high_water_marks[index]
    }

    /// Total simulated time.
    pub fn total_time(&self) -> f64 {
        self.total_time
    }

    /// The completion times of the task with dense index `index`.
    fn row(&self, index: usize) -> &[f64] {
        &self.completion_times[index * self.iterations..(index + 1) * self.iterations]
    }
}

/// The steady-state period of one task's completion times.
fn period_of(times: &[f64]) -> f64 {
    assert!(
        times.len() >= MIN_MEASURED_FIRINGS,
        "too few firings to measure a period"
    );
    let half = times.len() / 2;
    (times[times.len() - 1] - times[half]) / (times.len() - 1 - half) as f64
}

/// The dense index of item `local` of graph `graph`, when that graph has
/// it. `offsets` holds every graph's first dense index, then the total.
fn dense_index(offsets: &[usize], graph: usize, local: usize) -> Option<usize> {
    let start = *offsets.get(graph)?;
    let end = *offsets.get(graph + 1)?;
    (local < end - start).then_some(start + local)
}

/// Event queue entry ordered by time (earliest first).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CompletionEvent {
    time: f64,
    sequence: u64,
    task_index: usize,
}

impl Eq for CompletionEvent {}

impl Ord for CompletionEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want the earliest time.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

impl PartialOrd for CompletionEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A compressed row layout: row `r` is `items[starts[r]..starts[r + 1]]`.
struct Rows {
    starts: Vec<usize>,
    items: Vec<usize>,
}

impl Rows {
    /// Groups the indices `0..keys.len()` into `rows` rows by key, keeping
    /// index order within each row.
    fn group(rows: usize, keys: &[usize]) -> Self {
        let mut starts = vec![0; rows + 1];
        for &key in keys {
            starts[key + 1] += 1;
        }
        for row in 0..rows {
            starts[row + 1] += starts[row];
        }
        let mut next = starts.clone();
        let mut items = vec![0; keys.len()];
        for (index, &key) in keys.iter().enumerate() {
            items[next[key]] = index;
            next[key] += 1;
        }
        Self { starts, items }
    }

    fn row(&self, row: usize) -> &[usize] {
        &self.items[self.starts[row]..self.starts[row + 1]]
    }
}

/// The fixed topology of one replay, indexed by dense task and buffer
/// index.
struct Layout {
    wheels: Vec<TdmWheel>,
    /// Per task: its processor's wheel (`usize::MAX` for a processor the
    /// configuration lacks, so starting such a task panics), its slot on
    /// that wheel and its WCET.
    wheel: Vec<usize>,
    slot: Vec<usize>,
    wcet: Vec<f64>,
    inputs: Rows,
    outputs: Rows,
    /// Per task: the tasks its completion may enable, in the order they
    /// are tried (see the module docs).
    wake: Rows,
    iterations: usize,
    /// The length of each task's row of completion times: `iterations`,
    /// capped at the event bound, since no task can fire more often than
    /// the run has events. A run that completes fired `n × iterations`
    /// events within the bound, so its rows are `iterations` long.
    row: usize,
}

/// The mutable state of one replay.
struct State {
    fifos: Vec<FifoState>,
    running: Vec<bool>,
    /// Firings completed per task.
    fired: Vec<usize>,
    /// Tasks that completed all their firings.
    finished: usize,
    /// Completion times, one `row`-long row per task.
    completion_times: Vec<f64>,
    queue: BinaryHeap<CompletionEvent>,
    sequence: u64,
}

impl Layout {
    /// Starts `task` at `now` when it is idle, has firings left, every
    /// input holds data and every output has a free container.
    fn try_start(&self, state: &mut State, task: usize, now: f64) {
        if state.running[task] || state.fired[task] >= self.iterations {
            return;
        }
        let ready = self
            .inputs
            .row(task)
            .iter()
            .all(|&b| state.fifos[b].has_data())
            && self
                .outputs
                .row(task)
                .iter()
                .all(|&b| state.fifos[b].has_space());
        if !ready {
            return;
        }
        let finish =
            self.wheels[self.wheel[task]].finish_time(self.slot[task], now, self.wcet[task]);
        state.running[task] = true;
        state.sequence += 1;
        state.queue.push(CompletionEvent {
            time: finish,
            sequence: state.sequence,
            task_index: task,
        });
    }

    /// Completes the running firing of `task` at `now`: consumes one
    /// container from every input, produces one into every output (space
    /// was checked at start, and the producer is a buffer's only writer)
    /// and records the completion time.
    fn complete(&self, state: &mut State, task: usize, now: f64) {
        state.running[task] = false;
        for &b in self.inputs.row(task) {
            state.fifos[b].consume();
        }
        for &b in self.outputs.row(task) {
            state.fifos[b].produce();
        }
        state.completion_times[task * self.row + state.fired[task]] = now;
        state.fired[task] += 1;
        if state.fired[task] == self.iterations {
            state.finished += 1;
        }
    }
}

/// Simulates a mapped configuration.
///
/// `budgets` gives every task its budget in cycles, `capacities` gives every
/// buffer its capacity in containers (the values a mapping computed by the
/// `budget-buffer` crate provides).
///
/// # Errors
///
/// See [`SimulationError`].
pub fn simulate_mapping(
    configuration: &Configuration,
    budgets: &BTreeMap<TaskRef, u64>,
    capacities: &BTreeMap<BufferRef, u64>,
    settings: &SimulationSettings,
) -> Result<SimulationResult, SimulationError> {
    // --- Dense task and buffer indices, in configuration order -------------
    let tasks = configuration.all_tasks();
    let buffers = configuration.all_buffers();
    let n = tasks.len();
    let mut task_offsets = Vec::with_capacity(configuration.num_task_graphs() + 1);
    let mut buffer_offsets = Vec::with_capacity(configuration.num_task_graphs() + 1);
    task_offsets.push(0);
    buffer_offsets.push(0);
    let mut wcet = Vec::with_capacity(n);
    let mut processor = Vec::with_capacity(n);
    for (_, graph) in configuration.task_graphs() {
        for (_, task) in graph.tasks() {
            wcet.push(task.wcet());
            processor.push(task.processor());
        }
        task_offsets.push(wcet.len());
        buffer_offsets.push(buffer_offsets[buffer_offsets.len() - 1] + graph.num_buffers());
    }

    // --- TDM wheels per processor ------------------------------------------
    let mut wheels = Vec::with_capacity(configuration.num_processors());
    let mut wheel = vec![usize::MAX; n];
    let mut slot = vec![0; n];
    let mut slot_budgets = Vec::new();
    for (pid, cpu) in configuration.processors() {
        slot_budgets.clear();
        let mut zero_budget = None;
        for task in (0..n).filter(|&task| processor[task] == pid) {
            let budget =
                *budgets
                    .get(&tasks[task])
                    .ok_or_else(|| SimulationError::MissingMapping {
                        detail: format!("budget for task {}", tasks[task]),
                    })?;
            if budget == 0 && zero_budget.is_none() {
                zero_budget = Some(tasks[task]);
            }
            wheel[task] = wheels.len();
            slot[task] = slot_budgets.len();
            slot_budgets.push(budget as f64);
        }
        if slot_budgets.is_empty() {
            continue;
        }
        let total: f64 = slot_budgets.iter().sum::<f64>() + cpu.scheduling_overhead();
        if total > cpu.replenishment_interval() + 1e-9 {
            return Err(SimulationError::BudgetsDoNotFit { processor: pid });
        }
        if let Some(task) = zero_budget {
            return Err(SimulationError::MissingMapping {
                detail: format!("budget for task {task} is zero"),
            });
        }
        wheels.push(TdmWheel::new(cpu.replenishment_interval(), &slot_budgets));
    }

    // --- FIFO states and buffer endpoints ----------------------------------
    let mut fifos = Vec::with_capacity(buffers.len());
    let mut producer = Vec::with_capacity(buffers.len());
    let mut consumer = Vec::with_capacity(buffers.len());
    for buffer_ref in &buffers {
        let buffer = configuration
            .task_graph(buffer_ref.graph)
            .buffer(buffer_ref.buffer);
        let capacity =
            *capacities
                .get(buffer_ref)
                .ok_or_else(|| SimulationError::MissingMapping {
                    detail: format!("capacity for buffer {buffer_ref}"),
                })?;
        if capacity < buffer.initial_tokens() {
            return Err(SimulationError::MissingMapping {
                detail: format!(
                    "capacity {capacity} of buffer {buffer_ref} is below its initial tokens"
                ),
            });
        }
        fifos.push(FifoState::new(capacity, buffer.initial_tokens()));
        let graph = buffer_ref.graph.index();
        let endpoint = |task: TaskId| {
            dense_index(&task_offsets, graph, task.index())
                .unwrap_or_else(|| panic!("buffer {buffer_ref} names an unknown task {task}"))
        };
        producer.push(endpoint(buffer.producer()));
        consumer.push(endpoint(buffer.consumer()));
    }

    // --- Adjacency and wake lists -------------------------------------------
    let inputs = Rows::group(n, &consumer);
    let outputs = Rows::group(n, &producer);
    let mut wake = Rows {
        starts: Vec::with_capacity(n + 1),
        items: Vec::with_capacity(n + 2 * buffers.len()),
    };
    wake.starts.push(0);
    for task in 0..n {
        wake.items.push(task);
        wake.items
            .extend(outputs.row(task).iter().map(|&b| consumer[b]));
        wake.items
            .extend(inputs.row(task).iter().map(|&b| producer[b]));
        wake.starts.push(wake.items.len());
    }
    let iterations = settings.iterations;
    let row = iterations.min(settings.max_events);
    let layout = Layout {
        wheels,
        wheel,
        slot,
        wcet,
        inputs,
        outputs,
        wake,
        iterations,
        row,
    };

    // --- Event loop -----------------------------------------------------------
    let mut state = State {
        fifos,
        running: vec![false; n],
        fired: vec![0; n],
        finished: if iterations == 0 { n } else { 0 },
        completion_times: vec![0.0; n * row],
        queue: BinaryHeap::with_capacity(n),
        sequence: 0,
    };
    let mut now = 0.0f64;
    let mut events = 0usize;

    // Kick off every task that can start at time zero.
    for task in 0..n {
        layout.try_start(&mut state, task, 0.0);
    }

    while let Some(event) = state.queue.pop() {
        events += 1;
        if events > settings.max_events {
            return Err(SimulationError::EventLimit);
        }
        now = event.time;
        let task = event.task_index;
        layout.complete(&mut state, task, now);
        // The completion may enable this task again, its consumers (new
        // data) and its producers (new space).
        for &candidate in layout.wake.row(task) {
            layout.try_start(&mut state, candidate, now);
        }
        if state.finished == n {
            break;
        }
    }

    if state.finished < n {
        return Err(SimulationError::Deadlock { time: now });
    }

    Ok(SimulationResult {
        task_offsets,
        buffer_offsets,
        iterations: row,
        completion_times: state.completion_times,
        high_water_marks: state.fifos.iter().map(FifoState::high_water_mark).collect(),
        total_time: now,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_taskgraph::presets::{chain3, producer_consumer, PaperParameters};
    use bbs_taskgraph::{find_buffer, find_task};

    fn mapping_maps(
        configuration: &Configuration,
        budget: u64,
        capacity: u64,
    ) -> (BTreeMap<TaskRef, u64>, BTreeMap<BufferRef, u64>) {
        let budgets = configuration
            .all_tasks()
            .into_iter()
            .map(|t| (t, budget))
            .collect();
        let capacities = configuration
            .all_buffers()
            .into_iter()
            .map(|b| (b, capacity))
            .collect();
        (budgets, capacities)
    }

    #[test]
    fn producer_consumer_meets_period_with_adequate_resources() {
        let c = producer_consumer(PaperParameters::default(), None);
        // Budget 8 and capacity 10: the analytic model guarantees period 10;
        // the simulated period must be at most that.
        let (budgets, capacities) = mapping_maps(&c, 8, 10);
        let result =
            simulate_mapping(&c, &budgets, &capacities, &SimulationSettings::default()).unwrap();
        assert!(result.worst_period() <= 10.0 + 1e-9);
        assert!(result.total_time() > 0.0);
    }

    #[test]
    fn tight_buffer_slows_the_pipeline_down() {
        let c = producer_consumer(PaperParameters::default(), None);
        let (budgets, small_cap) = mapping_maps(&c, 8, 1);
        let (_, large_cap) = mapping_maps(&c, 8, 10);
        let slow =
            simulate_mapping(&c, &budgets, &small_cap, &SimulationSettings::default()).unwrap();
        let fast =
            simulate_mapping(&c, &budgets, &large_cap, &SimulationSettings::default()).unwrap();
        assert!(
            slow.worst_period() > fast.worst_period(),
            "a one-container buffer must throttle the pipeline"
        );
    }

    #[test]
    fn measured_period_bounded_by_dataflow_model_bound() {
        // The dataflow model predicts a period of max(ρχ/β, cycle bound);
        // simulation of the real TDM wheel must never be slower than the
        // conservative model in the long run. TDM execution is bursty (a
        // task may fire β/χ times back to back inside its slot and then wait
        // a whole interval), so the finite measurement window carries an
        // error of up to one replenishment interval spread over the window —
        // use a long run and a corresponding tolerance.
        let c = producer_consumer(PaperParameters::default(), None);
        let settings = SimulationSettings {
            iterations: 512,
            ..SimulationSettings::default()
        };
        let window_error = 40.0 / 255.0;
        for budget in [4u64, 6, 8, 12, 20, 40] {
            for capacity in [2u64, 4, 10] {
                let (budgets, capacities) = mapping_maps(&c, budget, capacity);
                let result = simulate_mapping(&c, &budgets, &capacities, &settings).unwrap();
                let b = budget as f64;
                // Conservative model: actors (40−β), 40/β; big cycle over γ tokens.
                let cycle = 2.0 * ((40.0 - b) + 40.0 / b) / capacity as f64;
                let self_loop = 40.0 / b;
                let model_bound = cycle.max(self_loop);
                assert!(
                    result.worst_period() <= model_bound + window_error,
                    "budget {budget}, capacity {capacity}: measured {} > model {model_bound}",
                    result.worst_period()
                );
            }
        }
    }

    #[test]
    fn chain_simulation_tracks_high_water_marks() {
        let c = chain3(PaperParameters::default(), None);
        let (budgets, capacities) = mapping_maps(&c, 10, 4);
        let result =
            simulate_mapping(&c, &budgets, &capacities, &SimulationSettings::default()).unwrap();
        for b in c.all_buffers() {
            assert!(result.high_water_mark(b) <= 4);
            assert!(result.high_water_mark(b) >= 1);
        }
        let wa = find_task(&c, "wa").unwrap();
        assert_eq!(result.completion_times(wa).len(), 64);
    }

    #[test]
    fn missing_budget_is_reported() {
        let c = producer_consumer(PaperParameters::default(), None);
        let (_, capacities) = mapping_maps(&c, 8, 4);
        let err = simulate_mapping(
            &c,
            &BTreeMap::new(),
            &capacities,
            &SimulationSettings::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimulationError::MissingMapping { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn overfull_processor_is_reported() {
        let c = producer_consumer(PaperParameters::default(), None);
        let (budgets, capacities) = mapping_maps(&c, 50, 4);
        let err = simulate_mapping(&c, &budgets, &capacities, &SimulationSettings::default())
            .unwrap_err();
        assert!(matches!(err, SimulationError::BudgetsDoNotFit { .. }));
    }

    #[test]
    fn zero_capacity_buffer_deadlocks() {
        let c = producer_consumer(PaperParameters::default(), None);
        let (budgets, mut capacities) = mapping_maps(&c, 8, 4);
        let bab = find_buffer(&c, "bab").unwrap();
        capacities.insert(bab, 0);
        let err = simulate_mapping(&c, &budgets, &capacities, &SimulationSettings::default())
            .unwrap_err();
        assert!(matches!(err, SimulationError::Deadlock { .. }));
    }

    #[test]
    fn huge_iteration_counts_end_at_the_event_limit() {
        // The completion-time buffer is bounded by the event limit, not by
        // the requested firings, so an unreachable iteration count costs
        // no more memory than the events the run may process.
        let c = producer_consumer(PaperParameters::default(), None);
        let (budgets, capacities) = mapping_maps(&c, 8, 4);
        let settings = SimulationSettings {
            iterations: usize::MAX / 4,
            max_events: 1_000,
        };
        let err = simulate_mapping(&c, &budgets, &capacities, &settings).unwrap_err();
        assert_eq!(err, SimulationError::EventLimit);
    }

    #[test]
    fn larger_budget_never_slows_down() {
        let c = chain3(PaperParameters::default(), None);
        let mut previous = f64::INFINITY;
        for budget in [5u64, 10, 20, 39] {
            let (budgets, capacities) = mapping_maps(&c, budget, 6);
            let result =
                simulate_mapping(&c, &budgets, &capacities, &SimulationSettings::default())
                    .unwrap();
            assert!(
                result.worst_period() <= previous + 1e-9,
                "budget {budget} slowed the pipeline down"
            );
            previous = result.worst_period();
        }
    }
}
