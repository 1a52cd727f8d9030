//! The replay's exact bits, pinned.
//!
//! Reports print the measured period at full precision, and replays are
//! not stored anywhere a revision key could cover them, so the simulator's
//! event order and arithmetic are part of every report's bytes. This test
//! folds one FNV-1a hash over everything a replay exposes — the total time,
//! every completion time and every high-water mark, each in configuration
//! order, plus the `Display` text of each error a replay can end in — over
//! a grid of configurations, budgets and capacities. Any change to the
//! event order (the sequence numbers that break equal-time ties), to the
//! TDM or FIFO arithmetic, or to which error fires first moves the hash.

use bbs_scheduler_sim::{simulate_mapping, SimulationError, SimulationResult, SimulationSettings};
use bbs_taskgraph::presets::{
    chain, producer_consumer, random_dag, ring, PaperParameters, RandomWorkload,
};
use bbs_taskgraph::{
    fnv1a, BufferId, BufferRef, Configuration, ConfigurationBuilder, TaskGraphId, TaskId, TaskRef,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The hash of the whole grid below.
const REPLAY_BITS: u64 = 13_935_165_238_885_232_558;

/// The three-job, two-processor system of `examples/multi_job_mapping.rs`.
fn multi_job() -> Configuration {
    let mut builder = ConfigurationBuilder::new();
    builder.processor("dsp", 40.0);
    builder.processor("cpu", 40.0);
    builder.memory("sram", 24);
    {
        let audio = builder.task_graph("audio", 10.0);
        audio.task("aud_src", 1.0, "dsp");
        audio.task("aud_sink", 1.0, "cpu");
        audio.buffer("aud_buf", "aud_src", "aud_sink", "sram");
    }
    {
        let video = builder.task_graph("video", 12.0);
        video.task("vid_decode", 2.0, "dsp");
        video.task("vid_render", 1.5, "cpu");
        video.buffer("vid_buf", "vid_decode", "vid_render", "sram");
    }
    {
        let control = builder.task_graph("control", 20.0);
        control.task("ctl_in", 0.5, "cpu");
        control.task("ctl_out", 0.5, "dsp");
        control.buffer("ctl_buf", "ctl_in", "ctl_out", "sram");
    }
    builder.build().expect("the multi-job system is valid")
}

/// Budgets `budget, budget + 1, budget + 2, budget, …` and capacities
/// `capacity, capacity + 1, capacity, …` in configuration order, so that
/// neighbouring slots and buffers differ.
fn mapping(
    configuration: &Configuration,
    budget: u64,
    capacity: u64,
) -> (BTreeMap<TaskRef, u64>, BTreeMap<BufferRef, u64>) {
    let budgets = configuration
        .all_tasks()
        .into_iter()
        .enumerate()
        .map(|(i, task)| (task, budget + (i % 3) as u64))
        .collect();
    let capacities = configuration
        .all_buffers()
        .into_iter()
        .enumerate()
        .map(|(i, buffer)| (buffer, capacity + (i % 2) as u64))
        .collect();
    (budgets, capacities)
}

/// Appends a replay's observable bits (or its error text) to `bytes`.
fn fold(
    bytes: &mut Vec<u8>,
    configuration: &Configuration,
    outcome: Result<SimulationResult, SimulationError>,
) {
    match outcome {
        Ok(result) => {
            bytes.extend_from_slice(&result.total_time().to_bits().to_le_bytes());
            for task in configuration.all_tasks() {
                for time in result.completion_times(task) {
                    bytes.extend_from_slice(&time.to_bits().to_le_bytes());
                }
            }
            for buffer in configuration.all_buffers() {
                bytes.extend_from_slice(&result.high_water_mark(buffer).to_le_bytes());
            }
        }
        Err(error) => bytes.extend_from_slice(error.to_string().as_bytes()),
    }
}

#[test]
fn replay_bits_are_pinned() {
    let paper = PaperParameters::default();
    let default = SimulationSettings::default();
    let long = SimulationSettings {
        iterations: 256,
        ..SimulationSettings::default()
    };
    let grid: Vec<(Configuration, Vec<u64>, Vec<u64>)> = vec![
        (
            producer_consumer(paper, None),
            vec![2, 8, 19],
            vec![1, 2, 10],
        ),
        (chain(5, paper, None), vec![3, 10, 20], vec![1, 3]),
        (ring(4, paper, 2, None), vec![4, 9, 17], vec![2, 3]),
        (
            random_dag(&RandomWorkload {
                num_tasks: 7,
                num_processors: 3,
                seed: 5,
                ..RandomWorkload::default()
            }),
            vec![3, 7, 11],
            vec![1, 2, 5],
        ),
        (multi_job(), vec![2, 6, 11], vec![1, 4]),
    ];

    let mut bytes = Vec::new();
    for (configuration, budgets, capacities) in &grid {
        for &budget in budgets {
            for &capacity in capacities {
                let (budgets, capacities) = mapping(configuration, budget, capacity);
                let outcome = simulate_mapping(configuration, &budgets, &capacities, &default);
                fold(&mut bytes, configuration, outcome);
            }
        }
    }

    // A longer run, and the event limit exactly at and one below the
    // number of events a 64-firing producer/consumer replay processes.
    let pc = producer_consumer(paper, None);
    let (budgets, capacities) = mapping(&pc, 8, 2);
    let outcome = simulate_mapping(&pc, &budgets, &capacities, &long);
    fold(&mut bytes, &pc, outcome);
    for (max_events, completes) in [(128, true), (127, false)] {
        let settings = SimulationSettings {
            max_events,
            ..SimulationSettings::default()
        };
        let outcome = simulate_mapping(&pc, &budgets, &capacities, &settings);
        assert_eq!(outcome.is_ok(), completes, "{outcome:?}");
        fold(&mut bytes, &pc, outcome);
    }

    // Errors. A deadlock in one job of three: the others run to completion
    // first, so the reported time is theirs.
    let jobs = multi_job();
    let (budgets, mut capacities) = mapping(&jobs, 6, 2);
    capacities.insert(BufferRef::new(TaskGraphId::new(1), BufferId::new(0)), 0);
    let deadlock = simulate_mapping(&jobs, &budgets, &capacities, &default);
    assert!(matches!(deadlock, Err(SimulationError::Deadlock { time }) if time > 0.0));
    fold(&mut bytes, &jobs, deadlock);
    // Budgets that overfill the second processor only.
    let (mut budgets, capacities) = mapping(&jobs, 6, 2);
    budgets.insert(TaskRef::new(TaskGraphId::new(1), TaskId::new(1)), 35);
    let overfull = simulate_mapping(&jobs, &budgets, &capacities, &default);
    assert!(matches!(
        overfull,
        Err(SimulationError::BudgetsDoNotFit { .. })
    ));
    fold(&mut bytes, &jobs, overfull);
    // A missing budget, and a capacity below the initial tokens.
    let (mut budgets, capacities) = mapping(&jobs, 6, 2);
    budgets.remove(&TaskRef::new(TaskGraphId::new(2), TaskId::new(0)));
    let missing = simulate_mapping(&jobs, &budgets, &capacities, &default);
    assert!(matches!(
        missing,
        Err(SimulationError::MissingMapping { .. })
    ));
    fold(&mut bytes, &jobs, missing);
    let tokens = ring(3, paper, 3, None);
    let (budgets, capacities) = mapping(&tokens, 8, 2);
    let below_tokens = simulate_mapping(&tokens, &budgets, &capacities, &default);
    assert!(matches!(
        below_tokens,
        Err(SimulationError::MissingMapping { .. })
    ));
    fold(&mut bytes, &tokens, below_tokens);

    assert_eq!(
        fnv1a(&bytes),
        REPLAY_BITS,
        "the replay's event order or arithmetic changed ({} bytes folded)",
        bytes.len()
    );
}

#[test]
fn unknown_tasks_and_buffers_panic_on_a_multi_graph_result() {
    let jobs = multi_job();
    let (budgets, capacities) = mapping(&jobs, 6, 2);
    let result = simulate_mapping(&jobs, &budgets, &capacities, &SimulationSettings::default())
        .expect("the multi-job mapping replays");
    // Each graph has two tasks and one buffer: the third task of graph 0
    // and the second buffer of graph 1 must not alias into the next graph.
    let unknown_tasks = [
        TaskRef::new(TaskGraphId::new(0), TaskId::new(2)),
        TaskRef::new(TaskGraphId::new(3), TaskId::new(0)),
    ];
    for task in unknown_tasks {
        assert!(catch_unwind(AssertUnwindSafe(|| result.completion_times(task))).is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| result.measured_period(task))).is_err());
    }
    let unknown_buffers = [
        BufferRef::new(TaskGraphId::new(1), BufferId::new(1)),
        BufferRef::new(TaskGraphId::new(3), BufferId::new(0)),
    ];
    for buffer in unknown_buffers {
        assert!(catch_unwind(AssertUnwindSafe(|| result.high_water_mark(buffer))).is_err());
    }
}
