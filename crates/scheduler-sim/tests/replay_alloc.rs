//! Proof that a replay's heap allocations do not grow with its length,
//! via a counting global allocator.
//!
//! `simulate_mapping` builds its flat task and buffer layout once per call
//! and then runs the event loop without allocating, so one
//! `validate_mapping` call allocates exactly as often at 64 iterations as
//! at 256. Allocating per event (a candidate list, a growing completion
//! vector) would make the count scale with the number of firings.
//!
//! The file deliberately contains a single `#[test]`: the counter is
//! process-global, and a lone test keeps the harness from running anything
//! concurrently with the measured regions.

use bbs_scheduler_sim::{validate_mapping, SimulationSettings};
use bbs_taskgraph::presets::{chain, producer_consumer, PaperParameters};
use bbs_taskgraph::{BufferRef, Configuration, TaskRef};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every allocation call.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counter is an atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Allocations of one `validate_mapping` call of `iterations` firings with
/// every task at `budget` and every buffer at `capacity`.
fn replay_allocations(
    configuration: &Configuration,
    budget: u64,
    capacity: u64,
    iterations: usize,
) -> u64 {
    let budgets: BTreeMap<TaskRef, u64> = configuration
        .all_tasks()
        .into_iter()
        .map(|task| (task, budget))
        .collect();
    let capacities: BTreeMap<BufferRef, u64> = configuration
        .all_buffers()
        .into_iter()
        .map(|buffer| (buffer, capacity))
        .collect();
    let settings = SimulationSettings {
        iterations,
        ..SimulationSettings::default()
    };
    let before = allocations();
    let validation = black_box(validate_mapping(
        black_box(configuration),
        &budgets,
        &capacities,
        &settings,
    ));
    let count = allocations() - before;
    assert!(validation.is_sound(), "{validation:?}");
    count
}

#[test]
fn replay_allocations_do_not_depend_on_the_number_of_iterations() {
    let paper = PaperParameters::default();
    let cases = [
        ("producer/consumer", producer_consumer(paper, None), 8, 10),
        ("5-task chain", chain(5, paper, None), 10, 4),
    ];
    for (name, configuration, budget, capacity) in &cases {
        let short = replay_allocations(configuration, *budget, *capacity, 64);
        let long = replay_allocations(configuration, *budget, *capacity, 256);
        assert_eq!(
            short, long,
            "{name}: {short} allocations at 64 iterations, {long} at 256"
        );
        assert!(short > 0, "{name}: the counter must see the set-up");
    }
}
