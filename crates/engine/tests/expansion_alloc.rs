//! Proof that minting a suite's work items performs O(scenarios), not
//! O(points), heap allocations, via a counting global allocator.
//!
//! This is the acceptance test for the copy-on-write work-item design:
//! minting a sweep point's work item — a `ConfigView` over the scenario's
//! shared base plus a pre-derived streaming cache key — must not allocate
//! at all. A run mints each point inside its solve job; `Engine::expand_suite`
//! mints every point through the same call without solving, so it measures
//! minting on its own: a fixed handful of per-suite and per-scenario
//! allocations (workload resolution, the cap list, the hoisted key seed,
//! the key slots, the job's result slots) no matter how many points the
//! sweep has. The old scheme cloned the full configuration once per point.
//! Repeated scenarios share one resolution and one key slot per cap, and
//! that sharing must not allocate per point either.
//!
//! The file deliberately contains a single `#[test]`: the counter is
//! process-global, and a lone test keeps the harness from running anything
//! concurrently with the measured regions.

use bbs_engine::{Engine, RunSettings, Scenario, Suite, SweepSpec, WorkloadSpec};
use bbs_taskgraph::presets::PresetSpec;
use std::alloc::{GlobalAlloc, Layout, System};
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

fn pc_sweep(name: &str, points: u64) -> Scenario {
    Scenario::new(
        name,
        WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
    )
    .with_sweep(SweepSpec::range(1, points))
}

fn sweep_suite(points: u64) -> Suite {
    Suite::new("alloc", vec![pc_sweep("pc", points)])
}

/// The same workload three times under other names: the second sweep
/// repeats the first one's points, and the third one half of them.
fn repeated_suite(points: u64) -> Suite {
    Suite::new(
        "alloc-repeated",
        vec![
            pc_sweep("pc", points),
            pc_sweep("pc-again", points),
            pc_sweep("pc-half", points / 2),
        ],
    )
}

#[test]
fn expansion_allocations_do_not_scale_with_point_count() {
    // Serial settings: one useful thread mints every item on the calling
    // thread, so no pooled thread is charged to the measurement. The engine
    // is built outside the measured regions.
    let engine = Engine::new(1);
    let settings = RunSettings::default();
    let inputs = [
        (sweep_suite as fn(u64) -> Suite, 100, 1000),
        (repeated_suite, 250, 2500),
    ];
    for (suite, small_points, large_points) in inputs {
        let small = suite(100);
        let large = suite(1000);

        // Warm up once so lazily initialised process state is not charged
        // to the first measured expansion.
        black_box(engine.expand_suite(&small, &settings).unwrap());
        black_box(engine.expand_suite(&large, &settings).unwrap());

        let before = allocations();
        let summary = black_box(engine.expand_suite(&small, &settings).unwrap());
        let small_allocations = allocations() - before;
        assert_eq!(summary.points, small_points, "{}", small.name);

        let before = allocations();
        let summary = black_box(engine.expand_suite(&large, &settings).unwrap());
        let large_allocations = allocations() - before;
        assert_eq!(summary.points, large_points, "{}", large.name);

        assert_eq!(
            small_allocations, large_allocations,
            "{}: ten times the sweep points must not change the allocation \
             count: work items are allocation-free copy-on-write views, so \
             expansion allocates per scenario, never per point",
            small.name
        );
    }

    // Sanity: the counter is actually live.
    let before = allocations();
    black_box(Vec::<u8>::with_capacity(32));
    assert!(allocations() > before, "counting allocator must be active");
}
