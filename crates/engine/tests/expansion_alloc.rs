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
//! the job's result slots) no matter how many points the sweep has. The
//! old scheme cloned the full configuration once per point.
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

fn sweep_suite(points: u64) -> Suite {
    Suite::new(
        "alloc",
        vec![Scenario::new(
            "pc",
            WorkloadSpec::preset(PresetSpec::named("producer-consumer")),
        )
        .with_sweep(SweepSpec::range(1, points))],
    )
}

#[test]
fn expansion_allocations_do_not_scale_with_point_count() {
    // Serial settings: one useful thread mints every item on the calling
    // thread, so no pooled thread is charged to the measurement. The engine
    // is built outside the measured regions.
    let engine = Engine::new(1);
    let settings = RunSettings::default();
    let small = sweep_suite(100);
    let large = sweep_suite(1000);

    // Warm up once so lazily initialised process state is not charged to
    // the first measured expansion.
    black_box(engine.expand_suite(&small, &settings).unwrap());
    black_box(engine.expand_suite(&large, &settings).unwrap());

    let before = allocations();
    let summary = black_box(engine.expand_suite(&small, &settings).unwrap());
    let small_allocations = allocations() - before;
    assert_eq!(summary.points, 100);

    let before = allocations();
    let summary = black_box(engine.expand_suite(&large, &settings).unwrap());
    let large_allocations = allocations() - before;
    assert_eq!(summary.points, 1000);

    assert_eq!(
        small_allocations, large_allocations,
        "ten times the sweep points must not change the allocation count: \
         work items are allocation-free copy-on-write views, so expansion \
         allocates per scenario, never per point"
    );

    // Sanity: the counter is actually live.
    let before = allocations();
    black_box(Vec::<u8>::with_capacity(32));
    assert!(allocations() > before, "counting allocator must be active");
}
