//! Proof that hot-path cache-key construction performs zero heap
//! allocation, via a counting global allocator.
//!
//! This is the acceptance test for the streaming-key redesign: deriving a
//! sweep point's [`CacheKey`] from the scenario's hoisted
//! [`ScenarioKeySeed`] — the exact operation the executor performs per
//! point, and the *only* key work a cache hit ever does — must not allocate
//! at all. The old scheme serialised the configuration and the options
//! into two `String`s per point.
//!
//! The file deliberately contains a single `#[test]`: the counter is
//! process-global, and a lone test keeps the harness from running anything
//! concurrently with the measured regions. For the same reason the
//! companion assertion that *suite expansion* allocates O(scenarios), not
//! O(points), lives in its own file, `expansion_alloc.rs`.

use bbs_engine::ScenarioKeySeed;
use bbs_taskgraph::presets::{producer_consumer, PaperParameters};
use bbs_taskgraph::{canonical_digest_of, Configuration};
use budget_buffer::{with_capacity_cap, SolveOptions};
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

#[test]
fn hot_path_key_construction_performs_zero_heap_allocation() {
    // Setup may allocate freely: resolve the workload, pre-cap the sweep
    // points, hoist the scenario seed.
    let base = producer_consumer(PaperParameters::default(), None);
    let options = SolveOptions::default().prefer_budget_minimisation();
    let capped: Vec<Configuration> = (1..=10u64)
        .map(|cap| with_capacity_cap(&base, cap))
        .collect();
    let seed = ScenarioKeySeed::new(&options, "joint");

    // Per-point key derivation — the executor's per-sweep-point hot path.
    let before = allocations();
    for configuration in &capped {
        black_box(seed.key_for(black_box(configuration)));
    }
    let key_allocations = allocations() - before;

    // The raw streaming digest underneath it.
    let before = allocations();
    for configuration in &capped {
        black_box(canonical_digest_of(black_box(configuration)));
    }
    let digest_allocations = allocations() - before;

    // Floats exercise the formatting machinery; make sure a float-heavy
    // value is covered explicitly too.
    let floats = vec![0.1f64, 1.0 / 3.0, 2.225e-308, 40.0, 1e17];
    let before = allocations();
    black_box(canonical_digest_of(black_box(&floats)));
    let float_allocations = allocations() - before;

    assert_eq!(
        key_allocations, 0,
        "seed.key_for must not allocate (10 sweep points measured)"
    );
    assert_eq!(
        digest_allocations, 0,
        "streaming canonical digests must not allocate"
    );
    assert_eq!(
        float_allocations, 0,
        "float formatting in the streaming path must not allocate"
    );
    // Sanity: the counter is actually live.
    let before = allocations();
    black_box(Vec::<u8>::with_capacity(32));
    assert!(allocations() > before, "counting allocator must be active");
}
