//! Steady-state candidate sweeps must not touch the heap.
//!
//! This binary installs a counting global allocator (hence its own test
//! file: `#[global_allocator]` is per-binary) and checks that once the
//! scratch buffers have warmed up, repeated `get_best_host` sweeps perform
//! zero allocations — the core "allocation-free planner" guarantee.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wfs_observe::NoopSink;
use wfs_platform::Platform;
use wfs_scheduler::get_best_host;
use wfs_scheduler::PlanState;
use wfs_workflow::gen::{montage, GenConfig};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

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

#[test]
fn steady_state_sweep_allocates_nothing() {
    let wf = montage(GenConfig::new(90, 3));
    let p = Platform::paper_default();
    let mut plan = PlanState::new(&wf, &p);

    // Schedule the first half of the workflow so several VMs are enrolled
    // and the remaining tasks have scheduled predecessors.
    let order: Vec<_> = wf.topological_order().to_vec();
    let half = order.len() / 2;
    for &t in &order[..half] {
        let best = get_best_host(&plan, t, f64::INFINITY, &mut NoopSink);
        plan.commit(t, best.candidate);
    }

    let probe = order[half];
    // Warm-up: the scratch buffers may still grow on this first sweep.
    let warm = get_best_host(&plan, probe, f64::INFINITY, &mut NoopSink);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut check = warm;
    for _ in 0..256 {
        check = get_best_host(&plan, probe, f64::INFINITY, &mut NoopSink);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(check, warm, "sweeps on an unchanged plan are deterministic");
    assert_eq!(
        after - before,
        0,
        "steady-state candidate sweeps must not allocate"
    );
}
