//! The DAX reader allocates a bounded number of times per job.
//!
//! This binary installs a counting global allocator (hence its own test
//! file: `#[global_allocator]` is per-binary) and checks that one
//! `from_dax` call allocates at most once per job plus a constant, at 400
//! and 2000 tasks. The reader borrows tag names and attribute values from
//! the document and interns file names once, and the workflow keeps its
//! adjacency in flat arrays, so what remains is one name per task and the
//! amortised growth of a few flat buffers and maps. A reader or a graph
//! that allocates per tag, per attribute or per task's edge list exceeds
//! the bound.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use budget_sched::prelude::*;
use budget_sched::workflow::dax::{from_dax, to_dax};

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

/// Allocations allowed per job (its task's name), plus a constant for the
/// fixed buffers.
const MAX_ALLOCS_PER_JOB: usize = 1;
const MAX_FIXED_ALLOCS: usize = 200;

#[test]
fn from_dax_allocations_are_linear_in_jobs() {
    for n in [400, 2000] {
        for wf in [
            montage(GenConfig::new(n, 1)),
            cybershake(GenConfig::new(n, 2)),
            ligo(GenConfig::new(n, 3)),
        ] {
            let doc = to_dax(&wf, 10.0);
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let back = from_dax(&doc, 10.0).unwrap();
            let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
            let bound = MAX_ALLOCS_PER_JOB * back.task_count() + MAX_FIXED_ALLOCS;
            assert!(
                allocs <= bound,
                "{}: {allocs} allocations per from_dax, bound {bound}",
                wf.name
            );
        }
    }
}
