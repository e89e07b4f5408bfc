//! The simulation engine allocates a constant number of buffers per run.
//!
//! This binary installs a counting global allocator (hence its own test
//! file: `#[global_allocator]` is per-binary) and checks that one
//! `simulate` call allocates exactly the same number of times whatever the
//! task or VM count, and pins that number: a one-shot `simulate` compiles a
//! fresh `Replay` and runs it into a fresh `RunState`, each sizing its flat
//! buffers once, and the event loop itself never touches the heap, so one
//! more allocation per run, or one per event, fails here.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use budget_sched::prelude::*;

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

/// Allocations per `simulate`, at every size: 4 in `Schedule::validate`
/// (seen flags, in-degrees, order successors, the topological queue), the
/// 5 buffers `Replay::compile` fills (VM plans, the flat VM orders,
/// downloads, the edge-to-slot map, the initial download-ready bits), and
/// the 12 of a fresh `RunState` (realized weights, event heap, in-flight
/// and finished transfers, VM states, ready bits, missing inputs, uploads,
/// edge-at-DC and external-output flags, task records, the report's VM
/// list).
const ALLOCS_PER_SIM: usize = 21;

#[test]
fn simulate_allocations_do_not_grow_with_size() {
    let p = Platform::paper_default();
    for n in [30, 90, 400] {
        for wf in [
            montage(GenConfig::new(n, 1)),
            cybershake(GenConfig::new(n, 2)),
            ligo(GenConfig::new(n, 3)),
        ] {
            let min_cost = simulate(&wf, &p, &min_cost_schedule(&wf, &p), &SimConfig::planning())
                .unwrap()
                .total_cost;
            let (sched, _) = heft_budg(&wf, &p, 3.0 * min_cost);
            for cfg in [SimConfig::planning(), SimConfig::stochastic(7)] {
                let before = ALLOCATIONS.load(Ordering::SeqCst);
                let report = simulate(&wf, &p, &sched, &cfg).unwrap();
                let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
                assert_eq!(
                    allocs,
                    ALLOCS_PER_SIM,
                    "{} on {} VMs: allocations per simulate",
                    wf.name,
                    report.vms.len(),
                );
            }
        }
    }
}
