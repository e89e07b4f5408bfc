//! Steady-state hot paths must not touch the heap.
//!
//! This binary installs a counting global allocator (hence its own test
//! file: `#[global_allocator]` is per-binary) and checks that once their
//! buffers have warmed up, repeated runs of a compiled `Replay` in one
//! `RunState` perform zero allocations — the "allocation-free replay"
//! guarantee. The planner's candidate sweep is pinned the same way by
//! `best_host.rs`'s unit tests. Allocations are counted per thread, so
//! tests running in parallel do not see each other's.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wfs_platform::Platform;
use wfs_scheduler::{min_cost_schedule, Algorithm};
use wfs_simulator::{simulate, Replay, RunState, SimConfig};
use wfs_workflow::gen::{cybershake, GenConfig};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations made so far on this thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A compiled schedule re-run in a warm `RunState` allocates nothing:
/// neither a recompile of a schedule no larger than the first, nor a run
/// under any weight model, nor one under a finite datacenter capacity.
#[test]
fn warm_replay_reruns_allocate_nothing() {
    let p = Platform::paper_default();
    let wf = cybershake(GenConfig::new(90, 4));
    let wide = Algorithm::Heft.run(&wf, &p, f64::INFINITY);
    let narrow = min_cost_schedule(&wf, &p);
    assert!(narrow.vm_count() < wide.vm_count(), "two schedules of different widths");
    let mut replay = Replay::new(&wf, &p);
    let mut state = RunState::default();
    // Warm-up: the wider schedule grows every buffer to its size.
    replay.compile(&wide).unwrap();
    replay.run(&mut state, &SimConfig::stochastic(0)).unwrap();

    let configs = [
        SimConfig::planning(),
        SimConfig::stochastic(1),
        SimConfig::stochastic(2).with_dc_capacity(4e7),
    ];
    let mut makespans = Vec::with_capacity(2 * configs.len());
    let before = allocations();
    for sched in [&narrow, &wide] {
        replay.compile(sched).unwrap();
        for cfg in &configs {
            makespans.push(replay.run(&mut state, cfg).unwrap().makespan);
        }
    }
    let after = allocations();
    assert_eq!(after - before, 0, "warm recompiles and reruns must not allocate");

    let one_shot = [&narrow, &wide].into_iter().flat_map(|s| {
        configs.iter().map(|cfg| simulate(&wf, &p, s, cfg).unwrap().makespan.to_bits())
    });
    assert!(makespans.iter().map(|m| m.to_bits()).eq(one_shot), "reruns match one-shot runs");
}
