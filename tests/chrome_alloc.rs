//! The Chrome exporter allocates a constant number of buffers per trace,
//! plus one per recovery epoch.
//!
//! This binary installs a counting global allocator (hence its own test
//! file: `#[global_allocator]` is per-binary) and checks that
//! `ChromeTrace::from_events` followed by `to_json` allocates at most a
//! small constant plus a small per-epoch term, however many spans the
//! faulted run recorded: spans are stored as typed records in buffers sized
//! from the event stream, and their names are written straight into the
//! one pre-sized output string.

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

/// Allocations per export independent of the trace's size ...
const MAX_ALLOCS_PER_TRACE: usize = 8;
/// ... and per recovery epoch (one process's track table).
const MAX_ALLOCS_PER_EPOCH: usize = 1;

#[test]
fn chrome_export_allocations_do_not_grow_with_spans() {
    let p = Platform::paper_default();
    let mut most_spans = 0;
    for (i, wf) in [
        montage(GenConfig::new(60, 1)),
        montage(GenConfig::new(90, 2)),
        ligo(GenConfig::new(60, 3)),
        ligo(GenConfig::new(90, 4)),
    ]
    .iter()
    .enumerate()
    {
        let floor = simulate(wf, &p, &min_cost_schedule(wf, &p), &SimConfig::planning())
            .unwrap()
            .total_cost;
        for policy in RecoveryPolicy::ALL {
            for mtbf in [600.0, 3600.0] {
                let faults = FaultConfig::new(40 + i as u64)
                    .with_crash(CrashModel::exponential(mtbf))
                    .with_boot(BootFaultModel::new(0.1, 3));
                let cfg = RecoveryConfig::new(Algorithm::HeftBudg, policy, 8.0 * floor, faults)
                    .with_max_epochs(24);
                let mut rec = RecordingSink::new();
                let run = run_with_recovery_observed(wf, &p, &cfg, &mut rec).unwrap();

                let before = ALLOCATIONS.load(Ordering::SeqCst);
                let trace = ChromeTrace::from_events(&rec.events);
                let json = trace.to_json();
                let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;

                let epochs = run.epochs.len();
                assert!(
                    allocs <= MAX_ALLOCS_PER_TRACE + MAX_ALLOCS_PER_EPOCH * epochs,
                    "{} {policy} MTBF {mtbf}: {allocs} allocations for {} spans, {} instants \
                     over {epochs} epochs",
                    wf.name,
                    trace.span_count(),
                    trace.instant_count(),
                );
                assert!(json.len() > trace.span_count());
                most_spans = most_spans.max(trace.span_count());
            }
        }
    }
    // The bound is only independent of the span count if traces are large.
    assert!(most_spans > 200, "largest trace has only {most_spans} spans");
}
