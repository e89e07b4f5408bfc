//! Simulator-crate integration tests through the public API only:
//! billing policies, weight models, finite capacity, metrics and exports.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use wfs_platform::{BillingPolicy, CategoryId, Datacenter, Platform, VmCategory};
use wfs_simulator::{
    metrics::metrics, realize_weights, simulate, svg, Schedule, SimConfig, WeightModel,
};
use wfs_workflow::gen::{chain, fork_join, montage, GenConfig};
use wfs_workflow::Workflow;

fn single_vm(wf: &Workflow, cat: CategoryId) -> Schedule {
    let mut s = Schedule::new(wf.task_count());
    let vm = s.add_vm(cat);
    for &t in wf.topological_order() {
        s.assign(t, vm);
    }
    s
}

#[test]
fn per_hour_billing_rounds_to_whole_hours() {
    let wf = chain(1, 100.0, 0.0); // 10 s on a 10 Gflop/s VM
    let p = Platform::paper_default().with_billing(BillingPolicy::PerHour);
    let r = simulate(&wf, &p, &single_vm(&wf, CategoryId(0)), &SimConfig::planning()).unwrap();
    // Charged a full hour at $0.05 plus the init cost.
    assert!((r.vm_cost - (0.05 + 0.0001)).abs() < 1e-9, "vm cost {}", r.vm_cost);
}

#[test]
fn heavy_tail_model_runs_through_the_engine() {
    let wf = montage(GenConfig::new(30, 1));
    let p = Platform::paper_default();
    let s = single_vm(&wf, CategoryId(1));
    let g = simulate(&wf, &p, &s, &SimConfig::new(WeightModel::Stochastic { seed: 3 })).unwrap();
    let h = simulate(&wf, &p, &s, &SimConfig::new(WeightModel::HeavyTail { seed: 3 })).unwrap();
    assert_ne!(g.makespan, h.makespan);
    // Realized weights in the report match the model's samples.
    let expected = realize_weights(&wf, WeightModel::HeavyTail { seed: 3 });
    for t in &h.tasks {
        assert!((t.realized_weight - expected[t.task.index()]).abs() < 1e-9);
    }
}

#[test]
fn finite_capacity_interpolates_between_serial_and_parallel() {
    // Capacity sweep: makespan is monotone non-increasing in capacity.
    let wf = fork_join(6, 50.0, 50e6);
    let p = Platform::paper_default();
    let mut s = Schedule::new(wf.task_count());
    let hub = s.add_vm(CategoryId(1));
    s.assign(wfs_workflow::TaskId(0), hub);
    for i in 1..=6 {
        let vm = s.add_vm(CategoryId(1));
        s.assign(wfs_workflow::TaskId(i as u32), vm);
    }
    s.assign(wfs_workflow::TaskId(7), hub);
    let link = p.datacenter.bandwidth;
    let mut prev = f64::INFINITY;
    for caps in [0.5, 1.0, 2.0, 4.0, 100.0] {
        let cfg = SimConfig::planning().with_dc_capacity(caps * link);
        let mk = simulate(&wf, &p, &s, &cfg).unwrap().makespan;
        assert!(mk <= prev + 1e-6, "makespan rose with capacity: {mk} > {prev}");
        prev = mk;
    }
}

#[test]
fn svg_export_covers_all_tasks() {
    let wf = montage(GenConfig::new(30, 1));
    let p = Platform::paper_default();
    let r = simulate(&wf, &p, &single_vm(&wf, CategoryId(0)), &SimConfig::stochastic(1)).unwrap();
    let drawing = svg::to_svg(&r);
    assert_eq!(drawing.matches("<title>").count(), wf.task_count());
}

#[test]
fn metrics_distinguish_serial_from_parallel_schedules() {
    let wf = montage(GenConfig::new(60, 1));
    let p = Platform::paper_default();
    let serial = simulate(&wf, &p, &single_vm(&wf, CategoryId(1)), &SimConfig::planning()).unwrap();
    // One VM per entry task + shared VM for the rest (topological split).
    let m_serial = metrics(&serial);
    assert!(m_serial.peak_parallelism == 1);
    assert!(m_serial.utilization > 0.8);
}

#[test]
fn cheaper_billing_policies_never_cost_more_end_to_end() {
    let wf = montage(GenConfig::new(30, 4));
    let base = Platform::paper_default();
    let s = single_vm(&wf, CategoryId(2));
    let cost = |b: BillingPolicy| {
        let p = Platform::paper_default().with_billing(b);
        simulate(&wf, &p, &s, &SimConfig::stochastic(2)).unwrap().total_cost
    };
    let _ = base;
    assert!(cost(BillingPolicy::Continuous) <= cost(BillingPolicy::PerSecond) + 1e-12);
    assert!(cost(BillingPolicy::PerSecond) <= cost(BillingPolicy::PerHour) + 1e-12);
}

#[test]
fn extreme_bandwidths_behave() {
    let wf = chain(3, 100.0, 10e6);
    // Very slow network: transfers dominate.
    let slow = Platform::new(
        vec![VmCategory::new("u", 10.0, 0.05, 0.0, 0.0)],
        Datacenter::new(1e5, 0.0, 0.0),
    );
    // Very fast network: compute dominates.
    let fast = Platform::new(
        vec![VmCategory::new("u", 10.0, 0.05, 0.0, 0.0)],
        Datacenter::new(1e12, 0.0, 0.0),
    );
    let mk = |p: &Platform| {
        simulate(&wf, p, &single_vm(&wf, CategoryId(0)), &SimConfig::planning())
            .unwrap()
            .makespan
    };
    let mk_slow = mk(&slow);
    let mk_fast = mk(&fast);
    // Compute alone: 3 × 10 s (fixed 100 Gflop at 10 Gflop/s).
    assert!((mk_fast - 30.0).abs() < 0.1, "fast {mk_fast}");
    // Slow adds 10 MB in + 10 MB out at 0.1 MB/s = 200 s.
    assert!((mk_slow - 230.0).abs() < 1.0, "slow {mk_slow}");
}
