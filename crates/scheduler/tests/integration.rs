//! Scheduler-crate integration tests: cross-algorithm behaviours on the
//! public API only.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfs_platform::{BillingPolicy, Datacenter, Platform, VmCategory};
use wfs_scheduler::{divide_budget, heft_budg, min_cost_floor, Algorithm};
use wfs_simulator::{simulate, SimConfig};
use wfs_workflow::gen::{cybershake, ligo, montage, GenConfig};

fn paper() -> Platform {
    Platform::paper_default()
}

#[test]
fn budget_shares_scale_linearly_above_reserves() {
    let wf = ligo(GenConfig::new(60, 1));
    let p = paper();
    let s1 = divide_budget(&wf, &p, 2.0);
    let s2 = divide_budget(&wf, &p, 4.0);
    // Reserves are budget-independent; B_calc grows by exactly the budget
    // difference.
    assert!((s2.reserved_datacenter - s1.reserved_datacenter).abs() < 1e-12);
    assert!((s2.reserved_init - s1.reserved_init).abs() < 1e-12);
    assert!((s2.b_calc - s1.b_calc - 2.0).abs() < 1e-9);
}

#[test]
fn single_category_platform_still_works() {
    // Degenerate platform: budget only controls VM count, not type.
    let p = Platform::new(
        vec![VmCategory::new("only", 15.0, 0.08, 0.0001, 50.0)],
        Datacenter::new(100e6, 0.02, 0.05e-9),
    );
    let wf = montage(GenConfig::new(30, 1));
    for alg in [Algorithm::MinMinBudg, Algorithm::HeftBudg, Algorithm::Bdt, Algorithm::Cg] {
        let s = alg.run(&wf, &p, 0.5);
        s.validate(&wf).unwrap();
        assert!(s.vm_ids().all(|v| s.vm_category(v).0 == 0));
    }
}

#[test]
fn speed_inverted_pricing_handled() {
    // The paper does not assume speed follows cost; a platform where the
    // pricey category is SLOW must not confuse the algorithms.
    let p = Platform::new(
        vec![
            VmCategory::new("fast-cheap", 40.0, 0.05, 0.0001, 50.0),
            VmCategory::new("slow-pricey", 10.0, 0.30, 0.0001, 50.0),
        ],
        Datacenter::new(125e6, 0.022, 0.055e-9),
    )
    .with_billing(BillingPolicy::PerSecond);
    let wf = montage(GenConfig::new(30, 1));
    let b = min_cost_floor(&wf, &p) * 3.0;
    for alg in [Algorithm::MinMinBudg, Algorithm::HeftBudg] {
        let s = alg.run(&wf, &p, b);
        s.validate(&wf).unwrap();
        // Nothing should ever pick the dominated slow-pricey category:
        // it is worse on both axes.
        assert!(
            s.vm_ids().all(|v| p.category(s.vm_category(v)).name == "fast-cheap"),
            "{alg} picked a dominated category"
        );
    }
}

#[test]
fn planned_cost_tracks_simulated_cost_for_heftbudg() {
    // The planner's conservative model and the event simulator agree
    // within a reasonable factor (the planner ignores upload queuing; the
    // engine ignores nothing).
    let p = paper();
    for ty_seed in 1..=3u64 {
        let wf = montage(GenConfig::new(60, ty_seed));
        let b = min_cost_floor(&wf, &p) * 2.0;
        let (s, _) = heft_budg(&wf, &p, b);
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        assert!(r.total_cost <= b * 1.05, "seed {ty_seed}: {} > {b}", r.total_cost);
        assert!(r.total_cost >= b * 0.05, "suspiciously cheap: {}", r.total_cost);
    }
}

#[test]
fn single_task_workflow_all_algorithms() {
    use wfs_workflow::gen::chain;
    let wf = chain(1, 500.0, 1e6);
    let p = paper();
    for alg in Algorithm::ALL {
        let s = alg.run(&wf, &p, 0.1);
        s.validate(&wf).unwrap_or_else(|e| panic!("{alg}: {e}"));
        assert_eq!(s.used_vm_count(), 1, "{alg}");
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        assert!(r.makespan > 0.0, "{alg}");
    }
}

#[test]
fn two_level_fork_join_all_algorithms() {
    use wfs_workflow::gen::fork_join;
    let wf = fork_join(12, 3000.0, 5e6);
    let p = paper();
    let b = min_cost_floor(&wf, &p) * 3.0;
    for alg in Algorithm::ALL {
        let s = alg.run(&wf, &p, b);
        s.validate(&wf).unwrap_or_else(|e| panic!("{alg}: {e}"));
    }
}

#[test]
fn zero_budget_degenerates_to_min_cost_like_schedules() {
    // With no budget at all, the budget-aware algorithms should collapse
    // to (nearly) serial cheap executions, never crash.
    let wf = montage(GenConfig::new(30, 1));
    let p = paper();
    for alg in [
        Algorithm::MinMinBudg,
        Algorithm::HeftBudg,
        Algorithm::MaxMinBudg,
        Algorithm::SufferageBudg,
        Algorithm::Cg,
    ] {
        let s = alg.run(&wf, &p, 0.0);
        s.validate(&wf).unwrap();
        assert!(
            s.vm_ids().all(|v| s.vm_category(v) == p.cheapest()),
            "{alg} used a non-cheapest category at zero budget"
        );
    }
}

#[test]
fn huge_budget_converges_across_eft_algorithms() {
    // With unconstrained budget, MIN-MINBUDG/HEFTBUDG/MAX-MINBUDG all
    // become pure EFT minimizers: their makespans land within a small
    // band of each other.
    let wf = cybershake(GenConfig::new(60, 1));
    let p = paper();
    let mks: Vec<f64> = [Algorithm::MinMinBudg, Algorithm::HeftBudg, Algorithm::MaxMinBudg]
        .iter()
        .map(|alg| {
            simulate(&wf, &p, &alg.run(&wf, &p, 1e6), &SimConfig::planning())
                .unwrap()
                .makespan
        })
        .collect();
    let max = mks.iter().cloned().fold(f64::MIN, f64::max);
    let min = mks.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max / min < 1.5, "makespans diverge too much: {mks:?}");
}
