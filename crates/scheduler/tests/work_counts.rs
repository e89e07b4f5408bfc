//! Exact planner work counts on the 400-task quickbench instances.
//!
//! Sweep and evaluation counts are deterministic, so they gate the planner's
//! asymptotics without a wall clock: a regression from the dominance-pruned
//! host selection back to a full O(V) sweep moves `plan_candidate_evals`
//! and `plan_candidates_pruned` here, on every machine. A change that moves
//! the work on purpose re-pins the table below and says why.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfs_observe::{Counters, RecordingSink};
use wfs_platform::Platform;
use wfs_scheduler::{min_cost_floor, Algorithm};
use wfs_simulator::{simulate, SimConfig};
use wfs_workflow::gen::{cybershake, ligo, montage, GenConfig};
use wfs_workflow::Workflow;

/// quickbench's medium budget: halfway between the min-cost floor and
/// twice HEFT's planned cost.
fn medium_budget(wf: &Workflow, p: &Platform) -> f64 {
    let heft = Algorithm::Heft.run(wf, p, f64::INFINITY);
    let high = simulate(wf, p, &heft, &SimConfig::planning()).unwrap().total_cost * 2.0;
    (min_cost_floor(wf, p) + high) / 2.0
}

/// `(workflow, algorithm, plan_sweeps, plan_candidate_evals,
/// plan_candidates_pruned)` at 400 tasks, seed 1, medium budget.
const PINNED: [(&str, &str, u64, u64, u64); 9] = [
    ("montage", "HEFTBUDG", 400, 2642, 42312),
    ("montage", "MIN-MINBUDG", 15203, 79919, 1004374),
    ("montage", "CG", 400, 2648, 42306),
    ("ligo", "HEFTBUDG", 400, 2341, 52781),
    ("ligo", "MIN-MINBUDG", 23672, 115500, 2299499),
    ("ligo", "CG", 400, 2341, 52781),
    ("cybershake", "HEFTBUDG", 400, 2391, 58509),
    ("cybershake", "MIN-MINBUDG", 39803, 194777, 3885329),
    ("cybershake", "CG", 400, 2391, 58509),
];

#[test]
fn planner_work_counts_are_pinned() {
    let p = Platform::paper_default();
    let mut got = Vec::new();
    for (name, wf) in [
        ("montage", montage(GenConfig::new(400, 1))),
        ("ligo", ligo(GenConfig::new(400, 1))),
        ("cybershake", cybershake(GenConfig::new(400, 1))),
    ] {
        let budget = medium_budget(&wf, &p);
        for alg in [Algorithm::HeftBudg, Algorithm::MinMinBudg, Algorithm::Cg] {
            let mut rec = RecordingSink::new();
            alg.run_observed(&wf, &p, budget, &mut rec);
            let c = Counters::from_events(&rec.events);
            got.push((
                name,
                alg.name(),
                c.get("plan_sweeps"),
                c.get("plan_candidate_evals"),
                c.get("plan_candidates_pruned"),
            ));
        }
    }
    assert_eq!(got, PINNED, "planner work moved; re-pin only with a stated reason");
}
