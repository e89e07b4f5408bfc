//! Exact planner work counts on the 400-task quickbench instances, and
//! refinement work counts at 60 tasks.
//!
//! Sweep, evaluation and trial counts are deterministic, so they gate the
//! planner's asymptotics without a wall clock: a regression from the
//! dominance-pruned host selection or the threshold queries back to a full
//! O(V) sweep moves `plan_candidate_evals` and `plan_candidates_pruned`
//! here, and one from
//! the screened trial loop back to simulating every move moves
//! `refine_screened`, on every machine. A change that moves the work on
//! purpose re-pins the tables below and says why.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfs_observe::Counters;
use wfs_platform::Platform;
use wfs_scheduler::{min_cost_floor, reference, Algorithm};
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
const PINNED: [(&str, &str, u64, u64, u64); 15] = [
    ("montage", "HEFTBUDG", 400, 2642, 42312),
    ("montage", "MIN-MINBUDG", 906, 5788, 92673),
    ("montage", "CG", 400, 2648, 42306),
    ("montage", "BDT", 400, 3299, 41655),
    ("montage", "SUFFERAGEBUDG", 31811, 249246, 3064882),
    ("ligo", "HEFTBUDG", 400, 2341, 52781),
    ("ligo", "MIN-MINBUDG", 8138, 48366, 1344832),
    ("ligo", "CG", 400, 2341, 52781),
    ("ligo", "BDT", 400, 2965, 52157),
    ("ligo", "SUFFERAGEBUDG", 31760, 245804, 3585541),
    ("cybershake", "HEFTBUDG", 400, 2391, 58509),
    ("cybershake", "MIN-MINBUDG", 401, 2197, 19503),
    ("cybershake", "CG", 400, 2391, 58509),
    ("cybershake", "BDT", 400, 2985, 57915),
    ("cybershake", "SUFFERAGEBUDG", 59306, 409611, 7590400),
];

/// `(plan_sweeps, plan_candidate_evals, plan_candidates_pruned)` of one
/// observed run.
fn sweep_counts(alg: Algorithm, wf: &Workflow, p: &Platform, budget: f64) -> (u64, u64, u64) {
    let mut c = Counters::new();
    alg.run_observed(wf, p, budget, &mut c);
    (c.get("plan_sweeps"), c.get("plan_candidate_evals"), c.get("plan_candidates_pruned"))
}

/// Also checks, for the threshold-query planners (BDT, SUFFERAGEBUDG),
/// that every candidate the naive reference evaluates is evaluated or
/// pruned: binary-search probes that are not handed over count as
/// neither.
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
        for alg in [
            Algorithm::HeftBudg,
            Algorithm::MinMinBudg,
            Algorithm::Cg,
            Algorithm::Bdt,
            Algorithm::SufferageBudg,
        ] {
            let (sweeps, evals, pruned) = sweep_counts(alg, &wf, &p, budget);
            got.push((name, alg.name(), sweeps, evals, pruned));
            if matches!(alg, Algorithm::Bdt | Algorithm::SufferageBudg) {
                let naive = reference::with_naive(|| sweep_counts(alg, &wf, &p, budget));
                assert_eq!(
                    (sweeps, evals + pruned),
                    (naive.0, naive.1),
                    "{name} {}: evaluated + pruned must cover every naive evaluation",
                    alg.name()
                );
                assert_eq!(naive.2, 0, "{name} {}: a naive sweep pruned candidates", alg.name());
            }
        }
    }
    assert_eq!(got, PINNED, "planner work moved; re-pin only with a stated reason");
}

/// `(workflow, algorithm, refine_trials, refine_accepted, refine_screened)`
/// at 60 tasks, seed 1, medium budget. Trials and accepts are the paper's
/// Alg. 5 work; screened trials are the ones rejected from their lower
/// bound without a simulation, so a weaker bound or a lost screen moves
/// the last column while the first two stay put.
const REFINE_PINNED: [(&str, &str, u64, u64, u64); 6] = [
    ("montage", "HEFTBUDG+", 1200, 1, 1183),
    ("montage", "HEFTBUDG+INV", 1200, 3, 1193),
    ("ligo", "HEFTBUDG+", 1680, 0, 1258),
    ("ligo", "HEFTBUDG+INV", 1680, 0, 1258),
    ("cybershake", "HEFTBUDG+", 1860, 0, 1833),
    ("cybershake", "HEFTBUDG+INV", 1860, 0, 1833),
];

#[test]
fn refinement_work_counts_are_pinned() {
    let p = Platform::paper_default();
    let mut got = Vec::new();
    for (name, wf) in [
        ("montage", montage(GenConfig::new(60, 1))),
        ("ligo", ligo(GenConfig::new(60, 1))),
        ("cybershake", cybershake(GenConfig::new(60, 1))),
    ] {
        let budget = medium_budget(&wf, &p);
        for alg in [Algorithm::HeftBudgPlus, Algorithm::HeftBudgPlusInv] {
            let mut c = Counters::new();
            alg.run_observed(&wf, &p, budget, &mut c);
            got.push((
                name,
                alg.name(),
                c.get("refine_trials"),
                c.get("refine_accepted"),
                c.get("refine_screened"),
            ));
        }
    }
    assert_eq!(got, REFINE_PINNED, "refinement work moved; re-pin only with a stated reason");
}
