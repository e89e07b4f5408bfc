//! HEFT and its budget-aware extension HEFTBUDG (paper Algorithm 4).
//!
//! HEFT ranks tasks by their *bottom level* (upward rank) and greedily maps
//! them, in rank order, to the host minimizing their EFT. HEFTBUDG keeps
//! the ordering but restricts each task's host choice to those respecting
//! its budget share plus the pot (Algorithm 2).

use crate::best_host::get_best_host;
use crate::budget::{Placement, Pot};
use crate::plan::PlanState;
use wfs_observe::{EventSink, NoopSink};
use wfs_platform::Platform;
use wfs_simulator::Schedule;
use wfs_workflow::analysis::heft_order;
use wfs_workflow::{TaskId, Workflow};

/// The HEFT priority list for `wf` on `platform`: tasks by non-increasing
/// bottom level, computed with conservative weights at the mean speed
/// (`ListT` in the paper).
pub(crate) fn priority_list(wf: &Workflow, platform: &Platform) -> Vec<TaskId> {
    heft_order(wf, platform.mean_speed(), platform.datacenter.bandwidth)
}

/// Run HEFTBUDG with initial budget `b_ini` (Algorithm 4). Returns the
/// schedule and the priority list (the refinement algorithms reuse it).
pub fn heft_budg(wf: &Workflow, platform: &Platform, b_ini: f64) -> (Schedule, Vec<TaskId>) {
    heft_budg_observed(wf, platform, b_ini, &mut NoopSink)
}

/// [`heft_budg`] with an event sink: the budget division, every task's
/// rank, share, candidate evaluations and final placement (with pot
/// before/after) are reported to `sink`.
pub fn heft_budg_observed<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    sink: &mut S,
) -> (Schedule, Vec<TaskId>) {
    let (s, list, _) = heft_inner(wf, platform, Some(b_ini), Pot::new(), sink);
    (s, list)
}

/// HEFTBUDG that starts from `pot` and also returns the final [`Pot`], so
/// a caller can carry the unspent leftovers into a later planning round
/// (the recovery layer re-plans the residual DAG per epoch, threads the
/// pot through and reports each epoch's plan to `sink`).
pub fn heft_budg_carry<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    pot: Pot,
    sink: &mut S,
) -> (Schedule, Pot) {
    let (s, _, pot) = heft_inner(wf, platform, Some(b_ini), pot, sink);
    (s, pot)
}

/// HEFT(BUDG): place the tasks in priority-list order, each on its best
/// host under its limit. Returns the schedule, the list and the final pot.
pub(crate) fn heft_inner<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    b_ini: Option<f64>,
    pot: Pot,
    sink: &mut S,
) -> (Schedule, Vec<TaskId>, Pot) {
    let mut placement = Placement::new(wf, platform, b_ini, pot, sink);
    let list = priority_list(wf, platform);
    let mut plan = PlanState::new(wf, platform);
    for &t in &list {
        placement.place(&mut plan, t, sink, |plan, limit, sink| {
            get_best_host(plan, t, limit, sink)
        });
    }
    let pot = placement.finish(&plan, sink);
    (plan.into_schedule(), list, pot)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use crate::Algorithm;
    use wfs_simulator::{simulate, SimConfig};

    fn heft(wf: &Workflow, p: &Platform) -> Schedule {
        Algorithm::Heft.run(wf, p, f64::INFINITY)
    }
    use wfs_workflow::gen::{cybershake, ligo, montage, GenConfig};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    #[test]
    fn baseline_schedules_everything() {
        for n in [30, 60, 90] {
            let wf = montage(GenConfig::new(n, 1));
            let p = paper();
            let s = heft(&wf, &p);
            s.validate(&wf).unwrap();
        }
    }

    #[test]
    fn priority_list_is_topologically_valid() {
        let wf = cybershake(GenConfig::new(60, 1));
        let p = paper();
        let list = priority_list(&wf, &p);
        let mut pos = vec![0usize; wf.task_count()];
        for (i, t) in list.iter().enumerate() {
            pos[t.index()] = i;
        }
        for e in wf.edges() {
            assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn infinite_budget_matches_baseline() {
        // Paper §V-B: with infinite budget HEFT == HEFTBUDG.
        let wf = ligo(GenConfig::new(60, 2));
        let p = paper();
        let base = heft(&wf, &p);
        let (budg, _) = heft_budg(&wf, &p, 1e9);
        assert_eq!(base, budg);
    }

    #[test]
    fn budget_caps_planned_cost() {
        let wf = montage(GenConfig::new(60, 1));
        let p = paper();
        for budget in [0.5, 1.0, 2.0, 5.0] {
            let (s, _) = heft_budg(&wf, &p, budget);
            s.validate(&wf).unwrap();
            let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
            // Conservative planning keeps the planned cost within budget
            // whenever the budget is feasible at all (min-cost schedule of
            // this workflow is well below $0.5).
            assert!(
                r.total_cost <= budget * 1.05,
                "budget {budget}: planned cost {}",
                r.total_cost
            );
        }
    }

    #[test]
    fn larger_budget_never_hurts_makespan_much() {
        let wf = cybershake(GenConfig::new(60, 1));
        let p = paper();
        let cfg = SimConfig::planning();
        let mk = |b: f64| {
            let (s, _) = heft_budg(&wf, &p, b);
            simulate(&wf, &p, &s, &cfg).unwrap().makespan
        };
        let tight = mk(1.0);
        let rich = mk(50.0);
        assert!(rich <= tight * 1.1, "rich {rich} vs tight {tight}");
    }

    #[test]
    fn stochastic_runs_usually_respect_budget() {
        // Paper Fig. 1: "the budget constraint is respected in almost all
        // cases" despite stochastic weights (σ = 50 %).
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let budget = 1.5;
        let (s, _) = heft_budg(&wf, &p, budget);
        let ok = (0..25)
            .filter(|&seed| {
                simulate(&wf, &p, &s, &SimConfig::stochastic(seed))
                    .unwrap()
                    .within_budget(budget)
            })
            .count();
        assert!(ok >= 23, "only {ok}/25 runs within budget");
    }

    #[test]
    fn deterministic() {
        let wf = ligo(GenConfig::new(90, 4));
        let p = paper();
        assert_eq!(heft_budg(&wf, &p, 3.0), heft_budg(&wf, &p, 3.0));
    }

    #[test]
    fn priority_list_stable_across_calls_and_budget_independent() {
        let wf = montage(GenConfig::new(60, 1));
        let p = paper();
        let a = priority_list(&wf, &p);
        let b = priority_list(&wf, &p);
        assert_eq!(a, b);
        // HEFTBUDG uses the same list regardless of the budget.
        let (_, l1) = heft_budg(&wf, &p, 0.1);
        let (_, l2) = heft_budg(&wf, &p, 100.0);
        assert_eq!(l1, l2);
        assert_eq!(l1, a);
    }
}
