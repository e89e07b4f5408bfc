//! BDT — Budget Distribution with Trickling (competitor from [3], extended
//! to this paper's platform model, §V-D1).
//!
//! Three steps:
//! 1. group tasks into *levels* of pairwise-independent tasks;
//! 2. distribute the budget with the *All-in* strategy: the first task of
//!    the current level is tentatively granted the whole remaining budget,
//!    whatever it leaves trickles to the next task;
//! 3. schedule level by level; inside a level tasks go by increasing
//!    Earliest Start Time, each picking the host maximizing the
//!    time/cost trade-off factor `TCTF = Time_factor / Cost_factor`.
//!
//! BDT is eager: it aims at a very low makespan at the risk of overspending
//! (the paper shows it often fails to enforce the budget; Fig. 3).

use crate::plan::{HostEval, PlanState};
use wfs_observe::EventSink;
use wfs_platform::Platform;
use wfs_simulator::Schedule;
use wfs_workflow::analysis::levels;
use wfs_workflow::{OrdF64, Workflow};

/// Guard against division by ~0 in the trade-off factors.
const DENOM_EPS: f64 = 1e-12;

/// Run BDT with the All-in trickling strategy. The planner's sweep
/// counters are reported to `sink`.
pub(crate) fn bdt<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    sink: &mut S,
) -> Schedule {
    let mut plan = PlanState::new(wf, platform);
    let mut remaining = b_ini;

    for mut tasks in levels(wf) {
        // Sort the level by increasing EST, ties by id: estimated from the
        // earliest instant a task's inputs can be at the datacenter under
        // the current partial plan (predecessors of a level-l task all sit
        // in levels < l, hence are scheduled, and stay put while the level
        // is placed).
        tasks.sort_by_cached_key(|&t| {
            let est = wf
                .in_edges(t)
                .iter()
                .map(|&e| plan.finish_time(wf.edge(e).from))
                .fold(0.0f64, f64::max);
            (OrdF64(est), t.0)
        });

        for t in tasks {
            // All-in: this task may tentatively use everything left.
            let sub_budget = remaining.max(0.0);
            // The pruned set and each category's latest-ready VM fix the
            // TCTF extremes; the runs of the highest affordable TCTF per
            // chain then hold the winner (DESIGN.md §7).
            let chosen = plan.sweep(t, 1, |sweep| {
                sweep.add_latest_ready();
                let tctf = Tctf::new(sweep.evals(), sub_budget);
                sweep.add_affordable_ties(sub_budget, |e| tctf.of(e));
                tctf.pick(sweep.evals())
            });
            remaining -= chosen.cost;
            plan.commit(t, chosen.candidate);
        }
    }
    plan.report_sweeps(sink);
    plan.into_schedule()
}

/// The time/cost trade-off factor over one candidate set, with the
/// extremes it normalizes by.
struct Tctf {
    sub_budget: f64,
    ct_min: f64,
    ect_min: f64,
    ect_max: f64,
}

impl Tctf {
    /// The factor over `evals` under `sub_budget`: the cheapest cost and
    /// the EFT extremes are taken over `evals`.
    fn new(evals: &[HostEval], sub_budget: f64) -> Self {
        Self {
            sub_budget,
            ct_min: evals.iter().map(|e| e.cost).fold(f64::INFINITY, f64::min),
            ect_min: evals.iter().map(|e| e.eft).fold(f64::INFINITY, f64::min),
            ect_max: evals.iter().map(|e| e.eft).fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// `TCTF = Time_factor / Cost_factor` of `e`.
    fn of(&self, e: &HostEval) -> f64 {
        let (ect_min, ect_max) = (self.ect_min, self.ect_max);
        // Time factor in [0,1]: 1 for the earliest completion.
        let time = if (ect_max - ect_min).abs() < DENOM_EPS {
            1.0
        } else {
            (ect_max - e.eft) / (ect_max - ect_min)
        };
        // Cost factor in [0,1]: 1 for the cheapest candidate, →0 as the
        // cost approaches the sub-budget. Eager: expensive-but-fast hosts
        // get a large ratio.
        let cost = if (self.sub_budget - self.ct_min).abs() < DENOM_EPS {
            1.0
        } else {
            (self.sub_budget - e.cost) / (self.sub_budget - self.ct_min)
        };
        time / cost.max(DENOM_EPS)
    }

    /// Select the candidate of `evals` maximizing the factor among the
    /// affordable ones; fall back to the cheapest if none fits.
    fn pick(&self, evals: &[HostEval]) -> HostEval {
        let affordable = evals.iter().filter(|e| e.cost <= self.sub_budget).max_by(|a, b| {
            // Ties: prefer the earlier EFT, then used VMs, then lower ids.
            self.of(a)
                .total_cmp(&self.of(b))
                .then(b.eft.total_cmp(&a.eft))
                .then(b.candidate.order().cmp(&a.candidate.order()))
        });
        match affordable {
            Some(e) => *e,
            None => {
                #[allow(clippy::expect_used)] // a platform always offers new-VM candidates
                let cheapest = evals
                    .iter()
                    .min_by(|a, b| a.cost.total_cmp(&b.cost).then(a.eft.total_cmp(&b.eft)))
                    .expect("candidate set is never empty");
                *cheapest
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_observe::NoopSink;
    use wfs_simulator::{simulate, SimConfig};
    use wfs_workflow::gen::{cybershake, montage, GenConfig};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    #[test]
    fn schedules_everything_valid() {
        for n in [30, 60, 90] {
            let wf = montage(GenConfig::new(n, 1));
            let p = paper();
            let s = bdt(&wf, &p, 5.0, &mut NoopSink);
            s.validate(&wf).unwrap();
        }
    }

    #[test]
    fn deterministic() {
        let wf = cybershake(GenConfig::new(60, 2));
        let p = paper();
        assert_eq!(bdt(&wf, &p, 3.0, &mut NoopSink), bdt(&wf, &p, 3.0, &mut NoopSink));
    }

    #[test]
    fn generous_budget_gives_fast_eager_schedule() {
        // With plenty of budget, BDT's eagerness picks fast hosts: its
        // planned makespan is competitive with HEFTBUDG's.
        let wf = montage(GenConfig::new(60, 1));
        let p = paper();
        let budget = 50.0;
        let cfg = SimConfig::planning();
        let b = simulate(&wf, &p, &bdt(&wf, &p, budget, &mut NoopSink), &cfg).unwrap();
        let (hs, _) = crate::heft::heft_budg(&wf, &p, budget);
        let h = simulate(&wf, &p, &hs, &cfg).unwrap();
        assert!(b.makespan <= h.makespan * 1.5, "bdt {} vs heftbudg {}", b.makespan, h.makespan);
    }

    #[test]
    fn small_budget_often_overspends() {
        // The paper's headline observation (Fig. 3): BDT frequently fails
        // to enforce small budgets where HEFTBUDG succeeds.
        let wf = cybershake(GenConfig::new(60, 1));
        let p = paper();
        let cfg = SimConfig::planning();
        // Pick a budget HEFTBUDG can hold.
        let budget = {
            let (hs, _) = crate::heft::heft_budg(&wf, &p, 2.0);
            simulate(&wf, &p, &hs, &cfg).unwrap().total_cost.max(1.0) * 1.05
        };
        let b = simulate(&wf, &p, &bdt(&wf, &p, budget, &mut NoopSink), &cfg).unwrap();
        let (hs, _) = crate::heft::heft_budg(&wf, &p, budget);
        let h = simulate(&wf, &p, &hs, &cfg).unwrap();
        assert!(h.total_cost <= budget * 1.05, "heftbudg holds the budget");
        // BDT spends at least as much; typically more.
        assert!(b.total_cost >= h.total_cost * 0.9, "bdt {} vs heft {}", b.total_cost, h.total_cost);
    }
}
