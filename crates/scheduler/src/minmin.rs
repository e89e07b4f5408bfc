//! The ready-set list schedulers: MIN-MIN and its budget-aware extension
//! MIN-MINBUDG (paper Algorithm 3), plus MAX-MIN and SUFFERAGE, the other
//! two classic heuristics of the family ([6], [14]), with budget-aware
//! variants built from the same Algorithm 1/2 machinery (extensions beyond
//! the paper; its §IV notes the approach applies to any list scheduler).
//!
//! Each round looks at all *ready* tasks (predecessors scheduled), computes
//! each task's best host under its limit (budget share plus pot, ∞ for the
//! baselines), and commits one (task, host) pair. Only the [`Rule`] that
//! picks the task differs:
//!
//! - MIN-MIN commits the pair with the overall smallest EFT;
//! - MAX-MIN commits the task whose *best* EFT is **largest** (big tasks
//!   first, small ones fill the gaps);
//! - SUFFERAGE commits the task that would *suffer* most if denied its best
//!   host: maximal difference between its second-best and best EFT.

use crate::best_host::{select_best, BestHostCache, COST_EPS};
use crate::budget::{Placement, Pot};
use crate::plan::{HostEval, PlanState};
use std::cmp::Ordering;
use wfs_observe::{Event as Obs, EventSink};
use wfs_platform::Platform;
use wfs_simulator::{Schedule, VmId};
use wfs_workflow::{OrdF64, TaskId, Workflow};

/// Task-selection rule within the ready set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// Smallest (EFT, cost, id).
    MinMin,
    /// Largest EFT; ties: smaller EFT, then id (no cost key).
    MaxMin,
    /// Largest sufferage; ties: smaller EFT, then id.
    Sufferage,
}

/// A ready task's best host and its score under the rule.
#[derive(Debug, Clone, Copy)]
struct Pick {
    task: TaskId,
    eval: HostEval,
    score: f64,
}

impl Rule {
    /// Evaluate ready task `t` under `limit`. MIN-MIN and MAX-MIN score
    /// the best EFT and reuse the incremental best-host cache. SUFFERAGE
    /// cannot: its score depends on the whole affordable candidate *set*,
    /// so it runs one uncached zero-allocation sweep instead.
    fn pick(
        self,
        plan: &PlanState<'_>,
        cache: &mut BestHostCache,
        t: TaskId,
        limit: f64,
        last_commit: Option<VmId>,
    ) -> Pick {
        if self == Rule::Sufferage {
            return plan.with_candidate_evals(t, |evals| {
                // Sufferage = second-best EFT − best EFT among the
                // affordable candidates (∞ limit for the baseline); 0 when
                // none is affordable, ∞ when exactly one is.
                let (mut e1, mut e2) = (f64::INFINITY, f64::INFINITY);
                let mut affordable = 0usize;
                for e in evals {
                    if e.cost <= limit + COST_EPS {
                        affordable += 1;
                        if e.eft < e1 {
                            (e1, e2) = (e.eft, e1);
                        } else if e.eft < e2 {
                            e2 = e.eft;
                        }
                    }
                }
                let score = match affordable {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    _ => e2 - e1,
                };
                Pick { task: t, eval: select_best(evals, limit), score }
            });
        }
        let eval = cache.best(plan, t, limit, last_commit);
        Pick { task: t, eval, score: eval.eft }
    }

    /// Does `a` beat the incumbent `b`? MAX-MIN and SUFFERAGE maximize the
    /// score with `total_cmp`, which keeps the rule total should a
    /// sufferage (a difference of EFTs) degenerate to NaN.
    fn beats(self, a: &Pick, b: &Pick) -> bool {
        match self {
            Rule::MinMin => {
                (OrdF64(a.eval.eft), OrdF64(a.eval.cost), a.task.0)
                    < (OrdF64(b.eval.eft), OrdF64(b.eval.cost), b.task.0)
            }
            Rule::MaxMin | Rule::Sufferage => match a.score.total_cmp(&b.score) {
                Ordering::Greater => true,
                Ordering::Equal => (OrdF64(a.eval.eft), a.task.0) < (OrdF64(b.eval.eft), b.task.0),
                Ordering::Less => false,
            },
        }
    }
}

/// The ready-set loop shared by the three rules, with or without a
/// budget (`b_ini`); decisions are reported to `sink`.
pub(crate) fn ready_set<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    b_ini: Option<f64>,
    rule: Rule,
    sink: &mut S,
) -> Schedule {
    let mut placement = Placement::new(wf, platform, b_ini, Pot::new(), sink);
    let mut plan = PlanState::new(wf, platform);

    // Ready set maintained with remaining-predecessor counts.
    let mut missing: Vec<usize> = wf.task_ids().map(|t| wf.in_edges(t).len()).collect();
    let mut ready: Vec<TaskId> = wf.task_ids().filter(|&t| missing[t.index()] == 0).collect();

    // Incremental selection: each round commits one task to one VM, which
    // leaves every other ready task's best host unchanged unless the cache
    // can prove otherwise (see `BestHostCache`).
    let mut cache = BestHostCache::new(wf.task_count());
    let mut last_commit: Option<VmId> = None;

    while !ready.is_empty() {
        let mut best: Option<(usize, Pick)> = None;
        for (i, &t) in ready.iter().enumerate() {
            let pick = rule.pick(&plan, &mut cache, t, placement.limit(t), last_commit);
            if best.as_ref().is_none_or(|(_, b)| rule.beats(&pick, b)) {
                best = Some((i, pick));
            }
        }
        #[allow(clippy::expect_used)] // loop guard: `ready` is non-empty
        let (idx, pick) = best.expect("ready set is non-empty");
        let t = ready.swap_remove(idx);
        last_commit = Some(placement.place(&mut plan, t, sink, |_, _, _| pick.eval));
        cache.forget(t);
        for succ in wf.successors(t) {
            missing[succ.index()] -= 1;
            if missing[succ.index()] == 0 {
                ready.push(succ);
            }
        }
    }
    if S::ENABLED {
        let (hits, misses) = cache.hit_miss();
        sink.record(&Obs::Counter { name: "best_host_cache_hits", delta: hits });
        sink.record(&Obs::Counter { name: "best_host_cache_misses", delta: misses });
    }
    placement.finish(&plan, sink);
    plan.into_schedule()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use crate::Algorithm;
    use wfs_simulator::{simulate, SimConfig};
    use wfs_workflow::gen::{bag_of_tasks, cybershake, montage, GenConfig};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    #[test]
    fn baseline_schedules_everything() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let s = Algorithm::MinMin.run(&wf, &p, f64::INFINITY);
        s.validate(&wf).unwrap();
        assert!(s.used_vm_count() >= 1);
    }

    #[test]
    fn baseline_parallelizes_a_bag() {
        let wf = bag_of_tasks(8, 2000.0, 0.0);
        let p = paper();
        let s = Algorithm::MinMin.run(&wf, &p, f64::INFINITY);
        // EFT-greedy with free budget: every independent task gets its own
        // (fast) VM since sharing delays the EFT.
        assert!(s.used_vm_count() >= 7, "used {}", s.used_vm_count());
    }

    #[test]
    fn budget_constrains_vm_enrollment() {
        let wf = montage(GenConfig::new(60, 1));
        let p = paper();
        let rich = Algorithm::MinMinBudg.run(&wf, &p, 1000.0);
        let poor = Algorithm::MinMinBudg.run(&wf, &p, 0.2);
        rich.validate(&wf).unwrap();
        poor.validate(&wf).unwrap();
        assert!(poor.used_vm_count() <= rich.used_vm_count());
    }

    #[test]
    fn infinite_budget_matches_baseline_makespan() {
        // Paper §V-B: "when given an infinite initial budget, MIN-MIN
        // gives the same schedule as MIN-MINBUDG".
        let wf = montage(GenConfig::new(30, 2));
        let p = paper();
        let base = Algorithm::MinMin.run(&wf, &p, f64::INFINITY);
        let budg = Algorithm::MinMinBudg.run(&wf, &p, 1e9);
        let cfg = SimConfig::planning();
        let rb = simulate(&wf, &p, &base, &cfg).unwrap();
        let rr = simulate(&wf, &p, &budg, &cfg).unwrap();
        assert!((rb.makespan - rr.makespan).abs() < 1e-6);
    }

    #[test]
    fn respects_budget_on_average() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let budget = 1.0;
        let s = Algorithm::MinMinBudg.run(&wf, &p, budget);
        // Conservative planning: the planned execution fits the budget.
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        assert!(
            r.total_cost <= budget * 1.05,
            "planned cost {} for budget {budget}",
            r.total_cost
        );
    }

    #[test]
    fn deterministic() {
        let wf = montage(GenConfig::new(60, 3));
        let p = paper();
        let run = || Algorithm::MinMinBudg.run(&wf, &p, 5.0);
        assert_eq!(run(), run());
    }

    #[test]
    fn all_variants_produce_valid_schedules() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        for s in [
            Algorithm::MaxMin.run(&wf, &p, f64::INFINITY),
            Algorithm::MaxMinBudg.run(&wf, &p, 1.0),
            Algorithm::Sufferage.run(&wf, &p, f64::INFINITY),
            Algorithm::SufferageBudg.run(&wf, &p, 1.0),
        ] {
            s.validate(&wf).unwrap();
        }
    }

    #[test]
    fn budget_variants_hold_planned_cost() {
        let wf = cybershake(GenConfig::new(60, 1));
        let p = paper();
        let floor = crate::min_cost_floor(&wf, &p);
        for mult in [1.2, 2.0] {
            let budget = floor * mult;
            for alg in [Algorithm::MaxMinBudg, Algorithm::SufferageBudg] {
                let s = alg.run(&wf, &p, budget);
                let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
                assert!(
                    r.total_cost <= budget * 1.1,
                    "cost {} for budget {budget}",
                    r.total_cost
                );
            }
        }
    }

    #[test]
    fn max_min_prefers_big_tasks_first() {
        // A bag with one huge and several small tasks: MAX-MIN schedules
        // the huge one first (earliest start), MIN-MIN last.
        use wfs_workflow::{StochasticWeight, WorkflowBuilder};
        let mut b = WorkflowBuilder::new("mix");
        let big = b.add_task("big", StochasticWeight::fixed(10_000.0));
        for i in 0..4 {
            b.add_task(format!("small{i}"), StochasticWeight::fixed(100.0));
        }
        let wf = b.build().unwrap();
        let p = paper();
        let s_max = Algorithm::MaxMin.run(&wf, &p, f64::INFINITY);
        let s_min = Algorithm::MinMin.run(&wf, &p, f64::INFINITY);
        let cfg = SimConfig::planning();
        let r_max = simulate(&wf, &p, &s_max, &cfg).unwrap();
        let r_min = simulate(&wf, &p, &s_min, &cfg).unwrap();
        assert!(
            r_max.task(big).start <= r_min.task(big).start,
            "MAX-MIN should not start the big task later than MIN-MIN"
        );
    }

    #[test]
    fn sufferage_handles_bags() {
        let wf = bag_of_tasks(10, 500.0, 0.0);
        let p = paper();
        let s = Algorithm::Sufferage.run(&wf, &p, f64::INFINITY);
        s.validate(&wf).unwrap();
        assert!(s.used_vm_count() >= 1);
    }

    #[test]
    fn extension_variants_deterministic() {
        let wf = montage(GenConfig::new(60, 2));
        let p = paper();
        for alg in [Algorithm::MaxMinBudg, Algorithm::SufferageBudg] {
            assert_eq!(alg.run(&wf, &p, 2.0), alg.run(&wf, &p, 2.0), "{alg}");
        }
    }
}
