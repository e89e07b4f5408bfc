//! CG and CG+ — Critical Greedy (competitor from [25], extended to this
//! paper's platform model, §V-D2).
//!
//! CG partitions the budget with a global ratio
//! `gb = (B − c_min) / (c_max − c_min)` where `c_min`/`c_max` are the costs
//! of running the whole workflow on a single VM of the cheapest / most
//! expensive category. Each task `t` (taken in HEFT order — [25] leaves the
//! order unspecified) gets the target budget
//! `q_t = c_{t,min} + (c_{t,max} − c_{t,min})·gb` and is placed on the VM
//! *category* whose cost for `t` is closest to `q_t`; within that category
//! we pick the instance with the best EFT (our extension: [25] has no
//! communications).
//!
//! CG+ refines: while budget remains, re-assign the (task, VM) pair on the
//! critical path maximizing `ΔT/Δc` (time decrease per extra dollar). As
//! the paper points out, requiring `Δc > 0` makes CG+ blind to moves that
//! reduce both time and cost — we reproduce that behaviour faithfully.

use crate::heft::priority_list;
use crate::plan::{Candidate, HostEval, PlanState};
use crate::refine::{planned, AcceptRule, TrialEvaluator};
use wfs_observe::{EventSink, NoopSink};
use wfs_platform::{CategoryId, Platform};
use wfs_simulator::{Schedule, SimulationReport};
use wfs_workflow::{TaskId, Workflow};

/// Cost of the whole workflow executed sequentially on one VM of `cat`
/// (used for `c_min` / `c_max`).
fn whole_workflow_cost(wf: &Workflow, platform: &Platform, cat: CategoryId) -> f64 {
    let c = platform.category(cat);
    let external = wf.external_input_data() + wf.external_output_data();
    let duration = wf.total_conservative_work() / c.speed
        + external / platform.datacenter.bandwidth;
    platform.vm_cost(cat, duration) + platform.datacenter.cost(duration, external)
}

/// Per-task cost on a given category (conservative weight + predecessor
/// data transfers).
fn task_cost_on(wf: &Workflow, platform: &Platform, t: TaskId, cat: CategoryId) -> f64 {
    let c = platform.category(cat);
    let occupied = wf.task(t).weight.conservative() / c.speed
        + wf.pred_data_size(t) / platform.datacenter.bandwidth;
    occupied * c.cost_per_second()
}

/// Run CG: category per task via the global budget ratio, instance via EFT.
/// The planner's sweep counters are reported to `sink`.
pub(crate) fn cg<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    sink: &mut S,
) -> Schedule {
    // [25] assumes the most expensive category also costs the most for the
    // whole workflow; with cost linear in speed the *cheapest* category can
    // cost more overall (longer rental + longer datacenter span), so order
    // the two bounds before forming the ratio.
    let a = whole_workflow_cost(wf, platform, platform.cheapest());
    let b = whole_workflow_cost(wf, platform, platform.most_expensive());
    let (c_min, c_max) = (a.min(b), a.max(b));
    let gb = if c_max - c_min > 1e-12 {
        ((b_ini - c_min) / (c_max - c_min)).clamp(0.0, 1.0)
    } else if b_ini >= c_min {
        1.0
    } else {
        0.0
    };

    let mut plan = PlanState::new(wf, platform);
    for &t in &priority_list(wf, platform) {
        let t_min = task_cost_on(wf, platform, t, platform.cheapest());
        let t_max = task_cost_on(wf, platform, t, platform.most_expensive());
        let target = t_min + (t_max - t_min) * gb;
        // Category whose cost is closest to the task's predetermined share.
        // When costs tie (e.g. cost exactly linear in speed makes every
        // category cost the same for a communication-free task), break
        // toward the faster category if the global ratio leans rich, the
        // cheaper one otherwise — otherwise CG would degenerate to the
        // cheapest category on linear-price platforms.
        #[allow(clippy::expect_used)] // a platform has at least one category
        let cat = platform
            .category_ids()
            .min_by(|&a, &b| {
                let da = (task_cost_on(wf, platform, t, a) - target).abs();
                let db = (task_cost_on(wf, platform, t, b) - target).abs();
                let tie = if gb >= 0.5 {
                    platform
                        .category(b)
                        .speed
                        .total_cmp(&platform.category(a).speed)
                } else {
                    platform
                        .category(a)
                        .speed
                        .total_cmp(&platform.category(b).speed)
                };
                da.total_cmp(&db).then(tie).then(a.0.cmp(&b.0))
            })
            .expect("platform is non-empty");
        let best = plan.sweep(t, 1, |sweep| pick_in_category(&plan, sweep.evals(), cat));
        plan.commit(t, best.candidate);
    }
    plan.report_sweeps(sink);
    plan.into_schedule()
}

/// CG's instance choice: the first minimum of `(EFT, cost)` among the used
/// VMs of `cat` and a fresh one.
pub(crate) fn pick_in_category(
    plan: &PlanState<'_>,
    evals: &[HostEval],
    cat: CategoryId,
) -> HostEval {
    #[allow(clippy::expect_used)] // the fresh VM of `cat` is always a candidate
    evals
        .iter()
        .filter(|e| match e.candidate {
            Candidate::Used(vm) => plan.schedule().vm_category(vm) == cat,
            Candidate::New(c2) => c2 == cat,
        })
        .min_by(|a, b| a.eft.total_cmp(&b.eft).then(a.cost.total_cmp(&b.cost)))
        .copied()
        .expect("at least the fresh VM of `cat` is a candidate")
}

/// Run CG, then the CG+ critical-path refinement.
pub(crate) fn cg_plus(wf: &Workflow, platform: &Platform, b_ini: f64) -> Schedule {
    let mut trials = TrialEvaluator::new(wf, platform, &priority_list(wf, platform));
    cg_plus_with(wf, platform, b_ini, &mut trials)
}

/// [`cg_plus`] with its trials evaluated by `trials`, which counts them.
fn cg_plus_with(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    trials: &mut TrialEvaluator<'_>,
) -> Schedule {
    let mut sched = cg(wf, platform, b_ini, &mut NoopSink);
    let mut report = planned(wf, platform, &sched);
    // Bounded loop: each accepted move strictly decreases the makespan;
    // 4·n rounds is a generous cap against float-cycling.
    for _ in 0..wf.task_count() * 4 {
        let path = critical_path_tasks(wf, &report);
        let mut rule = BestRatio { incumbent: &report, budget: b_ini };
        match trials.best_move(&sched, &path, &mut rule) {
            Some((s, r)) => {
                sched = s;
                report = r;
            }
            None => break,
        }
    }
    sched.prune_empty_vms();
    sched
}

/// CG+'s accept rule, faithful to [25]: only time-decreasing,
/// cost-increasing moves within budget qualify, and the ratio ΔT/Δc is
/// maximized.
struct BestRatio<'r> {
    /// Planned execution of the schedule the moves start from.
    incumbent: &'r SimulationReport,
    budget: f64,
}

impl BestRatio<'_> {
    /// (ΔT, Δc) of `r` against the incumbent.
    fn gain(&self, r: &SimulationReport) -> (f64, f64) {
        (self.incumbent.makespan - r.makespan, r.total_cost - self.incumbent.total_cost)
    }
}

impl AcceptRule for BestRatio<'_> {
    fn budget(&self) -> f64 {
        self.budget
    }

    /// ΔT > 0 needs a makespan below the incumbent's, whatever was kept.
    fn makespan_cutoff(&self, _best: Option<&SimulationReport>) -> f64 {
        self.incumbent.makespan
    }

    fn keeps(&mut self, trial: &SimulationReport, best: Option<&SimulationReport>) -> bool {
        let (dt, dc) = self.gain(trial);
        dt > 1e-9
            && dc > 1e-9
            && trial.total_cost <= self.budget
            && best.is_none_or(|b| {
                let (bt, bc) = self.gain(b);
                dt / dc > bt / bc
            })
    }
}

/// Tasks on the critical path of a simulated execution: start from the task
/// finishing last and walk backwards through the dependency or same-VM
/// predecessor whose finish time matches the start time.
fn critical_path_tasks(wf: &Workflow, report: &SimulationReport) -> Vec<TaskId> {
    let mut path = Vec::new();
    let Some(mut cur) = report
        .tasks
        .iter()
        .max_by(|a, b| a.end.total_cmp(&b.end))
        .map(|r| r.task)
    else {
        return path;
    };
    loop {
        path.push(cur);
        let rec = report.task(cur);
        // Candidate blockers: DAG predecessors and the task right before
        // `cur` on the same VM. Pick the one finishing latest.
        let mut blocker: Option<(TaskId, f64)> = None;
        for p in wf.predecessors(cur) {
            let end = report.task(p).end;
            if blocker.is_none_or(|(_, e)| end > e) {
                blocker = Some((p, end));
            }
        }
        for r in &report.tasks {
            if r.vm == rec.vm && r.end <= rec.start + 1e-9 && r.task != cur
                && blocker.is_none_or(|(_, e)| r.end > e) {
                    blocker = Some((r.task, r.end));
                }
        }
        match blocker {
            Some((b, _)) if !path.contains(&b) => cur = b,
            _ => break,
        }
    }
    path
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_simulator::{simulate, SimConfig};
    use wfs_workflow::gen::{cybershake, ligo, montage, GenConfig};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    #[test]
    fn cg_schedules_everything_valid() {
        for n in [30, 60] {
            let wf = montage(GenConfig::new(n, 1));
            let p = paper();
            cg(&wf, &p, 2.0, &mut NoopSink).validate(&wf).unwrap();
        }
    }

    #[test]
    fn cg_low_budget_uses_cheapest_category() {
        let wf = ligo(GenConfig::new(30, 1));
        let p = paper();
        let s = cg(&wf, &p, 0.0, &mut NoopSink);
        for vm in s.vm_ids() {
            assert_eq!(s.vm_category(vm), p.cheapest());
        }
    }

    #[test]
    fn cg_high_budget_uses_expensive_category() {
        let wf = ligo(GenConfig::new(30, 1));
        let p = paper();
        let s = cg(&wf, &p, 1e6, &mut NoopSink);
        for vm in s.vm_ids() {
            assert_eq!(s.vm_category(vm), p.most_expensive());
        }
    }

    #[test]
    fn cg_category_mix_monotone_in_budget() {
        // CG's global ratio gb moves the whole category mix from
        // all-cheapest (low budget; the near-min-cost schedules of Fig. 3)
        // towards all-fastest as the budget grows, with no intermediate
        // dips — the per-task shares never recycle leftovers, which is why
        // CG's makespan lags HEFTBUDG's at equal budget.
        let wf = cybershake(GenConfig::new(60, 1));
        let p = paper();
        let floor = crate::min_cost_floor(&wf, &p);
        let mean_cat = |b: f64| {
            let s = cg(&wf, &p, b, &mut NoopSink);
            let total: u32 = s.vm_ids().map(|v| s.vm_category(v).0).sum();
            total as f64 / s.vm_count() as f64
        };
        let mut prev = -1.0;
        for mult in [0.5, 0.8, 1.0, 1.5, 3.0, 10.0] {
            let m = mean_cat(floor * mult);
            assert!(m >= prev - 1e-9, "category mix dipped at x{mult}: {m} < {prev}");
            prev = m;
        }
        assert_eq!(mean_cat(floor * 0.5), 0.0, "sub-floor budget => all cheapest");
        assert_eq!(mean_cat(floor * 10.0), 2.0, "rich budget => all fastest");
    }

    #[test]
    fn cg_plus_never_worse_and_respects_budget() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let cfg = SimConfig::planning();
        for budget in [1.0, 3.0] {
            let base = simulate(&wf, &p, &cg(&wf, &p, budget, &mut NoopSink), &cfg).unwrap();
            let plus_sched = cg_plus(&wf, &p, budget);
            plus_sched.validate(&wf).unwrap();
            let plus = simulate(&wf, &p, &plus_sched, &cfg).unwrap();
            assert!(plus.makespan <= base.makespan + 1e-6);
            assert!(plus.total_cost <= budget + 1e-9, "cost {}", plus.total_cost);
        }
    }

    /// CG+'s trial and screened counts at 60 tasks on 3 generators × the
    /// three Table III budgets (the floor, twice HEFT's planned cost and
    /// their midpoint). The counts depend on every accepted move and on
    /// the lower-bound screen, so a change to either moves them.
    #[test]
    fn cg_plus_trial_counts_are_pinned() {
        let p = paper();
        let cfg = SimConfig::planning();
        let mut counts = Vec::new();
        for wf in [
            montage(GenConfig::new(60, 61)),
            cybershake(GenConfig::new(60, 62)),
            ligo(GenConfig::new(60, 63)),
        ] {
            let low = crate::min_cost_floor(&wf, &p);
            let heft = crate::Algorithm::Heft.run(&wf, &p, f64::INFINITY);
            let high = simulate(&wf, &p, &heft, &cfg).unwrap().total_cost * 2.0;
            for budget in [low, (low + high) / 2.0, high] {
                let mut trials = TrialEvaluator::new(&wf, &p, &priority_list(&wf, &p));
                let s = cg_plus_with(&wf, &p, budget, &mut trials);
                assert_eq!(s, cg_plus(&wf, &p, budget));
                counts.push((trials.count, trials.screened));
            }
        }
        #[rustfmt::skip]
        let pinned = [
            (180, 180), (180, 146), (180, 146),   // montage
            (3188, 2369), (93, 93), (93, 93),     // cybershake
            (112, 90), (112, 65), (112, 65),      // ligo
        ];
        assert_eq!(counts, pinned, "CG+ trial/screened counts moved");
    }

    #[test]
    fn cg_plus_deterministic() {
        let wf = montage(GenConfig::new(30, 2));
        let p = paper();
        assert_eq!(cg_plus(&wf, &p, 2.0), cg_plus(&wf, &p, 2.0));
    }

    #[test]
    fn critical_path_walks_to_an_entryish_task() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let s = cg(&wf, &p, 2.0, &mut NoopSink);
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        let path = critical_path_tasks(&wf, &r);
        assert!(!path.is_empty());
        // The path ends on the overall last-finishing task's chain start.
        let last = r.tasks.iter().max_by(|a, b| a.end.total_cmp(&b.end)).unwrap().task;
        assert_eq!(path[0], last);
    }
}
