//! Uniform entry point over every scheduling algorithm in the paper —
//! used by the experiment harness, benches and examples.

use crate::bdt::bdt;
use crate::budget::Pot;
use crate::cg::{cg, cg_plus};
use crate::heft::heft_inner;
use crate::minmin::{ready_set, Rule};
use crate::refine::{planned, refine_schedule_observed, RefineOrder};
use wfs_observe::{Event as Obs, EventSink, NoopSink};
use wfs_platform::Platform;
use wfs_simulator::Schedule;
use wfs_workflow::Workflow;

/// Every algorithm evaluated in the paper (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Baseline MIN-MIN (budget-oblivious).
    MinMin,
    /// Baseline HEFT (budget-oblivious).
    Heft,
    /// MIN-MINBUDG (Algorithm 3).
    MinMinBudg,
    /// HEFTBUDG (Algorithm 4).
    HeftBudg,
    /// HEFTBUDG+ (Algorithm 5, forward order).
    HeftBudgPlus,
    /// HEFTBUDG+INV (Algorithm 5, reverse order).
    HeftBudgPlusInv,
    /// BDT, All-in trickling (competitor \[3\]).
    Bdt,
    /// CG (competitor \[25\]).
    Cg,
    /// CG+ (competitor \[25\], refined).
    CgPlus,
    /// MAX-MIN baseline (extension: classic list heuristic).
    MaxMin,
    /// Budget-aware MAX-MIN (extension).
    MaxMinBudg,
    /// SUFFERAGE baseline (extension: classic list heuristic).
    Sufferage,
    /// Budget-aware SUFFERAGE (extension).
    SufferageBudg,
}

impl Algorithm {
    /// All algorithms: first the paper's nine in presentation order, then
    /// the extension heuristics.
    pub const ALL: [Algorithm; 13] = [
        Algorithm::MinMin,
        Algorithm::Heft,
        Algorithm::MinMinBudg,
        Algorithm::HeftBudg,
        Algorithm::HeftBudgPlus,
        Algorithm::HeftBudgPlusInv,
        Algorithm::Bdt,
        Algorithm::Cg,
        Algorithm::CgPlus,
        Algorithm::MaxMin,
        Algorithm::MaxMinBudg,
        Algorithm::Sufferage,
        Algorithm::SufferageBudg,
    ];

    /// The paper's name for the algorithm.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::MinMin => "MIN-MIN",
            Algorithm::Heft => "HEFT",
            Algorithm::MinMinBudg => "MIN-MINBUDG",
            Algorithm::HeftBudg => "HEFTBUDG",
            Algorithm::HeftBudgPlus => "HEFTBUDG+",
            Algorithm::HeftBudgPlusInv => "HEFTBUDG+INV",
            Algorithm::Bdt => "BDT",
            Algorithm::Cg => "CG",
            Algorithm::CgPlus => "CG+",
            Algorithm::MaxMin => "MAX-MIN",
            Algorithm::MaxMinBudg => "MAX-MINBUDG",
            Algorithm::Sufferage => "SUFFERAGE",
            Algorithm::SufferageBudg => "SUFFERAGEBUDG",
        }
    }

    /// True for the budget-aware algorithms (the baselines ignore `budget`).
    pub fn is_budget_aware(self) -> bool {
        !matches!(
            self,
            Algorithm::MinMin | Algorithm::Heft | Algorithm::MaxMin | Algorithm::Sufferage
        )
    }

    /// True for the refinement variants with an order-of-magnitude higher
    /// scheduling cost (§IV-B, Table III).
    pub fn is_refined(self) -> bool {
        matches!(
            self,
            Algorithm::HeftBudgPlus | Algorithm::HeftBudgPlusInv | Algorithm::CgPlus
        )
    }

    /// Compute a schedule for `wf` on `platform` under `budget` (ignored by
    /// the baselines).
    ///
    /// Debug builds additionally execute the plan under the planning model
    /// and run [`wfs_simulator::plan_lint`] over the result, panicking on
    /// any violated platform-model invariant (see `DESIGN.md` §8). Release
    /// builds skip the check entirely.
    pub fn run(self, wf: &Workflow, platform: &Platform, budget: f64) -> Schedule {
        self.run_observed(wf, platform, budget, &mut NoopSink)
    }

    /// [`Self::run`] with an event sink. This is the single dispatch over
    /// the 13 algorithms. The list schedulers (MIN-MIN, MAX-MIN, SUFFERAGE,
    /// HEFT and their BUDG variants) and the HEFTBUDG+ refinements emit
    /// their full decision stream through the shared placement step; BDT,
    /// CG and CG+ emit only the `PlanStarted` header (their budget
    /// accounting has no pot to replay), BDT and CG followed by their sweep
    /// counters.
    /// Either way the schedule is identical to [`Self::run`]'s.
    pub fn run_observed<S: EventSink>(
        self,
        wf: &Workflow,
        platform: &Platform,
        budget: f64,
        sink: &mut S,
    ) -> Schedule {
        if S::ENABLED {
            sink.record(&Obs::PlanStarted {
                algorithm: self.name(),
                tasks: u32::try_from(wf.task_count()).unwrap_or(u32::MAX),
                budget,
            });
        }
        let b_ini = self.is_budget_aware().then_some(budget);
        let schedule = match self {
            Algorithm::MinMin | Algorithm::MinMinBudg => {
                ready_set(wf, platform, b_ini, Rule::MinMin, sink)
            }
            Algorithm::MaxMin | Algorithm::MaxMinBudg => {
                ready_set(wf, platform, b_ini, Rule::MaxMin, sink)
            }
            Algorithm::Sufferage | Algorithm::SufferageBudg => {
                ready_set(wf, platform, b_ini, Rule::Sufferage, sink)
            }
            Algorithm::Heft | Algorithm::HeftBudg => {
                heft_inner(wf, platform, b_ini, Pot::new(), sink).0
            }
            Algorithm::HeftBudgPlus | Algorithm::HeftBudgPlusInv => {
                let order = if self == Algorithm::HeftBudgPlus {
                    RefineOrder::Forward
                } else {
                    RefineOrder::Reverse
                };
                let (sched, list, _) = heft_inner(wf, platform, b_ini, Pot::new(), sink);
                refine_schedule_observed(wf, platform, budget, sched, &list, order, sink)
            }
            Algorithm::Bdt => bdt(wf, platform, budget, sink),
            Algorithm::Cg => cg(wf, platform, budget, sink),
            Algorithm::CgPlus => cg_plus(wf, platform, budget),
        };
        #[cfg(debug_assertions)]
        {
            // Budget is deliberately not enforced here: every algorithm has
            // a best-effort fallback branch that may legitimately overspend
            // (the paper evaluates exactly that failure mode, Fig. 3).
            if let Ok(report) =
                wfs_simulator::simulate(wf, platform, &schedule, &wfs_simulator::SimConfig::planning())
            {
                let violations = wfs_simulator::plan_lint(wf, platform, &schedule, &report, None);
                assert!(
                    violations.is_empty(),
                    "{self}: schedule violates platform-model invariants: {violations:?}"
                );
            }
        }
        schedule
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s
            .to_ascii_lowercase()
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '+')
            .collect();
        match norm.as_str() {
            "minmin" => Ok(Algorithm::MinMin),
            "heft" => Ok(Algorithm::Heft),
            "minminbudg" => Ok(Algorithm::MinMinBudg),
            "heftbudg" => Ok(Algorithm::HeftBudg),
            "heftbudg+" | "heftbudgplus" => Ok(Algorithm::HeftBudgPlus),
            "heftbudg+inv" | "heftbudgplusinv" => Ok(Algorithm::HeftBudgPlusInv),
            "bdt" => Ok(Algorithm::Bdt),
            "cg" => Ok(Algorithm::Cg),
            "cg+" | "cgplus" => Ok(Algorithm::CgPlus),
            "maxmin" => Ok(Algorithm::MaxMin),
            "maxminbudg" => Ok(Algorithm::MaxMinBudg),
            "sufferage" => Ok(Algorithm::Sufferage),
            "sufferagebudg" => Ok(Algorithm::SufferageBudg),
            other => Err(format!("unknown algorithm `{other}`")),
        }
    }
}

/// The cheapest possible schedule: all tasks, in topological order, on one
/// VM of the cheapest category (the `min_cost` green dot of Fig. 1).
pub fn min_cost_schedule(wf: &Workflow, platform: &Platform) -> Schedule {
    let mut s = Schedule::new(wf.task_count());
    let vm = s.add_vm(platform.cheapest());
    for &t in wf.topological_order() {
        s.assign(t, vm);
    }
    s
}

/// The `min_cost` floor of Fig. 1: the planning cost of
/// [`min_cost_schedule`], the least budget that affords the workflow.
pub fn min_cost_floor(wf: &Workflow, platform: &Platform) -> f64 {
    planned(wf, platform, &min_cost_schedule(wf, platform)).total_cost
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_simulator::{simulate, SimConfig};
    use wfs_workflow::analysis::bottom_levels;
    use wfs_workflow::gen::{montage, GenConfig};

    #[test]
    fn every_algorithm_produces_a_valid_schedule() {
        let wf = montage(GenConfig::new(30, 1));
        let p = Platform::paper_default();
        for alg in Algorithm::ALL {
            let s = alg.run(&wf, &p, 3.0);
            s.validate(&wf).unwrap_or_else(|e| panic!("{alg}: {e}"));
            let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
            assert!(r.makespan > 0.0, "{alg}");
        }
    }

    /// The child (id 0, 1e17 Gflop) and its parent (id 1, 1 Gflop): the
    /// parent's weight rounds away in its rank, so the two ranks tie, and
    /// every planner must still place the parent first.
    #[test]
    fn every_algorithm_plans_a_rank_tied_parent_first() {
        let mut b = wfs_workflow::WorkflowBuilder::new("rank-tie");
        let child = b.add_task("child", wfs_workflow::StochasticWeight::fixed(1e17));
        let parent = b.add_task("parent", wfs_workflow::StochasticWeight::fixed(1.0));
        b.connect(parent, child, 0.0);
        let wf = b.build().unwrap();
        let p = Platform::paper_default();
        let rank = bottom_levels(&wf, p.mean_speed(), p.datacenter.bandwidth);
        assert_eq!(rank[child.index()], rank[parent.index()], "the ranks tie");
        for alg in Algorithm::ALL {
            let s = alg.run(&wf, &p, 1e9);
            s.validate(&wf).unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
    }

    #[test]
    fn names_roundtrip_through_fromstr() {
        for alg in Algorithm::ALL {
            let parsed: Algorithm = alg.name().parse().unwrap();
            assert_eq!(parsed, alg);
        }
        assert!("nope".parse::<Algorithm>().is_err());
    }

    #[test]
    fn classification_flags() {
        assert!(!Algorithm::Heft.is_budget_aware());
        assert!(Algorithm::HeftBudg.is_budget_aware());
        assert!(Algorithm::HeftBudgPlus.is_refined());
        assert!(!Algorithm::HeftBudg.is_refined());
        assert!(Algorithm::CgPlus.is_refined());
    }

    #[test]
    fn min_cost_schedule_is_single_cheapest_vm() {
        let wf = montage(GenConfig::new(30, 1));
        let p = Platform::paper_default();
        let s = min_cost_schedule(&wf, &p);
        assert_eq!(s.vm_count(), 1);
        assert_eq!(s.vm_category(wfs_simulator::VmId(0)), p.cheapest());
        s.validate(&wf).unwrap();
        // It is cheaper than any multi-VM schedule the algorithms produce.
        let cfg = SimConfig::planning();
        let min_cost = simulate(&wf, &p, &s, &cfg).unwrap().total_cost;
        let heft_cost =
            simulate(&wf, &p, &Algorithm::Heft.run(&wf, &p, 0.0), &cfg).unwrap().total_cost;
        assert!(min_cost <= heft_cost);
    }
}

#[cfg(test)]
mod work_counts {
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

    use crate::{min_cost_floor, reference, Algorithm};
    use wfs_observe::Counters;
    use wfs_platform::Platform;
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
                    assert_eq!(
                        naive.2,
                        0,
                        "{name} {}: a naive sweep pruned candidates",
                        alg.name()
                    );
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
}
