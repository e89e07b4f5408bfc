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

    /// The nine algorithms evaluated in the paper (§V).
    pub const PAPER: [Algorithm; 9] = [
        Algorithm::MinMin,
        Algorithm::Heft,
        Algorithm::MinMinBudg,
        Algorithm::HeftBudg,
        Algorithm::HeftBudgPlus,
        Algorithm::HeftBudgPlusInv,
        Algorithm::Bdt,
        Algorithm::Cg,
        Algorithm::CgPlus,
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
    /// accounting has no pot to replay), CG followed by its sweep counters.
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
            Algorithm::Bdt => bdt(wf, platform, budget),
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
