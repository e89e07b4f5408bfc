//! Deadline-and-budget planning — the paper's full objective (Eq. 3):
//! find a schedule with `makespan <= D` and `cost <= B`.
//!
//! The paper's algorithms take the budget as the input and minimize the
//! makespan; this module closes the loop for users who start from a
//! deadline instead: [`min_budget_for_deadline`] binary-searches the
//! smallest budget whose HEFTBUDG schedule meets the deadline under
//! conservative planning, and [`plan_bicriteria`] checks a given `(D, B)`
//! pair, reporting which constraint fails.

use crate::heft::heft_budg;
use crate::refine::planned;
use wfs_platform::Platform;
use wfs_simulator::{Schedule, SimulationReport};
use wfs_workflow::Workflow;

/// Outcome of a bi-criteria `(deadline, budget)` feasibility check.
#[derive(Debug, Clone, PartialEq)]
pub enum Bicriteria {
    /// A schedule meeting both constraints (conservative planning).
    Feasible {
        /// The schedule.
        schedule: Schedule,
        /// Its planned execution.
        planned: SimulationReport,
    },
    /// The budget is enough for *some* schedule but the deadline is not met.
    DeadlineMiss {
        /// Planned makespan of the best schedule found.
        makespan: f64,
    },
    /// Even the cheapest schedule exceeds the budget.
    BudgetInfeasible {
        /// Cost of the cheapest schedule.
        min_cost: f64,
    },
}

/// Check one `(deadline, budget)` pair with HEFTBUDG + conservative replay.
pub fn plan_bicriteria(
    wf: &Workflow,
    platform: &Platform,
    deadline: f64,
    budget: f64,
) -> Bicriteria {
    let floor = crate::min_cost_floor(wf, platform);
    if budget < floor {
        return Bicriteria::BudgetInfeasible { min_cost: floor };
    }
    let (schedule, _) = heft_budg(wf, platform, budget);
    let planned = planned(wf, platform, &schedule);
    if planned.makespan <= deadline && planned.total_cost <= budget {
        Bicriteria::Feasible { schedule, planned }
    } else {
        Bicriteria::DeadlineMiss { makespan: planned.makespan }
    }
}

/// Relative precision of the budget binary search.
const SEARCH_REL_EPS: f64 = 0.01;

/// Find (within 1 %) the smallest budget whose HEFTBUDG schedule meets
/// `deadline` under conservative planning. Returns the budget and the
/// schedule, or `None` if even an effectively unlimited budget cannot meet
/// the deadline (the workflow's critical path is too long).
///
/// Monotonicity caveat: HEFTBUDG's makespan is *not* perfectly monotone in
/// the budget (the paper's Fig. 1 shows plateaus and small bumps), so the
/// search brackets the answer and then verifies; the returned budget always
/// meets the deadline, minimality is approximate.
pub fn min_budget_for_deadline(
    wf: &Workflow,
    platform: &Platform,
    deadline: f64,
) -> Option<(f64, Schedule)> {
    let makespan_at = |b: f64| -> (f64, Schedule) {
        let (s, _) = heft_budg(wf, platform, b);
        (planned(wf, platform, &s).makespan, s)
    };
    let floor = crate::min_cost_floor(wf, platform);

    // Bracket: grow the budget geometrically until the deadline is met.
    let mut lo = floor;
    let mut hi = floor;
    let mut hi_sched = None;
    for _ in 0..24 {
        let (mk, s) = makespan_at(hi);
        if mk <= deadline {
            hi_sched = Some(s);
            break;
        }
        lo = hi;
        hi *= 2.0;
    }
    let mut best = hi_sched?;

    // Shrink the bracket.
    while hi - lo > SEARCH_REL_EPS * hi {
        let mid = (lo + hi) / 2.0;
        let (mk, s) = makespan_at(mid);
        if mk <= deadline {
            hi = mid;
            best = s;
        } else {
            lo = mid;
        }
    }
    Some((hi, best))
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_simulator::{simulate, SimConfig};
    use wfs_workflow::gen::{montage, GenConfig};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    fn baseline_makespan(wf: &Workflow, p: &Platform) -> f64 {
        let (s, _) = heft_budg(wf, p, 1e9);
        simulate(wf, p, &s, &SimConfig::planning()).unwrap().makespan
    }

    #[test]
    fn loose_deadline_needs_little_budget() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        // Sequential-on-cheap-VM takes ~900 s: a 2000 s deadline is free.
        let (b, s) = min_budget_for_deadline(&wf, &p, 2000.0).unwrap();
        s.validate(&wf).unwrap();
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        assert!(r.makespan <= 2000.0);
        // Within ~2 % of the absolute floor.
        let floor = crate::min_cost_floor(&wf, &p);
        assert!(b <= floor * 1.1, "budget {b} vs floor {floor}");
    }

    #[test]
    fn tight_deadline_needs_more_budget() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let base = baseline_makespan(&wf, &p);
        let (b_loose, _) = min_budget_for_deadline(&wf, &p, base * 6.0).unwrap();
        let (b_tight, s) = min_budget_for_deadline(&wf, &p, base * 1.1).unwrap();
        assert!(b_tight > b_loose, "tight {b_tight} !> loose {b_loose}");
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        assert!(r.makespan <= base * 1.1);
    }

    #[test]
    fn impossible_deadline_returns_none() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        // No budget makes a 90-stage-deep pipeline finish in one second.
        assert!(min_budget_for_deadline(&wf, &p, 1.0).is_none());
    }

    #[test]
    fn bicriteria_variants() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let base = baseline_makespan(&wf, &p);
        match plan_bicriteria(&wf, &p, base * 2.0, 5.0) {
            Bicriteria::Feasible { planned, .. } => {
                assert!(planned.satisfies(base * 2.0, 5.0));
            }
            other => panic!("expected feasible, got {other:?}"),
        }
        match plan_bicriteria(&wf, &p, 1.0, 5.0) {
            Bicriteria::DeadlineMiss { makespan } => assert!(makespan > 1.0),
            other => panic!("expected deadline miss, got {other:?}"),
        }
        match plan_bicriteria(&wf, &p, base * 2.0, 0.0) {
            Bicriteria::BudgetInfeasible { min_cost } => assert!(min_cost > 0.0),
            other => panic!("expected budget infeasible, got {other:?}"),
        }
    }
}
