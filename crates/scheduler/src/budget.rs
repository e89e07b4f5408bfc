//! Budget reservation and division (paper Algorithm 1, `getBUDGCalC`).
//!
//! Before scheduling, the budget-aware algorithms:
//! 1. reserve a conservative estimate of the datacenter cost (assuming a
//!    sequential execution on a single cheap VM, boundary transfers only);
//! 2. reserve one VM init cost per task (`n × c_ini,1` — ready to pay the
//!    price of full parallelism);
//! 3. split the remaining `B_calc` across tasks proportionally to their
//!    estimated duration (Eq. 5–6).
//!
//! The *pot* collects whatever each assignment left unspent of its share and
//! makes it available to subsequent tasks (§IV-A). [`Placement`] packages
//! split, limit, commit and pot settlement as the one placement step every
//! list scheduler (HEFT and the ready-set family) runs.

use crate::plan::{Candidate, HostEval, PlanState};
use wfs_observe::{Event as Obs, EventSink};
use wfs_platform::Platform;
use wfs_simulator::VmId;
use wfs_workflow::{TaskId, Workflow};

/// Result of the budget reservation step.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSplit {
    /// The initial budget `B_ini`.
    pub initial: f64,
    /// Amount reserved for the datacenter (usage span + boundary I/O).
    pub reserved_datacenter: f64,
    /// Amount reserved for VM init costs (`n × c_ini,1`).
    pub reserved_init: f64,
    /// Budget left for task execution, `B_calc` (clamped at 0 when the
    /// reservations already exceed `B_ini`).
    pub b_calc: f64,
    /// Per-task share `B_T` (Eq. 5), indexed by task id.
    pub shares: Vec<f64>,
}

impl BudgetSplit {
    /// The share allotted to `t`.
    #[inline]
    pub fn share(&self, t: TaskId) -> f64 {
        self.shares[t.index()]
    }
}

/// Estimated duration `t_calc,T` of one task: conservative weight at the
/// mean platform speed, plus its predecessor data over the bandwidth
/// (Eq. 5–6).
pub fn t_calc_task(wf: &Workflow, platform: &Platform, t: TaskId) -> f64 {
    let mean_speed = platform.mean_speed();
    let bw = platform.datacenter.bandwidth;
    wf.task(t).weight.conservative() / mean_speed + wf.pred_data_size(t) / bw
}

/// Estimated duration `t_calc,wf` of the whole workflow: total conservative
/// work at mean speed plus total intra-workflow data over the bandwidth.
fn t_calc_workflow(wf: &Workflow, platform: &Platform) -> f64 {
    wf.total_conservative_work() / platform.mean_speed()
        + wf.total_edge_data() / platform.datacenter.bandwidth
}

/// Conservative estimate of the datacenter reservation: a sequential
/// execution on a single VM of the cheapest category, paying boundary
/// transfers (`c_iof`) and the usage rate (`c_h,DC`) over that duration.
pub fn datacenter_reservation(wf: &Workflow, platform: &Platform) -> f64 {
    let cheapest = platform.category(platform.cheapest());
    let external = wf.external_input_data() + wf.external_output_data();
    let duration = wf.total_conservative_work() / cheapest.speed
        + external / platform.datacenter.bandwidth;
    platform.datacenter.cost(duration, external)
}

/// Run Algorithm 1: reserve, then share `B_calc` proportionally.
pub fn divide_budget(wf: &Workflow, platform: &Platform, b_ini: f64) -> BudgetSplit {
    assert!(b_ini >= 0.0 && b_ini.is_finite(), "budget must be non-negative and finite");
    let reserved_dc = datacenter_reservation(wf, platform);
    let reserved_init =
        wf.task_count() as f64 * platform.category(platform.cheapest()).init_cost;
    let b_calc = (b_ini - reserved_dc - reserved_init).max(0.0);
    let total = t_calc_workflow(wf, platform);
    let shares = wf
        .task_ids()
        .map(|t| {
            if total > 0.0 {
                t_calc_task(wf, platform, t) / total * b_calc
            } else {
                b_calc / wf.task_count() as f64
            }
        })
        .collect();
    BudgetSplit { initial: b_ini, reserved_datacenter: reserved_dc, reserved_init, b_calc, shares }
}

/// The leftover-budget pot: assignments cheaper than their share feed it,
/// later tasks may draw on it (§IV-A). The `enabled` switch exists for the
/// pot ablation (`wfs-experiments ablations`, DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pot {
    amount: f64,
    enabled: bool,
}

impl Pot {
    /// An empty, active pot.
    pub fn new() -> Self {
        Self { amount: 0.0, enabled: true }
    }

    /// A pot that never accumulates (ablation: each task strictly limited
    /// to its own share).
    pub fn disabled() -> Self {
        Self { amount: 0.0, enabled: false }
    }

    /// Budget currently available on top of a task's own share.
    #[inline]
    pub fn available(&self) -> f64 {
        self.amount
    }

    /// Record an assignment: a task with share `share` was placed at cost
    /// `cost`. Leftover flows in; overdraw (cost above the share, covered
    /// by the pot) flows out. The pot never goes negative.
    pub fn settle(&mut self, share: f64, cost: f64) {
        if self.enabled {
            self.amount = (self.amount + share - cost).max(0.0);
        }
    }
}

impl Default for Pot {
    fn default() -> Self {
        Self::new()
    }
}

/// The budget step every list scheduler shares (paper §IV: Alg. 1–2 plug
/// into any priority rule): the Eq. 5–6 split, each task's limit
/// `share + pot`, and the commit that settles the pot, with the decision
/// events reported to the sink. Without a budget (the baselines) limits are
/// infinite, the pot stays empty and no budget events are emitted.
pub(crate) struct Placement {
    split: Option<BudgetSplit>,
    pot: Pot,
    placed: u32,
}

impl Placement {
    /// Divide `b_ini` (if any) and report the reservation.
    pub(crate) fn new<S: EventSink>(
        wf: &Workflow,
        platform: &Platform,
        b_ini: Option<f64>,
        pot: Pot,
        sink: &mut S,
    ) -> Self {
        let split = b_ini.map(|b| divide_budget(wf, platform, b));
        if S::ENABLED {
            if let Some(s) = &split {
                sink.record(&Obs::BudgetReserved {
                    initial: s.initial,
                    reserved_datacenter: s.reserved_datacenter,
                    reserved_init: s.reserved_init,
                    b_calc: s.b_calc,
                });
            }
        }
        Self { split, pot, placed: 0 }
    }

    /// The most `t` may cost now: its share plus the pot (∞ without a
    /// budget).
    pub(crate) fn limit(&self, t: TaskId) -> f64 {
        match &self.split {
            Some(s) => s.share(t) + self.pot.available(),
            None => f64::INFINITY,
        }
    }

    /// Place `t` as the next task: report its rank and share, let `choose`
    /// pick a host under the current limit, commit it and settle the pot.
    /// Returns the VM `t` landed on.
    pub(crate) fn place<S: EventSink>(
        &mut self,
        plan: &mut PlanState<'_>,
        t: TaskId,
        sink: &mut S,
        choose: impl FnOnce(&PlanState<'_>, f64, &mut S) -> HostEval,
    ) -> VmId {
        let limit = self.limit(t);
        if S::ENABLED {
            sink.record(&Obs::TaskRanked { pos: self.placed, task: t.0 });
            if let Some(s) = &self.split {
                sink.record(&Obs::TaskShare { task: t.0, share: s.share(t) });
            }
        }
        let eval = choose(plan, limit, sink);
        let pot_before = self.pot.available();
        let vm = plan.commit(t, eval.candidate);
        if let Some(s) = &self.split {
            self.pot.settle(s.share(t), eval.cost);
        }
        if S::ENABLED {
            sink.record(&Obs::TaskPlaced {
                task: t.0,
                vm: vm.0,
                new_vm: matches!(eval.candidate, Candidate::New(_)),
                eft: eval.eft,
                cost: eval.cost,
                limit,
                pot_before,
                pot_after: self.pot.available(),
            });
        }
        self.placed = self.placed.saturating_add(1);
        vm
    }

    /// Report the planner's sweep counters and hand back the final pot.
    pub(crate) fn finish<S: EventSink>(self, plan: &PlanState<'_>, sink: &mut S) -> Pot {
        plan.report_sweeps(sink);
        debug_assert!(plan.is_complete(), "all tasks scheduled (DAG is acyclic)");
        self.pot
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_workflow::gen::{chain, montage, GenConfig};

    #[test]
    fn shares_sum_to_b_calc() {
        let wf = montage(GenConfig::new(30, 1));
        let p = Platform::paper_default();
        let split = divide_budget(&wf, &p, 50.0);
        let sum: f64 = split.shares.iter().sum();
        assert!((sum - split.b_calc).abs() < 1e-9 * split.b_calc.max(1.0));
        assert!(split.b_calc > 0.0);
        assert!(
            (split.initial - split.reserved_datacenter - split.reserved_init - split.b_calc).abs()
                < 1e-9
        );
    }

    #[test]
    fn shares_proportional_to_estimated_duration() {
        let wf = montage(GenConfig::new(30, 1));
        let p = Platform::paper_default();
        let split = divide_budget(&wf, &p, 50.0);
        let t0 = TaskId(0);
        let t1 = TaskId(1);
        let r_share = split.share(t0) / split.share(t1);
        let r_tcalc = t_calc_task(&wf, &p, t0) / t_calc_task(&wf, &p, t1);
        assert!((r_share - r_tcalc).abs() < 1e-9);
    }

    #[test]
    fn init_reservation_is_n_times_cheapest() {
        let wf = chain(10, 100.0, 0.0);
        let p = Platform::paper_default();
        let split = divide_budget(&wf, &p, 100.0);
        assert!((split.reserved_init - 10.0 * 0.0001).abs() < 1e-12);
    }

    #[test]
    fn tiny_budget_clamps_b_calc_to_zero() {
        let wf = montage(GenConfig::new(90, 1));
        let p = Platform::paper_default();
        let split = divide_budget(&wf, &p, 0.0);
        assert_eq!(split.b_calc, 0.0);
        assert!(split.shares.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn datacenter_reservation_grows_with_external_data() {
        let p = Platform::paper_default();
        let small = datacenter_reservation(&chain(5, 100.0, 1e6), &p);
        let large = datacenter_reservation(&chain(5, 100.0, 1e9), &p);
        assert!(large > small);
    }

    #[test]
    fn pot_accumulates_leftovers() {
        let mut pot = Pot::new();
        pot.settle(1.0, 0.4); // leftover 0.6
        assert!((pot.available() - 0.6).abs() < 1e-12);
        pot.settle(0.5, 0.9); // overdraw 0.4 covered by the pot
        assert!((pot.available() - 0.2).abs() < 1e-12);
        pot.settle(0.1, 5.0); // cannot go negative
        assert_eq!(pot.available(), 0.0);
    }

    #[test]
    fn disabled_pot_stays_empty() {
        let mut pot = Pot::disabled();
        pot.settle(10.0, 1.0);
        assert_eq!(pot.available(), 0.0);
    }

    #[test]
    fn bigger_budget_bigger_shares() {
        let wf = montage(GenConfig::new(30, 1));
        let p = Platform::paper_default();
        let a = divide_budget(&wf, &p, 10.0);
        let b = divide_budget(&wf, &p, 100.0);
        for t in wf.task_ids() {
            assert!(b.share(t) >= a.share(t));
        }
    }
}
