//! Workflow *ensembles* under one global budget — the setting of the
//! paper's closest related work ([19], Malawski et al.): several workflows
//! with priorities submitted together, the goal being to maximize the
//! total priority of the workflows that complete within the budget.
//!
//! The paper notes it "shares the approach of partitioning the initial
//! budget into chunks to be allotted to individual candidates (workflows in
//! [19], tasks in this paper)". This module composes the two levels:
//! workflows are admitted greedily by priority density, each admitted
//! workflow gets a budget chunk sized by its conservative cost estimate,
//! and is then scheduled internally with HEFTBUDG (Alg. 1–4).

use crate::heft::heft_budg;
use crate::refine::planned;
use wfs_platform::Platform;
use wfs_simulator::Schedule;
use wfs_workflow::Workflow;

/// One workflow of the ensemble, with its priority (higher = more
/// important, \[19\] maximizes cumulated priority of completed workflows).
#[derive(Debug, Clone)]
pub struct EnsembleMember {
    /// The workflow.
    pub workflow: Workflow,
    /// Its priority (> 0).
    pub priority: f64,
}

/// Result for one admitted workflow.
#[derive(Debug, Clone)]
pub struct AdmittedWorkflow {
    /// Index into the input ensemble.
    pub index: usize,
    /// Budget chunk allotted to it.
    pub budget: f64,
    /// The HEFTBUDG schedule built within that chunk.
    pub schedule: Schedule,
    /// Planned (conservative) cost of the schedule.
    pub planned_cost: f64,
    /// Planned makespan.
    pub planned_makespan: f64,
}

/// Outcome of ensemble admission + scheduling.
#[derive(Debug, Clone)]
pub struct EnsembleResult {
    /// Workflows admitted and scheduled, in admission order.
    pub admitted: Vec<AdmittedWorkflow>,
    /// Indices of rejected workflows.
    pub rejected: Vec<usize>,
    /// Total planned cost across admitted workflows.
    pub total_planned_cost: f64,
    /// Total priority value of admitted workflows.
    pub admitted_priority: f64,
}

/// Schedule an ensemble under a global budget.
///
/// Admission is greedy by *priority density* (priority per estimated
/// dollar): each candidate's cost is estimated as its conservative
/// min-cost execution with a 1.3× parallelism allowance; admitted
/// workflows receive that estimate as their chunk, and leftovers from
/// cheaper-than-estimated schedules trickle to the next candidate —
/// the same pot idea as Alg. 2, one level up.
pub fn schedule_ensemble(
    members: &[EnsembleMember],
    platform: &Platform,
    global_budget: f64,
) -> EnsembleResult {
    assert!(global_budget >= 0.0 && global_budget.is_finite());
    // Estimate each member's cost chunk.
    let mut order: Vec<(usize, f64)> = members
        .iter()
        .enumerate()
        .map(|(i, m)| {
            assert!(m.priority > 0.0, "priorities must be positive");
            (i, crate::min_cost_floor(&m.workflow, platform) * 1.3)
        })
        .collect();
    // Greedy by priority density, ties by smaller index.
    order.sort_by(|a, b| {
        let da = members[a.0].priority / a.1.max(1e-12);
        let db = members[b.0].priority / b.1.max(1e-12);
        db.total_cmp(&da).then(a.0.cmp(&b.0))
    });

    let mut remaining = global_budget;
    let mut admitted = Vec::new();
    let mut rejected = Vec::new();
    let mut total_cost = 0.0;
    let mut total_priority = 0.0;
    for (idx, chunk) in order {
        if chunk > remaining {
            rejected.push(idx);
            continue;
        }
        let wf = &members[idx].workflow;
        let (schedule, _) = heft_budg(wf, platform, chunk);
        let planned = planned(wf, platform, &schedule);
        if planned.total_cost > remaining {
            // Conservative estimate was too low for this one: reject
            // rather than overdraw the global budget.
            rejected.push(idx);
            continue;
        }
        remaining -= planned.total_cost;
        total_cost += planned.total_cost;
        total_priority += members[idx].priority;
        admitted.push(AdmittedWorkflow {
            index: idx,
            budget: chunk,
            schedule,
            planned_cost: planned.total_cost,
            planned_makespan: planned.makespan,
        });
    }
    rejected.sort_unstable();
    EnsembleResult {
        admitted,
        rejected,
        total_planned_cost: total_cost,
        admitted_priority: total_priority,
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_workflow::gen::{cybershake, ligo, montage, GenConfig};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    fn ensemble() -> Vec<EnsembleMember> {
        vec![
            EnsembleMember { workflow: montage(GenConfig::new(30, 1)), priority: 5.0 },
            EnsembleMember { workflow: ligo(GenConfig::new(30, 2)), priority: 3.0 },
            EnsembleMember { workflow: cybershake(GenConfig::new(30, 3)), priority: 8.0 },
        ]
    }

    #[test]
    fn generous_budget_admits_everything() {
        let p = paper();
        let r = schedule_ensemble(&ensemble(), &p, 100.0);
        assert_eq!(r.admitted.len(), 3);
        assert!(r.rejected.is_empty());
        assert!((r.admitted_priority - 16.0).abs() < 1e-12);
        assert!(r.total_planned_cost <= 100.0);
        for a in &r.admitted {
            assert!(a.planned_cost <= a.budget * 1.01);
            assert!(a.planned_makespan > 0.0);
        }
    }

    #[test]
    fn zero_budget_rejects_everything() {
        let p = paper();
        let r = schedule_ensemble(&ensemble(), &p, 0.0);
        assert!(r.admitted.is_empty());
        assert_eq!(r.rejected, vec![0, 1, 2]);
        assert_eq!(r.total_planned_cost, 0.0);
    }

    #[test]
    fn tight_budget_prefers_high_density_workflows() {
        let p = paper();
        let members = ensemble();
        // Find a budget that admits some but not all.
        let full = schedule_ensemble(&members, &p, 100.0).total_planned_cost;
        let r = schedule_ensemble(&members, &p, full * 0.5);
        assert!(!r.admitted.is_empty(), "some workflow fits half the budget");
        assert!(!r.rejected.is_empty(), "not everything fits half the budget");
        // Global budget never overdrawn.
        assert!(r.total_planned_cost <= full * 0.5 + 1e-9);
    }

    #[test]
    fn admitted_priority_monotone_in_budget() {
        let p = paper();
        let members = ensemble();
        let mut prev = -1.0;
        for budget in [0.05, 0.2, 0.5, 2.0, 20.0] {
            let r = schedule_ensemble(&members, &p, budget);
            assert!(
                r.admitted_priority >= prev - 1e-12,
                "priority dropped at budget {budget}"
            );
            prev = r.admitted_priority;
        }
    }

    #[test]
    fn deterministic() {
        let p = paper();
        let a = schedule_ensemble(&ensemble(), &p, 1.0);
        let b = schedule_ensemble(&ensemble(), &p, 1.0);
        assert_eq!(a.admitted.len(), b.admitted.len());
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.total_planned_cost, b.total_planned_cost);
    }
}
