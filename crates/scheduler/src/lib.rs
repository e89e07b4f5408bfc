//! # wfs-scheduler — budget-aware workflow scheduling algorithms
//!
//! The core contribution of the reproduced paper (Caniou, Caron, Kong Win
//! Chang, Robert — IPDPSW 2018): schedule a DAG of tasks with stochastic
//! weights onto heterogeneous IaaS VMs so that the makespan is small *and*
//! the monetary cost stays within an initial budget `B_ini`.
//!
//! Algorithms (paper §IV–V):
//! - [`min_min`] / [`heft`] — the classic budget-oblivious baselines;
//! - [`min_min_budg`] / [`heft_budg`] — budget-aware extensions: the budget
//!   is first split per task ([`divide_budget`], Alg. 1), then each task
//!   takes the fastest host it can afford ([`get_best_host`], Alg. 2),
//!   recycling leftovers through the [`Pot`]. This placement step is one
//!   piece of code shared by every list scheduler, so it also yields
//!   [`max_min_budg`] and [`sufferage_budg`] (extensions; MIN-MIN, MAX-MIN
//!   and SUFFERAGE share one ready-set loop and differ only in how they
//!   pick the next task);
//! - [`heft_budg_plus`] — HEFTBUDG+ / HEFTBUDG+INV refinements (Alg. 5)
//!   that re-map tasks using full schedule re-evaluations;
//! - [`bdt`] and [`cg`] / [`cg_plus`] — the two competitors the paper
//!   extends and compares against (§V-D).
//!
//! The [`Algorithm`] enum exposes all of them uniformly;
//! [`Algorithm::run_observed`] is the one dispatch over them and reports
//! the planners' decisions to an event sink.
//!
//! ```
//! use wfs_scheduler::{heft_budg, Algorithm};
//! use wfs_platform::Platform;
//! use wfs_simulator::{simulate, SimConfig};
//! use wfs_workflow::gen::{montage, GenConfig};
//!
//! let wf = montage(GenConfig::new(30, 1));
//! let platform = Platform::paper_default();
//! let budget = 2.0; // dollars
//! let (schedule, _priority) = heft_budg(&wf, &platform, budget);
//! let planned = simulate(&wf, &platform, &schedule, &SimConfig::planning()).unwrap();
//! assert!(planned.total_cost <= budget * 1.05);
//! ```

#![warn(missing_docs)]

mod algorithms;
mod bdt;
mod best_host;
mod budget;
mod cg;
mod deadline;
mod ensemble;
mod heft;
mod minmin;
mod online;
mod plan;
pub mod recovery;
pub mod reference;
mod refine;

pub use algorithms::{min_cost_schedule, Algorithm};
pub use bdt::bdt;
pub use best_host::get_best_host;
pub use budget::{
    datacenter_reservation, divide_budget, t_calc_task, t_calc_workflow, BudgetSplit, Pot,
};
pub use cg::{cg, cg_plus};
pub use deadline::{min_budget_for_deadline, plan_bicriteria, Bicriteria};
pub use ensemble::{schedule_ensemble, AdmittedWorkflow, EnsembleMember, EnsembleResult};
pub use heft::{
    heft, heft_budg, heft_budg_carry, heft_budg_observed, heft_budg_with_pot, priority_list,
};
pub use minmin::{max_min, max_min_budg, min_min, min_min_budg, sufferage, sufferage_budg};
pub use online::{run_online, OnlineConfig, OnlineOutcome};
pub use plan::{Candidate, HostEval, PlanState};
pub use recovery::{
    run_with_recovery, run_with_recovery_observed, EpochRecord, RecoveryConfig, RecoveryOutcome,
    RecoveryPolicy,
};
pub use refine::{
    heft_budg_plus, min_min_budg_plus, refine_schedule, refine_schedule_observed, RefineOrder,
};
