//! # wfs-scheduler — budget-aware workflow scheduling algorithms
//!
//! The core contribution of the reproduced paper (Caniou, Caron, Kong Win
//! Chang, Robert — IPDPSW 2018): schedule a DAG of tasks with stochastic
//! weights onto heterogeneous IaaS VMs so that the makespan is small *and*
//! the monetary cost stays within an initial budget `B_ini`.
//!
//! Algorithms (paper §IV–V), all run through [`Algorithm`], the one entry
//! point per planner ([`Algorithm::run`]; [`Algorithm::run_observed`] also
//! reports the planner's decisions to an event sink):
//! - MIN-MIN / HEFT — the classic budget-oblivious baselines;
//! - MIN-MINBUDG / HEFTBUDG — budget-aware extensions: the budget is first
//!   split per task ([`divide_budget`], Alg. 1), then each task takes the
//!   fastest host it can afford ([`get_best_host`], Alg. 2), recycling
//!   leftovers through the [`Pot`]. This placement step is one piece of
//!   code shared by every list scheduler, so it also yields MAX-MINBUDG and
//!   SUFFERAGEBUDG (extensions; MIN-MIN, MAX-MIN and SUFFERAGE share one
//!   ready-set loop and differ only in how they pick the next task);
//! - HEFTBUDG+ / HEFTBUDG+INV — refinements (Alg. 5) that re-map tasks
//!   using full schedule re-evaluations;
//! - BDT and CG / CG+ — the two competitors the paper extends and compares
//!   against (§V-D).
//!
//! A few building blocks stay public for callers that need their parts:
//! [`heft_budg`] (also returns the priority list), [`heft_budg_carry`]
//! (threads the pot through re-planning rounds), [`refine_schedule`] (the
//! Alg. 5 pass alone) and [`min_min_budg_plus`] (Alg. 5 over MIN-MINBUDG,
//! an extension). Every refinement, Alg. 5 and CG+ alike, evaluates its
//! tentative moves through one trial evaluator (`DESIGN.md` §2).
//!
//! Alg. 2 alone ([`get_best_host`]) and fault recovery
//! ([`run_with_recovery_observed`]) take an event sink (`NoopSink` when
//! nothing listens); [`run_online`] keeps its own model (`DESIGN.md` §11).
//!
//! ```
//! use wfs_scheduler::Algorithm;
//! use wfs_platform::Platform;
//! use wfs_simulator::{simulate, SimConfig};
//! use wfs_workflow::gen::{montage, GenConfig};
//!
//! let wf = montage(GenConfig::new(30, 1));
//! let platform = Platform::paper_default();
//! let budget = 2.0; // dollars
//! let schedule = Algorithm::HeftBudgPlus.run(&wf, &platform, budget);
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

pub use algorithms::{min_cost_floor, min_cost_schedule, Algorithm};
pub use best_host::get_best_host;
pub use budget::{datacenter_reservation, divide_budget, t_calc_task, BudgetSplit, Pot};
pub use deadline::min_budget_for_deadline;
pub use ensemble::{schedule_ensemble, AdmittedWorkflow, EnsembleMember, EnsembleResult};
pub use heft::{heft_budg, heft_budg_carry, heft_budg_observed, priority_list};
pub use online::{run_online, OnlineConfig, OnlineOutcome};
pub use plan::{Candidate, HostEval, PlanState, Sweep};
pub use recovery::{
    run_with_recovery_observed, EpochRecord, RecoveryConfig, RecoveryOutcome, RecoveryPolicy,
};
pub use refine::{min_min_budg_plus, refine_schedule, refine_schedule_observed, RefineOrder};
