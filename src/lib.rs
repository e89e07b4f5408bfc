//! # budget-sched — budget-aware scheduling of scientific workflows on IaaS clouds
//!
//! A full reproduction, in Rust, of *"Budget-aware scheduling algorithms for
//! scientific workflows with stochastic task weights on heterogeneous IaaS
//! Cloud platforms"* (Caniou, Caron, Kong Win Chang, Robert — IPDPSW 2018,
//! DOI 10.1109/IPDPSW.2018.00014).
//!
//! This facade crate re-exports the four building blocks:
//!
//! - [`workflow`] — DAGs with stochastic task weights + Pegasus-style
//!   benchmark generators (CYBERSHAKE / LIGO / MONTAGE / EPIGENOMICS);
//! - [`platform`] — heterogeneous VM categories, datacenter, billing;
//! - [`simulator`] — discrete-event execution of schedules, deterministic
//!   or with Gaussian-sampled task weights;
//! - [`scheduler`] — MIN-MIN(BUDG), HEFT(BUDG), HEFTBUDG+/+INV, and the
//!   extended competitors BDT and CG/CG+.
//!
//! ## Quickstart
//!
//! ```
//! use budget_sched::prelude::*;
//!
//! // A 30-task MONTAGE instance with σ = 50 % of the mean weight.
//! let wf = montage(GenConfig::new(30, 1));
//! let platform = Platform::paper_default();
//!
//! // Schedule under a $2 budget with HEFTBUDG.
//! let (schedule, _) = heft_budg(&wf, &platform, 2.0);
//!
//! // Replay with stochastic weights and check the bill.
//! let run = simulate(&wf, &platform, &schedule, &SimConfig::stochastic(42)).unwrap();
//! println!("makespan {:.0}s, cost ${:.3}", run.makespan, run.total_cost);
//! assert!(run.within_budget(2.0));
//! ```

pub use wfs_observe as observe;
pub use wfs_platform as platform;
pub use wfs_scheduler as scheduler;
pub use wfs_simulator as simulator;
pub use wfs_workflow as workflow;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use wfs_observe::{
        BudgetLedger, ChromeTrace, Counters, Event, EventSink, NoopSink, RecordingSink,
    };
    pub use wfs_platform::{BillingPolicy, CategoryId, Datacenter, Platform, VmCategory};
    pub use wfs_scheduler::{
        divide_budget, heft_budg, min_budget_for_deadline, min_cost_schedule, run_online,
        run_with_recovery_observed, Algorithm, OnlineConfig, RecoveryConfig, RecoveryOutcome,
        RecoveryPolicy, RefineOrder,
    };
    pub use wfs_simulator::{
        simulate, simulate_observed, simulate_with_faults, BootFaultModel, CrashModel, DcCapacity,
        DegradationModel, FaultConfig, FaultRun, FaultStats, Schedule, SimConfig, SimulationReport,
        VmId, WeightModel,
    };
    pub use wfs_workflow::gen::{
        bag_of_tasks, chain, cybershake, epigenomics, fork_join, layered_random, ligo, montage,
        sipht, BenchmarkType, GenConfig, LayeredParams,
    };
    pub use wfs_workflow::{
        analysis, StochasticWeight, TaskId, Workflow, WorkflowBuilder,
    };
}
