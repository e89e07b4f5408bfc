//! # wfs-workflow — scientific workflow DAGs with stochastic task weights
//!
//! Substrate crate of the budget-aware scheduling reproduction (Caniou,
//! Caron, Kong Win Chang, Robert — IPDPSW 2018). A workflow is a DAG whose
//! tasks carry Gaussian instruction counts `N(w̄, σ)` and whose edges carry
//! data-transfer sizes (paper §III-A).
//!
//! What lives here:
//! - [`Workflow`] / [`WorkflowBuilder`]: the validated DAG and its builder;
//! - [`analysis`]: BFS levels (BDT), bottom levels & HEFT priority order,
//!   shape statistics;
//! - [`gen`]: Pegasus-style benchmark generators (CYBERSHAKE / LIGO /
//!   MONTAGE, plus EPIGENOMICS, SIPHT and synthetic shapes);
//! - [`dot`]: Graphviz export; [`dax`]: Pegasus DAX import/export;
//!   JSON import/export of the builder's input (`name`, `tasks`, `edges`)
//!   on [`Workflow`] itself.
//!
//! ```
//! use wfs_workflow::gen::{montage, GenConfig};
//! use wfs_workflow::analysis::{stats, heft_order};
//!
//! let wf = montage(GenConfig::new(30, 1));
//! assert_eq!(wf.task_count(), 30);
//! let order = heft_order(&wf, 20.0e9, 125.0e6);
//! assert_eq!(order.len(), 30);
//! println!("{:?}", stats(&wf));
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod dax;
pub mod dot;
pub mod gen;
mod graph;
mod ord;
mod task;

pub use graph::{Edge, EdgeId, Workflow, WorkflowBuilder, WorkflowError};
pub use ord::OrdF64;
pub use task::{StochasticWeight, Task, TaskId};
