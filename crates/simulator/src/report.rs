//! Simulation outputs: per-task records, per-VM usage, cost breakdown.

use crate::schedule::VmId;
use serde::{Deserialize, Serialize};
use wfs_platform::CategoryId;
use wfs_workflow::TaskId;

/// Execution record of one task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// The task.
    pub task: TaskId,
    /// Host VM.
    pub vm: VmId,
    /// Instant computation started (after inputs arrived and the processor
    /// became free).
    pub start: f64,
    /// Instant computation finished.
    pub end: f64,
    /// The realized weight (sampled or deterministic).
    pub realized_weight: f64,
}

/// Usage record of one VM instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmUsage {
    /// The VM.
    pub vm: VmId,
    /// Its category.
    pub category: CategoryId,
    /// Instant the VM was booked (boot begins; `H_start,v` for the
    /// datacenter span of Eq. 2).
    pub booked_at: f64,
    /// Instant the VM became operational (boot done; charging starts —
    /// boot time is uncharged, paper §III-B).
    pub ready_at: f64,
    /// Instant the VM released (last task output fully uploaded;
    /// `H_end,v`).
    pub released_at: f64,
    /// Cost of this VM per Eq. 1.
    pub cost: f64,
    /// Number of tasks it executed.
    pub tasks_run: usize,
}

/// Full report of one simulated execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// `H_end,last − H_start,first`: wall-clock span from booking the first
    /// VM to the last byte reaching the datacenter (the paper's makespan).
    pub makespan: f64,
    /// Sum of VM costs (Σ C_v, Eq. 1).
    pub vm_cost: f64,
    /// Datacenter cost (C_DC, Eq. 2).
    pub datacenter_cost: f64,
    /// Total cost `C_wf = Σ C_v + C_DC`.
    pub total_cost: f64,
    /// VMs that executed at least one task.
    pub vms_used: usize,
    /// Per-task execution records, in task-id order.
    pub tasks: Vec<TaskRecord>,
    /// Per-VM usage records, in VM-id order (only booked VMs).
    pub vms: Vec<VmUsage>,
}

impl SimulationReport {
    /// True if the execution fit within `budget`.
    #[inline]
    pub fn within_budget(&self, budget: f64) -> bool {
        self.total_cost <= budget
    }

    /// The record for `task`.
    pub fn task(&self, task: TaskId) -> &TaskRecord {
        &self.tasks[task.index()]
    }

    /// Render a compact text Gantt chart (one row per VM), for examples and
    /// debugging. `width` is the number of character columns.
    pub fn gantt(&self, width: usize) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let span = self.makespan.max(1e-9);
        for vm in &self.vms {
            let _ = write!(s, "{:>5} [{:>7}] |", vm.vm.to_string(), format!("cat{}", vm.category.0));
            let mut row = vec![' '; width];
            for t in &self.tasks {
                if t.vm == vm.vm {
                    let a = ((t.start / span) * (width as f64 - 1.0)) as usize;
                    let b = ((t.end / span) * (width as f64 - 1.0)) as usize;
                    for cell in row.iter_mut().take(b.min(width - 1) + 1).skip(a) {
                        *cell = '#';
                    }
                }
            }
            s.extend(row);
            s.push_str("|\n");
        }
        let _ = writeln!(s, "makespan {:.1}s  cost ${:.4}  VMs {}", self.makespan, self.total_cost, self.vms_used);
        s
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;

    fn tiny_report() -> SimulationReport {
        SimulationReport {
            makespan: 100.0,
            vm_cost: 0.02,
            datacenter_cost: 0.01,
            total_cost: 0.03,
            vms_used: 1,
            tasks: vec![TaskRecord {
                task: TaskId(0),
                vm: VmId(0),
                start: 10.0,
                end: 60.0,
                realized_weight: 500.0,
            }],
            vms: vec![VmUsage {
                vm: VmId(0),
                category: CategoryId(0),
                booked_at: 0.0,
                ready_at: 10.0,
                released_at: 100.0,
                cost: 0.02,
                tasks_run: 1,
            }],
        }
    }

    #[test]
    fn within_budget_boundary() {
        let r = tiny_report();
        assert!(r.within_budget(0.03));
        assert!(r.within_budget(1.0));
        assert!(!r.within_budget(0.0299));
    }

    #[test]
    fn gantt_renders() {
        let g = tiny_report().gantt(40);
        assert!(g.contains("vm0"));
        assert!(g.contains('#'));
        assert!(g.contains("makespan 100.0s"));
    }

    #[test]
    fn serde_roundtrip() {
        let r = tiny_report();
        let back: SimulationReport =
            serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(r, back);
    }
}
