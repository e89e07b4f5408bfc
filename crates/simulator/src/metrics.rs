//! Post-hoc metrics over a [`SimulationReport`]: VM utilization, the
//! parallelism profile, cost efficiency — the quantities one inspects when
//! judging *why* a schedule is cheap or slow.

use crate::report::SimulationReport;

/// Aggregated execution metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionMetrics {
    /// Busy time (computing) divided by charged time, averaged over VMs
    /// weighted by their charged time. 1.0 = no idle, no transfer stalls.
    pub utilization: f64,
    /// Total seconds of computation across all tasks.
    pub total_compute_time: f64,
    /// Total charged VM seconds.
    pub total_charged_time: f64,
    /// Average number of concurrently *running* tasks over the makespan.
    pub mean_parallelism: f64,
    /// Maximum number of concurrently running tasks.
    pub peak_parallelism: usize,
    /// Speedup over a serial execution of the same realized work: total
    /// compute seconds divided by the makespan (0 for a zero-span run).
    pub speedup: f64,
}

/// Compute [`ExecutionMetrics`] for a report.
pub fn metrics(report: &SimulationReport) -> ExecutionMetrics {
    let total_compute: f64 = report.tasks.iter().map(|t| t.end - t.start).sum();
    let total_charged: f64 = report
        .vms
        .iter()
        .map(|v| (v.released_at - v.ready_at).max(0.0))
        .sum();

    // Parallelism profile via an event sweep over task intervals.
    let mut events: Vec<(f64, i32)> = Vec::with_capacity(report.tasks.len() * 2);
    for t in &report.tasks {
        events.push((t.start, 1));
        events.push((t.end, -1));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut depth = 0i32;
    let mut peak = 0i32;
    let mut last_t = events.first().map_or(0.0, |e| e.0);
    let mut area = 0.0;
    for (t, d) in events {
        area += depth as f64 * (t - last_t);
        depth += d;
        peak = peak.max(depth);
        last_t = t;
    }
    // Degenerate inputs (an empty report, VMs with zero charged time, a
    // zero-span run) must yield finite zeros, never NaN or ±inf.
    let makespan = report.makespan;
    let per_makespan = |x: f64| if makespan > 0.0 { x / makespan } else { 0.0 };

    ExecutionMetrics {
        utilization: if total_charged > 0.0 { total_compute / total_charged } else { 0.0 },
        total_compute_time: total_compute,
        total_charged_time: total_charged,
        mean_parallelism: per_makespan(area),
        peak_parallelism: peak.max(0) as usize,
        speedup: per_makespan(total_compute),
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use crate::{simulate, SimConfig};
    use wfs_platform::{CategoryId, Platform};
    use wfs_workflow::gen::{bag_of_tasks, chain, GenConfig, BenchmarkType};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    #[test]
    fn serial_chain_has_parallelism_one() {
        let wf = chain(5, 200.0, 0.0);
        let p = paper();
        let mut s = Schedule::new(wf.task_count());
        let vm = s.add_vm(CategoryId(0));
        for &t in wf.topological_order() {
            s.assign(t, vm);
        }
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        let m = metrics(&r);
        assert_eq!(m.peak_parallelism, 1);
        assert!(m.mean_parallelism <= 1.0 + 1e-9);
        assert!((m.speedup - m.mean_parallelism).abs() < 1e-9);
        // Back-to-back tasks, no transfers: utilization near 1.
        assert!(m.utilization > 0.95, "{m:?}");
    }

    #[test]
    fn parallel_bag_has_high_parallelism() {
        let wf = bag_of_tasks(8, 2000.0, 0.0);
        let p = paper();
        let mut s = Schedule::new(wf.task_count());
        for t in wf.task_ids() {
            let vm = s.add_vm(CategoryId(0));
            s.assign(t, vm);
        }
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        let m = metrics(&r);
        assert_eq!(m.peak_parallelism, 8);
        assert!(m.mean_parallelism > 4.0, "{m:?}");
        assert!(m.speedup > 4.0);
    }

    #[test]
    fn compute_time_matches_task_intervals() {
        let wf = BenchmarkType::Montage.generate(GenConfig::new(30, 1));
        let p = paper();
        let mut s = Schedule::new(wf.task_count());
        let vm = s.add_vm(CategoryId(1));
        for &t in wf.topological_order() {
            s.assign(t, vm);
        }
        let r = simulate(&wf, &p, &s, &SimConfig::stochastic(3)).unwrap();
        let m = metrics(&r);
        let direct: f64 = r.tasks.iter().map(|t| t.end - t.start).sum();
        assert!((m.total_compute_time - direct).abs() < 1e-9);
        assert!(m.total_charged_time >= m.total_compute_time - 1e-9);
        assert!(m.utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn empty_report_yields_finite_zeros() {
        let r = SimulationReport {
            makespan: 0.0,
            vm_cost: 0.0,
            datacenter_cost: 0.0,
            total_cost: 0.0,
            vms_used: 0,
            tasks: Vec::new(),
            vms: Vec::new(),
        };
        let m = metrics(&r);
        assert_eq!(m.utilization, 0.0);
        assert_eq!(m.total_compute_time, 0.0);
        assert_eq!(m.total_charged_time, 0.0);
        assert_eq!(m.mean_parallelism, 0.0);
        assert_eq!(m.peak_parallelism, 0);
        assert_eq!(m.speedup, 0.0);
    }

    #[test]
    fn zero_charged_time_vm_yields_finite_metrics() {
        // A VM released the instant it became ready (e.g. an abandoned
        // boot) contributes zero charged seconds; nothing may divide by it.
        let r = SimulationReport {
            makespan: 0.0,
            vm_cost: 0.0,
            datacenter_cost: 0.0,
            total_cost: 0.0,
            vms_used: 1,
            tasks: Vec::new(),
            vms: vec![crate::report::VmUsage {
                vm: crate::VmId(0),
                category: CategoryId(0),
                booked_at: 0.0,
                ready_at: 10.0,
                released_at: 10.0,
                cost: 0.0,
                tasks_run: 0,
            }],
        };
        let m = metrics(&r);
        assert!(m.utilization.is_finite());
        assert_eq!(m.utilization, 0.0);
        assert_eq!(m.mean_parallelism, 0.0);
        assert!(m.speedup.is_finite());
    }
}
