//! Structural analyses over workflows: BFS levels (BDT), bottom levels /
//! upward ranks (HEFT), and summary statistics.

use crate::graph::Workflow;
use crate::task::TaskId;

/// Partition the tasks into *levels*: level of `t` = length of the longest
/// path from any entry task to `t` (0 for entries). Tasks in one level are
/// pairwise independent. This is the decomposition BDT schedules by
/// (paper §V-D1 step (i)).
pub fn levels(wf: &Workflow) -> Vec<Vec<TaskId>> {
    let n = wf.task_count();
    let mut depth = vec![0usize; n];
    for &t in wf.topological_order() {
        for p in wf.predecessors(t) {
            depth[t.index()] = depth[t.index()].max(depth[p.index()] + 1);
        }
    }
    let max_depth = depth.iter().copied().max().unwrap_or(0);
    let mut out = vec![Vec::new(); max_depth + 1];
    for t in wf.task_ids() {
        out[depth[t.index()]].push(t);
    }
    out
}

/// Bottom levels (HEFT upward ranks):
///
/// `rank(T) = w_T / speed + max over successors S of (size(T,S)/bw + rank(S))`
///
/// `w_T` is the conservative weight `w̄ + σ` the budget-aware algorithms
/// plan with, `speed` the mean VM speed `s̄` and `bw` the datacenter
/// bandwidth, so ranks are in seconds. HEFT and HEFTBUDG schedule tasks by
/// non-increasing rank (paper §IV, \[24\]).
pub fn bottom_levels(wf: &Workflow, speed: f64, bw: f64) -> Vec<f64> {
    assert!(speed > 0.0 && bw > 0.0, "speed and bandwidth must be positive");
    let mut rank = vec![0.0f64; wf.task_count()];
    for &t in wf.topological_order().iter().rev() {
        let exec = wf.task(t).weight.conservative() / speed;
        let mut tail: f64 = 0.0;
        for &e in wf.out_edges(t) {
            let edge = wf.edge(e);
            tail = tail.max(edge.size / bw + rank[edge.to.index()]);
        }
        rank[t.index()] = exec + tail;
    }
    rank
}

/// Task ids ordered by non-increasing bottom level — the `ListT` priority
/// list of HEFT/HEFTBUDG. Ties break on task id for determinism.
pub fn heft_order(wf: &Workflow, speed: f64, bw: f64) -> Vec<TaskId> {
    let rank = bottom_levels(wf, speed, bw);
    let mut ids: Vec<TaskId> = wf.task_ids().collect();
    // `total_cmp`, not `partial_cmp(..).unwrap()`: a degenerate workflow
    // (e.g. zero total weight feeding a 0/0 in a budget share) can make
    // ranks NaN, and the order must stay total and deterministic.
    ids.sort_by(|a, b| rank[b.index()].total_cmp(&rank[a.index()]).then(a.0.cmp(&b.0)));
    ids
}

/// Summary statistics of a workflow's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of edges.
    pub edges: usize,
    /// Number of levels (longest path length + 1).
    pub depth: usize,
    /// Maximum level population (degree of parallelism).
    pub width: usize,
    /// Number of entry tasks.
    pub entries: usize,
    /// Number of exit tasks.
    pub exits: usize,
    /// Total mean work (Gflop).
    pub total_work: f64,
    /// Total intra-workflow data (bytes).
    pub total_data: f64,
    /// Communication-to-computation ratio: bytes per unit of work.
    pub ccr: f64,
}

/// Compute [`WorkflowStats`].
pub fn stats(wf: &Workflow) -> WorkflowStats {
    let lv = levels(wf);
    let total_work = wf.total_mean_work();
    let total_data = wf.total_edge_data();
    WorkflowStats {
        tasks: wf.task_count(),
        edges: wf.edge_count(),
        depth: lv.len(),
        width: lv.iter().map(Vec::len).max().unwrap_or(0),
        entries: wf.entry_tasks().count(),
        exits: wf.exit_tasks().count(),
        total_work,
        total_data,
        ccr: if total_work > 0.0 { total_data / total_work } else { 0.0 },
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use crate::graph::WorkflowBuilder;
    use crate::task::StochasticWeight;

    fn w(mean: f64) -> StochasticWeight {
        StochasticWeight::fixed(mean)
    }

    /// a(1) -> b(2) -> d(4); a -> c(8) -> d. Edges all 10 bytes.
    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.add_task("a", w(1.0));
        let t1 = b.add_task("b", w(2.0));
        let t2 = b.add_task("c", w(8.0));
        let d = b.add_task("d", w(4.0));
        for (f, t) in [(a, t1), (a, t2), (t1, d), (t2, d)] {
            b.add_edge(f, t, 10.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn levels_of_diamond() {
        let wf = diamond();
        let lv = levels(&wf);
        assert_eq!(lv.len(), 3);
        assert_eq!(lv[0], vec![TaskId(0)]);
        assert_eq!(lv[1], vec![TaskId(1), TaskId(2)]);
        assert_eq!(lv[2], vec![TaskId(3)]);
    }

    #[test]
    fn bottom_levels_unit_speed_no_comm() {
        let wf = diamond();
        // speed 1, bandwidth huge => pure compute ranks.
        let r = bottom_levels(&wf, 1.0, 1e18);
        assert!((r[3] - 4.0).abs() < 1e-9);
        assert!((r[1] - 6.0).abs() < 1e-9);
        assert!((r[2] - 12.0).abs() < 1e-9);
        assert!((r[0] - 13.0).abs() < 1e-9);
    }

    #[test]
    fn bottom_levels_include_transfers() {
        let wf = diamond();
        // speed 1, bw 10 bytes/s => each edge adds 1 s.
        let r = bottom_levels(&wf, 1.0, 10.0);
        assert!((r[3] - 4.0).abs() < 1e-9);
        assert!((r[2] - (8.0 + 1.0 + 4.0)).abs() < 1e-9);
        assert!((r[0] - (1.0 + 1.0 + 13.0)).abs() < 1e-9);
    }

    #[test]
    fn heft_order_is_descending_rank() {
        let wf = diamond();
        let order = heft_order(&wf, 1.0, 1e18);
        assert_eq!(order, vec![TaskId(0), TaskId(2), TaskId(1), TaskId(3)]);
    }

    #[test]
    fn heft_order_respects_precedence() {
        // For any DAG, sorting by bottom level is a valid topological order
        // when all edge costs are non-negative.
        let wf = diamond();
        let order = heft_order(&wf, 2.0, 100.0);
        let mut pos = vec![0; wf.task_count()];
        for (i, t) in order.iter().enumerate() {
            pos[t.index()] = i;
        }
        for e in wf.edges() {
            assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn ranks_use_mean_plus_sigma() {
        // σ = mean doubles every conservative weight w̄ + σ, and with free
        // transfers every rank doubles against the σ = 0 diamond.
        let r_fixed = bottom_levels(&diamond(), 1.0, 1e18);
        let r_sigma = bottom_levels(&diamond().with_sigma_ratio(1.0), 1.0, 1e18);
        for (f, s) in r_fixed.iter().zip(&r_sigma) {
            assert!((s - 2.0 * f).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_of_diamond() {
        let wf = diamond();
        let s = stats(&wf);
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.depth, 3);
        assert_eq!(s.width, 2);
        assert_eq!(s.entries, 1);
        assert_eq!(s.exits, 1);
        assert!((s.total_work - 15.0).abs() < 1e-9);
        assert!((s.total_data - 40.0).abs() < 1e-9);
    }

    /// Regression: a zero-weight workflow used to panic in `heft_order`
    /// once a NaN rank appeared. The NaN arises exactly as
    /// in the paper's budget split (Eq. 5–6): a per-task share `w_i / W`
    /// with total work `W = 0` is `0.0 / 0.0`. The analyses must stay
    /// panic-free and deterministic.
    #[test]
    fn nan_ranks_from_zero_weight_workflow_do_not_panic() {
        let total_work: f64 = 0.0; // zero-weight workflow
        let share = 0.0 / total_work; // Eq. 5 share: 0/0 = NaN
        assert!(share.is_nan());
        // Bypass the constructor assert the way a buggy caller would: the
        // fields are public, and upstream arithmetic can hand over a NaN.
        let w = StochasticWeight { mean: share, std_dev: 0.0 };
        let mut b = WorkflowBuilder::new("zero");
        let a = b.add_task("a", w);
        let c = b.add_task("c", w);
        let d = b.add_task("d", w);
        b.add_edge(a, c, 0.0).unwrap();
        b.add_edge(a, d, 0.0).unwrap();
        let wf = b.build().unwrap();
        let ranks = bottom_levels(&wf, 1.0, 1.0);
        assert!(ranks.iter().all(|r| r.is_nan()), "0/0 weights make every rank NaN");
        // Before the total_cmp migration this panicked.
        let o1 = heft_order(&wf, 1.0, 1.0);
        let o2 = heft_order(&wf, 1.0, 1.0);
        assert_eq!(o1, o2, "NaN ranks still give a deterministic order");
        assert_eq!(o1.len(), 3);
    }

    #[test]
    fn chain_has_width_one() {
        let mut b = WorkflowBuilder::new("chain");
        let mut prev = b.add_task("t0", w(1.0));
        for i in 1..5 {
            let t = b.add_task(format!("t{i}"), w(1.0));
            b.add_edge(prev, t, 1.0).unwrap();
            prev = t;
        }
        let wf = b.build().unwrap();
        let s = stats(&wf);
        assert_eq!(s.depth, 5);
        assert_eq!(s.width, 1);
        let lv = levels(&wf);
        assert!(lv.iter().all(|l| l.len() == 1));
    }
}
