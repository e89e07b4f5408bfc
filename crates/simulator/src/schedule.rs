//! Schedules: the mapping produced by a scheduling algorithm and consumed by
//! the simulator.

use serde::{Deserialize, Serialize};
use wfs_platform::{CategoryId, Platform};
use wfs_workflow::{TaskId, Workflow};

/// Identifier of a VM *instance* enrolled by a schedule (dense indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VmId(pub u32);

impl VmId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Errors raised by schedule validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A task has no VM assignment.
    Unassigned(TaskId),
    /// A task appears in the order list of a VM it is not assigned to, or
    /// appears twice.
    InconsistentOrder(TaskId),
    /// The combination of DAG precedence and per-VM execution orders admits
    /// no valid execution (circular wait across VMs).
    Deadlock,
    /// A VM id out of range was referenced.
    UnknownVm(VmId),
    /// The assignment list does not hold exactly one entry per task.
    AssignmentLength {
        /// Entries in the assignment list.
        len: usize,
        /// Tasks in the workflow.
        tasks: usize,
    },
    /// The order lists do not number exactly one per enrolled VM.
    OrderLength {
        /// Order lists.
        len: usize,
        /// Enrolled VMs.
        vms: usize,
    },
    /// A VM is of a category the platform does not have.
    UnknownCategory {
        /// The VM.
        vm: VmId,
        /// Its category.
        category: CategoryId,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Unassigned(t) => write!(f, "task {t} has no VM assignment"),
            ScheduleError::InconsistentOrder(t) => {
                write!(f, "task {t} order entry inconsistent with its assignment")
            }
            ScheduleError::Deadlock => write!(f, "schedule deadlocks (cross-VM circular wait)"),
            ScheduleError::UnknownVm(v) => write!(f, "unknown VM {v}"),
            ScheduleError::AssignmentLength { len, tasks } => {
                write!(f, "assignment lists {len} tasks but the workflow has {tasks}")
            }
            ScheduleError::OrderLength { len, vms } => {
                write!(f, "{len} order lists for {vms} VMs")
            }
            ScheduleError::UnknownCategory { vm, category } => {
                write!(f, "{vm} is of VM category {}, which the platform does not have", category.0)
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A complete schedule: the set of enrolled VM instances (each of a given
/// category), the task→VM assignment, and the execution order on each VM.
///
/// Built incrementally by scheduling algorithms via [`Schedule::new`],
/// [`Schedule::add_vm`] and [`Schedule::assign`]; [`Schedule::validate`]
/// checks it is executable before simulation.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Category of each enrolled VM instance, indexed by [`VmId`].
    vms: Vec<CategoryId>,
    /// Assignment of each task, indexed by [`TaskId`].
    assignment: Vec<Option<VmId>>,
    /// Execution order on each VM, indexed by [`VmId`].
    order: Vec<Vec<TaskId>>,
}

impl Clone for Schedule {
    fn clone(&self) -> Self {
        Self {
            vms: self.vms.clone(),
            assignment: self.assignment.clone(),
            order: self.order.clone(),
        }
    }

    /// Copy `source` into `self`'s buffers, each VM's order included, so a
    /// copy no larger than an earlier one allocates nothing (a derived
    /// `clone_from` would allocate every buffer anew).
    fn clone_from(&mut self, source: &Self) {
        self.vms.clone_from(&source.vms);
        self.assignment.clone_from(&source.assignment);
        self.order.clone_from(&source.order);
    }
}

/// Scratch buffers of [`Schedule::validate_with`], kept by callers that
/// validate many schedules of one workflow.
#[derive(Debug, Default)]
pub(crate) struct ValidateScratch {
    seen: Vec<bool>,
    indeg: Vec<usize>,
    order_succ: Vec<Option<TaskId>>,
    queue: Vec<TaskId>,
}

/// Refill `buf` with `len` copies of `value`, reusing its allocation.
pub(crate) fn refill<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

impl Schedule {
    /// An empty schedule for a workflow of `n_tasks` tasks.
    pub fn new(n_tasks: usize) -> Self {
        Self { vms: Vec::new(), assignment: vec![None; n_tasks], order: Vec::new() }
    }

    /// Enroll a new VM instance of the given category; returns its id.
    pub fn add_vm(&mut self, category: CategoryId) -> VmId {
        let id = VmId(self.vms.len() as u32);
        self.vms.push(category);
        self.order.push(Vec::new());
        id
    }

    /// Append `task` to the execution order of `vm` and record the
    /// assignment. Panics if the task is already assigned (algorithms assign
    /// each task exactly once; re-mapping goes through [`Schedule::reassign`]).
    pub fn assign(&mut self, task: TaskId, vm: VmId) {
        assert!(
            self.assignment[task.index()].is_none(),
            "task {task} assigned twice; use reassign to move it"
        );
        self.assignment[task.index()] = Some(vm);
        self.order[vm.index()].push(task);
    }

    /// Move `task` onto `vm` (the refinement algorithms' tentative move):
    /// out of its current VM's order, and into `vm`'s after every task
    /// whose `key` is at most its own. On orders sorted by `key` this is
    /// the order that appending `task` and stably sorting every order
    /// would give, but only the two orders involved are touched.
    pub fn reassign<K: Ord>(&mut self, task: TaskId, vm: VmId, key: impl Fn(TaskId) -> K) {
        if let Some(old) = self.assignment[task.index()] {
            self.order[old.index()].retain(|&t| t != task);
        }
        self.assignment[task.index()] = Some(vm);
        let order = &mut self.order[vm.index()];
        let k = key(task);
        let at = order.partition_point(|&t| key(t) <= k);
        order.insert(at, task);
    }

    /// Re-sort every VM's execution order by a task key (typically the HEFT
    /// priority rank), keeping schedules executable after reassignments.
    ///
    /// The key must be totally ordered (`Ord`); float keys should be wrapped
    /// in a total-order adapter such as `wfs_workflow::OrdF64` so a NaN rank
    /// cannot make the sort non-deterministic.
    pub fn sort_orders_by<K: Ord>(&mut self, key: impl Fn(TaskId) -> K) {
        for ord in &mut self.order {
            ord.sort_by_key(|&t| key(t));
        }
    }

    /// Drop enrolled VMs that ended up with no tasks, remapping ids densely.
    /// Refinements can empty a VM; pruning keeps reports meaningful.
    pub fn prune_empty_vms(&mut self) {
        let mut remap: Vec<Option<VmId>> = Vec::with_capacity(self.vms.len());
        let mut new_vms = Vec::new();
        let mut new_order = Vec::new();
        for (i, ord) in self.order.iter().enumerate() {
            if ord.is_empty() {
                remap.push(None);
            } else {
                remap.push(Some(VmId(new_vms.len() as u32)));
                new_vms.push(self.vms[i]);
                new_order.push(ord.clone());
            }
        }
        for a in &mut self.assignment {
            if let Some(vm) = a {
                #[allow(clippy::expect_used)] // this VM holds `a`, so it was kept
                let new_id = remap[vm.index()].expect("assigned VM cannot be empty");
                *a = Some(new_id);
            }
        }
        self.vms = new_vms;
        self.order = new_order;
    }

    /// Number of enrolled VM instances.
    #[inline]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Category of a VM instance.
    #[inline]
    pub fn vm_category(&self, vm: VmId) -> CategoryId {
        self.vms[vm.index()]
    }

    /// Ids of all enrolled VMs.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        (0..self.vms.len() as u32).map(VmId)
    }

    /// Categories of all enrolled VMs, indexed by VM id. Lets hot loops
    /// iterate VM metadata without a per-VM method call.
    #[inline]
    pub fn vm_categories(&self) -> &[CategoryId] {
        &self.vms
    }

    /// The VM a task is assigned to, if any.
    #[inline]
    pub fn assignment(&self, task: TaskId) -> Option<VmId> {
        self.assignment[task.index()]
    }

    /// The execution order on a VM.
    #[inline]
    pub fn order(&self, vm: VmId) -> &[TaskId] {
        &self.order[vm.index()]
    }

    /// Number of VMs that actually host at least one task.
    pub fn used_vm_count(&self) -> usize {
        self.order.iter().filter(|o| !o.is_empty()).count()
    }

    /// Validate that the schedule can execute `wf`: one assignment per
    /// task and one order list per VM, every task assigned, orders
    /// consistent, and the union of DAG precedence and per-VM order
    /// constraints acyclic.
    pub fn validate(&self, wf: &Workflow) -> Result<(), ScheduleError> {
        self.validate_with(wf, &mut ValidateScratch::default())
    }

    /// [`Schedule::validate`] in `scratch`'s buffers.
    pub(crate) fn validate_with(
        &self,
        wf: &Workflow,
        scratch: &mut ValidateScratch,
    ) -> Result<(), ScheduleError> {
        let n = wf.task_count();
        if self.assignment.len() != n {
            return Err(ScheduleError::AssignmentLength { len: self.assignment.len(), tasks: n });
        }
        if self.order.len() != self.vms.len() {
            return Err(ScheduleError::OrderLength { len: self.order.len(), vms: self.vms.len() });
        }
        for t in wf.task_ids() {
            match self.assignment[t.index()] {
                None => return Err(ScheduleError::Unassigned(t)),
                Some(vm) if vm.index() >= self.vms.len() => {
                    return Err(ScheduleError::UnknownVm(vm))
                }
                Some(_) => {}
            }
        }
        // Each task appears exactly once, on the VM it is assigned to.
        let ValidateScratch { seen, indeg, order_succ, queue } = scratch;
        refill(seen, n, false);
        let mut placed = 0;
        for (vm_idx, ord) in self.order.iter().enumerate() {
            for &t in ord {
                if t.index() >= n
                    || seen[t.index()]
                    || self.assignment[t.index()] != Some(VmId(vm_idx as u32))
                {
                    return Err(ScheduleError::InconsistentOrder(t));
                }
                seen[t.index()] = true;
                placed += 1;
            }
        }
        // The entries are distinct tasks, so fewer than n leave one out.
        if placed < n {
            if let Some(idx) = seen.iter().position(|&s| !s) {
                return Err(ScheduleError::InconsistentOrder(TaskId(idx as u32)));
            }
        }
        // Deadlock check: topological sort of DAG edges + per-VM order edges.
        // Each task appears once in the orders, so it has at most one
        // order successor.
        indeg.clear();
        indeg.extend(wf.task_ids().map(|t| wf.in_edges(t).len()));
        refill(order_succ, n, None);
        for ord in &self.order {
            for w in ord.windows(2) {
                order_succ[w[0].index()] = Some(w[1]);
                indeg[w[1].index()] += 1;
            }
        }
        queue.clear();
        queue.reserve(n);
        queue.extend(wf.task_ids().filter(|t| indeg[t.index()] == 0));
        let mut visited = 0usize;
        while let Some(t) = queue.pop() {
            visited += 1;
            for s in wf.successors(t).chain(order_succ[t.index()]) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        if visited != n {
            return Err(ScheduleError::Deadlock);
        }
        Ok(())
    }

    /// Check that every VM's category exists on `platform`. A deserialized
    /// schedule can name any category; the simulator runs this before
    /// looking one up.
    pub fn check_categories(&self, platform: &Platform) -> Result<(), ScheduleError> {
        let k = platform.category_count();
        match self.vm_ids().zip(&self.vms).find(|(_, c)| c.index() >= k) {
            Some((vm, &category)) => Err(ScheduleError::UnknownCategory { vm, category }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_workflow::gen::{chain, fork_join};
    use wfs_workflow::StochasticWeight;
    use wfs_workflow::WorkflowBuilder;

    fn cat(i: u32) -> CategoryId {
        CategoryId(i)
    }

    #[test]
    fn build_and_query() {
        let wf = chain(3, 10.0, 1e6);
        let mut s = Schedule::new(wf.task_count());
        let v0 = s.add_vm(cat(0));
        let v1 = s.add_vm(cat(2));
        s.assign(TaskId(0), v0);
        s.assign(TaskId(1), v1);
        s.assign(TaskId(2), v0);
        assert_eq!(s.vm_count(), 2);
        assert_eq!(s.used_vm_count(), 2);
        assert_eq!(s.assignment(TaskId(1)), Some(v1));
        assert_eq!(s.order(v0), &[TaskId(0), TaskId(2)]);
        assert_eq!(s.vm_category(v1), cat(2));
        s.validate(&wf).unwrap();
    }

    #[test]
    fn unassigned_task_detected() {
        let wf = chain(2, 10.0, 1e6);
        let mut s = Schedule::new(wf.task_count());
        let v0 = s.add_vm(cat(0));
        s.assign(TaskId(0), v0);
        assert_eq!(s.validate(&wf).unwrap_err(), ScheduleError::Unassigned(TaskId(1)));
    }

    #[test]
    fn list_lengths_are_checked_before_indexing() {
        let wf = chain(3, 10.0, 1e6);
        let mut s = Schedule::new(wf.task_count());
        let v0 = s.add_vm(cat(0));
        for t in wf.task_ids() {
            s.assign(t, v0);
        }
        s.validate(&wf).unwrap();
        let mut short = s.clone();
        short.assignment.truncate(2);
        assert_eq!(
            short.validate(&wf).unwrap_err(),
            ScheduleError::AssignmentLength { len: 2, tasks: 3 }
        );
        let mut extra_vm = s.clone();
        extra_vm.vms.push(cat(1));
        assert_eq!(extra_vm.validate(&wf).unwrap_err(), ScheduleError::OrderLength { len: 1, vms: 2 });
    }

    #[test]
    fn categories_are_checked_against_the_platform() {
        let p = Platform::paper_default();
        let mut s = Schedule::new(1);
        s.add_vm(cat(2));
        assert_eq!(s.check_categories(&p), Ok(()));
        s.add_vm(cat(3));
        let err = s.check_categories(&p).unwrap_err();
        assert_eq!(err, ScheduleError::UnknownCategory { vm: VmId(1), category: cat(3) });
        assert_eq!(err.to_string(), "vm1 is of VM category 3, which the platform does not have");
    }

    #[test]
    fn deadlock_detected() {
        // a -> b on VM0; c -> d on VM1; order forces b before ... build a
        // cross wait: VM0 runs [b, c_pred] etc. Simplest: two independent
        // 2-chains, each VM interleaves them in opposite orders.
        let mut b = WorkflowBuilder::new("dl");
        let a1 = b.add_task("a1", StochasticWeight::fixed(1.0));
        let a2 = b.add_task("a2", StochasticWeight::fixed(1.0));
        let c1 = b.add_task("c1", StochasticWeight::fixed(1.0));
        let c2 = b.add_task("c2", StochasticWeight::fixed(1.0));
        b.add_edge(a1, a2, 0.0).unwrap();
        b.add_edge(c1, c2, 0.0).unwrap();
        let wf = b.build().unwrap();
        let mut s = Schedule::new(wf.task_count());
        let v0 = s.add_vm(cat(0));
        let v1 = s.add_vm(cat(0));
        // VM0 runs a2 then c1; VM1 runs c2 then a1: a1 waits VM1 slot after
        // c2, c2 waits c1, c1 waits VM0 slot after a2, a2 waits a1. Cycle.
        s.assign(a2, v0);
        s.assign(c1, v0);
        s.assign(c2, v1);
        s.assign(a1, v1);
        assert_eq!(s.validate(&wf).unwrap_err(), ScheduleError::Deadlock);
    }

    #[test]
    fn reassign_moves_between_orders() {
        let wf = fork_join(2, 5.0, 1e6);
        let mut s = Schedule::new(wf.task_count());
        let v0 = s.add_vm(cat(0));
        let v1 = s.add_vm(cat(1));
        for t in wf.task_ids() {
            s.assign(t, v0);
        }
        s.validate(&wf).unwrap();
        // Keyed by task id, which is topological for fork_join: each move
        // lands at its sorted place, so the orders stay executable.
        s.reassign(TaskId(2), v1, |t| t.0);
        s.reassign(TaskId(1), v1, |t| t.0);
        s.validate(&wf).unwrap();
        assert_eq!(s.assignment(TaskId(1)), Some(v1));
        assert_eq!(s.order(v1), &[TaskId(1), TaskId(2)]);
        assert_eq!(s.order(v0), &[TaskId(0), TaskId(3)]);
        // Moving back restores the original order.
        s.reassign(TaskId(1), v0, |t| t.0);
        s.reassign(TaskId(2), v0, |t| t.0);
        assert_eq!(s.order(v0), &[TaskId(0), TaskId(1), TaskId(2), TaskId(3)]);
        assert!(s.order(v1).is_empty());
    }

    #[test]
    fn clone_from_reuses_buffers_and_equals_clone() {
        let wf = fork_join(3, 5.0, 1e6);
        let mut big = Schedule::new(wf.task_count());
        let v0 = big.add_vm(cat(0));
        let v1 = big.add_vm(cat(1));
        for t in wf.task_ids() {
            big.assign(t, if t.0 % 2 == 0 { v0 } else { v1 });
        }
        let mut small = Schedule::new(wf.task_count());
        let only = small.add_vm(cat(2));
        for t in wf.task_ids() {
            small.assign(t, only);
        }
        let mut copy = big.clone();
        copy.clone_from(&small);
        assert_eq!(copy, small);
        copy.clone_from(&big);
        assert_eq!(copy, big);
    }

    #[test]
    fn prune_empty_vms_remaps_ids() {
        let wf = chain(2, 5.0, 1e6);
        let mut s = Schedule::new(wf.task_count());
        let _v0 = s.add_vm(cat(0));
        let v1 = s.add_vm(cat(1));
        let _v2 = s.add_vm(cat(2));
        s.assign(TaskId(0), v1);
        s.assign(TaskId(1), v1);
        s.prune_empty_vms();
        assert_eq!(s.vm_count(), 1);
        assert_eq!(s.assignment(TaskId(0)), Some(VmId(0)));
        assert_eq!(s.vm_category(VmId(0)), cat(1));
        s.validate(&wf).unwrap();
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn double_assign_panics() {
        let wf = chain(1, 5.0, 1e6);
        let mut s = Schedule::new(wf.task_count());
        let v0 = s.add_vm(cat(0));
        s.assign(TaskId(0), v0);
        s.assign(TaskId(0), v0);
    }

    #[test]
    fn serde_roundtrip() {
        let wf = chain(2, 5.0, 1e6);
        let mut s = Schedule::new(wf.task_count());
        let v0 = s.add_vm(cat(1));
        s.assign(TaskId(0), v0);
        s.assign(TaskId(1), v0);
        let json = serde_json::to_string(&s).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
