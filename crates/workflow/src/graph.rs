//! The workflow DAG: tasks, data dependencies, and structural queries.

use crate::task::{StochasticWeight, Task, TaskId};
use serde::{Deserialize, Serialize};

/// Index of an edge inside a [`Workflow`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A data dependency `(T_i, T_j)`: `to` may start only after `from` completed
/// and `size` bytes produced by `from` are available on the host of `to`
/// (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Producer task.
    pub from: TaskId,
    /// Consumer task.
    pub to: TaskId,
    /// Bytes transferred, `size(d_{T_i,T_j})`.
    pub size: f64,
}

/// Errors raised while building or validating a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// An edge references a task id that does not exist.
    UnknownTask(TaskId),
    /// An edge connects a task to itself.
    SelfLoop(TaskId),
    /// The dependency graph contains a cycle (so it is not a DAG).
    Cycle,
    /// The same (from, to) pair was added twice.
    DuplicateEdge(TaskId, TaskId),
    /// The workflow has no tasks.
    Empty,
    /// The task listed at `position` carries another id: ids must equal
    /// list positions, or edges attach to other tasks.
    TaskOutOfOrder {
        /// Index of the task in the list.
        position: usize,
        /// The id it carries.
        id: TaskId,
    },
    /// A task field is out of range: `weight.mean` must be finite and
    /// positive; `weight.std_dev`, `external_input` and `external_output`
    /// finite and non-negative; and the conservative weight
    /// `weight.mean + weight.std_dev` the planners use finite.
    InvalidTaskField {
        /// The offending task.
        task: TaskId,
        /// The field, as named in the JSON format.
        field: &'static str,
    },
    /// An edge's `size` is negative or not finite.
    InvalidEdgeSize(TaskId, TaskId),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::UnknownTask(t) => write!(f, "edge references unknown task {t}"),
            WorkflowError::SelfLoop(t) => write!(f, "self-loop on task {t}"),
            WorkflowError::Cycle => write!(f, "dependency graph contains a cycle"),
            WorkflowError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            WorkflowError::Empty => write!(f, "workflow has no tasks"),
            WorkflowError::TaskOutOfOrder { position, id } => {
                write!(f, "task at position {position} has id {id}; ids must equal positions")
            }
            WorkflowError::InvalidTaskField { task, field } => {
                let bound = if field.starts_with("weight.mean") { "> 0" } else { ">= 0" };
                write!(f, "task {task}: {field} must be finite and {bound}")
            }
            WorkflowError::InvalidEdgeSize(a, b) => {
                write!(f, "edge {a} -> {b}: size must be finite and >= 0")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

/// A scientific workflow: a DAG `G = (V, E)` of tasks with stochastic
/// weights and data-transfer edges (paper §III-A).
///
/// Construction goes through [`WorkflowBuilder`], which rejects repeated
/// edges and cycles; a `Workflow` is therefore always a well-formed
/// non-empty DAG. Its JSON form ([`Workflow::to_json`]) is the builder's
/// input only.
#[derive(Debug, Clone)]
pub struct Workflow {
    /// Workflow name (e.g. `MONTAGE-90-i2`).
    pub name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    /// Per task: incoming edge ids (predecessors), in edge-id order.
    preds: Groups<EdgeId>,
    /// Per task: outgoing edge ids (successors), in edge-id order.
    succs: Groups<EdgeId>,
    /// A fixed topological order of the task ids.
    topo: Vec<TaskId>,
}

impl Workflow {
    /// Number of tasks `n`.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of dependency edges `e`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All tasks, indexed by `TaskId`.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All edges, indexed by `EdgeId`.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The task with the given id.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Ids of all tasks in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Incoming edges of `t` (one per predecessor).
    #[inline]
    pub fn in_edges(&self, t: TaskId) -> &[EdgeId] {
        self.preds.of(t.0)
    }

    /// Outgoing edges of `t` (one per successor).
    #[inline]
    pub fn out_edges(&self, t: TaskId) -> &[EdgeId] {
        self.succs.of(t.0)
    }

    /// Predecessor task ids of `t`.
    pub fn predecessors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.in_edges(t).iter().map(|&e| self.edges[e.index()].from)
    }

    /// Successor task ids of `t`.
    pub fn successors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.out_edges(t).iter().map(|&e| self.edges[e.index()].to)
    }

    /// Tasks with no predecessors.
    pub fn entry_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids().filter(|&t| self.in_edges(t).is_empty())
    }

    /// Tasks with no successors.
    pub fn exit_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids().filter(|&t| self.out_edges(t).is_empty())
    }

    /// A topological order of the tasks (fixed at construction; Kahn order
    /// with FIFO tie-breaking, so it is deterministic).
    #[inline]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Total volume of input data of `t` from all its predecessors,
    /// `size(d_pred,T)` (paper Eq. 6).
    pub fn pred_data_size(&self, t: TaskId) -> f64 {
        self.in_edges(t).iter().map(|&e| self.edges[e.index()].size).sum()
    }

    /// Total volume of data within the workflow, `d_max = Σ size(d_{T',T})`.
    pub fn total_edge_data(&self) -> f64 {
        self.edges.iter().map(|e| e.size).sum()
    }

    /// Sum of conservative task weights `Σ (w̄_i + σ_i)` — the `W_max`
    /// aggregate used when sizing the whole-workflow budget (paper Eq. 5).
    pub fn total_conservative_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.weight.conservative()).sum()
    }

    /// Sum of mean task weights `Σ w̄_i`.
    pub fn total_mean_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.weight.mean).sum()
    }

    /// `size(d_in,DC)`: bytes entering the platform from the outside world.
    pub fn external_input_data(&self) -> f64 {
        self.tasks.iter().map(|t| t.external_input).sum()
    }

    /// `size(d_DC,out)`: bytes leaving the platform to the outside world.
    pub fn external_output_data(&self) -> f64 {
        self.tasks.iter().map(|t| t.external_output).sum()
    }

    /// Rescale every task's standard deviation to `ratio * mean` (the paper
    /// derives 4 stochastic variants of each benchmark DAG this way, §V-A).
    pub fn with_sigma_ratio(mut self, ratio: f64) -> Self {
        for t in &mut self.tasks {
            t.weight = t.weight.with_sigma_ratio(ratio);
        }
        self
    }

    /// Serialize to pretty JSON: an object holding exactly `name`, `tasks`
    /// and `edges`, the builder's input. [`Workflow::from_json`] derives the
    /// adjacency and the topological order again.
    #[allow(clippy::expect_used)] // plain-old-data tree: serialization is infallible
    pub fn to_json(&self) -> String {
        let Workflow { name, tasks, edges, .. } = self;
        let file = serde_json::json!({"name": name, "tasks": tasks, "edges": edges});
        serde_json::to_string_pretty(&file).expect("workflow serialization cannot fail")
    }

    /// Deserialize from a `{name, tasks, edges}` object, re-validating the
    /// DAG structure, the task ids and every weight and byte count. Other
    /// keys are ignored, so files that also list `preds`, `succs` and
    /// `topo` still load.
    pub fn from_json(s: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let file: WorkflowFile = serde_json::from_str(s)?;
        // Build through the builder so hand-edited files cannot smuggle in
        // cycles, dangling edges, renumbered tasks or values the planners
        // and the engine cannot work with.
        let mut b = WorkflowBuilder::new(file.name);
        for (position, t) in file.tasks.into_iter().enumerate() {
            if t.id.index() != position {
                return Err(WorkflowError::TaskOutOfOrder { position, id: t.id }.into());
            }
            check_task_fields(&t)?;
            b.add_task_full(t);
        }
        for e in &file.edges {
            b.add_edge(e.from, e.to, e.size)?;
        }
        Ok(b.build()?)
    }
}

/// A workflow file: what [`Workflow::from_json`] hands to the builder.
#[derive(Deserialize)]
struct WorkflowFile {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
}

/// The first field of `t` outside its range (see
/// [`WorkflowError::InvalidTaskField`]).
fn check_task_fields(t: &Task) -> Result<(), WorkflowError> {
    let non_negative = |x: f64| x.is_finite() && x >= 0.0;
    let fields = [
        ("weight.mean", t.weight.mean.is_finite() && t.weight.mean > 0.0),
        ("weight.std_dev", non_negative(t.weight.std_dev)),
        ("external_input", non_negative(t.external_input)),
        ("external_output", non_negative(t.external_output)),
        ("weight.mean + weight.std_dev", t.weight.conservative().is_finite()),
    ];
    match fields.into_iter().find(|&(_, ok)| !ok) {
        Some((field, _)) => Err(WorkflowError::InvalidTaskField { task: t.id, field }),
        None => Ok(()),
    }
}

/// Values grouped by a dense key: `items[start[k]..start[k + 1]]` are the
/// values of key `k`, in the order the pairs came (a stable counting sort).
#[derive(Debug, Clone)]
pub(crate) struct Groups<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> Groups<T> {
    /// Group `pairs` of `(key, value)`, every key below `keys`.
    pub(crate) fn new(keys: usize, pairs: impl Iterator<Item = (u32, T)> + Clone) -> Self {
        let mut start = vec![0; keys + 1];
        for (k, _) in pairs.clone() {
            start[k as usize + 1] += 1;
        }
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        let mut items = vec![T::default(); start[keys]];
        for (k, v) in pairs {
            items[next[k as usize]] = v;
            next[k as usize] += 1;
        }
        Self { start, items }
    }

    /// The values of key `k`.
    #[inline]
    pub(crate) fn of(&self, k: u32) -> &[T] {
        &self.items[self.start[k as usize]..self.start[k as usize + 1]]
    }
}

/// Incremental builder for [`Workflow`]. Each edge is checked as it is
/// added; repeated edges and cycles are found by [`WorkflowBuilder::build`].
#[derive(Debug, Clone)]
pub struct WorkflowBuilder {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
}

impl WorkflowBuilder {
    /// Start building a workflow with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), tasks: Vec::new(), edges: Vec::new() }
    }

    /// Add a task; its id is assigned densely in insertion order.
    pub fn add_task(&mut self, name: impl Into<String>, weight: StochasticWeight) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task::new(id, name, weight));
        id
    }

    /// Add a pre-constructed task, overwriting its id with the next dense id.
    fn add_task_full(&mut self, mut task: Task) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        task.id = id;
        self.tasks.push(task);
        id
    }

    /// Declare external input bytes for an entry task (`d_in,DC`).
    pub fn set_external_input(&mut self, t: TaskId, bytes: f64) {
        self.tasks[t.index()].external_input = bytes;
    }

    /// Declare external output bytes for an exit task (`d_DC,out`).
    pub fn set_external_output(&mut self, t: TaskId, bytes: f64) {
        self.tasks[t.index()].external_output = bytes;
    }

    /// Add a dependency edge carrying `size` bytes (finite, >= 0). A
    /// (from, to) pair added twice is rejected by [`WorkflowBuilder::build`].
    pub fn add_edge(&mut self, from: TaskId, to: TaskId, size: f64) -> Result<EdgeId, WorkflowError> {
        let n = self.tasks.len() as u32;
        if from.0 >= n {
            return Err(WorkflowError::UnknownTask(from));
        }
        if to.0 >= n {
            return Err(WorkflowError::UnknownTask(to));
        }
        if from == to {
            return Err(WorkflowError::SelfLoop(from));
        }
        if !(size.is_finite() && size >= 0.0) {
            return Err(WorkflowError::InvalidEdgeSize(from, to));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { from, to, size });
        Ok(id)
    }

    /// [`WorkflowBuilder::add_edge`] for callers that construct graphs from
    /// ids they just created (generators): structurally, such an edge cannot
    /// be rejected, so the `Result` is collapsed here — one audited panic
    /// site instead of one `unwrap()` per generator edge.
    ///
    /// # Panics
    /// If the edge is invalid after all (unknown endpoint, self-loop or bad
    /// size) — a bug in the calling generator. A repeated edge panics in
    /// [`WorkflowBuilder::build_valid`].
    #[allow(clippy::expect_used)] // single audited funnel for generator edges
    pub fn connect(&mut self, from: TaskId, to: TaskId, size: f64) -> EdgeId {
        self.add_edge(from, to, size)
            .expect("generator-constructed edges are structurally valid")
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// [`WorkflowBuilder::build`] for generators whose construction is
    /// correct by design (tasks added before edges, edges follow the shape's
    /// layering, each pair once, at least one task): collapses the `Result`
    /// in one audited place instead of a per-generator `expect()`.
    ///
    /// # Panics
    /// If the graph is empty, repeats an edge or is cyclic — a bug in the
    /// calling generator.
    #[allow(clippy::expect_used)] // single audited funnel for generator builds
    pub fn build_valid(self) -> Workflow {
        self.build().expect("generator-constructed workflows form a non-empty DAG")
    }

    /// Finish: verifies the graph is non-empty, repeats no (from, to) pair
    /// and is acyclic, and computes the adjacency and a topological order.
    /// Of several repeated pairs, the one whose second edge has the lowest
    /// id is reported.
    pub fn build(self) -> Result<Workflow, WorkflowError> {
        if self.tasks.is_empty() {
            return Err(WorkflowError::Empty);
        }
        let n = self.tasks.len();
        let task_ids = (0..n as u32).map(TaskId);
        let edges = || self.edges.iter().zip((0u32..).map(EdgeId));
        let preds = Groups::new(n, edges().map(|(e, i)| (e.to.0, i)));
        let succs = Groups::new(n, edges().map(|(e, i)| (e.from.0, i)));
        // A pair repeats when a task's in-edges name one source twice:
        // stamp each source with the last target that listed it.
        let mut listed_by = vec![u32::MAX; n];
        let mut repeat: Option<EdgeId> = None;
        for t in task_ids.clone() {
            for &e in preds.of(t.0) {
                let from = self.edges[e.index()].from.index();
                if listed_by[from] == t.0 {
                    repeat = Some(repeat.map_or(e, |r| r.min(e)));
                    break;
                }
                listed_by[from] = t.0;
            }
        }
        if let Some(e) = repeat {
            let Edge { from, to, .. } = self.edges[e.index()];
            return Err(WorkflowError::DuplicateEdge(from, to));
        }
        // Kahn's algorithm, the order itself serving as the FIFO queue:
        // deterministic topological order.
        let mut indeg: Vec<usize> = task_ids.clone().map(|t| preds.of(t.0).len()).collect();
        let mut topo = Vec::with_capacity(n);
        topo.extend(task_ids.filter(|t| indeg[t.index()] == 0));
        let mut head = 0;
        while let Some(&t) = topo.get(head) {
            head += 1;
            for &e in succs.of(t.0) {
                let v = self.edges[e.index()].to;
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    topo.push(v);
                }
            }
        }
        if topo.len() != n {
            return Err(WorkflowError::Cycle);
        }
        Ok(Workflow { name: self.name, tasks: self.tasks, edges: self.edges, preds, succs, topo })
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;

    fn w(mean: f64) -> StochasticWeight {
        StochasticWeight::fixed(mean)
    }

    /// Small diamond: a -> {b, c} -> d.
    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.add_task("a", w(1.0));
        let t1 = b.add_task("b", w(2.0));
        let t2 = b.add_task("c", w(3.0));
        let d = b.add_task("d", w(4.0));
        b.add_edge(a, t1, 10.0).unwrap();
        b.add_edge(a, t2, 20.0).unwrap();
        b.add_edge(t1, d, 30.0).unwrap();
        b.add_edge(t2, d, 40.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let wf = diamond();
        assert_eq!(wf.task_count(), 4);
        assert_eq!(wf.edge_count(), 4);
        assert_eq!(wf.entry_tasks().collect::<Vec<_>>(), vec![TaskId(0)]);
        assert_eq!(wf.exit_tasks().collect::<Vec<_>>(), vec![TaskId(3)]);
        assert_eq!(wf.predecessors(TaskId(3)).collect::<Vec<_>>(), vec![TaskId(1), TaskId(2)]);
        assert_eq!(wf.successors(TaskId(0)).collect::<Vec<_>>(), vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let wf = diamond();
        let pos: Vec<usize> = {
            let mut pos = vec![0; wf.task_count()];
            for (i, t) in wf.topological_order().iter().enumerate() {
                pos[t.index()] = i;
            }
            pos
        };
        for e in wf.edges() {
            assert!(pos[e.from.index()] < pos[e.to.index()], "edge {e:?} violated");
        }
    }

    #[test]
    fn pred_data_size_sums_incoming() {
        let wf = diamond();
        assert_eq!(wf.pred_data_size(TaskId(3)), 70.0);
        assert_eq!(wf.pred_data_size(TaskId(0)), 0.0);
        assert_eq!(wf.total_edge_data(), 100.0);
    }

    #[test]
    fn cycle_detected() {
        let mut b = WorkflowBuilder::new("cyc");
        let a = b.add_task("a", w(1.0));
        let c = b.add_task("b", w(1.0));
        b.add_edge(a, c, 0.0).unwrap();
        b.add_edge(c, a, 0.0).unwrap();
        assert_eq!(b.build().unwrap_err(), WorkflowError::Cycle);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = WorkflowBuilder::new("x");
        let a = b.add_task("a", w(1.0));
        assert_eq!(b.add_edge(a, a, 0.0).unwrap_err(), WorkflowError::SelfLoop(a));
    }

    #[test]
    fn unknown_task_rejected() {
        let mut b = WorkflowBuilder::new("x");
        let a = b.add_task("a", w(1.0));
        let ghost = TaskId(42);
        assert_eq!(b.add_edge(a, ghost, 0.0).unwrap_err(), WorkflowError::UnknownTask(ghost));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = WorkflowBuilder::new("x");
        let a = b.add_task("a", w(1.0));
        let c = b.add_task("b", w(1.0));
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(a, c, 2.0).unwrap();
        assert_eq!(b.build().unwrap_err(), WorkflowError::DuplicateEdge(a, c));
    }

    #[test]
    fn lowest_repeating_edge_is_reported() {
        // Edge ids: 0 a->d, 1 b->c, 2 a->d, 3 b->c. Both pairs repeat;
        // edge 2 repeats first, although c's in-edges are grouped before
        // d's.
        let mut b = WorkflowBuilder::new("x");
        let [ta, tb, tc, td] = ["a", "b", "c", "d"].map(|name| b.add_task(name, w(1.0)));
        for (from, to) in [(ta, td), (tb, tc), (ta, td), (tb, tc)] {
            b.add_edge(from, to, 1.0).unwrap();
        }
        assert_eq!(b.clone().build().unwrap_err(), WorkflowError::DuplicateEdge(ta, td));
        // Repeats are found before cycles, as when they were rejected on
        // insertion.
        b.add_edge(td, ta, 1.0).unwrap();
        assert_eq!(b.build().unwrap_err(), WorkflowError::DuplicateEdge(ta, td));
    }

    #[test]
    fn bad_edge_size_rejected() {
        let mut b = WorkflowBuilder::new("x");
        let a = b.add_task("a", w(1.0));
        let c = b.add_task("b", w(1.0));
        for size in [-5.0, f64::NAN, f64::INFINITY] {
            assert_eq!(b.add_edge(a, c, size).unwrap_err(), WorkflowError::InvalidEdgeSize(a, c));
        }
        // A rejected edge is not recorded: the pair can still be added.
        b.add_edge(a, c, 0.0).unwrap();
    }

    #[test]
    fn empty_workflow_rejected() {
        assert_eq!(WorkflowBuilder::new("e").build().unwrap_err(), WorkflowError::Empty);
    }

    #[test]
    fn external_io_sums() {
        let mut b = WorkflowBuilder::new("io");
        let a = b.add_task("a", w(1.0));
        let c = b.add_task("b", w(1.0));
        b.add_edge(a, c, 5.0).unwrap();
        b.set_external_input(a, 100.0);
        b.set_external_output(c, 200.0);
        let wf = b.build().unwrap();
        assert_eq!(wf.external_input_data(), 100.0);
        assert_eq!(wf.external_output_data(), 200.0);
    }

    #[test]
    fn sigma_ratio_applies_to_all_tasks() {
        let wf = diamond().with_sigma_ratio(0.25);
        for t in wf.tasks() {
            assert_eq!(t.weight.std_dev, t.weight.mean * 0.25);
        }
    }

    #[test]
    fn json_roundtrip_preserves_structure() {
        let wf = diamond();
        let back = Workflow::from_json(&wf.to_json()).unwrap();
        assert_eq!(back.task_count(), wf.task_count());
        assert_eq!(back.edge_count(), wf.edge_count());
        assert_eq!(back.topological_order(), wf.topological_order());
        // The file holds exactly the builder's input.
        let serde_json::Value::Object(fields) = serde_json::from_str(&wf.to_json()).unwrap() else {
            panic!("a workflow file is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "tasks", "edges"]);
    }

    #[test]
    fn hand_written_json_loads() {
        let json = r#"{"name": "pair",
            "tasks": [
                {"id": 0, "name": "a", "weight": {"mean": 1.0, "std_dev": 0.5},
                 "external_input": 10.0, "external_output": 0.0},
                {"id": 1, "name": "b", "weight": {"mean": 2.0, "std_dev": 0.0},
                 "external_input": 0.0, "external_output": 20.0}],
            "edges": [{"from": 0, "to": 1, "size": 5.0}]}"#;
        let wf = Workflow::from_json(json).unwrap();
        assert_eq!(wf.name, "pair");
        assert_eq!(wf.task(TaskId(0)).weight, StochasticWeight::new(1.0, 0.5));
        assert_eq!(wf.external_input_data(), 10.0);
        assert_eq!(wf.external_output_data(), 20.0);
        assert_eq!(wf.predecessors(TaskId(1)).collect::<Vec<_>>(), [TaskId(0)]);
        assert_eq!(wf.topological_order(), [TaskId(0), TaskId(1)]);
        assert_eq!(wf.pred_data_size(TaskId(1)), 5.0);
    }

    #[test]
    fn json_with_derived_arrays_still_loads() {
        // Files written before the format held only the builder's input
        // also listed the adjacency and a topological order.
        let wf = diamond();
        let mut json: serde_json::Value = serde_json::from_str(&wf.to_json()).unwrap();
        json["preds"] = serde_json::json!([[], [0], [1], [2, 3]]);
        json["succs"] = serde_json::json!([[0, 1], [2], [3], []]);
        json["topo"] = serde_json::json!([0, 1, 2, 3]);
        let back = Workflow::from_json(&json.to_string()).unwrap();
        assert_eq!(back.name, wf.name);
        assert_eq!(back.tasks(), wf.tasks());
        assert_eq!(back.edges(), wf.edges());
    }

    #[test]
    fn json_with_cycle_rejected() {
        // Hand-craft a JSON blob whose edge list forms a cycle.
        let wf = diamond();
        let mut json: serde_json::Value = serde_json::from_str(&wf.to_json()).unwrap();
        json["edges"]
            .as_array_mut()
            .unwrap()
            .push(serde_json::json!({"from": 3, "to": 0, "size": 1.0}));
        assert!(Workflow::from_json(&json.to_string()).is_err());
    }

    #[test]
    fn json_with_overflowing_conservative_weight_rejected() {
        let wf = diamond();
        let mut json: serde_json::Value = serde_json::from_str(&wf.to_json()).unwrap();
        json["tasks"].as_array_mut().unwrap()[2]["weight"] =
            serde_json::json!({"mean": 1e308, "std_dev": 1e308});
        let err = Workflow::from_json(&json.to_string()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "task T2: weight.mean + weight.std_dev must be finite and > 0",
        );
    }

    #[test]
    fn total_work_aggregates() {
        let wf = diamond().with_sigma_ratio(1.0);
        assert_eq!(wf.total_mean_work(), 10.0);
        assert_eq!(wf.total_conservative_work(), 20.0);
    }
}
