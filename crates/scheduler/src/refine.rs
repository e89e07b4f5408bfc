//! HEFTBUDG+ and HEFTBUDG+INV (paper Algorithm 5): spend the leftover
//! budget by re-mapping tasks onto better hosts.
//!
//! Starting from the HEFTBUDG schedule, each task (in priority order for
//! HEFTBUDG+, reverse order for HEFTBUDG+INV) is tentatively moved to every
//! other used VM and to a fresh VM of each category, and the move with the
//! shortest makespan that still respects the budget is kept. The paper
//! re-evaluates every tentative schedule with a deterministic conservative
//! simulation, which makes refinement an order of magnitude more
//! CPU-demanding than HEFTBUDG (§IV-B, Table III). Here a tentative move is
//! first checked against a provable lower bound on its simulated makespan
//! and cost ([`TrialEvaluator`]); only the moves the accept rule could keep
//! are simulated, so the kept moves, and the schedules, are the paper's.
//!
//! The trial loop is [`TrialEvaluator`], shared with CG+ (`cg.rs`), which
//! differs only in its [`AcceptRule`]; [`planned`] is the crate's one
//! replay of a finished plan under the planning model.

use crate::minmin::{ready_set, Rule};
use crate::plan::Candidate;
use wfs_observe::{Event as Obs, EventSink, NoopSink};
use wfs_platform::{CategoryId, Platform};
use wfs_simulator::{
    realize_weights, simulate, Replay, RunState, Schedule, SimConfig, SimulationReport, VmId,
    WeightModel, B_EPS, T_EPS,
};
use wfs_workflow::{TaskId, Workflow};

/// Processing order of the refinement pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineOrder {
    /// Task order of `ListT` (HEFTBUDG+): highest HEFT priority first.
    Forward,
    /// Reverse order (HEFTBUDG+INV).
    Reverse,
}

/// Makespan must improve by more than this to accept a move (seconds).
const IMPROVE_EPS: f64 = 1e-9;

/// MIN-MINBUDG followed by the same refinement pass — the variant the
/// paper points out "could be designed for MIN-MINBUDG" (§V-B closing
/// remark) but does not evaluate. The HEFT priority list orders the
/// re-examination and keeps per-VM orders executable.
pub fn min_min_budg_plus(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    order: RefineOrder,
) -> Schedule {
    let mut sched = ready_set(wf, platform, Some(b_ini), Rule::MinMin, &mut NoopSink);
    let list = crate::heft::priority_list(wf, platform);
    // MIN-MIN's per-VM orders follow its own commit sequence, which is a
    // valid linear extension but not necessarily rank-sorted; normalize to
    // rank order first so single-task moves stay executable.
    let pos = rank_positions(wf, &list);
    sched.sort_orders_by(|x| pos[x.index()]);
    refine_schedule(wf, platform, b_ini, sched, &list, order)
}

/// The refinement pass alone, applicable to any valid schedule plus its
/// priority list (exposed for tests and ablations).
pub fn refine_schedule(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    sched: Schedule,
    list: &[TaskId],
    order: RefineOrder,
) -> Schedule {
    refine_schedule_observed(wf, platform, b_ini, sched, list, order, &mut NoopSink)
}

/// [`refine_schedule`] with an event sink.
#[allow(clippy::too_many_arguments)]
pub fn refine_schedule_observed<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    mut sched: Schedule,
    list: &[TaskId],
    order: RefineOrder,
    sink: &mut S,
) -> Schedule {
    let mut trials = TrialEvaluator::new(wf, platform, list);
    let mut best_time = planned(wf, platform, &sched).makespan;

    let tasks: Vec<TaskId> = match order {
        RefineOrder::Forward => list.to_vec(),
        RefineOrder::Reverse => list.iter().rev().copied().collect(),
    };
    let mut accepted: u64 = 0;
    for &t in &tasks {
        let mut rule = ShortestWithinBudget { incumbent: best_time, budget: b_ini };
        if let Some((s, report)) = trials.best_move(&sched, &[t], &mut rule) {
            if S::ENABLED {
                sink.record(&Obs::RefineMove {
                    task: t.0,
                    makespan_before: best_time,
                    makespan_after: report.makespan,
                });
            }
            accepted += 1;
            sched = s;
            best_time = report.makespan;
        }
    }
    if S::ENABLED {
        sink.record(&Obs::Counter { name: "refine_trials", delta: trials.count });
        sink.record(&Obs::Counter { name: "refine_accepted", delta: accepted });
        sink.record(&Obs::Counter { name: "refine_screened", delta: trials.screened });
    }
    sched.prune_empty_vms();
    sched
}

/// The planned execution of a schedule built by this crate: a replay under
/// the planning model (conservative weights, Eq. 7).
pub(crate) fn planned(wf: &Workflow, platform: &Platform, sched: &Schedule) -> SimulationReport {
    #[allow(clippy::expect_used)] // every planner emits a complete, valid schedule
    simulate(wf, platform, sched, &SimConfig::planning()).expect("planned schedules are valid")
}

/// Rank position of each task in `list`. Per-VM orders kept sorted by it
/// stay executable under any single-task move (rank order is a linear
/// extension of the DAG).
fn rank_positions(wf: &Workflow, list: &[TaskId]) -> Vec<usize> {
    let mut pos = vec![0usize; wf.task_count()];
    for (i, &t) in list.iter().enumerate() {
        pos[t.index()] = i;
    }
    pos
}

/// A refinement's accept rule over simulated trials, with the thresholds
/// past which it rejects stated up front so that [`TrialEvaluator`] can
/// reject a trial from a lower bound, without simulating it.
pub(crate) trait AcceptRule {
    /// The budget: every trial costing more is rejected.
    fn budget(&self) -> f64;

    /// The makespan at or above which a trial is rejected, given the best
    /// trial kept so far (`None` before the first).
    fn makespan_cutoff(&self, best: Option<&SimulationReport>) -> f64;

    /// Whether `trial` replaces `best`. It must reject every trial costing
    /// more than [`Self::budget`] or lasting at least
    /// [`Self::makespan_cutoff`].
    fn keeps(&mut self, trial: &SimulationReport, best: Option<&SimulationReport>) -> bool;
}

/// Alg. 5 line 10: the shortest makespan that respects the budget and
/// improves on the incumbent by more than [`IMPROVE_EPS`].
struct ShortestWithinBudget {
    /// Planned makespan of the schedule the moves start from.
    incumbent: f64,
    budget: f64,
}

impl AcceptRule for ShortestWithinBudget {
    fn budget(&self) -> f64 {
        self.budget
    }

    fn makespan_cutoff(&self, best: Option<&SimulationReport>) -> f64 {
        best.map_or(self.incumbent, |b| b.makespan) - IMPROVE_EPS
    }

    fn keeps(&mut self, trial: &SimulationReport, best: Option<&SimulationReport>) -> bool {
        if trial.total_cost > self.budget {
            return false;
        }
        trial.makespan < self.makespan_cutoff(best)
    }
}

/// The one trial loop of every refinement (Alg. 5 and CG+): it tries
/// single-task moves and keeps the best one under the caller's accept
/// rule. A move whose [`TrialBound`] already fails the rule is counted and
/// skipped; every other move is replayed under the planning model.
///
/// Trials reuse the evaluator's buffers: each is a copy of the rank-sorted
/// incumbent into a kept [`Schedule`], with one task moved between two VM
/// orders, compiled into a kept [`Replay`] and run in a kept [`RunState`].
/// A trial that is not kept allocates nothing once the buffers have grown.
pub(crate) struct TrialEvaluator<'a> {
    platform: &'a Platform,
    /// Rank position of each task; trials keep per-VM orders sorted by it.
    pos: Vec<usize>,
    /// `None` when the rank order is not a topological order of the DAG.
    bound: Option<TrialBound>,
    /// The schedule [`Self::best_move`] moves tasks of, with every VM order
    /// sorted by rank position.
    base: Schedule,
    /// `base` plus one fresh, empty VM, one copy per category.
    fresh: Vec<Schedule>,
    /// The trial onto a used VM, and the trial onto a fresh one (one VM
    /// more). Each keeps its VM count from trial to trial, so a copy never
    /// drops the buffer of a VM's order.
    trial: Schedule,
    trial_fresh: Schedule,
    /// The best trial kept so far, and its planned execution.
    kept: Schedule,
    kept_report: SimulationReport,
    replay: Replay<'a>,
    state: RunState,
    /// Trial moves tried so far, one per move (simulated or not).
    pub(crate) count: u64,
    /// Trial moves rejected from their lower bound, without a simulation.
    pub(crate) screened: u64,
}

impl<'a> TrialEvaluator<'a> {
    /// An evaluator whose trials follow the rank order of `list`.
    pub(crate) fn new(wf: &'a Workflow, platform: &'a Platform, list: &[TaskId]) -> Self {
        let pos = rank_positions(wf, list);
        let bound = TrialBound::new(wf, platform, list, &pos);
        Self {
            platform,
            pos,
            bound,
            base: Schedule::new(0),
            fresh: Vec::new(),
            trial: Schedule::new(0),
            trial_fresh: Schedule::new(0),
            kept: Schedule::new(0),
            kept_report: SimulationReport::default(),
            replay: Replay::new(wf, platform),
            state: RunState::default(),
            count: 0,
            screened: 0,
        }
    }

    /// Try every single-task move of each task of `tasks` on `sched`, in
    /// order: onto every other used VM by id, then onto a fresh VM of each
    /// category. Each trial is `sched` with per-VM orders sorted by rank
    /// position and the task inserted at its rank in the target's order,
    /// simulated under the planning model; a trial that fails to simulate
    /// is skipped, and so is one whose lower bound already reaches `rule`'s
    /// makespan cutoff or exceeds its budget (the simulation could only
    /// confirm the rejection). A trial that `rule` keeps replaces the best
    /// one so far; the last one kept is returned.
    pub(crate) fn best_move(
        &mut self,
        sched: &Schedule,
        tasks: &[TaskId],
        rule: &mut impl AcceptRule,
    ) -> Option<(Schedule, SimulationReport)> {
        let (platform, pos) = (self.platform, &self.pos);
        let rank = |x: TaskId| pos[x.index()];
        self.base.clone_from(sched);
        self.base.sort_orders_by(rank);
        self.fresh.resize_with(platform.category_count(), || Schedule::new(0));
        let mut fresh_vm = VmId(0);
        for (fresh, cat) in self.fresh.iter_mut().zip(platform.category_ids()) {
            fresh.clone_from(&self.base);
            fresh_vm = fresh.add_vm(cat);
        }
        let base = &self.base;
        let mut bound = self.bound.as_mut().and_then(|b| b.load(base).then_some(b));
        let mut kept = false;
        for &t in tasks {
            #[allow(clippy::expect_used)] // refinement starts from complete schedules
            let cur = base.assignment(t).expect("complete schedule");
            let used = base.vm_ids().filter(|&v| v != cur).map(Candidate::Used);
            for target in used.chain(platform.category_ids().map(Candidate::New)) {
                self.count += 1;
                let best = kept.then_some(&self.kept_report);
                if let Some(bound) = bound.as_deref_mut() {
                    let cutoff = rule.makespan_cutoff(best);
                    let makespan = bound.makespan(base, pos[t.index()], target, cutoff);
                    if makespan >= cutoff || bound.cost(platform, makespan) > rule.budget() {
                        self.screened += 1;
                        continue;
                    }
                }
                let trial = match target {
                    Candidate::Used(vm) => {
                        self.trial.clone_from(base);
                        self.trial.reassign(t, vm, rank);
                        &mut self.trial
                    }
                    Candidate::New(cat) => {
                        self.trial_fresh.clone_from(&self.fresh[cat.index()]);
                        self.trial_fresh.reassign(t, fresh_vm, rank);
                        &mut self.trial_fresh
                    }
                };
                // Defensive: skip non-executable tentatives.
                if self.replay.compile(trial).is_err() {
                    continue;
                }
                let Ok(report) = self.replay.run(&mut self.state, &SimConfig::planning()) else {
                    continue;
                };
                if rule.keeps(report, best) {
                    std::mem::swap(report, &mut self.kept_report);
                    std::mem::swap(trial, &mut self.kept);
                    kept = true;
                }
            }
        }
        kept.then(|| {
            let report = std::mem::take(&mut self.kept_report);
            (std::mem::replace(&mut self.kept, Schedule::new(0)), report)
        })
    }
}

/// A lower bound on the planning makespan and cost of a single-task move,
/// in one O(n + e) pass over the priority list (which, with per-VM orders
/// sorted by it, is a topological order of the DAG plus the VM orders).
/// For task u on VM v, with d_u its conservative duration and
/// x_e = s_e/bw:
///
/// - v is ready at `book(v) + boot`, where `book(v)` is the latest
///   `f_p + x_e` over the in-edges of v's first task (0 for an entry
///   task: such a VM is booked at t = 0, where every makespan starts);
/// - u starts no earlier than v's readiness plus u's own downloads
///   (external input and cross-VM edges, serialized on v's link), than
///   the previous task's finish on v, or than `f_p + 2·x_e` for a cross-VM
///   predecessor p (upload, then download); `f_u = start(u) + d_u`;
/// - the makespan is at least every `f_u + ext_out/bw`;
/// - a VM's billed usage is at least the sum of its tasks' durations, and
///   the datacenter is billed over at least the makespan bound.
///
/// The engine also serializes transfers across tasks, so it can only be
/// later, except by its tolerances and rounding, which
/// [`TrialBound::margin`] covers; the bound subtracts the margin from the
/// makespan and from every usage before billing (the billing's `ceil` is
/// discontinuous). Billing is monotone in usage for non-negative prices
/// (the engine's `check_rates` precondition), and the bound sums the same
/// VMs in the same order as the engine's bill, so the cost bound holds in
/// floating point as well.
struct TrialBound {
    /// Every quantity below is indexed by rank position, not task id.
    rank: Vec<TaskId>,
    /// Per position, its in-edges as (producer position, transfer
    /// seconds): `preds[pred_start[i]..pred_start[i + 1]]`.
    pred_start: Vec<usize>,
    preds: Vec<(usize, f64)>,
    /// Duration of each position on each category, row-major.
    dur: Vec<f64>,
    n_cats: usize,
    /// Download / upload seconds of each position's external data.
    ext_in: Vec<f64>,
    ext_out: Vec<f64>,
    /// Boot delay of each category.
    boot: Vec<f64>,
    /// External bytes billed by the datacenter, as the engine sums them.
    external: f64,
    /// See [`TrialBound::margin`].
    margin: f64,
    /// Scratch, sized by [`TrialBound::load`]: the VM of each position
    /// (one entry overridden per trial), the category of each VM (plus a
    /// fresh one), the finish of each position and each VM's state.
    vm_of: Vec<usize>,
    cat_of: Vec<CategoryId>,
    finish: Vec<f64>,
    vms: Vec<VmBound>,
    /// The pass over the positions before `prefix_end`, which no move of
    /// the task at `prefix_end` changes: each VM's state and the makespan
    /// after it (their finishes stay in `finish`). `None` until a move is
    /// bounded on the loaded schedule.
    prefix_end: Option<usize>,
    prefix_vms: Vec<VmBound>,
    prefix_makespan: f64,
}

/// One VM's state in a [`TrialBound`] pass.
#[derive(Debug, Clone, Copy, Default)]
struct VmBound {
    /// `None` before the VM's first task.
    ready: Option<f64>,
    /// Finish of the VM's last task so far.
    cpu: f64,
    /// Sum of its tasks' durations so far.
    busy: f64,
}

impl TrialBound {
    /// The bound for trials ordered by `list`, whose rank positions are
    /// `pos`, or `None` when `list` is not a topological order of every
    /// task of `wf` or a duration or transfer time is not finite.
    fn new(wf: &Workflow, platform: &Platform, list: &[TaskId], pos: &[usize]) -> Option<Self> {
        let n = wf.task_count();
        // A repeated task leaves an earlier occurrence off its position.
        if list.len() != n || list.iter().enumerate().any(|(i, t)| pos[t.index()] != i) {
            return None;
        }
        let bw = platform.datacenter.bandwidth;
        let seconds = |bytes: f64| if bytes > 0.0 { bytes / bw } else { 0.0 };
        let weights = realize_weights(wf, WeightModel::Conservative);
        let cats = platform.categories();
        let mut pred_start = Vec::with_capacity(n + 1);
        let mut preds = Vec::with_capacity(wf.edge_count());
        let mut dur = Vec::with_capacity(n * cats.len());
        let (mut ext_in, mut ext_out) = (Vec::with_capacity(n), Vec::with_capacity(n));
        // An upper bound on every instant of a run and of the bound (the
        // sum of every activity's longest duration), for the margin.
        let mut horizon = 0.0;
        for (i, &t) in list.iter().enumerate() {
            pred_start.push(preds.len());
            for &e in wf.in_edges(t) {
                let edge = wf.edge(e);
                let p = pos[edge.from.index()];
                if p >= i {
                    return None;
                }
                preds.push((p, seconds(edge.size)));
                horizon += 2.0 * seconds(edge.size);
            }
            let w = weights[t.index()];
            dur.extend(cats.iter().map(|c| w / c.speed));
            horizon += dur[i * cats.len()..].iter().fold(0.0, |a: f64, &d| a.max(d));
            let task = wf.task(t);
            ext_in.push(seconds(task.external_input));
            ext_out.push(seconds(task.external_output));
            horizon += ext_in[i] + ext_out[i];
        }
        pred_start.push(preds.len());
        let boot: Vec<f64> = cats.iter().map(|c| c.boot_time).collect();
        horizon += n as f64 * boot.iter().fold(0.0, |a: f64, &b| a.max(b));
        let events = (4 * n + 2 * wf.edge_count()) as f64;
        horizon += events * B_EPS / bw;
        if !horizon.is_finite() {
            return None;
        }
        Some(Self {
            rank: list.to_vec(),
            pred_start,
            preds,
            dur,
            n_cats: cats.len(),
            ext_in,
            ext_out,
            boot,
            external: wf.external_input_data() + wf.external_output_data(),
            margin: Self::margin(events, bw, horizon),
            vm_of: vec![0; n],
            cat_of: Vec::new(),
            finish: vec![0.0; n],
            vms: Vec::new(),
            prefix_end: None,
            prefix_vms: Vec::new(),
            prefix_makespan: 0.0,
        })
    }

    /// How far a run's makespan or a VM's usage can fall below the exact
    /// value the bound approximates, for a run of at most `events` engine
    /// events whose instants stay below `horizon` seconds.
    ///
    /// A fault-free planning run has at most `4n + 2e` events: a completion
    /// per task, an upload and a download per cross-VM edge, a download and
    /// an upload of external data per task, a boot per used VM. Any chain
    /// of dependent events is no longer. Along it, each event can lead
    /// exact arithmetic by:
    /// - [`T_EPS`]: a discrete event fires once the clock is within
    ///   `T_EPS` of it;
    /// - `B_EPS/bw + max(T_EPS, ε·now)`, for a transfer: it finishes with
    ///   [`B_EPS`] bytes left or once its remaining time is below the
    ///   clock resolution;
    /// - rounding: the `now + x` of its time (ε/2·horizon), its drain
    ///   `remaining −= rate·dt` repeated over at most `events` clock
    ///   advances (summed over the chain, at most ε·horizon per event), and
    ///   the bound's own additions and sums (2ε·horizon per event).
    ///
    /// That is at most `T_EPS + B_EPS/bw + 7ε·horizon` per event; the
    /// margin rounds 7 up to 8.
    fn margin(events: f64, bw: f64, horizon: f64) -> f64 {
        events * (T_EPS + B_EPS / bw + 8.0 * f64::EPSILON * horizon)
    }

    /// Take `sched` as the schedule that trials move one task of; `false`
    /// (no bound) if a task is unassigned.
    fn load(&mut self, sched: &Schedule) -> bool {
        for (v, &t) in self.vm_of.iter_mut().zip(&self.rank) {
            match sched.assignment(t) {
                Some(vm) => *v = vm.index(),
                None => return false,
            }
        }
        self.cat_of.clear();
        self.cat_of.extend_from_slice(sched.vm_categories());
        self.cat_of.push(CategoryId(0));
        self.vms.resize(self.cat_of.len(), VmBound::default());
        self.prefix_end = None;
        true
    }

    /// A lower bound on the planning makespan of the loaded schedule with
    /// the task at rank position `i` moved onto `target` (margin already
    /// subtracted). Leaves each VM's state behind for [`TrialBound::cost`],
    /// unless the bound reaches `cutoff`: the pass then stops there, as the
    /// makespan only grows along it, and returns a value at or above
    /// `cutoff` that is only good for that comparison.
    ///
    /// The positions before `i` keep their VMs, and so do their
    /// predecessors, and a fresh VM hosts none of them: their part of the
    /// pass is the same for every move of `i`. It is computed once per `i`
    /// and resumed from, so each move adds only the positions from `i` on,
    /// with the same operations in the same order.
    fn makespan(&mut self, sched: &Schedule, i: usize, target: Candidate, cutoff: f64) -> f64 {
        let (vm, cat) = match target {
            Candidate::Used(vm) => (vm.index(), sched.vm_category(vm)),
            Candidate::New(cat) => (sched.vm_count(), cat),
        };
        let from = std::mem::replace(&mut self.vm_of[i], vm);
        self.cat_of[vm] = cat;
        if self.prefix_end == Some(i) {
            self.vms.copy_from_slice(&self.prefix_vms);
        } else {
            self.vms.fill(VmBound::default());
            self.prefix_makespan = self.pass(0..i, 0.0, f64::INFINITY);
            self.prefix_vms.clone_from(&self.vms);
            self.prefix_end = Some(i);
        }
        let makespan = self.pass(i..self.vm_of.len(), self.prefix_makespan, cutoff);
        self.vm_of[i] = from;
        makespan - self.margin
    }

    /// Bound the positions `range` in order, from the VM states in `vms`
    /// and the makespan so far; returns the makespan after them, or the
    /// first one whose bound (margin subtracted) reaches `stop`.
    fn pass(&mut self, range: std::ops::Range<usize>, mut makespan: f64, stop: f64) -> f64 {
        for u in range {
            let v = self.vm_of[u];
            let k = self.cat_of[v].index();
            // Cross-VM inputs only: a same-VM predecessor finished before
            // the previous task on v.
            let (mut downloads, mut inputs, mut book) = (self.ext_in[u], 0.0_f64, 0.0_f64);
            for &(p, x) in &self.preds[self.pred_start[u]..self.pred_start[u + 1]] {
                if self.vm_of[p] != v {
                    let f = self.finish[p];
                    downloads += x;
                    inputs = inputs.max(f + 2.0 * x);
                    book = book.max(f + x);
                }
            }
            let state = &mut self.vms[v];
            let ready = *state.ready.get_or_insert(book + self.boot[k]);
            let d = self.dur[u * self.n_cats + k];
            let f = (ready + downloads).max(state.cpu).max(inputs) + d;
            self.finish[u] = f;
            state.cpu = f;
            state.busy += d;
            makespan = makespan.max(f + self.ext_out[u]);
            if makespan - self.margin >= stop {
                break;
            }
        }
        makespan
    }

    /// A lower bound on the planning cost of the last
    /// [`TrialBound::makespan`] trial, whose bound is `makespan`: the VMs
    /// billed in id order, then the datacenter, as the engine bills them.
    fn cost(&self, platform: &Platform, makespan: f64) -> f64 {
        let mut vm_cost = 0.0;
        for (v, state) in self.vms.iter().enumerate() {
            if state.ready.is_some() {
                let usage = (state.busy - self.margin).max(0.0);
                vm_cost += platform.vm_cost(self.cat_of[v], usage);
            }
        }
        vm_cost + platform.datacenter.cost(makespan.max(0.0), self.external)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use crate::heft::heft_budg;
    use crate::Algorithm;
    use wfs_workflow::gen::{cybershake, montage, GenConfig};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    fn time_cost(wf: &Workflow, p: &Platform, s: &Schedule) -> (f64, f64) {
        let r = planned(wf, p, s);
        (r.makespan, r.total_cost)
    }

    fn heft_budg_plus(wf: &Workflow, p: &Platform, budget: f64, order: RefineOrder) -> Schedule {
        let alg = match order {
            RefineOrder::Forward => Algorithm::HeftBudgPlus,
            RefineOrder::Reverse => Algorithm::HeftBudgPlusInv,
        };
        alg.run(wf, p, budget)
    }

    #[test]
    fn refined_never_worse_and_within_budget() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        for budget in [1.0, 2.0, 4.0] {
            let (base, _) = heft_budg(&wf, &p, budget);
            let (t0, _) = time_cost(&wf, &p, &base);
            for order in [RefineOrder::Forward, RefineOrder::Reverse] {
                let refined = heft_budg_plus(&wf, &p, budget, order);
                refined.validate(&wf).unwrap();
                let (t1, c1) = time_cost(&wf, &p, &refined);
                assert!(t1 <= t0 + 1e-6, "refined {t1} worse than base {t0} ({order:?})");
                assert!(c1 <= budget * 1.0 + 1e-9, "cost {c1} busts budget {budget}");
            }
        }
    }

    #[test]
    fn refinement_improves_tight_budgets() {
        // Paper Fig. 2: refinement shortens the makespan (up to one third
        // for MONTAGE) at intermediate budgets. Improvement is not
        // guaranteed on every single instance, so assert it shows up
        // across a small sweep.
        let p = paper();
        let mut improved = 0;
        let mut cases = 0;
        for seed in 1..=2 {
            let wf = montage(GenConfig::new(30, seed));
            let floor = crate::min_cost_floor(&wf, &p);
            for mult in [1.3, 1.8, 2.5] {
                let budget = floor * mult;
                let (base, _) = heft_budg(&wf, &p, budget);
                let (t0, _) = time_cost(&wf, &p, &base);
                let refined = heft_budg_plus(&wf, &p, budget, RefineOrder::Forward);
                let (t1, _) = time_cost(&wf, &p, &refined);
                cases += 1;
                if t1 < t0 - 1e-6 {
                    improved += 1;
                }
            }
        }
        assert!(improved * 2 >= cases, "improved only {improved}/{cases} cases");
    }

    #[test]
    fn refined_uses_no_more_vms_than_base_on_cybershake() {
        // Paper §V-C: "the refined algorithms manage to achieve a smaller
        // makespan using fewer VMs" (interdependent tasks co-located).
        let wf = cybershake(GenConfig::new(30, 1));
        let p = paper();
        let budget = 3.0;
        let (base, _) = heft_budg(&wf, &p, budget);
        let refined = heft_budg_plus(&wf, &p, budget, RefineOrder::Forward);
        assert!(
            refined.used_vm_count() <= base.used_vm_count(),
            "refined {} vs base {}",
            refined.used_vm_count(),
            base.used_vm_count()
        );
    }

    #[test]
    fn min_min_budg_plus_never_worse_and_within_budget() {
        let p = paper();
        for seed in 1..=2 {
            let wf = montage(GenConfig::new(30, seed));
            let floor = crate::min_cost_floor(&wf, &p);
            let budget = floor * 1.5;
            let base = Algorithm::MinMinBudg.run(&wf, &p, budget);
            let (t0, _) = time_cost(&wf, &p, &base);
            let refined = min_min_budg_plus(&wf, &p, budget, RefineOrder::Forward);
            refined.validate(&wf).unwrap();
            let (t1, c1) = time_cost(&wf, &p, &refined);
            assert!(t1 <= t0 + 1e-6, "refined {t1} worse than base {t0}");
            assert!(c1 <= budget + 1e-9, "cost {c1} busts budget {budget}");
        }
    }

    #[test]
    fn forward_and_reverse_both_valid_and_deterministic() {
        let wf = montage(GenConfig::new(30, 3));
        let p = paper();
        for order in [RefineOrder::Forward, RefineOrder::Reverse] {
            let a = heft_budg_plus(&wf, &p, 2.0, order);
            let b = heft_budg_plus(&wf, &p, 2.0, order);
            assert_eq!(a, b);
            a.validate(&wf).unwrap();
        }
    }

    /// The Table III budget levels: the min-cost floor, twice HEFT's
    /// planned cost, and their midpoint.
    fn table3_budgets(wf: &Workflow, p: &Platform) -> [f64; 3] {
        let low = crate::min_cost_floor(wf, p);
        let high = time_cost(wf, p, &Algorithm::Heft.run(wf, p, f64::INFINITY)).1 * 2.0;
        [low, (low + high) / 2.0, high]
    }

    /// Check the bound against the simulation of every single-task move of
    /// the HEFTBUDG plan of `wf` under `budget`; returns (moves, moves
    /// whose makespan bound is within 10 % of the simulated makespan).
    fn check_every_move(wf: &Workflow, p: &Platform, budget: f64) -> (usize, usize) {
        let (sched, list) = heft_budg(wf, p, budget);
        let pos = rank_positions(wf, &list);
        let mut bound = TrialBound::new(wf, p, &list, &pos).expect("HEFT's list is topological");
        assert!(bound.load(&sched));
        let (mut moves, mut tight) = (0, 0);
        for &t in &list {
            let cur = sched.assignment(t).unwrap();
            let used = sched.vm_ids().filter(|&v| v != cur).map(Candidate::Used);
            for target in used.chain(p.category_ids().map(Candidate::New)) {
                let makespan = bound.makespan(&sched, pos[t.index()], target, f64::INFINITY);
                let cost = bound.cost(p, makespan);
                let mut trial = sched.clone();
                let vm = match target {
                    Candidate::Used(vm) => vm,
                    Candidate::New(cat) => trial.add_vm(cat),
                };
                trial.reassign(t, vm, |x| pos[x.index()]);
                let r = planned(wf, p, &trial);
                let case = format!("{} {budget} {:?}: {t} -> {target:?}", wf.name, p.billing);
                assert!(makespan <= r.makespan, "{case}: makespan {makespan} > {}", r.makespan);
                assert!(cost <= r.total_cost, "{case}: cost {cost} > {}", r.total_cost);
                moves += 1;
                tight += usize::from(makespan >= 0.9 * r.makespan);
            }
        }
        (moves, tight)
    }

    #[test]
    fn trial_bound_needs_a_topological_permutation() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let bound = |list: &[TaskId]| TrialBound::new(&wf, &p, list, &rank_positions(&wf, list));
        let list = crate::heft::priority_list(&wf, &p);
        assert!(bound(&list).is_some());
        let reversed: Vec<TaskId> = list.iter().rev().copied().collect();
        assert!(bound(&reversed).is_none(), "not topological");
        let mut repeated = list.clone();
        repeated[1] = repeated[0];
        assert!(bound(&repeated).is_none(), "not a permutation");
        assert!(bound(&list[1..]).is_none(), "a task missing");
    }

    #[test]
    fn trial_bound_never_exceeds_the_simulated_trial() {
        use wfs_platform::BillingPolicy::{Continuous, PerHour, PerSecond};
        use wfs_platform::VmCategory;
        use wfs_workflow::gen::{epigenomics, ligo, sipht};
        let no_boot = Platform::new(
            paper()
                .categories()
                .iter()
                .map(|c| VmCategory { boot_time: 0.0, ..c.clone() })
                .collect(),
            paper().datacenter,
        );
        let (mut moves, mut tight) = (0, 0);
        for n in [30, 60] {
            for wf in [
                montage(GenConfig::new(n, 41)),
                cybershake(GenConfig::new(n, 42)),
                ligo(GenConfig::new(n, 43)),
                epigenomics(GenConfig::new(n, 44)),
                sipht(GenConfig::new(n, 45)),
            ] {
                let mut cases = Vec::new();
                for billing in [PerSecond, PerHour, Continuous] {
                    let p = paper().with_billing(billing);
                    cases.extend(table3_budgets(&wf, &p).map(|b| (p.clone(), b)));
                }
                cases.push((no_boot.clone(), table3_budgets(&wf, &no_boot)[1]));
                for (p, budget) in cases {
                    let (m, t) = check_every_move(&wf, &p, budget);
                    moves += m;
                    tight += t;
                }
            }
        }
        // Not vacuous: most bounds are close to the simulated makespan.
        assert!(tight * 2 > moves, "only {tight} of {moves} bounds within 10 %");
    }

    #[test]
    fn best_move_tries_used_vms_by_id_then_one_fresh_vm_per_category() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let (sched, list) = heft_budg(&wf, &p, 2.0);
        let cats: Vec<_> = p.category_ids().collect();
        let fresh = wfs_simulator::VmId(u32::try_from(sched.vm_count()).unwrap());
        let tasks = [list[3], list[7]];
        let mut expected = Vec::new();
        for &t in &tasks {
            let cur = sched.assignment(t).unwrap();
            for vm in sched.vm_ids().filter(|&v| v != cur) {
                expected.push((t, vm, sched.vm_category(vm)));
            }
            expected.extend(cats.iter().map(|&c| (t, fresh, c)));
        }
        assert!(expected.len() > cats.len() * 2, "needs several used VMs");

        /// Keeps nothing and states no threshold, so every move simulates.
        struct Record<'s> {
            sched: &'s Schedule,
            tasks: [TaskId; 2],
            seen: Vec<(TaskId, wfs_simulator::VmId, wfs_platform::CategoryId)>,
        }
        impl AcceptRule for Record<'_> {
            fn budget(&self) -> f64 {
                f64::INFINITY
            }
            fn makespan_cutoff(&self, _: Option<&SimulationReport>) -> f64 {
                f64::INFINITY
            }
            fn keeps(&mut self, r: &SimulationReport, _: Option<&SimulationReport>) -> bool {
                let moved = |t: &&TaskId| r.task(**t).vm != self.sched.assignment(**t).unwrap();
                let t = *self.tasks.iter().find(moved).unwrap();
                let vm = r.task(t).vm;
                let cat = r.vms.iter().find(|u| u.vm == vm).unwrap().category;
                self.seen.push((t, vm, cat));
                false
            }
        }
        let mut trials = TrialEvaluator::new(&wf, &p, &list);
        let mut rule = Record { sched: &sched, tasks, seen: Vec::new() };
        let kept = trials.best_move(&sched, &tasks, &mut rule);
        let seen = rule.seen;
        assert!(kept.is_none(), "a rule that keeps nothing returns nothing");
        assert_eq!(seen, expected, "moves out of the documented order");
        assert_eq!(trials.count, expected.len() as u64, "one trial per move");
        assert_eq!(trials.screened, 0, "an infinite cutoff and budget screen nothing");
    }

    /// Folds the `to_bits` of every simulated trial's makespan, total cost
    /// and task records into an FNV-1a hash. It keeps nothing and states no
    /// cutoff, so every move of every task simulates.
    struct FoldTrials {
        hash: u64,
    }

    impl FoldTrials {
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.hash ^= u64::from(b);
                self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    impl AcceptRule for FoldTrials {
        fn budget(&self) -> f64 {
            f64::INFINITY
        }
        fn makespan_cutoff(&self, _: Option<&SimulationReport>) -> f64 {
            f64::INFINITY
        }
        fn keeps(&mut self, r: &SimulationReport, _: Option<&SimulationReport>) -> bool {
            self.word(r.makespan.to_bits());
            self.word(r.total_cost.to_bits());
            for rec in &r.tasks {
                self.word(u64::from(rec.task.0));
                self.word(u64::from(rec.vm.0));
                self.word(rec.start.to_bits());
                self.word(rec.end.to_bits());
                self.word(rec.realized_weight.to_bits());
            }
            false
        }
    }

    /// Keeps nothing, and states the incumbent's makespan as its cutoff, so
    /// some moves are screened and the rest simulate.
    struct RejectAll {
        incumbent: f64,
        simulated: u64,
    }

    impl AcceptRule for RejectAll {
        fn budget(&self) -> f64 {
            f64::INFINITY
        }
        fn makespan_cutoff(&self, _: Option<&SimulationReport>) -> f64 {
            self.incumbent
        }
        fn keeps(&mut self, _: &SimulationReport, _: Option<&SimulationReport>) -> bool {
            self.simulated += 1;
            false
        }
    }

    /// A warm trial allocates nothing: once one pass over every move of a
    /// plan has grown the evaluator's buffers, a second identical pass —
    /// screened trials, simulated ones, and trials onto used and fresh VMs
    /// alike — allocates nothing.
    #[test]
    fn warm_trials_allocate_nothing() {
        let wf = montage(GenConfig::new(60, 7));
        let p = paper();
        let (sched, list) = heft_budg(&wf, &p, table3_budgets(&wf, &p)[1]);
        let mut rule = RejectAll { incumbent: planned(&wf, &p, &sched).makespan, simulated: 0 };
        let mut trials = TrialEvaluator::new(&wf, &p, &list);
        assert!(trials.best_move(&sched, &list, &mut rule).is_none());
        let (count, screened, simulated) = (trials.count, trials.screened, rule.simulated);
        assert!(screened > 0 && simulated > 0, "both kinds of trial: {screened}, {simulated}");
        assert!(sched.vm_count() > 2, "trials onto several used VMs");

        let before = crate::alloc_count::allocations();
        let kept = trials.best_move(&sched, &list, &mut rule);
        let after = crate::alloc_count::allocations();
        assert!(kept.is_none());
        assert_eq!(after - before, 0, "warm trials must not allocate");
        assert_eq!(
            (trials.count, trials.screened, rule.simulated),
            (2 * count, 2 * screened, 2 * simulated),
            "the second pass repeats the first"
        );
    }

    /// Every trial report of every single-task move, on the HEFTBUDG plans
    /// of 3 generators × 30/60 tasks × the Table III budgets and on one CG
    /// plan per generator: a change to how a trial is built or simulated
    /// that moves any bit of any trial moves this hash.
    #[test]
    fn every_trial_report_is_pinned() {
        use crate::cg::cg;
        use wfs_workflow::gen::ligo;
        let p = paper();
        let mut fold = FoldTrials { hash: 0xcbf2_9ce4_8422_2325 };
        let mut trials = 0;
        for n in [30, 60] {
            for wf in [
                montage(GenConfig::new(n, 51)),
                cybershake(GenConfig::new(n, 52)),
                ligo(GenConfig::new(n, 53)),
            ] {
                let budgets = table3_budgets(&wf, &p);
                for budget in budgets {
                    let (sched, list) = heft_budg(&wf, &p, budget);
                    let mut eval = TrialEvaluator::new(&wf, &p, &list);
                    assert!(eval.best_move(&sched, &list, &mut fold).is_none());
                    trials += eval.count;
                }
                if n == 30 {
                    let sched = cg(&wf, &p, budgets[1], &mut NoopSink);
                    let list = crate::heft::priority_list(&wf, &p);
                    let mut eval = TrialEvaluator::new(&wf, &p, &list);
                    assert!(eval.best_move(&sched, &list, &mut fold).is_none());
                    trials += eval.count;
                }
            }
        }
        assert_eq!((trials, fold.hash), (13_980, 8_462_219_328_752_758_930), "trial reports moved");
    }
}
