//! Incremental planning state shared by all list-scheduling algorithms.
//!
//! While building a schedule task by task, an algorithm needs to evaluate,
//! for the current task and every candidate host, the Earliest Finish Time
//! (EFT, paper Eq. 7) and the cost `ct_{T,host}` the assignment would incur.
//! [`PlanState`] tracks the planning-time view: per-VM availability, the
//! instant each produced datum reaches the datacenter, and the partially
//! built [`Schedule`].
//!
//! The planning model deliberately mirrors the paper's estimates rather than
//! the full event simulation: transfers of a task's inputs are serialized on
//! the host link (`size(d_in,T)/bw` summed), upload queuing on producers is
//! ignored, and weights are conservative (`w̄ + σ`). The actual execution is
//! replayed afterwards by `wfs-simulator`.

use std::cell::RefCell;

use wfs_observe::{Event as Obs, EventSink};
use wfs_platform::{CategoryId, Platform};
use wfs_simulator::{Schedule, VmId};
use wfs_workflow::{OrdF64, TaskId, Workflow};

/// A candidate host for the task being scheduled: an already-enrolled VM or
/// a fresh VM of some category (the paper's `Used_VM ∪ New_VM`, §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Candidate {
    /// An already used VM.
    Used(VmId),
    /// A new VM of the given category (its startup delay and init cost
    /// apply, `δ_new = 1` in Eq. 7).
    New(CategoryId),
}

impl Candidate {
    /// Key of the candidate order: used VMs by id, then one `New` per
    /// category by id. Distinct candidates have distinct keys.
    #[inline]
    pub(crate) fn order(self) -> (u8, u32) {
        match self {
            Candidate::Used(vm) => (0, vm.0),
            Candidate::New(cat) => (1, cat.0),
        }
    }
}

/// Planning-time evaluation of one (task, candidate) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HostEval {
    /// The candidate evaluated.
    pub(crate) candidate: Candidate,
    /// Earliest Finish Time (seconds).
    pub(crate) eft: f64,
    /// Estimated cost `ct_{T,host}`: occupied time × hourly rate, plus the
    /// init cost for a new VM.
    pub(crate) cost: f64,
}

impl HostEval {
    /// The candidate and the bit patterns of EFT and cost, for exact
    /// comparisons.
    pub(crate) fn bits(&self) -> (Candidate, u64, u64) {
        (self.candidate, self.eft.to_bits(), self.cost.to_bits())
    }
}

/// Reusable buffers of the allocation-free candidate sweeps. Owned by
/// [`PlanState`] behind a `RefCell` so sweeps work through `&PlanState`.
///
/// The per-VM arrays are *stamped*: instead of clearing them between
/// sweeps, each entry carries the stamp of the sweep that last wrote it,
/// and stale entries are simply ignored. The arrays only ever grow (when
/// VMs are enrolled), so steady-state sweeps perform no heap allocation.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Evaluations of the current sweep, in candidate order (used VMs by
    /// id, then one `New` per category).
    evals: Vec<HostEval>,
    /// Per-VM sum of *local* edge bytes (edges whose producer sits on that
    /// VM), for VMs hosting ≥1 predecessor of the swept task.
    vm_bytes: Vec<f64>,
    /// Per-VM maximum data-at-DC instant of the same local edges.
    vm_dready: Vec<f64>,
    /// Sweep stamp guarding `vm_bytes`/`vm_dready` entries.
    vm_stamp: Vec<u64>,
    /// Sweep stamp of the used VMs a growing [`Sweep`] already holds in
    /// `evals` (each is added once); written by the first growth call.
    vm_seen: Vec<u64>,
    /// Current sweep stamp.
    stamp: u64,
    /// Distinct VMs hosting a predecessor of the swept task (≤ deg).
    pred_vms: Vec<VmId>,
    /// Per-category base occupied time (`total_bytes / bw + w / speed`) of
    /// the swept task — hoists the divisions out of the per-VM walks.
    cat_occupied: Vec<f64>,
    /// Per-category `cost_per_second()`.
    cat_rate: Vec<f64>,
    /// Per category, the number of its VMs ready by the data-ready instant
    /// of the last pruned sweep: where its ready index splits in two.
    cat_split: Vec<usize>,
    /// Total sweeps performed since creation.
    sweeps: u64,
    /// Total candidate evaluations produced across those sweeps.
    cand_evals: u64,
    /// Candidates a sweep skipped as provably unable to win:
    /// `V + K` minus the evaluations it produced.
    pruned: u64,
}

/// Aggregates of one in-edge pass over the swept task (see
/// [`PlanState::in_edge_pass`]).
#[derive(Debug, Clone, Copy)]
struct InEdges {
    /// Remote bytes from a new VM or a VM hosting no predecessor.
    total_bytes: f64,
    /// Latest data-at-DC instant over all in-edges.
    dready_all: f64,
    /// The predecessor-hosting VM holding the largest local data-ready
    /// maximum, and the two largest such maxima.
    top_vm: VmId,
    top: f64,
    second: f64,
}

/// Per category, `(ready instant, id)` of its VMs in ascending order.
type ReadyIndex = Vec<Vec<(OrdF64, VmId)>>;

/// Incremental planning state over a partially built schedule.
#[derive(Debug, Clone)]
pub(crate) struct PlanState<'a> {
    wf: &'a Workflow,
    platform: &'a Platform,
    /// Conservative execution weights (`w̄ + σ`), per task.
    weights: Vec<f64>,
    /// Planned availability instant of each enrolled VM.
    vm_ready: Vec<f64>,
    /// Per category, its VMs ordered by `(ready instant, id)`: the index
    /// every [`Self::sweep`] walks, kept up to date by [`Self::commit`].
    by_ready: ReadyIndex,
    /// Planned finish time of each scheduled task (`NAN` = unscheduled).
    finish: Vec<f64>,
    /// Planned instant each edge's data reaches the datacenter
    /// (`INFINITY` until the producer is scheduled).
    edge_at_dc: Vec<f64>,
    schedule: Schedule,
    /// Scratch space of [`Self::sweep`].
    scratch: RefCell<Scratch>,
}

impl<'a> PlanState<'a> {
    /// Fresh planning state with no task scheduled.
    pub(crate) fn new(wf: &'a Workflow, platform: &'a Platform) -> Self {
        Self {
            wf,
            platform,
            weights: wf.tasks().iter().map(|t| t.weight.conservative()).collect(),
            vm_ready: Vec::new(),
            by_ready: vec![Vec::new(); platform.category_count()],
            finish: vec![f64::NAN; wf.task_count()],
            edge_at_dc: vec![f64::INFINITY; wf.edge_count()],
            schedule: Schedule::new(wf.task_count()),
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// The partially built schedule.
    #[inline]
    pub(crate) fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Planned finish time of `t` (`NaN` if unscheduled).
    #[inline]
    pub(crate) fn finish_time(&self, t: TaskId) -> f64 {
        self.finish[t.index()]
    }

    /// True once every task has been assigned.
    pub(crate) fn is_complete(&self) -> bool {
        self.finish.iter().all(|f| !f.is_nan())
    }

    /// Earliest instant all of `t`'s remote inputs can be at the datacenter
    /// (0 for entry data; assumes every scheduled predecessor uploads).
    ///
    /// # Panics
    /// If a predecessor of `t` is unscheduled (list schedulers always
    /// schedule predecessors first).
    fn data_ready_at_dc(&self, t: TaskId, on: Option<VmId>) -> f64 {
        let mut ready: f64 = 0.0;
        for &e in self.wf.in_edges(t) {
            let edge = self.wf.edge(e);
            #[allow(clippy::expect_used)] // documented precondition (# Panics)
            let pred_vm = self
                .schedule
                .assignment(edge.from)
                .expect("predecessors are scheduled before their consumers");
            if Some(pred_vm) == on {
                // Local data: available when the producer finishes; the
                // host availability already covers it (producer runs
                // earlier on the same VM).
                continue;
            }
            ready = ready.max(self.edge_at_dc[e.index()]);
        }
        ready
    }

    /// Bytes `size(d_in,T)` that must be pulled from the datacenter if `t`
    /// runs on `on` (`None` = a new VM): cross-VM edges + external input.
    ///
    /// Computed as (external + all edges) − (edges local to `on`), both
    /// sums in edge order. This total-minus-local formulation is what lets
    /// the in-edge pass adjust the per-task aggregate for each
    /// predecessor-hosting VM in O(1) — the oracle uses the identical
    /// expression so the two stay bit-for-bit equal. For a new VM (or a VM
    /// hosting no predecessor) the local sum is 0.0 and the value equals
    /// the plain in-order sum of all inputs.
    fn input_bytes(&self, t: TaskId, on: Option<VmId>) -> f64 {
        let mut total = self.wf.task(t).external_input;
        let mut local = 0.0f64;
        for &e in self.wf.in_edges(t) {
            let edge = self.wf.edge(e);
            total += edge.size;
            if on.is_some() && self.schedule.assignment(edge.from) == on {
                local += edge.size;
            }
        }
        total - local
    }

    /// Evaluation of `t` on the used VM `vm`, given the task's remote input
    /// bytes and data-ready instant as seen from that VM: [`eval_remote`]
    /// with the category's occupied time and rate, so the oracle and the
    /// pruned walks perform bit-identical arithmetic.
    #[inline]
    fn eval_used_with(&self, t: TaskId, vm: VmId, d_in: f64, data_ready: f64) -> HostEval {
        let cat = self.schedule.vm_category(vm);
        let rate = self.platform.category(cat).cost_per_second();
        eval_remote(vm, self.vm_ready[vm.index()], data_ready, self.occupied(t, cat, d_in), rate)
    }

    /// Evaluation on a fresh VM of `cat_id` of a task that occupies it for
    /// `occupied` seconds ([`Self::occupied`]).
    #[inline]
    fn eval_new_with(&self, cat_id: CategoryId, occupied: f64, data_ready: f64) -> HostEval {
        let cat = self.platform.category(cat_id);
        HostEval {
            candidate: Candidate::New(cat_id),
            eft: data_ready + cat.boot_time + occupied,
            cost: occupied * cat.cost_per_second() + cat.init_cost,
        }
    }

    /// Seconds `t` occupies a VM of `cat_id` when `d_in` bytes must first be
    /// pulled from the datacenter: `d_in / bw + w / speed`. The in-edge
    /// pass and the oracle form it with this one expression, so they agree
    /// bit for bit.
    #[inline]
    fn occupied(&self, t: TaskId, cat_id: CategoryId, d_in: f64) -> f64 {
        let bw = self.platform.datacenter.bandwidth;
        d_in / bw + self.weights[t.index()] / self.platform.category(cat_id).speed
    }

    /// Evaluate `t` on `candidate`: EFT per Eq. 7 and cost `ct_{T,host}`.
    ///
    /// This re-walks `t`'s in-edges on every call. Host selections go
    /// through [`Self::sweep`] instead, which evaluates only the
    /// candidates that can win, with the same bits.
    pub(crate) fn evaluate(&self, t: TaskId, candidate: Candidate) -> HostEval {
        match candidate {
            Candidate::Used(vm) => self.eval_used_with(
                t,
                vm,
                self.input_bytes(t, Some(vm)),
                self.data_ready_at_dc(t, Some(vm)),
            ),
            Candidate::New(cat_id) => self.eval_new_with(
                cat_id,
                self.occupied(t, cat_id, self.input_bytes(t, None)),
                self.data_ready_at_dc(t, None),
            ),
        }
    }

    /// One candidate sweep of `t`, the only one host selections make: `f`
    /// receives a [`Sweep`] whose [`Sweep::evals`] hold the candidates
    /// that can win, each walk keeping at least `keep` entries (1 for
    /// `getBestHost` (Alg. 2), CG's per-category pick and the MIN-MIN
    /// cache; 2 for SUFFERAGE). That is O(K + deg) evaluations (plus exact
    /// ties) in O(K log V + deg) time, instead of one [`Self::evaluate`]
    /// per candidate, V + K of them.
    ///
    /// A used VM `v` of category `k` hosting no predecessor of `t` is
    /// evaluated from its ready instant `r_v`, the data-ready instant `dr`
    /// and the category's occupied time `occ_k` alone:
    ///
    /// - `r_v ≤ dr`: EFT is `dr + occ_k` for all of them, and the cost
    ///   `(dr − r_v + occ_k)·rate_k` does not rise as `r_v` rises (every
    ///   IEEE operation involved is monotone), so the latest-ready one is
    ///   cheapest;
    /// - `r_v > dr`: the cost is `occ_k·rate_k` for all of them, and EFT
    ///   does not fall as `r_v` rises, so the earliest-ready one finishes
    ///   first.
    ///
    /// Walking each category's `(r, id)` index from those two ends keeps
    /// the first `keep` VMs plus every following one whose cost (resp.
    /// EFT) ties the first to the bit; everything further is beaten on
    /// cost or EFT with the other key component equal. Predecessor hosts
    /// are skipped in the walk and evaluated exactly, from the in-edge
    /// pass's aggregates. The survivors come in candidate order (used VMs
    /// by id, then one `New` per category), so any selection that takes a
    /// minimum over `(EFT, cost)`, `(cost, EFT)` or the Alg. 2 key and
    /// breaks remaining ties by candidate order — first or last — picks
    /// the same candidate as over every candidate, with the same
    /// [`HostEval`] bits. With `keep = 2` every chain's kept entries hold
    /// two of its smallest affordable EFTs, or all it has: SUFFERAGE's
    /// two smallest (DESIGN.md §7). BDT grows the set further with the
    /// [`Sweep`]'s methods.
    ///
    /// The sweep is counted once `f` returns (`plan_sweeps`, and the set's
    /// size as evaluated, the rest of `V + K` as pruned; binary-search
    /// probes that are not added count as neither). Do not call a sweep
    /// (or anything that mutates `self`) from inside `f`: the scratch
    /// buffer is borrowed for the duration of the closure.
    pub(crate) fn sweep<R>(
        &self,
        t: TaskId,
        keep: usize,
        f: impl FnOnce(&mut Sweep<'_>) -> R,
    ) -> R {
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        let dr = self.push_pruned_evals(t, keep, scratch);
        #[cfg(test)]
        if crate::reference::naive_enabled() {
            // The oracle's set holds every used VM, so growing it adds
            // nothing.
            scratch.evals.clear();
            scratch.evals.extend(self.evaluate_all(t));
        }
        let mut sweep = Sweep { index: &self.by_ready, dr, scratch: &mut *scratch, stamped: false };
        let result = f(&mut sweep);
        self.count_sweep(scratch);
        result
    }

    /// Fill `scratch.evals` with the pruned candidate set of `t` (see
    /// [`Self::sweep`]), each walk keeping at least `keep` entries, in
    /// candidate order. Returns the data-ready instant the chains split at.
    fn push_pruned_evals(&self, t: TaskId, keep: usize, scratch: &mut Scratch) -> f64 {
        scratch.evals.clear();
        scratch.cat_split.clear();
        let agg = self.in_edge_pass(t, scratch);
        let dr = agg.dready_all;
        for (k, vms) in self.by_ready.iter().enumerate() {
            let (occupied, rate) = (scratch.cat_occupied[k], scratch.cat_rate[k]);
            let eval = |vm, r| eval_remote(vm, r, dr, occupied, rate);
            let split = vms.partition_point(|&(r, _)| r.0 <= dr);
            scratch.cat_split.push(split);
            // Ready by `dr`: equal EFT, the latest-ready is cheapest.
            push_run(scratch, vms[..split].iter().rev(), eval, |e| e.cost, keep, push);
            // Ready after `dr`: equal cost, the earliest-ready finishes first.
            push_run(scratch, vms[split..].iter(), eval, |e| e.eft, keep, push);
        }
        for &vm in &scratch.pred_vms {
            let e = self.eval_pred(t, vm, scratch.vm_bytes[vm.index()], &agg);
            scratch.evals.push(e);
        }
        // Candidate order; only used VMs are in the buffer so far.
        scratch.evals.sort_unstable_by_key(|e| match e.candidate {
            Candidate::Used(vm) => vm,
            Candidate::New(_) => VmId(u32::MAX),
        });
        self.push_new_evals(&agg, scratch);
        dr
    }

    /// The in-edge pass of a sweep, O(deg + K). Computes the base
    /// aggregates (valid for every new VM and every used VM hosting no
    /// predecessor of `t`), stamps the VMs hosting a predecessor into
    /// `scratch.pred_vms` with their *local* byte sum and data-ready
    /// maximum, and hoists the per-category occupied time and rate.
    ///
    /// # Panics
    /// If a predecessor of `t` is unscheduled.
    fn in_edge_pass(&self, t: TaskId, scratch: &mut Scratch) -> InEdges {
        let n_vms = self.vm_ready.len();
        if scratch.vm_stamp.len() < n_vms {
            scratch.vm_bytes.resize(n_vms, 0.0);
            scratch.vm_dready.resize(n_vms, 0.0);
            scratch.vm_stamp.resize(n_vms, 0);
            scratch.vm_seen.resize(n_vms, 0);
        }
        scratch.stamp += 1;
        let stamp = scratch.stamp;

        // Byte totals are summed in edge order so they match `input_bytes`
        // bit for bit.
        let mut total_bytes = self.wf.task(t).external_input;
        let mut dready_all: f64 = 0.0;
        scratch.pred_vms.clear();
        for &e in self.wf.in_edges(t) {
            let edge = self.wf.edge(e);
            #[allow(clippy::expect_used)] // list schedulers commit predecessors first
            let pred_vm = self
                .schedule
                .assignment(edge.from)
                .expect("predecessors are scheduled before their consumers");
            total_bytes += edge.size;
            dready_all = dready_all.max(self.edge_at_dc[e.index()]);
            let i = pred_vm.index();
            if scratch.vm_stamp[i] != stamp {
                scratch.vm_stamp[i] = stamp;
                scratch.pred_vms.push(pred_vm);
                scratch.vm_bytes[i] = 0.0;
                scratch.vm_dready[i] = 0.0;
            }
            scratch.vm_bytes[i] += edge.size;
            scratch.vm_dready[i] = scratch.vm_dready[i].max(self.edge_at_dc[e.index()]);
        }

        // The data-ready instant of a predecessor-hosting VM is the maximum
        // over every *other* VM's local maximum (each in-edge lives on
        // exactly one VM), which a top-two scan answers in O(1) per VM —
        // exactly, because `f64::max` over these finite non-negative values
        // is grouping-insensitive.
        let mut top_vm = VmId(u32::MAX);
        let (mut top, mut second) = (0.0f64, 0.0f64);
        for &v in &scratch.pred_vms {
            let m = scratch.vm_dready[v.index()];
            if m > top {
                (top, second) = (m, top);
                top_vm = v;
            } else if m > second {
                second = m;
            }
        }

        // Hoist the per-category base occupied time and rate out of the
        // walks: `total_bytes / bw + w / speed` only depends on the
        // category. Computing it once per category with `occupied` keeps
        // the results bit for bit equal to `eval_used_with`.
        scratch.cat_occupied.clear();
        scratch.cat_rate.clear();
        for cat_id in self.platform.category_ids() {
            scratch.cat_occupied.push(self.occupied(t, cat_id, total_bytes));
            scratch.cat_rate.push(self.platform.category(cat_id).cost_per_second());
        }
        InEdges { total_bytes, dready_all, top_vm, top, second }
    }

    /// Evaluation of `t` on `vm`, a VM hosting a predecessor whose local
    /// in-edges carry `local_bytes`: total-minus-local bytes and the
    /// top-two data-ready exclusion.
    #[inline]
    fn eval_pred(&self, t: TaskId, vm: VmId, local_bytes: f64, agg: &InEdges) -> HostEval {
        let dready = if vm == agg.top_vm { agg.second } else { agg.top };
        self.eval_used_with(t, vm, agg.total_bytes - local_bytes, dready)
    }

    /// Append one fresh-VM evaluation per category, from the hoisted
    /// occupied times.
    fn push_new_evals(&self, agg: &InEdges, scratch: &mut Scratch) {
        for (cat, &occupied) in self.platform.category_ids().zip(&scratch.cat_occupied) {
            scratch.evals.push(self.eval_new_with(cat, occupied, agg.dready_all));
        }
    }

    /// Account one sweep that produced `scratch.evals` out of `V + K`
    /// candidates.
    fn count_sweep(&self, scratch: &mut Scratch) {
        let all = self.vm_ready.len() + self.platform.category_count();
        let evals = scratch.evals.len();
        scratch.sweeps += 1;
        scratch.cand_evals += u64::try_from(evals).unwrap_or(u64::MAX);
        scratch.pruned += u64::try_from(all.saturating_sub(evals)).unwrap_or(u64::MAX);
    }

    /// Commit the assignment of `t` to `eval.candidate`, the evaluation a
    /// sweep selected, updating VM availability, the ready-instant index
    /// and data-at-datacenter times. Returns the concrete VM.
    pub(crate) fn commit(&mut self, t: TaskId, eval: HostEval) -> VmId {
        debug_assert_eq!(
            eval.bits(),
            self.evaluate(t, eval.candidate).bits(),
            "a sweep's evaluation carries the bits of `evaluate`"
        );
        let (vm, old) = match eval.candidate {
            Candidate::Used(vm) => (vm, Some(OrdF64(self.vm_ready[vm.index()]))),
            Candidate::New(cat) => {
                let vm = self.schedule.add_vm(cat);
                self.vm_ready.push(0.0);
                (vm, None)
            }
        };
        self.schedule.assign(t, vm);
        self.vm_ready[vm.index()] = eval.eft;
        let index = &mut self.by_ready[self.schedule.vm_category(vm).index()];
        if let Some(old) = old {
            let at = index.partition_point(|e| *e < (old, vm));
            debug_assert_eq!(index.get(at), Some(&(old, vm)), "indexed by its ready instant");
            index.remove(at);
        }
        let new = (OrdF64(eval.eft), vm);
        let at = index.partition_point(|e| *e < new);
        index.insert(at, new);
        self.finish[t.index()] = eval.eft;
        let bw = self.platform.datacenter.bandwidth;
        // Conservative: assume every output is uploaded (some will stay
        // local; the paper makes the same over-estimation, §IV-A).
        for &e in self.wf.out_edges(t) {
            self.edge_at_dc[e.index()] = eval.eft + self.wf.edge(e).size / bw;
        }
        vm
    }

    /// Flush the work counters of the candidate sweeps accumulated since
    /// this state was created to `sink`: `plan_sweeps`,
    /// `plan_candidate_evals` and `plan_candidates_pruned`. Cache-served
    /// selections (see `BestHostCache`) perform no sweep and are not
    /// counted.
    pub(crate) fn report_sweeps<S: EventSink>(&self, sink: &mut S) {
        if S::ENABLED {
            let s = self.scratch.borrow();
            sink.record(&Obs::Counter { name: "plan_sweeps", delta: s.sweeps });
            sink.record(&Obs::Counter { name: "plan_candidate_evals", delta: s.cand_evals });
            sink.record(&Obs::Counter { name: "plan_candidates_pruned", delta: s.pruned });
        }
    }

    /// Consume the state, returning the built schedule.
    pub(crate) fn into_schedule(self) -> Schedule {
        self.schedule
    }
}

/// Evaluation of a task on used VM `vm`, ready at `vm_ready`, whose
/// inputs are ready at `dready` and which occupies the VM for `occupied`
/// seconds at `rate` per second. The one used-VM arithmetic: every used-VM
/// evaluation, oracle and pruned walks alike, goes through it.
#[inline]
fn eval_remote(vm: VmId, vm_ready: f64, dready: f64, occupied: f64, rate: f64) -> HostEval {
    let begin = vm_ready.max(dready);
    // The idle gap this assignment creates on the VM is billed too — the
    // machine stays rented while waiting for the task's inputs. Without
    // this term, packing late tasks onto early VMs looks free and the
    // planned cost can undershoot the real bill badly on hub-join
    // topologies.
    let gap = begin - vm_ready;
    HostEval {
        candidate: Candidate::Used(vm),
        eft: begin + occupied,
        cost: (gap + occupied) * rate,
    }
}

/// Hand to `push` the evaluations of the leading entries of `walk`: the
/// first `keep` of them, then every following one whose `key` ties the
/// first one's to the bit. The predecessor hosts stamped by the current
/// sweep are skipped (the caller evaluates those separately).
fn push_run<'i>(
    scratch: &mut Scratch,
    walk: impl Iterator<Item = &'i (OrdF64, VmId)>,
    eval: impl Fn(VmId, f64) -> HostEval,
    key: impl Fn(&HostEval) -> f64,
    keep: usize,
    push: fn(&mut Scratch, HostEval),
) {
    let (mut run, mut taken): (Option<u64>, usize) = (None, 0);
    for &(r, vm) in walk {
        if scratch.vm_stamp[vm.index()] == scratch.stamp {
            continue;
        }
        let e = eval(vm, r.0);
        let bits = key(&e).to_bits();
        if taken >= keep && run.is_some_and(|b| b != bits) {
            break;
        }
        run = run.or(Some(bits));
        taken += 1;
        push(scratch, e);
    }
}

/// Append `e` to the sweep's evaluations.
fn push(scratch: &mut Scratch, e: HostEval) {
    scratch.evals.push(e);
}

/// Append the evaluation `e` of a used VM unless the set already holds
/// that VM.
fn push_once(scratch: &mut Scratch, e: HostEval) {
    if let Candidate::Used(vm) = e.candidate {
        if scratch.vm_seen[vm.index()] != scratch.stamp {
            scratch.vm_seen[vm.index()] = scratch.stamp;
            scratch.evals.push(e);
        }
    }
}

/// The candidate set of one [`PlanState::sweep`]: the pruned set, which
/// BDT grows on request from the two chains of each category's VMs
/// hosting no predecessor of the task, split at the data-ready instant
/// `dr`: chain 1 (ready by `dr`: one EFT, cost not rising with the ready
/// instant) and chain 2 (ready after `dr`: one cost, EFT not falling).
/// DESIGN.md §7 gives the argument BDT relies on. The set stays in
/// candidate order, holds no candidate twice and carries the bits of
/// [`PlanState::evaluate`].
#[derive(Debug)]
pub(crate) struct Sweep<'q> {
    /// The ready index the chains walk.
    index: &'q ReadyIndex,
    /// The data-ready instant the chains split at.
    dr: f64,
    scratch: &'q mut Scratch,
    /// Whether the set's used VMs carry this sweep's `vm_seen` stamp.
    stamped: bool,
}

impl<'q> Sweep<'q> {
    /// The candidates gathered so far, in candidate order.
    #[inline]
    pub(crate) fn evals(&self) -> &[HostEval] {
        &self.scratch.evals
    }

    /// The chains to grow the set from, with its used VMs stamped as seen
    /// on the first call.
    fn chains(&mut self) -> (&'q ReadyIndex, f64, &mut Scratch) {
        let s = &mut *self.scratch;
        if !self.stamped {
            self.stamped = true;
            for e in &s.evals {
                if let Candidate::Used(vm) = e.candidate {
                    s.vm_seen[vm.index()] = s.stamp;
                }
            }
        }
        (self.index, self.dr, s)
    }

    /// Add each category's latest-ready VM hosting no predecessor. The EFT
    /// does not fall along a category's `(ready instant, id)` order, so
    /// the set then holds the largest EFT over every candidate.
    pub(crate) fn add_latest_ready(&mut self) {
        let (index, dr, s) = self.chains();
        for (k, vms) in index.iter().enumerate() {
            let last = vms.iter().rev().find(|(_, vm)| s.vm_stamp[vm.index()] != s.stamp);
            if let Some(&(r, vm)) = last {
                push_once(s, eval_remote(vm, r.0, dr, s.cat_occupied[k], s.cat_rate[k]));
            }
        }
        self.restore_order();
    }

    /// Add, per category, the affordable entries (`cost <= max_cost`)
    /// from chain 1's threshold and from chain 2's head whose `key` ties
    /// the first one's to the bit. A key that does not rise along either
    /// chain (BDT's trade-off factor) thus brings in every affordable
    /// entry that can attain its maximum.
    pub(crate) fn add_affordable_ties(&mut self, max_cost: f64, key: impl Fn(&HostEval) -> f64) {
        let (index, dr, s) = self.chains();
        for (k, vms) in index.iter().enumerate() {
            let (occupied, rate) = (s.cat_occupied[k], s.cat_rate[k]);
            let eval = |vm, r| eval_remote(vm, r, dr, occupied, rate);
            let fits = |&(r, vm): &(OrdF64, VmId)| eval(vm, r.0).cost <= max_cost;
            let (ready, busy) = vms.split_at(s.cat_split[k]);
            // Chain 1: the cost does not rise with r, so the affordable
            // entries are a suffix; its first entry is the threshold. The
            // ends settle the common cases without a search.
            let threshold = match (ready.first(), ready.last()) {
                (Some(first), _) if fits(first) => 0,
                (_, Some(last)) if fits(last) => ready.partition_point(|e| !fits(e)),
                _ => ready.len(),
            };
            push_run(s, ready[threshold..].iter(), eval, &key, 1, push_once);
            // Chain 2: one shared cost, affordable as a whole or not at all.
            if busy.first().is_some_and(fits) {
                push_run(s, busy.iter(), eval, &key, 1, push_once);
            }
        }
        self.restore_order();
    }

    /// Sort the set back into candidate order after used VMs were added.
    fn restore_order(&mut self) {
        self.scratch.evals.sort_unstable_by_key(|e| e.candidate.order());
    }
}

#[cfg(test)]
impl PlanState<'_> {
    /// Evaluate `t` on every candidate host, the paper's
    /// `Used_VM ∪ New_VM` (§IV-A), in candidate order: used VMs by id, then
    /// one `New` per category.
    ///
    /// This is the oracle: O((V + K)·deg) per call, one [`Self::evaluate`]
    /// per candidate. The equivalence suite checks the pruned sweeps
    /// against it, and in naive reference mode they hand over its
    /// evaluations instead of theirs.
    pub(crate) fn evaluate_all(&self, t: TaskId) -> impl Iterator<Item = HostEval> + '_ {
        let used = self.schedule.vm_ids().map(Candidate::Used);
        let new = self.platform.category_ids().map(Candidate::New);
        used.chain(new).map(move |c| self.evaluate(t, c))
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_platform::{BillingPolicy, Datacenter, VmCategory};
    use wfs_workflow::gen::{chain, fork_join};

    /// One category: speed 1, $0.01/s, init $0.5, boot 10 s; bw 10 B/s.
    fn p1() -> Platform {
        Platform::new(
            vec![VmCategory::new("u", 1.0, 36.0, 0.5, 10.0)],
            Datacenter::new(10.0, 0.0, 0.0),
        )
        .with_billing(BillingPolicy::Continuous)
    }

    #[test]
    fn candidates_grow_with_used_vms() {
        let wf = chain(2, 100.0, 50.0);
        let p = p1();
        let mut plan = PlanState::new(&wf, &p);
        assert_eq!(plan.evaluate_all(TaskId(0)).count(), 1); // one new per category
        plan.commit(TaskId(0), plan.evaluate(TaskId(0), Candidate::New(CategoryId(0))));
        assert_eq!(plan.evaluate_all(TaskId(1)).count(), 2); // one used + one new
    }

    #[test]
    fn new_vm_eval_matches_eq7() {
        let wf = chain(2, 100.0, 50.0);
        let p = p1();
        let plan = PlanState::new(&wf, &p);
        let e = plan.evaluate(TaskId(0), Candidate::New(CategoryId(0)));
        // data ready 0 (external at DC), boot 10, dl 50/10=5, exec 100.
        assert!((e.eft - 115.0).abs() < 1e-9, "eft {}", e.eft);
        // cost = (5 + 100) * 0.01 + 0.5 init.
        assert!((e.cost - 1.55).abs() < 1e-9, "cost {}", e.cost);
    }

    #[test]
    fn used_vm_avoids_local_transfer() {
        let wf = chain(2, 100.0, 50.0);
        let p = p1();
        let mut plan = PlanState::new(&wf, &p);
        let vm = plan.commit(TaskId(0), plan.evaluate(TaskId(0), Candidate::New(CategoryId(0))));
        let used = plan.evaluate(TaskId(1), Candidate::Used(vm));
        // Same VM: no transfer of the edge, begin = vm ready (115).
        assert!((used.eft - 215.0).abs() < 1e-9, "eft {}", used.eft);
        assert!((used.cost - 1.00).abs() < 1e-9, "cost {}", used.cost);

        let fresh = plan.evaluate(TaskId(1), Candidate::New(CategoryId(0)));
        // Data at DC at 115 + 5 = 120; boot 10; dl 5; exec 100 => 235.
        assert!((fresh.eft - 235.0).abs() < 1e-9, "eft {}", fresh.eft);
        // Transfer back adds to the cost too: (5 + 100) * 0.01 + 0.5.
        assert!((fresh.cost - 1.55).abs() < 1e-9);
    }

    #[test]
    fn fork_join_parallelism_visible_in_plan() {
        let wf = fork_join(2, 100.0, 0.0);
        let p = p1();
        let mut plan = PlanState::new(&wf, &p);
        let v0 = plan.commit(TaskId(0), plan.evaluate(TaskId(0), Candidate::New(CategoryId(0))));
        // Branch 1 on the same VM, branch 2 on a fresh VM: both finish
        // before a sequential plan would.
        plan.commit(TaskId(1), plan.evaluate(TaskId(1), Candidate::Used(v0)));
        plan.commit(TaskId(2), plan.evaluate(TaskId(2), Candidate::New(CategoryId(0))));
        let f1 = plan.finish_time(TaskId(1));
        let f2 = plan.finish_time(TaskId(2));
        // v0: boot 10 + 100 + 100 = 210. fresh: data at 110, boot, exec.
        assert!((f1 - 210.0).abs() < 1e-9);
        assert!((f2 - 220.0).abs() < 1e-9, "f2 {f2}");
        assert!(!plan.is_complete());
        plan.commit(TaskId(3), plan.evaluate(TaskId(3), Candidate::Used(v0)));
        assert!(plan.is_complete());
        // Sink on v0 needs branch-2 data from DC: ready at max(210, 220+0)
        // = 220, no bytes (edge size 0) => eft 320.
        assert!((plan.finish_time(TaskId(3)) - 320.0).abs() < 1e-9);
    }

    #[test]
    fn conservative_weights_used_in_plan() {
        let wf = chain(1, 100.0, 0.0).with_sigma_ratio(0.5);
        let p = p1();
        let plan = PlanState::new(&wf, &p);
        let e = plan.evaluate(TaskId(0), Candidate::New(CategoryId(0)));
        // weight 150 conservative + boot 10.
        assert!((e.eft - 160.0).abs() < 1e-9, "eft {}", e.eft);
    }

    #[test]
    fn committed_schedule_is_valid() {
        let wf = fork_join(3, 50.0, 10.0);
        let p = p1();
        let mut plan = PlanState::new(&wf, &p);
        for &t in wf.topological_order() {
            let best = plan.evaluate_all(t).min_by(|a, b| a.eft.total_cmp(&b.eft)).unwrap();
            plan.commit(t, best);
        }
        let sched = plan.into_schedule();
        sched.validate(&wf).unwrap();
    }

    #[test]
    fn candidate_evaluation_matches_commit_effects() {
        // The EFT promised by evaluate() equals the finish time recorded by
        // commit() for the same candidate.
        use wfs_workflow::gen::{montage, GenConfig};
        let wf = montage(GenConfig::new(30, 2));
        let p = Platform::paper_default();
        let mut plan = PlanState::new(&wf, &p);
        for &t in wf.topological_order() {
            let eval = plan
                .evaluate_all(t)
                .min_by(|a, b| a.eft.total_cmp(&b.eft))
                .unwrap();
            let vm = plan.commit(t, eval);
            assert_eq!(plan.schedule().assignment(t), Some(vm));
            assert!((plan.finish_time(t) - eval.eft).abs() < 1e-9);
        }
    }

    #[test]
    fn new_vm_candidates_cover_every_category() {
        use wfs_workflow::gen::{montage, GenConfig};
        let wf = montage(GenConfig::new(30, 1));
        let p = Platform::paper_default();
        let plan = PlanState::new(&wf, &p);
        let cats: Vec<_> = plan
            .evaluate_all(wf.topological_order()[0])
            .filter_map(|e| match e.candidate {
                Candidate::New(cat) => Some(cat),
                Candidate::Used(_) => None,
            })
            .collect();
        assert_eq!(cats.len(), p.category_count());
    }
}
