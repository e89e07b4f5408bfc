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

use wfs_platform::{CategoryId, Platform};
use wfs_simulator::{Schedule, VmId};
use wfs_workflow::{OrdF64, TaskId, Workflow};

use crate::reference;

/// A candidate host for the task being scheduled: an already-enrolled VM or
/// a fresh VM of some category (the paper's `Used_VM ∪ New_VM`, §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Candidate {
    /// An already used VM.
    Used(VmId),
    /// A new VM of the given category (its startup delay and init cost
    /// apply, `δ_new = 1` in Eq. 7).
    New(CategoryId),
}

/// Planning-time evaluation of one (task, candidate) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostEval {
    /// The candidate evaluated.
    pub candidate: Candidate,
    /// Earliest Finish Time (seconds).
    pub eft: f64,
    /// Instant the host starts working for the task (transfers included,
    /// boot included for new VMs).
    pub begin: f64,
    /// Estimated cost `ct_{T,host}`: occupied time × hourly rate, plus the
    /// init cost for a new VM.
    pub cost: f64,
}

/// Reusable buffers for the allocation-free candidate sweep. Owned by
/// [`PlanState`] behind a `RefCell` so sweeps work through `&PlanState`.
///
/// The per-VM arrays are *stamped*: instead of clearing them between
/// sweeps, each entry carries the stamp of the sweep that last wrote it,
/// and stale entries are simply ignored. The arrays only ever grow (when
/// VMs are enrolled), so steady-state sweeps perform no heap allocation.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Evaluations of the current sweep, in candidate order (used VMs in
    /// enrollment order, then one `New` per category).
    evals: Vec<HostEval>,
    /// Per-VM sum of *local* edge bytes (edges whose producer sits on that
    /// VM), for VMs hosting ≥1 predecessor of the swept task.
    vm_bytes: Vec<f64>,
    /// Per-VM maximum data-at-DC instant of the same local edges.
    vm_dready: Vec<f64>,
    /// Sweep stamp guarding `vm_bytes`/`vm_dready` entries.
    vm_stamp: Vec<u64>,
    /// Current sweep stamp.
    stamp: u64,
    /// Distinct VMs hosting a predecessor of the swept task (≤ deg).
    pred_vms: Vec<VmId>,
    /// Per-category base occupied time (`total_bytes / bw + w / speed`) of
    /// the swept task — hoists the divisions out of the per-VM loop.
    cat_occupied: Vec<f64>,
    /// Per-category `cost_per_second()`.
    cat_rate: Vec<f64>,
    /// Total sweeps performed since creation (full, pruned or naive).
    sweeps: u64,
    /// Total candidate evaluations produced across those sweeps.
    cand_evals: u64,
    /// Candidates a pruned sweep skipped as provably unable to win:
    /// `V + K` minus the evaluations it produced.
    pruned: u64,
}

/// Work counters of the candidate sweeps of one [`PlanState`]; see
/// [`PlanState::sweep_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Sweeps performed (one per host selection that was not cache-served).
    pub sweeps: u64,
    /// Candidate evaluations produced across those sweeps.
    pub evals: u64,
    /// Candidates skipped by pruned sweeps. Zero in naive reference mode,
    /// where every sweep evaluates all `V + K` candidates, so
    /// `evals + pruned` equals the naive evaluation count.
    pub pruned: u64,
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
pub struct PlanState<'a> {
    wf: &'a Workflow,
    platform: &'a Platform,
    /// Conservative execution weights (`w̄ + σ`), per task.
    weights: Vec<f64>,
    /// Planned availability instant of each enrolled VM.
    vm_ready: Vec<f64>,
    /// Per category, its VMs ordered by `(ready instant, id)`: the index
    /// the pruned sweep walks (see [`Self::with_pruned_candidate_evals`]).
    /// Built by the first pruned sweep and kept up to date by
    /// [`Self::commit`] from then on, so planners that only sweep fully
    /// (BDT, SUFFERAGE) never pay for it.
    by_ready: RefCell<Option<ReadyIndex>>,
    /// Planned finish time of each scheduled task (`NAN` = unscheduled).
    finish: Vec<f64>,
    /// Planned instant each edge's data reaches the datacenter
    /// (`INFINITY` until the producer is scheduled).
    edge_at_dc: Vec<f64>,
    schedule: Schedule,
    /// Scratch space for [`Self::with_candidate_evals`].
    scratch: RefCell<Scratch>,
    /// When true (set via [`crate::reference::with_naive`]), sweeps use the
    /// per-candidate naive evaluation instead of the aggregated fast path.
    naive: bool,
}

impl<'a> PlanState<'a> {
    /// Fresh planning state with no task scheduled.
    pub fn new(wf: &'a Workflow, platform: &'a Platform) -> Self {
        Self {
            wf,
            platform,
            weights: wf.tasks().iter().map(|t| t.weight.conservative()).collect(),
            vm_ready: Vec::new(),
            by_ready: RefCell::new(None),
            finish: vec![f64::NAN; wf.task_count()],
            edge_at_dc: vec![f64::INFINITY; wf.edge_count()],
            schedule: Schedule::new(wf.task_count()),
            scratch: RefCell::new(Scratch::default()),
            naive: reference::naive_enabled(),
        }
    }

    /// True when this state was created under [`reference::with_naive`]:
    /// sweeps take the per-candidate naive path and incremental selection
    /// caches are disabled, so results serve as the ground truth the fast
    /// path is tested against.
    #[inline]
    pub fn is_naive(&self) -> bool {
        self.naive
    }

    /// The workflow being planned.
    #[inline]
    pub fn workflow(&self) -> &'a Workflow {
        self.wf
    }

    /// The target platform.
    #[inline]
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The partially built schedule.
    #[inline]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Planned finish time of `t` (`NaN` if unscheduled).
    #[inline]
    pub fn finish_time(&self, t: TaskId) -> f64 {
        self.finish[t.index()]
    }

    /// True once every task has been assigned.
    pub fn is_complete(&self) -> bool {
        self.finish.iter().all(|f| !f.is_nan())
    }

    /// All candidate hosts for the next assignment: every used VM plus one
    /// fresh VM per category (paper §IV-A).
    pub fn candidates(&self) -> Vec<Candidate> {
        let mut out: Vec<Candidate> =
            self.schedule.vm_ids().map(Candidate::Used).collect();
        out.extend(self.platform.category_ids().map(Candidate::New));
        out
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
    /// the candidate sweep adjust the per-task aggregate for each
    /// predecessor-hosting VM in O(1) — the naive path uses the identical
    /// expression so the two stay bit-for-bit equal. For a new VM (or a VM
    /// hosting no predecessor) the local sum is 0.0 and the value equals
    /// the plain in-order sum of all inputs.
    pub fn input_bytes(&self, t: TaskId, on: Option<VmId>) -> f64 {
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
    /// bytes and data-ready instant as seen from that VM. Shared by the
    /// naive per-candidate path and the aggregated sweep so both perform
    /// bit-identical arithmetic.
    #[inline]
    fn eval_used_with(&self, t: TaskId, vm: VmId, d_in: f64, data_ready: f64) -> HostEval {
        let cat_id = self.schedule.vm_category(vm);
        let cat = self.platform.category(cat_id);
        let begin = self.vm_ready[vm.index()].max(data_ready);
        // The idle gap this assignment creates on the VM is billed
        // too — the machine stays rented while waiting for the
        // task's inputs. Without this term, packing late tasks
        // onto early VMs looks free and the planned cost can
        // undershoot the real bill badly on hub-join topologies.
        let gap = begin - self.vm_ready[vm.index()];
        let occupied = self.occupied(t, cat_id, d_in);
        HostEval {
            candidate: Candidate::Used(vm),
            eft: begin + occupied,
            begin,
            cost: (gap + occupied) * cat.cost_per_second(),
        }
    }

    /// Evaluation on a fresh VM of `cat_id` of a task that occupies it for
    /// `occupied` seconds ([`Self::occupied`]); see [`Self::eval_used_with`].
    #[inline]
    fn eval_new_with(&self, cat_id: CategoryId, occupied: f64, data_ready: f64) -> HostEval {
        let cat = self.platform.category(cat_id);
        HostEval {
            candidate: Candidate::New(cat_id),
            eft: data_ready + cat.boot_time + occupied,
            begin: data_ready,
            cost: occupied * cat.cost_per_second() + cat.init_cost,
        }
    }

    /// Seconds `t` occupies a VM of `cat_id` when `d_in` bytes must first be
    /// pulled from the datacenter: `d_in / bw + w / speed`. Every sweep and
    /// the naive path form it with this one expression, so they agree bit
    /// for bit.
    #[inline]
    fn occupied(&self, t: TaskId, cat_id: CategoryId, d_in: f64) -> f64 {
        let bw = self.platform.datacenter.bandwidth;
        d_in / bw + self.weights[t.index()] / self.platform.category(cat_id).speed
    }

    /// Evaluate `t` on `candidate`: EFT per Eq. 7 and cost `ct_{T,host}`.
    ///
    /// This is the naive per-candidate path — it re-walks `t`'s in-edges on
    /// every call. Hot loops should sweep all candidates at once through
    /// [`Self::with_candidate_evals`] instead, which produces bit-identical
    /// results in O(V + K + deg) per sweep, or through
    /// [`Self::with_pruned_candidate_evals`] when only the winner of a
    /// best-host selection matters.
    pub fn evaluate(&self, t: TaskId, candidate: Candidate) -> HostEval {
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

    /// Evaluate `t` on every candidate, allocating a fresh vector.
    ///
    /// Retained as the naive reference implementation (the equivalence
    /// suite compares the fast sweep against it); schedulers should use
    /// [`Self::with_candidate_evals`].
    pub fn evaluate_all(&self, t: TaskId) -> Vec<HostEval> {
        self.candidates().into_iter().map(|c| self.evaluate(t, c)).collect()
    }

    /// Sweep all candidates for `t` into a reusable scratch buffer and hand
    /// the evaluations to `f`. Candidate order matches [`Self::candidates`]:
    /// used VMs in enrollment order, then one `New` per category.
    ///
    /// The sweep is O(V + K + deg): one pass over the in-edges
    /// (`in_edge_pass`) computes the task's base aggregates (total
    /// remote bytes, latest data-at-DC instant) plus per-VM local
    /// sums/maxima for the ≤ deg VMs hosting a predecessor, which are then
    /// folded into O(1) per-VM adjustments (total-minus-local bytes,
    /// top-two exclusion for the data-ready maximum). Evaluations are
    /// bit-identical to [`Self::evaluate`]: byte sums run over the in-edges
    /// in the same order as [`Self::input_bytes`] and `f64::max` is
    /// grouping-insensitive for the finite, non-NaN values involved.
    ///
    /// This full sweep serves the selections that need every candidate
    /// (BDT's trade-off factor, SUFFERAGE's second-best EFT) and is the
    /// naive reference; `getBestHost` and CG use
    /// [`Self::with_pruned_candidate_evals`].
    ///
    /// No heap allocation occurs once the scratch buffers have grown to the
    /// current VM count. Do not call `with_candidate_evals` (or anything
    /// that mutates `self`) from inside `f`: the scratch buffer is borrowed
    /// for the duration of the closure.
    pub fn with_candidate_evals<R>(&self, t: TaskId, f: impl FnOnce(&[HostEval]) -> R) -> R {
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        scratch.evals.clear();
        if self.naive {
            for vm in self.schedule.vm_ids() {
                scratch.evals.push(self.evaluate(t, Candidate::Used(vm)));
            }
            for cat in self.platform.category_ids() {
                scratch.evals.push(self.evaluate(t, Candidate::New(cat)));
            }
        } else {
            let agg = self.in_edge_pass(t, scratch);
            // Base pass over all used VMs, branch-free: evals land at index
            // `vm.index()`, so the ≤ deg predecessor-hosting entries can be
            // patched in place afterwards.
            let cat_occupied = &scratch.cat_occupied[..];
            let cat_rate = &scratch.cat_rate[..];
            scratch.evals.extend(
                self.vm_ready
                    .iter()
                    .zip(self.schedule.vm_categories())
                    .enumerate()
                    .map(|(i, (&vm_ready, &cat))| {
                        eval_remote(
                            VmId(i as u32),
                            vm_ready,
                            agg.dready_all,
                            cat_occupied[cat.index()],
                            cat_rate[cat.index()],
                        )
                    }),
            );
            for &vm in &scratch.pred_vms {
                let local_bytes = scratch.vm_bytes[vm.index()];
                scratch.evals[vm.index()] = self.eval_pred(t, vm, local_bytes, &agg);
            }
            self.push_new_evals(&agg, scratch);
        }
        self.count_sweep(scratch);
        f(&scratch.evals)
    }

    /// [`Self::with_candidate_evals`] restricted to the candidates that can
    /// win `getBestHost` (Alg. 2) or CG's per-category pick: O(K + deg)
    /// evaluations (plus exact ties) in O(K log V + deg) time per sweep,
    /// instead of V + K evaluations.
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
    /// the first VM plus every following one whose cost (resp. EFT) ties
    /// it to the bit; everything further is beaten on cost or EFT with the
    /// other key component equal. Predecessor hosts are skipped in the walk
    /// and evaluated exactly as in the full sweep. The survivors are handed
    /// to `f` in candidate order (used VMs by id, then one `New` per
    /// category), so any selection that takes a minimum over `(EFT, cost)`,
    /// `(cost, EFT)` or the Alg. 2 key and breaks remaining ties by
    /// candidate order — first or last — picks the same candidate as over
    /// the full sweep, with the same [`HostEval`] bits.
    ///
    /// In naive reference mode this is the full naive sweep.
    pub fn with_pruned_candidate_evals<R>(
        &self,
        t: TaskId,
        f: impl FnOnce(&[HostEval]) -> R,
    ) -> R {
        if self.naive {
            return self.with_candidate_evals(t, f);
        }
        let mut by_ready = self.by_ready.borrow_mut();
        let by_ready = by_ready.get_or_insert_with(|| self.ready_index());
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        scratch.evals.clear();
        let agg = self.in_edge_pass(t, scratch);
        let dr = agg.dready_all;
        for (k, index) in by_ready.iter().enumerate() {
            let (occupied, rate) = (scratch.cat_occupied[k], scratch.cat_rate[k]);
            let eval = |vm, r| eval_remote(vm, r, dr, occupied, rate);
            let split = index.partition_point(|&(r, _)| r.0 <= dr);
            // Ready by `dr`: equal EFT, the latest-ready is cheapest.
            push_tie_run(scratch, index[..split].iter().rev(), eval, |e| e.cost);
            // Ready after `dr`: equal cost, the earliest-ready finishes first.
            push_tie_run(scratch, index[split..].iter(), eval, |e| e.eft);
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
        self.count_sweep(scratch);
        f(&scratch.evals)
    }

    /// The ready-instant index of the current plan, built from scratch.
    fn ready_index(&self) -> ReadyIndex {
        let mut index = vec![Vec::new(); self.platform.category_count()];
        for vm in self.schedule.vm_ids() {
            let cat = self.schedule.vm_category(vm).index();
            index[cat].push((OrdF64(self.vm_ready[vm.index()]), vm));
        }
        for vms in &mut index {
            vms.sort_unstable();
        }
        index
    }

    /// The in-edge pass shared by both sweeps, O(deg + K). Computes the
    /// base aggregates (valid for every new VM and every used VM hosting no
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
        // per-VM loop: `total_bytes / bw + w / speed` only depends on the
        // category, and the two divisions dominate the loop body. Computing
        // it once per category with `occupied` keeps the results bit for
        // bit equal to `eval_used_with`.
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

    /// Commit the assignment of `t` to `candidate`, updating VM
    /// availability, the ready-instant index and data-at-datacenter times.
    /// Returns the concrete VM.
    pub fn commit(&mut self, t: TaskId, candidate: Candidate) -> VmId {
        let eval = self.evaluate(t, candidate);
        let (vm, old) = match candidate {
            Candidate::Used(vm) => (vm, Some(OrdF64(self.vm_ready[vm.index()]))),
            Candidate::New(cat) => {
                let vm = self.schedule.add_vm(cat);
                self.vm_ready.push(0.0);
                (vm, None)
            }
        };
        self.schedule.assign(t, vm);
        self.vm_ready[vm.index()] = eval.eft;
        if let Some(by_ready) = self.by_ready.get_mut() {
            let index = &mut by_ready[self.schedule.vm_category(vm).index()];
            if let Some(old) = old {
                let at = index.partition_point(|e| *e < (old, vm));
                debug_assert_eq!(index.get(at), Some(&(old, vm)), "indexed by its ready instant");
                index.remove(at);
            }
            let new = (OrdF64(eval.eft), vm);
            let at = index.partition_point(|e| *e < new);
            index.insert(at, new);
        }
        self.finish[t.index()] = eval.eft;
        let bw = self.platform.datacenter.bandwidth;
        // Conservative: assume every output is uploaded (some will stay
        // local; the paper makes the same over-estimation, §IV-A).
        for &e in self.wf.out_edges(t) {
            self.edge_at_dc[e.index()] = eval.eft + self.wf.edge(e).size / bw;
        }
        vm
    }

    /// Work counters of the candidate sweeps accumulated since this state
    /// was created. Cache-served selections (see `BestHostCache`) perform
    /// no sweep and are not counted here.
    pub fn sweep_stats(&self) -> SweepStats {
        let s = self.scratch.borrow();
        SweepStats { sweeps: s.sweeps, evals: s.cand_evals, pruned: s.pruned }
    }

    /// Planned makespan so far: the largest committed EFT.
    pub fn planned_makespan(&self) -> f64 {
        self.finish.iter().copied().filter(|f| !f.is_nan()).fold(0.0, f64::max)
    }

    /// Consume the state, returning the built schedule.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }
}

/// Evaluation of a task on used VM `vm`, ready at `vm_ready`, hosting no
/// predecessor of the task: [`PlanState::eval_used_with`]'s arithmetic with
/// the category's occupied time and rate hoisted.
#[inline]
fn eval_remote(vm: VmId, vm_ready: f64, dready: f64, occupied: f64, rate: f64) -> HostEval {
    let begin = vm_ready.max(dready);
    // The idle gap up to the data-ready instant is billed too (see
    // `eval_used_with`).
    let gap = begin - vm_ready;
    HostEval {
        candidate: Candidate::Used(vm),
        eft: begin + occupied,
        begin,
        cost: (gap + occupied) * rate,
    }
}

/// Push the evaluations of the leading entries of `walk` whose `key` ties
/// the first one's to the bit, skipping the predecessor hosts stamped by
/// the current sweep (the caller evaluates those separately).
fn push_tie_run<'i>(
    scratch: &mut Scratch,
    walk: impl Iterator<Item = &'i (OrdF64, VmId)>,
    eval: impl Fn(VmId, f64) -> HostEval,
    key: fn(&HostEval) -> f64,
) {
    let mut run: Option<u64> = None;
    for &(r, vm) in walk {
        if scratch.vm_stamp[vm.index()] == scratch.stamp {
            continue;
        }
        let e = eval(vm, r.0);
        let bits = key(&e).to_bits();
        if run.is_some_and(|b| b != bits) {
            break;
        }
        run = Some(bits);
        scratch.evals.push(e);
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
        assert_eq!(plan.candidates().len(), 1); // one new per category
        plan.commit(TaskId(0), Candidate::New(CategoryId(0)));
        assert_eq!(plan.candidates().len(), 2); // one used + one new
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
        let vm = plan.commit(TaskId(0), Candidate::New(CategoryId(0)));
        let used = plan.evaluate(TaskId(1), Candidate::Used(vm));
        // Same VM: no transfer of the edge, begin = vm ready (115).
        assert!((used.begin - 115.0).abs() < 1e-9);
        assert!((used.eft - 215.0).abs() < 1e-9, "eft {}", used.eft);
        assert!((used.cost - 1.00).abs() < 1e-9, "cost {}", used.cost);

        let fresh = plan.evaluate(TaskId(1), Candidate::New(CategoryId(0)));
        // Data at DC at 115 + 5 = 120; boot 10; dl 5; exec 100 => 235.
        assert!((fresh.begin - 120.0).abs() < 1e-9, "begin {}", fresh.begin);
        assert!((fresh.eft - 235.0).abs() < 1e-9, "eft {}", fresh.eft);
        // Transfer back adds to the cost too: (5 + 100) * 0.01 + 0.5.
        assert!((fresh.cost - 1.55).abs() < 1e-9);
    }

    #[test]
    fn fork_join_parallelism_visible_in_plan() {
        let wf = fork_join(2, 100.0, 0.0);
        let p = p1();
        let mut plan = PlanState::new(&wf, &p);
        let v0 = plan.commit(TaskId(0), Candidate::New(CategoryId(0)));
        // Branch 1 on the same VM, branch 2 on a fresh VM: both finish
        // before a sequential plan would.
        plan.commit(TaskId(1), Candidate::Used(v0));
        plan.commit(TaskId(2), Candidate::New(CategoryId(0)));
        let f1 = plan.finish_time(TaskId(1));
        let f2 = plan.finish_time(TaskId(2));
        // v0: boot 10 + 100 + 100 = 210. fresh: data at 110, boot, exec.
        assert!((f1 - 210.0).abs() < 1e-9);
        assert!((f2 - 220.0).abs() < 1e-9, "f2 {f2}");
        assert!(!plan.is_complete());
        plan.commit(TaskId(3), Candidate::Used(v0));
        assert!(plan.is_complete());
        // Sink on v0 needs branch-2 data from DC: ready at max(210, 220+0)
        // = 220, no bytes (edge size 0) => eft 320.
        assert!((plan.finish_time(TaskId(3)) - 320.0).abs() < 1e-9);
        assert!((plan.planned_makespan() - 320.0).abs() < 1e-9);
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
            let evals = plan.evaluate_all(t);
            let best = evals
                .iter()
                .min_by(|a, b| a.eft.total_cmp(&b.eft))
                .unwrap()
                .candidate;
            plan.commit(t, best);
        }
        let sched = plan.into_schedule();
        sched.validate(&wf).unwrap();
    }
}
