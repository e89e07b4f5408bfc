//! `getBestHost` (paper Algorithm 2): smallest EFT among the candidates
//! whose cost respects the task's budget share plus the pot — plus the
//! incremental per-task cache that lets MIN-MIN/MAX-MIN avoid re-running
//! the full selection for every ready task on every round.

use crate::plan::{Candidate, HostEval, PlanState};
use wfs_observe::{Event as Obs, EventSink, NoopSink};
use wfs_simulator::VmId;
use wfs_workflow::{OrdF64, TaskId};

/// Tolerance on budget comparisons (absolute, dollars).
pub(crate) const COST_EPS: f64 = 1e-9;

/// Selection key for the affordable branch: smaller EFT, then cheaper
/// cost, then used VM before new, then lower id. A total order ([`OrdF64`]
/// makes the float components NaN-safe; the kind/id pair is unique, so the
/// order is strict over distinct candidates).
#[inline]
fn key(e: &HostEval) -> (OrdF64, OrdF64, u8, u32) {
    let (kind, id) = match e.candidate {
        Candidate::Used(vm) => (0u8, vm.0),
        Candidate::New(cat) => (1u8, cat.0),
    };
    (OrdF64(e.eft), OrdF64(e.cost), kind, id)
}

/// Fall-back key (nothing affordable): cheapest, then earliest EFT.
#[inline]
fn fallback_key(e: &HostEval) -> (OrdF64, OrdF64) {
    (OrdF64(e.cost), OrdF64(e.eft))
}

/// Outcome of one best-host selection, with the metadata the incremental
/// cache needs to decide whether the result can be reused later.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Selection {
    /// The chosen host evaluation.
    pub best: HostEval,
    /// True when `best` came from the affordable branch (cost within the
    /// limit); false when it is the fall-back cheapest candidate.
    pub affordable: bool,
    /// True when `best` is also the best candidate *ignoring* the budget:
    /// raising the limit then cannot change the winner.
    pub unconstrained_same: bool,
}

/// One-pass selection over a candidate sweep. Replicates the original
/// `get_best_host` semantics exactly:
///
/// - affordable branch: minimum of `key` (a strict total order, so the
///   historical "last minimal wins" `min_by` detail cannot matter);
/// - fall-back branch: minimum of `(cost, eft)` where ties CAN happen, and
///   `Iterator::min_by` keeps the *last* minimal element — hence `<=` in
///   the replacement test below.
pub(crate) fn select(evals: &[HostEval], limit: f64) -> Selection {
    debug_assert!(!evals.is_empty(), "a platform always offers new-VM candidates");
    let mut aff: Option<HostEval> = None;
    let mut unconstrained: Option<HostEval> = None;
    let mut cheapest: Option<HostEval> = None;
    for e in evals {
        if unconstrained.as_ref().is_none_or(|u| key(e) < key(u)) {
            unconstrained = Some(*e);
        }
        if e.cost <= limit + COST_EPS && aff.as_ref().is_none_or(|a| key(e) < key(a)) {
            aff = Some(*e);
        }
        if cheapest
            .as_ref()
            .is_none_or(|c| fallback_key(e) <= fallback_key(c))
        {
            cheapest = Some(*e);
        }
    }
    #[allow(clippy::expect_used)] // evals is non-empty, so all folds are Some
    match aff {
        Some(best) => Selection {
            best,
            affordable: true,
            unconstrained_same: best.candidate
                == unconstrained.expect("non-empty").candidate,
        },
        None => Selection {
            best: cheapest.expect("non-empty"),
            affordable: false,
            unconstrained_same: false,
        },
    }
}

/// Lean selection for callers that don't need cache metadata: one pass
/// tracking only the affordable minimum; the fall-back cheapest candidate
/// is computed in a second pass only when nothing was affordable (rare).
/// Result is identical to [`select`]`.best`.
pub(crate) fn select_best(evals: &[HostEval], limit: f64) -> HostEval {
    let mut aff: Option<&HostEval> = None;
    for e in evals {
        if e.cost <= limit + COST_EPS && aff.is_none_or(|a| key(e) < key(a)) {
            aff = Some(e);
        }
    }
    if let Some(best) = aff {
        return *best;
    }
    let mut cheapest: Option<&HostEval> = None;
    for e in evals {
        if cheapest.is_none_or(|c| fallback_key(e) <= fallback_key(c)) {
            cheapest = Some(e);
        }
    }
    #[allow(clippy::expect_used)] // evals is non-empty, so the fold is Some
    let best = cheapest.expect("a platform always offers new-VM candidates");
    *best
}

/// Pick the best host for `t` under the planning state `plan`:
///
/// - among candidates with `cost <= limit`, the one with the smallest EFT
///   (ties: cheaper cost, then used VM before new, then lower id);
/// - if *no* candidate is affordable, fall back to the globally cheapest
///   candidate (the schedule must still complete; the paper notes that
///   `getBestHost` then "will not return the host with the smallest EFT").
///
/// `limit = ∞` recovers the baseline MIN-MIN/HEFT behaviour. Only the
/// candidates that can win are evaluated
/// ([`PlanState::with_pruned_candidate_evals`]); the result is the one a
/// sweep over every candidate gives. Each evaluated candidate is reported
/// to `sink` as an [`Obs::CandidateEvaluated`] (with its EFT, cost and
/// whether it fit the limit) before the selection is returned; pass
/// [`NoopSink`] when nothing listens.
pub fn get_best_host<S: EventSink>(
    plan: &PlanState<'_>,
    t: TaskId,
    limit: f64,
    sink: &mut S,
) -> HostEval {
    plan.with_pruned_candidate_evals(t, |evals| {
        if S::ENABLED {
            for e in evals {
                let (used, host) = match e.candidate {
                    Candidate::Used(vm) => (true, vm.0),
                    Candidate::New(cat) => (false, cat.0),
                };
                sink.record(&Obs::CandidateEvaluated {
                    task: t.0,
                    used,
                    host,
                    eft: e.eft,
                    cost: e.cost,
                    affordable: e.cost <= limit + COST_EPS,
                });
            }
        }
        select_best(evals, limit)
    })
}

/// Cached best-host result for one ready task.
#[derive(Debug, Clone, Copy)]
struct Entry {
    sel: Selection,
    /// Limit the selection was computed under.
    limit: f64,
    /// VM count at computation time (a new VM adds a candidate).
    vm_count: usize,
}

/// Incremental best-host cache for round-based list schedulers
/// (MIN-MIN, MAX-MIN, SUFFERAGE).
///
/// Between two rounds, exactly one `(task, vm)` pair is committed, and the
/// commit only moves the committed VM's availability — every other
/// candidate's evaluation for a still-ready task is unchanged (the
/// committed task cannot be a predecessor of a task that was already
/// ready). A cached winner therefore stays valid unless:
///
/// - a new VM was enrolled (new candidate; `vm_count` changed),
/// - the cached winner sits on the committed VM (its own eval moved),
/// - the task's limit moved in a way that can change the winner:
///   - affordable winner: limit dropped below its cost, or the limit rose
///     while a better-but-unaffordable candidate existed
///     (`!unconstrained_same`),
///   - fall-back winner (nothing affordable): the limit rose enough that
///     the cheapest candidate now fits (`cost <= limit + ε`),
/// - the committed VM's re-evaluation (one O(deg) `evaluate` call) shows it
///   could now interfere: beat an affordable winner, or — in the fall-back
///   case — become affordable or tie/beat the cheapest `(cost, eft)` (ties
///   matter because the naive fall-back keeps the *last* minimal).
///
/// Whenever reuse is not provably exact, the entry is recomputed with a
/// (pruned) sweep — the cache is an exactness-preserving memoization, and the
/// equivalence suite checks schedules stay bit-identical to naive runs.
#[derive(Debug)]
pub(crate) struct BestHostCache {
    entries: Vec<Option<Entry>>,
    /// Selections answered from a cached entry (patch check succeeded).
    hits: u64,
    /// Selections that needed a full recomputing sweep.
    misses: u64,
}

impl BestHostCache {
    /// Empty cache for a workflow of `n_tasks` tasks.
    pub(crate) fn new(n_tasks: usize) -> Self {
        Self { entries: vec![None; n_tasks], hits: 0, misses: 0 }
    }

    /// `(hits, misses)` accumulated so far — flushed as counter events by
    /// the observed schedulers.
    pub(crate) fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drop the entry of a task (call after committing it).
    pub(crate) fn forget(&mut self, t: TaskId) {
        self.entries[t.index()] = None;
    }

    /// Can the cached selection be reused under the new `limit`?
    fn limit_still_valid(entry: &Entry, limit: f64) -> bool {
        if entry.sel.affordable {
            entry.sel.best.cost <= limit + COST_EPS
                && (limit <= entry.limit || entry.sel.unconstrained_same)
        } else {
            // The fall-back winner is the cheapest candidate: the affordable
            // set stays empty as long as even it does not fit.
            limit <= entry.limit || entry.sel.best.cost > limit + COST_EPS
        }
    }

    /// Best host for `t` under `limit`, reusing the cached result when the
    /// last commit (to `last_commit`) provably cannot have changed it.
    pub(crate) fn best(
        &mut self,
        plan: &PlanState<'_>,
        t: TaskId,
        limit: f64,
        last_commit: Option<VmId>,
    ) -> HostEval {
        if plan.is_naive() {
            return get_best_host(plan, t, limit, &mut NoopSink);
        }
        let vm_count = plan.schedule().vm_count();
        if let (Some(entry), Some(w)) = (&mut self.entries[t.index()], last_commit) {
            if entry.vm_count == vm_count
                && entry.sel.best.candidate != Candidate::Used(w)
                && Self::limit_still_valid(entry, limit)
            {
                // Patch check: the committed VM is the only candidate whose
                // evaluation moved; one O(deg) re-evaluation decides
                // whether it can now interfere with the cached winner.
                let patched = plan.evaluate(t, Candidate::Used(w));
                let best = &entry.sel.best;
                if entry.sel.affordable {
                    let wins =
                        patched.cost <= limit + COST_EPS && key(&patched) < key(best);
                    if !wins {
                        entry.sel.unconstrained_same =
                            entry.sel.unconstrained_same && key(&patched) >= key(best);
                        entry.limit = limit;
                        self.hits += 1;
                        return entry.sel.best;
                    }
                } else {
                    let interferes = patched.cost <= limit + COST_EPS
                        || fallback_key(&patched) <= fallback_key(best);
                    if !interferes {
                        entry.limit = limit;
                        self.hits += 1;
                        return entry.sel.best;
                    }
                }
            }
        }
        self.misses += 1;
        let sel = plan.with_pruned_candidate_evals(t, |evals| select(evals, limit));
        self.entries[t.index()] = Some(Entry { sel, limit, vm_count });
        sel.best
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use crate::plan::PlanState;
    use wfs_platform::{BillingPolicy, CategoryId, Datacenter, Platform, VmCategory};
    use wfs_workflow::gen::chain;

    /// Two categories: slow/cheap and fast/expensive; trivial boot/init to
    /// keep numbers readable.
    fn p2() -> Platform {
        Platform::new(
            vec![
                VmCategory::new("slow", 1.0, 3.6, 0.0, 0.0),  // $0.001/s
                VmCategory::new("fast", 4.0, 36.0, 0.0, 0.0), // $0.01/s
            ],
            Datacenter::new(1e9, 0.0, 0.0),
        )
        .with_billing(BillingPolicy::Continuous)
    }

    #[test]
    fn infinite_budget_picks_fastest() {
        let wf = chain(1, 100.0, 0.0);
        let p = p2();
        let plan = PlanState::new(&wf, &p);
        let best = get_best_host(&plan, wfs_workflow::TaskId(0), f64::INFINITY, &mut NoopSink);
        // fast: 25 s at $0.01 = $0.25; slow: 100 s at $0.001 = $0.10.
        assert_eq!(best.candidate, Candidate::New(CategoryId(1)));
        assert!((best.eft - 25.0).abs() < 1e-9);
    }

    #[test]
    fn tight_budget_forces_cheap_host() {
        let wf = chain(1, 100.0, 0.0);
        let p = p2();
        let plan = PlanState::new(&wf, &p);
        // $0.25 needed for fast; give only $0.15.
        let best = get_best_host(&plan, wfs_workflow::TaskId(0), 0.15, &mut NoopSink);
        assert_eq!(best.candidate, Candidate::New(CategoryId(0)));
        assert!((best.cost - 0.10).abs() < 1e-9);
    }

    #[test]
    fn impossible_budget_falls_back_to_cheapest() {
        let wf = chain(1, 100.0, 0.0);
        let p = p2();
        let plan = PlanState::new(&wf, &p);
        let best = get_best_host(&plan, wfs_workflow::TaskId(0), 0.0, &mut NoopSink);
        // Nothing is affordable; still returns the cheapest option.
        assert_eq!(best.candidate, Candidate::New(CategoryId(0)));
    }

    #[test]
    fn boundary_budget_is_affordable() {
        let wf = chain(1, 100.0, 0.0);
        let p = p2();
        let plan = PlanState::new(&wf, &p);
        let best = get_best_host(&plan, wfs_workflow::TaskId(0), 0.25, &mut NoopSink);
        assert_eq!(best.candidate, Candidate::New(CategoryId(1)), "exact budget must qualify");
    }

    #[test]
    fn used_vm_preferred_on_eft_tie() {
        let wf = chain(2, 100.0, 0.0);
        let p = Platform::new(
            vec![VmCategory::new("u", 1.0, 3.6, 0.0, 0.0)],
            Datacenter::new(1e9, 0.0, 0.0),
        )
        .with_billing(BillingPolicy::Continuous);
        let mut plan = PlanState::new(&wf, &p);
        plan.commit(wfs_workflow::TaskId(0), Candidate::New(CategoryId(0)));
        // Chain: task 1 on the used VM starts at 100 (no transfer) vs a new
        // VM also possible; used wins on EFT (no data transfer + no boot).
        let best = get_best_host(&plan, wfs_workflow::TaskId(1), f64::INFINITY, &mut NoopSink);
        assert!(matches!(best.candidate, Candidate::Used(_)));
    }

    #[test]
    fn selection_metadata_tracks_affordability() {
        let wf = chain(1, 100.0, 0.0);
        let p = p2();
        let plan = PlanState::new(&wf, &p);
        let t = wfs_workflow::TaskId(0);
        let selection = |limit| plan.with_candidate_evals(t, |evals| select(evals, limit));
        // Rich: fast is both the affordable and the unconstrained best.
        let rich = selection(f64::INFINITY);
        assert!(rich.affordable && rich.unconstrained_same);
        // Tight: slow wins on budget while fast stays better on EFT.
        let tight = selection(0.15);
        assert!(tight.affordable && !tight.unconstrained_same);
        // Broke: nothing affordable, fall-back to cheapest.
        let broke = selection(0.0);
        assert!(!broke.affordable);
    }

    /// Bit pattern of an evaluation, for exact comparisons.
    fn bits(e: &HostEval) -> (Candidate, u64, u64, u64) {
        (e.candidate, e.eft.to_bits(), e.begin.to_bits(), e.cost.to_bits())
    }

    /// At every step of a plan, the pruned sweep must make every selection
    /// the full sweep makes, to the bit: `select` (with its cache
    /// metadata) and `select_best` under no, a tight and an infinite
    /// limit, and CG's per-category pick. The bag of identical tasks
    /// enrolls many VMs with equal ready instants and equal costs, so the
    /// tie runs are long and the fall-back's "last minimal wins" and the
    /// affordable key's lowest id pick different ends of them.
    #[test]
    fn pruned_sweep_selects_like_the_full_sweep_under_ties() {
        use crate::cg::pick_in_category;
        use wfs_workflow::gen::{bag_of_tasks, montage, GenConfig};
        let p = Platform::paper_default();
        for (name, wf) in [
            ("montage-400", montage(GenConfig::new(400, 1))),
            ("bag-120", bag_of_tasks(120, 5000.0, 1e6)),
        ] {
            let mut plan = PlanState::new(&wf, &p);
            let (mut affordable, mut fallback, mut constrained) = (0, 0, 0);
            for (step, &t) in wf.topological_order().iter().enumerate() {
                let full: Vec<HostEval> = plan.with_candidate_evals(t, <[HostEval]>::to_vec);
                let free = select_best(&full, f64::INFINITY);
                // Just below the unconstrained winner's cost: that winner
                // is excluded and `unconstrained_same` turns false.
                let tight = free.cost - 2.0 * COST_EPS;
                for limit in [0.0, tight, f64::INFINITY] {
                    let want = select(&full, limit);
                    let got = plan.with_pruned_candidate_evals(t, |evals| select(evals, limit));
                    let at = format!("{name} step {step} limit {limit}");
                    assert_eq!(bits(&got.best), bits(&want.best), "{at}");
                    assert_eq!(got.affordable, want.affordable, "{at}");
                    assert_eq!(got.unconstrained_same, want.unconstrained_same, "{at}");
                    let lean =
                        plan.with_pruned_candidate_evals(t, |evals| select_best(evals, limit));
                    assert_eq!(bits(&lean), bits(&want.best), "{at}");
                    match (want.affordable, want.unconstrained_same) {
                        (false, _) => fallback += 1,
                        (true, false) => constrained += 1,
                        (true, true) => affordable += 1,
                    }
                }
                for cat in p.category_ids() {
                    let want = pick_in_category(&plan, &full, cat);
                    let got = plan
                        .with_pruned_candidate_evals(t, |evals| pick_in_category(&plan, evals, cat));
                    assert_eq!(bits(&got), bits(&want), "{name} step {step} CG category {cat:?}");
                }
                // Alternate EFT-greedy steps, steps capped at the cheapest
                // fresh VM's cost and fall-back steps. On the bag, the
                // capped steps enroll fresh cheap VMs that all become ready
                // at the same instant, so every fall-back selection above
                // faces a tie run and must take its highest id.
                let cheapest_new = full
                    .iter()
                    .filter(|e| matches!(e.candidate, Candidate::New(_)))
                    .map(|e| e.cost)
                    .fold(f64::INFINITY, f64::min);
                let drive = match step % 4 {
                    0 => free,
                    3 => select_best(&full, 0.0),
                    _ => select_best(&full, cheapest_new),
                };
                plan.commit(t, drive.candidate);
            }
            assert!(
                affordable > 0 && constrained > 0 && fallback > 0,
                "{name}: every selection branch must run ({affordable}/{constrained}/{fallback})"
            );
        }
    }

    #[test]
    fn cache_matches_fresh_selection_across_commits() {
        // Drive a plan forward and, at every step, compare the cached
        // answer to a fresh full selection for a spread of limits.
        let wf = wfs_workflow::gen::fork_join(6, 200.0, 1e6);
        let p = p2();
        let mut plan = PlanState::new(&wf, &p);
        let mut cache = BestHostCache::new(wf.task_count());
        let mut last: Option<wfs_simulator::VmId> = None;
        for &t in wf.topological_order() {
            for limit in [0.0, 0.05, 0.2, 1.0, f64::INFINITY] {
                let cached = cache.best(&plan, t, limit, last);
                let fresh = get_best_host(&plan, t, limit, &mut NoopSink);
                assert_eq!(cached, fresh, "task {t:?} limit {limit}");
            }
            let best = cache.best(&plan, t, 0.2, last);
            last = Some(plan.commit(t, best.candidate));
            cache.forget(t);
        }
    }
}
