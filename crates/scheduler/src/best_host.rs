//! `getBestHost` (paper Algorithm 2): smallest EFT among the candidates
//! whose cost respects the task's budget share plus the pot — plus the
//! incremental per-task cache of MIN-MIN/MAX-MIN: a round commits one task
//! to one VM, so a ready task's cached winner is re-checked against that
//! VM alone instead of re-running the selection every round.
//!
//! The rule is written once, as [`select`], over the survivors of one
//! [`PlanState::sweep`]: `get_best_host`, the cache's misses and
//! SUFFERAGE's pick all call it, and the cache keeps the
//! `unconstrained_same` flag it returns with the winner.

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
fn key(e: &HostEval) -> (OrdF64, OrdF64, (u8, u32)) {
    (OrdF64(e.eft), OrdF64(e.cost), e.candidate.order())
}

/// Fall-back key (nothing affordable): cheapest, then earliest EFT.
#[inline]
fn fallback_key(e: &HostEval) -> (OrdF64, OrdF64) {
    (OrdF64(e.cost), OrdF64(e.eft))
}

/// Alg. 2's selection over a sweep's candidates, with the metadata the
/// incremental cache needs: the winner, and whether it is also the best
/// candidate *ignoring* the budget (`unconstrained_same`: raising the
/// limit then cannot change it).
///
/// One pass tracks the minimum of `key` over the affordable candidates
/// and over the others. `key` is a strict total order, so which of equal
/// elements wins cannot matter, and the affordable minimum is also the
/// unconstrained one exactly when it beats the other minimum. Only when
/// nothing was affordable, a second pass takes the cheapest candidate by
/// `(cost, eft)`, where ties CAN happen and the naive `Iterator::min_by`
/// kept the *last* minimal element, hence `<=` in the replacement test.
pub(crate) fn select(evals: &[HostEval], limit: f64) -> (HostEval, bool) {
    let (mut aff, mut over): (Option<&HostEval>, Option<&HostEval>) = (None, None);
    for e in evals {
        let min = if e.cost <= limit + COST_EPS { &mut aff } else { &mut over };
        if min.is_none_or(|m| key(e) < key(m)) {
            *min = Some(e);
        }
    }
    if let Some(best) = aff {
        return (*best, over.is_none_or(|o| key(best) < key(o)));
    }
    let mut cheapest: Option<&HostEval> = None;
    for e in evals {
        if cheapest.is_none_or(|c| fallback_key(e) <= fallback_key(c)) {
            cheapest = Some(e);
        }
    }
    #[allow(clippy::expect_used)] // evals is non-empty, so the fold is Some
    let best = cheapest.expect("a platform always offers new-VM candidates");
    (*best, false)
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
/// candidates that can win are evaluated ([`PlanState::sweep`]); the
/// result is the one a
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
    plan.sweep(t, 1, |sweep| {
        if S::ENABLED {
            for e in sweep.evals() {
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
        select(sweep.evals(), limit).0
    })
}

/// Cached best-host result for one ready task. The winner came from the
/// affordable branch exactly when `best.cost <= limit + ε`: a selection
/// establishes this, and every hit keeps it (see [`BestHostCache::best`]).
#[derive(Debug, Clone, Copy)]
struct Entry {
    best: HostEval,
    /// True when `best` is also the best candidate ignoring the budget.
    unconstrained_same: bool,
    /// Limit the entry was last confirmed under.
    limit: f64,
}

impl Entry {
    /// Did `best` come from the affordable branch?
    fn affordable(&self) -> bool {
        self.best.cost <= self.limit + COST_EPS
    }
}

/// Incremental best-host cache for the round-based list schedulers
/// MIN-MIN and MAX-MIN (SUFFERAGE scores the affordable set beyond the
/// winner and runs an uncached sweep keeping two entries per walk, see
/// `minmin.rs`'s
/// `Rule::pick`; naive reference mode bypasses the cache).
///
/// Each round queries every ready task, then commits one task to one VM
/// `w`, either a used VM or a fresh one. That commit changes only `w`'s
/// evaluation, or adds `w` as a candidate: the committed task is not a
/// predecessor of any task that was already ready, and a fresh VM's
/// evaluation does not depend on which VMs are rented. A cached winner
/// therefore stays valid unless:
///
/// - it sits on `w` (its own evaluation moved),
/// - the task's limit moved in a way that can change the winner:
///   - affordable winner: the limit dropped below its cost, or rose while
///     a better-but-unaffordable candidate existed (`!unconstrained_same`),
///   - fall-back winner (nothing affordable): the limit rose enough that
///     the cheapest candidate now fits,
/// - `w`'s re-evaluation (one O(deg) `evaluate` call) shows it can now
///   interfere: beat an affordable winner, or, in the fall-back case,
///   become affordable or tie/beat the cheapest `(cost, eft)` (ties matter
///   because the fall-back keeps the *last* minimal).
///
/// Whenever reuse is not provably exact, the entry is recomputed with a
/// (pruned) sweep: the cache is an exactness-preserving memoization, and
/// the equivalence suite checks schedules stay bit-identical to naive runs.
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
        let fits = entry.best.cost <= limit + COST_EPS;
        if entry.affordable() {
            fits && (limit <= entry.limit || entry.unconstrained_same)
        } else {
            // The fall-back winner is the cheapest candidate: the affordable
            // set stays empty as long as even it does not fit.
            !fits
        }
    }

    /// Best host for `t` under `limit`, reusing the cached result when the
    /// last commit (to `last_commit`) provably cannot have changed it.
    ///
    /// The patch check is exact only under the caller's protocol: between
    /// two queries of a task, exactly one commit happens, to
    /// `last_commit`. `minmin::ready_set` keeps it by querying every ready
    /// task in every round and committing one pick per round.
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
        if let (Some(entry), Some(w)) = (&mut self.entries[t.index()], last_commit) {
            if entry.best.candidate != Candidate::Used(w) && Self::limit_still_valid(entry, limit) {
                // Patch check: the committed VM is the only candidate whose
                // evaluation moved or that is new; one O(deg) evaluation
                // decides whether it can now interfere with the winner.
                let patched = plan.evaluate(t, Candidate::Used(w));
                let hit = if entry.affordable() {
                    let wins = patched.cost <= limit + COST_EPS && key(&patched) < key(&entry.best);
                    entry.unconstrained_same &= key(&patched) > key(&entry.best);
                    !wins
                } else {
                    patched.cost > limit + COST_EPS
                        && fallback_key(&patched) > fallback_key(&entry.best)
                };
                if hit {
                    entry.limit = limit;
                    self.hits += 1;
                    return entry.best;
                }
            }
        }
        self.misses += 1;
        let (best, unconstrained_same) = plan.sweep(t, 1, |sweep| select(sweep.evals(), limit));
        self.entries[t.index()] = Some(Entry { best, unconstrained_same, limit });
        best
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
        let full: Vec<HostEval> = plan.evaluate_all(t).collect();
        let selection = |limit| select(&full, limit);
        // Rich: fast is both the affordable and the unconstrained best.
        let (rich, same) = selection(f64::INFINITY);
        assert!(rich.candidate == Candidate::New(CategoryId(1)) && same);
        // Tight: slow wins on budget while fast stays better on EFT.
        let (tight, same) = selection(0.15);
        assert!(tight.cost <= 0.15 && !same);
        // Broke: nothing affordable, fall-back to cheapest.
        let (broke, same) = selection(0.0);
        assert!(broke.cost > 0.0 && broke.candidate == Candidate::New(CategoryId(0)) && !same);
    }

    /// Bit pattern of an evaluation, for exact comparisons.
    fn bits(e: &HostEval) -> (Candidate, u64, u64) {
        (e.candidate, e.eft.to_bits(), e.cost.to_bits())
    }

    /// At every step of a plan, the pruned sweep must make every selection
    /// the oracle's full candidate set makes, to the bit: `select` (with
    /// its cache metadata) under no, a tight and an infinite limit, and
    /// CG's per-category pick. The bag of identical tasks
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
                let full: Vec<HostEval> = plan.evaluate_all(t).collect();
                let (free, _) = select(&full, f64::INFINITY);
                // Just below the unconstrained winner's cost: that winner
                // is excluded and `unconstrained_same` turns false.
                let tight = free.cost - 2.0 * COST_EPS;
                for limit in [0.0, tight, f64::INFINITY] {
                    let want = select(&full, limit);
                    let got = plan.sweep(t, 1, |sweep| select(sweep.evals(), limit));
                    let at = format!("{name} step {step} limit {limit}");
                    assert_eq!(bits(&got.0), bits(&want.0), "{at}");
                    assert_eq!(got.1, want.1, "{at}");
                    match (want.0.cost <= limit + COST_EPS, want.1) {
                        (false, _) => fallback += 1,
                        (true, false) => constrained += 1,
                        (true, true) => affordable += 1,
                    }
                }
                for cat in p.category_ids() {
                    let want = pick_in_category(&plan, &full, cat);
                    let got = plan.sweep(t, 1, |sweep| pick_in_category(&plan, sweep.evals(), cat));
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
                    3 => select(&full, 0.0).0,
                    _ => select(&full, cheapest_new).0,
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

    /// Per-round cache work of [`drive_ready_set`]: whether the round's
    /// commit rented a fresh VM, and the hits and misses of the round's
    /// queries.
    struct Round {
        rented: bool,
        hits: u64,
        misses: u64,
    }

    /// Follow `minmin::ready_set`'s protocol: every round queries every
    /// ready task, then commits the MIN-MIN pick. Task `t`'s limit is 0, a
    /// tight limit (just below its unconstrained winner's cost when it
    /// became ready) or ∞, by `t mod 3`. Every cached answer must be
    /// bit-equal to a fresh `get_best_host`.
    fn drive_ready_set(wf: &wfs_workflow::Workflow, p: &Platform) -> Vec<Round> {
        let mut plan = PlanState::new(wf, p);
        let mut cache = BestHostCache::new(wf.task_count());
        let mut missing: Vec<usize> = wf.task_ids().map(|t| wf.in_edges(t).len()).collect();
        // Ready tasks with their limits.
        let mut ready: Vec<(TaskId, f64)> = Vec::new();
        let enroll = |plan: &PlanState<'_>, ready: &mut Vec<(TaskId, f64)>, t: TaskId| {
            let free = get_best_host(plan, t, f64::INFINITY, &mut NoopSink);
            let tight = free.cost - 2.0 * COST_EPS;
            ready.push((t, [0.0, tight, f64::INFINITY][t.index() % 3]));
        };
        for t in wf.task_ids().filter(|t| missing[t.index()] == 0) {
            enroll(&plan, &mut ready, t);
        }
        let mut last: Option<VmId> = None;
        let mut rounds = Vec::new();
        while !ready.is_empty() {
            let (hits, misses) = cache.hit_miss();
            let mut pick: Option<(usize, HostEval)> = None;
            for (i, &(t, limit)) in ready.iter().enumerate() {
                let cached = cache.best(&plan, t, limit, last);
                let fresh = get_best_host(&plan, t, limit, &mut NoopSink);
                assert_eq!(bits(&cached), bits(&fresh), "task {t:?} limit {limit}");
                let better = |(j, b): &(usize, HostEval)| {
                    (OrdF64(cached.eft), OrdF64(cached.cost), t.0)
                        < (OrdF64(b.eft), OrdF64(b.cost), ready[*j].0 .0)
                };
                if pick.as_ref().is_none_or(better) {
                    pick = Some((i, cached));
                }
            }
            let (after_hits, after_misses) = cache.hit_miss();
            let (idx, eval) = pick.unwrap();
            let (t, _) = ready.swap_remove(idx);
            last = Some(plan.commit(t, eval.candidate));
            cache.forget(t);
            rounds.push(Round {
                rented: matches!(eval.candidate, Candidate::New(_)),
                hits: after_hits - hits,
                misses: after_misses - misses,
            });
            for succ in wf.successors(t) {
                missing[succ.index()] -= 1;
                if missing[succ.index()] == 0 {
                    enroll(&plan, &mut ready, succ);
                }
            }
        }
        rounds
    }

    /// MIN-MIN rounds over a fork-join, a bag and a Montage DAG, with
    /// commits that rent fresh VMs and commits that reuse one.
    #[test]
    fn cache_follows_the_ready_set_protocol_exactly() {
        use wfs_workflow::gen::{bag_of_tasks, fork_join, montage, GenConfig};
        let paper = Platform::paper_default();
        for (wf, p) in [
            (fork_join(6, 200.0, 1e6), &p2()),
            (bag_of_tasks(12, 5000.0, 1e6), &paper),
            (montage(GenConfig::new(60, 1)), &paper),
        ] {
            let rounds = drive_ready_set(&wf, p);
            let name = &wf.name;
            assert!(rounds.iter().any(|r| r.rented), "{name}: some commit rents a VM");
            assert!(rounds.iter().any(|r| !r.rented), "{name}: some commit reuses one");
            assert!(
                rounds.windows(2).any(|w| w[0].rented && w[1].hits > 0),
                "{name}: a rental keeps the entries it cannot affect"
            );
        }
    }

    /// On a bag of identical tasks with free boots, a fresh VM finishes
    /// later at the same cost than a new VM of its category, so renting
    /// it interferes with no other task's entry: after the first round,
    /// which fills the cache, every query is a hit although every round
    /// rents a VM.
    #[test]
    fn renting_a_vm_keeps_the_unaffected_entries() {
        let wf = wfs_workflow::gen::bag_of_tasks(9, 100.0, 1e6);
        let rounds = drive_ready_set(&wf, &p2());
        assert!(rounds.iter().all(|r| r.rented));
        assert_eq!(rounds[0].misses, 9);
        for (i, r) in rounds.iter().enumerate().skip(1) {
            assert_eq!((r.hits, r.misses), (9 - i as u64, 0), "round {i}");
        }
    }
}
