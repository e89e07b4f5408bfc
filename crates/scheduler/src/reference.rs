//! Naive reference mode for the planner fast path (test builds only).
//!
//! The dominance-pruned candidate sweep behind every host choice
//! ([`crate::plan::PlanState::sweep`]: `getBestHost`, CG, SUFFERAGE's
//! top-two set and BDT's grown set) and the incremental MIN-MIN/MAX-MIN
//! selection cache are designed to be *observationally identical* to the
//! straightforward implementations they replaced. This module provides
//! the switch that turns those optimizations off — every sweep then hands
//! over the oracle (`PlanState::evaluate_all`, one evaluation per
//! candidate), and nothing is cached — so tests can run any algorithm
//! twice, fast and naive, and assert the outputs match bit for bit. The
//! switch and the oracle exist only under `cfg(test)`: a release planner
//! has one code path per host choice.
//!
//! The flag is thread-local and read by every sweep and cache query, so
//! wrapping a whole algorithm run is enough.

use std::cell::Cell;

thread_local! {
    static NAIVE: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the naive reference mode enabled on this thread: every
/// sweep inside hands over one evaluation of every candidate (no pruning)
/// and the incremental selection cache is bypassed. Restores the previous
/// mode on exit (also on panic).
pub(crate) fn with_naive<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            NAIVE.with(|n| n.set(self.0));
        }
    }
    let _guard = Restore(NAIVE.with(|n| n.replace(true)));
    f()
}

/// Whether naive reference mode is active on this thread.
pub(crate) fn naive_enabled() -> bool {
    NAIVE.with(|n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use wfs_platform::Platform;
    use wfs_workflow::gen::chain;

    /// Wrapping a whole run is enough: the naive run returns the fast
    /// run's schedule, and the mode is off again afterwards.
    #[test]
    fn with_naive_wraps_a_whole_run() {
        let wf = chain(4, 100.0, 1e6);
        let p = Platform::paper_default();
        let fast = Algorithm::MinMinBudg.run(&wf, &p, 10.0);
        let naive = with_naive(|| {
            assert!(naive_enabled());
            Algorithm::MinMinBudg.run(&wf, &p, 10.0)
        });
        assert_eq!(fast, naive);
        assert!(!naive_enabled());
    }
}

#[cfg(test)]
mod equivalence {
    //! Fast-path ⇔ naive-reference equivalence.
    //!
    //! The dominance-pruned candidate sweep ([`PlanState::sweep`]: the set
    //! of `getBestHost` and CG, SUFFERAGE's two-per-walk set and BDT's grown
    //! set) and the incremental MIN-MIN/MAX-MIN selection caches are pure
    //! optimizations: they must not change a single bit of any schedule. This
    //! suite checks that claim against the oracle
    //! ([`PlanState::evaluate_all`], one evaluation per candidate) four ways:
    //!
    //! 1. bitwise: every candidate a sweep hands over (keeping one or two
    //!    entries per walk, or grown as BDT grows it) is a real candidate, the
    //!    set comes in candidate order, and its `eft`/`cost` are
    //!    bit-identical to the oracle's;
    //! 2. end-to-end: every algorithm, on every generator and budget, returns
    //!    a schedule *equal* to the one produced in naive reference mode, where
    //!    nothing is pruned or cached;
    //! 3. regression: a hub-join workflow with very high fan-in (the worst
    //!    case for the in-edge pass's per-predecessor adjustment) and a tie-stress
    //!    layout (equal weights, zero boot and init prices) stay exact;
    //! 4. work accounting: fast and naive runs do the same refinement trials
    //!    and sweeps, and evaluated plus pruned candidates equal the naive
    //!    evaluations.
    //!
    //! The pruned sweep's selections are also compared step by step, ties
    //! included, in `best_host.rs`'s unit tests.

    use crate::best_host::get_best_host;
    use crate::plan::{Candidate, HostEval, PlanState};
    use crate::{min_cost_floor, min_cost_schedule, reference, Algorithm};
    use wfs_observe::{Counters, NoopSink, RecordingSink};
    use wfs_platform::{Datacenter, Platform, VmCategory};
    use wfs_simulator::{simulate, SimConfig};
    use wfs_workflow::gen::{chain, cybershake, fork_join, ligo, montage, GenConfig};
    use wfs_workflow::{StochasticWeight, TaskId, Workflow, WorkflowBuilder};

    fn workloads() -> Vec<(&'static str, Workflow)> {
        vec![
            ("montage-50", montage(GenConfig::new(50, 7))),
            ("ligo-40", ligo(GenConfig::new(40, 11))),
            ("cybershake-45", cybershake(GenConfig::new(45, 13))),
            ("chain-24", chain(24, 800.0, 5e6)),
            ("fork_join-16", fork_join(16, 1200.0, 2e6)),
        ]
    }

    /// Key of the candidate order: used VMs by id, then one `New` per
    /// category by id.
    fn candidate_order(c: Candidate) -> (u8, u32) {
        match c {
            Candidate::Used(vm) => (0, vm.0),
            Candidate::New(cat) => (1, cat.0),
        }
    }

    /// Check one sweep's candidate set against the oracle's evaluations of
    /// the same task: in strict candidate order (so no candidate twice), each
    /// a real candidate, with the oracle's `eft` and `cost` bits.
    fn assert_set_matches_oracle(at: &str, oracle: &[HostEval], set: &[HostEval]) {
        assert!(
            set.windows(2)
                .all(|w| candidate_order(w[0].candidate) < candidate_order(w[1].candidate)),
            "{at}: out of candidate order"
        );
        for fast in set {
            let c = fast.candidate;
            let slow = oracle
                .iter()
                .find(|e| e.candidate == c)
                .unwrap_or_else(|| panic!("{at}: {c:?} is no candidate"));
            for (field, a, b) in [("eft", fast.eft, slow.eft), ("cost", fast.cost, slow.cost)] {
                assert_eq!(a.to_bits(), b.to_bits(), "{at}: {field} on {c:?} differs: {a} vs {b}");
            }
        }
    }

    /// A key `Sweep::add_affordable_ties` keeps the ties of.
    type TieKey = fn(&HostEval) -> f64;

    /// Drive a plan forward (committing each task to its best host under a
    /// varying limit) and compare every candidate set a sweep hands over
    /// against the oracle bit for bit along the way: the pruned set with each
    /// walk keeping one entry (Alg. 2, CG) and two (SUFFERAGE), and BDT's
    /// grown set, after `add_latest_ready` and after `add_affordable_ties`
    /// (as the first growth call or after `add_latest_ready`) at cost bounds
    /// from nothing to everything affordable, with a key tied along chain 1
    /// (the EFT) and one tied along chain 2 (the cost).
    fn assert_sweeps_bitwise_identical(name: &str, wf: &Workflow, platform: &Platform) {
        let mut plan = PlanState::new(wf, platform);
        let keys: [(&str, TieKey); 2] = [("eft", |e| e.eft), ("cost", |e| e.cost)];
        for (step, &t) in wf.topological_order().iter().enumerate() {
            let oracle: Vec<HostEval> = plan.evaluate_all(t).collect();
            let check = |what: &str, set: &[HostEval]| {
                assert_set_matches_oracle(&format!("{name}: {what} of {t:?}"), &oracle, set);
            };
            plan.sweep(t, 1, |sweep| check("keep-1 set", sweep.evals()));
            plan.sweep(t, 2, |sweep| check("keep-2 set", sweep.evals()));
            plan.sweep(t, 1, |sweep| {
                sweep.add_latest_ready();
                check("latest-ready set", sweep.evals());
            });
            let mut costs: Vec<f64> = oracle.iter().map(|e| e.cost).collect();
            costs.sort_by(f64::total_cmp);
            let n = costs.len();
            let bounds = [0.0, costs[0], costs[n / 4], costs[n / 2], costs[n - 1], f64::INFINITY];
            for bound in bounds {
                for (key_name, key) in keys {
                    plan.sweep(t, 1, |sweep| {
                        sweep.add_affordable_ties(bound, key);
                        check(&format!("{key_name} ties under {bound}"), sweep.evals());
                        sweep.add_latest_ready();
                        check(&format!("{key_name} ties under {bound}, latest"), sweep.evals());
                    });
                    plan.sweep(t, 1, |sweep| {
                        sweep.add_latest_ready();
                        sweep.add_affordable_ties(bound, key);
                        check(&format!("latest, {key_name} ties under {bound}"), sweep.evals());
                    });
                }
            }
            // Vary the budget pressure across steps so both the affordable and
            // the fall-back selection branches get exercised.
            let limit = match step % 3 {
                0 => f64::INFINITY,
                1 => 0.05,
                _ => 0.0,
            };
            let best = get_best_host(&plan, t, limit, &mut NoopSink);
            plan.commit(t, best);
        }
    }

    #[test]
    fn sweep_matches_naive_bitwise() {
        let p = Platform::paper_default();
        for (name, wf) in workloads() {
            assert_sweeps_bitwise_identical(name, &wf, &p);
        }
    }

    #[test]
    fn all_algorithms_schedule_identical_to_naive() {
        let p = Platform::paper_default();
        for (name, wf) in workloads() {
            let floor = simulate(&wf, &p, &min_cost_schedule(&wf, &p), &SimConfig::planning())
                .expect("min-cost schedule simulates")
                .total_cost;
            for alg in Algorithm::ALL {
                for mult in [1.05, 1.5, 3.0] {
                    let budget = floor * mult;
                    let fast = alg.run(&wf, &p, budget);
                    let naive = reference::with_naive(|| alg.run(&wf, &p, budget));
                    assert_eq!(
                        fast,
                        naive,
                        "{} diverges from naive on {name} at budget x{mult}",
                        alg.name()
                    );
                }
            }
        }
    }

    /// Observability must be a pure tap: with a `NoopSink` (the zero-cost
    /// default every untraced entry point uses) and with a live
    /// `RecordingSink`, `run_observed` must return the exact schedule `run`
    /// does, for every algorithm — traced or fallback — and budget.
    #[test]
    fn observed_runs_are_bit_identical_to_plain_runs() {
        let p = Platform::paper_default();
        for (name, wf) in workloads() {
            let floor = simulate(&wf, &p, &min_cost_schedule(&wf, &p), &SimConfig::planning())
                .expect("min-cost schedule simulates")
                .total_cost;
            for alg in Algorithm::ALL {
                for mult in [1.05, 1.5, 3.0] {
                    let budget = floor * mult;
                    let plain = alg.run(&wf, &p, budget);
                    let noop = alg.run_observed(&wf, &p, budget, &mut NoopSink);
                    assert_eq!(plain, noop, "{}: NoopSink diverges on {name} x{mult}", alg.name());
                    let mut rec = RecordingSink::new();
                    let recorded = alg.run_observed(&wf, &p, budget, &mut rec);
                    assert_eq!(
                        plain,
                        recorded,
                        "{}: RecordingSink diverges on {name} x{mult}",
                        alg.name()
                    );
                    if !matches!(alg, Algorithm::Bdt | Algorithm::Cg | Algorithm::CgPlus) {
                        assert_eq!(
                            Counters::from_events(&rec.events).get("tasks_placed"),
                            u64::try_from(wf.task_count()).unwrap(),
                            "{}: not every placement traced on {name} x{mult}",
                            alg.name()
                        );
                    }
                }
            }
        }
    }

    /// The BENCH_sched_time.json HEFTBUDG+ cells occasionally show fast slower
    /// than naive (e.g. montage-30 at 0.68x in one pin). The counters prove
    /// that is timing noise, not a fast-path hot spot: in both modes the
    /// refinement phase performs the *same* number of trials and acceptances
    /// and the planner does the same number of sweeps — HEFTBUDG+ time is
    /// dominated by whole-schedule re-simulations inside `refine_schedule`,
    /// which are mode-independent, so the planner fast path cannot regress it.
    /// Candidate work is accounted exactly: every candidate a naive sweep
    /// evaluates is either evaluated or pruned by the fast sweep, and naive
    /// sweeps prune nothing.
    #[test]
    fn refinement_work_is_identical_in_fast_and_naive_modes() {
        let p = Platform::paper_default();
        for (name, wf) in [
            ("montage-30", montage(GenConfig::new(30, 1))),
            ("ligo-30", ligo(GenConfig::new(30, 1))),
        ] {
            let floor = simulate(&wf, &p, &min_cost_schedule(&wf, &p), &SimConfig::planning())
                .expect("min-cost schedule simulates")
                .total_cost;
            let budget = floor * 2.0;
            let work = || {
                let mut rec = RecordingSink::new();
                let _ = Algorithm::HeftBudgPlus.run_observed(&wf, &p, budget, &mut rec);
                let c = Counters::from_events(&rec.events);
                (
                    (c.get("refine_trials"), c.get("refine_accepted"), c.get("plan_sweeps")),
                    c.get("plan_candidate_evals"),
                    c.get("plan_candidates_pruned"),
                )
            };
            let (fast, fast_evals, fast_pruned) = work();
            let (naive, naive_evals, naive_pruned) = reference::with_naive(work);
            assert!(fast.0 > 0, "{name}: refinement ran no trials");
            assert_eq!(fast, naive, "{name}: fast vs naive work counters diverge");
            assert_eq!(naive_pruned, 0, "{name}: a naive sweep pruned candidates");
            assert_eq!(
                fast_evals + fast_pruned,
                naive_evals,
                "{name}: evaluated + pruned must cover every naive evaluation"
            );
        }
    }

    /// Hub-join stress: many parallel branches all feeding one join task means
    /// the join's sweep sees a predecessor on (almost) every used VM — the
    /// worst case for the in-edge pass's per-VM adjustment. Keep it exact both
    /// bitwise and end-to-end.
    #[test]
    fn hub_join_high_fan_in_stays_exact() {
        let p = Platform::paper_default();
        let wf = fork_join(120, 300.0, 4e6);
        assert_sweeps_bitwise_identical("fork_join-120", &wf, &p);
        for alg in [
            Algorithm::MinMinBudg,
            Algorithm::HeftBudg,
            Algorithm::Bdt,
            Algorithm::Sufferage,
            Algorithm::SufferageBudg,
        ] {
            for budget in [0.5, 5.0, 500.0] {
                let fast = alg.run(&wf, &p, budget);
                let naive = reference::with_naive(|| alg.run(&wf, &p, budget));
                assert_eq!(fast, naive, "{} on hub-join, budget {budget}", alg.name());
            }
        }
    }

    /// Layers of `width` tasks; task i of a layer reads `size`-byte edges
    /// from `fan_in` tasks of the layer before, and its weight cycles through
    /// `weights`.
    fn tie_layers(
        levels: usize,
        width: usize,
        fan_in: usize,
        weights: &[f64],
        size: f64,
    ) -> Workflow {
        let mut b = WorkflowBuilder::new("tie-layers");
        let mut prev: Vec<TaskId> = Vec::new();
        for l in 0..levels {
            let level: Vec<TaskId> = (0..width)
                .map(|i| {
                    let w = weights[(l + i) % weights.len()];
                    b.add_task(format!("t{l}-{i}"), StochasticWeight::fixed(w))
                })
                .collect();
            for (i, &t) in level.iter().enumerate() {
                let mut from: Vec<TaskId> = (0..fan_in)
                    .filter_map(|j| prev.get((i * 5 + j * 3 + 1) % width).copied())
                    .collect();
                from.sort_unstable();
                from.dedup();
                for p in from {
                    b.connect(p, t, size);
                }
            }
            prev = level;
        }
        b.build().unwrap()
    }

    /// Tie stress for the threshold queries of BDT and SUFFERAGE: zero init
    /// prices, two categories of the same speed and price, and layers of
    /// equal-weight tasks with empty edges, so that many VMs share a ready
    /// instant, fresh VMs tie with idle ones and whole runs of candidates tie
    /// on EFT, cost and trade-off factor. The budgets range from nothing
    /// affordable through the min-cost floor to everything. Boot times are
    /// zero too, except on one platform: there a fresh VM finishes after an
    /// idle one, so SUFFERAGE's second-smallest EFT can come from a chain's
    /// second entry. Mixed-weight layouts, one with 10 MB edges, spread the
    /// ready instants; on them, BDT's runs cut to their first entry and
    /// SUFFERAGE's first two cut to one both diverge from naive. Every sweep
    /// set along the way is also checked bit for bit against the oracle.
    #[test]
    fn threshold_queries_stay_exact_under_ties() {
        let platform = |boot: f64| {
            Platform::new(
                vec![
                    VmCategory::new("slow", 1.0, 1.8, 0.0, boot),
                    VmCategory::new("twin-a", 3.0, 3.6, 0.0, boot),
                    VmCategory::new("twin-b", 3.0, 3.6, 0.0, boot),
                ],
                Datacenter::new(1e6, 0.0, 0.0),
            )
        };
        let workflows = [
            ("equal weights, fan-in 1", tie_layers(6, 12, 1, &[100.0], 0.0)),
            ("equal weights, fan-in 2", tie_layers(6, 12, 2, &[100.0], 0.0)),
            ("mixed weights", tie_layers(4, 8, 1, &[100.0, 100.0, 200.0], 0.0)),
            ("mixed weights, 10 MB edges", tie_layers(6, 12, 3, &[100.0, 200.0], 1e7)),
        ];
        for boot in [0.0, 100.0] {
            let p = platform(boot);
            for (name, wf) in &workflows {
                assert_sweeps_bitwise_identical(&format!("{name}, boot {boot}"), wf, &p);
                let floor = min_cost_floor(wf, &p);
                for alg in [Algorithm::Bdt, Algorithm::Sufferage, Algorithm::SufferageBudg] {
                    for budget in [0.0, floor, floor * 1.02, floor * 1.5, 1e9] {
                        let fast = alg.run(wf, &p, budget);
                        let naive = reference::with_naive(|| alg.run(wf, &p, budget));
                        assert_eq!(fast, naive, "{alg} on {name}, boot {boot}, budget {budget}");
                    }
                }
            }
        }
    }
}
