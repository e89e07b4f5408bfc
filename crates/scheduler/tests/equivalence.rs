//! Fast-path ⇔ naive-reference equivalence.
//!
//! The optimized candidate sweep ([`PlanState::with_candidate_evals`]), the
//! dominance-pruned sweep of `getBestHost` and CG
//! ([`PlanState::with_pruned_candidate_evals`]) and the incremental
//! MIN-MIN/MAX-MIN selection caches are pure optimizations: they must not
//! change a single bit of any schedule. This suite checks that claim four
//! ways:
//!
//! 1. bitwise: every full sweep produces `HostEval`s whose
//!    `eft`/`begin`/`cost` are bit-identical to the retained naive
//!    per-candidate evaluation;
//! 2. end-to-end: every algorithm, on every generator and budget, returns
//!    a schedule *equal* to the one produced in naive reference mode, where
//!    nothing is pruned or cached;
//! 3. regression: a hub-join workflow with very high fan-in (the worst
//!    case for the per-predecessor aggregate adjustment) stays exact;
//! 4. work accounting: fast and naive runs do the same refinement trials
//!    and sweeps, and evaluated plus pruned candidates equal the naive
//!    evaluations.
//!
//! The pruned sweep's selections are also compared step by step, ties
//! included, in `best_host.rs`'s unit tests.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfs_observe::{Counters, NoopSink, RecordingSink};
use wfs_platform::Platform;
use wfs_scheduler::{get_best_host, min_cost_schedule, reference, Algorithm, PlanState};
use wfs_simulator::{simulate, SimConfig};
use wfs_workflow::gen::{chain, cybershake, fork_join, ligo, montage, GenConfig};
use wfs_workflow::Workflow;

fn workloads() -> Vec<(&'static str, Workflow)> {
    vec![
        ("montage-50", montage(GenConfig::new(50, 7))),
        ("ligo-40", ligo(GenConfig::new(40, 11))),
        ("cybershake-45", cybershake(GenConfig::new(45, 13))),
        ("chain-24", chain(24, 800.0, 5e6)),
        ("fork_join-16", fork_join(16, 1200.0, 2e6)),
    ]
}

/// Drive a plan forward (committing each task to its best host under a
/// varying limit) and compare every sweep against `evaluate_all` bit for
/// bit along the way.
fn assert_sweeps_bitwise_identical(name: &str, wf: &Workflow, platform: &Platform) {
    let mut plan = PlanState::new(wf, platform);
    for (step, &t) in wf.topological_order().iter().enumerate() {
        let naive = plan.evaluate_all(t);
        plan.with_candidate_evals(t, |evals| {
            assert_eq!(evals.len(), naive.len(), "{name}: candidate count for {t:?}");
            for (fast, slow) in evals.iter().zip(&naive) {
                assert_eq!(fast.candidate, slow.candidate, "{name}: order for {t:?}");
                for (field, a, b) in [
                    ("eft", fast.eft, slow.eft),
                    ("begin", fast.begin, slow.begin),
                    ("cost", fast.cost, slow.cost),
                ] {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{name}: {field} of {t:?} on {:?} differs: {a} vs {b}",
                        fast.candidate
                    );
                }
            }
        });
        // Vary the budget pressure across steps so both the affordable and
        // the fall-back selection branches get exercised.
        let limit = match step % 3 {
            0 => f64::INFINITY,
            1 => 0.05,
            _ => 0.0,
        };
        let best = get_best_host(&plan, t, limit, &mut NoopSink);
        plan.commit(t, best.candidate);
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
/// worst case for the per-VM aggregate adjustment. Keep it exact both
/// bitwise and end-to-end.
#[test]
fn hub_join_high_fan_in_stays_exact() {
    let p = Platform::paper_default();
    let wf = fork_join(120, 300.0, 4e6);
    assert_sweeps_bitwise_identical("fork_join-120", &wf, &p);
    for alg in [Algorithm::MinMinBudg, Algorithm::HeftBudg, Algorithm::SufferageBudg] {
        for budget in [0.5, 5.0, 500.0] {
            let fast = alg.run(&wf, &p, budget);
            let naive = reference::with_naive(|| alg.run(&wf, &p, budget));
            assert_eq!(fast, naive, "{} on hub-join, budget {budget}", alg.name());
        }
    }
}
