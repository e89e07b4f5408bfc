//! Fault-injection regression suite: bit-exact determinism of seeded fault
//! runs, bit-exact equivalence of the zero-fault configuration with the
//! plain engine, and the recovery loop's budget/lint guarantees.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use budget_sched::prelude::*;
use budget_sched::simulator::SimError;

fn paper() -> Platform {
    Platform::paper_default()
}

fn storm(seed: u64) -> FaultConfig {
    FaultConfig::new(seed)
        .with_crash(CrashModel::exponential(600.0))
        .with_boot(BootFaultModel::new(0.2, 3).with_backoff(2.0))
        .with_degradation(DegradationModel::new(0.3, 500.0, 80.0))
}

fn mild(seed: u64) -> FaultConfig {
    FaultConfig::new(seed).with_crash(CrashModel::weibull(2400.0, 1.5))
}

/// Same seed + same fault config ⇒ bit-identical [`FaultRun`]s, across
/// algorithms and fault intensities (ISSUE 4 satellite: determinism).
#[test]
fn fault_injection_is_bit_deterministic() {
    let p = paper();
    for (wi, wf) in [montage(GenConfig::new(40, 1)), ligo(GenConfig::new(40, 2))]
        .iter()
        .enumerate()
    {
        for alg in [Algorithm::Heft, Algorithm::HeftBudg, Algorithm::MinMinBudg] {
            let sched = alg.run(wf, &p, 2.0);
            for faults in [mild(9), storm(9)] {
                let cfg = SimConfig::stochastic(5);
                let a = simulate_with_faults(wf, &p, &sched, &cfg, &faults, &mut NoopSink).unwrap();
                let b = simulate_with_faults(wf, &p, &sched, &cfg, &faults, &mut NoopSink).unwrap();
                assert_eq!(a, b, "wf {wi} alg {alg} not reproducible");
            }
        }
    }
}

/// Different fault seeds must actually decorrelate the injected events.
#[test]
fn fault_seeds_decorrelate() {
    let p = paper();
    let wf = montage(GenConfig::new(60, 1));
    let sched = Algorithm::HeftBudg.run(&wf, &p, 2.0);
    let cfg = SimConfig::planning();
    let runs: Vec<_> = (0..8u64)
        .map(|s| simulate_with_faults(&wf, &p, &sched, &cfg, &storm(s), &mut NoopSink).unwrap())
        .collect();
    let distinct = runs
        .iter()
        .map(|r| (r.stats.crashes, r.stats.boot_retries, r.report.makespan.to_bits()))
        .collect::<std::collections::HashSet<_>>()
        .len();
    assert!(distinct > 1, "8 seeds produced identical fault patterns");
}

/// A fault config that can never fire (infinite MTBF, zero boot-failure
/// probability) must reproduce the plain engine's report bit for bit —
/// the fault layer may not perturb the event order or the arithmetic
/// (ISSUE 4 acceptance: fault-rate-0 equivalence).
#[test]
fn zero_fault_rate_is_bit_identical_to_plain_engine() {
    let p = paper();
    let inert = FaultConfig::new(123)
        .with_crash(CrashModel::exponential(f64::INFINITY))
        .with_boot(BootFaultModel::new(0.0, 3));
    for wf in [
        montage(GenConfig::new(60, 1)),
        cybershake(GenConfig::new(60, 2)),
        ligo(GenConfig::new(60, 3)),
    ] {
        for alg in [Algorithm::Heft, Algorithm::HeftBudg, Algorithm::MinMinBudg] {
            let sched = alg.run(&wf, &p, 2.0);
            for cfg in [SimConfig::planning(), SimConfig::stochastic(17)] {
                let plain = simulate(&wf, &p, &sched, &cfg).unwrap();
                let faulted =
                    simulate_with_faults(&wf, &p, &sched, &cfg, &inert, &mut NoopSink).unwrap();
                assert_eq!(plain, faulted.report, "{alg}: zero-fault run diverged");
                assert!(faulted.complete);
                assert_eq!(faulted.stats, FaultStats::default());
                assert!(faulted.durable.iter().all(|&d| d));
            }
        }
    }
}

/// The recovery loop is deterministic end to end: same config ⇒ identical
/// outcome including every epoch record, for each policy.
#[test]
fn recovery_outcome_is_deterministic() {
    let p = paper();
    let wf = montage(GenConfig::new(40, 4));
    for policy in RecoveryPolicy::ALL {
        let cfg = RecoveryConfig::new(Algorithm::HeftBudg, policy, 3.0, storm(21))
            .with_weights(WeightModel::Stochastic { seed: 2 });
        let a = run_with_recovery_observed(&wf, &p, &cfg, &mut NoopSink).unwrap();
        let b = run_with_recovery_observed(&wf, &p, &cfg, &mut NoopSink).unwrap();
        assert_eq!(a, b, "{policy}: recovery not reproducible");
    }
}

/// Recording the event stream must not change what the faulted paths
/// compute: the simulator's [`FaultRun`] and the recovery loop's outcome
/// are equal under `NoopSink` and `RecordingSink`, for every fault seed
/// and recovery policy.
#[test]
fn recording_sink_does_not_change_faulted_runs_or_recovery() {
    let p = paper();
    let mut fired = 0;
    for wf in [montage(GenConfig::new(40, 3)), ligo(GenConfig::new(40, 5))] {
        let sched = Algorithm::HeftBudg.run(&wf, &p, 3.0);
        for seed in [1u64, 5, 21] {
            let cfg = SimConfig::stochastic(seed);
            let quiet =
                simulate_with_faults(&wf, &p, &sched, &cfg, &storm(seed), &mut NoopSink).unwrap();
            let mut rec = RecordingSink::new();
            let loud = simulate_with_faults(&wf, &p, &sched, &cfg, &storm(seed), &mut rec).unwrap();
            assert!(!rec.events.is_empty(), "seed {seed}: nothing recorded");
            assert_eq!(quiet, loud, "seed {seed}: faulted run depends on the sink");
            fired += quiet.stats.crashes + quiet.stats.boot_retries;
            for policy in RecoveryPolicy::ALL {
                let cfg = RecoveryConfig::new(Algorithm::HeftBudg, policy, 3.0, storm(seed))
                    .with_weights(WeightModel::Stochastic { seed })
                    .with_lint();
                let quiet = run_with_recovery_observed(&wf, &p, &cfg, &mut NoopSink).unwrap();
                let mut rec = RecordingSink::new();
                let loud = run_with_recovery_observed(&wf, &p, &cfg, &mut rec).unwrap();
                assert!(!rec.events.is_empty(), "seed {seed} {policy}: nothing recorded");
                assert_eq!(quiet, loud, "seed {seed} {policy}: recovery depends on the sink");
            }
        }
    }
    assert!(fired > 0, "the storm injected no faults; the comparison would be vacuous");
}

/// Budget-aware rescheduling that completes must pass the fault-aware
/// plan lint in every epoch, including the Eq. 3 budget clause on the
/// residual budget (ISSUE 4 acceptance).
#[test]
fn reschedule_epochs_are_lint_clean() {
    let p = paper();
    for seed in [2u64, 8, 21] {
        let wf = ligo(GenConfig::new(40, seed));
        let cfg = RecoveryConfig::new(
            Algorithm::HeftBudg,
            RecoveryPolicy::RescheduleBudgetAware,
            8.0,
            mild(seed),
        )
        .with_max_epochs(40)
        .with_lint();
        let out = run_with_recovery_observed(&wf, &p, &cfg, &mut NoopSink).unwrap();
        assert!(out.lint_violations.is_empty(), "seed {seed}: {:?}", out.lint_violations);
        if out.completed {
            assert!(out.within_budget(), "seed {seed}: completed over budget");
        }
    }
}

/// `SimError::Stalled` carries the unfinished task ids and prints them
/// (ISSUE 4 satellite: richer stall diagnostics).
#[test]
fn stalled_error_reports_unfinished_tasks() {
    let e = SimError::Stalled {
        completed: 2,
        unfinished: vec![TaskId(3), TaskId(7)],
    };
    let msg = e.to_string();
    assert!(msg.contains("T3"), "missing id: {msg}");
    assert!(msg.contains("T7"), "missing id: {msg}");
    assert!(msg.contains('2'), "missing completed count: {msg}");

    // Long lists are elided, not dumped.
    let many = SimError::Stalled {
        completed: 0,
        unfinished: (0..20).map(TaskId).collect(),
    };
    let msg = many.to_string();
    assert!(msg.contains("20 total"), "missing elision: {msg}");
    assert!(!msg.contains("T19"), "should elide the tail: {msg}");
}
