//! End-to-end observability validation: Chrome-trace export round-trip on
//! a faulted MONTAGE run, and the budget-ledger ⇔ simulator-bill exact
//! reconciliation property across fault seeds and recovery policies.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use budget_sched::prelude::*;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};

fn stormy(seed: u64) -> FaultConfig {
    FaultConfig::new(seed)
        .with_crash(CrashModel::exponential(900.0))
        .with_boot(BootFaultModel::new(0.15, 3))
        .with_degradation(DegradationModel::new(0.25, 700.0, 90.0))
}

#[test]
fn chrome_trace_round_trips_a_faulted_montage_run() {
    let wf = montage(GenConfig::new(30, 1));
    let p = Platform::paper_default();
    let cfg = RecoveryConfig::new(
        Algorithm::HeftBudg,
        RecoveryPolicy::RescheduleBudgetAware,
        3.0,
        stormy(7),
    )
    .with_weights(WeightModel::Stochastic { seed: 5 })
    .with_max_epochs(40);
    let mut rec = RecordingSink::new();
    let out = run_with_recovery_observed(&wf, &p, &cfg, &mut rec).unwrap();
    assert!(
        out.stats.crashes + out.stats.boot_retries + out.stats.degradation_windows > 0,
        "fault config injected nothing — the round-trip would not exercise fault spans"
    );

    let trace = ChromeTrace::from_events(&rec.events);
    let json = trace.to_json();
    let v: Value = serde_json::from_str(&json).expect("exporter emits well-formed JSON");
    let evs = v["traceEvents"].as_array().expect("traceEvents is an array");
    assert!(!evs.is_empty());

    let mut tracks: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    let (mut spans, mut instants) = (0usize, 0usize);
    for e in evs {
        let ph = e["ph"].as_str().expect("every event has a ph");
        let pid = e["pid"].as_u64().expect("every event has a numeric pid");
        let tid = e["tid"].as_u64().expect("every event has a numeric tid");
        match ph {
            "X" => {
                let ts = e["ts"].as_f64().expect("span ts");
                let dur = e["dur"].as_f64().expect("span dur");
                assert!(ts.is_finite() && ts >= 0.0, "bad ts {ts}");
                assert!(dur.is_finite() && dur >= 0.0, "bad dur {dur}");
                assert!(e["name"].as_str().is_some_and(|n| !n.is_empty()));
                tracks.entry((pid, tid)).or_default().push((ts, dur));
                spans += 1;
            }
            "i" => {
                assert_eq!(e["s"].as_str(), Some("t"), "instants are thread-scoped");
                assert!(e["ts"].as_f64().is_some_and(|t| t.is_finite() && t >= 0.0));
                instants += 1;
            }
            "M" => {
                assert!(e["args"]["name"].as_str().is_some_and(|n| !n.is_empty()));
            }
            other => panic!("unexpected ph `{other}`"),
        }
    }
    assert_eq!(spans, trace.span_count());
    assert_eq!(instants, trace.instant_count());
    assert!(spans > 0 && instants > 0, "faulted run should have both spans and instants");

    // The engine serializes activity per track (one compute task, one
    // download, one upload in flight per VM; degradation windows are
    // disjoint), so spans on each (pid, tid) track must be monotone and
    // non-overlapping. 0.01 µs slack covers the {:.3} serialization.
    for ((pid, tid), mut sp) in tracks {
        sp.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in sp.windows(2) {
            assert!(
                w[1].0 + 0.01 >= w[0].0 + w[0].1,
                "overlapping spans on pid {pid} tid {tid}: {w:?}"
            );
        }
    }

    // One trace process per recovery epoch.
    let span_pids: BTreeSet<u64> = evs
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .map(|e| e["pid"].as_u64().unwrap())
        .collect();
    assert_eq!(span_pids.len(), out.epochs.len(), "one pid per epoch");
}

#[test]
fn ledger_reconciles_exactly_across_fault_seeds_and_policies() {
    let wf = montage(GenConfig::new(30, 2));
    let p = Platform::paper_default();
    for seed in 0..8u64 {
        for policy in RecoveryPolicy::ALL {
            let cfg = RecoveryConfig::new(Algorithm::HeftBudg, policy, 2.5, stormy(seed))
                .with_weights(WeightModel::Stochastic { seed })
                .with_max_epochs(30);
            let mut rec = RecordingSink::new();
            let out = run_with_recovery_observed(&wf, &p, &cfg, &mut rec).unwrap();
            let ledger = BudgetLedger::from_events(&rec.events);
            assert!(
                ledger.reconcile(out.total_cost),
                "seed {seed} {policy}: ledger {} != bill {}",
                ledger.billed_total(),
                out.total_cost
            );
            assert_eq!(ledger.epoch_totals().len(), out.epochs.len(), "seed {seed} {policy}");
            assert_eq!(ledger.pot_violations(), 0, "seed {seed} {policy}: pot replay diverged");
        }
    }
}

#[test]
fn single_run_ledger_reconciles_and_counters_add_up() {
    let wf = ligo(GenConfig::new(40, 3));
    let p = Platform::paper_default();
    let n = u64::try_from(wf.task_count()).unwrap();
    for alg in [Algorithm::HeftBudg, Algorithm::MaxMinBudg, Algorithm::SufferageBudg] {
        let mut rec = RecordingSink::new();
        let sched = alg.run_observed(&wf, &p, 2.0, &mut rec);
        let report =
            simulate_observed(&wf, &p, &sched, &SimConfig::stochastic(9), &mut rec).unwrap();
        let ledger = BudgetLedger::from_events(&rec.events);
        assert!(
            ledger.reconcile(report.total_cost),
            "{alg}: ledger {} != bill {}",
            ledger.billed_total(),
            report.total_cost
        );
        assert_eq!(ledger.placed_count(), u32::try_from(n).unwrap(), "{alg}");
        assert_eq!(ledger.pot_violations(), 0, "{alg}: pot replay diverged");
        let c = Counters::from_events(&rec.events);
        assert_eq!(c.get("tasks_placed"), n, "{alg}");
        assert_eq!(c.get("sim_task_starts"), n, "{alg}");
        assert!(c.get("plan_candidate_evals") > 0, "{alg}");
        // HEFT reports every candidate it sweeps; the ready-set rules pick
        // through the best-host cache and report only their placements.
        if alg == Algorithm::HeftBudg {
            assert_eq!(c.get("plan_candidate_evals"), c.get("candidate_evals"));
        }
    }
}
