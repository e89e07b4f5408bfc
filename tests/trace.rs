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

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Name fragments of every branch the exporter has; the pinned streams
/// must reach each one.
const BRANCHES: [&str; 12] = [
    "(unclosed)",
    "(aborted)",
    "(abandoned)",
    "\"boot abandoned vm",
    " lost\"",
    "\"crash vm",
    "\"down ext ",
    "\"up e",
    "\"degraded x",
    "\"datacenter\"",
    " cat0 compute\"",
    // The hand-made stream's category-less first TaskStarted.
    "\"vm2 compute\"",
];

/// Folds the byte length and FNV-1a hash of each Chrome export into one
/// pin per group.
struct Pin {
    hash: u64,
    bytes: usize,
}

impl Pin {
    fn new() -> Self {
        Self { hash: 0xcbf2_9ce4_8422_2325, bytes: 0 }
    }

    fn add(&mut self, events: &[Event], reached: &mut BTreeSet<&'static str>) {
        let json = ChromeTrace::from_events(events).to_json();
        self.bytes += json.len();
        for b in fnv(json.as_bytes()).to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        reached.extend(BRANCHES.iter().filter(|b| json.contains(*b)));
    }
}

/// The recorded streams of the `faults` benchmark grid: montage/ligo at 60
/// and 90 tasks, every recovery policy, crash MTBF 600/3600 s with 10 %
/// boot failures, 8x and 20x the `min_cost` floor.
fn faults_grid_streams() -> Vec<Vec<Event>> {
    let p = Platform::paper_default();
    let mut streams = Vec::new();
    for (i, wf) in [
        montage(GenConfig::new(60, 11)),
        montage(GenConfig::new(90, 12)),
        ligo(GenConfig::new(60, 13)),
        ligo(GenConfig::new(90, 14)),
    ]
    .iter()
    .enumerate()
    {
        let floor = simulate(wf, &p, &min_cost_schedule(wf, &p), &SimConfig::planning())
            .unwrap()
            .total_cost;
        for policy in RecoveryPolicy::ALL {
            for (j, mtbf) in [600.0, 3600.0].into_iter().enumerate() {
                for mult in [8.0, 20.0] {
                    let faults = FaultConfig::new(100 + 10 * i as u64 + j as u64)
                        .with_crash(CrashModel::exponential(mtbf))
                        .with_boot(BootFaultModel::new(0.1, 3));
                    let cfg =
                        RecoveryConfig::new(Algorithm::HeftBudg, policy, mult * floor, faults)
                            .with_max_epochs(24);
                    let mut rec = RecordingSink::new();
                    run_with_recovery_observed(wf, &p, &cfg, &mut rec).unwrap();
                    streams.push(rec.events);
                }
            }
        }
    }
    streams
}

/// Hand-made streams for the corners a recorded run rarely reaches.
fn hand_made_streams() -> Vec<Vec<Event>> {
    use Event::*;
    let corners = vec![
        // No epoch marker: pid 0 is listed by the first VM event. The first
        // TaskStarted names vm2's compute track without a category, and the
        // later VmBooked keeps that name.
        TaskStarted { task: 4, vm: 2, t: 1.0 },
        // Opening on an occupied track closes the open span degenerately
        // (clamped to zero duration).
        VmBooked { vm: 2, category: 1, t: 0.5 },
        VmReady { vm: 2, t: 2.0 },
        // Events on tracks nothing opened are ignored or only mark instants.
        VmReady { vm: 7, t: 2.0 },
        VmCrashed { vm: 9, t: 2.5 },
        VmBooked { vm: 3, category: 0, t: 1.0 },
        BootAbandoned { vm: 3, t: 4.25 },
        TransferStarted { vm: 2, up: false, edge: -1, bytes: 1234.5, t: 2.0 },
        TransferAborted { vm: 2, up: false, t: 3.0 },
        TransferStarted { vm: 2, up: true, edge: 17, bytes: 2.5e9, t: 3.0 },
        TransferFinished { vm: 2, up: true, edge: 17, t: 3.125 },
        TaskStarted { task: 5, vm: 2, t: 3.125 },
        TaskAborted { task: 5, vm: 2, t: 6.0 },
        VmCrashed { vm: 2, t: 6.0 },
        DegradationStarted { t: 0.75, factor: 0.35 },
        DegradationEnded { t: 9.5 },
        // Planning and billing events do not draw.
        PlanStarted { algorithm: "HEFTBUDG", tasks: 3, budget: 2.0 },
        Counter { name: "tasks_placed", delta: 1 },
        VmBilled {
            vm: 2,
            category: 1,
            booked_at: 0.5,
            ready_at: 2.0,
            released_at: 6.0,
            cost: 0.25,
            tasks_run: 1,
        },
        DcBilled { cost: 0.5, makespan: 9.5 },
        // Epochs out of pid order, one revisited, spans left open across
        // epochs.
        EpochStarted { epoch: 3, t_offset: 50.0 },
        VmBooked { vm: 0, category: 2, t: 0.0 },
        DegradationStarted { t: 1.0, factor: 0.1 },
        VmBooked { vm: 12, category: 1, t: 0.0 },
        EpochStarted { epoch: 1, t_offset: 20.0 },
        TaskStarted { task: 8, vm: 1, t: 0.0 },
        TransferStarted { vm: 1, up: true, edge: 3, bytes: 0.4, t: 0.5 },
        VmCrashed { vm: 1, t: 0.75 },
        EpochStarted { epoch: 3, t_offset: 60.0 },
        TaskStarted { task: 9, vm: 0, t: 2.0 },
        DegradationEnded { t: 3.0 },
        TransferStarted { vm: 12, up: false, edge: 0, bytes: 7.0, t: 1.0 },
        EpochStarted { epoch: 0, t_offset: 0.0 },
        TaskFinished { task: 9, vm: 0, t: 4.0 },
        EpochStarted { epoch: 7, t_offset: 90.0 },
    ];
    let lone_epoch = vec![Event::EpochStarted { epoch: 2, t_offset: 1.5 }];
    let lone_degradation =
        vec![DegradationStarted { t: 0.0, factor: 0.5 }, DegradationEnded { t: 1.0 }];
    vec![corners, lone_epoch, lone_degradation, Vec::new()]
}

#[test]
fn chrome_json_is_pinned() {
    // (group, FNV-1a fold of each export's hash, total bytes). Recorded on
    // the exporter that formatted a name per span into a String; any byte
    // the exporter writes differently shows up here.
    const PINS: [(&str, u64, usize); 4] = [
        ("faults grid", 0xa330_ee48_9d24_c189, 1_900_049),
        ("stormy", 0xa233_1ee6_48aa_4864, 99_206),
        ("hand-made", 0x97be_4651_223b_52fd, 4_049),
        ("truncated", 0xa6da_2aec_5207_9754, 304_194),
    ];
    let grid = faults_grid_streams();
    let mut got = [Pin::new(), Pin::new(), Pin::new(), Pin::new()];
    let mut reached = BTreeSet::new();
    for events in &grid {
        got[0].add(events, &mut reached);
    }

    // Degradation windows give the datacenter track.
    let p = Platform::paper_default();
    let mut windows = 0;
    let stormy_wfs = [montage(GenConfig::new(30, 1)), ligo(GenConfig::new(30, 2))];
    for (i, wf) in stormy_wfs.iter().enumerate() {
        for policy in RecoveryPolicy::ALL {
            let cfg = RecoveryConfig::new(Algorithm::HeftBudg, policy, 3.0, stormy(7 + i as u64))
                .with_weights(WeightModel::Stochastic { seed: 5 })
                .with_max_epochs(40);
            let mut rec = RecordingSink::new();
            let out = run_with_recovery_observed(wf, &p, &cfg, &mut rec).unwrap();
            windows += out.stats.degradation_windows;
            got[1].add(&rec.events, &mut reached);
        }
    }
    assert!(windows > 0, "the stormy runs drew no degradation window");

    for events in hand_made_streams() {
        got[2].add(&events, &mut reached);
    }

    // Cutting a recorded stream leaves spans open: they are written as
    // `(unclosed)`.
    for events in grid.iter().step_by(5) {
        for cut in [events.len() / 3, events.len() / 2, events.len() * 4 / 5] {
            got[3].add(&events[..cut], &mut reached);
        }
    }

    for b in BRANCHES {
        assert!(reached.contains(b), "no pinned stream reaches `{b}`");
    }
    let mut bad = Vec::new();
    for ((name, hash, bytes), pin) in PINS.iter().zip(&got) {
        if (pin.hash, pin.bytes) != (*hash, *bytes) {
            bad.push(format!("{name}: hash {:#018x}, {} bytes", pin.hash, pin.bytes));
        }
    }
    assert!(bad.is_empty(), "Chrome export moved:\n{}", bad.join("\n"));
}
