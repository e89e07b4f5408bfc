//! Randomized invariant tests over random DAGs, platforms and budgets: the
//! invariants every schedule/simulation must uphold regardless of input.
//!
//! Formerly proptest-based; now plain seeded loops so the suite builds
//! offline. Each test draws its cases from a fixed-seed `StdRng`, so
//! failures are reproducible by case index.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use budget_sched::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// Random layered workflow: 2–5 layers, 1–6 wide, random density.
fn random_workflow(rng: &mut StdRng) -> Workflow {
    layered_random(
        LayeredParams {
            layers: rng.gen_range(2..=5usize),
            width: rng.gen_range(1..=6usize),
            edge_prob: rng.gen_range(0.1..0.9f64),
            work: 500.0,
            data: 20e6,
        },
        GenConfig {
            tasks: 0,
            seed: rng.gen_range(0..1000u64),
            sigma_ratio: rng.gen_range(0.0..=1.0f64),
        },
    )
}

fn floor(wf: &Workflow, p: &Platform) -> f64 {
    simulate(wf, p, &min_cost_schedule(wf, p), &SimConfig::planning())
        .unwrap()
        .total_cost
}

/// Every algorithm yields a schedule that validates and simulates, with
/// precedence respected in the realized execution.
#[test]
fn schedules_always_valid_and_precedence_safe() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0001 + case);
        let wf = random_workflow(&mut rng);
        let mult = rng.gen_range(1.0..20.0f64);
        let seed = rng.gen_range(0..50u64);
        let p = Platform::paper_default();
        let budget = floor(&wf, &p) * mult;
        for alg in [
            Algorithm::MinMinBudg,
            Algorithm::HeftBudg,
            Algorithm::Bdt,
            Algorithm::Cg,
        ] {
            let s = alg.run(&wf, &p, budget);
            assert!(s.validate(&wf).is_ok(), "case {case}: {alg}");
            let r = simulate(&wf, &p, &s, &SimConfig::stochastic(seed)).unwrap();
            for e in wf.edges() {
                assert!(
                    r.task(e.to).start >= r.task(e.from).end - 1e-9,
                    "case {case}: {alg}: edge {e:?} violated"
                );
            }
            for t in &r.tasks {
                assert!(t.end >= t.start, "case {case}: {alg}");
                assert!(t.realized_weight > 0.0, "case {case}: {alg}");
            }
        }
    }
}

/// Cost breakdown always adds up, and VM accounting is consistent.
#[test]
fn report_accounting_consistent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0002 + case);
        let wf = random_workflow(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let p = Platform::paper_default();
        let s = Algorithm::HeftBudg.run(&wf, &p, floor(&wf, &p) * 3.0);
        let r = simulate(&wf, &p, &s, &SimConfig::stochastic(seed)).unwrap();
        assert!((r.total_cost - (r.vm_cost + r.datacenter_cost)).abs() < 1e-9);
        let vm_sum: f64 = r.vms.iter().map(|v| v.cost).sum();
        assert!((vm_sum - r.vm_cost).abs() < 1e-9, "case {case}");
        let tasks_sum: usize = r.vms.iter().map(|v| v.tasks_run).sum();
        assert_eq!(tasks_sum, wf.task_count(), "case {case}");
        for v in &r.vms {
            assert!(v.ready_at >= v.booked_at, "case {case}");
            assert!(v.released_at >= v.ready_at - 1e-9, "case {case}");
        }
        assert!(r.vms_used <= s.vm_count(), "case {case}");
    }
}

/// Billing granularity ordering: continuous <= per-second <= per-hour.
#[test]
fn billing_granularity_monotone() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0003 + case);
        let wf = random_workflow(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let base = Platform::paper_default();
        let s = Algorithm::HeftBudg.run(&wf, &base, floor(&wf, &base) * 3.0);
        let cost = |billing| {
            let p = Platform::paper_default().with_billing(billing);
            simulate(&wf, &p, &s, &SimConfig::stochastic(seed))
                .unwrap()
                .total_cost
        };
        let c = cost(BillingPolicy::Continuous);
        let s1 = cost(BillingPolicy::PerSecond);
        let h = cost(BillingPolicy::PerHour);
        assert!(c <= s1 + 1e-9, "case {case}");
        assert!(s1 <= h + 1e-9, "case {case}");
    }
}

/// A finite datacenter capacity can only delay the execution.
#[test]
fn finite_dc_capacity_never_speeds_up() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0004 + case);
        let wf = random_workflow(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let p = Platform::paper_default();
        let s = Algorithm::HeftBudg.run(&wf, &p, floor(&wf, &p) * 3.0);
        let inf = simulate(&wf, &p, &s, &SimConfig::stochastic(seed)).unwrap();
        let lim = simulate(
            &wf,
            &p,
            &s,
            &SimConfig::stochastic(seed).with_dc_capacity(p.datacenter.bandwidth * 1.5),
        )
        .unwrap();
        assert!(lim.makespan >= inf.makespan - 1e-6, "case {case}");
    }
}

/// Conservative weights dominate mean weights for a fixed schedule.
#[test]
fn conservative_dominates_mean() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0005 + case);
        let wf = random_workflow(&mut rng);
        let p = Platform::paper_default();
        let s = Algorithm::HeftBudg.run(&wf, &p, floor(&wf, &p) * 3.0);
        let mean = simulate(&wf, &p, &s, &SimConfig::new(WeightModel::Mean)).unwrap();
        let cons = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        assert!(cons.makespan >= mean.makespan - 1e-9, "case {case}");
    }
}

/// Budget division: shares are non-negative and sum to B_calc.
#[test]
fn budget_shares_partition_b_calc() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0006 + case);
        let wf = random_workflow(&mut rng);
        let b = rng.gen_range(0.0..100.0f64);
        let p = Platform::paper_default();
        let split = divide_budget(&wf, &p, b);
        assert!(split.shares.iter().all(|&s| s >= 0.0), "case {case}");
        let sum: f64 = split.shares.iter().sum();
        assert!(
            (sum - split.b_calc).abs() < 1e-6 * split.b_calc.max(1.0),
            "case {case}"
        );
        assert!(split.b_calc <= b + 1e-9, "case {case}");
    }
}

/// Simulation is a pure function of (workflow, schedule, config).
#[test]
fn simulation_deterministic() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0007 + case);
        let wf = random_workflow(&mut rng);
        let seed = rng.gen_range(0..50u64);
        let p = Platform::paper_default();
        let s = Algorithm::MinMinBudg.run(&wf, &p, floor(&wf, &p) * 2.0);
        let a = simulate(&wf, &p, &s, &SimConfig::stochastic(seed)).unwrap();
        let b = simulate(&wf, &p, &s, &SimConfig::stochastic(seed)).unwrap();
        assert_eq!(a, b, "case {case}");
    }
}

/// Workflow JSON round-trips structurally.
#[test]
fn workflow_json_roundtrip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0008 + case);
        let wf = random_workflow(&mut rng);
        let back = Workflow::from_json(&wf.to_json()).unwrap();
        assert_eq!(back.task_count(), wf.task_count(), "case {case}");
        assert_eq!(back.edge_count(), wf.edge_count(), "case {case}");
        assert_eq!(
            back.topological_order(),
            wf.topological_order(),
            "case {case}"
        );
    }
}

#[test]
fn online_none_watchdog_matches_static_run() {
    // `timeout_sigmas = None` must be byte-for-byte the same execution as
    // a watchdog that can never fire (absurdly large k): the watchdog
    // machinery may not perturb the schedule when it never triggers.
    let mut rng = StdRng::seed_from_u64(77);
    let p = Platform::paper_default();
    for case in 0..CASES / 2 {
        let wf = random_workflow(&mut rng);
        let b = floor(&wf, &p) * rng.gen_range(1.5..6.0f64);
        let seed = rng.gen_range(0..100u64);
        let weights = WeightModel::Stochastic { seed };
        let stat = run_online(&wf, &p, b, OnlineConfig::static_run(weights));
        let never = run_online(&wf, &p, b, OnlineConfig::with_watchdog(weights, 1e9));
        assert_eq!(stat, never, "case {case}");
        assert_eq!(never.interruptions, 0, "case {case}");
    }
}

#[test]
fn online_interruptions_never_double_bill() {
    // Whatever the watchdog does — interrupt, migrate, re-dispatch — the
    // reported total must equal the per-VM usage intervals priced per
    // category plus the datacenter bill: one interval per VM, no task
    // billed on two VMs for the same seconds.
    let mut rng = StdRng::seed_from_u64(78);
    let p = Platform::paper_default();
    for case in 0..CASES / 2 {
        let wf = random_workflow(&mut rng);
        let b = floor(&wf, &p) * rng.gen_range(1.5..6.0f64);
        let seed = rng.gen_range(0..100u64);
        // k = 0.5σ fires often on high-sigma instances.
        let weights = WeightModel::Stochastic { seed };
        let out = run_online(&wf, &p, b, OnlineConfig::with_watchdog(weights, 0.5));
        let vm_total: f64 = out
            .vm_usage
            .iter()
            .map(|&(cat, secs)| {
                assert!(secs >= 0.0, "case {case}: negative usage");
                assert!(secs <= out.makespan + 1e-9, "case {case}: interval exceeds makespan");
                p.vm_cost(CategoryId(cat), secs)
            })
            .sum();
        let external = wf.external_input_data() + wf.external_output_data();
        let dc = p.datacenter.cost(out.makespan, external);
        assert!(
            (vm_total + dc - out.total_cost).abs() < 1e-9,
            "case {case}: vm {vm_total} + dc {dc} != total {}",
            out.total_cost
        );
    }
}
