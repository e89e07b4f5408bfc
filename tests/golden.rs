//! Golden bit-identity test for the simulation engine.
//!
//! Plans every algorithm on three generators, replays each plan under
//! planning, stochastic, finite-datacenter and faulted configurations, and
//! folds the `to_bits` of every report field into one FNV-1a hash. The
//! pinned constant was recorded before the engine's event kernel was
//! reworked; any change to the engine's arithmetic or event order — or to
//! a refinement decision, since HEFTBUDG+/CG+ simulate every candidate
//! move — changes it. Re-pin only for an intended behavior change, and say
//! why in CHANGES.md.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use budget_sched::prelude::*;
use budget_sched::simulator::TaskRecord;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn n(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn report(&mut self, r: &SimulationReport) {
        self.f(r.makespan);
        self.f(r.vm_cost);
        self.f(r.datacenter_cost);
        self.f(r.total_cost);
        self.n(r.vms_used);
        self.n(r.tasks.len());
        for &TaskRecord { task, vm, start, end, realized_weight } in &r.tasks {
            self.word(u64::from(task.0));
            self.word(u64::from(vm.0));
            self.f(start);
            self.f(end);
            self.f(realized_weight);
        }
        self.n(r.vms.len());
        for u in &r.vms {
            self.word(u64::from(u.vm.0));
            self.word(u64::from(u.category.0));
            self.f(u.booked_at);
            self.f(u.ready_at);
            self.f(u.released_at);
            self.f(u.cost);
            self.n(u.tasks_run);
        }
    }

    fn fault_run(&mut self, run: &FaultRun) {
        self.report(&run.report);
        let s = &run.stats;
        self.n(s.crashes);
        self.n(s.tasks_lost);
        self.n(s.boot_retries);
        self.n(s.boot_abandoned);
        self.n(s.degradation_windows);
        self.f(s.degraded_seconds);
        self.f(s.wasted_compute_seconds);
        self.f(s.wasted_billed_seconds);
        for &b in run.finished.iter().chain(&run.durable) {
            self.word(u64::from(b));
        }
        for d in &run.boot_delays {
            self.word(d.map_or(u64::MAX, f64::to_bits));
        }
        self.word(u64::from(run.complete));
    }
}

/// Crashes, boot failures and degradation windows all firing within a
/// 30-task run.
fn storm(seed: u64) -> FaultConfig {
    FaultConfig::new(seed)
        .with_crash(CrashModel::exponential(900.0))
        .with_boot(BootFaultModel::new(0.45, 2).with_backoff(2.0))
        .with_degradation(DegradationModel::new(0.2, 200.0, 60.0))
}

/// Hash of every report of the golden grid, plus the fault counters summed
/// over its faulted runs (so the test can check every fault family fired).
fn golden_hash() -> (u64, FaultStats) {
    let p = Platform::paper_default();
    let finite = p.datacenter.bandwidth * 1.5;
    let mut h = Fnv::new();
    let mut fired = FaultStats::default();
    for (gi, wf) in [
        montage(GenConfig::new(30, 11)),
        cybershake(GenConfig::new(30, 12)),
        ligo(GenConfig::new(30, 13)),
    ]
    .iter()
    .enumerate()
    {
        let min_cost = simulate(wf, &p, &min_cost_schedule(wf, &p), &SimConfig::planning())
            .unwrap()
            .total_cost;
        h.f(min_cost);
        for (alg, budget) in Algorithm::ALL.into_iter().flat_map(|a| [(a, 1.5), (a, 4.0)]) {
            let sched = alg.run(wf, &p, budget * min_cost);
            let seed = 100 * gi as u64;
            for cfg in [
                SimConfig::planning(),
                SimConfig::stochastic(seed + 1),
                SimConfig::stochastic(seed + 2).with_dc_capacity(finite),
            ] {
                h.report(&simulate(wf, &p, &sched, &cfg).unwrap());
            }
            for cfg in
                [SimConfig::stochastic(seed + 3), SimConfig::planning().with_dc_capacity(finite)]
            {
                let run = simulate_with_faults(wf, &p, &sched, &cfg, &storm(seed + 4)).unwrap();
                fired.merge(&run.stats);
                h.fault_run(&run);
            }
        }
    }
    (h.0, fired)
}

#[test]
fn engine_outputs_are_bit_identical_to_the_pinned_golden_hash() {
    let (hash, fired) = golden_hash();
    assert!(fired.crashes > 0, "no crash fired: {fired:?}");
    assert!(fired.tasks_lost > 0, "no in-flight task was lost: {fired:?}");
    assert!(fired.boot_retries > 0 && fired.boot_abandoned > 0, "boot faults idle: {fired:?}");
    assert!(fired.degradation_windows > 0, "no degradation window: {fired:?}");
    assert_eq!(hash, 2_660_102_784_510_985_066, "engine outputs moved: some report bit changed");
}

impl Fnv {
    fn schedule(&mut self, s: &Schedule) {
        self.n(s.vm_count());
        for vm in s.vm_ids() {
            self.word(u64::from(s.vm_category(vm).0));
            self.n(s.order(vm).len());
            for t in s.order(vm) {
                self.word(u64::from(t.0));
            }
        }
    }
}

/// MIN-MINBUDG+ schedules (both orders) and the HEFTBUDG+/INV refinement
/// counters on 3 generators × 2 budgets. MIN-MINBUDG+ is not an
/// [`Algorithm`], so the engine golden grid above does not cover it; the
/// counters pin how many trial moves Alg. 5 simulates and keeps, which a
/// schedule-only check cannot see.
#[test]
fn refinement_schedules_and_trial_counts_are_pinned() {
    use budget_sched::scheduler::{min_cost_floor, min_min_budg_plus};
    let p = Platform::paper_default();
    let mut h = Fnv::new();
    let mut counts = Vec::new();
    for wf in [
        montage(GenConfig::new(30, 21)),
        cybershake(GenConfig::new(30, 22)),
        ligo(GenConfig::new(30, 23)),
    ] {
        let floor = min_cost_floor(&wf, &p);
        for budget in [1.2 * floor, 2.0 * floor] {
            for order in [RefineOrder::Forward, RefineOrder::Reverse] {
                h.schedule(&min_min_budg_plus(&wf, &p, budget, order));
            }
            for alg in [Algorithm::HeftBudgPlus, Algorithm::HeftBudgPlusInv] {
                let mut c = Counters::new();
                let s = alg.run_observed(&wf, &p, budget, &mut c);
                assert_eq!(s, alg.run(&wf, &p, budget), "{alg}: observed run differs");
                counts.push((c.get("refine_trials"), c.get("refine_accepted")));
            }
        }
    }
    assert_eq!(h.0, 771_301_676_871_404_074, "MIN-MINBUDG+ schedules moved");
    #[rustfmt::skip]
    let pinned = [
        (144, 13), (155, 7), (300, 4), (300, 3),  // montage
        (480, 4), (480, 3), (480, 0), (480, 0),   // cybershake
        (450, 1), (450, 1), (450, 1), (450, 1),   // ligo
    ];
    assert_eq!(counts, pinned, "refinement trial/accept counts moved");
}
