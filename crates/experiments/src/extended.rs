//! Extended-version experiments the paper references in §V-B: the impact
//! of the uncertainty level σ, and of the workflow size, on budget
//! compliance and the budget needed to match the baseline makespan.

use crate::common::{gaussian, replay, results_dir, stats_of, valid_pct, write_text, Replays};
use std::fmt::Write as _;
use wfs_platform::Platform;
use wfs_scheduler::{min_cost_floor, run_online, Algorithm, OnlineConfig};
use wfs_simulator::{simulate, SimConfig, WeightModel};
use wfs_workflow::gen::{layered_random, BenchmarkType, GenConfig, LayeredParams};

/// σ sweep: for σ ∈ {25, 50, 75, 100}% of the mean, measure HEFTBUDG's and
/// MIN-MINBUDG's budget-compliance rate and makespan at a fixed budget
/// multiplier. Also ablates the conservative `w̄+σ` margin: the same budget
/// with σ = 0 shows what certainty would buy.
pub fn sigma_sweep(instances: u64, reps: u64) {
    let platform = Platform::paper_default();
    let mut md = String::from("## Extended experiment — impact of the uncertainty level σ\n\n");
    md.push_str("| workflow | σ/mean | algorithm | valid % | makespan (s) | cost ($) |\n");
    md.push_str("|---|---|---|---|---|---|\n");
    for ty in BenchmarkType::ALL {
        for sigma in [0.25, 0.5, 0.75, 1.0] {
            for alg in [Algorithm::MinMinBudg, Algorithm::HeftBudg] {
                let mut r = Replays::default();
                for inst in 0..instances {
                    let wf = ty
                        .generate(GenConfig::new(90, inst).with_sigma_ratio(sigma));
                    let floor = min_cost_floor(&wf, &platform);
                    let budget = floor * 2.0;
                    let sched = alg.run(&wf, &platform, budget);
                    replay(&wf, &platform, &sched, budget, reps, gaussian, &mut r);
                }
                let mk = stats_of(&r.makespans);
                let c = stats_of(&r.costs);
                writeln!(
                    md,
                    "| {} | {:.0}% | {} | {:.0} | {:.0} ± {:.0} | {:.3} ± {:.3} |",
                    ty.name(),
                    sigma * 100.0,
                    alg.name(),
                    valid_pct(&r.valid),
                    mk.mean,
                    mk.std,
                    c.mean,
                    c.std
                )
                .unwrap();
            }
        }
        println!("sigma sweep: {} done", ty.name());
    }
    write_text(&results_dir().join("ext_sigma.md"), &md);
}

/// Model-misspecification robustness: the algorithms plan assuming
/// Gaussian weights (`w̄ + σ` margin); what happens when reality is
/// heavy-tailed (log-normal with the same two moments)? Measures budget
/// compliance and makespan inflation per benchmark type.
pub fn robustness(instances: u64, reps: u64) {
    let platform = Platform::paper_default();
    let mut md = String::from(
        "## Extended experiment — robustness to weight-model misspecification\n\n\
         HEFTBUDG plans with the Gaussian-motivated `w̄+σ` margin; executions are\n\
         replayed under Gaussian vs log-normal (same mean/σ) weights, budget = 2 x min_cost.\n\n\
         | workflow | weights | valid % | makespan (s) | cost ($) |\n|---|---|---|---|---|\n",
    );
    for ty in BenchmarkType::ALL {
        for (label, heavy) in [("gaussian", false), ("log-normal", true)] {
            let weights = |seed| {
                if heavy {
                    WeightModel::HeavyTail { seed }
                } else {
                    WeightModel::Stochastic { seed }
                }
            };
            let mut r = Replays::default();
            for inst in 0..instances {
                let wf = ty.generate(GenConfig::new(90, inst));
                let floor = min_cost_floor(&wf, &platform);
                let budget = floor * 2.0;
                let (sched, _) = wfs_scheduler::heft_budg(&wf, &platform, budget);
                replay(&wf, &platform, &sched, budget, reps, weights, &mut r);
            }
            let mk = stats_of(&r.makespans);
            let c = stats_of(&r.costs);
            writeln!(
                md,
                "| {} | {} | {:.0} | {:.0} ± {:.0} | {:.3} ± {:.3} |",
                ty.name(),
                label,
                valid_pct(&r.valid),
                mk.mean,
                mk.std,
                c.mean,
                c.std
            )
            .unwrap();
        }
        println!("robustness: {} done", ty.name());
    }
    write_text(&results_dir().join("ext_robustness.md"), &md);
}

/// Deadline/budget trade-off map — the paper's full objective (Eq. 3):
/// for each benchmark type, the minimal budget (multiple of min_cost)
/// HEFTBUDG needs to meet deadlines expressed as multiples of the
/// unconstrained HEFT makespan.
pub fn deadline_map() {
    use wfs_scheduler::min_budget_for_deadline;
    let platform = Platform::paper_default();
    let mut md = String::from(
        "## Extended experiment — budget needed per deadline (Eq. 3)\n\n\
         Minimal budget (× min_cost) for HEFTBUDG to meet a deadline of k × the\n\
         unconstrained HEFT makespan, under conservative planning (90 tasks).\n\n\
         | workflow | 1.0× | 1.2× | 1.5× | 2× | 4× | 8× |\n|---|---|---|---|---|---|---|\n",
    );
    for ty in BenchmarkType::ALL {
        let wf = ty.generate(GenConfig::new(90, 1));
        let floor = min_cost_floor(&wf, &platform);
        let base_sched = Algorithm::Heft.run(&wf, &platform, f64::INFINITY);
        let base = simulate(&wf, &platform, &base_sched, &SimConfig::planning())
            .expect("valid")
            .makespan;
        write!(md, "| {} |", ty.name()).unwrap();
        for k in [1.0, 1.2, 1.5, 2.0, 4.0, 8.0] {
            match min_budget_for_deadline(&wf, &platform, base * k) {
                Some((b, _)) => write!(md, " {:.2}× |", b / floor).unwrap(),
                None => write!(md, " — |").unwrap(),
            }
        }
        md.push('\n');
        println!("deadline map: {} done", ty.name());
    }
    write_text(&results_dir().join("ext_deadline.md"), &md);
}

/// Extension heuristics sweep: MAX-MIN(BUDG) and SUFFERAGE(BUDG) against
/// the paper's MIN-MINBUDG/HEFTBUDG on the three benchmarks — testing
/// whether the budget machinery (Alg. 1–2) composes with other list
/// schedulers as §IV claims.
pub fn extras_sweep(scale: crate::common::Scale) {
    let cells = crate::common::sweep(
        &BenchmarkType::ALL,
        90,
        &[
            Algorithm::MinMinBudg,
            Algorithm::HeftBudg,
            Algorithm::MaxMinBudg,
            Algorithm::SufferageBudg,
        ],
        scale,
    );
    let dir = results_dir();
    crate::common::write_csv(&dir.join("ext_heuristics.csv"), &cells);
    write_text(
        &dir.join("ext_heuristics.md"),
        &crate::common::to_markdown(
            "Extension — budget-aware MAX-MIN and SUFFERAGE vs the paper's algorithms (90 tasks)",
            &cells,
        ),
    );
}

/// Online re-scheduling study (paper §VI future work): static HEFTBUDG vs
/// watchdog-driven interruption/migration, across weight distributions
/// (Gaussian vs heavy-tailed) and watchdog thresholds, on a wide-speed
/// platform with a tight budget — the regime where migration is possible.
pub fn online_study(reps: u64) {
    let platform = Platform::wide_ladder();
    let wf = layered_random(
        LayeredParams { layers: 4, width: 5, edge_prob: 0.3, work: 6000.0, data: 20e6 },
        GenConfig { tasks: 0, seed: 1, sigma_ratio: 1.0 },
    );
    let floor = min_cost_floor(&wf, &platform);
    let budget = floor * 1.2;

    let mut md = String::from(
        "## Extended experiment — online re-scheduling (§VI future work)\n\n\
         Wide-speed platform (5/20/80 Gflop/s), 22 long tasks, budget = 1.2 x min_cost.\n\n\
         | weights | watchdog k | makespan (s) | cost ($) | in budget % | migrations/run |\n\
         |---|---|---|---|---|---|\n",
    );
    for heavy in [false, true] {
        for k in [None, Some(0.5), Some(1.0), Some(2.0)] {
            let mut mks = Vec::new();
            let mut costs = Vec::new();
            let mut ok = 0usize;
            let mut migs = 0usize;
            for seed in 0..reps {
                let weights = if heavy {
                    WeightModel::HeavyTail { seed }
                } else {
                    WeightModel::Stochastic { seed }
                };
                let cfg = match k {
                    Some(k) => OnlineConfig::with_watchdog(weights, k),
                    None => OnlineConfig::static_run(weights),
                };
                let out = run_online(&wf, &platform, budget, cfg);
                mks.push(out.makespan);
                costs.push(out.total_cost);
                ok += out.within_budget as usize;
                migs += out.migrations;
            }
            let mk = stats_of(&mks);
            let c = stats_of(&costs);
            writeln!(
                md,
                "| {} | {} | {:.0} ± {:.0} | {:.3} ± {:.3} | {:.0} | {:.1} |",
                if heavy { "heavy-tail" } else { "gaussian" },
                k.map_or("static".into(), |k| format!("{k:.1}σ")),
                mk.mean,
                mk.std,
                c.mean,
                c.std,
                100.0 * ok as f64 / reps as f64,
                migs as f64 / reps as f64
            )
            .unwrap();
        }
    }
    write_text(&results_dir().join("ext_online.md"), &md);
    println!("online study done");
}

/// Size sweep: minimal budget multiplier HEFTBUDG and MIN-MINBUDG need to
/// match the HEFT baseline's makespan (within 10 %), per workflow size —
/// the extended-version analysis behind the paper's observation that the
/// gap between HEFTBUDG and MIN-MINBUDG shrinks for CYBERSHAKE/LIGO as
/// they grow more bag-of-tasks-like, but persists for MONTAGE.
pub fn size_sweep() {
    let platform = Platform::paper_default();
    let cfg = SimConfig::planning();
    let mut md = String::from(
        "## Extended experiment — budget needed to match the baseline makespan\n\n\
         Minimal budget (as a multiple of min_cost) at which each algorithm's planned\n\
         makespan comes within 10% of the HEFT baseline.\n\n",
    );
    md.push_str("| workflow | tasks | MIN-MINBUDG | HEFTBUDG |\n|---|---|---|---|\n");
    for ty in BenchmarkType::ALL {
        for n in [30usize, 60, 90] {
            let wf = ty.generate(GenConfig::new(n, 1));
            let floor = min_cost_floor(&wf, &platform);
            let heft_sched = Algorithm::Heft.run(&wf, &platform, f64::INFINITY);
            let target = simulate(&wf, &platform, &heft_sched, &cfg).unwrap().makespan * 1.1;
            let find = |alg: Algorithm| -> Option<f64> {
                for mult in [1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 40.0] {
                    let s = alg.run(&wf, &platform, floor * mult);
                    let mk = simulate(&wf, &platform, &s, &cfg).unwrap().makespan;
                    if mk <= target {
                        return Some(mult);
                    }
                }
                None
            };
            let fmt = |m: Option<f64>| m.map_or("—".into(), |m| format!("{m:.1}×"));
            writeln!(
                md,
                "| {} | {} | {} | {} |",
                ty.name(),
                n,
                fmt(find(Algorithm::MinMinBudg)),
                fmt(find(Algorithm::HeftBudg))
            )
            .unwrap();
        }
        println!("size sweep: {} done", ty.name());
    }
    write_text(&results_dir().join("ext_sizes.md"), &md);
}

/// Planner-work counter tables: per algorithm, the decision-event stream's
/// structural counters (candidate evaluations, pruned candidates, sweeps,
/// cache hits, refine trials) plus a traced execution's simulator counters — the observability
/// layer's answer to "where does each heuristic spend its work?".
pub fn counters_study() {
    use wfs_observe::{Counters, RecordingSink};
    use wfs_simulator::simulate_observed;
    let platform = Platform::paper_default();
    let mut md = String::from(
        "## Extended experiment — planner work counters per algorithm\n\n\
         One 90-task instance per benchmark, budget = 2 x min_cost; counters are\n\
         derived from the recorded decision-event stream of a single traced\n\
         plan + stochastic execution (seed 1).\n\n\
         | workflow | algorithm | cand evals | pruned | sweeps | cache hit/miss | placed | new VMs | refine trials | moves | VM boots | transfers |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for ty in BenchmarkType::ALL {
        let wf = ty.generate(GenConfig::new(90, 1));
        let floor = min_cost_floor(&wf, &platform);
        let budget = floor * 2.0;
        for alg in [
            Algorithm::MinMin,
            Algorithm::Heft,
            Algorithm::MinMinBudg,
            Algorithm::HeftBudg,
            Algorithm::HeftBudgPlus,
            Algorithm::HeftBudgPlusInv,
            Algorithm::MaxMin,
            Algorithm::MaxMinBudg,
            Algorithm::Sufferage,
            Algorithm::SufferageBudg,
        ] {
            let mut rec = RecordingSink::new();
            let sched = alg.run_observed(&wf, &platform, budget, &mut rec);
            let _ = simulate_observed(&wf, &platform, &sched, &SimConfig::stochastic(1), &mut rec)
                .expect("valid schedule");
            let c = Counters::from_events(&rec.events);
            writeln!(
                md,
                "| {} | {} | {} | {} | {} | {}/{} | {} | {} | {} | {} | {} | {} |",
                ty.name(),
                alg.name(),
                c.get("plan_candidate_evals"),
                c.get("plan_candidates_pruned"),
                c.get("plan_sweeps"),
                c.get("best_host_cache_hits"),
                c.get("best_host_cache_misses"),
                c.get("tasks_placed"),
                c.get("vms_provisioned"),
                c.get("refine_trials"),
                c.get("refine_moves"),
                c.get("sim_vm_boots"),
                c.get("sim_transfers"),
            )
            .unwrap();
        }
        println!("counters study: {} done", ty.name());
    }
    write_text(&results_dir().join("ext_counters.md"), &md);
}

/// Fault-injection study: success rate, cost and waste as the VM failure
/// rate and the budget vary, per recovery policy. Crash MTBFs span "rare"
/// to "stormy"; budgets are multiples of each instance's min_cost floor.
/// The FAILSTOP rows quantify what recovery buys: everything it leaves on
/// the table, RETRY and RESCHEDULE pick up — the latter while still
/// honoring Eq. 3 on the residual budget.
pub fn fault_study(instances: u64, reps: u64) {
    use wfs_observe::NoopSink;
    use wfs_scheduler::{run_with_recovery_observed, RecoveryConfig, RecoveryPolicy};
    use wfs_simulator::{BootFaultModel, CrashModel, FaultConfig};
    let platform = Platform::paper_default();
    let mut md = String::from(
        "## Extended experiment — fault injection and budget-aware recovery\n\n\
         Seeded crash faults (exponential MTBF) plus 10% transient boot failures;\n\
         each run loops plan → inject → recover until durable completion or budget\n\
         exhaustion (HEFTBUDG plans epoch 0; budget = multiple of min_cost).\n\n\
         | workflow | MTBF (s) | budget | policy | success % | in budget % | cost ($) | re-plans | wasted (s) |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for ty in [BenchmarkType::Montage, BenchmarkType::Ligo] {
        for mtbf in [3600.0, 1200.0, 600.0] {
            // Faulted completions land at ~10–20× the fault-free floor
            // (deadlocked-but-billed VMs dominate), so the interesting
            // budget band sits well above the Fig. 1 multipliers.
            for mult in [8.0, 20.0, 50.0] {
                for policy in RecoveryPolicy::ALL {
                    let mut costs = Vec::new();
                    let mut wasted = Vec::new();
                    let mut replans = Vec::new();
                    let mut done = 0usize;
                    let mut in_budget = 0usize;
                    let mut total = 0usize;
                    for inst in 0..instances {
                        let wf = ty.generate(GenConfig::new(60, inst));
                        let budget = min_cost_floor(&wf, &platform) * mult;
                        for seed in 0..reps {
                            let faults = FaultConfig::new(seed)
                                .with_crash(CrashModel::exponential(mtbf))
                                .with_boot(BootFaultModel::new(0.1, 3));
                            let cfg = RecoveryConfig::new(
                                Algorithm::HeftBudg,
                                policy,
                                budget,
                                faults,
                            )
                            .with_max_epochs(24);
                            let out =
                                run_with_recovery_observed(&wf, &platform, &cfg, &mut NoopSink)
                                    .expect("recovery never hits a hard SimError");
                            costs.push(out.total_cost);
                            wasted.push(out.stats.wasted_billed_seconds);
                            replans.push(out.replans as f64);
                            done += out.completed as usize;
                            in_budget += out.within_budget() as usize;
                            total += 1;
                        }
                    }
                    let c = stats_of(&costs);
                    let w = stats_of(&wasted);
                    let r = stats_of(&replans);
                    writeln!(
                        md,
                        "| {} | {:.0} | {:.0}× | {} | {:.0} | {:.0} | {:.3} ± {:.3} | {:.1} | {:.0} |",
                        ty.name(),
                        mtbf,
                        mult,
                        policy.name(),
                        100.0 * done as f64 / total as f64,
                        100.0 * in_budget as f64 / total as f64,
                        c.mean,
                        c.std,
                        r.mean,
                        w.mean
                    )
                    .unwrap();
                }
            }
            println!("fault study: {} mtbf {mtbf} done", ty.name());
        }
    }
    write_text(&results_dir().join("ext_faults.md"), &md);
}

/// Pot ablation (DESIGN.md §5): HEFTBUDG with and without recycling the
/// leftover budget of cheaper-than-planned tasks. Each schedule is
/// replayed `reps` times with stochastic weights; budgets are multiples
/// of each instance's min_cost floor.
pub fn ablations(instances: u64, reps: u64) {
    use wfs_observe::NoopSink;
    use wfs_scheduler::{heft_budg_carry, Pot};
    let platform = Platform::paper_default();
    let mut md = format!(
        "## Ablation — HEFTBUDG with and without the leftover-budget pot\n\n\
         {instances} instances × 90 tasks, {reps} stochastic replays each; \"off\" plans\n\
         with `Pot::disabled()`, so every task is held to its own Alg. 1 share.\n\n\
         | workflow | budget (×min_cost) | pot | makespan (s) | cost ($) | valid % |\n\
         |---|---|---|---|---|---|\n",
    );
    for ty in BenchmarkType::ALL {
        for mult in [1.2, 1.5, 2.0, 3.0] {
            for (label, pot) in [("on", Pot::new()), ("off", Pot::disabled())] {
                let mut r = Replays::default();
                for inst in 0..instances {
                    let wf = ty.generate(GenConfig::new(90, inst));
                    let budget = min_cost_floor(&wf, &platform) * mult;
                    let (sched, _) = heft_budg_carry(&wf, &platform, budget, pot, &mut NoopSink);
                    replay(&wf, &platform, &sched, budget, reps, gaussian, &mut r);
                }
                let mk = stats_of(&r.makespans);
                let c = stats_of(&r.costs);
                writeln!(
                    md,
                    "| {} | {mult:.1} | {label} | {:.0} ± {:.0} | {:.3} ± {:.3} | {:.0} |",
                    ty.name(),
                    mk.mean,
                    mk.std,
                    c.mean,
                    c.std,
                    valid_pct(&r.valid)
                )
                .unwrap();
            }
        }
        println!("ablations: {} done", ty.name());
    }
    write_text(&results_dir().join("ext_ablations.md"), &md);
}
