//! # wfsbench — one closed-loop benchmark for the whole scheduling pipeline
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path wfsbench/Cargo.toml -- \
//!     --workload <paper-sweep|refine|large-dag|faults> --seed N --seconds S --trace 0|1
//! cargo test --manifest-path wfsbench/Cargo.toml
//! ```
//!
//! One client on one thread runs a fixed job list generated from `--seed`;
//! the next job starts only when the previous one finished. A job is one
//! (workflow instance, algorithm, budget) item, run to a checked result.
//! The timed phase repeats whole passes over the list until `--seconds`
//! have passed and at least [`MIN_PASSES`] passes ran; every later pass
//! must reproduce the first bit for bit. A job's latency is its fastest
//! pass, and each list holds at least [`MIN_JOBS`] jobs, so p90 has at
//! least ten samples beyond it. The benchmark calls the library only through its public items.
//! Progress goes to stderr; the last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! ## Workloads (all on `Platform::paper_default`, σ = 50 %)
//!
//! | workload | job list | stresses | bypasses |
//! |---|---|---|---|
//! | `paper-sweep` | Fig. 1/3 loop: cybershake, ligo, montage × 30/60/90 tasks (3 instances each) × MIN-MIN, HEFT, MIN-MINBUDG, HEFTBUDG, BDT, CG × 14 `min_cost` multipliers; each plan replayed 25 times with stochastic weights | the engine (stochastic replays) | refinement, DAX, recovery, observe sinks |
//! | `refine` | Fig. 2/4 and Table III(a): HEFTBUDG+, HEFTBUDG+INV, CG+ × 30/60 tasks (2 instances each) × low/medium/high Table III budgets, 25 replays | the Alg. 5 refinement loop (whole-schedule planning re-simulations) | DAX, recovery, observe sinks |
//! | `large-dag` | integrator ingest at 400/2000 tasks (8 and 1 instances per type): `from_dax`, HEFTBUDG/CG/BDT (MIN-MINBUDG at 400 only), one planning simulation, `plan_lint`, medium budget | the workflow layer and the superlinear planner/engine costs | refinement, stochastic replays, recovery |
//! | `faults` | `wfs faults --trace --ledger --lint` over the `ext_faults` grid: 60/90 tasks (2 instances each, 3 fault draws per cell) × crash MTBF 600/1200/3600 s plus 10 % boot failures × 8/20/50 × `min_cost` × 3 recovery policies, HEFTBUDG epoch 0 | `simulate_with_faults`, recovery epochs, `RecordingSink` → `BudgetLedger` + `ChromeTrace` | refinement, DAX, stochastic replays |
//!
//! ## End-to-end metrics ([`END_TO_END`])
//!
//! `setup_s` (generation, DAX serialisation, `min_cost` floors and Table
//! III budgets; the fastest of at least [`SETUP_REPS`] set-ups, timed for
//! [`SETUP_GAP_S`] after every pass, after an untimed set-up and warm-up),
//! `jobs_per_s` (the job count over the sum of the jobs' latencies),
//! `job_ms_p50`, `job_ms_p90`, `ok_pct` (jobs passing every check),
//! `valid_pct` (executions within budget, the paper's "% valid"),
//! `makespan_gmean_s` (executed makespans, or recovery wall clock on
//! `faults`) and `peak_rss_mb` (`VmHWM`). `valid_pct` and
//! `makespan_gmean_s` are deterministic per seed, so they guard schedule
//! quality against changes sold as speed-ups. `ok_pct` stands in for a
//! failure percentage because a reported metric must never read 0; the
//! failures are also the `failed` count.
//!
//! Checks per job: `Schedule::validate`; `plan_lint` of the planning run
//! is clean; every replay is `Ok`; on `faults`, `run_with_recovery_observed`
//! is `Ok`, `BudgetLedger::reconcile` holds exactly, the Chrome export is
//! well formed and no lint finding other than the Eq. 3 budget clause
//! appears (budget-clause hits count against `valid_pct` instead); and each
//! pass reproduces the first.
//!
//! ## Per-layer metrics ([`PER_LAYER`]) and what each should move
//!
//! The traced run wraps a span around each call into a layer (self time =
//! span − children) and re-runs the jobs through the `*_observed` entry
//! points with a `Counters` sink, so each time reads as units × ns per unit.
//!
//! | layer | metrics | moves |
//! |---|---|---|
//! | `workflow` | `workflow.gen_ms`, `.dax_parse_ms`, `.dax_parse_ns_per_elem` (per task + edge), `.dax_parse_scaling_exp` | `job_ms_p50` on `large-dag`; `setup_s` everywhere |
//! | `scheduler` list planners | `scheduler.plan_ms.<alg>`, `.candidate_evals_per_job`, `.ns_per_candidate`, `.best_host_hit_ratio`, `.plan_scaling_exp.heftbudg` | `job_ms_p90`, `jobs_per_s` on `large-dag`; little on `paper-sweep` |
//! | `scheduler` refinement (Alg. 5) | `scheduler.refine.ms`, `.trials_per_job`, `.accept_ratio`, `.us_per_trial`, `.share_pct` | `job_ms_p50`, `job_ms_p90`, `jobs_per_s` on `refine`; nothing elsewhere |
//! | `simulator` engine | `simulator.sim_us.stochastic`, `.sim_us.planning`, `.sims_per_job`, `.events_per_sim`, `.ns_per_event`, `.sim_scaling_exp`, `.share_pct` | `jobs_per_s` on `paper-sweep`; `refine` through `us_per_trial`; `large-dag`; `setup_s` through the floors |
//! | `simulator` lint | `simulator.lint_us` | `jobs_per_s` on `large-dag` |
//! | recovery + faults | `scheduler.recovery.ms_per_epoch`, `.epochs_per_job`, `.completed_pct`, `.budget_clause_hits`, `simulator.faults.crashes_per_job`, `.boot_retries_per_job` | `jobs_per_s` on `faults`; the fault counts describe the workload and must not move |
//! | `observe` | `observe.events_per_job`, `.ledger_us`, `.chrome_us`, `.chrome_kb` | `jobs_per_s`, `job_ms_p50` on `faults` |
//! | benchmark | `bench.check_us`, `bench.trace_overhead_pct` (traced − untraced pass time) | nothing; keeps the harness honest |
//!
//! A metric whose layer the workload does not reach reads 0. CG+ refines
//! inside `cg_plus`, which has no public split, so `scheduler.refine.*`
//! covers HEFTBUDG+/INV and CG+ shows as `scheduler.plan_ms.cg_plus`. Engine
//! runs inside refinement and recovery are not visible from outside the
//! library and count toward those layers. The traced run also prints each
//! layer's share of job time on stderr and whether the split the workload
//! was chosen for holds.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use wfs_observe::{BudgetLedger, ChromeTrace, Counters, RecordingSink};
use wfs_platform::Platform;
use wfs_scheduler::{
    heft_budg, heft_budg_observed, min_cost_schedule, refine_schedule, refine_schedule_observed,
    run_with_recovery_observed, Algorithm, RecoveryConfig, RecoveryPolicy, RefineOrder,
};
use wfs_simulator::{
    plan_lint, simulate, simulate_observed, stream_seed, BootFaultModel, CrashModel, FaultConfig,
    Schedule, SimConfig, SimError, SimulationReport,
};
use wfs_workflow::dax::{from_dax, to_dax};
use wfs_workflow::gen::{BenchmarkType, GenConfig};
use wfs_workflow::Workflow;

mod trace;
use trace::{Span, Tracer};

// ---------------------------------------------------------------------------
// Metric tables

/// End-to-end metrics, printed by the timed run (`--trace 0`).
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("ok_pct", "%"),
    ("valid_pct", "%"),
    ("makespan_gmean_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`).
const PER_LAYER: [(&str, &str); 42] = [
    ("workflow.gen_ms", "ms"),
    ("workflow.dax_parse_ms", "ms"),
    ("workflow.dax_parse_ns_per_elem", "ns"),
    ("workflow.dax_parse_scaling_exp", "exp"),
    ("scheduler.plan_ms.minmin", "ms"),
    ("scheduler.plan_ms.heft", "ms"),
    ("scheduler.plan_ms.minminbudg", "ms"),
    ("scheduler.plan_ms.heftbudg", "ms"),
    ("scheduler.plan_ms.bdt", "ms"),
    ("scheduler.plan_ms.cg", "ms"),
    ("scheduler.plan_ms.heftbudg_plus", "ms"),
    ("scheduler.plan_ms.heftbudg_plus_inv", "ms"),
    ("scheduler.plan_ms.cg_plus", "ms"),
    ("scheduler.candidate_evals_per_job", "count"),
    ("scheduler.ns_per_candidate", "ns"),
    ("scheduler.best_host_hit_ratio", "ratio"),
    ("scheduler.plan_scaling_exp.heftbudg", "exp"),
    ("scheduler.refine.ms", "ms"),
    ("scheduler.refine.trials_per_job", "count"),
    ("scheduler.refine.accept_ratio", "ratio"),
    ("scheduler.refine.us_per_trial", "us"),
    ("scheduler.refine.share_pct", "%"),
    ("simulator.sim_us.stochastic", "us"),
    ("simulator.sim_us.planning", "us"),
    ("simulator.sims_per_job", "count"),
    ("simulator.events_per_sim", "count"),
    ("simulator.ns_per_event", "ns"),
    ("simulator.sim_scaling_exp", "exp"),
    ("simulator.share_pct", "%"),
    ("simulator.lint_us", "us"),
    ("scheduler.recovery.ms_per_epoch", "ms"),
    ("scheduler.recovery.epochs_per_job", "count"),
    ("scheduler.recovery.completed_pct", "%"),
    ("scheduler.recovery.budget_clause_hits", "count"),
    ("simulator.faults.crashes_per_job", "count"),
    ("simulator.faults.boot_retries_per_job", "count"),
    ("observe.events_per_job", "count"),
    ("observe.ledger_us", "us"),
    ("observe.chrome_us", "us"),
    ("observe.chrome_kb", "KB"),
    ("bench.check_us", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// Jobs per timed run: p90 then has at least ten samples beyond it.
const MIN_JOBS: usize = min_samples(90, 10);
/// Timed set-ups per run at least; `setup_s` is the fastest of them.
const SETUP_REPS: usize = 5;
/// Set-ups are timed after every pass for this long (at least once each
/// time), so they sample the whole run: a shared machine's speed drifts
/// over seconds, and one burst of set-ups would time one state of it.
const SETUP_GAP_S: f64 = 0.05;
/// Timed passes per run at least, so a job's fastest pass can skip passes
/// disturbed by other load on the machine.
const MIN_PASSES: usize = 3;
/// DAX runtimes are seconds on a machine of this speed (as in `wfs`).
const DAX_REF_SPEED: f64 = 10.0;
/// Stochastic replays per plan, as in the paper.
const REPLAYS: u64 = 25;
/// The experiment harness's `Scale::full` multipliers of `min_cost`.
const SWEEP_MULTS: [f64; 14] = [
    0.8, 0.9, 1.0, 1.2, 1.4, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0, 8.0, 12.0, 20.0,
];
/// The Fig. 1/3 planners: baselines, the paper's pair, both competitors.
const SWEEP_ALGS: [Algorithm; 6] = [
    Algorithm::MinMin,
    Algorithm::Heft,
    Algorithm::MinMinBudg,
    Algorithm::HeftBudg,
    Algorithm::Bdt,
    Algorithm::Cg,
];
const REFINE_ALGS: [Algorithm; 3] = [
    Algorithm::HeftBudgPlus,
    Algorithm::HeftBudgPlusInv,
    Algorithm::CgPlus,
];
/// Ingest planners; MIN-MINBUDG takes 1–4 s per plan at 2000 tasks, so it
/// joins them at the smallest size only.
const INGEST_ALGS: [Algorithm; 3] = [Algorithm::HeftBudg, Algorithm::Cg, Algorithm::Bdt];
const FAULT_MTBF_S: [f64; 3] = [600.0, 1200.0, 3600.0];
const FAULT_MULTS: [f64; 3] = [8.0, 20.0, 50.0];
/// Fault draws per (instance, MTBF, budget, policy) cell.
const FAULT_DRAWS: usize = 3;
/// Epoch cap of a recovering execution, as in the `ext_faults` grid.
const MAX_EPOCHS: usize = 24;
/// Counter the count pass bumps once per engine run the benchmark starts.
const SIM_RUNS: &str = "bench_sim_runs";

// ---------------------------------------------------------------------------
// Statistics

/// Nearest-rank percentile `pct` (1–100) of `sorted`, which must be
/// ascending and non-empty: the value at rank `ceil(n · pct / 100)`. The
/// rank is computed in integers, so p90 of 100 samples is exactly the 90th
/// value, with 10 samples beyond it.
fn percentile(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(
        (1..=100).contains(&pct),
        "percentile {pct} is outside 1..=100"
    );
    sorted[(sorted.len() * pct).div_ceil(100) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `pct` of `n`.
const fn samples_beyond(n: usize, pct: usize) -> usize {
    n - (n * pct).div_ceil(100)
}

/// The fewest samples for which percentile `pct` has at least `beyond`
/// samples past it.
const fn min_samples(pct: usize, beyond: usize) -> usize {
    assert!(pct < 100, "no sample lies beyond p100");
    let mut n = 1;
    while samples_beyond(n, pct) < beyond {
        n += 1;
    }
    n
}

/// Log-log slope between two `(size, cost)` points: the `k` in
/// `cost ∝ size^k`; 0 when the points do not define one.
fn scaling_exponent((n1, t1): (f64, f64), (n2, t2): (f64, f64)) -> f64 {
    if n1 <= 0.0 || n2 <= 0.0 || t1 <= 0.0 || t2 <= 0.0 || n1 == n2 {
        return 0.0;
    }
    (t2 / t1).ln() / (n2 / n1).ln()
}

/// `a / b`, or 0 when there is nothing to divide by (a layer the workload
/// does not reach).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

// ---------------------------------------------------------------------------
// Workloads and their inputs

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperSweep,
    Refine,
    LargeDag,
    Faults,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::Refine,
        Workload::LargeDag,
        Workload::Faults,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::Refine => "refine",
            Workload::LargeDag => "large-dag",
            Workload::Faults => "faults",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full grids are measured; smoke grids run the same code paths small
/// enough for the debug-build tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Full,
    Smoke,
}

/// A generated workflow with the values set-up derives from it.
struct Instance {
    tasks: usize,
    wf: Workflow,
    /// DAX serialisation (`large-dag` only, empty elsewhere).
    dax: String,
    /// `min_cost`: the cost of running everything on one cheapest VM.
    floor: f64,
    /// Table III budgets: low (the floor), medium, high (2 × HEFT's cost).
    table3: [f64; 3],
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Plan, check the planning run, replay with stochastic weights.
    Replay { replays: u64 },
    /// Parse the DAX text, plan, check one planning run.
    Ingest,
    /// Recover from injected faults, recording every event; audit the
    /// ledger and export the Chrome trace.
    Recover { policy: RecoveryPolicy, mtbf: f64 },
}

#[derive(Debug, Clone, Copy)]
struct Job {
    inst: usize,
    alg: Algorithm,
    budget: f64,
    kind: Kind,
    /// Seeds the job's replays or faults.
    seed: u64,
}

struct Inputs {
    platform: Platform,
    instances: Vec<Instance>,
    jobs: Vec<Job>,
}

fn planned_cost(wf: &Workflow, platform: &Platform, schedule: &Schedule) -> f64 {
    simulate(wf, platform, schedule, &SimConfig::planning())
        .expect("generated workflows and library schedules simulate")
        .total_cost
}

/// Generate the workload's instances and job list from `seed`.
fn setup<P: Probe>(w: Workload, seed: u64, size: Size, p: &mut P) -> Inputs {
    let smoke = size == Size::Smoke;
    let types: &[BenchmarkType] = if smoke {
        &[BenchmarkType::Montage]
    } else {
        &BenchmarkType::ALL
    };
    let sizes: &[usize] = match (w, smoke) {
        (Workload::PaperSweep, false) => &[30, 60, 90],
        // HEFTBUDG+ takes 200–340 ms per plan at 90 tasks, which would
        // stretch a pass to ten seconds and leave a run too few passes.
        (Workload::Refine, false) => &[30, 60],
        (Workload::LargeDag, false) => &[400, 2000],
        (Workload::Faults, false) => &[60, 90],
        (Workload::LargeDag, true) => &[60, 120],
        (_, true) => &[30],
    };
    let platform = Platform::paper_default();
    let mut instances = Vec::new();
    for &ty in types {
        for &tasks in sizes {
            for _ in 0..copies(w, tasks, smoke) {
                // Each instance draws from its own stream, so one seed's
                // luck does not repeat across every type and size.
                let stream = instances.len() as u64;
                let gen = GenConfig::new(tasks, stream_seed(seed, stream));
                let wf = p.span("workflow.gen", |_| ty.generate(gen));
                let dax = if w == Workload::LargeDag {
                    p.span("workflow.dax_write", |_| to_dax(&wf, DAX_REF_SPEED))
                } else {
                    String::new()
                };
                let floor = p.span("simulator.floor", |_| {
                    planned_cost(&wf, &platform, &min_cost_schedule(&wf, &platform))
                });
                let table3 = if matches!(w, Workload::Refine | Workload::LargeDag) {
                    p.span("scheduler.table3", |_| {
                        let heft = Algorithm::Heft.run(&wf, &platform, f64::INFINITY);
                        let high = 2.0 * planned_cost(&wf, &platform, &heft);
                        [floor, (floor + high) / 2.0, high]
                    })
                } else {
                    [floor; 3]
                };
                instances.push(Instance {
                    tasks,
                    wf,
                    dax,
                    floor,
                    table3,
                });
            }
        }
    }
    let jobs = job_list(w, &instances, seed, smoke);
    Inputs {
        platform,
        instances,
        jobs,
    }
}

/// Generated instances per (type, size). Several per cell make a run's
/// figures an average over workflows rather than one seed's draw; the
/// counts keep every job list at [`MIN_JOBS`] or more and every timed pass
/// near three seconds, so a run holds enough passes for each job's fastest
/// one to skip the load other programs put on the machine.
fn copies(w: Workload, tasks: usize, smoke: bool) -> u64 {
    match (w, smoke) {
        (_, true) => 1,
        (Workload::PaperSweep, false) => 3,
        (Workload::Refine | Workload::Faults, false) => 2,
        (Workload::LargeDag, false) => {
            if tasks <= 400 {
                8
            } else {
                1
            }
        }
    }
}

fn job_list(w: Workload, instances: &[Instance], seed: u64, smoke: bool) -> Vec<Job> {
    let replays = if smoke { 3 } else { REPLAYS };
    let smallest = instances.iter().map(|i| i.tasks).min().unwrap_or(0);
    let mut cells: Vec<(usize, Algorithm, f64, Kind)> = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        match w {
            Workload::PaperSweep => {
                let mults: &[f64] = if smoke { &[1.0, 5.0] } else { &SWEEP_MULTS };
                for alg in SWEEP_ALGS {
                    for &m in mults {
                        cells.push((i, alg, inst.floor * m, Kind::Replay { replays }));
                    }
                }
            }
            Workload::Refine => {
                let budgets: &[f64] = if smoke {
                    &inst.table3[1..2]
                } else {
                    &inst.table3
                };
                for alg in REFINE_ALGS {
                    for &b in budgets {
                        cells.push((i, alg, b, Kind::Replay { replays }));
                    }
                }
            }
            Workload::LargeDag => {
                let minmin = (inst.tasks == smallest).then_some(Algorithm::MinMinBudg);
                for alg in INGEST_ALGS.into_iter().chain(minmin) {
                    cells.push((i, alg, inst.table3[1], Kind::Ingest));
                }
            }
            Workload::Faults => {
                let (mtbfs, mults): (&[f64], &[f64]) = if smoke {
                    (&[600.0], &[20.0])
                } else {
                    (&FAULT_MTBF_S, &FAULT_MULTS)
                };
                let draws = if smoke { 1 } else { FAULT_DRAWS };
                for &mtbf in mtbfs {
                    for &m in mults {
                        for policy in RecoveryPolicy::ALL {
                            // Each copy gets its own job seed: a fresh fault draw.
                            for _ in 0..draws {
                                let kind = Kind::Recover { policy, mtbf };
                                cells.push((i, Algorithm::HeftBudg, inst.floor * m, kind));
                            }
                        }
                    }
                }
            }
        }
    }
    cells
        .into_iter()
        .enumerate()
        .map(|(n, (inst, alg, budget, kind))| Job {
            inst,
            alg,
            budget,
            kind,
            seed: stream_seed(seed, n as u64),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Jobs

/// How a pass observes the library calls a job makes.
trait Probe {
    /// Run `f`, one call into the layer `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;

    /// The sink for the `*_observed` entry points; `None` selects the
    /// plain ones.
    fn counters(&mut self) -> Option<&mut Counters> {
        None
    }
}

/// Timed passes: no observation at all.
struct Plain;

impl Probe for Plain {
    fn span<R>(&mut self, _: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
}

impl Probe for Tracer {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.enter(name);
        let result = f(self);
        self.exit(id);
        result
    }
}

/// Count pass: exact units of work from the library's own counters.
#[derive(Default)]
struct Counting(Counters);

impl Probe for Counting {
    fn span<R>(&mut self, _: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    fn counters(&mut self) -> Option<&mut Counters> {
        Some(&mut self.0)
    }
}

/// What a job produced: its quality figures and a fingerprint of every
/// number it computed, which later passes must reproduce.
#[derive(Debug, Clone, Default, PartialEq)]
struct Outcome {
    /// Simulated executions: replays, the planning run, or the recovery.
    executions: u64,
    /// Executions within budget (on `faults`, also free of Eq. 3 findings).
    valid: u64,
    /// Σ ln(makespan) over the executions.
    ln_makespan: f64,
    /// FNV-1a over the bits of every result.
    fingerprint: u64,
    epochs: u64,
    completed: bool,
    budget_clause_hits: u64,
    crashes: u64,
    boot_retries: u64,
    /// Events the `RecordingSink` captured.
    events: u64,
    chrome_bytes: u64,
}

impl Outcome {
    fn new() -> Self {
        Self {
            fingerprint: 0xcbf2_9ce4_8422_2325,
            ..Self::default()
        }
    }

    fn mix(&mut self, bits: u64) {
        self.fingerprint = (self.fingerprint ^ bits).wrapping_mul(0x0100_0000_01b3);
    }

    fn execution(&mut self, makespan: f64, valid: bool) {
        self.executions += 1;
        self.valid += u64::from(valid);
        self.ln_makespan += makespan.ln();
        self.mix(makespan.to_bits());
    }
}

fn plan_span(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::MinMin => "scheduler.plan.minmin",
        Algorithm::Heft => "scheduler.plan.heft",
        Algorithm::MinMinBudg => "scheduler.plan.minminbudg",
        Algorithm::HeftBudg => "scheduler.plan.heftbudg",
        Algorithm::HeftBudgPlus => "scheduler.plan.heftbudg_plus",
        Algorithm::HeftBudgPlusInv => "scheduler.plan.heftbudg_plus_inv",
        Algorithm::Bdt => "scheduler.plan.bdt",
        Algorithm::Cg => "scheduler.plan.cg",
        Algorithm::CgPlus => "scheduler.plan.cg_plus",
        _ => "scheduler.plan.other",
    }
}

/// Plan with `alg`. HEFTBUDG+ and HEFTBUDG+INV run as `heft_budg` followed
/// by `refine_schedule`, so the traced pass can split planning from the
/// Alg. 5 refinement; the result is the same schedule (see the tests).
fn plan<P: Probe>(
    alg: Algorithm,
    wf: &Workflow,
    platform: &Platform,
    budget: f64,
    p: &mut P,
) -> Schedule {
    p.span(plan_span(alg), |p| {
        let order = match alg {
            Algorithm::HeftBudgPlus => RefineOrder::Forward,
            Algorithm::HeftBudgPlusInv => RefineOrder::Reverse,
            _ => {
                return match p.counters() {
                    Some(c) => alg.run_observed(wf, platform, budget, c),
                    None => alg.run(wf, platform, budget),
                }
            }
        };
        let (base, list) = p.span("scheduler.heft_budg", |p| match p.counters() {
            Some(c) => heft_budg_observed(wf, platform, budget, c),
            None => heft_budg(wf, platform, budget),
        });
        p.span("scheduler.refine", |p| match p.counters() {
            Some(c) => refine_schedule_observed(wf, platform, budget, base, &list, order, c),
            None => refine_schedule(wf, platform, budget, base, &list, order),
        })
    })
}

fn sim<P: Probe>(
    name: &'static str,
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    cfg: &SimConfig,
    p: &mut P,
) -> Result<SimulationReport, SimError> {
    p.span(name, |p| match p.counters() {
        Some(c) => {
            c.bump(SIM_RUNS, 1);
            simulate_observed(wf, platform, schedule, cfg, c)
        }
        None => simulate(wf, platform, schedule, cfg),
    })
}

/// Validate the plan, run it under the planning model and lint that run.
/// The lint gets no budget: budget-aware planners fall back to best-effort
/// plans below the floor, and those count against `valid_pct` instead.
fn checked_plan<P: Probe>(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    p: &mut P,
) -> Result<SimulationReport, String> {
    p.span("bench.check", |_| schedule.validate(wf))
        .map_err(|e| format!("invalid schedule: {e}"))?;
    let report = sim(
        "simulator.planning",
        wf,
        platform,
        schedule,
        &SimConfig::planning(),
        p,
    )
    .map_err(|e| format!("planning run: {e}"))?;
    let findings = p.span("simulator.lint", |_| {
        plan_lint(wf, platform, schedule, &report, None)
    });
    match findings.first() {
        Some(f) => Err(format!("lint: {f} ({} findings)", findings.len())),
        None => Ok(report),
    }
}

/// `run_with_recovery` reports lint findings as `epoch N: <finding>`; those
/// of the Eq. 3 budget clause start with `budget:`.
fn is_budget_clause(finding: &str) -> bool {
    finding
        .split_once(": ")
        .is_some_and(|(_, rest)| rest.starts_with("budget:"))
}

fn run_job<P: Probe>(inputs: &Inputs, job: &Job, p: &mut P) -> Result<Outcome, String> {
    let inst = &inputs.instances[job.inst];
    let platform = &inputs.platform;
    let mut out = Outcome::new();
    match job.kind {
        Kind::Replay { replays } => {
            let schedule = plan(job.alg, &inst.wf, platform, job.budget, p);
            let planned = checked_plan(&inst.wf, platform, &schedule, p)?;
            out.mix(planned.total_cost.to_bits());
            out.mix(planned.makespan.to_bits());
            for r in 0..replays {
                let cfg = SimConfig::stochastic(stream_seed(job.seed, r));
                let rep = sim(
                    "simulator.stochastic",
                    &inst.wf,
                    platform,
                    &schedule,
                    &cfg,
                    p,
                )
                .map_err(|e| format!("replay {r}: {e}"))?;
                out.mix(rep.total_cost.to_bits());
                out.execution(rep.makespan, rep.within_budget(job.budget));
            }
        }
        Kind::Ingest => {
            let wf = p
                .span("workflow.dax_parse", |_| from_dax(&inst.dax, DAX_REF_SPEED))
                .map_err(|e| format!("DAX: {e}"))?;
            if (wf.task_count(), wf.edge_count()) != (inst.wf.task_count(), inst.wf.edge_count()) {
                return Err(format!(
                    "DAX round trip gave {} tasks and {} edges, not {} and {}",
                    wf.task_count(),
                    wf.edge_count(),
                    inst.wf.task_count(),
                    inst.wf.edge_count()
                ));
            }
            let schedule = plan(job.alg, &wf, platform, job.budget, p);
            let planned = checked_plan(&wf, platform, &schedule, p)?;
            out.mix(planned.total_cost.to_bits());
            out.execution(planned.makespan, planned.within_budget(job.budget));
        }
        Kind::Recover { policy, mtbf } => {
            let faults = FaultConfig::new(job.seed)
                .with_crash(CrashModel::exponential(mtbf))
                .with_boot(BootFaultModel::new(0.1, 3));
            let cfg = RecoveryConfig::new(job.alg, policy, job.budget, faults)
                .with_max_epochs(MAX_EPOCHS)
                .with_lint();
            let mut rec = RecordingSink::new();
            let run = p
                .span("scheduler.recovery", |_| {
                    run_with_recovery_observed(&inst.wf, platform, &cfg, &mut rec)
                })
                .map_err(|e| format!("recovery: {e}"))?;
            if let Some(c) = p.counters() {
                rec.replay(c);
            }
            let ledger = p.span("observe.ledger", |_| BudgetLedger::from_events(&rec.events));
            let chrome = p.span("observe.chrome", |_| {
                ChromeTrace::from_events(&rec.events).to_json()
            });
            let clause_hits = p.span("bench.check", |_| {
                if !ledger.reconcile(run.total_cost) {
                    return Err(format!(
                        "ledger total {} does not reconcile with the bill {}",
                        ledger.billed_total(),
                        run.total_cost
                    ));
                }
                if ledger.epoch_totals().len() != run.epochs.len() || ledger.pot_violations() != 0 {
                    return Err("ledger epochs or pot replay disagree with the run".to_string());
                }
                if !(chrome.starts_with("{\"traceEvents\":[") && chrome.trim_end().ends_with('}')) {
                    return Err("malformed Chrome trace".to_string());
                }
                let mut hits = 0u64;
                for finding in &run.lint_violations {
                    if !is_budget_clause(finding) {
                        return Err(format!("lint: {finding}"));
                    }
                    hits += 1;
                }
                Ok(hits)
            })?;
            out.epochs = run.epochs.len() as u64;
            out.completed = run.completed;
            out.budget_clause_hits = clause_hits;
            out.crashes = run.stats.crashes as u64;
            out.boot_retries = run.stats.boot_retries as u64;
            out.events = rec.events.len() as u64;
            out.chrome_bytes = chrome.len() as u64;
            for x in [
                out.epochs,
                out.events,
                out.chrome_bytes,
                run.total_cost.to_bits(),
            ] {
                out.mix(x);
            }
            out.execution(run.wall_clock, run.within_budget() && clause_hits == 0);
        }
    }
    Ok(out)
}

/// Run one job, turning a panic into a failure.
fn guarded<P: Probe>(inputs: &Inputs, job: &Job, p: &mut P) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| run_job(inputs, job, p))).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

/// Run the first job of each algorithm once, so every planner's code and
/// data are warm before timing.
fn warm_up(inputs: &Inputs) {
    let mut seen: Vec<Algorithm> = Vec::new();
    for job in &inputs.jobs {
        if !seen.contains(&job.alg) {
            seen.push(job.alg);
            let _ = guarded(inputs, job, &mut Plain);
        }
    }
}

/// Print a job failure; only the first few, since a broken layer fails
/// every pass.
fn note_failure(count: usize, w: Workload, index: usize, msg: &str) {
    if count <= 5 {
        eprintln!("wfsbench {}: job {index} failed: {msg}", w.name());
    }
}

// ---------------------------------------------------------------------------
// Runs

/// One run's result line.
#[derive(Debug)]
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// `(name, unit, value)`, in table order.
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// Pair every metric of `table` with its value; `values` holds each
    /// name of the table exactly once.
    fn new(
        correct: bool,
        attempted: usize,
        failed: usize,
        table: &[(&'static str, &'static str)],
        values: &[(&'static str, f64)],
    ) -> Self {
        assert_eq!(
            values.len(),
            table.len(),
            "metric values and table differ in length"
        );
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let (_, value) = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("no value for metric {name}"));
                (name, unit, *value)
            })
            .collect();
        Self {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                // JSON has no NaN or infinity.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time fresh set-ups, at least one and until `min_s` seconds have passed.
fn time_setups(w: Workload, seed: u64, size: Size, min_s: f64, setup_s: &mut Vec<f64>) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        drop(setup(w, seed, size, &mut Plain));
        setup_s.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= min_s {
            return;
        }
    }
}

/// The timed run: end-to-end metrics with no observation in the loop.
fn end_to_end(w: Workload, seed: u64, seconds: f64, size: Size) -> Report {
    // The set-up the passes use and the warm-up stay untimed: they page in
    // the code and grow the heap, one-off costs that depend on the machine's
    // state, and the warm-up is one job per planner, so its time would be
    // one instance's draw and swing `setup_s` between seeds.
    let inputs = setup(w, seed, size, &mut Plain);
    warm_up(&inputs);
    let mut setup_s: Vec<f64> = Vec::new();
    let n = inputs.jobs.len();
    assert!(
        size == Size::Smoke || n >= MIN_JOBS,
        "{}: {n} jobs leave p90 fewer than ten samples beyond it",
        w.name()
    );

    let mut first: Vec<Option<Outcome>> = Vec::with_capacity(n);
    // Per job, its time in each pass.
    let mut job_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut failed = 0;
    let mut passes = 0;
    let start = Instant::now();
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        for (i, job) in inputs.jobs.iter().enumerate() {
            let t = Instant::now();
            let result = guarded(&inputs, job, &mut Plain);
            job_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            if passes == 0 {
                first.push(result.as_ref().ok().cloned());
            }
            let verdict = match (&result, &first[i]) {
                (Err(e), _) => Err(e.clone()),
                (Ok(o), Some(f)) if o == f => Ok(()),
                (Ok(_), _) => Err("result differs from the first pass".to_string()),
            };
            if let Err(msg) = verdict {
                failed += 1;
                note_failure(failed, w, i, &msg);
            }
        }
        passes += 1;
        time_setups(w, seed, size, SETUP_GAP_S, &mut setup_s);
    }
    while setup_s.len() < SETUP_REPS {
        time_setups(w, seed, size, 0.0, &mut setup_s);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let attempted = n * passes;
    let (mut executions, mut valid, mut ln_makespan) = (0u64, 0u64, 0.0f64);
    for o in first.iter().flatten() {
        executions += o.executions;
        valid += o.valid;
        ln_makespan += o.ln_makespan;
    }
    // Every pass runs the same jobs, and load from outside this process
    // only ever slows a job down: a job's latency is its fastest pass, and
    // the throughput is one job list over the sum of those latencies, so a
    // quiet moment counts wherever in the run it falls. Set-up time is the
    // fastest set-up for the same reason: on a shared 2-core VM the median
    // of the set-ups drifted by half between runs as outside load changed.
    let fastest = |t: &[f64]| t.iter().copied().fold(f64::INFINITY, f64::min);
    let mut latency: Vec<f64> = job_ms.iter().map(|t| fastest(t)).collect();
    latency.sort_by(f64::total_cmp);
    let list_s = latency.iter().sum::<f64>() / 1e3;
    eprintln!(
        "wfsbench {}: {passes} passes of {n} jobs in {elapsed:.2} s, p50/p90 over {n} fastest job times; set-up {:.4} s (fastest of {})",
        w.name(),
        fastest(&setup_s),
        setup_s.len()
    );
    let values = [
        ("setup_s", fastest(&setup_s)),
        ("jobs_per_s", n as f64 / list_s),
        ("job_ms_p50", percentile(&latency, 50)),
        ("job_ms_p90", percentile(&latency, 90)),
        (
            "ok_pct",
            100.0 * (attempted - failed) as f64 / attempted as f64,
        ),
        ("valid_pct", 100.0 * ratio(valid as f64, executions as f64)),
        (
            "makespan_gmean_s",
            ratio(ln_makespan, executions as f64).exp(),
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    Report::new(failed == 0, attempted, failed, &END_TO_END, &values)
}

/// The traced run: an untraced pass, a traced pass and a count pass over
/// the same job list, folded into the per-layer metrics.
fn per_layer(w: Workload, seed: u64, size: Size) -> Report {
    let mut setup_trace = Tracer::new();
    let inputs = setup(w, seed, size, &mut setup_trace);
    warm_up(&inputs);
    let jobs = &inputs.jobs;

    let t = Instant::now();
    let plain: Vec<_> = jobs
        .iter()
        .map(|job| guarded(&inputs, job, &mut Plain))
        .collect();
    let plain_ns = t.elapsed().as_nanos() as f64;

    let mut tracer = Tracer::new();
    let mut ranges = Vec::with_capacity(jobs.len());
    let t = Instant::now();
    let traced: Vec<_> = jobs
        .iter()
        .map(|job| {
            let first = tracer.spans().len();
            let root = tracer.enter("job");
            let result = guarded(&inputs, job, &mut tracer);
            tracer.exit(root);
            ranges.push(first..tracer.spans().len());
            result
        })
        .collect();
    let traced_ns = t.elapsed().as_nanos() as f64;

    let mut counts = Vec::with_capacity(jobs.len());
    let counted: Vec<_> = jobs
        .iter()
        .map(|job| {
            let mut probe = Counting::default();
            let result = guarded(&inputs, job, &mut probe);
            counts.push(probe.0);
            result
        })
        .collect();

    let mut failed = 0;
    for (i, ((a, b), c)) in plain.iter().zip(&traced).zip(&counted).enumerate() {
        let verdict = match (a, b, c) {
            (Ok(a), Ok(b), Ok(c)) if a == b && a == c => Ok(()),
            (Ok(_), Ok(_), Ok(_)) => {
                Err("untraced, traced and counted passes disagree".to_string())
            }
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(e.clone()),
        };
        if let Err(msg) = verdict {
            failed += 1;
            note_failure(failed, w, i, &msg);
        }
    }
    let tree = tracer.check_tree();
    if let Err(e) = &tree {
        eprintln!("wfsbench {}: malformed span tree: {e}", w.name());
    }

    let shares = layer_shares(&tracer);
    eprintln!(
        "wfsbench {}: share of job time by layer (self time, traced pass):",
        w.name()
    );
    for (layer, pct) in &shares {
        eprintln!("  {layer:<20} {pct:6.2} %");
    }
    let (expected, met) = expected_split(w, &shares);
    eprintln!(
        "  expected {expected}: {}",
        if met {
            "met"
        } else {
            "NOT met, see the shares above"
        }
    );

    let outcomes: Vec<Outcome> = traced.into_iter().flatten().collect();
    let view = View {
        inputs: &inputs,
        spans: tracer.spans(),
        ranges: &ranges,
        counts: &counts,
    };
    let values = layer_values(&view, &outcomes, &setup_trace, plain_ns, traced_ns);
    Report::new(
        failed == 0 && tree.is_ok(),
        jobs.len(),
        failed,
        &PER_LAYER,
        &values,
    )
}

/// The layer a span's self time is charged to in the share table.
fn layer_of(name: &str) -> &'static str {
    match name {
        "job" => "bench.harness",
        "bench.check" => "bench.check",
        "workflow.dax_parse" => "workflow",
        "scheduler.refine" => "scheduler.refine",
        "scheduler.recovery" => "scheduler.recovery",
        "simulator.lint" => "simulator.lint",
        n if n.starts_with("simulator.") => "simulator.engine",
        n if n.starts_with("observe.") => "observe",
        _ => "scheduler.plan",
    }
}

/// Each layer's share of the traced job time, largest first.
fn layer_shares(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let job_ns = tracer.total_ns("job");
    let mut shares: Vec<(&'static str, f64)> = Vec::new();
    for (span, self_ns) in tracer.spans().iter().zip(tracer.self_times()) {
        let layer = layer_of(span.name);
        let pct = 100.0 * ratio(self_ns as f64, job_ns);
        match shares.iter_mut().find(|(l, _)| *l == layer) {
            Some(entry) => entry.1 += pct,
            None => shares.push((layer, pct)),
        }
    }
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// The layer split each workload was chosen for, checked against the
/// traced shares.
fn expected_split(w: Workload, shares: &[(&str, f64)]) -> (&'static str, bool) {
    let share = |layer: &str| {
        shares
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |s| s.1)
    };
    let top: Vec<&str> = shares.iter().take(2).map(|s| s.0).collect();
    match w {
        Workload::PaperSweep => ("engine dominant", top.first() == Some(&"simulator.engine")),
        Workload::Refine => (
            "refinement dominant",
            top.first() == Some(&"scheduler.refine"),
        ),
        Workload::LargeDag => (
            "parse, planner and engine each >= 10 %",
            ["workflow", "scheduler.plan", "simulator.engine"]
                .iter()
                .all(|l| share(l) >= 10.0),
        ),
        Workload::Faults => (
            "recovery and observe lead",
            top.contains(&"scheduler.recovery") && top.contains(&"observe"),
        ),
    }
}

/// The traced and counted passes over one job list.
struct View<'a> {
    inputs: &'a Inputs,
    spans: &'a [Span],
    /// Per job: the ids of its spans.
    ranges: &'a [Range<usize>],
    /// Per job: its counters from the count pass.
    counts: &'a [Counters],
}

impl View<'_> {
    /// `(tasks, ns)` of every span named `name`.
    fn samples(&self, name: &str) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for (job, range) in self.inputs.jobs.iter().zip(self.ranges) {
            let tasks = self.inputs.instances[job.inst].tasks;
            for s in self.spans[range.clone()].iter().filter(|s| s.name == name) {
                out.push((tasks, s.duration_ns() as f64));
            }
        }
        out
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.samples(name).iter().map(|s| s.1).sum()
    }

    fn mean_ns(&self, name: &str) -> f64 {
        let s = self.samples(name);
        ratio(s.iter().map(|x| x.1).sum(), s.len() as f64)
    }

    /// The `k` in (mean span time) ∝ tasks^k, between the smallest and
    /// the largest size with spans named `name`.
    fn exponent(&self, name: &str) -> f64 {
        let s = self.samples(name);
        let (Some(lo), Some(hi)) = (s.iter().map(|x| x.0).min(), s.iter().map(|x| x.0).max())
        else {
            return 0.0;
        };
        let mean_at = |n: usize| {
            let at: Vec<f64> = s.iter().filter(|x| x.0 == n).map(|x| x.1).collect();
            ratio(at.iter().sum(), at.len() as f64)
        };
        scaling_exponent((lo as f64, mean_at(lo)), (hi as f64, mean_at(hi)))
    }

    /// Σ of counter `key` over the jobs `keep` selects.
    fn count(&self, key: &str, keep: fn(&Job) -> bool) -> f64 {
        self.inputs
            .jobs
            .iter()
            .zip(self.counts)
            .filter(|(job, _)| keep(job))
            .map(|(_, c)| c.get(key) as f64)
            .sum()
    }

    /// Engine events (task starts, transfers, VM boots).
    fn engine_events(&self, keep: fn(&Job) -> bool) -> f64 {
        self.count("sim_task_starts", keep)
            + self.count("sim_transfers", keep)
            + self.count("sim_vm_boots", keep)
    }
}

fn all(_: &Job) -> bool {
    true
}

/// Jobs whose engine runs the benchmark starts itself (not inside recovery).
fn direct(job: &Job) -> bool {
    !matches!(job.kind, Kind::Recover { .. })
}

/// Jobs whose planner counts its candidate evaluations outside recovery.
fn sweeping(job: &Job) -> bool {
    direct(job)
        && matches!(
            job.alg,
            Algorithm::MinMin
                | Algorithm::Heft
                | Algorithm::MinMinBudg
                | Algorithm::HeftBudg
                | Algorithm::HeftBudgPlus
                | Algorithm::HeftBudgPlusInv
        )
}

fn layer_values(
    v: &View,
    outcomes: &[Outcome],
    setup: &Tracer,
    plain_ns: f64,
    traced_ns: f64,
) -> Vec<(&'static str, f64)> {
    let jobs = v.inputs.jobs.len() as f64;
    let job_ns = v.total_ns("job");
    let plan_ms = |alg| v.mean_ns(plan_span(alg)) / 1e6;

    let parse_ns = v.total_ns("workflow.dax_parse");
    let parse_elems: f64 = v
        .inputs
        .jobs
        .iter()
        .filter(|j| matches!(j.kind, Kind::Ingest))
        .map(|j| {
            let wf = &v.inputs.instances[j.inst].wf;
            (wf.task_count() + wf.edge_count()) as f64
        })
        .sum();

    let sweep_ns = [
        Algorithm::MinMin,
        Algorithm::Heft,
        Algorithm::MinMinBudg,
        Algorithm::HeftBudg,
    ]
    .into_iter()
    .map(|alg| v.total_ns(plan_span(alg)))
    .sum::<f64>()
        + v.total_ns("scheduler.heft_budg");
    let candidates = v.count("plan_candidate_evals", sweeping);
    let hits = v.count("best_host_cache_hits", all);
    let misses = v.count("best_host_cache_misses", all);

    let refine_ns = v.total_ns("scheduler.refine");
    let refines = v.samples("scheduler.refine").len() as f64;
    let trials = v.count("refine_trials", all);
    let accepted = v.count("refine_accepted", all);

    let stochastic = v.samples("simulator.stochastic");
    let planning = v.samples("simulator.planning");
    let engine_ns: f64 = stochastic.iter().chain(&planning).map(|s| s.1).sum();
    let sims = v.count(SIM_RUNS, all) + v.count("recovery_epochs", all);

    let recoveries = v
        .inputs
        .jobs
        .iter()
        .filter(|j| matches!(j.kind, Kind::Recover { .. }))
        .count() as f64;
    let sum = |f: fn(&Outcome) -> u64| outcomes.iter().map(|o| f(o) as f64).sum::<f64>();
    let epochs = sum(|o| o.epochs);

    vec![
        ("workflow.gen_ms", setup.total_ns("workflow.gen") / 1e6),
        (
            "workflow.dax_parse_ms",
            v.mean_ns("workflow.dax_parse") / 1e6,
        ),
        (
            "workflow.dax_parse_ns_per_elem",
            ratio(parse_ns, parse_elems),
        ),
        (
            "workflow.dax_parse_scaling_exp",
            v.exponent("workflow.dax_parse"),
        ),
        ("scheduler.plan_ms.minmin", plan_ms(Algorithm::MinMin)),
        ("scheduler.plan_ms.heft", plan_ms(Algorithm::Heft)),
        (
            "scheduler.plan_ms.minminbudg",
            plan_ms(Algorithm::MinMinBudg),
        ),
        ("scheduler.plan_ms.heftbudg", plan_ms(Algorithm::HeftBudg)),
        ("scheduler.plan_ms.bdt", plan_ms(Algorithm::Bdt)),
        ("scheduler.plan_ms.cg", plan_ms(Algorithm::Cg)),
        (
            "scheduler.plan_ms.heftbudg_plus",
            plan_ms(Algorithm::HeftBudgPlus),
        ),
        (
            "scheduler.plan_ms.heftbudg_plus_inv",
            plan_ms(Algorithm::HeftBudgPlusInv),
        ),
        ("scheduler.plan_ms.cg_plus", plan_ms(Algorithm::CgPlus)),
        (
            "scheduler.candidate_evals_per_job",
            ratio(v.count("plan_candidate_evals", all), jobs),
        ),
        ("scheduler.ns_per_candidate", ratio(sweep_ns, candidates)),
        ("scheduler.best_host_hit_ratio", ratio(hits, hits + misses)),
        (
            "scheduler.plan_scaling_exp.heftbudg",
            v.exponent(plan_span(Algorithm::HeftBudg)),
        ),
        ("scheduler.refine.ms", ratio(refine_ns, refines) / 1e6),
        ("scheduler.refine.trials_per_job", ratio(trials, refines)),
        ("scheduler.refine.accept_ratio", ratio(accepted, trials)),
        (
            "scheduler.refine.us_per_trial",
            ratio(refine_ns, trials) / 1e3,
        ),
        (
            "scheduler.refine.share_pct",
            100.0 * ratio(refine_ns, job_ns),
        ),
        (
            "simulator.sim_us.stochastic",
            v.mean_ns("simulator.stochastic") / 1e3,
        ),
        (
            "simulator.sim_us.planning",
            v.mean_ns("simulator.planning") / 1e3,
        ),
        ("simulator.sims_per_job", ratio(sims, jobs)),
        (
            "simulator.events_per_sim",
            ratio(v.engine_events(all), sims),
        ),
        (
            "simulator.ns_per_event",
            ratio(engine_ns, v.engine_events(direct)),
        ),
        (
            "simulator.sim_scaling_exp",
            v.exponent("simulator.planning"),
        ),
        ("simulator.share_pct", 100.0 * ratio(engine_ns, job_ns)),
        ("simulator.lint_us", v.mean_ns("simulator.lint") / 1e3),
        (
            "scheduler.recovery.ms_per_epoch",
            ratio(v.total_ns("scheduler.recovery"), epochs) / 1e6,
        ),
        (
            "scheduler.recovery.epochs_per_job",
            ratio(epochs, recoveries),
        ),
        (
            "scheduler.recovery.completed_pct",
            100.0 * ratio(sum(|o| u64::from(o.completed)), recoveries),
        ),
        (
            "scheduler.recovery.budget_clause_hits",
            sum(|o| o.budget_clause_hits),
        ),
        (
            "simulator.faults.crashes_per_job",
            ratio(sum(|o| o.crashes), recoveries),
        ),
        (
            "simulator.faults.boot_retries_per_job",
            ratio(sum(|o| o.boot_retries), recoveries),
        ),
        (
            "observe.events_per_job",
            ratio(sum(|o| o.events), recoveries),
        ),
        ("observe.ledger_us", v.mean_ns("observe.ledger") / 1e3),
        ("observe.chrome_us", v.mean_ns("observe.chrome") / 1e3),
        (
            "observe.chrome_kb",
            ratio(sum(|o| o.chrome_bytes), recoveries) / 1e3,
        ),
        (
            "bench.check_us",
            ratio(v.total_ns("bench.check"), jobs) / 1e3,
        ),
        (
            "bench.trace_overhead_pct",
            100.0 * ratio(traced_ns - plain_ns, plain_ns),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("seed must be an unsigned integer, got `{value}`"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("seconds must be a number, got `{value}`"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!(
                        "seconds must be finite and non-negative, got `{value}`"
                    ));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or_else(|| "--workload is required".to_string())?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "wfsbench: {e}\nusage: wfsbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        per_layer(args.workload, args.seed, Size::Full)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, Size::Full)
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_has_ten_samples_beyond_it_from_100_samples_on() {
        assert_eq!(MIN_JOBS, 100);
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(99, 90), 9);
        let xs: Vec<f64> = (1..=250).map(f64::from).collect();
        for n in [100, 101, 137, 250] {
            let p90 = percentile(&xs[..n], 90);
            assert!(
                xs[..n].iter().filter(|&&x| x > p90).count() >= 10,
                "n = {n}"
            );
        }
        assert_eq!(percentile(&xs[..100], 90), 90.0);
        assert_eq!(percentile(&xs[..100], 50), 50.0);
        assert!((scaling_exponent((400.0, 1.0), (2000.0, 25.0)) - 2.0).abs() < 1e-12);
    }

    /// `(name, unit)` of each entry of a `BENCHMARK.json` section; entries
    /// sit one per line.
    fn json_entries(text: &str, section: &str) -> Vec<(String, Option<String>)> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |line: &str, key: &str| {
            let pat = format!("\"{key}\": \"");
            line.find(&pat).map(|i| {
                let rest = &line[i + pat.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
        };
        body.lines()
            .filter_map(|l| field(l, "name").map(|n| (n, field(l, "unit"))))
            .collect()
    }

    /// The printed JSON line carries exactly the table's metrics.
    fn assert_prints(report: &Report, table: &[(&str, &str)]) {
        let json = report.to_json();
        assert_eq!(json.matches("\"value\"").count(), table.len(), "{json}");
        for (name, unit) in table {
            let entry = format!("\"{name}\": {{\"value\": ");
            assert!(json.contains(&entry), "{name} missing from {json}");
            assert!(
                json.contains(&format!("\"unit\": \"{unit}\"")),
                "{unit} missing"
            );
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let table = |t: &[(&str, &str)]| {
            t.iter()
                .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
                .collect::<Vec<_>>()
        };
        assert_eq!(json_entries(&text, "end_to_end"), table(&END_TO_END));
        assert_eq!(json_entries(&text, "per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = json_entries(&text, "workloads")
            .into_iter()
            .map(|e| e.0)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn smoke_runs_pass_every_check_with_a_well_formed_span_tree() {
        for w in Workload::ALL {
            let inputs = setup(w, 7, Size::Smoke, &mut Plain);
            let mut tracer = Tracer::new();
            for job in &inputs.jobs {
                let root = tracer.enter("job");
                let before = tracer.spans().len();
                run_job(&inputs, job, &mut tracer).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(
                    tracer.spans().len() > before,
                    "{}: a job opened no layer span",
                    w.name()
                );
                tracer.exit(root);
            }
            tracer
                .check_tree()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));

            let traced = per_layer(w, 7, Size::Smoke);
            assert!(
                traced.correct && traced.failed == 0,
                "{}: {traced:?}",
                w.name()
            );
            assert_prints(&traced, &PER_LAYER);
            let timed = end_to_end(w, 7, 0.0, Size::Smoke);
            assert!(
                timed.correct && timed.failed == 0,
                "{}: {timed:?}",
                w.name()
            );
            assert_prints(&timed, &END_TO_END);
        }
    }

    #[test]
    fn traced_refinement_split_is_bit_identical_to_heftbudg_plus() {
        let platform = Platform::paper_default();
        for ty in BenchmarkType::ALL {
            let wf = ty.generate(GenConfig::new(30, 3));
            let floor = planned_cost(&wf, &platform, &min_cost_schedule(&wf, &platform));
            for mult in [1.2, 2.0, 5.0] {
                for alg in [Algorithm::HeftBudgPlus, Algorithm::HeftBudgPlusInv] {
                    let budget = floor * mult;
                    let mut tracer = Tracer::new();
                    let split = plan(alg, &wf, &platform, budget, &mut tracer);
                    let whole = alg.run(&wf, &platform, budget);
                    assert_eq!(split, whole, "{alg} on {} at {mult}x", ty.name());
                    let cfg = SimConfig::planning();
                    let a = simulate(&wf, &platform, &split, &cfg).expect("valid");
                    let b = simulate(&wf, &platform, &whole, &cfg).expect("valid");
                    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
                    assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
                    let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
                    assert_eq!(
                        names,
                        [plan_span(alg), "scheduler.heft_budg", "scheduler.refine"]
                    );
                }
            }
        }
    }

    #[test]
    fn self_time_subtracts_children_and_open_spans_are_reported() {
        let mut tracer = Tracer::new();
        let outer = tracer.enter("outer");
        let inner = tracer.enter("inner");
        std::hint::black_box((0..10_000u64).sum::<u64>());
        tracer.exit(inner);
        tracer.exit(outer);
        tracer.check_tree().expect("well formed");
        let spans = tracer.spans();
        assert_eq!(
            tracer.self_times()[0] + spans[1].duration_ns(),
            spans[0].duration_ns()
        );

        let mut open = Tracer::new();
        open.enter("dangling");
        assert!(open.check_tree().is_err());
    }

    #[test]
    fn only_budget_clause_findings_are_tolerated() {
        assert!(is_budget_clause(
            "epoch 0: budget: total cost 2.1 exceeds budget 2.0"
        ));
        assert!(!is_budget_clause(
            "epoch 1: precedence: T3 -> T4 starts early"
        ));
    }
}
