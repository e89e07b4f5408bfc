//! Shared plumbing for the experiment harness: run matrices, aggregation,
//! CSV/markdown output, and parallel fan-out.

use std::sync::Mutex;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use wfs_platform::Platform;
use wfs_scheduler::{min_cost_floor, Algorithm};
use wfs_simulator::{simulate, Schedule, SimConfig};
use wfs_workflow::gen::{BenchmarkType, GenConfig};
use wfs_workflow::Workflow;

/// Global experiment scale, switchable for smoke runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Instances (seeds) per workflow type.
    pub instances: u64,
    /// Stochastic replays per schedule.
    pub reps: u64,
    /// Budget multipliers applied to each workflow's `min_cost` floor.
    pub budget_multipliers: &'static [f64],
}

impl Scale {
    /// Paper-like scale (5 instances × 25 replays), with the multiplier
    /// grid densest in the 1–5× band where the budget actually binds.
    pub fn full() -> Self {
        Self {
            instances: 5,
            reps: 25,
            budget_multipliers: &[
                0.8, 0.9, 1.0, 1.2, 1.4, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0, 8.0, 12.0, 20.0,
            ],
        }
    }

    /// Quick scale for smoke testing the harness.
    pub fn fast() -> Self {
        Self { instances: 2, reps: 5, budget_multipliers: &[1.0, 2.0, 5.0, 12.0] }
    }
}

/// Aggregated statistics of one metric over repetitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (population formula, like the paper's
    /// error bars).
    pub std: f64,
}

/// Compute [`Stats`] over a slice.
pub fn stats_of(xs: &[f64]) -> Stats {
    if xs.is_empty() {
        return Stats::default();
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    Stats { mean, std: var.sqrt() }
}

/// One aggregated result cell of a sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workflow type.
    pub workflow: &'static str,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Initial budget handed to the scheduler.
    pub budget: f64,
    /// Makespan statistics over instances × replays.
    pub makespan: Stats,
    /// Total cost statistics.
    pub cost: Stats,
    /// VMs-used statistics.
    pub vms: Stats,
    /// Fraction of runs whose cost fit the budget.
    pub valid_pct: f64,
    /// Mean wall-clock time spent computing the schedule (seconds).
    pub sched_time: Stats,
}

/// Work item of a sweep: one (workflow instance, algorithm, budget) triple.
struct Job {
    wf_ty: BenchmarkType,
    seed: u64,
    alg: Algorithm,
    budget: f64,
}

/// Raw per-job measurements prior to aggregation.
struct JobResult {
    wf_name: &'static str,
    alg: &'static str,
    budget_mult: f64,
    makespans: Vec<f64>,
    costs: Vec<f64>,
    vms: Vec<f64>,
    valid: Vec<bool>,
    sched_secs: f64,
}

/// Run a full sweep: `types × instances × budgets × algorithms`, each
/// schedule replayed `reps` times with stochastic weights. Budgets are
/// per-instance multiples of the instance's `min_cost` floor, so results
/// aggregate cleanly across instances. Returns one [`Cell`] per
/// (type, algorithm, multiplier).
pub fn sweep(
    types: &[BenchmarkType],
    tasks: usize,
    algorithms: &[Algorithm],
    scale: Scale,
) -> Vec<Cell> {
    let platform = Platform::paper_default();
    let mut jobs = Vec::new();
    for &ty in types {
        for seed in 0..scale.instances {
            for &alg in algorithms {
                for &m in scale.budget_multipliers {
                    jobs.push((
                        Job { wf_ty: ty, seed, alg, budget: m },
                        m, // keep the multiplier for grouping
                    ));
                }
            }
        }
    }

    let results: Mutex<Vec<JobResult>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let next: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get()).min(16);

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let (job, mult) = &jobs[i];
                let wf = job.wf_ty.generate(GenConfig::new(tasks, job.seed));
                let floor = min_cost_floor(&wf, &platform);
                let budget = floor * job.budget;
                let t0 = std::time::Instant::now();
                let schedule = job.alg.run(&wf, &platform, budget);
                let sched_secs = t0.elapsed().as_secs_f64();
                let r = replay(&wf, &platform, &schedule, budget, scale.reps);
                results.lock().unwrap().push(JobResult {
                    wf_name: job.wf_ty.name(),
                    alg: job.alg.name(),
                    budget_mult: *mult,
                    makespans: r.0,
                    costs: r.1,
                    vms: r.2,
                    valid: r.3,
                    sched_secs,
                });
            });
        }
    });

    aggregate(results.into_inner().expect("worker threads do not panic"))
}

/// Replay a schedule `reps` times; returns (makespans, costs, vms, valid).
#[allow(clippy::type_complexity)]
fn replay(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    budget: f64,
    reps: u64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<bool>) {
    let mut mk = Vec::with_capacity(reps as usize);
    let mut cost = Vec::with_capacity(reps as usize);
    let mut vms = Vec::with_capacity(reps as usize);
    let mut valid = Vec::with_capacity(reps as usize);
    for seed in 0..reps {
        let r = simulate(wf, platform, schedule, &SimConfig::stochastic(seed))
            .expect("schedules from the algorithms are valid");
        mk.push(r.makespan);
        cost.push(r.total_cost);
        vms.push(r.vms_used as f64);
        valid.push(r.within_budget(budget));
    }
    (mk, cost, vms, valid)
}

fn aggregate(raw: Vec<JobResult>) -> Vec<Cell> {
    use std::collections::BTreeMap;
    // Group by (workflow, algorithm, multiplier); merge instance samples.
    let mut groups: BTreeMap<(&str, &str, u64), Vec<&JobResult>> = BTreeMap::new();
    for r in &raw {
        groups
            .entry((r.wf_name, r.alg, r.budget_mult.to_bits()))
            .or_default()
            .push(r);
    }
    groups
        .into_iter()
        .map(|((wf, alg, mult_bits), rs)| {
            let gather = |f: fn(&JobResult) -> &Vec<f64>| -> Vec<f64> {
                rs.iter().flat_map(|r| f(r).iter().copied()).collect()
            };
            let mk = gather(|r| &r.makespans);
            let cost = gather(|r| &r.costs);
            let vms = gather(|r| &r.vms);
            let valid: Vec<bool> = rs.iter().flat_map(|r| r.valid.iter().copied()).collect();
            let sched: Vec<f64> = rs.iter().map(|r| r.sched_secs).collect();
            Cell {
                workflow: wf,
                algorithm: alg,
                budget: f64::from_bits(mult_bits),
                makespan: stats_of(&mk),
                cost: stats_of(&cost),
                vms: stats_of(&vms),
                valid_pct: 100.0 * valid.iter().filter(|&&v| v).count() as f64
                    / valid.len().max(1) as f64,
                sched_time: stats_of(&sched),
            }
        })
        .collect()
}

/// Directory where experiment outputs land.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("WFS_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    std::fs::create_dir_all(&dir).expect("can create results directory");
    PathBuf::from(dir)
}

/// Write cells as CSV (`budget` column is the multiplier over `min_cost`).
pub fn write_csv(path: &Path, cells: &[Cell]) {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create csv"));
    writeln!(
        f,
        "workflow,algorithm,budget_mult,makespan_mean,makespan_std,cost_mean,cost_std,\
         vms_mean,vms_std,valid_pct,sched_time_mean,sched_time_std"
    )
    .unwrap();
    for c in cells {
        writeln!(
            f,
            "{},{},{},{:.4},{:.4},{:.6},{:.6},{:.2},{:.2},{:.1},{:.6},{:.6}",
            c.workflow,
            c.algorithm,
            c.budget,
            c.makespan.mean,
            c.makespan.std,
            c.cost.mean,
            c.cost.std,
            c.vms.mean,
            c.vms.std,
            c.valid_pct,
            c.sched_time.mean,
            c.sched_time.std
        )
        .unwrap();
    }
}

/// Render cells as a markdown table grouped by workflow type.
pub fn to_markdown(title: &str, cells: &[Cell]) -> String {
    let mut out = String::new();
    writeln!(out, "## {title}\n").unwrap();
    writeln!(
        out,
        "| workflow | algorithm | budget (×min_cost) | makespan (s) | cost ($) | VMs | valid % |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|").unwrap();
    for c in cells {
        writeln!(
            out,
            "| {} | {} | {:.2} | {:.0} ± {:.0} | {:.3} ± {:.3} | {:.1} | {:.0} |",
            c.workflow,
            c.algorithm,
            c.budget,
            c.makespan.mean,
            c.makespan.std,
            c.cost.mean,
            c.cost.std,
            c.vms.mean,
            c.valid_pct
        )
        .unwrap();
    }
    out
}

/// Write a text file, logging the path.
pub fn write_text(path: &Path, content: &str) {
    std::fs::write(path, content).expect("write results file");
    println!("wrote {}", path.display());
}
