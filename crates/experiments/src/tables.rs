//! Table II (platform) and Table III (schedule-computation CPU times).

use crate::common::{results_dir, stats_of, write_text, Stats};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use wfs_platform::Platform;
use wfs_scheduler::{min_cost_floor, Algorithm};
use wfs_simulator::{simulate, SimConfig};
use wfs_workflow::gen::{montage, GenConfig};
use wfs_workflow::Workflow;

/// Print the Table II instantiation (see DESIGN.md §3 for calibration).
pub fn platform_table() {
    let p = Platform::paper_default();
    println!("Table II — platform instantiation");
    println!("{:<10} {:>12} {:>10} {:>10} {:>8}", "category", "speed Gf/s", "$/hour", "init $", "boot s");
    for c in p.categories() {
        println!(
            "{:<10} {:>12.0} {:>10.2} {:>10.3} {:>8.0}",
            c.name, c.speed, c.cost_per_hour, c.init_cost, c.boot_time
        );
    }
    let dc = &p.datacenter;
    println!(
        "datacenter: bandwidth {:.0} MB/s, usage ${:.3}/h, boundary transfers ${:.3}/GB",
        dc.bandwidth / 1e6,
        dc.cost_per_hour,
        dc.io_cost_per_byte * 1e9
    );
    println!("billing: per second (paper §V-A)");
}

/// The three characteristic budget levels of Table III: "low" = minimum
/// feasible, "medium" = halfway to "high", "high" = unconstrained.
pub(crate) fn characteristic_budgets(
    wf: &Workflow,
    platform: &Platform,
) -> [(&'static str, f64); 3] {
    let low = min_cost_floor(wf, platform);
    // "High": enough to never constrain a choice — cost of the HEFT
    // baseline schedule with margin.
    let heft_sched = Algorithm::Heft.run(wf, platform, f64::INFINITY);
    let high = simulate(wf, platform, &heft_sched, &SimConfig::planning())
        .expect("valid")
        .total_cost
        * 2.0;
    let medium = (low + high) / 2.0;
    [("low", low), ("medium", medium), ("high", high)]
}

/// Wall-clock time of each of `reps` back-to-back runs of `alg`.
pub(crate) fn time_samples(
    alg: Algorithm,
    wf: &Workflow,
    platform: &Platform,
    budget: f64,
    reps: usize,
) -> Vec<Duration> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let s = alg.run(wf, platform, budget);
            let elapsed = t0.elapsed();
            std::hint::black_box(&s);
            elapsed
        })
        .collect()
}

/// Mean ± std of [`time_samples`], in seconds (one Table III cell).
fn time_stats(alg: Algorithm, wf: &Workflow, platform: &Platform, budget: f64, reps: usize) -> Stats {
    let secs: Vec<f64> =
        time_samples(alg, wf, platform, budget, reps).iter().map(Duration::as_secs_f64).collect();
    stats_of(&secs)
}

/// Table III(a): time to compute a schedule for MONTAGE-90 under the three
/// characteristic budgets. `include_refined` adds HEFTBUDG+/+INV and CG+
/// (orders of magnitude slower — Table III's very point).
pub fn table3a(reps: usize, include_refined: bool) {
    let platform = Platform::paper_default();
    let wf = montage(GenConfig::new(90, 1));
    let budgets = characteristic_budgets(&wf, &platform);
    let mut algos = vec![
        Algorithm::MinMin,
        Algorithm::Heft,
        Algorithm::MinMinBudg,
        Algorithm::HeftBudg,
        Algorithm::Bdt,
        Algorithm::Cg,
    ];
    if include_refined {
        algos.extend([Algorithm::HeftBudgPlus, Algorithm::HeftBudgPlusInv, Algorithm::CgPlus]);
    }

    let mut md = String::from(
        "## Table III(a) — schedule computation time, MONTAGE-90, seconds (mean ± std)\n\n",
    );
    write!(md, "| budget |").unwrap();
    for a in &algos {
        write!(md, " {} |", a.name()).unwrap();
    }
    md.push('\n');
    md.push_str("|---|");
    for _ in &algos {
        md.push_str("---|");
    }
    md.push('\n');
    for (name, b) in budgets {
        write!(md, "| {name} (${b:.2}) |").unwrap();
        for &a in &algos {
            let st = time_stats(a, &wf, &platform, b, reps);
            write!(md, " {:.3} ± {:.3} |", st.mean, st.std).unwrap();
        }
        md.push('\n');
        println!("table3a: {name} budget done");
    }
    write_text(&results_dir().join("table3a.md"), &md);
    print!("{md}");
}

/// Table III(b): schedule computation time vs task count (30/60/90/400,
/// MONTAGE, high budget). Refined algorithms are timed only up to 90 tasks
/// (at 400 they take hours, as the paper's own Table III shows).
pub fn table3b(reps: usize, include_refined: bool) {
    let platform = Platform::paper_default();
    let sizes = [30usize, 60, 90, 400];
    let mut algos = vec![
        Algorithm::MinMin,
        Algorithm::Heft,
        Algorithm::MinMinBudg,
        Algorithm::HeftBudg,
        Algorithm::Bdt,
        Algorithm::Cg,
    ];
    if include_refined {
        algos.extend([Algorithm::HeftBudgPlus, Algorithm::HeftBudgPlusInv]);
    }

    let mut md = String::from(
        "## Table III(b) — schedule computation time vs task count, MONTAGE, high budget, seconds\n\n",
    );
    write!(md, "| tasks |").unwrap();
    for a in &algos {
        write!(md, " {} |", a.name()).unwrap();
    }
    md.push('\n');
    md.push_str("|---|");
    for _ in &algos {
        md.push_str("---|");
    }
    md.push('\n');
    for n in sizes {
        let wf = montage(GenConfig::new(n, 1));
        let [_, _, (_, high)] = characteristic_budgets(&wf, &platform);
        write!(md, "| {n} |").unwrap();
        for &a in &algos {
            if a.is_refined() && n > 90 {
                write!(md, " — |").unwrap();
                continue;
            }
            let st = time_stats(a, &wf, &platform, high, reps);
            write!(md, " {:.3} ± {:.3} |", st.mean, st.std).unwrap();
        }
        md.push('\n');
        println!("table3b: n={n} done");
    }
    write_text(&results_dir().join("table3b.md"), &md);
    print!("{md}");
}
