//! The four figures of the paper's evaluation (§V-B/C/D), regenerated as
//! CSV + markdown sweeps.

use crate::common::{results_dir, sweep, to_markdown, write_csv, write_text, Scale};
use wfs_scheduler::Algorithm;
use wfs_workflow::gen::BenchmarkType;

/// Workflow size of every figure: the paper evaluates 90-task workflows.
const TASKS: usize = 90;

/// Figure 1: makespan / cost / #VMs vs initial budget for the baselines and
/// the main budget-aware algorithms, 90-task workflows of all three types.
pub fn fig1(scale: Scale) {
    let cells = sweep(
        &BenchmarkType::ALL,
        TASKS,
        &[Algorithm::MinMin, Algorithm::Heft, Algorithm::MinMinBudg, Algorithm::HeftBudg],
        scale,
    );
    let dir = results_dir();
    write_csv(&dir.join("fig1.csv"), &cells);
    write_text(
        &dir.join("fig1.md"),
        &to_markdown(
            &format!("Figure 1 — MIN-MIN(BUDG) and HEFT(BUDG) vs initial budget ({TASKS} tasks)"),
            &cells,
        ),
    );
    summarize_fig1(&cells);
}

fn summarize_fig1(cells: &[crate::common::Cell]) {
    // Paper claim: HEFT enrolls more VMs than MIN-MIN at unlimited budget.
    for wf in ["cybershake", "ligo", "montage"] {
        let at_max = |alg: &str| {
            cells
                .iter()
                .filter(|c| c.workflow == wf && c.algorithm == alg)
                .max_by(|a, b| a.budget.total_cmp(&b.budget))
                .map(|c| c.vms.mean)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{wf}: VMs at largest budget — HEFT {:.0}, MIN-MIN {:.0}",
            at_max("HEFT"),
            at_max("MIN-MIN")
        );
    }
}

/// Figure 2: the refined variants HEFTBUDG+ / HEFTBUDG+INV against HEFT and
/// HEFTBUDG.
pub fn fig2(scale: Scale) {
    let cells = sweep(
        &BenchmarkType::ALL,
        TASKS,
        &[
            Algorithm::Heft,
            Algorithm::HeftBudg,
            Algorithm::HeftBudgPlus,
            Algorithm::HeftBudgPlusInv,
        ],
        scale,
    );
    let dir = results_dir();
    write_csv(&dir.join("fig2.csv"), &cells);
    write_text(
        &dir.join("fig2.md"),
        &to_markdown(
            &format!("Figure 2 — refined variants vs HEFT/HEFTBUDG ({TASKS} tasks)"),
            &cells,
        ),
    );
}

/// Figure 3: makespan, % of valid (budget-respecting) runs and spent cost
/// for MIN-MINBUDG, HEFTBUDG and the competitors BDT and CG.
pub fn fig3(scale: Scale) {
    let cells = sweep(
        &BenchmarkType::ALL,
        TASKS,
        &[Algorithm::MinMinBudg, Algorithm::HeftBudg, Algorithm::Bdt, Algorithm::Cg],
        scale,
    );
    let dir = results_dir();
    write_csv(&dir.join("fig3.csv"), &cells);
    write_text(
        &dir.join("fig3.md"),
        &to_markdown(
            &format!("Figure 3 — budget-aware algorithms vs BDT and CG ({TASKS} tasks)"),
            &cells,
        ),
    );
    // Paper claim: BDT's validity collapses at small budgets (the minimal
    // feasible budget = 1.0 x min_cost).
    for wf in ["cybershake", "ligo", "montage"] {
        let at_floor = |alg: &str| {
            cells
                .iter()
                .filter(|c| c.workflow == wf && c.algorithm == alg)
                .min_by(|a, b| {
                    (a.budget - 1.0).abs().total_cmp(&(b.budget - 1.0).abs())
                })
                .map(|c| c.valid_pct)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{wf} at the minimal budget (1.0x floor): valid% HEFTBUDG {:.0} vs BDT {:.0} vs CG {:.0}",
            at_floor("HEFTBUDG"),
            at_floor("BDT"),
            at_floor("CG")
        );
    }
}

/// Figure 4: HEFTBUDG+ and HEFTBUDG+INV against CG+ (refined competitors).
pub fn fig4(scale: Scale) {
    let cells = sweep(
        &BenchmarkType::ALL,
        TASKS,
        &[Algorithm::HeftBudgPlus, Algorithm::HeftBudgPlusInv, Algorithm::CgPlus],
        scale,
    );
    let dir = results_dir();
    write_csv(&dir.join("fig4.csv"), &cells);
    write_text(
        &dir.join("fig4.md"),
        &to_markdown(&format!("Figure 4 — refined variants vs CG+ ({TASKS} tasks)"), &cells),
    );
}
