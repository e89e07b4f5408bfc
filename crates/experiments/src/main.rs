//! Experiment harness regenerating every table and figure of the paper.
//!
//! ```text
//! wfs-experiments [--fast] <command> [args]
//! ```
//!
//! The commands, their arguments and what each one regenerates are the
//! [`COMMANDS`] table, which is also what the usage message prints;
//! `all` runs every command except `quickbench`. `--fast` shrinks
//! instances/replays for smoke runs. Outputs land in `results/` (override
//! with WFS_RESULTS_DIR).

mod common;
mod extended;
mod figures;
mod quickbench;
mod tables;

use common::Scale;

/// Settings derived from `--fast`, shared by every command.
struct Ctx {
    scale: Scale,
    t3_reps: usize,
    include_refined: bool,
}

/// A command's entry point: the shared settings and the arguments after
/// the command name.
type Run = fn(&Ctx, &[String]);

/// Every command: name, description (with its arguments, if any), entry.
const COMMANDS: &[(&str, &str, Run)] = &[
    ("fig1", "Fig. 1 — MIN-MIN(BUDG)/HEFT(BUDG) vs budget (makespan, cost, VMs)", |c, _| {
        figures::fig1(c.scale)
    }),
    ("fig2", "Fig. 2 — HEFTBUDG+/+INV vs HEFT/HEFTBUDG", |c, _| figures::fig2(c.scale)),
    ("fig3", "Fig. 3 — vs BDT and CG (makespan, % valid, cost)", |c, _| figures::fig3(c.scale)),
    ("fig4", "Fig. 4 — HEFTBUDG+/+INV vs CG+", |c, _| figures::fig4(c.scale)),
    ("table3a", "Table III(a) — scheduling CPU time vs budget (MONTAGE-90)", |c, _| {
        tables::table3a(c.t3_reps, c.include_refined)
    }),
    ("table3b", "Table III(b) — scheduling CPU time vs task count", |c, _| {
        tables::table3b(c.t3_reps, c.include_refined)
    }),
    ("sigma", "extended: impact of the uncertainty level σ", |c, _| {
        extended::sigma_sweep(c.scale.instances, c.scale.reps)
    }),
    ("sizes", "extended: budget needed to match the baseline, per size", |_, _| {
        extended::size_sweep()
    }),
    ("online", "extended: online re-scheduling study (§VI future work)", |c, _| {
        extended::online_study(c.scale.reps)
    }),
    ("extras", "extended: MAX-MIN(BUDG) / SUFFERAGE(BUDG) sweep", |c, _| {
        extended::extras_sweep(c.scale)
    }),
    ("deadline", "extended: budget needed per deadline (Eq. 3)", |_, _| extended::deadline_map()),
    ("robustness", "extended: Gaussian-planned schedules under heavy-tailed reality", |c, _| {
        extended::robustness(c.scale.instances, c.scale.reps)
    }),
    ("faults", "extended: fault injection + budget-aware recovery grid", |c, _| {
        extended::fault_study(c.scale.instances, c.scale.reps.min(10))
    }),
    ("counters", "extended: planner work counters per algorithm (traced runs)", |_, _| {
        extended::counters_study()
    }),
    ("ablations", "ablation: HEFTBUDG with the leftover-budget pot on and off", |c, _| {
        extended::ablations(c.scale.instances, c.scale.reps)
    }),
    ("platform", "Table II — print the platform instantiation", |_, _| tables::platform_table()),
    (
        "quickbench",
        "[iters] [--out FILE] [--gate PIN]  Table III(b) times on all generators, pinned CI gate",
        |_, args| quickbench::run(args).unwrap_or_else(|e| usage_error(&e)),
    ),
    ("all", "everything above except quickbench", |c, _| {
        for (name, _, run) in COMMANDS {
            if !matches!(*name, "quickbench" | "all") {
                run(c, &[]);
            }
        }
    }),
];

/// Print `msg` and the usage (generated from [`COMMANDS`]), exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n\nusage: wfs-experiments [--fast] <command> [args]\n\ncommands:");
    for (name, about, _) in COMMANDS {
        eprintln!("  {name:<11}{about}");
    }
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    args.retain(|a| a != "--fast");
    let ctx = Ctx {
        scale: if fast { Scale::fast() } else { Scale::full() },
        t3_reps: if fast { 2 } else { 10 },
        include_refined: !fast,
    };

    let started = std::time::Instant::now();
    let cmd = args.first().map_or("", String::as_str);
    match COMMANDS.iter().find(|(name, _, _)| *name == cmd) {
        Some((_, _, run)) => run(&ctx, &args[1..]),
        None => usage_error(&format!("unknown or missing command `{cmd}`")),
    }
    println!("done in {:.1}s", started.elapsed().as_secs_f64());
}
