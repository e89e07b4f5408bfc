//! Online re-scheduling (the paper's §VI future-work direction): monitor
//! running tasks, interrupt stragglers and migrate them to faster VMs when
//! the remaining budget allows.
//!
//! Two regimes are contrasted:
//! - heavy-tailed (log-normal) durations — a long-elapsed task signals a
//!   straggler with lots of work left: interruption pays;
//! - Gaussian durations (the paper's model) — a long-elapsed task is almost
//!   done: the distribution-blind watchdog migrates wrongly and loses, the
//!   risk the paper explicitly warns about.
//!
//! Run with: `cargo run --release --example online_rescheduling`

// Examples are demo code: panicking on a broken fixture is the right UX.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use budget_sched::prelude::*;
use budget_sched::scheduler::{run_online, OnlineConfig};

const REPS: u64 = 25;

fn main() {
    // A wide speed ladder (16x), like real cloud size ranges: migration can
    // only beat redoing the work when much faster VMs exist.
    let platform = Platform::wide_ladder();
    // Long tasks (~20 min on the slow VMs), high uncertainty.
    let wf = layered_random(
        LayeredParams { layers: 4, width: 5, edge_prob: 0.3, work: 6000.0, data: 20e6 },
        GenConfig { tasks: 0, seed: 1, sigma_ratio: 1.0 },
    );
    let floor = simulate(
        &wf,
        &platform,
        &min_cost_schedule(&wf, &platform),
        &SimConfig::planning(),
    )
    .unwrap()
    .total_cost;
    // Tight budget: the initial plan sits on slow VMs, leaving the watchdog
    // something to improve.
    let budget = floor * 1.2;
    println!(
        "{} tasks, budget ${budget:.3} (1.2x the cheapest execution)\n",
        wf.task_count()
    );

    println!(
        "{:<22} {:>14} {:>14} {:>8} {:>8}",
        "scenario", "static (s)", "watchdog (s)", "migr.", "fires"
    );
    for (name, heavy) in [("heavy-tailed", true), ("gaussian (paper)", false)] {
        let mut static_mk = 0.0;
        let mut online_mk = 0.0;
        let mut migs = 0;
        let mut fires = 0;
        for seed in 0..REPS {
            let weights = if heavy {
                WeightModel::HeavyTail { seed }
            } else {
                WeightModel::Stochastic { seed }
            };
            let sc = OnlineConfig::static_run(weights);
            let oc = OnlineConfig::with_watchdog(weights, 1.0);
            static_mk += run_online(&wf, &platform, budget, sc).makespan;
            let o = run_online(&wf, &platform, budget, oc);
            online_mk += o.makespan;
            migs += o.migrations;
            fires += o.interruptions;
        }
        println!(
            "{:<22} {:>14.0} {:>14.0} {:>8} {:>8}",
            name,
            static_mk / REPS as f64,
            online_mk / REPS as f64,
            migs,
            fires
        );
    }
    println!(
        "\nHeavy tails: interrupting stragglers and redoing them on 16x-faster VMs\n\
         shortens the average makespan. Gaussian tails: the same watchdog wastes\n\
         nearly-finished work — the risk the paper flags for dynamic decisions."
    );
}
