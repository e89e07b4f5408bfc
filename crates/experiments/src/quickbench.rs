//! Table III(b) trajectory across all three generators, with a pinned CI
//! gate on the schedule-computation times.
//!
//! ```text
//! wfs-experiments quickbench [iterations] [--out FILE] [--gate PINNED]
//! ```
//!
//! Times every [`Algorithm`] on MONTAGE / LIGO / CYBERSHAKE at 30, 90 and
//! 400 tasks under the medium Table III budget and writes the medians (ns
//! per schedule) to `--out` (default `BENCH_sched_time.json`), one cell per
//! line. `iterations` is the sample count per cell (default 9; CI smoke
//! runs pass 1): medians over an odd sample count keep one-off scheduler
//! hiccups out of the reported number.
//!
//! `--gate` compares the measured medians against a pinned results file and
//! fails (exit 1) unless the run covers exactly the pinned cells and the
//! *median ratio* across them stays within [`GATE_TOLERANCE`]. Per-cell
//! times are noisy at low iteration counts, but a genuine systematic
//! regression — e.g. an observability sink that stopped compiling away —
//! shifts every cell, and the median ratio is robust to the handful of
//! outliers that sub-millisecond cells produce. (The refinement
//! algorithms' cells are dominated by whole-schedule re-simulations and
//! swing the most — see DESIGN.md §11.)

use crate::tables::{characteristic_budgets, time_samples};
use std::collections::BTreeMap;
use wfs_platform::Platform;
use wfs_scheduler::Algorithm;
use wfs_workflow::gen::{BenchmarkType, GenConfig};

/// Median-ratio bound of the `--gate` check.
pub const GATE_TOLERANCE: f64 = 1.5;

const SIZES: [usize; 3] = [30, 90, 400];
const TYPES: [BenchmarkType; 3] = [
    BenchmarkType::Montage,
    BenchmarkType::Ligo,
    BenchmarkType::CyberShake,
];

/// A cell's key in the results file: `(workflow, tasks, algorithm)`.
type Key = (String, u64, String);

/// The timed cells, in output order. The refinement algorithms
/// (HEFTBUDG+/+INV, CG+) spend their time in whole-schedule
/// re-simulations, not in the planner — tens of seconds per run at 400
/// tasks — so they are timed at 30/90 only.
fn cells() -> Vec<(BenchmarkType, usize, Algorithm)> {
    let mut cells = Vec::new();
    for ty in TYPES {
        for size in SIZES {
            for alg in Algorithm::ALL {
                let refinement = matches!(
                    alg,
                    Algorithm::HeftBudgPlus | Algorithm::HeftBudgPlusInv | Algorithm::CgPlus
                );
                if !(refinement && size == 400) {
                    cells.push((ty, size, alg));
                }
            }
        }
    }
    cells
}

fn key(ty: BenchmarkType, size: usize, alg: Algorithm) -> Key {
    (ty.name().to_string(), size as u64, alg.name().to_string())
}

struct Options {
    iterations: usize,
    out: String,
    gate: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        iterations: 9,
        out: String::from("BENCH_sched_time.json"),
        gate: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => opts.out = it.next().ok_or("--out wants a path")?.clone(),
            "--gate" => {
                opts.gate = Some(
                    it.next()
                        .ok_or("--gate wants a pinned results path")?
                        .clone(),
                )
            }
            s if s.starts_with("--") => return Err(format!("unknown option `{s}`")),
            s => {
                opts.iterations =
                    s.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("iterations must be a positive integer, got `{s}`")
                    })?;
            }
        }
    }
    Ok(opts)
}

/// Load a pinned results file as `key -> fast_ns`.
fn load_pinned(text: &str) -> Result<BTreeMap<Key, u64>, String> {
    let v: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let cells = v["results"].as_array().ok_or("no `results` array")?;
    cells
        .iter()
        .map(|c| {
            let key = (
                c["workflow"].as_str()?.to_string(),
                c["tasks"].as_u64()?,
                c["algorithm"].as_str()?.to_string(),
            );
            Some((key, c["fast_ns"].as_u64()?))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "a cell lacks workflow/tasks/algorithm/fast_ns".to_string())
}

/// Compare `measured` against `pinned`; the median ratio decides.
fn gate(measured: &BTreeMap<Key, u64>, pinned: &BTreeMap<Key, u64>) -> Result<(), String> {
    if measured.keys().ne(pinned.keys()) {
        return Err(format!(
            "measured cells ({}) differ from the pinned cells ({})",
            measured.len(),
            pinned.len()
        ));
    }
    let mut ratios: Vec<(f64, &Key)> = measured
        .iter()
        .zip(pinned.values())
        .map(|((k, &fast), &pin)| (fast as f64 / pin.max(1) as f64, k))
        .collect();
    ratios.sort_by(|a, b| a.0.total_cmp(&b.0));
    let median = ratios[ratios.len() / 2].0;
    eprintln!(
        "gate: {} cells, median ratio {median:.3} (tolerance {GATE_TOLERANCE:.2})",
        ratios.len()
    );
    for (r, (wf, n, alg)) in ratios.iter().rev().take(3) {
        eprintln!("  slowest vs pin: {wf}-{n} {alg} at {r:.2}x");
    }
    if median > GATE_TOLERANCE {
        return Err(format!(
            "median ratio {median:.3} exceeds {GATE_TOLERANCE:.2} — a systematic slowdown \
             (is the NoopSink still compiling away?)"
        ));
    }
    Ok(())
}

/// Run the harness; `Err` is a usage error.
pub fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_args(args)?;
    let platform = Platform::paper_default();
    let mut measured = BTreeMap::new();
    let mut lines = Vec::new();
    for group in cells().chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (ty, size, _) = group[0];
        let wf = ty.generate(GenConfig::new(size, 1));
        // Medium budget: the constrained-but-feasible regime where the
        // budget machinery (shares, pot, affordability) is fully active.
        let budget = characteristic_budgets(&wf, &platform)[1].1;
        for &(_, _, alg) in group {
            let mut samples = time_samples(alg, &wf, &platform, budget, opts.iterations);
            samples.sort_unstable();
            let fast = samples[samples.len() / 2].as_nanos();
            eprintln!("{}-{size} {:<16} {fast:>12} ns", ty.name(), alg.name());
            lines.push(format!(
                "    {{\"workflow\": \"{}\", \"tasks\": {size}, \"algorithm\": \"{}\", \"fast_ns\": {fast}}}",
                ty.name(),
                alg.name()
            ));
            measured.insert(key(ty, size, alg), u64::try_from(fast).unwrap_or(u64::MAX));
        }
    }

    let json = format!(
        "{{\n  \"unit\": \"ns per schedule (median of {})\",\n  \"results\": [\n{}\n  ]\n}}\n",
        opts.iterations,
        lines.join(",\n")
    );
    std::fs::write(&opts.out, json).expect("write benchmark results");
    eprintln!("wrote {}", opts.out);

    if let Some(pin) = opts.gate {
        let verdict = std::fs::read_to_string(&pin)
            .map_err(|e| e.to_string())
            .and_then(|text| load_pinned(&text))
            .and_then(|pinned| gate(&measured, &pinned));
        if let Err(e) = verdict {
            eprintln!("GATE FAILED vs {pin}: {e}");
            std::process::exit(1);
        }
        eprintln!("gate OK");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const PIN: &str = include_str!("../../../BENCH_sched_time.json");

    #[test]
    fn cells_are_exactly_the_pinned_cells() {
        let pinned = load_pinned(PIN).unwrap();
        let ours: BTreeSet<Key> = cells().into_iter().map(|(t, n, a)| key(t, n, a)).collect();
        assert_eq!((cells().len(), ours.len()), (108, 108));
        assert!(ours.iter().eq(pinned.keys()));
    }

    #[test]
    fn gate_rejects_subsets_and_slowdowns() {
        let pinned = load_pinned(PIN).unwrap();
        assert!(gate(&pinned, &pinned).is_ok());
        let mut subset = pinned.clone();
        subset.pop_first();
        assert!(gate(&subset, &pinned).is_err());
        let slow: BTreeMap<Key, u64> = pinned.iter().map(|(k, &v)| (k.clone(), v * 2)).collect();
        assert!(gate(&slow, &pinned).is_err());
    }

    #[test]
    fn iterations_must_be_positive() {
        let args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_args(&args(&["3"])).unwrap().iterations, 3);
        assert!(parse_args(&args(&["0"])).is_err());
        assert!(parse_args(&args(&["x"])).is_err());
        assert!(parse_args(&args(&["--gate"])).is_err());
        assert!(parse_args(&args(&["--tolerance", "2"])).is_err());
    }
}
