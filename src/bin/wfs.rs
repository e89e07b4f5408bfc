//! `wfs` — command-line front end to the budget-sched library.
//!
//! The subcommands and their flags are listed in [`USAGE`], which `wfs`
//! prints after every error; an option a subcommand does not take is one.
//! A reader that closes stdout early (`wfs gen montage 400 | head`) ends
//! the command quietly with status 0.
//!
//! Workflows, schedules and platforms are JSON files; `wfs platform` dumps
//! the paper's Table II platform as a starting point for edits.

use budget_sched::prelude::*;
use budget_sched::workflow::gen::{
    CYBERSHAKE_MIN_TASKS, EPIGENOMICS_MIN_TASKS, LIGO_MIN_TASKS, MONTAGE_MIN_TASKS, SIPHT_MIN_TASKS,
};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    match run(&args, &mut stdout).and_then(|()| Ok(stdout.flush()?)) {
        Ok(()) | Err(Failure::ClosedStdout) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("wfs: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
            eprintln!("\nalgorithms: {}", names.join(" "));
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  wfs gen <cybershake|ligo|montage|epigenomics|sipht> <tasks> [--seed N] [--sigma R] [--dax]
          [-o FILE]
  wfs stats <workflow.json>
  wfs dot <workflow.json> [-o FILE]
  wfs schedule <workflow.json> --alg <name> --budget <dollars> [--platform FILE] [-o FILE]
  wfs simulate <workflow.json> <schedule.json> [--seed N | --conservative | --mean]
               [--platform FILE] [--budget B] [--gantt] [--svg FILE]
  wfs sweep <workflow.json> --budgets <b1,b2,...> [--algs <a1,a2,...>] [--platform FILE]
  wfs faults <workflow.json> --budget <dollars> [--alg NAME] [--policy failstop|retry|reschedule]
             [--mtbf SECS] [--shape K] [--boot-fail P] [--degrade F:GAP:DUR]
             [--seed N] [--stochastic N] [--max-epochs N] [--platform FILE] [--lint]
             [--trace FILE] [--ledger]
  wfs trace <workflow.json> --budget <dollars> [--alg NAME] [--seed N | --conservative | --mean]
            [--platform FILE] [-o FILE] [--ledger] [--counters]
  wfs deadline <workflow.json> --deadline <secs> [--platform FILE]
  wfs platform [-o FILE]";

/// Why a command stopped before its end.
enum Failure {
    /// A usage or input error: printed with the usage text, status 2.
    Usage(String),
    /// Whoever read stdout closed it: nobody is left to tell, status 0.
    ClosedStdout,
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Usage(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Self {
        Failure::Usage(e.to_string())
    }
}

/// A failed write to stdout.
impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            Failure::ClosedStdout
        } else {
            Failure::Usage(format!("cannot write to stdout: {e}"))
        }
    }
}

type CliResult = Result<(), Failure>;

/// A subcommand, writing its report to the given stdout.
type Command = fn(&[String], &mut dyn Write) -> CliResult;

/// Fetch the value following a `--flag`.
fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Reject an argument a subcommand does not take: after its `positional`
/// arguments, each one must be an option of `valued` followed by its value
/// (any value: its own parser checks it) or one of `switches`.
fn check_options(
    args: &[String],
    positional: usize,
    valued: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let mut rest = args.iter().skip(positional).map(String::as_str);
    while let Some(a) = rest.next() {
        if valued.contains(&a) {
            if rest.next().is_none() {
                return Err(format!("option `{a}` needs a value"));
            }
        } else if !switches.contains(&a) {
            return Err(format!("unknown option `{a}`"));
        }
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

/// Parse a flag value and check it against `ok`; `range` names the
/// accepted values in the error. The fault models' and task weights'
/// constructors assert these ranges, so a bad flag must stop here rather
/// than panic there.
fn parse_checked(s: &str, what: &str, range: &str, ok: impl Fn(f64) -> bool) -> Result<f64, String> {
    let v: f64 = parse(s, what)?;
    if ok(v) {
        Ok(v)
    } else {
        Err(format!("{what} must be {range}, got `{s}`"))
    }
}

fn parse_budget(s: &str) -> Result<f64, String> {
    parse_checked(s, "budget", "a finite non-negative amount", |v| v.is_finite() && v >= 0.0)
}

/// The replay weights of `wfs simulate` and `wfs trace`: `--conservative`
/// (planning), `--mean`, or Gaussian draws from `--seed N` (default 0).
fn parse_weights(args: &[String]) -> Result<SimConfig, String> {
    if has_flag(args, "--conservative") {
        Ok(SimConfig::planning())
    } else if has_flag(args, "--mean") {
        Ok(SimConfig::new(WeightModel::Mean))
    } else {
        let seed: u64 = opt(args, "--seed").map_or(Ok(0), |s| parse(s, "seed"))?;
        Ok(SimConfig::stochastic(seed))
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Write `content` to the file `out`, or to stdout when there is none.
fn emit(stdout: &mut dyn Write, out: Option<&str>, content: &str) -> CliResult {
    match out {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => writeln!(stdout, "{content}")?,
    }
    Ok(())
}

/// Reference speed for DAX runtime <-> work conversion (Gflop/s): the
/// paper platform's cheapest category.
const DAX_REF_SPEED: f64 = 10.0;

/// Load a workflow from `.json` (native) or `.dax`/`.xml` (Pegasus DAX).
fn load_workflow(path: &str) -> Result<Workflow, String> {
    let content = read_file(path)?;
    if path.ends_with(".dax") || path.ends_with(".xml") {
        budget_sched::workflow::dax::from_dax(&content, DAX_REF_SPEED)
            .map_err(|e| format!("bad DAX {path}: {e}"))
    } else {
        Workflow::from_json(&content).map_err(|e| format!("bad workflow {path}: {e}"))
    }
}

/// The `--platform` file, or the paper's platform. A file is checked once
/// here with the simulator's own rate check: the planners divide by the
/// same bandwidth and speeds, bill with the same prices and boot times, and
/// index the first category.
fn load_platform(args: &[String]) -> Result<Platform, String> {
    let Some(path) = opt(args, "--platform") else {
        return Ok(Platform::paper_default());
    };
    let platform: Platform =
        serde_json::from_str(&read_file(path)?).map_err(|e| format!("bad platform {path}: {e}"))?;
    budget_sched::simulator::check_rates(&platform, &SimConfig::planning())
        .map_err(|e| format!("bad platform {path}: {e}"))?;
    Ok(platform)
}

fn run(args: &[String], stdout: &mut dyn Write) -> CliResult {
    let cmd = args.first().ok_or("missing command")?;
    let rest = &args[1..];
    // Each subcommand: its positional arguments, the options that take a
    // value and the switches, as USAGE lists them.
    let (command, positional, valued, switches): (Command, usize, &[&str], &[&str]) =
        match cmd.as_str() {
            "gen" => (cmd_gen, 2, &["--seed", "--sigma", "-o"], &["--dax"]),
            "stats" => (cmd_stats, 1, &[], &[]),
            "dot" => (cmd_dot, 1, &["-o"], &[]),
            "schedule" => (cmd_schedule, 1, &["--alg", "--budget", "--platform", "-o"], &[]),
            "simulate" => (
                cmd_simulate,
                2,
                &["--seed", "--platform", "--budget", "--svg"],
                &["--conservative", "--mean", "--gantt"],
            ),
            "sweep" => (cmd_sweep, 1, &["--budgets", "--algs", "--platform"], &[]),
            "faults" => (
                cmd_faults,
                1,
                &[
                    "--budget", "--alg", "--policy", "--mtbf", "--shape", "--boot-fail",
                    "--degrade", "--seed", "--stochastic", "--max-epochs", "--platform", "--trace",
                ],
                &["--lint", "--ledger"],
            ),
            "trace" => (
                cmd_trace,
                1,
                &["--budget", "--alg", "--seed", "--platform", "-o"],
                &["--conservative", "--mean", "--ledger", "--counters"],
            ),
            "deadline" => (cmd_deadline, 1, &["--deadline", "--platform"], &[]),
            "platform" => (cmd_platform, 0, &["-o"], &[]),
            other => return Err(format!("unknown command `{other}`").into()),
        };
    check_options(rest, positional, valued, switches)?;
    command(rest, stdout)
}

fn cmd_platform(args: &[String], stdout: &mut dyn Write) -> CliResult {
    emit(stdout, opt(args, "-o"), &pretty(&Platform::paper_default())?)
}

fn pretty<T: serde::Serialize>(v: &T) -> Result<String, String> {
    serde_json::to_string_pretty(v).map_err(|e| e.to_string())
}

fn cmd_gen(args: &[String], stdout: &mut dyn Write) -> CliResult {
    let ty = args.first().ok_or("gen: missing workflow type")?;
    let tasks: usize = parse(args.get(1).ok_or("gen: missing task count")?, "task count")?;
    let seed: u64 = opt(args, "--seed").map_or(Ok(1), |s| parse(s, "seed"))?;
    let sigma = opt(args, "--sigma").map_or(Ok(0.5), |s| {
        parse_checked(s, "sigma ratio", "in [0, 100]", |v| (0.0..=100.0).contains(&v))
    })?;
    let (min_tasks, generate): (usize, fn(GenConfig) -> Workflow) = match ty.as_str() {
        "epigenomics" => (EPIGENOMICS_MIN_TASKS, epigenomics),
        "sipht" => (SIPHT_MIN_TASKS, sipht),
        other => match parse::<BenchmarkType>(other, "workflow type")? {
            BenchmarkType::CyberShake => (CYBERSHAKE_MIN_TASKS, cybershake),
            BenchmarkType::Ligo => (LIGO_MIN_TASKS, ligo),
            BenchmarkType::Montage => (MONTAGE_MIN_TASKS, montage),
        },
    };
    if tasks < min_tasks {
        return Err(format!("gen: {ty} needs at least {min_tasks} tasks, got {tasks}").into());
    }
    let wf = generate(GenConfig::new(tasks, seed).with_sigma_ratio(sigma));
    // Emit DAX when the output file asks for it, JSON otherwise.
    let out = opt(args, "-o");
    if has_flag(args, "--dax") || out.is_some_and(|p| p.ends_with(".dax") || p.ends_with(".xml")) {
        emit(stdout, out, &budget_sched::workflow::dax::to_dax(&wf, DAX_REF_SPEED))
    } else {
        emit(stdout, out, &wf.to_json())
    }
}

fn cmd_stats(args: &[String], stdout: &mut dyn Write) -> CliResult {
    let wf = load_workflow(args.first().ok_or("stats: missing workflow file")?)?;
    let s = analysis::stats(&wf);
    writeln!(stdout, "workflow      {}", wf.name)?;
    writeln!(stdout, "tasks         {}", s.tasks)?;
    writeln!(stdout, "edges         {}", s.edges)?;
    writeln!(stdout, "depth/width   {}/{}", s.depth, s.width)?;
    writeln!(stdout, "entries/exits {}/{}", s.entries, s.exits)?;
    writeln!(stdout, "total work    {:.1} Gflop", s.total_work)?;
    writeln!(stdout, "total data    {:.1} MB", s.total_data / 1e6)?;
    writeln!(stdout, "external I/O  {:.1} MB in / {:.1} MB out", wf.external_input_data() / 1e6, wf.external_output_data() / 1e6)?;
    Ok(())
}

fn cmd_dot(args: &[String], stdout: &mut dyn Write) -> CliResult {
    let wf = load_workflow(args.first().ok_or("dot: missing workflow file")?)?;
    emit(stdout, opt(args, "-o"), &budget_sched::workflow::dot::to_dot(&wf))
}

fn cmd_schedule(args: &[String], stdout: &mut dyn Write) -> CliResult {
    let wf = load_workflow(args.first().ok_or("schedule: missing workflow file")?)?;
    let alg: Algorithm = parse(opt(args, "--alg").ok_or("schedule: missing --alg")?, "algorithm")?;
    let budget = parse_budget(opt(args, "--budget").ok_or("schedule: missing --budget")?)?;
    let platform = load_platform(args)?;
    let t0 = std::time::Instant::now();
    let sched = alg.run(&wf, &platform, budget);
    eprintln!(
        "{alg}: {} VMs in {:.1} ms",
        sched.used_vm_count(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    emit(stdout, opt(args, "-o"), &pretty(&sched)?)
}

fn cmd_simulate(args: &[String], stdout: &mut dyn Write) -> CliResult {
    let wf = load_workflow(args.first().ok_or("simulate: missing workflow file")?)?;
    let sched: Schedule =
        serde_json::from_str(&read_file(args.get(1).ok_or("simulate: missing schedule file")?)?)
            .map_err(|e| format!("bad schedule: {e}"))?;
    let platform = load_platform(args)?;
    let cfg = parse_weights(args)?;
    let budget = opt(args, "--budget").map(parse_budget).transpose()?;
    let r = simulate(&wf, &platform, &sched, &cfg).map_err(|e| e.to_string())?;
    writeln!(stdout, "makespan   {:.1} s", r.makespan)?;
    writeln!(stdout, "vm cost    ${:.4}", r.vm_cost)?;
    writeln!(stdout, "dc cost    ${:.4}", r.datacenter_cost)?;
    writeln!(stdout, "total cost ${:.4}", r.total_cost)?;
    writeln!(stdout, "VMs used   {}", r.vms_used)?;
    if let Some(b) = budget {
        writeln!(stdout, "in budget  {}", if r.within_budget(b) { "yes" } else { "NO" })?;
    }
    if has_flag(args, "--gantt") {
        writeln!(stdout, "\n{}", r.gantt(72))?;
    }
    if let Some(path) = opt(args, "--svg") {
        let svg = budget_sched::simulator::svg::to_svg(&r);
        std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `wfs deadline <workflow.json> --deadline <secs> [--platform FILE]`:
/// the smallest budget whose HEFTBUDG schedule meets the deadline.
fn cmd_deadline(args: &[String], stdout: &mut dyn Write) -> CliResult {
    let wf = load_workflow(args.first().ok_or("deadline: missing workflow file")?)?;
    let d = opt(args, "--deadline").ok_or("deadline: missing --deadline")?;
    let d = parse_checked(d, "deadline", "finite and > 0", |v| v.is_finite() && v > 0.0)?;
    let platform = load_platform(args)?;
    match min_budget_for_deadline(&wf, &platform, d) {
        Some((budget, sched)) => {
            let r = simulate(&wf, &platform, &sched, &SimConfig::planning())
                .map_err(|e| e.to_string())?;
            writeln!(stdout, "min budget  ${budget:.4}")?;
            writeln!(stdout, "makespan    {:.1} s (deadline {d:.1} s)", r.makespan)?;
            writeln!(stdout, "VMs         {}", sched.used_vm_count())?;
            Ok(())
        }
        None => Err(format!("deadline {d}s is unreachable at any budget").into()),
    }
}

/// `wfs trace <workflow.json> --budget B [--alg NAME] [...]`: plan and
/// simulate once with a recording sink, export the execution as a
/// Chrome-trace-event JSON (loadable in Perfetto / `chrome://tracing`) and
/// print a text summary; `--ledger` audits the budget ledger against the
/// simulator's bill and `--counters` prints the hot-path counter table.
fn cmd_trace(args: &[String], stdout: &mut dyn Write) -> CliResult {
    let wf_path = args.first().ok_or("trace: missing workflow file")?;
    let wf = load_workflow(wf_path)?;
    let budget = parse_budget(opt(args, "--budget").ok_or("trace: missing --budget")?)?;
    let alg: Algorithm =
        opt(args, "--alg").map_or(Ok(Algorithm::HeftBudg), |s| parse(s, "algorithm"))?;
    let platform = load_platform(args)?;
    let cfg = parse_weights(args)?;

    let mut rec = RecordingSink::new();
    let sched = alg.run_observed(&wf, &platform, budget, &mut rec);
    let report = simulate_observed(&wf, &platform, &sched, &cfg, &mut rec)
        .map_err(|e| e.to_string())?;

    let trace = ChromeTrace::from_events(&rec.events);
    let out_path = match opt(args, "-o") {
        Some(p) => p.to_string(),
        None => default_trace_path(wf_path),
    };
    std::fs::write(&out_path, trace.to_json())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("wrote {out_path}");

    writeln!(stdout, "algorithm  {alg}")?;
    writeln!(stdout, "events     {}", rec.events.len())?;
    writeln!(stdout, "spans      {} ({} instants)", trace.span_count(), trace.instant_count())?;
    writeln!(stdout, "makespan   {:.1} s", report.makespan)?;
    writeln!(stdout, "total cost ${:.4} (budget ${budget:.4})", report.total_cost)?;
    if has_flag(args, "--ledger") {
        let ledger = BudgetLedger::from_events(&rec.events);
        writeln!(stdout)?;
        write!(stdout, "{}", ledger.summary())?;
        writeln!(
            stdout,
            "reconciles  {}",
            if ledger.reconcile(report.total_cost) { "yes (exact)" } else { "NO" }
        )?;
    }
    if has_flag(args, "--counters") {
        let counters = Counters::from_events(&rec.events);
        writeln!(stdout)?;
        write!(stdout, "{}", counters.table())?;
    }
    Ok(())
}

/// Default output path of `wfs trace`: the workflow file with its
/// extension replaced by `.trace.json`.
fn default_trace_path(input: &str) -> String {
    let stem = input
        .strip_suffix(".json")
        .or_else(|| input.strip_suffix(".dax"))
        .or_else(|| input.strip_suffix(".xml"))
        .unwrap_or(input);
    format!("{stem}.trace.json")
}

/// `wfs faults <workflow.json> --budget B [--policy P] [...]`: run the
/// workflow to durable completion under seeded fault injection, recovering
/// per the chosen policy, and print the per-epoch breakdown.
fn cmd_faults(args: &[String], stdout: &mut dyn Write) -> CliResult {
    let wf = load_workflow(args.first().ok_or("faults: missing workflow file")?)?;
    let budget = parse_budget(opt(args, "--budget").ok_or("faults: missing --budget")?)?;
    let alg: Algorithm = opt(args, "--alg").map_or(Ok(Algorithm::HeftBudg), |s| parse(s, "algorithm"))?;
    let policy: RecoveryPolicy =
        opt(args, "--policy").map_or(Ok(RecoveryPolicy::RescheduleBudgetAware), |s| parse(s, "policy"))?;
    let platform = load_platform(args)?;
    let seed: u64 = opt(args, "--seed").map_or(Ok(0), |s| parse(s, "seed"))?;

    let mut faults = FaultConfig::new(seed);
    let positive = |v: f64| v.is_finite() && v > 0.0;
    if let Some(m) = opt(args, "--mtbf") {
        let mtbf = parse_checked(m, "mtbf", "> 0", |v| v > 0.0)?;
        let crash = match opt(args, "--shape") {
            Some(k) => CrashModel::weibull(mtbf, parse_checked(k, "shape", "finite and > 0", positive)?),
            None => CrashModel::exponential(mtbf),
        };
        faults = faults.with_crash(crash);
    } else if opt(args, "--shape").is_some() {
        return Err("--shape needs --mtbf".into());
    }
    if let Some(p) = opt(args, "--boot-fail") {
        let prob = parse_checked(p, "boot-fail probability", "in [0, 1)", |v| (0.0..1.0).contains(&v))?;
        faults = faults.with_boot(BootFaultModel::new(prob, 3));
    }
    if let Some(spec) = opt(args, "--degrade") {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("--degrade wants FACTOR:GAP:DURATION, got `{spec}`").into());
        }
        faults = faults.with_degradation(DegradationModel::new(
            parse_checked(parts[0], "degrade factor", "in (0, 1]", |v| v > 0.0 && v <= 1.0)?,
            parse_checked(parts[1], "degrade gap", "finite and > 0", positive)?,
            parse_checked(parts[2], "degrade duration", "finite and > 0", positive)?,
        ));
    }

    let mut cfg = RecoveryConfig::new(alg, policy, budget, faults);
    if let Some(s) = opt(args, "--stochastic") {
        cfg = cfg.with_weights(WeightModel::Stochastic { seed: parse(s, "stochastic seed")? });
    }
    if let Some(n) = opt(args, "--max-epochs") {
        let n: usize = parse(n, "max epochs")?;
        if n == 0 {
            return Err("max epochs must be at least 1".into());
        }
        cfg = cfg.with_max_epochs(n);
    }
    if has_flag(args, "--lint") {
        cfg = cfg.with_lint();
    }

    let mut rec = RecordingSink::new();
    let out =
        run_with_recovery_observed(&wf, &platform, &cfg, &mut rec).map_err(|e| e.to_string())?;
    writeln!(stdout, "{:<6} {:>6} {:>8} {:>10} {:>10} {:>8} {:>6} {:>6}",
        "epoch", "tasks", "durable", "cost $", "budget $", "span s", "crash", "retry")?;
    for e in &out.epochs {
        writeln!(
            stdout,
            "{:<6} {:>6} {:>8} {:>10.4} {:>10.4} {:>8.0} {:>6} {:>6}",
            e.epoch, e.scheduled, e.newly_durable, e.cost, e.budget_before, e.makespan,
            e.stats.crashes, e.stats.boot_retries
        )?;
    }
    writeln!(stdout)?;
    writeln!(stdout, "outcome     {}", if out.completed { "COMPLETED" } else { "INCOMPLETE" })?;
    writeln!(stdout, "policy      {policy} ({alg})")?;
    writeln!(stdout, "total cost  ${:.4} / ${:.4}{}", out.total_cost, out.budget,
        if out.within_budget() { "" } else { "  OVER BUDGET" })?;
    writeln!(stdout, "wall clock  {:.0} s over {} epoch(s), {} re-plan(s)",
        out.wall_clock, out.epochs.len(), out.replans)?;
    writeln!(stdout, "faults      {} crash(es), {} task(s) lost, {} boot retry(ies), {} degradation window(s)",
        out.stats.crashes, out.stats.tasks_lost, out.stats.boot_retries, out.stats.degradation_windows)?;
    writeln!(stdout, "waste       {:.0} s compute lost, {:.0} s billed-but-wasted",
        out.stats.wasted_compute_seconds, out.stats.wasted_billed_seconds)?;
    if out.degraded_to_cheapest {
        writeln!(stdout, "degraded    fell back to cheapest-category VM (budget exhausted)")?;
    }
    if let Some(tp) = opt(args, "--trace") {
        let trace = ChromeTrace::from_events(&rec.events);
        std::fs::write(tp, trace.to_json()).map_err(|e| format!("cannot write {tp}: {e}"))?;
        eprintln!("wrote {tp}");
    }
    if has_flag(args, "--ledger") {
        let ledger = BudgetLedger::from_events(&rec.events);
        writeln!(stdout)?;
        write!(stdout, "{}", ledger.summary())?;
        writeln!(
            stdout,
            "reconciles  {}",
            if ledger.reconcile(out.total_cost) { "yes (exact)" } else { "NO" }
        )?;
    }
    if !out.lint_violations.is_empty() {
        eprintln!("\nlint violations:");
        for v in &out.lint_violations {
            eprintln!("  {v}");
        }
        return Err(format!("{} lint violation(s)", out.lint_violations.len()).into());
    }
    Ok(())
}

fn cmd_sweep(args: &[String], stdout: &mut dyn Write) -> CliResult {
    let wf = load_workflow(args.first().ok_or("sweep: missing workflow file")?)?;
    let platform = load_platform(args)?;
    let budgets: Vec<f64> = opt(args, "--budgets")
        .ok_or("sweep: missing --budgets")?
        .split(',')
        .map(|s| parse_budget(s.trim()))
        .collect::<Result<_, _>>()?;
    let algs: Vec<Algorithm> = match opt(args, "--algs") {
        Some(list) => list
            .split(',')
            .map(|s| parse(s.trim(), "algorithm"))
            .collect::<Result<_, _>>()?,
        None => vec![Algorithm::MinMinBudg, Algorithm::HeftBudg],
    };
    writeln!(stdout, "{:<14} {:>10} {:>10} {:>10} {:>5}", "algorithm", "budget $", "makespan", "cost $", "VMs")?;
    for &b in &budgets {
        for &alg in &algs {
            let sched = alg.run(&wf, &platform, b);
            let r = simulate(&wf, &platform, &sched, &SimConfig::planning())
                .map_err(|e| e.to_string())?;
            writeln!(
                stdout,
                "{:<14} {:>10.3} {:>9.0}s {:>10.4} {:>5}",
                alg.name(),
                b,
                r.makespan,
                r.total_cost,
                r.vms_used
            )?;
        }
    }
    Ok(())
}
