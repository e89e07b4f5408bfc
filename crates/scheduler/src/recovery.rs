//! Budget-aware recovery from injected faults (DESIGN.md §9).
//!
//! The simulator's fault layer can leave a run *partial*: crashed VMs lose
//! their in-flight work, abandoned boots strand whole chains, and only
//! tasks whose outputs reached the datacenter are durable. This module
//! closes the loop — plan → inject → recover — until the workflow is
//! durably complete or the budget is exhausted:
//!
//! - [`RecoveryPolicy::FailStop`] aborts after the first faulted run and
//!   reports the partial cost (the paper's implicit baseline: a perfect
//!   cloud, or you eat the loss).
//! - [`RecoveryPolicy::RetrySameCategory`] re-runs the residual DAG on
//!   fresh VMs of the same categories the tasks were assigned to, keeping
//!   the per-VM orders (provisioning is repeated, planning is not).
//! - [`RecoveryPolicy::RescheduleBudgetAware`] re-runs the HEFTBUDG budget
//!   split (Alg. 1–2/4) over the residual DAG with the *remaining* budget
//!   and the leftover [`Pot`] carried across epochs, so recovery keeps
//!   respecting Eq. 3 instead of blowing through it; when what is left
//!   cannot even pay the cheapest-category floor it degrades gracefully to
//!   a single cheapest VM.
//!
//! Durable results are never recomputed: edges from durable producers are
//! re-staged from the datacenter as external inputs of the residual tasks
//! (the durability rule guarantees those bytes are there).

use crate::algorithms::{min_cost_schedule, Algorithm};
use crate::budget::{datacenter_reservation, Pot};
use crate::heft::heft_budg_carry;
use wfs_observe::{Event as Obs, EventSink};
use wfs_platform::{CategoryId, Platform};
use wfs_simulator::{
    plan_lint_faulted, simulate_with_faults, stream_seed, FaultConfig, FaultStats,
    Schedule, SimConfig, SimError, VmId, WeightModel,
};
use wfs_workflow::{TaskId, Workflow, WorkflowBuilder};

/// Seed-stream tag separating per-epoch fault streams from the per-VM
/// streams inside one epoch.
const EPOCH_STREAM: u64 = 0xE70C;

/// How to react when a faulted run leaves the workflow incomplete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Abort after the first run; report the partial cost.
    FailStop,
    /// Re-run the residual DAG on fresh VMs of the same categories,
    /// keeping the previous per-VM orders.
    RetrySameCategory,
    /// Re-plan the residual DAG with HEFTBUDG over the remaining budget,
    /// carrying the pot; degrade to the cheapest category when the pot
    /// runs dry.
    RescheduleBudgetAware,
}

impl RecoveryPolicy {
    /// All policies, in reporting order.
    pub const ALL: [RecoveryPolicy; 3] = [
        RecoveryPolicy::FailStop,
        RecoveryPolicy::RetrySameCategory,
        RecoveryPolicy::RescheduleBudgetAware,
    ];

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::FailStop => "FAILSTOP",
            RecoveryPolicy::RetrySameCategory => "RETRY",
            RecoveryPolicy::RescheduleBudgetAware => "RESCHEDULE",
        }
    }
}

impl std::fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for RecoveryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "failstop" => Ok(RecoveryPolicy::FailStop),
            "retry" | "retrysamecategory" => Ok(RecoveryPolicy::RetrySameCategory),
            "reschedule" | "reschedulebudgetaware" => Ok(RecoveryPolicy::RescheduleBudgetAware),
            _ => Err(format!("unknown recovery policy '{s}' (failstop|retry|reschedule)")),
        }
    }
}

/// Configuration of a recovering execution.
///
/// [`RecoveryConfig::new`] and its `with_*` builders are the only ways to
/// set the parameters, so the epoch cap is at least 1. A literal such as
/// this zero cap does not compile:
///
/// ```compile_fail,E0451
/// use wfs_scheduler::{Algorithm, RecoveryConfig, RecoveryPolicy};
/// use wfs_simulator::FaultConfig;
///
/// let policy = RecoveryPolicy::FailStop;
/// let cfg = RecoveryConfig {
///     max_epochs: 0,
///     ..RecoveryConfig::new(Algorithm::HeftBudg, policy, 2.0, FaultConfig::none())
/// };
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Algorithm planning the *initial* schedule (epoch 0).
    pub(crate) algorithm: Algorithm,
    /// Reaction to incomplete runs.
    pub(crate) policy: RecoveryPolicy,
    /// Initial budget `B_ini` (Eq. 3) covering the whole recovering
    /// execution, not just the first attempt.
    pub(crate) budget: f64,
    /// Fault families to inject; the seed is re-derived per epoch so
    /// re-runs face fresh (but reproducible) faults.
    pub(crate) faults: FaultConfig,
    /// Weight realization; stochastic models are reseeded per epoch.
    pub(crate) weights: WeightModel,
    /// Hard cap on plan → inject → recover epochs.
    pub(crate) max_epochs: usize,
    /// Lint every epoch with [`plan_lint_faulted`] and collect violations
    /// into the outcome (used by tests and `wfs faults --lint`).
    pub(crate) lint: bool,
}

impl RecoveryConfig {
    /// A recovering execution with conservative weights, 16 epochs max,
    /// linting off.
    ///
    /// # Panics
    /// If `budget` is not a finite non-negative amount.
    pub fn new(algorithm: Algorithm, policy: RecoveryPolicy, budget: f64, faults: FaultConfig) -> Self {
        assert!(
            budget.is_finite() && budget >= 0.0,
            "recovery budget must be finite and non-negative, got {budget}"
        );
        Self {
            algorithm,
            policy,
            budget,
            faults,
            weights: WeightModel::Conservative,
            max_epochs: 16,
            lint: false,
        }
    }

    /// Set the weight realization model.
    pub fn with_weights(mut self, weights: WeightModel) -> Self {
        self.weights = weights;
        self
    }

    /// Set the epoch cap.
    pub fn with_max_epochs(mut self, max_epochs: usize) -> Self {
        assert!(max_epochs >= 1, "at least one epoch is needed");
        self.max_epochs = max_epochs;
        self
    }

    /// Enable per-epoch linting.
    pub fn with_lint(mut self) -> Self {
        self.lint = true;
        self
    }
}

/// One plan → inject epoch of a recovering execution.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0 = the initial attempt).
    pub epoch: usize,
    /// Tasks scheduled this epoch (the residual DAG's size).
    pub scheduled: usize,
    /// Tasks that became durably complete this epoch.
    pub newly_durable: usize,
    /// Money spent this epoch (Eq. 1 + Eq. 2 of the partial run).
    pub cost: f64,
    /// Wall-clock span of this epoch's run.
    pub makespan: f64,
    /// Budget remaining *before* this epoch.
    pub budget_before: f64,
    /// Fault counters of this epoch.
    pub stats: FaultStats,
}

/// Outcome of a recovering execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Every task durably complete.
    pub completed: bool,
    /// Total money spent across all epochs.
    pub total_cost: f64,
    /// Total wall-clock time (epochs run back to back).
    pub wall_clock: f64,
    /// The initial budget `B_ini`.
    pub budget: f64,
    /// Re-planning rounds after the initial attempt.
    pub replans: usize,
    /// Whether the reschedule policy ever fell back to a single
    /// cheapest-category VM because the remaining budget ran dry.
    pub degraded_to_cheapest: bool,
    /// Aggregated fault counters.
    pub stats: FaultStats,
    /// Per-epoch lint findings (empty unless [`RecoveryConfig::with_lint`]
    /// was set).
    pub lint_violations: Vec<String>,
    /// Per-epoch breakdown.
    pub epochs: Vec<EpochRecord>,
}

impl RecoveryOutcome {
    /// Eq. 3 budget clause over the whole recovering execution.
    pub fn within_budget(&self) -> bool {
        self.total_cost <= self.budget
    }
}

fn as_u64(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// The epoch's fault configuration: epoch 0 uses the caller's config
/// verbatim; later epochs re-derive the master seed so re-runs face fresh
/// faults while staying deterministic.
fn epoch_faults(base: FaultConfig, epoch: usize) -> FaultConfig {
    if epoch == 0 {
        base
    } else {
        base.with_seed(stream_seed(base.seed, EPOCH_STREAM.wrapping_add(as_u64(epoch))))
    }
}

/// Stochastic weight models are reseeded per epoch (a re-run of a task is
/// a fresh sample, not a replay); deterministic models pass through.
fn epoch_weights(base: WeightModel, epoch: usize) -> WeightModel {
    if epoch == 0 {
        return base;
    }
    match base {
        WeightModel::Stochastic { seed } => {
            WeightModel::Stochastic { seed: stream_seed(seed, EPOCH_STREAM.wrapping_add(as_u64(epoch))) }
        }
        WeightModel::HeavyTail { seed } => {
            WeightModel::HeavyTail { seed: stream_seed(seed, EPOCH_STREAM.wrapping_add(as_u64(epoch))) }
        }
        other => other,
    }
}

/// Cheapest plausible cost of finishing `wf`: serial execution on one
/// cheapest-category VM plus the datacenter reservation. Below this the
/// reschedule policy stops pretending HEFTBUDG can stay within budget and
/// degrades to [`min_cost_schedule`].
fn cheapest_floor(wf: &Workflow, platform: &Platform) -> f64 {
    let cat = platform.category(platform.cheapest());
    let duration = wf.total_conservative_work() / cat.speed;
    datacenter_reservation(wf, platform) + platform.vm_cost(platform.cheapest(), duration)
}

/// The residual workflow over the non-durable tasks, plus the map from
/// residual task id (dense, in original id order) to original task id.
/// Edges from durable producers become external input of the consumer:
/// the durability rule guarantees those bytes are at the datacenter, and
/// re-staging them through the DC is exactly what a restarted consumer
/// must pay.
fn residual_workflow(wf: &Workflow, durable: &[bool]) -> (Workflow, Vec<TaskId>) {
    let mut b = WorkflowBuilder::new(format!("{}-residual", wf.name));
    let live = |t: TaskId| !durable[t.index()];
    let tasks = wf.task_ids().filter(|&t| live(t)).count();
    let mut new_id: Vec<Option<TaskId>> = vec![None; wf.task_count()];
    let mut map: Vec<TaskId> = Vec::with_capacity(tasks);
    for t in wf.task_ids().filter(|&t| live(t)) {
        let task = wf.task(t);
        let id = b.add_task(task.name.clone(), task.weight);
        let mut ext_in = task.external_input;
        for &e in wf.in_edges(t) {
            if !live(wf.edge(e).from) {
                ext_in += wf.edge(e).size;
            }
        }
        if ext_in > 0.0 {
            b.set_external_input(id, ext_in);
        }
        if task.external_output > 0.0 {
            b.set_external_output(id, task.external_output);
        }
        new_id[t.index()] = Some(id);
        map.push(t);
    }
    for e in wf.edges() {
        if let (Some(from), Some(to)) = (new_id[e.from.index()], new_id[e.to.index()]) {
            b.connect(from, to, e.size);
        }
    }
    (b.build_valid(), map)
}

/// Previous slot of each original task: (VM index, position in that VM's
/// order, category) — what the retry policy reprovisions.
type PrevSlot = (u32, u32, CategoryId);

/// Re-provision the residual DAG on fresh VMs of the same categories,
/// preserving the previous per-VM orders (restricted to residual tasks —
/// a subsequence of a feasible order stays feasible on the sub-DAG).
fn retry_schedule(sub: &Workflow, map: &[TaskId], prev: &[PrevSlot]) -> Schedule {
    let mut s = Schedule::new(sub.task_count());
    let mut by_slot: Vec<usize> = (0..map.len()).collect();
    by_slot.sort_by_key(|&ri| {
        let (vm, pos, _) = prev[map[ri].index()];
        (vm, pos)
    });
    let mut cur: Option<(u32, VmId)> = None;
    for ri in by_slot {
        let (pvm, _, cat) = prev[map[ri].index()];
        let vm = match cur {
            Some((p, vm)) if p == pvm => vm,
            _ => {
                let vm = s.add_vm(cat);
                cur = Some((pvm, vm));
                vm
            }
        };
        s.assign(TaskId(u32::try_from(ri).unwrap_or(u32::MAX)), vm);
    }
    s
}

/// Should this epoch's lint enforce the Eq. 3 budget clause? Only the
/// budget-aware reschedule path promises it; retry/failstop (and the
/// degraded cheapest fallback) are best-effort by design.
fn budget_clause(cfg: &RecoveryConfig, epoch: usize, remaining: f64, degraded: bool) -> Option<f64> {
    if degraded || !matches!(cfg.policy, RecoveryPolicy::RescheduleBudgetAware) {
        return None;
    }
    if epoch == 0 && !cfg.algorithm.is_budget_aware() {
        return None;
    }
    Some(remaining)
}

/// Run `wf` to durable completion under fault injection, recovering per
/// `cfg.policy`. Loops plan → inject → recover until every task is
/// durably complete, the budget is exhausted, or `max_epochs` is hit.
///
/// Each epoch is announced to `sink` with
/// [`Event::EpochStarted`](wfs_observe::Event::EpochStarted) (carrying the
/// wall-clock offset of the epoch's run), planning decisions and simulator
/// execution stream through, and an
/// [`Event::RecoveryEpoch`](wfs_observe::Event::RecoveryEpoch) summary
/// closes each epoch. Pass [`NoopSink`](wfs_observe::NoopSink) when nothing
/// listens.
pub fn run_with_recovery_observed<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    cfg: &RecoveryConfig,
    sink: &mut S,
) -> Result<RecoveryOutcome, SimError> {
    let n = wf.task_count();
    let mut durable_all = vec![false; n];
    let mut prev_slot: Vec<PrevSlot> = vec![(0, 0, platform.cheapest()); n];
    let mut pot = Pot::new();
    let mut spent = 0.0f64;
    let mut wall_clock = 0.0f64;
    let mut stats = FaultStats::default();
    let mut epochs: Vec<EpochRecord> = Vec::new();
    let mut lint_violations: Vec<String> = Vec::new();
    let mut degraded_to_cheapest = false;
    let mut completed = false;

    for epoch in 0..cfg.max_epochs {
        let remaining = (cfg.budget - spent).max(0.0);
        if epoch > 0 && remaining <= 0.0 {
            // Budget exhausted: stop recovering, report what we have.
            break;
        }
        let (sub, map) = if epoch == 0 {
            (None, wf.task_ids().collect::<Vec<_>>())
        } else {
            let (s, m) = residual_workflow(wf, &durable_all);
            (Some(s), m)
        };
        let sub_ref: &Workflow = sub.as_ref().unwrap_or(wf);

        if S::ENABLED {
            sink.record(&Obs::EpochStarted {
                epoch: u32::try_from(epoch).unwrap_or(u32::MAX),
                t_offset: wall_clock,
            });
        }
        let mut degraded_this = false;
        let schedule = if epoch == 0 {
            cfg.algorithm.run_observed(sub_ref, platform, cfg.budget, sink)
        } else {
            match cfg.policy {
                // FailStop never reaches a second epoch (breaks below).
                RecoveryPolicy::FailStop => break,
                RecoveryPolicy::RetrySameCategory => retry_schedule(sub_ref, &map, &prev_slot),
                RecoveryPolicy::RescheduleBudgetAware => {
                    if remaining + pot.available() < cheapest_floor(sub_ref, platform) {
                        degraded_this = true;
                        degraded_to_cheapest = true;
                        min_cost_schedule(sub_ref, platform)
                    } else {
                        let (s, carried) =
                            heft_budg_carry(sub_ref, platform, remaining, pot, sink);
                        pot = carried;
                        s
                    }
                }
            }
        };
        // Remember each task's slot for the retry policy.
        for vm in schedule.vm_ids() {
            let cat = schedule.vm_category(vm);
            for (pos, &rt) in schedule.order(vm).iter().enumerate() {
                prev_slot[map[rt.index()].index()] =
                    (vm.0, u32::try_from(pos).unwrap_or(u32::MAX), cat);
            }
        }

        let faults = epoch_faults(cfg.faults, epoch);
        let sim_cfg = SimConfig::new(epoch_weights(cfg.weights, epoch));
        let run = simulate_with_faults(sub_ref, platform, &schedule, &sim_cfg, &faults, sink)?;

        if cfg.lint {
            let clause = budget_clause(cfg, epoch, if epoch == 0 { cfg.budget } else { remaining }, degraded_this);
            for v in plan_lint_faulted(sub_ref, platform, &schedule, &run, clause) {
                lint_violations.push(format!("epoch {epoch}: {v}"));
            }
        }

        spent += run.report.total_cost;
        wall_clock += run.report.makespan;
        stats.merge(&run.stats);
        let mut newly_durable = 0usize;
        for (ri, &orig) in map.iter().enumerate() {
            if run.durable[ri] && !durable_all[orig.index()] {
                durable_all[orig.index()] = true;
                newly_durable += 1;
            }
        }
        if S::ENABLED {
            sink.record(&Obs::RecoveryEpoch {
                epoch: u32::try_from(epoch).unwrap_or(u32::MAX),
                scheduled: u32::try_from(map.len()).unwrap_or(u32::MAX),
                newly_durable: u32::try_from(newly_durable).unwrap_or(u32::MAX),
                cost: run.report.total_cost,
                budget_before: remaining,
                makespan: run.report.makespan,
            });
        }
        epochs.push(EpochRecord {
            epoch,
            scheduled: map.len(),
            newly_durable,
            cost: run.report.total_cost,
            makespan: run.report.makespan,
            budget_before: remaining,
            stats: run.stats,
        });
        if durable_all.iter().all(|&d| d) {
            completed = true;
            break;
        }
        if matches!(cfg.policy, RecoveryPolicy::FailStop) {
            break;
        }
    }

    Ok(RecoveryOutcome {
        completed,
        total_cost: spent,
        wall_clock,
        budget: cfg.budget,
        replans: epochs.len().saturating_sub(1),
        degraded_to_cheapest,
        stats,
        lint_violations,
        epochs,
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_observe::NoopSink;
    use wfs_simulator::{BootFaultModel, CrashModel, DegradationModel};
    use wfs_workflow::gen::{fork_join, montage, GenConfig};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    fn stormy(seed: u64) -> FaultConfig {
        FaultConfig::new(seed)
            .with_crash(CrashModel::exponential(900.0))
            .with_boot(BootFaultModel::new(0.15, 3).with_backoff(1.5))
            .with_degradation(DegradationModel::new(0.25, 700.0, 90.0))
    }

    #[test]
    fn new_rejects_budgets_that_are_not_finite_and_non_negative() {
        let make = |budget| {
            let policy = RecoveryPolicy::FailStop;
            RecoveryConfig::new(Algorithm::HeftBudg, policy, budget, FaultConfig::none())
        };
        for budget in [-1.0, f64::NAN, f64::INFINITY] {
            let made = std::panic::catch_unwind(|| make(budget));
            assert!(made.is_err(), "budget {budget} was accepted");
        }
        assert_eq!(make(0.0).budget, 0.0);
    }

    #[test]
    fn no_faults_completes_in_one_epoch() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let cfg = RecoveryConfig::new(
            Algorithm::HeftBudg,
            RecoveryPolicy::RescheduleBudgetAware,
            2.0,
            FaultConfig::none(),
        )
        .with_lint();
        let out = run_with_recovery_observed(&wf, &p, &cfg, &mut NoopSink).unwrap();
        assert!(out.completed);
        assert_eq!(out.epochs.len(), 1);
        assert_eq!(out.replans, 0);
        assert_eq!(out.stats, FaultStats::default());
        assert!(out.lint_violations.is_empty(), "{:?}", out.lint_violations);
        assert!(out.within_budget(), "cost {} budget {}", out.total_cost, out.budget);
    }

    #[test]
    fn failstop_never_replans() {
        let wf = montage(GenConfig::new(40, 2));
        let p = paper();
        let cfg =
            RecoveryConfig::new(Algorithm::HeftBudg, RecoveryPolicy::FailStop, 2.0, stormy(11));
        let out = run_with_recovery_observed(&wf, &p, &cfg, &mut NoopSink).unwrap();
        assert_eq!(out.epochs.len(), 1);
        assert_eq!(out.replans, 0);
        assert!(out.total_cost > 0.0);
        // A partial fail-stop run still reports its partial cost.
        if !out.completed {
            assert!(out.epochs[0].newly_durable < wf.task_count());
        }
    }

    #[test]
    fn recovery_is_deterministic() {
        let wf = montage(GenConfig::new(40, 3));
        let p = paper();
        for policy in [RecoveryPolicy::RetrySameCategory, RecoveryPolicy::RescheduleBudgetAware] {
            let cfg = RecoveryConfig::new(Algorithm::HeftBudg, policy, 3.0, stormy(7))
                .with_weights(WeightModel::Stochastic { seed: 5 });
            let a = run_with_recovery_observed(&wf, &p, &cfg, &mut NoopSink).unwrap();
            let b = run_with_recovery_observed(&wf, &p, &cfg, &mut NoopSink).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn reschedule_completes_within_generous_budget_lint_clean() {
        let wf = montage(GenConfig::new(40, 4));
        let p = paper();
        for seed in [1, 2, 3] {
            let cfg = RecoveryConfig::new(
                Algorithm::HeftBudg,
                RecoveryPolicy::RescheduleBudgetAware,
                6.0,
                stormy(seed),
            )
            .with_max_epochs(40)
            .with_lint();
            let out = run_with_recovery_observed(&wf, &p, &cfg, &mut NoopSink).unwrap();
            assert!(out.completed, "seed {seed}: incomplete after {} epochs", out.epochs.len());
            assert!(out.within_budget(), "seed {seed}: cost {} > 6.0", out.total_cost);
            assert!(out.lint_violations.is_empty(), "seed {seed}: {:?}", out.lint_violations);
        }
    }

    #[test]
    fn retry_eventually_completes_under_moderate_faults() {
        let wf = fork_join(8, 400.0, 1e6);
        let p = paper();
        let cfg = RecoveryConfig::new(
            Algorithm::Heft,
            RecoveryPolicy::RetrySameCategory,
            50.0,
            FaultConfig::new(3).with_crash(CrashModel::exponential(1200.0)),
        )
        .with_max_epochs(60);
        let out = run_with_recovery_observed(&wf, &p, &cfg, &mut NoopSink).unwrap();
        assert!(out.completed, "incomplete after {} epochs", out.epochs.len());
        // Epochs shrink: each retry schedules only the residual DAG.
        for w in out.epochs.windows(2) {
            assert!(w[1].scheduled <= w[0].scheduled, "{:?}", out.epochs);
        }
    }

    #[test]
    fn residual_workflow_restages_durable_inputs() {
        let wf = fork_join(3, 100.0, 1e6);
        // fork_join(3): source -> 3 workers -> sink. Mark the source and
        // the first worker durable.
        let mut durable = vec![false; wf.task_count()];
        durable[0] = true;
        durable[1] = true;
        let (sub, map) = residual_workflow(&wf, &durable);
        assert_eq!(sub.task_count(), wf.task_count() - 2);
        assert_eq!(map.len(), sub.task_count());
        assert!(map.iter().all(|t| !durable[t.index()]));
        // Residual workers lost their edge from the durable source: it
        // must reappear as external input.
        let first_resid = map[0];
        let edge_in: f64 = wf.in_edges(first_resid).iter().map(|&e| wf.edge(e).size).sum();
        assert!(edge_in > 0.0);
        assert!(sub.task(TaskId(0)).external_input >= edge_in);
        // Precedence structure survives on the residual tasks.
        assert!(sub.edge_count() > 0);
    }

    #[test]
    fn exhausted_budget_stops_recovery() {
        let wf = montage(GenConfig::new(40, 5));
        let p = paper();
        // Harsh faults + a budget barely above one epoch's spend: the
        // loop must stop early rather than spin to max_epochs.
        let faults = FaultConfig::new(1).with_crash(CrashModel::exponential(150.0));
        let cfg = RecoveryConfig::new(
            Algorithm::HeftBudg,
            RecoveryPolicy::RetrySameCategory,
            0.05,
            faults,
        )
        .with_max_epochs(50);
        let out = run_with_recovery_observed(&wf, &p, &cfg, &mut NoopSink).unwrap();
        assert!(out.epochs.len() < 50, "ran all {} epochs", out.epochs.len());
        if !out.completed {
            assert!(out.total_cost >= out.budget, "stopped but budget not exhausted");
        }
    }

    #[test]
    fn policy_parse_roundtrip() {
        for p in RecoveryPolicy::ALL {
            let parsed: RecoveryPolicy = p.name().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert_eq!("reschedule".parse::<RecoveryPolicy>().unwrap(), RecoveryPolicy::RescheduleBudgetAware);
        assert_eq!("fail-stop".parse::<RecoveryPolicy>().unwrap(), RecoveryPolicy::FailStop);
        assert!("nope".parse::<RecoveryPolicy>().is_err());
    }
}
