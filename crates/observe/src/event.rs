//! The structured event vocabulary shared by scheduler and simulator.
//!
//! [`Event`] is a flat `Copy` enum over primitives only (`u32`/`u64`/`i64`/
//! `f64`/`&'static str`): the observe crate sits *below* the scheduler and
//! simulator in the dependency graph, so it cannot name their id newtypes.
//! Producers widen `TaskId(u32)`/`VmId(u32)`/`CategoryId(u32)` to bare `u32`
//! at the emission site; `edge` uses `i64` with `-1` meaning "external input"
//! (staged at the datacenter before the run, no `wfs_workflow` edge id).
//!
//! Simulation timestamps `t` are seconds on the engine clock of the current
//! epoch; [`Event::EpochStarted`] carries the cumulative wall-clock offset so
//! multi-epoch recovery runs can be laid out on one global timeline.

/// One observation from the planner or the simulator.
///
/// Scheduler-side events describe *decisions* (Eq. 5–6 budget shares, the
/// leftover pot, EFT-vs-cost host filtering, refinement swaps, recovery
/// epochs); simulator-side events describe *execution* (boots, task and
/// transfer spans, fault injections, the Eq. 1–2 bill).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    // ---- scheduler: planning decisions -------------------------------
    /// A planning pass began.
    PlanStarted {
        /// Paper-style algorithm name (e.g. `"HEFTBUDG"`).
        algorithm: &'static str,
        /// Number of tasks in the (residual) workflow.
        tasks: u32,
        /// Budget handed to the planner; `f64::INFINITY` when unconstrained.
        budget: f64,
    },
    /// The Eq. 5 budget division: what was carved off the initial budget.
    BudgetReserved {
        /// The full initial budget `b`.
        initial: f64,
        /// Reserved for datacenter transfers (Eq. 2 provision).
        reserved_datacenter: f64,
        /// Reserved for VM boot intervals.
        reserved_init: f64,
        /// What remains for compute shares (`b_calc`).
        b_calc: f64,
    },
    /// Position of a task in the priority list (HEFT ranking order).
    TaskRanked {
        /// 0-based position in the scheduling order.
        pos: u32,
        /// The task.
        task: u32,
    },
    /// The Eq. 6 per-task budget share.
    TaskShare {
        /// The task.
        task: u32,
        /// Its proportional share of `b_calc`.
        share: f64,
    },
    /// One host candidate was evaluated during selection.
    CandidateEvaluated {
        /// The task being placed.
        task: u32,
        /// `true` = an already-provisioned VM, `false` = a fresh instance.
        used: bool,
        /// VM id when `used`, category id otherwise.
        host: u32,
        /// Earliest finish time on this host.
        eft: f64,
        /// Marginal cost of the placement.
        cost: f64,
        /// Whether the cost fits `share + pot` (rejected candidates carry
        /// `false`).
        affordable: bool,
    },
    /// A task was committed to a host.
    TaskPlaced {
        /// The task.
        task: u32,
        /// The (possibly freshly provisioned) VM.
        vm: u32,
        /// `true` when the commit provisioned a new instance.
        new_vm: bool,
        /// Earliest finish time of the winning candidate.
        eft: f64,
        /// Marginal cost actually spent.
        cost: f64,
        /// The affordability limit used (`share + pot`, or infinity).
        limit: f64,
        /// Leftover pot before settling this task.
        pot_before: f64,
        /// Leftover pot after settling (`max(0, pot + share − cost)`).
        pot_after: f64,
    },
    /// HEFTBUDG+ refinement accepted a reassignment.
    RefineMove {
        /// The task that moved.
        task: u32,
        /// Simulated makespan before the move.
        makespan_before: f64,
        /// Simulated makespan after the move.
        makespan_after: f64,
    },
    /// A recovery epoch is about to simulate.
    EpochStarted {
        /// Epoch number (0 = the initial plan).
        epoch: u32,
        /// Cumulative wall-clock seconds elapsed before this epoch; add to
        /// simulator timestamps to place them on the global timeline.
        t_offset: f64,
    },
    /// A recovery epoch finished simulating.
    RecoveryEpoch {
        /// Epoch number.
        epoch: u32,
        /// Tasks in this epoch's (residual) plan.
        scheduled: u32,
        /// Tasks that became durably complete this epoch.
        newly_durable: u32,
        /// This epoch's bill (`total_cost`).
        cost: f64,
        /// Remaining budget before the epoch was planned.
        budget_before: f64,
        /// This epoch's makespan.
        makespan: f64,
    },

    // ---- cross-cutting: counters --------------------------------------
    /// A named monotone counter moved by `delta`.
    Counter {
        /// Counter name (static so the event stays `Copy`).
        name: &'static str,
        /// Increment.
        delta: u64,
    },

    // ---- simulator: execution ----------------------------------------
    /// A VM was booked (boot begins; `H_start,v`).
    VmBooked {
        /// The VM.
        vm: u32,
        /// Its category.
        category: u32,
        /// Engine time.
        t: f64,
    },
    /// A VM finished booting and became operational (charging starts).
    VmReady {
        /// The VM.
        vm: u32,
        /// Engine time.
        t: f64,
    },
    /// A VM exhausted its boot retries and was abandoned (fault layer).
    BootAbandoned {
        /// The VM.
        vm: u32,
        /// Engine time.
        t: f64,
    },
    /// A task's computation started.
    TaskStarted {
        /// The task.
        task: u32,
        /// Host VM.
        vm: u32,
        /// Engine time.
        t: f64,
    },
    /// A task's computation finished.
    TaskFinished {
        /// The task.
        task: u32,
        /// Host VM.
        vm: u32,
        /// Engine time.
        t: f64,
    },
    /// A task's in-flight computation was lost to a crash.
    TaskAborted {
        /// The task.
        task: u32,
        /// Host VM.
        vm: u32,
        /// Engine time.
        t: f64,
    },
    /// A datacenter transfer started on a VM link.
    TransferStarted {
        /// The VM endpoint.
        vm: u32,
        /// `true` = upload to the datacenter, `false` = download.
        up: bool,
        /// Workflow edge id, or `-1` for an externally staged input.
        edge: i64,
        /// Payload size in bytes.
        bytes: f64,
        /// Engine time.
        t: f64,
    },
    /// A datacenter transfer completed.
    TransferFinished {
        /// The VM endpoint.
        vm: u32,
        /// Direction (see [`Event::TransferStarted`]).
        up: bool,
        /// Workflow edge id, or `-1` for an externally staged input.
        edge: i64,
        /// Engine time.
        t: f64,
    },
    /// An in-flight transfer was lost to a crash.
    TransferAborted {
        /// The VM endpoint.
        vm: u32,
        /// Direction.
        up: bool,
        /// Engine time.
        t: f64,
    },
    /// A VM crash-stopped with work remaining.
    VmCrashed {
        /// The VM.
        vm: u32,
        /// Engine time.
        t: f64,
    },
    /// A datacenter bandwidth-degradation window opened.
    DegradationStarted {
        /// Engine time.
        t: f64,
        /// Bandwidth multiplier while the window is active.
        factor: f64,
    },
    /// The degradation window closed.
    DegradationEnded {
        /// Engine time.
        t: f64,
    },

    // ---- simulator: the Eq. 1–2 bill ---------------------------------
    /// One VM's final bill (Eq. 1), emitted in report order so a ledger
    /// summing costs in event order reproduces `vm_cost` bit-exactly.
    VmBilled {
        /// The VM.
        vm: u32,
        /// Its category.
        category: u32,
        /// `H_start,v`.
        booked_at: f64,
        /// Charging start (boot is uncharged).
        ready_at: f64,
        /// `H_end,v`.
        released_at: f64,
        /// Eq. 1 cost of this VM.
        cost: f64,
        /// Tasks it executed.
        tasks_run: u32,
    },
    /// The datacenter bill (Eq. 2) and makespan, closing one run's billing.
    DcBilled {
        /// `C_DC`.
        cost: f64,
        /// The run's makespan.
        makespan: f64,
    },
}

impl Event {
    /// Short stable tag, used for counting and debugging.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::PlanStarted { .. } => "plan_started",
            Event::BudgetReserved { .. } => "budget_reserved",
            Event::TaskRanked { .. } => "task_ranked",
            Event::TaskShare { .. } => "task_share",
            Event::CandidateEvaluated { .. } => "candidate_evaluated",
            Event::TaskPlaced { .. } => "task_placed",
            Event::RefineMove { .. } => "refine_move",
            Event::EpochStarted { .. } => "epoch_started",
            Event::RecoveryEpoch { .. } => "recovery_epoch",
            Event::Counter { .. } => "counter",
            Event::VmBooked { .. } => "vm_booked",
            Event::VmReady { .. } => "vm_ready",
            Event::BootAbandoned { .. } => "boot_abandoned",
            Event::TaskStarted { .. } => "task_started",
            Event::TaskFinished { .. } => "task_finished",
            Event::TaskAborted { .. } => "task_aborted",
            Event::TransferStarted { .. } => "transfer_started",
            Event::TransferFinished { .. } => "transfer_finished",
            Event::TransferAborted { .. } => "transfer_aborted",
            Event::VmCrashed { .. } => "vm_crashed",
            Event::DegradationStarted { .. } => "degradation_started",
            Event::DegradationEnded { .. } => "degradation_ended",
            Event::VmBilled { .. } => "vm_billed",
            Event::DcBilled { .. } => "dc_billed",
        }
    }
}
