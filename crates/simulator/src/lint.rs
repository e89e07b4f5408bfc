//! Semantic plan linter: cross-checks a simulated execution against the
//! paper's platform model (§III) and cost accounting (Eqs. 1–3).
//!
//! [`plan_lint`] takes a workflow, a platform, the schedule that was
//! executed and the resulting [`SimulationReport`], and verifies five
//! invariant families:
//!
//! 1. **Precedence feasibility** — no consumer starts before its producer's
//!    output can have reached it (same-VM: producer end; cross-VM: producer
//!    end plus one upload and one download at datacenter bandwidth).
//! 2. **Per-VM timeline integrity** — every task ran on its assigned VM and
//!    the execution intervals on each VM follow the schedule order without
//!    overlap; durations match `weight / speed`.
//! 3. **Boot-delay respect** — a VM is ready exactly `boot_time` after
//!    booking, and no task starts before its VM is ready.
//! 4. **Transfer serialization** — each VM's inbound link moves one payload
//!    at a time, so a task cannot start before the serialized download time
//!    of every input needed up to its position; a VM releases no earlier
//!    than its last computation.
//! 5. **Budget reconciliation** — per-VM costs follow Eq. 1 for the observed
//!    usage span, the datacenter cost follows Eq. 2, the totals add up, and
//!    (when a budget is given) `total ≤ B` within tolerance (Eq. 3).
//!
//! The checks are *sound for the engine's accounting*: tolerances absorb the
//! engine's clock resolution (`T_EPS`) and transfer drain threshold
//! (`B_EPS`) so a genuine execution never trips a violation, while any
//! externally corrupted report or hand-built schedule that breaks the model
//! is reported with the offending quantities.

use crate::faults::FaultRun;
use crate::report::SimulationReport;
use crate::schedule::{Schedule, VmId};
use crate::B_EPS;
use wfs_platform::Platform;
use wfs_workflow::{TaskId, Workflow};

/// Absolute + relative tolerance for comparing simulated instants/costs.
fn tol(x: f64) -> f64 {
    1e-6 + 1e-9 * x.abs()
}

/// One violated invariant, with the quantities that witness it.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanViolation {
    /// A consumer task started before its producer's data could be there.
    Precedence {
        /// Producer task.
        from: TaskId,
        /// Consumer task.
        to: TaskId,
        /// Earliest instant the data can be available at the consumer.
        available: f64,
        /// Observed consumer start.
        start: f64,
    },
    /// A task ran on a different VM than the schedule assigned.
    WrongVm {
        /// The task.
        task: TaskId,
        /// VM per the schedule.
        expected: VmId,
        /// VM per the report.
        actual: VmId,
    },
    /// Two consecutive tasks of one VM overlap (or run out of order).
    Overlap {
        /// The VM.
        vm: VmId,
        /// Earlier task in the VM order.
        first: TaskId,
        /// Later task in the VM order.
        second: TaskId,
        /// End of the earlier task.
        end: f64,
        /// Start of the later task (before `end`).
        start: f64,
    },
    /// A task's recorded duration disagrees with `weight / speed`.
    Duration {
        /// The task.
        task: TaskId,
        /// `realized_weight / category speed`.
        expected: f64,
        /// `end - start` from the record.
        actual: f64,
    },
    /// A VM's ready instant is not `booked_at + boot_time`.
    BootDelay {
        /// The VM.
        vm: VmId,
        /// `booked_at + boot_time`.
        expected_ready: f64,
        /// Observed `ready_at`.
        ready_at: f64,
    },
    /// A task started before its VM finished booting.
    StartBeforeReady {
        /// The VM.
        vm: VmId,
        /// The task.
        task: TaskId,
        /// Observed task start.
        start: f64,
        /// The VM's `ready_at`.
        ready_at: f64,
    },
    /// A task started before its VM's serialized inbound link could have
    /// delivered all inputs needed up to its position.
    LinkSerialization {
        /// The VM.
        vm: VmId,
        /// The task.
        task: TaskId,
        /// `ready_at` + serialized download time of all inputs up to it.
        earliest: f64,
        /// Observed task start.
        start: f64,
    },
    /// A VM released before its last computation ended.
    ReleaseBeforeEnd {
        /// The VM.
        vm: VmId,
        /// End of the VM's last task.
        last_end: f64,
        /// Observed `released_at`.
        released_at: f64,
    },
    /// A VM hosting tasks has no usage record in the report.
    MissingVmUsage {
        /// The VM.
        vm: VmId,
    },
    /// A per-VM cost disagrees with Eq. 1 for the observed usage span.
    VmCost {
        /// The VM.
        vm: VmId,
        /// Eq. 1 cost recomputed from the usage record.
        expected: f64,
        /// Cost stored in the record.
        actual: f64,
    },
    /// An aggregate of the report disagrees with its recomputation
    /// (`vm_cost`, `datacenter_cost`, `makespan` or `total_cost`).
    Accounting {
        /// Which aggregate.
        field: &'static str,
        /// Recomputed value.
        expected: f64,
        /// Reported value.
        actual: f64,
    },
    /// The execution overran the given budget (Eq. 3 second clause).
    BudgetExceeded {
        /// The budget `B`.
        budget: f64,
        /// Reported total cost.
        total: f64,
    },
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanViolation::Precedence { from, to, available, start } => write!(
                f,
                "precedence: {to} starts at {start:.6} but data from {from} \
                 is only available at {available:.6}"
            ),
            PlanViolation::WrongVm { task, expected, actual } => {
                write!(f, "placement: {task} ran on {actual}, schedule says {expected}")
            }
            PlanViolation::Overlap { vm, first, second, end, start } => write!(
                f,
                "overlap on {vm}: {second} starts at {start:.6} before {first} ends at {end:.6}"
            ),
            PlanViolation::Duration { task, expected, actual } => write!(
                f,
                "duration: {task} ran {actual:.6}s, weight/speed gives {expected:.6}s"
            ),
            PlanViolation::BootDelay { vm, expected_ready, ready_at } => write!(
                f,
                "boot: {vm} ready at {ready_at:.6}, booked+boot gives {expected_ready:.6}"
            ),
            PlanViolation::StartBeforeReady { vm, task, start, ready_at } => write!(
                f,
                "boot: {task} starts at {start:.6} before {vm} is ready at {ready_at:.6}"
            ),
            PlanViolation::LinkSerialization { vm, task, earliest, start } => write!(
                f,
                "serialization on {vm}: {task} starts at {start:.6}, serialized \
                 downloads allow {earliest:.6} at the earliest"
            ),
            PlanViolation::ReleaseBeforeEnd { vm, last_end, released_at } => write!(
                f,
                "release: {vm} released at {released_at:.6} before its last task \
                 ends at {last_end:.6}"
            ),
            PlanViolation::MissingVmUsage { vm } => {
                write!(f, "report: {vm} hosts tasks but has no usage record")
            }
            PlanViolation::VmCost { vm, expected, actual } => write!(
                f,
                "cost: {vm} reports {actual:.9}, Eq. 1 on its usage span gives {expected:.9}"
            ),
            PlanViolation::Accounting { field, expected, actual } => write!(
                f,
                "accounting: {field} reports {actual:.9}, recomputation gives {expected:.9}"
            ),
            PlanViolation::BudgetExceeded { budget, total } => {
                write!(f, "budget: total cost {total:.9} exceeds budget {budget:.9}")
            }
        }
    }
}

/// Bytes the engine actually drains for a transfer of `size` bytes: it
/// considers a transfer drained below [`B_EPS`] bytes.
fn effective_bytes(size: f64) -> f64 {
    (size - B_EPS).max(0.0)
}

/// Lint the executed plan; returns all violations found (empty = clean).
///
/// `budget` enables the Eq. 3 budget clause; pass `None` for baselines or
/// for the best-effort fallback paths where overspending is expected.
pub fn plan_lint(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    report: &SimulationReport,
    budget: Option<f64>,
) -> Vec<PlanViolation> {
    lint_impl(wf, platform, schedule, report, budget, None)
}

/// Lint a fault-truncated execution: every invariant family is checked on
/// the tasks that ran (`run.finished`), skipping those that crashes or
/// abandoned boots prevented from running; VMs whose boot faults cost
/// extra delay are held to their *actual* boot delay (`run.boot_delays`).
pub fn plan_lint_faulted(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    run: &FaultRun,
    budget: Option<f64>,
) -> Vec<PlanViolation> {
    lint_impl(wf, platform, schedule, &run.report, budget, Some(run))
}

fn lint_impl(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    report: &SimulationReport,
    budget: Option<f64>,
    run: Option<&FaultRun>,
) -> Vec<PlanViolation> {
    let mut v = Vec::new();
    let bw = platform.datacenter.bandwidth;
    let ran = |t: TaskId| run.is_none_or(|r| r.finished[t.index()]);

    // Usage record per VM id (report.vms only holds booked VMs).
    let usage_of = |vm: VmId| report.vms.iter().find(|u| u.vm == vm);

    // --- 1. Precedence feasibility ------------------------------------
    for e in wf.edges() {
        if !ran(e.from) || !ran(e.to) {
            // Fault-truncated edge: one endpoint never ran.
            continue;
        }
        let prod = report.task(e.from);
        let cons = report.task(e.to);
        let same_vm = prod.vm == cons.vm;
        let available = if same_vm {
            prod.end
        } else {
            // Cross-VM: one upload + one download, each at most at the
            // datacenter bandwidth (fair-sharing only slows them down).
            prod.end + 2.0 * effective_bytes(e.size) / bw
        };
        if cons.start < available - tol(available) {
            v.push(PlanViolation::Precedence {
                from: e.from,
                to: e.to,
                available,
                start: cons.start,
            });
        }
    }

    // --- 2–4. Per-VM timeline, boot, serialization --------------------
    for vm in schedule.vm_ids() {
        let order = schedule.order(vm);
        if order.is_empty() {
            continue;
        }
        let ran_any = order.iter().any(|&t| ran(t));
        let Some(usage) = usage_of(vm) else {
            // A VM that ran nothing (boot abandoned, or its inputs were
            // stranded by another VM's fault) is legitimately absent.
            if ran_any {
                v.push(PlanViolation::MissingVmUsage { vm });
            }
            continue;
        };

        // Boot delay (invariant 3). Boot faults stretch the delay; the
        // faulted run carries the actual per-VM value.
        let boot = run
            .and_then(|r| r.boot_delays.get(vm.index()).copied().flatten())
            .unwrap_or_else(|| platform.category(schedule.vm_category(vm)).boot_time);
        let expected_ready = usage.booked_at + boot;
        if (usage.ready_at - expected_ready).abs() > tol(expected_ready) {
            v.push(PlanViolation::BootDelay { vm, expected_ready, ready_at: usage.ready_at });
        }

        let speed = platform.category(schedule.vm_category(vm)).speed;
        let mut prev: Option<TaskId> = None;
        let mut inbound_bytes = 0.0f64;
        let mut last_end = 0.0f64;
        for &t in order {
            if !ran(t) {
                // Tasks execute strictly in schedule order; the first
                // fault-truncated task ends the checkable prefix.
                break;
            }
            let rec = report.task(t);
            if rec.vm != vm {
                v.push(PlanViolation::WrongVm { task: t, expected: vm, actual: rec.vm });
                continue;
            }
            // Timeline integrity (invariant 2).
            if let Some(p) = prev {
                let pe = report.task(p).end;
                if rec.start < pe - tol(pe) {
                    v.push(PlanViolation::Overlap {
                        vm,
                        first: p,
                        second: t,
                        end: pe,
                        start: rec.start,
                    });
                }
            }
            let expected_dur = rec.realized_weight / speed;
            let actual_dur = rec.end - rec.start;
            if (actual_dur - expected_dur).abs() > tol(expected_dur) {
                v.push(PlanViolation::Duration { task: t, expected: expected_dur, actual: actual_dur });
            }
            // Boot respect (invariant 3).
            if rec.start < usage.ready_at - tol(usage.ready_at) {
                v.push(PlanViolation::StartBeforeReady {
                    vm,
                    task: t,
                    start: rec.start,
                    ready_at: usage.ready_at,
                });
            }
            // Inbound-link serialization (invariant 4): every remote input
            // of tasks up to this position moved one-at-a-time over the
            // VM's inbound link, which opens at `ready_at`.
            for &e in wf.in_edges(t) {
                if report.task(wf.edge(e).from).vm != vm {
                    inbound_bytes += effective_bytes(wf.edge(e).size);
                }
            }
            inbound_bytes += effective_bytes(wf.task(t).external_input);
            let earliest = usage.ready_at + inbound_bytes / bw;
            if rec.start < earliest - tol(earliest) {
                v.push(PlanViolation::LinkSerialization { vm, task: t, earliest, start: rec.start });
            }
            last_end = last_end.max(rec.end);
            prev = Some(t);
        }
        if usage.released_at < last_end - tol(last_end) {
            v.push(PlanViolation::ReleaseBeforeEnd { vm, last_end, released_at: usage.released_at });
        }
    }

    // --- 5. Budget reconciliation (Eqs. 1–3) --------------------------
    let mut vm_sum = 0.0;
    let mut first_booked = f64::INFINITY;
    let mut last_released = 0.0f64;
    for usage in &report.vms {
        let eq1 = platform.vm_cost(usage.category, usage.released_at - usage.ready_at);
        if (usage.cost - eq1).abs() > tol(eq1) {
            v.push(PlanViolation::VmCost { vm: usage.vm, expected: eq1, actual: usage.cost });
        }
        vm_sum += usage.cost;
        first_booked = first_booked.min(usage.booked_at);
        last_released = last_released.max(usage.released_at);
    }
    if (report.vm_cost - vm_sum).abs() > tol(vm_sum) {
        v.push(PlanViolation::Accounting {
            field: "vm_cost",
            expected: vm_sum,
            actual: report.vm_cost,
        });
    }
    let makespan = if first_booked.is_finite() { (last_released - first_booked).max(0.0) } else { 0.0 };
    if (report.makespan - makespan).abs() > tol(makespan) {
        v.push(PlanViolation::Accounting {
            field: "makespan",
            expected: makespan,
            actual: report.makespan,
        });
    }
    let external = wf.external_input_data() + wf.external_output_data();
    let eq2 = platform.datacenter.cost(report.makespan, external);
    if (report.datacenter_cost - eq2).abs() > tol(eq2) {
        v.push(PlanViolation::Accounting {
            field: "datacenter_cost",
            expected: eq2,
            actual: report.datacenter_cost,
        });
    }
    let total = report.vm_cost + report.datacenter_cost;
    if (report.total_cost - total).abs() > tol(total) {
        v.push(PlanViolation::Accounting {
            field: "total_cost",
            expected: total,
            actual: report.total_cost,
        });
    }
    if let Some(b) = budget {
        if report.total_cost > b + tol(b) {
            v.push(PlanViolation::BudgetExceeded { budget: b, total: report.total_cost });
        }
    }
    v
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use crate::{simulate, SimConfig};
    use wfs_platform::Platform;
    use wfs_workflow::gen::{chain, fork_join, GenConfig};
    use wfs_workflow::gen::montage;

    fn paper() -> Platform {
        Platform::paper_default()
    }

    /// Round-robin the tasks of `wf` over `n` VMs of category 0 — a crude
    /// but valid schedule exercising cross-VM edges and boot gates.
    fn round_robin(wf: &wfs_workflow::Workflow, n: u32) -> Schedule {
        let mut s = Schedule::new(wf.task_count());
        for i in 0..n {
            s.add_vm(wfs_platform::CategoryId(i % 3));
        }
        for t in wf.task_ids() {
            s.assign(t, VmId(t.0 % n));
        }
        s
    }

    fn lint_clean(wf: &wfs_workflow::Workflow, s: &Schedule) -> SimulationReport {
        let p = paper();
        let r = simulate(wf, &p, s, &SimConfig::planning()).unwrap();
        let violations = plan_lint(wf, &p, s, &r, None);
        assert!(violations.is_empty(), "genuine run flagged: {:?}", violations);
        r
    }

    #[test]
    fn genuine_executions_are_clean() {
        for wf in [montage(GenConfig::new(40, 3)), chain(12, 500.0, 1e7), fork_join(9, 300.0, 1e6)]
        {
            lint_clean(&wf, &round_robin(&wf, 3));
        }
    }

    #[test]
    fn stochastic_executions_are_clean_too() {
        let wf = montage(GenConfig::new(30, 5));
        let p = paper();
        let s = round_robin(&wf, 2);
        let r = simulate(&wf, &p, &s, &SimConfig::stochastic(9)).unwrap();
        assert!(plan_lint(&wf, &p, &s, &r, None).is_empty());
    }

    // ---- mutation tests: each invariant family fires on a corruption ----

    #[test]
    fn mutation_precedence_fires() {
        let wf = chain(4, 500.0, 1e7);
        let s = round_robin(&wf, 2);
        let mut r = lint_clean(&wf, &s);
        // Pull a downstream task before its producer's data can arrive.
        r.tasks[1].start = 0.0;
        let p = paper();
        assert!(plan_lint(&wf, &p, &s, &r, None)
            .iter()
            .any(|v| matches!(v, PlanViolation::Precedence { .. })));
    }

    #[test]
    fn mutation_wrong_vm_fires() {
        let wf = chain(4, 500.0, 1e7);
        let s = round_robin(&wf, 2);
        let mut r = lint_clean(&wf, &s);
        r.tasks[0].vm = VmId(1);
        let p = paper();
        assert!(plan_lint(&wf, &p, &s, &r, None)
            .iter()
            .any(|v| matches!(v, PlanViolation::WrongVm { .. })));
    }

    #[test]
    fn mutation_overlap_fires() {
        let wf = fork_join(6, 800.0, 1e6);
        let s = round_robin(&wf, 2);
        let mut r = lint_clean(&wf, &s);
        // Two tasks share VM 0; slide the later one onto the earlier one.
        let order: Vec<_> = s.order(VmId(0)).to_vec();
        let (a, b) = (order[order.len() - 2], order[order.len() - 1]);
        let shifted = report_start(&r, a) + 1e-3;
        let dur = r.tasks[b.index()].end - r.tasks[b.index()].start;
        r.tasks[b.index()].start = shifted;
        r.tasks[b.index()].end = shifted + dur;
        let p = paper();
        assert!(plan_lint(&wf, &p, &s, &r, None)
            .iter()
            .any(|v| matches!(v, PlanViolation::Overlap { .. })));
    }

    fn report_start(r: &SimulationReport, t: wfs_workflow::TaskId) -> f64 {
        r.tasks[t.index()].start
    }

    #[test]
    fn mutation_duration_fires() {
        let wf = chain(3, 500.0, 1e6);
        let s = round_robin(&wf, 1);
        let mut r = lint_clean(&wf, &s);
        r.tasks[2].end += 5.0;
        let p = paper();
        // Stretching the last task's end also desynchronizes release/usage
        // accounting; the duration violation must be among the findings.
        assert!(plan_lint(&wf, &p, &s, &r, None)
            .iter()
            .any(|v| matches!(v, PlanViolation::Duration { .. })));
    }

    #[test]
    fn mutation_boot_delay_fires() {
        let wf = chain(3, 500.0, 1e6);
        let s = round_robin(&wf, 1);
        let mut r = lint_clean(&wf, &s);
        r.vms[0].ready_at -= 1.0;
        let p = paper();
        let vs = plan_lint(&wf, &p, &s, &r, None);
        assert!(vs.iter().any(|v| matches!(v, PlanViolation::BootDelay { .. })), "{vs:?}");
    }

    #[test]
    fn mutation_start_before_ready_fires() {
        let wf = chain(3, 500.0, 1e6);
        let s = round_robin(&wf, 1);
        let mut r = lint_clean(&wf, &s);
        // Move the whole boot window later so the first start precedes it.
        r.vms[0].booked_at += 20.0;
        r.vms[0].ready_at += 20.0;
        let p = paper();
        let vs = plan_lint(&wf, &p, &s, &r, None);
        assert!(
            vs.iter().any(|v| matches!(v, PlanViolation::StartBeforeReady { .. })),
            "{vs:?}"
        );
    }

    #[test]
    fn mutation_link_serialization_fires() {
        // Heavy external inputs: starting any earlier than the serialized
        // download time is impossible.
        let wf = chain(3, 50.0, 5e8);
        let s = round_robin(&wf, 1);
        let mut r = lint_clean(&wf, &s);
        r.tasks[0].start = r.vms[0].ready_at + 1e-3;
        r.tasks[0].end = r.tasks[0].start + (r.tasks[0].realized_weight / paper().category(wfs_platform::CategoryId(0)).speed);
        let p = paper();
        let vs = plan_lint(&wf, &p, &s, &r, None);
        assert!(
            vs.iter().any(|v| matches!(v, PlanViolation::LinkSerialization { .. })),
            "{vs:?}"
        );
    }

    #[test]
    fn mutation_release_before_end_fires() {
        let wf = chain(3, 500.0, 1e6);
        let s = round_robin(&wf, 1);
        let mut r = lint_clean(&wf, &s);
        r.vms[0].released_at = r.vms[0].ready_at;
        let p = paper();
        let vs = plan_lint(&wf, &p, &s, &r, None);
        assert!(
            vs.iter().any(|v| matches!(v, PlanViolation::ReleaseBeforeEnd { .. })),
            "{vs:?}"
        );
    }

    #[test]
    fn mutation_vm_cost_fires() {
        let wf = chain(3, 500.0, 1e6);
        let s = round_robin(&wf, 1);
        let mut r = lint_clean(&wf, &s);
        r.vms[0].cost *= 0.5;
        let p = paper();
        let vs = plan_lint(&wf, &p, &s, &r, None);
        assert!(vs.iter().any(|v| matches!(v, PlanViolation::VmCost { .. })), "{vs:?}");
        // The sum no longer matches either.
        assert!(
            vs.iter()
                .any(|v| matches!(v, PlanViolation::Accounting { field: "vm_cost", .. })),
            "{vs:?}"
        );
    }

    #[test]
    fn mutation_accounting_fields_fire() {
        let wf = chain(3, 500.0, 1e6);
        let s = round_robin(&wf, 1);
        let p = paper();
        for field in ["makespan", "datacenter_cost", "total_cost"] {
            let mut r = lint_clean(&wf, &s);
            match field {
                "makespan" => r.makespan += 10.0,
                "datacenter_cost" => r.datacenter_cost += 1.0,
                _ => r.total_cost += 1.0,
            }
            let vs = plan_lint(&wf, &p, &s, &r, None);
            assert!(
                vs.iter().any(
                    |v| matches!(v, PlanViolation::Accounting { field: f, .. } if *f == field)
                ),
                "{field}: {vs:?}"
            );
        }
    }

    #[test]
    fn mutation_missing_vm_usage_fires() {
        let wf = chain(4, 500.0, 1e6);
        let s = round_robin(&wf, 2);
        let mut r = lint_clean(&wf, &s);
        r.vms.remove(1);
        let p = paper();
        assert!(plan_lint(&wf, &p, &s, &r, None)
            .iter()
            .any(|v| matches!(v, PlanViolation::MissingVmUsage { vm } if *vm == VmId(1))));
    }

    #[test]
    fn budget_clause_fires_only_when_requested() {
        let wf = chain(3, 500.0, 1e6);
        let s = round_robin(&wf, 1);
        let r = lint_clean(&wf, &s);
        let p = paper();
        let tight = r.total_cost * 0.5;
        assert!(plan_lint(&wf, &p, &s, &r, None).is_empty());
        let vs = plan_lint(&wf, &p, &s, &r, Some(tight));
        assert_eq!(vs.len(), 1);
        assert!(matches!(vs[0], PlanViolation::BudgetExceeded { .. }));
        assert!(plan_lint(&wf, &p, &s, &r, Some(r.total_cost * 2.0)).is_empty());
    }

    #[test]
    fn violations_render_human_readable() {
        let v = PlanViolation::BudgetExceeded { budget: 1.0, total: 2.0 };
        let s = v.to_string();
        assert!(s.contains("budget"), "{s}");
        assert!(s.contains("2.0"), "{s}");
    }
}
