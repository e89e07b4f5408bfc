//! Online re-scheduling — the paper's future-work direction (§VI):
//!
//! > "if we monitor the execution of the tasks, we can detect unlikely
//! > events such as very long durations, and in such cases, it could be
//! > beneficial to interrupt some tasks and re-schedule them onto faster
//! > VMs."
//!
//! [`run_online`] executes a HEFTBUDG schedule under *revealed* stochastic
//! weights: each task's realized duration becomes known only when it
//! finishes. A watchdog interrupts any task whose elapsed time exceeds its
//! conservative estimate by a configurable factor, and re-dispatches it —
//! preferring faster VMs — if the remaining budget allows; otherwise the
//! task restarts in place and runs to completion.
//!
//! The timing model here is the paper's *planning* model (Eq. 7: serialized
//! input transfers, conservative upload of every output, uncharged boot),
//! with realized instead of estimated weights — the same model the
//! algorithms reason with, so static and online runs are directly
//! comparable. Interrupted work is lost and the occupied VM time stays
//! charged, exactly the risk the paper flags for dynamic decisions.

use crate::heft::heft_budg;
use wfs_platform::{CategoryId, Platform};
use wfs_simulator::{realize_weights, WeightModel};
use wfs_workflow::{TaskId, Workflow};

/// Configuration of an online run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// How the realized task weights are drawn: the paper's Gaussian
    /// ([`WeightModel::Stochastic`]) or a heavy-tailed log-normal
    /// ([`WeightModel::HeavyTail`]). Interrupting stragglers only pays when
    /// long elapsed time signals *more* remaining work — true for heavy
    /// tails, false for Gaussians (whose conditional remainder shrinks),
    /// which is exactly the risk §VI warns about.
    pub weights: WeightModel,
    /// Interrupt a task once its elapsed time exceeds
    /// `(w̄ + timeout_sigmas·σ) / speed`. The paper plans with one σ of
    /// margin; 2–3 σ make interruptions rare-but-useful. `None` disables
    /// the watchdog (the static baseline under the same timing model).
    pub timeout_sigmas: Option<f64>,
}

impl OnlineConfig {
    /// Watchdog at `k` sigmas under realized `weights`.
    pub fn with_watchdog(weights: WeightModel, k: f64) -> Self {
        assert!(k >= 0.0 && k.is_finite());
        Self { weights, timeout_sigmas: Some(k) }
    }

    /// Static execution (no interruptions) — the comparison baseline.
    pub fn static_run(weights: WeightModel) -> Self {
        Self { weights, timeout_sigmas: None }
    }
}

/// Outcome of an online execution.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineOutcome {
    /// Wall-clock span from first VM booking to last output at the DC.
    pub makespan: f64,
    /// Total cost (VMs + datacenter), Eq. 1–2 under the planning model.
    pub total_cost: f64,
    /// Number of watchdog interruptions.
    pub interruptions: usize,
    /// Interrupted tasks that moved to a *different* VM.
    pub migrations: usize,
    /// True if `total_cost <= b_ini`.
    pub within_budget: bool,
    /// Per-VM `(category index, charged seconds)` for booked VMs.
    pub vm_usage: Vec<(u32, f64)>,
}

/// Per-VM execution state.
struct OnlineVm {
    category: CategoryId,
    /// Instant the VM becomes free for the next task.
    avail: f64,
    /// First instant the VM was used (boot end); `None` until first task.
    charge_start: Option<f64>,
    /// Last instant the VM was active (task end or upload end).
    last_activity: f64,
}

/// Safety factor on a migration's estimated cost before it is considered
/// affordable: the realized duration of a heavy-tailed straggler can exceed
/// the `w̄ + σ` estimate severalfold, and the spend is irrevocable once the
/// task restarts. Migrate only with real headroom.
const TAIL_SAFETY: f64 = 3.0;

/// Execute `wf` online: HEFTBUDG plans within `b_ini`, the watchdog
/// adapts. Re-dispatching an interrupted task takes only moves whose
/// marginal cost fits what is left of `b_ini`.
pub fn run_online(
    wf: &Workflow,
    platform: &Platform,
    b_ini: f64,
    cfg: OnlineConfig,
) -> OnlineOutcome {
    let realized = realize_weights(wf, cfg.weights);
    let (schedule, _list) = heft_budg(wf, platform, b_ini);
    let bw = platform.datacenter.bandwidth;

    let mut vms: Vec<OnlineVm> = schedule
        .vm_ids()
        .map(|v| OnlineVm {
            category: schedule.vm_category(v),
            avail: 0.0,
            charge_start: None,
            last_activity: 0.0,
        })
        .collect();
    // Per-VM FIFO of queued tasks (the planned order).
    let mut queues: Vec<std::collections::VecDeque<TaskId>> =
        schedule.vm_ids().map(|v| schedule.order(v).iter().copied().collect()).collect();

    let n = wf.task_count();
    let mut done = vec![false; n];
    let mut finish = vec![f64::NAN; n];
    // Conservative data-at-DC time per edge (producers always upload).
    let mut at_dc = vec![f64::INFINITY; wf.edge_count()];
    // VM each task actually ran on (for input-locality of re-dispatches).
    let mut ran_on: Vec<Option<usize>> = vec![None; n];
    let mut interruptions = 0usize;
    let mut migrations = 0usize;
    let mut completed = 0usize;

    // A task at the head of its queue is startable once its predecessors
    // are done. Returns (start_time, duration_secs_of_transfers).
    let startable =
        |wf: &Workflow, vm_idx: usize, t: TaskId, vms: &[OnlineVm], at_dc: &[f64],
         ran_on: &[Option<usize>], done: &[bool]| -> Option<(f64, f64)> {
            let mut data_ready: f64 = 0.0;
            let mut in_bytes = wf.task(t).external_input;
            for &e in wf.in_edges(t) {
                let edge = wf.edge(e);
                if !done[edge.from.index()] {
                    return None;
                }
                if ran_on[edge.from.index()] == Some(vm_idx) {
                    continue; // local data
                }
                data_ready = data_ready.max(at_dc[e.index()]);
                in_bytes += edge.size;
            }
            let boot = if vms[vm_idx].charge_start.is_none() {
                platform.category(vms[vm_idx].category).boot_time
            } else {
                0.0
            };
            let begin = vms[vm_idx].avail.max(data_ready) + boot;
            Some((begin, in_bytes / bw))
        };

    // Projected total cost of the current state (per-VM usage so far plus
    // init costs and the datacenter estimate over the current span).
    let projected_cost = |vms: &[OnlineVm], span: f64| -> f64 {
        let mut c = 0.0;
        for vm in vms {
            if let Some(start) = vm.charge_start {
                c += platform.vm_cost(vm.category, (vm.last_activity - start).max(0.0));
            }
        }
        let external = wf.external_input_data() + wf.external_output_data();
        c + platform.datacenter.cost(span, external)
    };

    while completed < n {
        // Pick the queue head with the earliest possible start.
        let mut best: Option<(usize, TaskId, f64, f64)> = None;
        for (v, q) in queues.iter().enumerate() {
            let Some(&t) = q.front() else { continue };
            if let Some((begin, xfer)) = startable(wf, v, t, &vms, &at_dc, &ran_on, &done) {
                if best.is_none_or(|(_, _, b, _)| begin < b) {
                    best = Some((v, t, begin, xfer));
                }
            }
        }
        let Some((v, t, begin, xfer)) = best else {
            unreachable!("validated schedules cannot stall");
        };
        queues[v].pop_front();

        let cat = platform.category(vms[v].category);
        if vms[v].charge_start.is_none() {
            vms[v].charge_start = Some(begin); // boot already added, uncharged
        }
        let exec_start = begin + xfer;
        let real_dur = realized[t.index()] / cat.speed;
        let est = wf.task(t).weight;
        let timeout = cfg
            .timeout_sigmas
            .map(|k| (est.mean + k * est.std_dev) / cat.speed)
            .unwrap_or(f64::INFINITY);

        let end = if real_dur > timeout {
            // Watchdog fires. The controller does NOT know the realized
            // duration; it estimates the remaining work as one full mean
            // weight (`w̄`) and decides: migrate only if the estimated
            // finish on a faster host — paying the lost elapsed work, the
            // re-transfers and possibly a boot — beats the estimated
            // finish of simply letting the task run.
            interruptions += 1;
            let interrupt_at = exec_start + timeout;
            let cur_speed = cat.speed;
            // Conservative remaining estimate (w̄ + σ, like the planner):
            // under-estimating it would green-light marginal migrations
            // whose realized cost busts the budget.
            let est_remaining_work = est.conservative();
            let cont_est = interrupt_at + est_remaining_work / cur_speed;
            // Restarting elsewhere must redo the work done so far too.
            let est_total_work = timeout * cur_speed + est_remaining_work;

            // Budget headroom at the interrupt instant, after reserving
            // the conservative cost of every task still to run *on the VM
            // category the plan assigned it* — migrating must never starve
            // the remaining workload.
            let future_reserve: f64 = wf
                .task_ids()
                .filter(|&u| !done[u.index()] && u != t)
                .map(|u| {
                    let cat_id = schedule
                        .assignment(u)
                        .map(|vm| schedule.vm_category(vm))
                        .unwrap_or_else(|| platform.cheapest());
                    let c = platform.category(cat_id);
                    wf.task(u).weight.conservative() / c.speed * c.cost_per_second()
                })
                .sum();
            let headroom =
                b_ini - projected_cost(&vms, interrupt_at) - future_reserve;
            let in_bytes_full = wf.task(t).external_input
                + wf.in_edges(t).iter().map(|&e| wf.edge(e).size).sum::<f64>();

            // Candidate moves, judged on ESTIMATED end time.
            // (vm index or None=new, category, est_end, start, cost_est)
            let mut choice: Option<(Option<usize>, CategoryId, f64, f64)> = None;
            for (cv, cvm) in vms.iter().enumerate() {
                if cv == v {
                    continue;
                }
                let c = platform.category(cvm.category);
                let occupied = in_bytes_full / bw + est_total_work / c.speed;
                let start = cvm.avail.max(interrupt_at);
                let est_end = start + occupied;
                // Re-using an idle VM re-opens its continuous rental slot:
                // the gap since its last activity is billed too.
                let reopen_gap = (start - cvm.avail).max(0.0);
                let cost = (reopen_gap + occupied) * c.cost_per_second();
                if cost * TAIL_SAFETY <= headroom && choice.is_none_or(|(_, _, e, _)| est_end < e) {
                    choice = Some((Some(cv), cvm.category, est_end, start));
                }
            }
            for cat_id in platform.category_ids() {
                let c = platform.category(cat_id);
                let occupied = in_bytes_full / bw + est_total_work / c.speed;
                let est_end = interrupt_at + c.boot_time + occupied;
                let cost = occupied * c.cost_per_second() + c.init_cost;
                if cost * TAIL_SAFETY <= headroom && choice.is_none_or(|(_, _, e, _)| est_end < e) {
                    choice = Some((None, cat_id, est_end, interrupt_at + c.boot_time));
                }
            }

            match choice {
                Some((target, cat_id, est_end, start)) if est_end < cont_est => {
                    // Migrate: the elapsed timeout stays charged on `v`.
                    migrations += 1;
                    vms[v].avail = interrupt_at;
                    vms[v].last_activity = interrupt_at;
                    let c = platform.category(cat_id);
                    let actual_end =
                        start + in_bytes_full / bw + realized[t.index()] / c.speed;
                    let host = match target {
                        Some(cv) => {
                            if vms[cv].charge_start.is_none() {
                                vms[cv].charge_start = Some(start);
                            }
                            cv
                        }
                        None => {
                            vms.push(OnlineVm {
                                category: cat_id,
                                avail: start,
                                charge_start: Some(start),
                                last_activity: start,
                            });
                            queues.push(std::collections::VecDeque::new());
                            vms.len() - 1
                        }
                    };
                    vms[host].avail = actual_end;
                    vms[host].last_activity = actual_end;
                    ran_on[t.index()] = Some(host);
                    actual_end
                }
                _ => {
                    // Continuing is (estimated) better or nothing is
                    // affordable: let the task finish in place.
                    let e = exec_start + real_dur;
                    vms[v].avail = e;
                    vms[v].last_activity = e;
                    ran_on[t.index()] = Some(v);
                    e
                }
            }
        } else {
            let e = exec_start + real_dur;
            vms[v].avail = e;
            vms[v].last_activity = e;
            ran_on[t.index()] = Some(v);
            e
        };

        done[t.index()] = true;
        finish[t.index()] = end;
        completed += 1;
        #[allow(clippy::expect_used)] // both branches above record the host
        let host = ran_on[t.index()].expect("just set");
        // Conservative uploads of every output (+ external output).
        let mut upload_end = end;
        for &e in wf.out_edges(t) {
            upload_end += wf.edge(e).size / bw;
            at_dc[e.index()] = upload_end;
        }
        upload_end += wf.task(t).external_output / bw;
        vms[host].last_activity = vms[host].last_activity.max(upload_end);
    }

    let makespan = vms
        .iter()
        .filter(|v| v.charge_start.is_some())
        .map(|v| v.last_activity)
        .fold(0.0f64, f64::max);
    let total_cost = projected_cost(&vms, makespan);
    let vm_usage = vms
        .iter()
        .filter_map(|v| {
            v.charge_start
                .map(|s| (v.category.0, (v.last_activity - s).max(0.0)))
        })
        .collect();
    OnlineOutcome {
        makespan,
        total_cost,
        interruptions,
        migrations,
        within_budget: total_cost <= b_ini,
        vm_usage,
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use wfs_workflow::gen::{cybershake, montage, GenConfig};

    fn paper() -> Platform {
        Platform::paper_default()
    }

    fn gaussian(seed: u64) -> WeightModel {
        WeightModel::Stochastic { seed }
    }

    /// Realized weights of run `seed`, heavy-tailed or Gaussian.
    fn weights(seed: u64, heavy: bool) -> WeightModel {
        if heavy {
            WeightModel::HeavyTail { seed }
        } else {
            gaussian(seed)
        }
    }

    fn config(seed: u64, heavy: bool, k: Option<f64>) -> OnlineConfig {
        match k {
            Some(k) => OnlineConfig::with_watchdog(weights(seed, heavy), k),
            None => OnlineConfig::static_run(weights(seed, heavy)),
        }
    }

    #[test]
    fn static_run_has_no_interruptions() {
        let wf = montage(GenConfig::new(30, 1));
        let p = paper();
        let out = run_online(&wf, &p, 2.0, OnlineConfig::static_run(gaussian(7)));
        assert_eq!(out.interruptions, 0);
        assert_eq!(out.migrations, 0);
        assert!(out.makespan > 0.0 && out.total_cost > 0.0);
    }

    #[test]
    fn watchdog_fires_on_high_sigma() {
        // σ = 100 % of the mean: many tasks exceed w̄ + 1σ.
        let wf = montage(GenConfig::new(60, 1).with_sigma_ratio(1.0));
        let p = paper();
        let out = run_online(&wf, &p, 5.0, OnlineConfig::with_watchdog(gaussian(3), 1.0));
        assert!(out.interruptions > 0, "no interruption at sigma=100%");
    }

    #[test]
    fn deterministic_given_seed() {
        let wf = cybershake(GenConfig::new(30, 2));
        let p = paper();
        let cfg = OnlineConfig::with_watchdog(gaussian(11), 2.0);
        assert_eq!(run_online(&wf, &p, 3.0, cfg), run_online(&wf, &p, 3.0, cfg));
    }

    #[test]
    fn zero_sigma_watchdog_never_fires_spuriously() {
        // Deterministic weights: realized == mean <= timeout threshold.
        let wf = montage(GenConfig::new(30, 1).with_sigma_ratio(0.0));
        let p = paper();
        let out = run_online(&wf, &p, 2.0, OnlineConfig::with_watchdog(gaussian(5), 0.0));
        assert_eq!(out.interruptions, 0);
    }

    /// Migration-friendly setup: a wide speed ladder (16×, like real cloud
    /// size ranges), long tasks, and a budget tight enough that HEFTBUDG
    /// starts on slow VMs — the regime where killing a straggler for a
    /// fast VM can actually win despite redoing its work.
    fn straggler_setup() -> (wfs_workflow::Workflow, Platform, f64) {
        use wfs_workflow::gen::{layered_random, LayeredParams};
        let p = Platform::wide_ladder();
        let wf = layered_random(
            LayeredParams { layers: 4, width: 5, edge_prob: 0.3, work: 6000.0, data: 20e6 },
            GenConfig { tasks: 0, seed: 1, sigma_ratio: 1.0 },
        );
        let budget = crate::min_cost_floor(&wf, &p) * 1.2;
        (wf, p, budget)
    }

    fn avg_makespan(
        wf: &wfs_workflow::Workflow,
        p: &Platform,
        budget: f64,
        k: Option<f64>,
        heavy: bool,
        reps: u64,
    ) -> f64 {
        (0..reps)
            .map(|seed| run_online(wf, p, budget, config(seed, heavy, k)).makespan)
            .sum::<f64>()
            / reps as f64
    }

    #[test]
    fn online_pays_off_on_heavy_tails() {
        // The benefit side of §VI: with heavy-tailed (log-normal)
        // durations, long elapsed time means a straggler with lots of work
        // left, and killing it for a much faster VM wins on average.
        let (wf, p, budget) = straggler_setup();
        let static_mk = avg_makespan(&wf, &p, budget, None, true, 20);
        let online_mk = avg_makespan(&wf, &p, budget, Some(1.0), true, 20);
        assert!(
            online_mk < static_mk,
            "online {online_mk} not better than static {static_mk} despite stragglers"
        );
    }

    #[test]
    fn gaussian_interruption_is_risky_as_the_paper_warns() {
        // The risk side of §VI: with thin Gaussian tails a task past its
        // timeout is almost done, so the (distribution-blind) controller
        // migrates wrongly and typically loses a little. Assert the loss
        // exists-or-is-bounded: online must NOT beat static here, and must
        // not blow up either.
        let (wf, p, budget) = straggler_setup();
        let static_mk = avg_makespan(&wf, &p, budget, None, false, 20);
        let online_mk = avg_makespan(&wf, &p, budget, Some(1.0), false, 20);
        assert!(
            online_mk >= static_mk * 0.99,
            "Gaussian interruption should not win: online {online_mk} vs static {static_mk}"
        );
        assert!(
            online_mk <= static_mk * 1.35,
            "online {online_mk} catastrophically worse than static {static_mk}"
        );
    }

    #[test]
    fn migrations_happen_in_the_straggler_regime() {
        let (wf, p, budget) = straggler_setup();
        let total: usize = (0..10)
            .map(|seed| run_online(&wf, &p, budget, config(seed, true, Some(1.0))).migrations)
            .sum();
        assert!(total > 0, "no migration ever happened");
    }

    #[test]
    fn redispatch_does_not_wreck_budget_compliance() {
        // Migrations draw on real headroom only (future work is reserved
        // at cheapest-category cost first), so the online compliance rate
        // stays close to the static one even with stragglers.
        let (wf, p, budget) = straggler_setup();
        let reps = 20u64;
        let count_ok = |k: Option<f64>| -> u64 {
            (0..reps)
                .filter(|&seed| run_online(&wf, &p, budget, config(seed, true, k)).within_budget)
                .count() as u64
        };
        let static_ok = count_ok(None);
        let online_ok = count_ok(Some(1.0));
        assert!(
            online_ok + 3 >= static_ok,
            "online compliance {online_ok}/{reps} collapsed vs static {static_ok}/{reps}"
        );
    }
}
