//! # wfs-simulator — discrete-event execution of workflow schedules
//!
//! The SimGrid/SimDag substitute of the reproduction (DESIGN.md §3): given a
//! [`Schedule`], a workflow and a platform, [`simulate`] replays the
//! execution under the paper's model — on-demand VM booking with uncharged
//! boot delay, all inter-VM data relayed through the datacenter,
//! transfer/compute overlap, and task weights realized either
//! deterministically (planning) or as truncated Gaussian samples.
//!
//! ```
//! use wfs_simulator::{simulate, Schedule, SimConfig};
//! use wfs_platform::Platform;
//! use wfs_workflow::gen::chain;
//!
//! let wf = chain(3, 100.0, 1e6);
//! let platform = Platform::paper_default();
//! let mut s = Schedule::new(wf.task_count());
//! let vm = s.add_vm(platform.cheapest());
//! for t in wf.task_ids() { s.assign(t, vm); }
//! let report = simulate(&wf, &platform, &s, &SimConfig::planning()).unwrap();
//! assert!(report.makespan > 0.0);
//! assert!(report.total_cost > 0.0);
//! ```
//!
//! [`simulate_with_faults`] is the one faulted entry point: it reports the
//! injected faults to an event sink (`NoopSink` when nothing listens) and
//! returns a [`FaultRun`], which [`plan_lint_faulted`] checks.

#![warn(missing_docs)]

mod config;
mod engine;
pub mod faults;
pub mod lint;
pub mod metrics;
mod report;
mod schedule;
pub mod svg;
mod weights;

pub use config::{DcCapacity, SimConfig};
pub use engine::{
    check_rates, simulate, simulate_observed, simulate_with_faults, RateField, Replay, RunState,
    SimError, B_EPS, T_EPS,
};
pub use faults::{
    stream_seed, BootFaultModel, CrashModel, DegradationModel, FaultConfig, FaultRun, FaultStats,
};
pub use lint::{plan_lint, plan_lint_faulted, PlanViolation};
pub use report::{SimulationReport, TaskRecord, VmUsage};
pub use schedule::{Schedule, ScheduleError, VmId};
pub use weights::{realize_weights, WeightModel};

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod engine_tests {
    use super::*;
    use wfs_observe::NoopSink;
    use wfs_platform::{BillingPolicy, CategoryId, Datacenter, Platform, VmCategory};
    use wfs_workflow::gen::{bag_of_tasks, chain, fork_join, montage, GenConfig};
    use wfs_workflow::{StochasticWeight, TaskId, WorkflowBuilder};

    /// speed 1 work/s, $36/h = $0.01/s, no init cost, 10 s boot;
    /// DC: 10 B/s, free.
    fn unit_platform() -> Platform {
        Platform::new(
            vec![VmCategory::new("u", 1.0, 36.0, 0.0, 10.0)],
            Datacenter::new(10.0, 0.0, 0.0),
        )
        .with_billing(BillingPolicy::Continuous)
    }

    fn single_vm_schedule(wf: &wfs_workflow::Workflow) -> Schedule {
        let mut s = Schedule::new(wf.task_count());
        let vm = s.add_vm(CategoryId(0));
        for &t in wf.topological_order() {
            s.assign(t, vm);
        }
        s
    }

    #[test]
    fn chain_on_one_vm_hand_computed() {
        // boot 10 + dl 50B/10 = 5 + 100 + 100 + upload 5 => span 220.
        let wf = chain(2, 100.0, 50.0);
        let p = unit_platform();
        let r = simulate(&wf, &p, &single_vm_schedule(&wf), &SimConfig::planning()).unwrap();
        assert!((r.makespan - 220.0).abs() < 1e-6, "makespan {}", r.makespan);
        // Charged from boot end (10) to last byte (220): 210 s at $0.01.
        assert!((r.vm_cost - 2.10).abs() < 1e-6, "vm cost {}", r.vm_cost);
        assert_eq!(r.vms_used, 1);
        // Task0: starts after boot+dl = 15, ends 115.
        assert!((r.task(TaskId(0)).start - 15.0).abs() < 1e-6);
        assert!((r.task(TaskId(0)).end - 115.0).abs() < 1e-6);
        // Task1 starts immediately after (same VM, no transfer).
        assert!((r.task(TaskId(1)).start - 115.0).abs() < 1e-6);
    }

    #[test]
    fn chain_on_two_vms_pays_transfers_and_lazy_boot() {
        let wf = chain(2, 100.0, 50.0);
        let p = unit_platform();
        let mut s = Schedule::new(wf.task_count());
        let v0 = s.add_vm(CategoryId(0));
        let v1 = s.add_vm(CategoryId(0));
        s.assign(TaskId(0), v0);
        s.assign(TaskId(1), v1);
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        // VM0: boot 10, dl 5 -> t0 at 15..115, upload edge 5 -> 120.
        // VM1 books at 120 (lazy), ready 130, dl 5 -> 135, t1 135..235,
        // upload external output 5 -> 240.
        assert!((r.makespan - 240.0).abs() < 1e-6, "makespan {}", r.makespan);
        let vm1 = &r.vms[1];
        assert!((vm1.booked_at - 120.0).abs() < 1e-6, "booked {}", vm1.booked_at);
        assert!((vm1.ready_at - 130.0).abs() < 1e-6);
        assert!((vm1.released_at - 240.0).abs() < 1e-6);
        // Each VM charged 110 s.
        assert!((r.vm_cost - 2.20).abs() < 1e-6, "vm cost {}", r.vm_cost);
    }

    #[test]
    fn parallel_vms_beat_single_vm_on_a_bag() {
        let wf = bag_of_tasks(4, 100.0, 0.0);
        let p = unit_platform();
        let single = simulate(&wf, &p, &single_vm_schedule(&wf), &SimConfig::planning()).unwrap();
        let mut s = Schedule::new(wf.task_count());
        for t in wf.task_ids() {
            let vm = s.add_vm(CategoryId(0));
            s.assign(t, vm);
        }
        let par = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        assert!((single.makespan - 410.0).abs() < 1e-6); // 10 boot + 400
        assert!((par.makespan - 110.0).abs() < 1e-6); // 10 boot + 100
        assert!(par.vm_cost > single.vm_cost - 1e-9); // parallelism costs
    }

    #[test]
    fn fork_join_transfers_serialize_on_sink_link() {
        // 2 branches on 2 VMs; sink back on VM0. Sink needs branch-1 output
        // via DC.
        let wf = fork_join(2, 10.0, 100.0);
        let p = unit_platform();
        let mut s = Schedule::new(wf.task_count());
        let v0 = s.add_vm(CategoryId(0));
        let v1 = s.add_vm(CategoryId(0));
        s.assign(TaskId(0), v0); // source
        s.assign(TaskId(1), v0); // b0
        s.assign(TaskId(2), v1); // b1
        s.assign(TaskId(3), v0); // sink
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        // VM0: boot 10, dl ext 10 -> src 20..30, upload edge->b1 10s ->40.
        // b0 on VM0 30..40. VM1 books at 40, ready 50, dl 10 -> 60,
        // b1 60..70, upload 10 -> 80. Sink needs b1 data: dl on VM0
        // 80..90; sink 90..100; upload ext 100B -> 110. Span 110.
        assert!((r.makespan - 110.0).abs() < 1e-6, "makespan {}", r.makespan);
    }

    #[test]
    fn eq1_eq2_costs_match_formulas() {
        let wf = chain(2, 100.0, 50.0);
        // Non-trivial costs everywhere.
        let p = Platform::new(
            vec![VmCategory::new("u", 1.0, 36.0, 0.5, 10.0)],
            Datacenter::new(10.0, 3.6, 2.0e-3),
        )
        .with_billing(BillingPolicy::Continuous);
        let r = simulate(&wf, &p, &single_vm_schedule(&wf), &SimConfig::planning()).unwrap();
        // Same timeline as chain_on_one_vm: span 220, usage 210.
        let expected_vm = 210.0 * 0.01 + 0.5;
        // external data = 50 in + 50 out; DC usage 220 s at $0.001/s.
        let expected_dc = 100.0 * 2.0e-3 + 220.0 * 0.001;
        assert!((r.vm_cost - expected_vm).abs() < 1e-9, "vm {}", r.vm_cost);
        assert!((r.datacenter_cost - expected_dc).abs() < 1e-9, "dc {}", r.datacenter_cost);
        assert!((r.total_cost - (expected_vm + expected_dc)).abs() < 1e-9);
    }

    #[test]
    fn per_second_billing_rounds_usage_up() {
        let wf = chain(1, 100.5, 0.0);
        let p = Platform::new(
            vec![VmCategory::new("u", 1.0, 36.0, 0.0, 0.0)],
            Datacenter::new(10.0, 0.0, 0.0),
        ); // default per-second billing
        let r = simulate(&wf, &p, &single_vm_schedule(&wf), &SimConfig::planning()).unwrap();
        // Usage 100.5 s -> charged 101 s.
        assert!((r.vm_cost - 1.01).abs() < 1e-9, "vm {}", r.vm_cost);
    }

    #[test]
    fn faster_category_shortens_makespan() {
        let wf = chain(3, 120.0, 0.0);
        let p = Platform::paper_default();
        let mk = |cat: CategoryId| {
            let mut s = Schedule::new(wf.task_count());
            let vm = s.add_vm(cat);
            for &t in wf.topological_order() {
                s.assign(t, vm);
            }
            simulate(&wf, &p, &s, &SimConfig::planning()).unwrap().makespan
        };
        let slow = mk(CategoryId(0));
        let fast = mk(CategoryId(2));
        assert!(fast < slow, "fast {fast} !< slow {slow}");
    }

    #[test]
    fn conservative_weights_dominate_mean() {
        let wf = montage(GenConfig::new(30, 1)); // σ = 50 % of mean
        let p = Platform::paper_default();
        let s = single_vm_schedule(&wf);
        let mean = simulate(&wf, &p, &s, &SimConfig::new(WeightModel::Mean)).unwrap();
        let cons = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        assert!(cons.makespan > mean.makespan);
        assert!(cons.total_cost >= mean.total_cost);
    }

    #[test]
    fn stochastic_runs_reproducible_and_vary_across_seeds() {
        let wf = montage(GenConfig::new(30, 1));
        let p = Platform::paper_default();
        let s = single_vm_schedule(&wf);
        let a = simulate(&wf, &p, &s, &SimConfig::stochastic(5)).unwrap();
        let b = simulate(&wf, &p, &s, &SimConfig::stochastic(5)).unwrap();
        let c = simulate(&wf, &p, &s, &SimConfig::stochastic(6)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.makespan, c.makespan);
    }

    #[test]
    fn finite_dc_capacity_slows_concurrent_transfers() {
        // 4 tasks on 4 VMs, each with a large external input: with
        // aggregate capacity = one link, downloads contend.
        let wf = bag_of_tasks(4, 10.0, 1000.0);
        let p = unit_platform();
        let mut s = Schedule::new(wf.task_count());
        for t in wf.task_ids() {
            let vm = s.add_vm(CategoryId(0));
            s.assign(t, vm);
        }
        let inf = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        let lim = simulate(&wf, &p, &s, &SimConfig::planning().with_dc_capacity(10.0)).unwrap();
        // Infinite: boot 10 + dl 100 + exec 10 + ul 100 = 220, all VMs in
        // parallel. Finite 10 B/s shared 4-way: transfers take 4x longer.
        assert!((inf.makespan - 220.0).abs() < 1e-6, "inf {}", inf.makespan);
        assert!(lim.makespan > inf.makespan + 200.0, "lim {}", lim.makespan);
    }

    #[test]
    fn invalid_schedule_rejected() {
        let wf = chain(2, 10.0, 0.0);
        let p = unit_platform();
        let s = Schedule::new(wf.task_count()); // nothing assigned
        match simulate(&wf, &p, &s, &SimConfig::planning()) {
            Err(SimError::Schedule(ScheduleError::Unassigned(t))) => assert_eq!(t, TaskId(0)),
            other => panic!("expected Unassigned, got {other:?}"),
        }
    }

    /// Zero, negative, NaN and infinite rates are refused up front instead
    /// of stalling the event loop forever.
    #[test]
    fn non_positive_or_non_finite_rates_rejected() {
        let wf = chain(2, 10.0, 5.0);
        let s = single_vm_schedule(&wf);
        let cfg = SimConfig::planning();
        let check = |p: &Platform, cfg: &SimConfig, field: RateField, bad: f64| {
            let errs = [
                simulate(&wf, p, &s, cfg).unwrap_err(),
                simulate_with_faults(&wf, p, &s, cfg, &FaultConfig::none(), &mut NoopSink)
                    .unwrap_err(),
            ];
            for e in errs {
                match e {
                    SimError::InvalidRate { field: f, value } => {
                        assert_eq!(f, field);
                        assert!(value.to_bits() == bad.to_bits(), "{value} != {bad}");
                    }
                    other => panic!("expected InvalidRate for {field}, got {other:?}"),
                }
            }
        };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut p = unit_platform();
            p.datacenter.bandwidth = bad;
            check(&p, &cfg, RateField::DatacenterBandwidth, bad);
            let msg = simulate(&wf, &p, &s, &cfg).unwrap_err().to_string();
            assert!(msg.contains("datacenter bandwidth"), "{msg}");

            let slow = VmCategory { speed: bad, ..VmCategory::new("u", 1.0, 36.0, 0.0, 10.0) };
            let p = Platform::new(vec![slow], Datacenter::new(10.0, 0.0, 0.0));
            check(&p, &cfg, RateField::CategorySpeed(CategoryId(0)), bad);

            let capped = SimConfig { dc_capacity: DcCapacity::Finite(bad), ..cfg };
            check(&unit_platform(), &capped, RateField::DcCapacity, bad);
        }
    }

    /// Negative, NaN and infinite prices and boot times are refused; zero
    /// is a valid price or delay.
    #[test]
    fn negative_or_non_finite_prices_and_boot_times_rejected() {
        let wf = chain(2, 10.0, 5.0);
        let s = single_vm_schedule(&wf);
        let cfg = SimConfig::planning();
        let c0 = CategoryId(0);
        type Edit = fn(&mut VmCategory, &mut Datacenter, f64);
        let edits: [(RateField, Edit); 5] = [
            (RateField::CategoryCostPerHour(c0), |c, _, x| c.cost_per_hour = x),
            (RateField::CategoryInitCost(c0), |c, _, x| c.init_cost = x),
            (RateField::CategoryBootTime(c0), |c, _, x| c.boot_time = x),
            (RateField::DatacenterCostPerHour, |_, dc, x| dc.cost_per_hour = x),
            (RateField::DatacenterIoCost, |_, dc, x| dc.io_cost_per_byte = x),
        ];
        // `unit_platform` with one value edited past the constructors' checks.
        let edited = |edit: Edit, x: f64| {
            let mut cat = VmCategory::new("u", 1.0, 36.0, 0.0, 10.0);
            let mut dc = Datacenter::new(10.0, 0.0, 0.0);
            edit(&mut cat, &mut dc, x);
            Platform::new(vec![cat], dc).with_billing(BillingPolicy::Continuous)
        };
        for (field, edit) in edits {
            assert_eq!(check_rates(&edited(edit, 0.0), &cfg), Ok(()), "{field} = 0 is valid");
            for bad in [-1.0, -1e-12, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let p = edited(edit, bad);
                match simulate(&wf, &p, &s, &cfg).unwrap_err() {
                    SimError::InvalidRate { field: f, value } => {
                        assert_eq!(f, field);
                        assert!(value.to_bits() == bad.to_bits(), "{value} != {bad}");
                    }
                    other => panic!("expected InvalidRate for {field}, got {other:?}"),
                }
                let msg = check_rates(&p, &cfg).unwrap_err().to_string();
                assert!(msg.contains(&format!("{field} must be finite and >= 0")), "{msg}");
            }
        }
    }

    /// A deserialized platform can bypass `Platform::new`'s non-empty check.
    #[test]
    fn empty_platform_rejected() {
        let mut json: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&unit_platform()).unwrap()).unwrap();
        json["categories"] = serde_json::Value::Array(Vec::new());
        let p: Platform = serde_json::from_str(&json.to_json()).unwrap();
        let err = check_rates(&p, &SimConfig::planning()).unwrap_err();
        assert_eq!(err, SimError::NoCategories);
        assert!(err.to_string().contains("no VM categories"), "{err}");
        assert_eq!(check_rates(&unit_platform(), &SimConfig::planning()), Ok(()));
    }

    #[test]
    fn zero_size_edges_execute_instantly() {
        let mut b = WorkflowBuilder::new("z");
        let a = b.add_task("a", StochasticWeight::fixed(10.0));
        let c = b.add_task("b", StochasticWeight::fixed(10.0));
        b.add_edge(a, c, 0.0).unwrap();
        let wf = b.build().unwrap();
        let p = unit_platform();
        let mut s = Schedule::new(wf.task_count());
        let v0 = s.add_vm(CategoryId(0));
        let v1 = s.add_vm(CategoryId(0));
        s.assign(a, v0);
        s.assign(c, v1);
        let r = simulate(&wf, &p, &s, &SimConfig::planning()).unwrap();
        // boot 10 + t0 10 + ~0 upload; vm1 books ~20, ready 30, t1 30..40.
        assert!((r.makespan - 40.0).abs() < 1e-3, "makespan {}", r.makespan);
    }

    #[test]
    fn tasks_respect_vm_order_even_when_ready_early() {
        // Two independent tasks forced in order on one VM: second waits.
        let wf = bag_of_tasks(2, 100.0, 0.0);
        let p = unit_platform();
        let r = simulate(&wf, &p, &single_vm_schedule(&wf), &SimConfig::planning()).unwrap();
        assert!((r.task(TaskId(1)).start - r.task(TaskId(0)).end).abs() < 1e-9);
    }

    #[test]
    fn montage_simulates_end_to_end() {
        let wf = montage(GenConfig::new(90, 1));
        let p = Platform::paper_default();
        let r = simulate(&wf, &p, &single_vm_schedule(&wf), &SimConfig::stochastic(1)).unwrap();
        assert_eq!(r.tasks.len(), 90);
        assert!(r.makespan > 0.0);
        assert!(r.within_budget(f64::INFINITY));
        // All task intervals positive and non-overlapping on the single VM.
        let mut intervals: Vec<(f64, f64)> = r.tasks.iter().map(|t| (t.start, t.end)).collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in intervals.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-9, "overlap {w:?}");
        }
    }

    #[test]
    fn precedence_constraints_hold_in_simulation() {
        let wf = montage(GenConfig::new(60, 2));
        let p = Platform::paper_default();
        // Round-robin over 5 VMs in topological order (valid).
        let mut s = Schedule::new(wf.task_count());
        let vms: Vec<_> = (0..5).map(|_| s.add_vm(CategoryId(1))).collect();
        for (i, &t) in wf.topological_order().iter().enumerate() {
            s.assign(t, vms[i % 5]);
        }
        let r = simulate(&wf, &p, &s, &SimConfig::stochastic(3)).unwrap();
        for e in wf.edges() {
            let pe = r.task(e.from).end;
            let cs = r.task(e.to).start;
            assert!(cs >= pe - 1e-9, "edge {:?}: consumer starts {cs} before producer ends {pe}", e);
        }
    }
}
