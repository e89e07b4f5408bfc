//! The discrete-event simulation engine.
//!
//! Executes a [`Schedule`] under the paper's platform model (§III):
//!
//! - VMs are booked on demand: a VM starts booting as soon as the remote
//!   inputs of its *first* task are at the datacenter (entry data is there
//!   at t = 0); the boot delay is uncharged, usage is charged from boot end
//!   to the instant the VM's last output byte reaches the datacenter.
//! - All inter-VM data transits through the datacenter: producers upload
//!   each cross-VM edge after completing; consumers download it. Each VM's
//!   link serializes its transfers per direction (this matches Eq. 7, which
//!   sums input sizes), but transfers never slow computation down
//!   (transfer/compute overlap, §III-B assumption (iv)).
//! - Task weights are realized per the configured [`WeightModel`].
//! - The datacenter capacity is infinite by default; the finite mode
//!   fair-shares an aggregate capacity among in-flight transfers.
//!
//! The engine can additionally inject faults from a [`FaultConfig`]
//! (crash-stop VM failures, transient boot failures, datacenter
//! degradation windows — DESIGN.md §9). With [`FaultConfig::none`] no
//! event is injected and no arithmetic changes, so [`simulate`] is
//! bit-identical to the pre-fault engine.
//!
//! [`WeightModel`]: crate::weights::WeightModel

use crate::config::{DcCapacity, SimConfig};
use crate::faults::{sample_exponential, FaultConfig, FaultRun, FaultStats};
use crate::report::{SimulationReport, TaskRecord, VmUsage};
use crate::schedule::{Schedule, ScheduleError, VmId};
use crate::weights::realize_weights;
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wfs_observe::{Event as Obs, EventSink, NoopSink};
use wfs_platform::{CategoryId, Platform};
use wfs_workflow::{EdgeId, TaskId, Workflow};

/// Widen a dense VM index into the `u32` observability id space.
#[inline]
fn vm_u32(v: usize) -> u32 {
    v as u32
}

/// Time comparison tolerance (seconds): a discrete event fires once the
/// clock is within `T_EPS` of its time, and a transfer finishes once the
/// time it still needs is below `max(T_EPS, now·ε)`. A run's event times
/// can therefore lead exact arithmetic by up to `T_EPS` per event.
pub const T_EPS: f64 = 1e-9;
/// Bytes below which a transfer is considered drained; every transfer
/// moves at least this many bytes.
pub const B_EPS: f64 = 1e-6;

/// Event-loop iterations [`SimError::LivenessBound`] allows per task, edge
/// and VM of a run, for each event stream in play. An iteration is a clock
/// advance or an event pop; every clock advance completes a transfer or
/// reaches an event, and a run has at most a few of those per item: a
/// download and an upload per edge, external input and output transfers
/// and one completion per task, one boot and one crash per VM. Degradation
/// windows are the one stream not tied to an item, so enabling them
/// doubles the allowance. Runs of the test suite, the `results/` tables and
/// the benchmark stay more than 100x below the bound.
const ITERATIONS_PER_ITEM: u64 = 1 << 10;

/// A platform or capacity value [`check_rates`] refused, named in
/// [`SimError::InvalidRate`]: a rate the engine divides by, or a price or
/// delay, which bills and times must not run backwards on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateField {
    /// The datacenter bandwidth (`Platform::datacenter.bandwidth`).
    DatacenterBandwidth,
    /// The speed of one VM category.
    CategorySpeed(CategoryId),
    /// The aggregate capacity of [`DcCapacity::Finite`].
    DcCapacity,
    /// The hourly cost of one VM category.
    CategoryCostPerHour(CategoryId),
    /// The one-time init cost of one VM category.
    CategoryInitCost(CategoryId),
    /// The boot delay of one VM category.
    CategoryBootTime(CategoryId),
    /// The datacenter's hourly cost (`Platform::datacenter.cost_per_hour`).
    DatacenterCostPerHour,
    /// The datacenter's boundary transfer cost per byte.
    DatacenterIoCost,
}

impl RateField {
    /// Whether the field must be strictly positive (a divisor) rather than
    /// merely non-negative (a price or a delay).
    fn is_divisor(self) -> bool {
        matches!(
            self,
            RateField::DatacenterBandwidth | RateField::CategorySpeed(_) | RateField::DcCapacity
        )
    }
}

impl std::fmt::Display for RateField {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateField::DatacenterBandwidth => write!(f, "datacenter bandwidth"),
            RateField::CategorySpeed(c) => write!(f, "speed of VM category {}", c.0),
            RateField::DcCapacity => write!(f, "datacenter capacity"),
            RateField::CategoryCostPerHour(c) => write!(f, "cost_per_hour of VM category {}", c.0),
            RateField::CategoryInitCost(c) => write!(f, "init_cost of VM category {}", c.0),
            RateField::CategoryBootTime(c) => write!(f, "boot_time of VM category {}", c.0),
            RateField::DatacenterCostPerHour => write!(f, "datacenter cost_per_hour"),
            RateField::DatacenterIoCost => write!(f, "datacenter io_cost_per_byte"),
        }
    }
}

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The schedule failed validation.
    Schedule(ScheduleError),
    /// A bandwidth, speed or capacity is zero, negative, NaN or infinite,
    /// or a price or boot time is negative, NaN or infinite. Deserialized
    /// platforms and the public `datacenter` field bypass the constructors'
    /// checks; without this one, a zero rate would make every transfer or
    /// task take forever and the event loop never end, and a negative
    /// price or boot delay would bill or schedule backwards.
    InvalidRate {
        /// Which rate.
        field: RateField,
        /// Its offending value.
        value: f64,
    },
    /// The platform has no VM category to run anything on.
    NoCategories,
    /// The simulation stalled with unfinished tasks (should be impossible
    /// for validated schedules without faults; kept as a defensive
    /// backstop).
    Stalled {
        /// Number of tasks that did complete.
        completed: usize,
        /// Ids of the tasks that never completed, in id order.
        unfinished: Vec<TaskId>,
    },
    /// The event loop ran past its liveness bound without draining: fault
    /// events arrive faster than simulated time can advance (for example
    /// degradation windows far shorter than the clock resolution at the
    /// current instant). The bound is 1024 iterations per task, edge and
    /// VM of the run, twice that with degradation windows enabled.
    LivenessBound {
        /// The bound that was exceeded (loop iterations).
        iterations: u64,
        /// Simulated instant reached (seconds).
        now: f64,
        /// Number of tasks that did complete.
        completed: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Schedule(e) => write!(f, "invalid schedule: {e}"),
            SimError::InvalidRate { field, value } => {
                let least = if field.is_divisor() { "> 0" } else { ">= 0" };
                write!(f, "invalid platform value: {field} must be finite and {least}, got {value}")
            }
            SimError::NoCategories => write!(f, "the platform has no VM categories"),
            SimError::Stalled { completed, unfinished } => {
                write!(f, "simulation stalled after {completed} tasks; unfinished:")?;
                for t in unfinished.iter().take(8) {
                    write!(f, " T{}", t.0)?;
                }
                if unfinished.len() > 8 {
                    write!(f, " … ({} total)", unfinished.len())?;
                }
                Ok(())
            }
            SimError::LivenessBound { iterations, now, completed } => write!(
                f,
                "event loop exceeded its liveness bound of {iterations} iterations at \
                 t = {now:?} s after {completed} tasks (fault events denser than the clock \
                 can advance)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ScheduleError> for SimError {
    fn from(e: ScheduleError) -> Self {
        SimError::Schedule(e)
    }
}

/// Check every rate the engine divides by (finite and strictly positive),
/// every price and boot time (finite and non-negative), and that the
/// platform has at least one VM category. [`simulate`] runs it first;
/// callers that plan on a deserialized platform run it at load time, since
/// the planners divide by the same rates and bill with the same prices.
pub fn check_rates(platform: &Platform, config: &SimConfig) -> Result<(), SimError> {
    if platform.categories().is_empty() {
        return Err(SimError::NoCategories);
    }
    let check = |field: RateField, value: f64| {
        let least_ok = if field.is_divisor() { value > 0.0 } else { value >= 0.0 };
        if value.is_finite() && least_ok {
            Ok(())
        } else {
            Err(SimError::InvalidRate { field, value })
        }
    };
    let dc = &platform.datacenter;
    check(RateField::DatacenterBandwidth, dc.bandwidth)?;
    check(RateField::DatacenterCostPerHour, dc.cost_per_hour)?;
    check(RateField::DatacenterIoCost, dc.io_cost_per_byte)?;
    for (c, cat) in platform.categories().iter().enumerate() {
        let id = CategoryId(u32::try_from(c).unwrap_or(u32::MAX));
        check(RateField::CategorySpeed(id), cat.speed)?;
        check(RateField::CategoryCostPerHour(id), cat.cost_per_hour)?;
        check(RateField::CategoryInitCost(id), cat.init_cost)?;
        check(RateField::CategoryBootTime(id), cat.boot_time)?;
    }
    match config.dc_capacity {
        DcCapacity::Infinite => Ok(()),
        DcCapacity::Finite(cap) => check(RateField::DcCapacity, cap),
    }
}

/// The lowest set bit of the bitset `bits` in `start..end`, if any: the
/// first word is masked below `start`, and a bit at or past `end` belongs
/// to the next run.
fn first_set(bits: &[u64], start: usize, end: usize) -> Option<usize> {
    if start >= end {
        return None;
    }
    let mut w = start / 64;
    let mut word = bits[w] & (u64::MAX << (start % 64));
    loop {
        if word != 0 {
            let i = w * 64 + word.trailing_zeros() as usize;
            return (i < end).then_some(i);
        }
        w += 1;
        if w * 64 >= end {
            return None;
        }
        word = bits[w];
    }
}

/// Discrete events other than transfer completions.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    BootDone(usize),
    TaskDone { vm: usize, task: TaskId },
    /// Crash-stop failure of a VM (fault injection).
    VmCrash(usize),
    /// A datacenter degradation window opens (fault injection).
    DegradeStart,
    /// The current degradation window closes (fault injection).
    DegradeEnd,
}

impl Event {
    /// Events that represent pending *work* (as opposed to injected
    /// faults). The degradation stream re-arms itself only while work
    /// remains, which guarantees the event loop drains.
    fn is_work(self) -> bool {
        matches!(self, Event::BootDone(_) | Event::TaskDone { .. })
    }
}

/// Heap entry ordered by (time, sequence) — sequence keeps pops FIFO-stable
/// among simultaneous events, making runs bit-reproducible.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        // Delegate to the total order so `==` agrees with `Ord` even for
        // pathological times (NaN) instead of comparing floats bitwise.
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A pending download: data some task on this VM needs from the datacenter.
#[derive(Debug, Clone, Copy)]
struct Download {
    task: TaskId,
    /// `None` = external input (at the datacenter from t = 0).
    edge: Option<EdgeId>,
    bytes: f64,
}

/// A pending upload: data a completed task must push to the datacenter.
#[derive(Debug, Clone, Copy)]
struct Upload {
    /// The producing task (durability tracking for external outputs).
    task: TaskId,
    /// `None` = external output.
    edge: Option<EdgeId>,
    bytes: f64,
}

/// An in-flight transfer on some VM's link. Every in-flight transfer runs
/// at the engine's one shared [`Engine::rate`].
#[derive(Debug, Clone, Copy)]
struct Active {
    vm: usize,
    payload: TransferPayload,
    remaining: f64,
}

impl Active {
    fn is_up(&self) -> bool {
        matches!(self.payload, TransferPayload::Upload(_))
    }
}

#[derive(Debug, Clone, Copy)]
enum TransferPayload {
    /// Slot in [`Engine::downloads`].
    Download(usize),
    Upload(Upload),
}

struct VmState<'a> {
    order: &'a [TaskId],
    next_idx: usize,
    booked_at: Option<f64>,
    ready: bool,
    ready_at: f64,
    proc_busy: bool,
    in_busy: bool,
    out_busy: bool,
    /// This VM's downloads are `downloads[dl_start..dl_end]` of the flat
    /// array.
    dl_start: usize,
    dl_end: usize,
    /// This VM's upload queue is `uploads[up_head..up_tail]` of the flat
    /// array; its slice is sized at construction for every upload the VM
    /// can ever queue.
    up_head: usize,
    up_tail: usize,
    /// Cross-VM input edges of the first task still missing from the
    /// datacenter — the boot gate.
    boot_gate: usize,
    last_activity: f64,
    /// Crashed, or abandoned after exhausting boot retries. Dead VMs run
    /// nothing and transfer nothing for the rest of the run.
    dead: bool,
}

struct Engine<'a, S: EventSink> {
    sink: &'a mut S,
    wf: &'a Workflow,
    platform: &'a Platform,
    schedule: &'a Schedule,
    weights: Vec<f64>,
    dc_capacity: DcCapacity,
    faults: FaultConfig,
    now: f64,
    seq: u64,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    active: Vec<Active>,
    /// The rate of every in-flight transfer: `share_rate(active.len())`
    /// under the current degradation factor. Kept exact by calling
    /// [`Engine::recompute_rates`] after every change to either.
    rate: f64,
    vms: Vec<VmState<'a>>,
    /// Every VM's downloads, one contiguous run per VM, each run sorted by
    /// (position of the consuming task in the VM order, edge id) with an
    /// external input after an edge of id 0: the selection order, so the
    /// first eligible slot is the one to start.
    downloads: Vec<Download>,
    /// One bit per slot of `downloads`: set while its data is at the
    /// datacenter and its download has not started. Set at construction
    /// for external inputs and by [`Engine::on_upload_done`] for edges;
    /// cleared when the download starts.
    dl_ready: Vec<u64>,
    /// Per edge: its slot in `downloads` (cross-VM edges only).
    download_of_edge: Vec<usize>,
    /// Every VM's upload queue, one fixed slice per VM.
    uploads: Vec<Upload>,
    /// The event loop's per-iteration scratch of finished transfers.
    done_transfers: Vec<Active>,
    /// Remaining unsatisfied inputs per task (local preds + downloads).
    missing: Vec<usize>,
    done: Vec<bool>,
    edge_at_dc: Vec<bool>,
    /// Per task: external output uploaded to the datacenter.
    ext_out_done: Vec<bool>,
    /// Per VM: actual boot delay including fault retries.
    boot_delay: Vec<Option<f64>>,
    records: Vec<TaskRecord>,
    completed: usize,
    /// Pending work events (BootDone/TaskDone) in the heap.
    work_events: usize,
    /// Bandwidth multiplier of the active degradation window (1.0 = none).
    bw_factor: f64,
    /// Start of the active degradation window.
    window_start: f64,
    degrade_rng: StdRng,
    stats: FaultStats,
}

impl<'a, S: EventSink> Engine<'a, S> {
    fn new(
        wf: &'a Workflow,
        platform: &'a Platform,
        schedule: &'a Schedule,
        config: &SimConfig,
        faults: &FaultConfig,
        sink: &'a mut S,
    ) -> Self {
        let n = wf.task_count();
        let weights = realize_weights(wf, config.weights);
        let mut vms: Vec<VmState<'a>> = schedule
            .vm_ids()
            .map(|v| VmState {
                order: schedule.order(v),
                next_idx: 0,
                booked_at: None,
                ready: false,
                ready_at: 0.0,
                proc_busy: false,
                in_busy: false,
                out_busy: false,
                dl_start: 0,
                dl_end: 0,
                up_head: 0,
                up_tail: 0,
                boot_gate: 0,
                last_activity: 0.0,
                dead: false,
            })
            .collect();

        // Size the flat buffers: every cross-VM edge is one upload on its
        // producer's VM and one download on its consumer's; external data
        // adds one of each per task that has some.
        let mut n_downloads = 0;
        let mut n_uploads = 0;
        for vm in &mut vms {
            vm.up_head = n_uploads;
            for &t in vm.order {
                let task = wf.task(t);
                let cross_out =
                    wf.out_edges(t).iter().filter(|&&e| schedule.is_cross_vm(wf, e)).count();
                n_uploads += cross_out + usize::from(task.external_output > 0.0);
                n_downloads += cross_out + usize::from(task.external_input > 0.0);
            }
            vm.up_tail = vm.up_head;
        }
        let placeholder = Upload { task: TaskId(0), edge: None, bytes: 0.0 };
        let uploads = vec![placeholder; n_uploads];

        // Downloads in selection order: VM by VM, task by task along the
        // VM order, each task's inputs by edge id.
        let mut missing = vec![0usize; n];
        let mut downloads = Vec::with_capacity(n_downloads);
        for vm in &mut vms {
            let first_dl = downloads.len();
            for &t in vm.order {
                let task_dl = downloads.len();
                let inputs = wf.in_edges(t);
                missing[t.index()] = inputs.len();
                for &e in inputs {
                    // Same-VM edges are satisfied directly at producer completion.
                    if schedule.is_cross_vm(wf, e) {
                        downloads.push(Download { task: t, edge: Some(e), bytes: wf.edge(e).size });
                    }
                }
                if t == vm.order[0] {
                    vm.boot_gate = downloads.len() - task_dl;
                }
                let ext = wf.task(t).external_input;
                if ext > 0.0 {
                    missing[t.index()] += 1;
                    downloads.push(Download { task: t, edge: None, bytes: ext });
                }
                downloads[task_dl..]
                    .sort_unstable_by_key(|d| (d.edge.map_or(0, |e| e.0), d.edge.is_none()));
            }
            vm.dl_start = first_dl;
            vm.dl_end = downloads.len();
        }
        let mut download_of_edge = vec![usize::MAX; wf.edge_count()];
        let mut dl_ready = vec![0u64; downloads.len().div_ceil(64)];
        for (slot, d) in downloads.iter().enumerate() {
            match d.edge {
                Some(e) => download_of_edge[e.index()] = slot,
                // External inputs are at the datacenter from t = 0.
                None => dl_ready[slot / 64] |= 1 << (slot % 64),
            }
        }

        // Records start zeroed but carry their real task id, so partial
        // (faulted) runs report unambiguous `end == 0` placeholders.
        let mut records = vec![
            TaskRecord {
                task: TaskId(0),
                vm: VmId(0),
                start: 0.0,
                end: 0.0,
                realized_weight: 0.0,
            };
            n
        ];
        for (t, r) in wf.task_ids().zip(records.iter_mut()) {
            r.task = t;
        }

        // Per VM at most one pending work event, one crash and one
        // transfer per direction; plus one degradation event.
        let n_vms = vms.len();
        let mut engine = Self {
            sink,
            wf,
            platform,
            schedule,
            weights,
            dc_capacity: config.dc_capacity,
            faults: *faults,
            now: 0.0,
            seq: 0,
            heap: BinaryHeap::with_capacity(2 * n_vms + 1),
            active: Vec::with_capacity(2 * n_vms),
            rate: 0.0,
            vms,
            downloads,
            dl_ready,
            download_of_edge,
            uploads,
            done_transfers: Vec::with_capacity(2 * n_vms),
            missing,
            done: vec![false; n],
            edge_at_dc: vec![false; wf.edge_count()],
            ext_out_done: vec![false; n],
            boot_delay: vec![None; n_vms],
            records,
            completed: 0,
            work_events: 0,
            bw_factor: 1.0,
            window_start: 0.0,
            degrade_rng: faults.degrade_rng(),
            stats: FaultStats::default(),
        };
        engine.recompute_rates();
        engine
    }

    fn push_event(&mut self, time: f64, event: Event) {
        if event.is_work() {
            self.work_events += 1;
        }
        self.seq += 1;
        self.heap.push(Reverse(HeapEntry { time, seq: self.seq, event }));
    }

    /// Current datacenter bandwidth; scaled down inside a degradation
    /// window. With `bw_factor == 1.0` the product is IEEE-exact, keeping
    /// fault-free runs bit-identical.
    fn bandwidth(&self) -> f64 {
        self.platform.datacenter.bandwidth * self.bw_factor
    }

    /// Fair-share rate under the current number of in-flight transfers.
    /// Degradation windows scale the aggregate capacity too — the window
    /// models the datacenter side of the link, not a single VM NIC.
    fn share_rate(&self, n_active: usize) -> f64 {
        match self.dc_capacity {
            DcCapacity::Infinite => self.bandwidth(),
            DcCapacity::Finite(cap) => {
                self.bandwidth().min(cap * self.bw_factor / n_active.max(1) as f64)
            }
        }
    }

    /// Re-derive the shared transfer rate; called after every change to
    /// the in-flight set or to the degradation factor.
    fn recompute_rates(&mut self) {
        self.rate = self.share_rate(self.active.len());
    }

    fn book_vm(&mut self, v: usize) {
        debug_assert!(self.vms[v].booked_at.is_none());
        self.vms[v].booked_at = Some(self.now);
        let cat = self.schedule.vm_category(VmId(vm_u32(v)));
        if S::ENABLED {
            self.sink.record(&Obs::VmBooked { vm: vm_u32(v), category: cat.0, t: self.now });
        }
        let boot = self.platform.category(cat).boot_time;
        let mut delay = boot;
        if let Some(bf) = self.faults.boot {
            let mut rng = self.faults.boot_rng(v);
            let mut failures: u32 = 0;
            // Each attempt fails independently; every failure repeats the
            // boot delay scaled by the retry backoff. Boot time is
            // uncharged (§III), so abandoned instances bill nothing.
            while rng.gen::<f64>() < bf.fail_prob {
                failures += 1;
                if failures > bf.max_retries {
                    self.stats.boot_retries += bf.max_retries as usize;
                    self.stats.boot_abandoned += 1;
                    self.vms[v].dead = true;
                    if S::ENABLED {
                        self.sink.record(&Obs::BootAbandoned { vm: vm_u32(v), t: self.now });
                    }
                    return;
                }
                delay += boot * bf.backoff.powf(f64::from(failures));
            }
            self.stats.boot_retries += failures as usize;
        }
        self.boot_delay[v] = Some(delay);
        self.push_event(self.now + delay, Event::BootDone(v));
    }

    /// Start the best ready pending download on `v`, if its in-link is free:
    /// the first slot of the VM's pre-sorted run whose [`Engine::dl_ready`]
    /// bit is set. Inputs of earlier tasks come first, so prefetching never
    /// starves the next task to run.
    fn try_start_download(&mut self, v: usize) {
        let vm = &mut self.vms[v];
        if !vm.ready || vm.dead || vm.in_busy {
            return;
        }
        let Some(i) = first_set(&self.dl_ready, vm.dl_start, vm.dl_end) else {
            return;
        };
        vm.in_busy = true;
        self.dl_ready[i / 64] &= !(1 << (i % 64));
        let d = &self.downloads[i];
        if S::ENABLED {
            self.sink.record(&Obs::TransferStarted {
                vm: vm_u32(v),
                up: false,
                edge: d.edge.map_or(-1, |e| i64::from(e.0)),
                bytes: d.bytes,
                t: self.now,
            });
        }
        let remaining = d.bytes.max(B_EPS);
        self.active.push(Active { vm: v, payload: TransferPayload::Download(i), remaining });
        self.recompute_rates();
    }

    /// Start the next queued upload on `v`, if its out-link is free.
    fn try_start_upload(&mut self, v: usize) {
        let vm = &mut self.vms[v];
        if vm.out_busy || vm.dead || vm.up_head == vm.up_tail {
            return;
        }
        let u = self.uploads[vm.up_head];
        vm.up_head += 1;
        vm.out_busy = true;
        if S::ENABLED {
            self.sink.record(&Obs::TransferStarted {
                vm: vm_u32(v),
                up: true,
                edge: u.edge.map_or(-1, |e| i64::from(e.0)),
                bytes: u.bytes,
                t: self.now,
            });
        }
        self.active.push(Active {
            vm: v,
            payload: TransferPayload::Upload(u),
            remaining: u.bytes.max(B_EPS),
        });
        self.recompute_rates();
    }

    /// Append an upload to `v`'s queue slice.
    fn queue_upload(&mut self, v: usize, u: Upload) {
        let vm = &mut self.vms[v];
        self.uploads[vm.up_tail] = u;
        vm.up_tail += 1;
    }

    /// Start the next task on `v` if the processor is free and inputs are in.
    fn try_start_compute(&mut self, v: usize) {
        let vm = &self.vms[v];
        if !vm.ready || vm.dead || vm.proc_busy || vm.next_idx >= vm.order.len() {
            return;
        }
        let t = vm.order[vm.next_idx];
        if self.missing[t.index()] > 0 {
            return;
        }
        let cat = self.platform.category(self.schedule.vm_category(VmId(vm_u32(v))));
        let dur = self.weights[t.index()] / cat.speed;
        self.records[t.index()] = TaskRecord {
            task: t,
            vm: VmId(vm_u32(v)),
            start: self.now,
            end: self.now + dur,
            realized_weight: self.weights[t.index()],
        };
        self.vms[v].proc_busy = true;
        if S::ENABLED {
            self.sink.record(&Obs::TaskStarted { task: t.0, vm: vm_u32(v), t: self.now });
        }
        self.push_event(self.now + dur, Event::TaskDone { vm: v, task: t });
    }

    fn on_task_done(&mut self, v: usize, t: TaskId) {
        if S::ENABLED {
            self.sink.record(&Obs::TaskFinished { task: t.0, vm: vm_u32(v), t: self.now });
        }
        self.done[t.index()] = true;
        self.completed += 1;
        self.vms[v].proc_busy = false;
        self.vms[v].next_idx += 1;
        self.vms[v].last_activity = self.now;
        // Satisfy same-VM consumers; queue uploads for cross-VM edges.
        for &e in self.wf.out_edges(t) {
            if self.schedule.is_cross_vm(self.wf, e) {
                let bytes = self.wf.edge(e).size;
                self.queue_upload(v, Upload { task: t, edge: Some(e), bytes });
            } else {
                let c = self.wf.edge(e).to;
                self.missing[c.index()] -= 1;
                // Consumer is on this same VM.
                self.try_start_compute(v);
            }
        }
        let ext_out = self.wf.task(t).external_output;
        if ext_out > 0.0 {
            self.queue_upload(v, Upload { task: t, edge: None, bytes: ext_out });
        }
        self.try_start_upload(v);
        self.try_start_compute(v);
    }

    fn on_boot_done(&mut self, v: usize) {
        self.vms[v].ready = true;
        self.vms[v].ready_at = self.now;
        self.vms[v].last_activity = self.now;
        if S::ENABLED {
            self.sink.record(&Obs::VmReady { vm: vm_u32(v), t: self.now });
        }
        // Crash-stop fault: the VM's time-to-failure starts ticking the
        // moment it becomes operational.
        if let Some(cm) = self.faults.crash {
            let mut rng = self.faults.crash_rng(v);
            let ttf = cm.sample_ttf(&mut rng);
            if ttf.is_finite() {
                self.push_event(self.now + ttf, Event::VmCrash(v));
            }
        }
        self.try_start_download(v);
        self.try_start_compute(v);
    }

    /// Crash-stop failure: in-flight work and transfers are lost; the
    /// occupied interval up to the crash stays billed (Eq. 1).
    fn on_crash(&mut self, v: usize) {
        if self.vms[v].dead {
            return;
        }
        let idle_done = {
            let vm = &self.vms[v];
            vm.next_idx >= vm.order.len()
                && !vm.proc_busy
                && !vm.in_busy
                && !vm.out_busy
                && vm.up_head == vm.up_tail
        };
        if idle_done {
            // The VM already pushed its last byte and would have been
            // released — a later crash hits nothing and bills nothing.
            return;
        }
        self.vms[v].dead = true;
        self.stats.crashes += 1;
        // Billed through the crash instant: the tail since the last
        // completed activity was paid for but produced nothing durable.
        self.stats.wasted_billed_seconds += (self.now - self.vms[v].last_activity).max(0.0);
        self.vms[v].last_activity = self.now;
        // The in-flight task's computation is lost; its stale TaskDone
        // event is skipped at pop via the dead flag.
        if self.vms[v].proc_busy {
            let t = self.vms[v].order[self.vms[v].next_idx];
            self.stats.tasks_lost += 1;
            self.stats.wasted_compute_seconds +=
                (self.now - self.records[t.index()].start).max(0.0);
            let r = &mut self.records[t.index()];
            r.start = 0.0;
            r.end = 0.0;
            r.realized_weight = 0.0;
            self.vms[v].proc_busy = false;
            if S::ENABLED {
                self.sink.record(&Obs::TaskAborted { task: t.0, vm: vm_u32(v), t: self.now });
            }
        }
        // In-flight transfers on this VM's link die with it.
        if S::ENABLED {
            for a in self.active.iter().filter(|a| a.vm == v) {
                self.sink.record(&Obs::TransferAborted {
                    vm: vm_u32(v),
                    up: a.is_up(),
                    t: self.now,
                });
            }
            self.sink.record(&Obs::VmCrashed { vm: vm_u32(v), t: self.now });
        }
        self.active.retain(|a| a.vm != v);
        self.recompute_rates();
        let vm = &mut self.vms[v];
        vm.up_head = vm.up_tail;
        vm.in_busy = false;
        vm.out_busy = false;
    }

    /// Any work left that degradation windows could still affect?
    fn work_remains(&self) -> bool {
        self.work_events > 0 || !self.active.is_empty()
    }

    fn on_degrade_start(&mut self) {
        let Some(dm) = self.faults.degradation else { return };
        if !self.work_remains() {
            // Quiescent: stop the window stream so the event loop drains.
            return;
        }
        self.bw_factor = dm.factor;
        self.window_start = self.now;
        self.stats.degradation_windows += 1;
        if S::ENABLED {
            self.sink.record(&Obs::DegradationStarted { t: self.now, factor: dm.factor });
        }
        self.recompute_rates();
        let dur = sample_exponential(dm.mean_duration, &mut self.degrade_rng);
        self.push_event(self.now + dur, Event::DegradeEnd);
    }

    fn on_degrade_end(&mut self) {
        let Some(dm) = self.faults.degradation else { return };
        self.stats.degraded_seconds += self.now - self.window_start;
        if S::ENABLED {
            self.sink.record(&Obs::DegradationEnded { t: self.now });
        }
        self.bw_factor = 1.0;
        self.recompute_rates();
        if self.work_remains() {
            let gap = sample_exponential(dm.mean_gap, &mut self.degrade_rng);
            self.push_event(self.now + gap, Event::DegradeStart);
        }
    }

    fn on_download_done(&mut self, v: usize, slot: usize) {
        let d = self.downloads[slot];
        if S::ENABLED {
            self.sink.record(&Obs::TransferFinished {
                vm: vm_u32(v),
                up: false,
                edge: d.edge.map_or(-1, |e| i64::from(e.0)),
                t: self.now,
            });
        }
        self.vms[v].in_busy = false;
        self.vms[v].last_activity = self.now;
        self.missing[d.task.index()] -= 1;
        self.try_start_download(v);
        self.try_start_compute(v);
    }

    fn on_upload_done(&mut self, v: usize, u: Upload) {
        if S::ENABLED {
            self.sink.record(&Obs::TransferFinished {
                vm: vm_u32(v),
                up: true,
                edge: u.edge.map_or(-1, |e| i64::from(e.0)),
                t: self.now,
            });
        }
        self.vms[v].out_busy = false;
        self.vms[v].last_activity = self.now;
        if let Some(e) = u.edge {
            self.edge_at_dc[e.index()] = true;
            let consumer = self.wf.edge(e).to;
            #[allow(clippy::expect_used)] // schedule was validated before simulation
            let cv = self.schedule.assignment(consumer).expect("validated").index();
            let slot = self.download_of_edge[e.index()];
            self.dl_ready[slot / 64] |= 1 << (slot % 64);
            // Boot gate: first-task inputs arriving can trigger the booking.
            if self.vms[cv].booked_at.is_none() {
                if let Some(&first) = self.vms[cv].order.first() {
                    if first == consumer {
                        self.vms[cv].boot_gate -= 1;
                        if self.vms[cv].boot_gate == 0 {
                            self.book_vm(cv);
                        }
                    }
                }
            }
            self.try_start_download(cv);
        } else {
            // External output safely at the datacenter: the producer's
            // result is durable even if its VM dies later.
            self.ext_out_done[u.task.index()] = true;
        }
        self.try_start_upload(v);
    }

    /// The liveness bound of [`Self::run`]: [`ITERATIONS_PER_ITEM`] loop
    /// iterations per task, edge and VM (plus one), per event stream.
    fn loop_bound(&self) -> u64 {
        let items = self.wf.task_count() + self.wf.edge_count() + self.vms.len() + 1;
        let streams = 1 + u64::from(self.faults.degradation.is_some());
        u64::try_from(items)
            .unwrap_or(u64::MAX)
            .saturating_mul(ITERATIONS_PER_ITEM * streams)
    }

    /// The error [`Self::run`] returns past [`Self::loop_bound`]. Kept out
    /// of line so the loop's per-iteration check stays a decrement and a
    /// compare.
    #[cold]
    #[inline(never)]
    fn liveness_error(&self) -> SimError {
        SimError::LivenessBound {
            iterations: self.loop_bound(),
            now: self.now,
            completed: self.completed,
        }
    }

    /// Run the event loop to quiescence, or fail with
    /// [`SimError::LivenessBound`] once its clock advances and event pops
    /// together exceed [`Self::loop_bound`].
    fn run(&mut self) -> Result<(), SimError> {
        // Book every VM whose boot gate is already open (first task has no
        // cross-VM inputs: entry tasks, or tasks with same-VM-only preds
        // cannot be first, so this means entries / no inputs).
        for v in 0..self.vms.len() {
            if !self.vms[v].order.is_empty() && self.vms[v].boot_gate == 0 {
                self.book_vm(v);
            }
        }
        // Arm the degradation-window stream.
        if let Some(dm) = self.faults.degradation {
            let gap = sample_exponential(dm.mean_gap, &mut self.degrade_rng);
            self.push_event(self.now + gap, Event::DegradeStart);
        }

        // Iterations left before the liveness bound: every clock advance
        // and every event pop spends one.
        let mut left = self.loop_bound();
        loop {
            if left == 0 {
                return Err(self.liveness_error());
            }
            left -= 1;
            // Next transfer completion, if any. All transfers share one
            // rate and `now + r / rate` is monotone in `r`, so the least
            // remaining volume finishes first.
            let next_xfer: Option<f64> = self
                .active
                .iter()
                .map(|a| a.remaining)
                .min_by(|a, b| a.total_cmp(b))
                .map(|r| self.now + r / self.rate);
            let next_ev: Option<f64> = self.heap.peek().map(|Reverse(h)| h.time);
            let t = match (next_xfer, next_ev) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            debug_assert!(t >= self.now - T_EPS, "time went backwards: {t} < {}", self.now);
            let drained = self.rate * (t - self.now).max(0.0);
            for a in &mut self.active {
                a.remaining -= drained;
            }
            self.now = t;

            // Transfer completions first (deterministic order by vm/dir).
            // A transfer is done when its bytes are drained OR when the
            // time it still needs is below the clock resolution at `now` —
            // without the latter, `now + remaining/rate == now` can stall
            // the clock forever once `now` is large (float underflow).
            let resolution = (self.now.abs() * f64::EPSILON).max(T_EPS);
            let threshold = self.rate * resolution;
            // Remove in descending index order so swap_remove only ever
            // moves an already-checked entry; then order the removed set by
            // (vm, direction) — unique, as each link carries one transfer
            // per direction — for processing.
            let mut done = std::mem::take(&mut self.done_transfers);
            for i in (0..self.active.len()).rev() {
                let r = self.active[i].remaining;
                if r <= B_EPS || r <= threshold {
                    done.push(self.active.swap_remove(i));
                }
            }
            done.sort_unstable_by_key(|a| (a.vm, a.is_up()));
            if !done.is_empty() {
                self.recompute_rates();
            }
            for a in done.drain(..) {
                match a.payload {
                    TransferPayload::Download(slot) => self.on_download_done(a.vm, slot),
                    TransferPayload::Upload(u) => self.on_upload_done(a.vm, u),
                }
            }
            self.done_transfers = done;

            // Then discrete events scheduled at (or before) `now`.
            while let Some(Reverse(h)) = self.heap.peek().copied() {
                if h.time <= self.now + T_EPS {
                    if left == 0 {
                        return Err(self.liveness_error());
                    }
                    left -= 1;
                    self.heap.pop();
                    if h.event.is_work() {
                        self.work_events -= 1;
                    }
                    match h.event {
                        Event::BootDone(v) if !self.vms[v].dead => self.on_boot_done(v),
                        Event::TaskDone { vm, task } if !self.vms[vm].dead => {
                            self.on_task_done(vm, task);
                        }
                        // Stale work events of dead VMs.
                        Event::BootDone(_) | Event::TaskDone { .. } => {}
                        Event::VmCrash(v) => self.on_crash(v),
                        Event::DegradeStart => self.on_degrade_start(),
                        Event::DegradeEnd => self.on_degrade_end(),
                    }
                } else {
                    break;
                }
            }
        }

        if self.faults.is_none() && self.completed != self.wf.task_count() {
            let unfinished: Vec<TaskId> =
                self.wf.task_ids().filter(|t| !self.done[t.index()]).collect();
            return Err(SimError::Stalled { completed: self.completed, unfinished });
        }
        Ok(())
    }

    /// Which tasks are *durably* complete? Data at the datacenter is
    /// durable; data on a VM is volatile (VMs are released — or crashed —
    /// at the end of the run). Computed in reverse topological order:
    /// a task is durable iff it finished, its external output (if any) was
    /// uploaded, and each out-edge either reached the datacenter or fed a
    /// consumer that is itself durable (the value was fully consumed).
    fn durability(&self) -> (Vec<bool>, bool) {
        let n = self.wf.task_count();
        let mut durable = vec![false; n];
        let mut complete = true;
        for &t in self.wf.topological_order().iter().rev() {
            let i = t.index();
            let ext_ok = self.wf.task(t).external_output <= 0.0 || self.ext_out_done[i];
            let outs_ok = self
                .wf
                .out_edges(t)
                .iter()
                .all(|&e| self.edge_at_dc[e.index()] || durable[self.wf.edge(e).to.index()]);
            durable[i] = self.done[i] && ext_ok && outs_ok;
            complete &= durable[i];
        }
        (durable, complete)
    }

    /// Bill the run (Eqs. 1–2) and hand the task records over to the
    /// report. Bill emission mirrors the report arithmetic exactly: one
    /// VmBilled per VM in report order, then DcBilled — a ledger folding
    /// costs in event order reproduces `total_cost` bit-for-bit.
    fn report(&mut self) -> SimulationReport {
        let mut vm_usages = Vec::with_capacity(self.vms.len());
        let mut start_first = f64::INFINITY;
        let mut end_last: f64 = 0.0;
        let mut vm_cost_total = 0.0;
        for (v, vm) in self.vms.iter().enumerate() {
            let Some(booked) = vm.booked_at else { continue };
            if !vm.ready {
                // Boot never completed (abandoned by a fault): the
                // provider never handed the instance over — nothing billed.
                continue;
            }
            let cat_id = self.schedule.vm_category(VmId(vm_u32(v)));
            let usage = vm.last_activity - vm.ready_at;
            let cost = self.platform.vm_cost(cat_id, usage);
            start_first = start_first.min(booked);
            end_last = end_last.max(vm.last_activity);
            vm_cost_total += cost;
            vm_usages.push(VmUsage {
                vm: VmId(vm_u32(v)),
                category: cat_id,
                booked_at: booked,
                ready_at: vm.ready_at,
                released_at: vm.last_activity,
                cost,
                // Tasks finish in `order`, so the index of the next one
                // counts those run.
                tasks_run: vm.next_idx,
            });
        }
        if !start_first.is_finite() {
            start_first = 0.0;
        }
        let makespan = (end_last - start_first).max(0.0);
        let external = self.wf.external_input_data() + self.wf.external_output_data();
        let dc_cost = self.platform.datacenter.cost(makespan, external);
        if S::ENABLED {
            for u in &vm_usages {
                self.sink.record(&Obs::VmBilled {
                    vm: u.vm.0,
                    category: u.category.0,
                    booked_at: u.booked_at,
                    ready_at: u.ready_at,
                    released_at: u.released_at,
                    cost: u.cost,
                    tasks_run: u32::try_from(u.tasks_run).unwrap_or(u32::MAX),
                });
            }
            self.sink.record(&Obs::DcBilled { cost: dc_cost, makespan });
        }
        SimulationReport {
            makespan,
            vm_cost: vm_cost_total,
            datacenter_cost: dc_cost,
            total_cost: vm_cost_total + dc_cost,
            vms_used: vm_usages.iter().filter(|u| u.tasks_run > 0).count(),
            tasks: std::mem::take(&mut self.records),
            vms: vm_usages,
        }
    }
}

/// Validate `schedule` and simulate the execution of `wf` on `platform`.
pub fn simulate(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    config: &SimConfig,
) -> Result<SimulationReport, SimError> {
    let mut sink = NoopSink;
    simulate_observed(wf, platform, schedule, config, &mut sink)
}

/// [`simulate`] with an event sink: every boot, task, transfer and the
/// final Eq. 1–2 bill are reported to `sink`. With [`NoopSink`] this is
/// the same code path as [`simulate`] (the emissions compile away).
///
/// It runs the same event loop as [`simulate_with_faults`] under
/// [`FaultConfig::none`], but skips the durability pass and the
/// [`FaultRun`] bookkeeping that a fault-free run has no use for.
pub fn simulate_observed<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    config: &SimConfig,
    sink: &mut S,
) -> Result<SimulationReport, SimError> {
    check_rates(platform, config)?;
    schedule.validate(wf)?;
    schedule.check_categories(platform)?;
    let mut engine = Engine::new(wf, platform, schedule, config, &FaultConfig::none(), sink);
    engine.run()?;
    Ok(engine.report())
}

/// Validate `schedule` and simulate with fault injection. With faults the
/// run cannot "stall": tasks stranded by crashed or abandoned VMs simply
/// stay unfinished and the returned [`FaultRun`] reports `complete =
/// false` with the partial cost billed so far. Fault injections (crashes,
/// abandoned boots, degradation windows) and the work they abort are
/// reported to `sink` alongside the regular execution events; pass
/// [`NoopSink`] when nothing listens.
pub fn simulate_with_faults<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    config: &SimConfig,
    faults: &FaultConfig,
    sink: &mut S,
) -> Result<FaultRun, SimError> {
    check_rates(platform, config)?;
    schedule.validate(wf)?;
    schedule.check_categories(platform)?;
    let mut engine = Engine::new(wf, platform, schedule, config, faults, sink);
    engine.run()?;
    let (durable, complete) = engine.durability();
    let report = engine.report();
    Ok(FaultRun {
        report,
        stats: engine.stats,
        finished: engine.done,
        durable,
        boot_delays: engine.boot_delay,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::first_set;

    /// `first_set` against a linear scan of every `start..end` range over
    /// bitsets whose set bits straddle word boundaries.
    #[test]
    fn first_set_matches_a_linear_scan() {
        let len: usize = 200;
        for set in [vec![], vec![0], vec![63], vec![64], vec![5, 70, 130, 199], vec![127, 128]] {
            let mut bits = vec![0u64; len.div_ceil(64)];
            for &i in &set {
                bits[i / 64] |= 1 << (i % 64);
            }
            for start in 0..=len {
                for end in start..=len {
                    let scan = set.iter().copied().filter(|i| (start..end).contains(i)).min();
                    assert_eq!(first_set(&bits, start, end), scan, "{set:?} in {start}..{end}");
                }
            }
        }
    }
}
