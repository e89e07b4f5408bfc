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
use crate::schedule::{refill, Schedule, ScheduleError, ValidateScratch, VmId};
use crate::weights::realize_weights_into;
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

/// [`Replay::download_of_edge`] of an edge whose producer and consumer
/// share a VM.
const SAME_VM: usize = usize::MAX;

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

/// Discrete events other than transfer completions, each naming its VM by
/// index. Four bytes of VM keep a heap entry at 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    BootDone(u32),
    /// The task a VM is running finishes: the one at its order's next
    /// index, which a VM only moves past on this event.
    TaskDone(u32),
    /// Crash-stop failure of a VM (fault injection).
    VmCrash(u32),
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
        matches!(self, Event::BootDone(_) | Event::TaskDone(_))
    }
}

/// Heap entry ordered by (time, sequence) — sequence keeps pops FIFO-stable
/// among simultaneous events, making runs bit-reproducible.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    /// The event's time, its bits mapped so that unsigned order is
    /// `f64::total_cmp`'s order: one integer compare per heap step instead
    /// of a float transform on both sides.
    key: u64,
    seq: u64,
    event: Event,
}

/// `time`'s bits mapped so that unsigned order is `f64::total_cmp`'s
/// order, which is `<`'s order on the (never NaN) instants of a run: a
/// negative value reverses its magnitude order, and a positive one sorts
/// above every negative one.
fn order_key(time: f64) -> u64 {
    let bits = time.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl HeapEntry {
    fn new(time: f64, seq: u64, event: Event) -> Self {
        Self { key: order_key(time), seq, event }
    }

    /// The event's time, exactly as given to [`HeapEntry::new`].
    fn time(&self) -> f64 {
        let k = self.key;
        f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
    }
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
        (self.key, self.seq).cmp(&(other.key, other.seq))
    }
}

/// A pending download: data some task on this VM needs from the datacenter.
#[derive(Debug, Clone, Copy)]
struct Download {
    task: TaskId,
    /// The VM of `task`, whose link downloads it.
    vm: VmId,
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
/// at the run's one shared [`RunState::rate`].
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
    /// Slot in [`Replay::downloads`].
    Download(usize),
    Upload(Upload),
}

/// What a schedule fixes about one VM.
#[derive(Debug, Clone, Copy)]
struct VmPlan {
    /// This VM's order is `order[order_start..order_end]` of the flat array.
    order_start: usize,
    order_end: usize,
    category: CategoryId,
    /// The speed of its category.
    speed: f64,
    /// This VM's downloads are `downloads[dl_start..dl_end]` of the flat
    /// array.
    dl_start: usize,
    dl_end: usize,
    /// This VM's upload queue starts at `uploads[up_start]`; its slice is
    /// sized for every upload the VM can ever queue.
    up_start: usize,
    /// Cross-VM input edges of the first task — the boot gate.
    boot_gate: usize,
}

impl VmPlan {
    fn len(&self) -> usize {
        self.order_end - self.order_start
    }
}

/// What one run changes about one VM.
#[derive(Debug, Clone, Copy)]
struct VmRun {
    next_idx: usize,
    booked_at: Option<f64>,
    ready: bool,
    ready_at: f64,
    proc_busy: bool,
    in_busy: bool,
    out_busy: bool,
    /// This VM's upload queue is `uploads[up_head..up_tail]`.
    up_head: usize,
    up_tail: usize,
    /// Cross-VM input edges of the first task still missing from the
    /// datacenter.
    boot_gate: usize,
    last_activity: f64,
    /// Crashed, or abandoned after exhausting boot retries. Dead VMs run
    /// nothing and transfer nothing for the rest of the run.
    dead: bool,
    /// Actual boot delay including fault retries; `None` until booked, and
    /// for an abandoned boot.
    boot_delay: Option<f64>,
}

/// A schedule compiled for replaying: what the schedule fixes about every
/// run of it, whatever the weights, the datacenter capacity or the faults.
/// [`Replay::compile`] refills it in place from a schedule, so one `Replay`
/// serves many schedules of one workflow without allocating once its
/// buffers have grown; [`Replay::run`] replays the compiled schedule into a
/// [`RunState`].
///
/// ```
/// use wfs_simulator::{simulate, Replay, RunState, Schedule, SimConfig};
/// use wfs_platform::Platform;
/// use wfs_workflow::gen::chain;
///
/// let wf = chain(3, 100.0, 1e6);
/// let platform = Platform::paper_default();
/// let mut s = Schedule::new(wf.task_count());
/// let vm = s.add_vm(platform.cheapest());
/// for t in wf.task_ids() { s.assign(t, vm); }
/// let mut replay = Replay::new(&wf, &platform);
/// replay.compile(&s).unwrap();
/// let mut state = RunState::default();
/// for seed in 0..3 {
///     let cfg = SimConfig::stochastic(seed);
///     let makespan = replay.run(&mut state, &cfg).unwrap().makespan;
///     assert_eq!(makespan, simulate(&wf, &platform, &s, &cfg).unwrap().makespan);
/// }
/// ```
#[derive(Debug)]
pub struct Replay<'a> {
    wf: &'a Workflow,
    platform: &'a Platform,
    /// [`Schedule::validate`]'s buffers.
    check: ValidateScratch,
    vms: Vec<VmPlan>,
    /// Every VM's order, one contiguous run per VM.
    order: Vec<TaskId>,
    /// Every VM's downloads, one contiguous run per VM, each run sorted by
    /// (position of the consuming task in the VM order, edge id) with an
    /// external input after an edge of id 0: the selection order, so the
    /// first eligible slot is the one to start.
    downloads: Vec<Download>,
    /// Per edge: its slot in `downloads`, or [`SAME_VM`] when producer
    /// and consumer share a VM (the edge then needs no transfer).
    download_of_edge: Vec<usize>,
    /// The ready bits a run starts from: those of external inputs, which
    /// are at the datacenter from t = 0 (see [`RunState::dl_ready`]).
    dl_ready: Vec<u64>,
    /// Slots of the flat upload buffer: every cross-VM edge is one upload
    /// on its producer's VM, and external data one more per task that has
    /// some.
    n_uploads: usize,
}

impl<'a> Replay<'a> {
    /// An empty replay of schedules of `wf` on `platform`; compile one
    /// with [`Replay::compile`].
    pub fn new(wf: &'a Workflow, platform: &'a Platform) -> Self {
        Self {
            wf,
            platform,
            check: ValidateScratch::default(),
            vms: Vec::new(),
            order: Vec::new(),
            downloads: Vec::new(),
            download_of_edge: Vec::new(),
            dl_ready: Vec::new(),
            n_uploads: 0,
        }
    }

    /// Validate `schedule` against the workflow and the platform's
    /// categories, and compile it in place of the previous one. A schedule
    /// that fails leaves no VM to replay, so a run then fails with
    /// [`SimError::Stalled`] rather than replaying the previous schedule.
    pub fn compile(&mut self, schedule: &Schedule) -> Result<(), SimError> {
        let (wf, platform) = (self.wf, self.platform);
        self.vms.clear();
        schedule.validate_with(wf, &mut self.check)?;
        schedule.check_categories(platform)?;
        let n = wf.task_count();
        self.vms.reserve(schedule.vm_count());
        self.order.clear();
        self.order.reserve(n);
        for v in schedule.vm_ids() {
            let order = schedule.order(v);
            let category = schedule.vm_category(v);
            self.vms.push(VmPlan {
                order_start: self.order.len(),
                order_end: self.order.len() + order.len(),
                category,
                speed: platform.category(category).speed,
                dl_start: 0,
                dl_end: 0,
                up_start: 0,
                boot_gate: 0,
            });
            self.order.extend_from_slice(order);
        }

        // Size the flat buffers: every cross-VM edge is one upload on its
        // producer's VM and one download on its consumer's; external data
        // adds one of each per task that has some. Each VM's upload count
        // is gathered in its `up_start`, then turned into offsets.
        // Validation left every task assigned to an enrolled VM.
        // Cross-VM edges are marked with slot 0 until the downloads are
        // laid out.
        let vms = &mut self.vms;
        refill(&mut self.download_of_edge, wf.edge_count(), SAME_VM);
        let mut n_downloads = 0;
        for (slot, e) in self.download_of_edge.iter_mut().zip(wf.edges()) {
            let from = schedule.assignment(e.from);
            if from != schedule.assignment(e.to) {
                *slot = 0;
                n_downloads += 1;
                if let Some(v) = from {
                    vms[v.index()].up_start += 1;
                }
            }
        }
        for (t, task) in wf.task_ids().zip(wf.tasks()) {
            if let Some(v) = schedule.assignment(t) {
                vms[v.index()].up_start += usize::from(task.external_output > 0.0);
            }
            n_downloads += usize::from(task.external_input > 0.0);
        }
        let mut n_uploads = 0;
        for vm in vms.iter_mut() {
            n_uploads += std::mem::replace(&mut vm.up_start, n_uploads);
        }
        self.n_uploads = n_uploads;

        // Downloads in selection order: VM by VM, task by task along the
        // VM order, each task's inputs by edge id with its external input
        // after an edge of id 0 (in-edges come in edge-id order, so that is
        // before its first other edge).
        self.downloads.clear();
        self.downloads.reserve(n_downloads);
        refill(&mut self.dl_ready, n_downloads.div_ceil(64), 0);
        for (v, plan) in self.vms.iter_mut().enumerate() {
            let vm = VmId(vm_u32(v));
            plan.dl_start = self.downloads.len();
            for i in plan.order_start..plan.order_end {
                let t = self.order[i];
                let task_dl = self.downloads.len();
                let ext = wf.task(t).external_input;
                let mut ext_due = ext > 0.0;
                let mut gate = 0;
                for &e in wf.in_edges(t) {
                    // Same-VM edges are satisfied directly at producer completion.
                    if self.download_of_edge[e.index()] == SAME_VM {
                        continue;
                    }
                    if ext_due && e.0 != 0 {
                        ext_due = false;
                        push_external(&mut self.downloads, &mut self.dl_ready, t, vm, ext);
                    }
                    self.download_of_edge[e.index()] = self.downloads.len();
                    let bytes = wf.edge(e).size;
                    self.downloads.push(Download { task: t, vm, edge: Some(e), bytes });
                    gate += 1;
                }
                if ext_due {
                    push_external(&mut self.downloads, &mut self.dl_ready, t, vm, ext);
                }
                if i == plan.order_start {
                    plan.boot_gate = gate;
                }
                debug_assert!(
                    self.downloads[task_dl..].is_sorted_by_key(|d| (
                        d.edge.map_or(0, |e| e.0),
                        d.edge.is_none()
                    )),
                    "downloads of {t} out of selection order"
                );
            }
            plan.dl_end = self.downloads.len();
        }
        Ok(())
    }

    /// Replay the compiled schedule under `config` into `state`, after
    /// [`check_rates`], and return the run's report. The report stays in
    /// `state` and the next run overwrites it; swap it out to keep it.
    pub fn run<'s>(
        &self,
        state: &'s mut RunState,
        config: &SimConfig,
    ) -> Result<&'s mut SimulationReport, SimError> {
        check_rates(self.platform, config)?;
        self.replay(state, config, &FaultConfig::none(), &mut NoopSink)?;
        Ok(&mut state.report)
    }

    /// Reset `state` for the compiled schedule, run the event loop and bill
    /// the run into `state.report`. Rates must have been checked.
    fn replay<S: EventSink>(
        &self,
        state: &mut RunState,
        config: &SimConfig,
        faults: &FaultConfig,
        sink: &mut S,
    ) -> Result<(), SimError> {
        let mut engine = Engine::new(self, state, config, faults, sink);
        engine.run()?;
        engine.report();
        Ok(())
    }

    /// Which tasks of the run in `st` finished computing: on each VM, those
    /// before its next index, as a VM runs its order in turn and moves past
    /// a task only when it completes.
    fn finished(&self, st: &RunState) -> Vec<bool> {
        let mut finished = vec![false; self.wf.task_count()];
        for (plan, vm) in self.vms.iter().zip(&st.vms) {
            for &t in &self.order[plan.order_start..plan.order_start + vm.next_idx] {
                finished[t.index()] = true;
            }
        }
        finished
    }

    /// Which tasks of the run in `st` are *durably* complete? Data at the
    /// datacenter is durable; data on a VM is volatile (VMs are released —
    /// or crashed — at the end of the run). Computed in reverse
    /// topological order: a task is durable iff it finished, its external
    /// output (if any) was uploaded, and each out-edge either reached the
    /// datacenter or fed a consumer that is itself durable (the value was
    /// fully consumed).
    fn durability(&self, st: &RunState, finished: &[bool]) -> (Vec<bool>, bool) {
        let wf = self.wf;
        let mut durable = vec![false; wf.task_count()];
        let mut complete = true;
        for &t in wf.topological_order().iter().rev() {
            let i = t.index();
            let ext_ok = wf.task(t).external_output <= 0.0 || st.ext_out_done[i];
            let outs_ok = wf
                .out_edges(t)
                .iter()
                .all(|&e| st.edge_at_dc[e.index()] || durable[wf.edge(e).to.index()]);
            durable[i] = finished[i] && ext_ok && outs_ok;
            complete &= durable[i];
        }
        (durable, complete)
    }
}

/// Append `t`'s external input, on `vm`, to `downloads`, its data at the
/// datacenter from t = 0: its bit in `ready` is set.
fn push_external(downloads: &mut Vec<Download>, ready: &mut [u64], t: TaskId, vm: VmId, bytes: f64) {
    let slot = downloads.len();
    ready[slot / 64] |= 1 << (slot % 64);
    downloads.push(Download { task: t, vm, edge: None, bytes });
}

/// What one run of a [`Replay`] changes: clocks, the event heap, in-flight
/// transfers, per-VM and per-task flags, the download-ready bitset, and the
/// report. Each run resets it in place, so after the first run of the
/// largest schedule a run allocates nothing.
#[derive(Debug, Default)]
pub struct RunState {
    /// Realized weight of each task.
    weights: Vec<f64>,
    now: f64,
    seq: u64,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    active: Vec<Active>,
    /// The rate of every in-flight transfer: `share_rate(active.len())`
    /// under the current degradation factor. Kept exact by calling
    /// [`Engine::recompute_rates`] after every change to either.
    rate: f64,
    /// The least `remaining` of `active` (infinite when it is empty), kept
    /// by every push, drain and removal. Transfers drain at one shared
    /// rate, so the transfer holding it finishes first.
    min_remaining: f64,
    vms: Vec<VmRun>,
    /// One bit per slot of [`Replay::downloads`]: set while its data is at
    /// the datacenter and its download has not started. Starts as
    /// [`Replay::dl_ready`]; set by [`Engine::on_upload_done`] for edges;
    /// cleared when the download starts.
    dl_ready: Vec<u64>,
    /// Every VM's upload queue, one fixed slice per VM.
    uploads: Vec<Upload>,
    /// The event loop's per-iteration scratch of finished transfers.
    done_transfers: Vec<Active>,
    /// Remaining unsatisfied inputs per task (local preds + downloads).
    missing: Vec<usize>,
    edge_at_dc: Vec<bool>,
    /// Per task: external output uploaded to the datacenter.
    ext_out_done: Vec<bool>,
    completed: usize,
    /// Pending work events (BootDone/TaskDone) in the heap.
    work_events: usize,
    /// Bandwidth multiplier of the active degradation window (1.0 = none).
    bw_factor: f64,
    /// Start of the active degradation window.
    window_start: f64,
    stats: FaultStats,
    /// The run's report; its task records are written as tasks start.
    report: SimulationReport,
}

/// One run of a [`Replay`] in a [`RunState`].
struct Engine<'r, 'a, S: EventSink> {
    rp: &'r Replay<'a>,
    st: &'r mut RunState,
    sink: &'r mut S,
    dc_capacity: DcCapacity,
    faults: FaultConfig,
    degrade_rng: StdRng,
}

impl<'r, 'a, S: EventSink> Engine<'r, 'a, S> {
    /// Reset `st` for a run of `rp` under `config` and `faults`.
    fn new(
        rp: &'r Replay<'a>,
        st: &'r mut RunState,
        config: &SimConfig,
        faults: &FaultConfig,
        sink: &'r mut S,
    ) -> Self {
        let wf = rp.wf;
        let n_vms = rp.vms.len();
        realize_weights_into(wf, config.weights, &mut st.weights);
        st.now = 0.0;
        st.seq = 0;
        // Per VM at most one pending work event, one crash and one
        // transfer per direction; plus one degradation event.
        st.heap.clear();
        st.heap.reserve(2 * n_vms + 1);
        st.active.clear();
        st.active.reserve(2 * n_vms);
        st.min_remaining = f64::INFINITY;
        st.done_transfers.clear();
        st.done_transfers.reserve(2 * n_vms);
        st.vms.clear();
        st.vms.extend(rp.vms.iter().map(|p| VmRun {
            next_idx: 0,
            booked_at: None,
            ready: false,
            ready_at: 0.0,
            proc_busy: false,
            in_busy: false,
            out_busy: false,
            up_head: p.up_start,
            up_tail: p.up_start,
            boot_gate: p.boot_gate,
            last_activity: 0.0,
            dead: false,
            boot_delay: None,
        }));
        st.dl_ready.clone_from(&rp.dl_ready);
        // Every input starts missing: local predecessors and downloads.
        st.missing.clear();
        st.missing.extend(
            wf.task_ids()
                .zip(wf.tasks())
                .map(|(t, task)| wf.in_edges(t).len() + usize::from(task.external_input > 0.0)),
        );
        refill(&mut st.uploads, rp.n_uploads, Upload { task: TaskId(0), edge: None, bytes: 0.0 });
        refill(&mut st.edge_at_dc, wf.edge_count(), false);
        refill(&mut st.ext_out_done, wf.task_count(), false);
        // Records start zeroed but carry their real task id, so partial
        // (faulted) runs report unambiguous `end == 0` placeholders.
        let records = &mut st.report.tasks;
        records.clear();
        records.reserve(wf.task_count());
        records.extend(wf.task_ids().map(|task| TaskRecord {
            task,
            vm: VmId(0),
            start: 0.0,
            end: 0.0,
            realized_weight: 0.0,
        }));
        st.completed = 0;
        st.work_events = 0;
        st.bw_factor = 1.0;
        st.window_start = 0.0;
        st.stats = FaultStats::default();
        let mut engine = Self {
            rp,
            st,
            sink,
            dc_capacity: config.dc_capacity,
            faults: *faults,
            degrade_rng: faults.degrade_rng(),
        };
        engine.recompute_rates();
        engine
    }

    fn push_event(&mut self, time: f64, event: Event) {
        if event.is_work() {
            self.st.work_events += 1;
        }
        self.st.seq += 1;
        self.st.heap.push(Reverse(HeapEntry::new(time, self.st.seq, event)));
    }

    /// Current datacenter bandwidth; scaled down inside a degradation
    /// window. With `bw_factor == 1.0` the product is IEEE-exact, keeping
    /// fault-free runs bit-identical.
    fn bandwidth(&self) -> f64 {
        self.rp.platform.datacenter.bandwidth * self.st.bw_factor
    }

    /// Fair-share rate under the current number of in-flight transfers.
    /// Degradation windows scale the aggregate capacity too — the window
    /// models the datacenter side of the link, not a single VM NIC.
    fn share_rate(&self, n_active: usize) -> f64 {
        match self.dc_capacity {
            DcCapacity::Infinite => self.bandwidth(),
            DcCapacity::Finite(cap) => {
                self.bandwidth().min(cap * self.st.bw_factor / n_active.max(1) as f64)
            }
        }
    }

    /// Re-derive the shared transfer rate; called after every change to
    /// the in-flight set or to the degradation factor.
    fn recompute_rates(&mut self) {
        self.st.rate = self.share_rate(self.st.active.len());
    }

    fn book_vm(&mut self, v: usize) {
        debug_assert!(self.st.vms[v].booked_at.is_none());
        self.st.vms[v].booked_at = Some(self.st.now);
        let cat = self.rp.vms[v].category;
        if S::ENABLED {
            self.sink.record(&Obs::VmBooked { vm: vm_u32(v), category: cat.0, t: self.st.now });
        }
        let boot = self.rp.platform.category(cat).boot_time;
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
                    self.st.stats.boot_retries += bf.max_retries as usize;
                    self.st.stats.boot_abandoned += 1;
                    self.st.vms[v].dead = true;
                    if S::ENABLED {
                        self.sink.record(&Obs::BootAbandoned { vm: vm_u32(v), t: self.st.now });
                    }
                    return;
                }
                delay += boot * bf.backoff.powf(f64::from(failures));
            }
            self.st.stats.boot_retries += failures as usize;
        }
        self.st.vms[v].boot_delay = Some(delay);
        self.push_event(self.st.now + delay, Event::BootDone(vm_u32(v)));
    }

    /// Start the best ready pending download on `v`, if its in-link is free:
    /// the first slot of the VM's pre-sorted run whose
    /// [`RunState::dl_ready`] bit is set. Inputs of earlier tasks come
    /// first, so prefetching never starves the next task to run.
    fn try_start_download(&mut self, v: usize) {
        let st = &mut *self.st;
        let vm = &mut st.vms[v];
        if !vm.ready || vm.dead || vm.in_busy {
            return;
        }
        let plan = &self.rp.vms[v];
        let Some(i) = first_set(&st.dl_ready, plan.dl_start, plan.dl_end) else {
            return;
        };
        vm.in_busy = true;
        st.dl_ready[i / 64] &= !(1 << (i % 64));
        let d = &self.rp.downloads[i];
        if S::ENABLED {
            self.sink.record(&Obs::TransferStarted {
                vm: vm_u32(v),
                up: false,
                edge: d.edge.map_or(-1, |e| i64::from(e.0)),
                bytes: d.bytes,
                t: st.now,
            });
        }
        let remaining = d.bytes.max(B_EPS);
        st.active.push(Active { vm: v, payload: TransferPayload::Download(i), remaining });
        st.min_remaining = st.min_remaining.min(remaining);
        self.recompute_rates();
    }

    /// Start the next queued upload on `v`, if its out-link is free.
    fn try_start_upload(&mut self, v: usize) {
        let st = &mut *self.st;
        let vm = &mut st.vms[v];
        if vm.out_busy || vm.dead || vm.up_head == vm.up_tail {
            return;
        }
        let u = st.uploads[vm.up_head];
        vm.up_head += 1;
        vm.out_busy = true;
        if S::ENABLED {
            self.sink.record(&Obs::TransferStarted {
                vm: vm_u32(v),
                up: true,
                edge: u.edge.map_or(-1, |e| i64::from(e.0)),
                bytes: u.bytes,
                t: st.now,
            });
        }
        let remaining = u.bytes.max(B_EPS);
        st.active.push(Active { vm: v, payload: TransferPayload::Upload(u), remaining });
        st.min_remaining = st.min_remaining.min(remaining);
        self.recompute_rates();
    }

    /// Append an upload to `v`'s queue slice.
    fn queue_upload(&mut self, v: usize, u: Upload) {
        let vm = &mut self.st.vms[v];
        self.st.uploads[vm.up_tail] = u;
        vm.up_tail += 1;
    }

    /// Start the next task on `v` if the processor is free and inputs are in.
    fn try_start_compute(&mut self, v: usize) {
        let st = &mut *self.st;
        let vm = &st.vms[v];
        let plan = &self.rp.vms[v];
        if !vm.ready || vm.dead || vm.proc_busy || vm.next_idx >= plan.len() {
            return;
        }
        let t = self.rp.order[plan.order_start + vm.next_idx];
        if st.missing[t.index()] > 0 {
            return;
        }
        let now = st.now;
        let dur = st.weights[t.index()] / plan.speed;
        st.report.tasks[t.index()] = TaskRecord {
            task: t,
            vm: VmId(vm_u32(v)),
            start: now,
            end: now + dur,
            realized_weight: st.weights[t.index()],
        };
        st.vms[v].proc_busy = true;
        if S::ENABLED {
            self.sink.record(&Obs::TaskStarted { task: t.0, vm: vm_u32(v), t: now });
        }
        self.push_event(now + dur, Event::TaskDone(vm_u32(v)));
    }

    fn on_task_done(&mut self, v: usize) {
        let wf = self.rp.wf;
        let t = self.rp.order[self.rp.vms[v].order_start + self.st.vms[v].next_idx];
        if S::ENABLED {
            self.sink.record(&Obs::TaskFinished { task: t.0, vm: vm_u32(v), t: self.st.now });
        }
        self.st.completed += 1;
        let vm = &mut self.st.vms[v];
        vm.proc_busy = false;
        vm.next_idx += 1;
        vm.last_activity = self.st.now;
        // Satisfy same-VM consumers; queue uploads for cross-VM edges.
        for &e in wf.out_edges(t) {
            if self.rp.download_of_edge[e.index()] != SAME_VM {
                let bytes = wf.edge(e).size;
                self.queue_upload(v, Upload { task: t, edge: Some(e), bytes });
            } else {
                let c = wf.edge(e).to;
                self.st.missing[c.index()] -= 1;
                // Consumer is on this same VM.
                self.try_start_compute(v);
            }
        }
        let ext_out = wf.task(t).external_output;
        if ext_out > 0.0 {
            self.queue_upload(v, Upload { task: t, edge: None, bytes: ext_out });
        }
        self.try_start_upload(v);
        self.try_start_compute(v);
    }

    fn on_boot_done(&mut self, v: usize) {
        let now = self.st.now;
        let vm = &mut self.st.vms[v];
        vm.ready = true;
        vm.ready_at = now;
        vm.last_activity = now;
        if S::ENABLED {
            self.sink.record(&Obs::VmReady { vm: vm_u32(v), t: now });
        }
        // Crash-stop fault: the VM's time-to-failure starts ticking the
        // moment it becomes operational.
        if let Some(cm) = self.faults.crash {
            let mut rng = self.faults.crash_rng(v);
            let ttf = cm.sample_ttf(&mut rng);
            if ttf.is_finite() {
                self.push_event(now + ttf, Event::VmCrash(vm_u32(v)));
            }
        }
        self.try_start_download(v);
        self.try_start_compute(v);
    }

    /// Crash-stop failure: in-flight work and transfers are lost; the
    /// occupied interval up to the crash stays billed (Eq. 1).
    fn on_crash(&mut self, v: usize) {
        let st = &mut *self.st;
        let plan = &self.rp.vms[v];
        let vm = &mut st.vms[v];
        if vm.dead {
            return;
        }
        let idle_done = vm.next_idx >= plan.len()
            && !vm.proc_busy
            && !vm.in_busy
            && !vm.out_busy
            && vm.up_head == vm.up_tail;
        if idle_done {
            // The VM already pushed its last byte and would have been
            // released — a later crash hits nothing and bills nothing.
            return;
        }
        let now = st.now;
        vm.dead = true;
        st.stats.crashes += 1;
        // Billed through the crash instant: the tail since the last
        // completed activity was paid for but produced nothing durable.
        st.stats.wasted_billed_seconds += (now - vm.last_activity).max(0.0);
        vm.last_activity = now;
        // The in-flight task's computation is lost; its stale TaskDone
        // event is skipped at pop via the dead flag.
        if vm.proc_busy {
            let t = self.rp.order[plan.order_start + vm.next_idx];
            st.stats.tasks_lost += 1;
            let r = &mut st.report.tasks[t.index()];
            st.stats.wasted_compute_seconds += (now - r.start).max(0.0);
            r.start = 0.0;
            r.end = 0.0;
            r.realized_weight = 0.0;
            vm.proc_busy = false;
            if S::ENABLED {
                self.sink.record(&Obs::TaskAborted { task: t.0, vm: vm_u32(v), t: now });
            }
        }
        // In-flight transfers on this VM's link die with it.
        if S::ENABLED {
            for a in st.active.iter().filter(|a| a.vm == v) {
                self.sink.record(&Obs::TransferAborted { vm: vm_u32(v), up: a.is_up(), t: now });
            }
            self.sink.record(&Obs::VmCrashed { vm: vm_u32(v), t: now });
        }
        st.active.retain(|a| a.vm != v);
        st.min_remaining = st.active.iter().fold(f64::INFINITY, |m, a| m.min(a.remaining));
        let vm = &mut st.vms[v];
        vm.up_head = vm.up_tail;
        vm.in_busy = false;
        vm.out_busy = false;
        self.recompute_rates();
    }

    /// Any work left that degradation windows could still affect?
    fn work_remains(&self) -> bool {
        self.st.work_events > 0 || !self.st.active.is_empty()
    }

    fn on_degrade_start(&mut self) {
        let Some(dm) = self.faults.degradation else { return };
        if !self.work_remains() {
            // Quiescent: stop the window stream so the event loop drains.
            return;
        }
        self.st.bw_factor = dm.factor;
        self.st.window_start = self.st.now;
        self.st.stats.degradation_windows += 1;
        if S::ENABLED {
            self.sink.record(&Obs::DegradationStarted { t: self.st.now, factor: dm.factor });
        }
        self.recompute_rates();
        let dur = sample_exponential(dm.mean_duration, &mut self.degrade_rng);
        self.push_event(self.st.now + dur, Event::DegradeEnd);
    }

    fn on_degrade_end(&mut self) {
        let Some(dm) = self.faults.degradation else { return };
        self.st.stats.degraded_seconds += self.st.now - self.st.window_start;
        if S::ENABLED {
            self.sink.record(&Obs::DegradationEnded { t: self.st.now });
        }
        self.st.bw_factor = 1.0;
        self.recompute_rates();
        if self.work_remains() {
            let gap = sample_exponential(dm.mean_gap, &mut self.degrade_rng);
            self.push_event(self.st.now + gap, Event::DegradeStart);
        }
    }

    fn on_download_done(&mut self, v: usize, slot: usize) {
        let d = self.rp.downloads[slot];
        if S::ENABLED {
            self.sink.record(&Obs::TransferFinished {
                vm: vm_u32(v),
                up: false,
                edge: d.edge.map_or(-1, |e| i64::from(e.0)),
                t: self.st.now,
            });
        }
        let vm = &mut self.st.vms[v];
        vm.in_busy = false;
        vm.last_activity = self.st.now;
        self.st.missing[d.task.index()] -= 1;
        self.try_start_download(v);
        self.try_start_compute(v);
    }

    fn on_upload_done(&mut self, v: usize, u: Upload) {
        if S::ENABLED {
            self.sink.record(&Obs::TransferFinished {
                vm: vm_u32(v),
                up: true,
                edge: u.edge.map_or(-1, |e| i64::from(e.0)),
                t: self.st.now,
            });
        }
        let vm = &mut self.st.vms[v];
        vm.out_busy = false;
        vm.last_activity = self.st.now;
        if let Some(e) = u.edge {
            self.st.edge_at_dc[e.index()] = true;
            let slot = self.rp.download_of_edge[e.index()];
            let Download { task: consumer, vm: cv, .. } = self.rp.downloads[slot];
            let cv = cv.index();
            self.st.dl_ready[slot / 64] |= 1 << (slot % 64);
            // Boot gate: first-task inputs arriving can trigger the booking.
            let plan = &self.rp.vms[cv];
            let vm = &mut self.st.vms[cv];
            if vm.booked_at.is_none() && self.rp.order[plan.order_start] == consumer {
                vm.boot_gate -= 1;
                if vm.boot_gate == 0 {
                    self.book_vm(cv);
                }
            }
            self.try_start_download(cv);
        } else {
            // External output safely at the datacenter: the producer's
            // result is durable even if its VM dies later.
            self.st.ext_out_done[u.task.index()] = true;
        }
        self.try_start_upload(v);
    }

    /// The liveness bound of [`Self::run`]: [`ITERATIONS_PER_ITEM`] loop
    /// iterations per task, edge and VM (plus one), per event stream.
    fn loop_bound(&self) -> u64 {
        let wf = self.rp.wf;
        let items = wf.task_count() + wf.edge_count() + self.rp.vms.len() + 1;
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
            now: self.st.now,
            completed: self.st.completed,
        }
    }

    /// Run the event loop to quiescence, or fail with
    /// [`SimError::LivenessBound`] once its clock advances and event pops
    /// together exceed [`Self::loop_bound`].
    fn run(&mut self) -> Result<(), SimError> {
        // Book every VM whose boot gate is already open (first task has no
        // cross-VM inputs: entry tasks, or tasks with same-VM-only preds
        // cannot be first, so this means entries / no inputs).
        for v in 0..self.rp.vms.len() {
            if self.rp.vms[v].len() > 0 && self.st.vms[v].boot_gate == 0 {
                self.book_vm(v);
            }
        }
        // Arm the degradation-window stream.
        if let Some(dm) = self.faults.degradation {
            let gap = sample_exponential(dm.mean_gap, &mut self.degrade_rng);
            self.push_event(self.st.now + gap, Event::DegradeStart);
        }

        // Iterations left before the liveness bound: every clock advance
        // and every event pop spends one.
        let mut left = self.loop_bound();
        loop {
            if left == 0 {
                return Err(self.liveness_error());
            }
            left -= 1;
            let st = &mut *self.st;
            // Next transfer completion, if any. All transfers share one
            // rate and `now + r / rate` is monotone in `r`, so the least
            // remaining volume finishes first.
            let next_xfer = (!st.active.is_empty()).then(|| st.now + st.min_remaining / st.rate);
            let next_ev: Option<f64> = st.heap.peek().map(|Reverse(h)| h.time());
            // Instants are never NaN, so plain comparisons below pick what
            // `f64::min` and `f64::max` would, without their NaN checks.
            let t = match (next_xfer, next_ev) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => {
                    if b < a {
                        b
                    } else {
                        a
                    }
                }
            };
            debug_assert!(t >= st.now - T_EPS, "time went backwards: {t} < {}", st.now);
            let drained = st.rate * (t - st.now).max(0.0);
            st.now = t;

            // Transfer completions first (deterministic order by vm/dir).
            // A transfer is done when its bytes are drained OR when the
            // time it still needs is below the clock resolution at `now` —
            // without the latter, `now + remaining/rate == now` can stall
            // the clock forever once `now` is large (float underflow).
            let resolution = st.now.abs() * f64::EPSILON;
            let resolution = if resolution > T_EPS { resolution } else { T_EPS };
            let threshold = st.rate * resolution;
            // Done at or below `B_EPS` bytes or `threshold`, whichever is larger.
            let finish = if threshold > B_EPS { threshold } else { B_EPS };
            // Drain and test each transfer in one pass, in descending index
            // order so swap_remove only ever moves an already-drained and
            // checked entry; then order the removed set by (vm, direction)
            // — unique, as each link carries one transfer per direction —
            // for processing.
            let mut least = f64::INFINITY;
            for i in (0..st.active.len()).rev() {
                let a = &mut st.active[i];
                a.remaining -= drained;
                let r = a.remaining;
                if r <= finish {
                    st.done_transfers.push(st.active.swap_remove(i));
                } else if r < least {
                    least = r;
                }
            }
            st.min_remaining = least;
            st.done_transfers.sort_unstable_by_key(|a| (a.vm, a.is_up()));
            if !st.done_transfers.is_empty() {
                self.recompute_rates();
            }
            // The handlers start transfers but never touch this list.
            for k in 0..self.st.done_transfers.len() {
                let a = self.st.done_transfers[k];
                match a.payload {
                    TransferPayload::Download(slot) => self.on_download_done(a.vm, slot),
                    TransferPayload::Upload(u) => self.on_upload_done(a.vm, u),
                }
            }
            self.st.done_transfers.clear();

            // Then discrete events scheduled at (or before) `now`.
            let due = order_key(self.st.now + T_EPS);
            while let Some(Reverse(h)) = self.st.heap.peek().copied() {
                if h.key <= due {
                    if left == 0 {
                        return Err(self.liveness_error());
                    }
                    left -= 1;
                    self.st.heap.pop();
                    if h.event.is_work() {
                        self.st.work_events -= 1;
                    }
                    match h.event {
                        Event::BootDone(v) if !self.st.vms[v as usize].dead => {
                            self.on_boot_done(v as usize);
                        }
                        Event::TaskDone(v) if !self.st.vms[v as usize].dead => {
                            self.on_task_done(v as usize);
                        }
                        // Stale work events of dead VMs.
                        Event::BootDone(_) | Event::TaskDone(_) => {}
                        Event::VmCrash(v) => self.on_crash(v as usize),
                        Event::DegradeStart => self.on_degrade_start(),
                        Event::DegradeEnd => self.on_degrade_end(),
                    }
                } else {
                    break;
                }
            }
        }

        let wf = self.rp.wf;
        if self.faults.is_none() && self.st.completed != wf.task_count() {
            let finished = self.rp.finished(self.st);
            let unfinished: Vec<TaskId> = wf.task_ids().filter(|t| !finished[t.index()]).collect();
            return Err(SimError::Stalled { completed: self.st.completed, unfinished });
        }
        Ok(())
    }

    /// Bill the run (Eqs. 1–2) into the report. Bill emission mirrors the
    /// report arithmetic exactly: one VmBilled per VM in report order, then
    /// DcBilled — a ledger folding costs in event order reproduces
    /// `total_cost` bit-for-bit.
    fn report(&mut self) {
        let (rp, st) = (self.rp, &mut *self.st);
        let report = &mut st.report;
        report.vms.clear();
        report.vms.reserve(st.vms.len());
        let mut start_first = f64::INFINITY;
        let mut end_last: f64 = 0.0;
        let mut vm_cost_total = 0.0;
        for (v, vm) in st.vms.iter().enumerate() {
            let Some(booked) = vm.booked_at else { continue };
            if !vm.ready {
                // Boot never completed (abandoned by a fault): the
                // provider never handed the instance over — nothing billed.
                continue;
            }
            let cat_id = rp.vms[v].category;
            let usage = vm.last_activity - vm.ready_at;
            let cost = rp.platform.vm_cost(cat_id, usage);
            start_first = start_first.min(booked);
            end_last = end_last.max(vm.last_activity);
            vm_cost_total += cost;
            report.vms.push(VmUsage {
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
        let external = rp.wf.external_input_data() + rp.wf.external_output_data();
        let dc_cost = rp.platform.datacenter.cost(makespan, external);
        if S::ENABLED {
            for u in &report.vms {
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
        report.makespan = makespan;
        report.vm_cost = vm_cost_total;
        report.datacenter_cost = dc_cost;
        report.total_cost = vm_cost_total + dc_cost;
        report.vms_used = report.vms.iter().filter(|u| u.tasks_run > 0).count();
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
/// It is a one-shot [`Replay`] (compiled, run once into a fresh
/// [`RunState`]) and runs the same event loop as [`simulate_with_faults`]
/// under [`FaultConfig::none`], but skips the durability pass and the
/// [`FaultRun`] bookkeeping that a fault-free run has no use for.
pub fn simulate_observed<S: EventSink>(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    config: &SimConfig,
    sink: &mut S,
) -> Result<SimulationReport, SimError> {
    check_rates(platform, config)?;
    let mut replay = Replay::new(wf, platform);
    replay.compile(schedule)?;
    let mut state = RunState::default();
    replay.replay(&mut state, config, &FaultConfig::none(), sink)?;
    Ok(state.report)
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
    let mut replay = Replay::new(wf, platform);
    replay.compile(schedule)?;
    let mut state = RunState::default();
    replay.replay(&mut state, config, faults, sink)?;
    let finished = replay.finished(&state);
    let (durable, complete) = replay.durability(&state, &finished);
    let boot_delays = state.vms.iter().map(|vm| vm.boot_delay).collect();
    let RunState { report, stats, .. } = state;
    Ok(FaultRun { report, stats, finished, durable, boot_delays, complete })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{BootFaultModel, CrashModel, DegradationModel};
    use wfs_workflow::gen::{cybershake, ligo, montage, GenConfig};

    /// A failed compile leaves nothing to replay: the next run fails
    /// instead of replaying the schedule compiled before.
    #[test]
    fn failed_compile_replays_nothing() {
        let p = Platform::paper_default();
        let wf = montage(GenConfig::new(30, 1));
        let mut replay = Replay::new(&wf, &p);
        let mut state = RunState::default();
        replay.compile(&round_robin(&wf, 3)).unwrap();
        assert!(replay.run(&mut state, &SimConfig::planning()).is_ok());
        let unassigned = Schedule::new(wf.task_count());
        assert!(matches!(replay.compile(&unassigned), Err(SimError::Schedule(_))));
        let err = replay.run(&mut state, &SimConfig::planning()).unwrap_err();
        assert!(matches!(err, SimError::Stalled { completed: 0, .. }), "{err:?}");
    }

    /// The heap key orders times exactly as `f64::total_cmp` does.
    #[test]
    fn heap_key_order_is_total_cmp() {
        #[rustfmt::skip]
        let times = [
            f64::NEG_INFINITY, -1e300, -2.5, -f64::MIN_POSITIVE, -0.0, 0.0,
            f64::MIN_POSITIVE, 1e-9, 1.0, 2.5, 1e300, f64::INFINITY, f64::NAN, -f64::NAN,
        ];
        let entry = |t: f64| HeapEntry::new(t, 0, Event::DegradeStart);
        for &a in &times {
            for &b in &times {
                assert_eq!(entry(a).cmp(&entry(b)), a.total_cmp(&b), "{a} vs {b}");
                assert_eq!(entry(a).time().to_bits(), a.to_bits(), "{a} round trip");
            }
        }
    }

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

    /// `wf`'s tasks dealt round-robin in topological order onto `k` VMs of
    /// cycling categories: executable for any `k`.
    fn round_robin(wf: &Workflow, k: u32) -> Schedule {
        let mut s = Schedule::new(wf.task_count());
        let vms: Vec<VmId> = (0..k).map(|i| s.add_vm(CategoryId(i % 3))).collect();
        for (i, &t) in wf.topological_order().iter().enumerate() {
            s.assign(t, vms[i % vms.len()]);
        }
        s
    }

    /// Every report field, as bits.
    fn report_bits(r: &SimulationReport) -> Vec<u64> {
        let mut b = vec![r.makespan, r.vm_cost, r.datacenter_cost, r.total_cost]
            .into_iter()
            .map(f64::to_bits)
            .collect::<Vec<_>>();
        b.extend([r.vms_used as u64, r.tasks.len() as u64, r.vms.len() as u64]);
        for t in &r.tasks {
            b.extend([u64::from(t.task.0), u64::from(t.vm.0)]);
            b.extend([t.start, t.end, t.realized_weight].map(f64::to_bits));
        }
        for u in &r.vms {
            b.extend([u64::from(u.vm.0), u64::from(u.category.0), u.tasks_run as u64]);
            b.extend([u.booked_at, u.ready_at, u.released_at, u.cost].map(f64::to_bits));
        }
        b
    }

    /// Every field of a faulted run, as bits.
    fn fault_run_bits(run: &FaultRun) -> Vec<u64> {
        let s = &run.stats;
        let mut b = report_bits(&run.report);
        b.extend(
            [s.crashes, s.tasks_lost, s.boot_retries, s.boot_abandoned, s.degradation_windows]
                .map(|x| x as u64),
        );
        b.extend(
            [s.degraded_seconds, s.wasted_compute_seconds, s.wasted_billed_seconds]
                .map(f64::to_bits),
        );
        b.extend(run.finished.iter().chain(&run.durable).map(|&x| u64::from(x)));
        b.extend(run.boot_delays.iter().map(|d| d.map_or(u64::MAX, f64::to_bits)));
        b.push(u64::from(run.complete));
        b
    }

    /// One `RunState` across workflows of 400, then 30, then 90 tasks, and
    /// each workflow's one `Replay` across schedules of 12, then 1, then 5
    /// VMs, under the planning, stochastic, finite-datacenter and faulted
    /// configurations: every run is bit-identical to a one-shot call, so no
    /// state of a larger run leaks into a smaller one.
    #[test]
    fn reused_replay_and_run_state_match_one_shot_runs() {
        let p = Platform::paper_default();
        let configs = [
            SimConfig::planning(),
            SimConfig::stochastic(5),
            SimConfig::stochastic(6).with_dc_capacity(3e7),
        ];
        let faults = FaultConfig::new(9)
            .with_crash(CrashModel::exponential(4000.0))
            .with_boot(BootFaultModel::new(0.2, 2))
            .with_degradation(DegradationModel::new(0.5, 300.0, 60.0));
        let mut state = RunState::default();
        let mut faulted = (0, 0);
        for wf in [
            montage(GenConfig::new(400, 1)),
            cybershake(GenConfig::new(30, 2)),
            ligo(GenConfig::new(90, 3)),
        ] {
            let mut replay = Replay::new(&wf, &p);
            for k in [12, 1, 5] {
                let sched = round_robin(&wf, k);
                replay.compile(&sched).unwrap();
                for cfg in &configs {
                    let case = format!("{} on {k} VMs, {cfg:?}", wf.name);
                    let reused = report_bits(replay.run(&mut state, cfg).unwrap());
                    let fresh = report_bits(&simulate(&wf, &p, &sched, cfg).unwrap());
                    assert!(reused == fresh, "{case}: reused run differs");

                    replay.replay(&mut state, cfg, &faults, &mut NoopSink).unwrap();
                    let finished = replay.finished(&state);
                    let (durable, complete) = replay.durability(&state, &finished);
                    let reused = FaultRun {
                        report: state.report.clone(),
                        stats: state.stats.clone(),
                        finished,
                        durable,
                        boot_delays: state.vms.iter().map(|vm| vm.boot_delay).collect(),
                        complete,
                    };
                    let fresh =
                        simulate_with_faults(&wf, &p, &sched, cfg, &faults, &mut NoopSink).unwrap();
                    assert!(fault_run_bits(&reused) == fault_run_bits(&fresh), "{case}: faulted");
                    faulted.0 += usize::from(!fresh.complete);
                    faulted.1 += fresh.stats.crashes + fresh.stats.boot_retries;
                }
            }
        }
        assert!(faulted.0 > 0 && faulted.1 > 0, "faults hit some runs: {faulted:?}");
    }
}
