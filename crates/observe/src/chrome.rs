//! Chrome-trace-event JSON exporter (loadable in `chrome://tracing` and
//! Perfetto).
//!
//! Layout: one *process* per recovery epoch (`pid` = epoch; single runs are
//! epoch 0) and three *threads* per VM — compute (`tid = 3·vm`), downloads
//! (`3·vm + 1`) and uploads (`3·vm + 2`) — plus one datacenter track
//! ([`DC_TID`]) for degradation windows. Boots, tasks and transfers become
//! complete spans (`ph:"X"`, `ts`/`dur` in microseconds); crashes, aborts
//! and abandoned boots become instants (`ph:"i"`). Multi-epoch recovery runs
//! are laid onto one global timeline via [`Event::EpochStarted`]'s
//! wall-clock offset.
//!
//! Recording stores typed records — a span's kind, ids, bytes or factor,
//! end suffix and timestamps — and formats nothing. Open spans and thread
//! names live in one flat table per epoch, indexed by VM id (the engine's
//! dense `VmId` index). [`ChromeTrace::to_json`] renders every name from
//! its ids in one pass into one pre-sized `String`; only the timestamps,
//! byte counts and degradation factors go through `core::fmt`, since their
//! `{:.3}`/`{:.0}`/`{}` renderings are the output's byte-identity contract.
//!
//! The JSON is hand-formatted (the crate is dependency-free). Names are
//! generated from numeric ids, so nothing needs escaping; timestamps are
//! finite by construction so the output is always valid JSON.

use crate::event::Event;
use crate::sink::EventSink;
use std::fmt::Write;

/// The `tid` of the datacenter track (degradation windows).
pub const DC_TID: u64 = u64::MAX;

/// Microseconds per simulated second (trace-event `ts`/`dur` unit).
const US: f64 = 1e6;

/// Bytes reserved per output line. The longest line, a transfer span with
/// five numbers, stays under 150 bytes while its timestamps stay below
/// 1e12 µs and its other numbers below 12 digits; the faulted MONTAGE and
/// LIGO runs of `tests/chrome_alloc.rs` write at most 114.
const LINE_CAP: usize = 160;

/// Lanes of a VM: compute, downloads, uploads (`tid = 3·vm + lane`).
const COMPUTE: u8 = 0;
const DOWN: u8 = 1;
const UP: u8 = 2;

/// What a span shows; its name and category are rendered at write time.
#[derive(Debug, Clone, Copy)]
enum Label {
    /// `boot vm{vm}`, category `boot`.
    Boot { vm: u32 },
    /// `task {task}`, category `task`.
    Task { task: u32 },
    /// `{up|down} e{edge} {bytes:.0}B` (`ext` for `edge < 0`), category
    /// `transfer`.
    Transfer { up: bool, edge: i64, bytes: f64 },
    /// `degraded x{factor}`, category `fault`.
    Degraded { factor: f64 },
}

/// The suffix a closed span's name carries.
#[derive(Debug, Clone, Copy)]
enum End {
    Done,
    Aborted,
    Abandoned,
}

/// What an instant marks; its name is rendered at write time.
#[derive(Debug, Clone, Copy)]
enum Mark {
    /// `boot abandoned vm{vm}`.
    BootAbandoned { vm: u32 },
    /// `task {task} lost`.
    TaskLost { task: u32 },
    /// `crash vm{vm}`.
    Crash { vm: u32 },
}

/// A track of the current epoch's process.
#[derive(Debug, Clone, Copy)]
enum Track {
    Vm { vm: u32, lane: u8 },
    Dc,
}

impl Track {
    fn tid(self) -> u64 {
        match self {
            Track::Vm { vm, lane } => u64::from(vm) * 3 + u64::from(lane),
            Track::Dc => DC_TID,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    label: Label,
    end: End,
    ts: f64,
    dur: f64,
    pid: u32,
    tid: u64,
}

#[derive(Debug, Clone, Copy)]
struct Inst {
    mark: Mark,
    ts: f64,
    pid: u32,
    tid: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    label: Label,
    ts: f64,
}

/// One VM's three tracks in one epoch.
#[derive(Debug, Clone, Copy, Default)]
struct VmTracks {
    /// `None` until the VM is listed; then the category its compute thread
    /// is named with (`vm{vm} cat{c} compute`, or `vm{vm} compute` when the
    /// first listing event carried none). The first listing wins.
    listed: Option<Option<u32>>,
    /// The open span of each lane.
    open: [Option<Open>; 3],
}

/// One epoch's process: its VM tracks indexed by VM id, and the
/// datacenter track.
#[derive(Debug, Clone, Default)]
struct Process {
    pid: u32,
    vms: Vec<VmTracks>,
    dc_listed: bool,
    dc_open: Option<Open>,
}

/// Incremental Chrome-trace builder; also an [`EventSink`], so it can be
/// fed live or via [`ChromeTrace::from_events`].
///
/// Each epoch's track table is indexed by VM id, so it holds as many
/// entries as the largest VM id seen in that epoch: the engine numbers VMs
/// densely from 0.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    epoch: u32,
    t_offset: f64,
    /// Position of the current epoch's process in `procs`, once listed.
    cur: Option<usize>,
    /// Listed processes, sorted by pid.
    procs: Vec<Process>,
    /// Closed spans, in close order.
    spans: Vec<Span>,
    /// Instants, in record order.
    instants: Vec<Inst>,
    /// Capacity of a process's VM table when its first VM is listed.
    vm_hint: usize,
}

impl ChromeTrace {
    /// Build a trace from a recorded event stream.
    pub fn from_events(events: &[Event]) -> Self {
        // Size every buffer once: each span-opening event closes at most
        // one span, and VM tables are as wide as the largest VM id.
        let (mut spans, mut instants, mut procs, mut vms) = (0, 0, 1, 0);
        for e in events {
            match *e {
                Event::EpochStarted { .. } => procs += 1,
                Event::VmBooked { vm, .. }
                | Event::TaskStarted { vm, .. }
                | Event::TransferStarted { vm, .. } => {
                    spans += 1;
                    vms = vms.max(vm as usize + 1);
                }
                Event::DegradationStarted { .. } => spans += 1,
                Event::BootAbandoned { .. }
                | Event::TaskAborted { .. }
                | Event::VmCrashed { .. } => instants += 1,
                _ => {}
            }
        }
        let mut t = Self {
            procs: Vec::with_capacity(procs),
            spans: Vec::with_capacity(spans),
            instants: Vec::with_capacity(instants),
            vm_hint: vms,
            ..Self::default()
        };
        for e in events {
            t.record(e);
        }
        t
    }

    /// Number of complete spans accumulated so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of instant markers accumulated so far.
    pub fn instant_count(&self) -> usize {
        self.instants.len()
    }

    fn ts(&self, t: f64) -> f64 {
        (self.t_offset + t) * US
    }

    /// The current epoch's process, listed on first use.
    fn process(&mut self) -> &mut Process {
        let i = match self.cur {
            Some(i) => i,
            None => {
                let pid = self.epoch;
                let i = match self.procs.binary_search_by_key(&pid, |p| p.pid) {
                    Ok(i) => i,
                    Err(i) => {
                        self.procs.insert(i, Process { pid, ..Process::default() });
                        i
                    }
                };
                self.cur = Some(i);
                i
            }
        };
        &mut self.procs[i]
    }

    fn ensure_vm_threads(&mut self, vm: u32, category: Option<u32>) {
        let hint = self.vm_hint;
        let vms = &mut self.process().vms;
        let i = vm as usize;
        if vms.len() <= i {
            if vms.is_empty() {
                vms.reserve(hint.max(i + 1));
            }
            vms.resize(i + 1, VmTracks::default());
        }
        vms[i].listed.get_or_insert(category);
    }

    /// The open-span slot of `track` in the current epoch, if its process
    /// and VM are listed.
    fn slot(&mut self, track: Track) -> Option<&mut Option<Open>> {
        let p = self.procs.get_mut(self.cur?)?;
        match track {
            Track::Vm { vm, lane } => {
                p.vms.get_mut(vm as usize).map(|v| &mut v.open[usize::from(lane)])
            }
            Track::Dc => Some(&mut p.dc_open),
        }
    }

    fn open_span(&mut self, track: Track, label: Label, t: f64) {
        let ts = self.ts(t);
        // A still-open span on this track is closed degenerately first; the
        // engine serializes activities per track, so this only fires on
        // truncated (stalled) runs.
        self.close_span(track, t, End::Done);
        if let Some(slot) = self.slot(track) {
            *slot = Some(Open { label, ts });
        }
    }

    fn close_span(&mut self, track: Track, t: f64, end: End) {
        let ts_end = self.ts(t);
        let pid = self.epoch;
        if let Some(o) = self.slot(track).and_then(Option::take) {
            self.spans.push(Span {
                label: o.label,
                end,
                ts: o.ts,
                dur: (ts_end - o.ts).max(0.0),
                pid,
                tid: track.tid(),
            });
        }
    }

    fn instant(&mut self, vm: u32, mark: Mark, t: f64) {
        let ts = self.ts(t);
        let tid = Track::Vm { vm, lane: COMPUTE }.tid();
        self.instants.push(Inst { mark, ts, pid: self.epoch, tid });
    }

    /// Serialize as a trace-event-format JSON object
    /// (`{"traceEvents":[...]}`).
    ///
    /// Events are written in a fixed order: process names by pid, thread
    /// names by `(pid, tid)` (the datacenter track last), spans in close
    /// order, still-open spans by `(pid, tid)` as zero-duration
    /// `(unclosed)` spans at their start, then instants in record order.
    pub fn to_json(&self) -> String {
        // Every line fits the cap unless its numbers run to dozens of
        // digits; such a trace grows the buffer, and its bytes stay the same.
        let lines: usize = self.procs.iter().map(|p| 3 + 6 * p.vms.len()).sum::<usize>()
            + self.spans.len()
            + self.instants.len();
        let mut w = Writer::new(32 + LINE_CAP * lines);
        for p in &self.procs {
            w.line("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
            w.uint(u64::from(p.pid));
            w.str(",\"tid\":0,\"args\":{\"name\":\"epoch ");
            w.uint(u64::from(p.pid));
            w.str("\"}}");
        }
        for p in &self.procs {
            for (vm, v) in (0u32..).zip(&p.vms) {
                let Some(category) = v.listed else { continue };
                for lane in [COMPUTE, DOWN, UP] {
                    w.thread_head(p.pid, Track::Vm { vm, lane }.tid());
                    w.str("vm");
                    w.uint(u64::from(vm));
                    match (lane, category) {
                        (COMPUTE, Some(c)) => {
                            w.str(" cat");
                            w.uint(u64::from(c));
                            w.str(" compute");
                        }
                        (COMPUTE, None) => w.str(" compute"),
                        (DOWN, _) => w.str(" download"),
                        _ => w.str(" upload"),
                    }
                    w.str("\"}}");
                }
            }
            if p.dc_listed {
                w.thread_head(p.pid, DC_TID);
                w.str("datacenter\"}}");
            }
        }
        for s in &self.spans {
            w.span_head(s.label);
            w.str(match s.end {
                End::Done => "",
                End::Aborted => " (aborted)",
                End::Abandoned => " (abandoned)",
            });
            w.span_tail(s.label, s.ts);
            w.float3(s.dur);
            w.ids(s.pid, s.tid);
        }
        // Spans left open (stalled runs) are flushed as zero-duration spans
        // at their start so the file is still well-formed.
        for p in &self.procs {
            let vm_lanes = (0u32..).zip(&p.vms).flat_map(|(vm, v)| {
                (0u8..).zip(&v.open).map(move |(lane, o)| (Track::Vm { vm, lane }, o))
            });
            for (track, o) in vm_lanes.chain([(Track::Dc, &p.dc_open)]) {
                let Some(o) = o else { continue };
                w.span_head(o.label);
                w.str(" (unclosed)");
                w.span_tail(o.label, o.ts);
                w.str("0.0");
                w.ids(p.pid, track.tid());
            }
        }
        for i in &self.instants {
            w.line("{\"ph\":\"i\",\"name\":\"");
            match i.mark {
                Mark::BootAbandoned { vm } => {
                    w.str("boot abandoned vm");
                    w.uint(u64::from(vm));
                }
                Mark::TaskLost { task } => {
                    w.str("task ");
                    w.uint(u64::from(task));
                    w.str(" lost");
                }
                Mark::Crash { vm } => {
                    w.str("crash vm");
                    w.uint(u64::from(vm));
                }
            }
            w.str("\",\"s\":\"t\",\"ts\":");
            w.float3(i.ts);
            w.ids(i.pid, i.tid);
        }
        w.finish()
    }
}

/// Appends trace-event lines to one output buffer.
struct Writer {
    out: String,
    /// Written before the next line: no comma before the first.
    sep: &'static str,
}

impl Writer {
    fn new(capacity: usize) -> Self {
        let mut out = String::with_capacity(capacity);
        out.push_str("{\"traceEvents\":[");
        Self { out, sep: "\n  " }
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }

    /// Start a new line with `s`.
    fn line(&mut self, s: &str) {
        self.out.push_str(self.sep);
        self.sep = ",\n  ";
        self.out.push_str(s);
    }

    fn str(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn uint(&mut self, n: u64) {
        let mut buf = [0u8; 20];
        let start = digits(&mut buf, n);
        self.ascii(&buf[start..]);
    }

    /// `{:.3}`, the timestamp rendering.
    fn float3(&mut self, x: f64) {
        match round_scaled(x, 1000) {
            Some(q) => {
                // Integer digits, the point, then three decimals.
                let mut buf = [0u8; 24];
                let frac = usize::try_from(q % 1000).unwrap_or_default();
                buf[21] = DIGIT_PAIRS[frac / 100 * 2 + 1];
                buf[22..].copy_from_slice(&DIGIT_PAIRS[frac % 100 * 2..][..2]);
                buf[20] = b'.';
                let start = digits(&mut buf[..20], q / 1000);
                self.ascii(&buf[start..]);
            }
            None => {
                let _ = write!(self.out, "{x:.3}");
            }
        }
    }

    fn ascii(&mut self, bytes: &[u8]) {
        self.out.push_str(std::str::from_utf8(bytes).unwrap_or_default());
    }

    /// `{:.0}`, the byte-count rendering.
    fn float0(&mut self, x: f64) {
        match round_scaled(x, 1) {
            Some(q) => self.uint(q),
            None => {
                let _ = write!(self.out, "{x:.0}");
            }
        }
    }

    /// `,"pid":{pid},"tid":{tid}}`, closing a span or instant line.
    fn ids(&mut self, pid: u32, tid: u64) {
        self.str(",\"pid\":");
        self.uint(u64::from(pid));
        self.str(",\"tid\":");
        self.uint(tid);
        self.str("}");
    }

    /// A thread-name line up to its name.
    fn thread_head(&mut self, pid: u32, tid: u64) {
        self.line("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":");
        self.uint(u64::from(pid));
        self.str(",\"tid\":");
        self.uint(tid);
        self.str(",\"args\":{\"name\":\"");
    }

    /// A span line up to the end of its label's name.
    fn span_head(&mut self, label: Label) {
        self.line("{\"ph\":\"X\",\"name\":\"");
        match label {
            Label::Boot { vm } => {
                self.str("boot vm");
                self.uint(u64::from(vm));
            }
            Label::Task { task } => {
                self.str("task ");
                self.uint(u64::from(task));
            }
            Label::Transfer { up, edge, bytes } => {
                self.str(if up { "up" } else { "down" });
                if edge < 0 {
                    self.str(" ext ");
                } else {
                    self.str(" e");
                    self.uint(edge.unsigned_abs());
                    self.str(" ");
                }
                self.float0(bytes);
                self.str("B");
            }
            Label::Degraded { factor } => {
                let _ = write!(self.out, "degraded x{factor}");
            }
        }
    }

    /// From the end of a span's name through its `ts` to the `dur` value.
    fn span_tail(&mut self, label: Label, ts: f64) {
        self.str(match label {
            Label::Boot { .. } => "\",\"cat\":\"boot\",\"ts\":",
            Label::Task { .. } => "\",\"cat\":\"task\",\"ts\":",
            Label::Transfer { .. } => "\",\"cat\":\"transfer\",\"ts\":",
            Label::Degraded { .. } => "\",\"cat\":\"fault\",\"ts\":",
        });
        self.float3(ts);
        self.str(",\"dur\":");
    }
}

/// `"00"`, `"01"`, …, `"99"`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes the decimal digits of `n` right-aligned into `buf` and returns
/// the index of the first; `buf` must hold 20 bytes.
fn digits(buf: &mut [u8], mut n: u64) -> usize {
    let mut end = buf.len();
    while n >= 100 {
        let pair = usize::try_from(n % 100).unwrap_or_default() * 2;
        n /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    let pair = usize::try_from(n).unwrap_or_default() * 2;
    if n >= 10 {
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        end -= 1;
        buf[end] = DIGIT_PAIRS[pair + 1];
    }
    end
}

/// `x · scale` rounded to the nearest integer, computed exactly from `x`'s
/// binary representation, or `None` when `core::fmt` must decide: `x`
/// negative or not finite, `x · scale` at or above 2^64, or exactly halfway
/// between two integers. `core::fmt` renders `{:.3}` and `{:.0}` as the
/// exact value correctly rounded, so outside those cases its digits are
/// `(q / 1000).(q % 1000)` and `q`; the fallback keeps its tie rule and its
/// sign and overflow handling.
fn round_scaled(x: f64, scale: u64) -> Option<u64> {
    if !x.is_finite() || x.is_sign_negative() {
        return None;
    }
    let bits = x.to_bits();
    let biased = bits >> 52;
    let fraction = bits & ((1 << 52) - 1);
    // x = m · 2^(biased − 1075) for normal x. Zero and the subnormals
    // (biased 0) are below 2^−1022, far below half of 1/scale.
    if biased == 0 {
        return Some(0);
    }
    let m = fraction | 1 << 52;
    // Below 2^63, as scale ≤ 1000 < 2^10.
    let n = m * scale;
    if biased >= 1075 {
        let up = u32::try_from(biased - 1075).ok()?;
        return (up < n.leading_zeros()).then(|| n << up);
    }
    let down = 1075 - biased;
    if down >= 64 {
        // n < 2^63 ≤ half of 2^down: rounds to zero, never a tie.
        return Some(0);
    }
    let q = n >> down;
    let rem = n & ((1 << down) - 1);
    match rem.cmp(&(1 << (down - 1))) {
        std::cmp::Ordering::Less => Some(q),
        std::cmp::Ordering::Greater => Some(q + 1),
        std::cmp::Ordering::Equal => None,
    }
}

impl EventSink for ChromeTrace {
    fn record(&mut self, event: &Event) {
        let compute = |vm| Track::Vm { vm, lane: COMPUTE };
        let link = |vm, up| Track::Vm { vm, lane: if up { UP } else { DOWN } };
        match *event {
            Event::EpochStarted { epoch, t_offset } => {
                self.epoch = epoch;
                self.t_offset = t_offset;
                self.cur = None;
                self.process();
            }
            Event::VmBooked { vm, category, t } => {
                self.ensure_vm_threads(vm, Some(category));
                self.open_span(compute(vm), Label::Boot { vm }, t);
            }
            Event::VmReady { vm, t } => self.close_span(compute(vm), t, End::Done),
            Event::BootAbandoned { vm, t } => {
                self.close_span(compute(vm), t, End::Abandoned);
                self.instant(vm, Mark::BootAbandoned { vm }, t);
            }
            Event::TaskStarted { task, vm, t } => {
                self.ensure_vm_threads(vm, None);
                self.open_span(compute(vm), Label::Task { task }, t);
            }
            Event::TaskFinished { vm, t, .. } => self.close_span(compute(vm), t, End::Done),
            Event::TaskAborted { task, vm, t } => {
                self.close_span(compute(vm), t, End::Aborted);
                self.instant(vm, Mark::TaskLost { task }, t);
            }
            Event::TransferStarted { vm, up, edge, bytes, t } => {
                self.ensure_vm_threads(vm, None);
                self.open_span(link(vm, up), Label::Transfer { up, edge, bytes }, t);
            }
            Event::TransferFinished { vm, up, t, .. } => {
                self.close_span(link(vm, up), t, End::Done);
            }
            Event::TransferAborted { vm, up, t } => self.close_span(link(vm, up), t, End::Aborted),
            Event::VmCrashed { vm, t } => self.instant(vm, Mark::Crash { vm }, t),
            Event::DegradationStarted { t, factor } => {
                self.process().dc_listed = true;
                self.open_span(Track::Dc, Label::Degraded { factor }, t);
            }
            Event::DegradationEnded { t } => self.close_span(Track::Dc, t, End::Done),
            // Planning decisions and billing do not draw on the timeline.
            _ => {}
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn spans_close_in_order_and_serialize() {
        let events = [
            Event::VmBooked { vm: 0, category: 1, t: 0.0 },
            Event::VmReady { vm: 0, t: 10.0 },
            Event::TaskStarted { task: 3, vm: 0, t: 10.0 },
            Event::TaskFinished { task: 3, vm: 0, t: 25.0 },
            Event::TransferStarted { vm: 0, up: true, edge: 7, bytes: 1e6, t: 25.0 },
            Event::TransferFinished { vm: 0, up: true, edge: 7, t: 30.0 },
        ];
        let tr = ChromeTrace::from_events(&events);
        assert_eq!(tr.span_count(), 3);
        let json = tr.to_json();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("task 3"));
        assert!(json.contains("thread_name"));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn crash_closes_open_work_with_instants() {
        let events = [
            Event::VmBooked { vm: 1, category: 0, t: 0.0 },
            Event::VmReady { vm: 1, t: 5.0 },
            Event::TaskStarted { task: 9, vm: 1, t: 5.0 },
            Event::TransferStarted { vm: 1, up: false, edge: -1, bytes: 10.0, t: 5.0 },
            Event::TaskAborted { task: 9, vm: 1, t: 8.0 },
            Event::TransferAborted { vm: 1, up: false, t: 8.0 },
            Event::VmCrashed { vm: 1, t: 8.0 },
        ];
        let tr = ChromeTrace::from_events(&events);
        // boot + aborted task + aborted download are complete spans.
        assert_eq!(tr.span_count(), 3);
        assert!(tr.instant_count() >= 2);
        let json = tr.to_json();
        assert!(json.contains("(aborted)"));
        assert!(json.contains("crash vm1"));
        assert!(json.contains("down ext"));
    }

    #[test]
    fn epoch_offsets_shift_timestamps() {
        let events = [
            Event::EpochStarted { epoch: 1, t_offset: 100.0 },
            Event::VmBooked { vm: 0, category: 0, t: 0.0 },
            Event::VmReady { vm: 0, t: 1.0 },
        ];
        let tr = ChromeTrace::from_events(&events);
        assert_eq!(tr.spans[0].ts, 100.0 * 1e6);
        assert_eq!(tr.spans[0].pid, 1);
    }

    #[test]
    fn numbers_past_the_line_cap_grow_the_buffer() {
        // Timestamps near 1e300 s render with about 300 digits each.
        let events = [
            Event::VmBooked { vm: 0, category: 2, t: 1e300 },
            Event::VmReady { vm: 0, t: 2e300 },
            Event::TaskStarted { task: 1, vm: 0, t: 2e300 },
            Event::TransferStarted { vm: 0, up: true, edge: 4, bytes: 1e300, t: 2.5e300 },
            Event::TaskFinished { task: 1, vm: 0, t: 3e300 },
            Event::VmCrashed { vm: 0, t: 3.5e300 },
        ];
        let tr = ChromeTrace::from_events(&events);
        let json = tr.to_json();
        let lines = 3 + 6 + tr.span_count() + tr.instant_count();
        assert!(json.len() > 32 + LINE_CAP * lines, "{} bytes fit the cap", json.len());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        // Process, three threads, two spans, the open upload, the crash.
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), 8);
        for s in &tr.spans {
            assert!(json.contains(&format!("\"ts\":{:.3},\"dur\":{:.3},", s.ts, s.dur)));
        }
        assert!(json.contains(&format!("up e4 {:.0}B (unclosed)", 1e300)));
        assert!(json.contains(&format!("\"ts\":{:.3},\"pid\"", 3.5e300 * US)));
    }

    /// Every rendering path must match `core::fmt` byte for byte.
    #[test]
    fn fixed_point_rendering_matches_core_fmt() {
        let mut w = Writer::new(0);
        let mut check = |x: f64| {
            for (scale, want) in [(1000, format!("{x:.3}")), (1, format!("{x:.0}"))] {
                w.out.clear();
                if scale == 1000 {
                    w.float3(x);
                } else {
                    w.float0(x);
                }
                assert_eq!(w.out, want, "{x:e} ({:#x}) at scale {scale}", x.to_bits());
            }
        };
        // Edges: zeros, ties in both directions, the 2^53 and 2^64
        // boundaries, subnormals, non-finite values.
        let edges = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.0625,
            0.1875,
            1e-3,
            5e-4,
            0.0005000000000000001,
            9.9995,
            999.9995,
            9_007_199_254_740_992.0,
            9_007_199_254_740_993.0,
            18_446_744_073_709_551_615.0,
            18_446_744_073_709_551_616.0,
            18_446_744_073_709_551.615,
            18_446_744_073_709_552.0,
            1e300,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            -1.25,
            -5716671818.7965,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in edges {
            check(x);
        }
        // k/16 holds exact ties of both renderings (62.5·k at scale 1000,
        // n + 0.5 at scale 1); k/2000 lands next to ties of `{:.3}`.
        for k in 0..20_000u32 {
            check(f64::from(k) / 2000.0);
            check(f64::from(k) / 16.0);
        }
        // Random bit patterns (every exponent), and timestamp-like values
        // with random fractions.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50_000 {
            check(f64::from_bits(next()));
            let r = next();
            let scale = [1.0, 1e3, 1e6, 1e9, 1e12, 1e15][(r % 6) as usize];
            check((r >> 11) as f64 / (1u64 << 53) as f64 * scale);
        }
    }
}
