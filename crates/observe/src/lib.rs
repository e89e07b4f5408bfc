//! # wfs-observe — zero-cost tracing & metrics for the scheduler/simulator
//!
//! A dependency-free observability layer (DESIGN.md §11). Producers —
//! the planners in `wfs-scheduler` and the discrete-event engine in
//! `wfs-simulator` — are generic over [`EventSink`] and emit structured
//! [`Event`]s at every decision and execution point: Eq. 5–6 budget shares,
//! pot movements, candidate EFT/cost evaluations, refinement swaps, recovery
//! epochs, VM boots, task/transfer spans, fault injections, and the Eq. 1–2
//! bill.
//!
//! Three concrete sinks consume the stream:
//!
//! - [`ChromeTrace`] — Chrome-trace-event JSON (per-VM tracks, task and
//!   transfer spans, fault instants), loadable in `chrome://tracing` and
//!   Perfetto;
//! - [`BudgetLedger`] — every share/spend/pot movement, reconciled
//!   *bit-exactly* against the simulator's bill;
//! - [`Counters`] — deterministic named counters.
//!
//! [`RecordingSink`] captures the raw stream once and replays it into any
//! of the above. [`NoopSink`] is the zero-cost default: its
//! `ENABLED = false` const makes every guarded emission site dead code, so
//! the untraced entry points compile to the same machine code as before
//! this crate existed.

pub mod chrome;
pub mod counters;
pub mod event;
pub mod ledger;
pub mod sink;

pub use chrome::ChromeTrace;
pub use counters::Counters;
pub use event::Event;
pub use ledger::BudgetLedger;
pub use sink::{EventSink, NoopSink, RecordingSink};
