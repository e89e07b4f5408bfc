//! The zero-cost sink trait and the two structural sinks.
//!
//! Everything is static dispatch: producers are generic over `S: EventSink`
//! and guard each emission with `if S::ENABLED { sink.record(&...) }`. For
//! [`NoopSink`] the associated const is `false`, so the guard — *including
//! the construction of the event payload* — is dead code the optimizer
//! removes entirely. That is the crate's zero-cost guarantee: the untraced
//! entry points (`simulate`, `Algorithm::run`, …) delegate to the generic
//! implementations with a `NoopSink` and compile to the same machine code as
//! before the observability layer existed (pinned by the equivalence suite
//! and the quickbench zero-overhead gate in `scripts/ci.sh`).

use crate::event::Event;

/// A consumer of [`Event`]s, monomorphized into every producer.
///
/// Implementors are plain accumulators; `record` must not panic. The
/// `ENABLED` const lets producers skip event *construction*, not just
/// delivery, when the sink is the no-op.
pub trait EventSink {
    /// `false` only for [`NoopSink`]; producers guard emissions on it.
    const ENABLED: bool = true;

    /// Consume one event.
    fn record(&mut self, event: &Event);
}

/// The do-nothing sink: `ENABLED = false` makes every guarded emission
/// site dead code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: &Event) {}
}

/// Records the raw event stream for later replay into any number of
/// concrete sinks — the fan-out primitive (`wfs trace` records once, then
/// replays into the Chrome exporter, the ledger, and the counters).
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// The events, in emission order.
    pub events: Vec<Event>,
}

impl RecordingSink {
    /// An empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replay the recorded stream into another sink, in order.
    pub fn replay<S: EventSink>(&self, sink: &mut S) {
        for e in &self.events {
            sink.record(e);
        }
    }
}

impl EventSink for RecordingSink {
    #[inline]
    fn record(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

#[cfg(test)]
// The constant assertions are the point: they pin each sink's ENABLED flag.
#[allow(clippy::unwrap_used, clippy::assertions_on_constants)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        assert!(!NoopSink::ENABLED);
        let mut s = NoopSink;
        s.record(&Event::DegradationEnded { t: 1.0 });
    }

    #[test]
    fn recording_keeps_order_and_replays() {
        let mut r = RecordingSink::new();
        assert!(RecordingSink::ENABLED);
        r.record(&Event::VmReady { vm: 0, t: 1.0 });
        r.record(&Event::VmCrashed { vm: 0, t: 2.0 });
        assert_eq!(r.events.len(), 2);
        assert!(matches!(r.events[0], Event::VmReady { .. }));

        let mut copy = RecordingSink::new();
        r.replay(&mut copy);
        assert_eq!(copy.events, r.events);
    }
}
