//! Deterministic counters.
//!
//! Counters are named monotone `u64`s in a `BTreeMap`, so iteration (and
//! the rendered table) is deterministic.

use crate::event::Event;
use crate::sink::EventSink;
use std::collections::BTreeMap;

/// Counter sink. Consumes explicit [`Event::Counter`] events and
/// additionally derives a few structural counters (candidate evaluations,
/// placements, simulator activity) from the rest of the stream.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    counts: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a recorded event stream.
    pub fn from_events(events: &[Event]) -> Self {
        let mut c = Self::new();
        for e in events {
            c.record(e);
        }
        c
    }

    /// Increment a named counter.
    pub fn bump(&mut self, name: &'static str, delta: u64) {
        *self.counts.entry(name).or_insert(0) += delta;
    }

    /// Current value of a counter (0 if never bumped).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// All counters, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Render a deterministic text table of counters.
    pub fn table(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let width = self.counts.keys().map(|k| k.len()).max().unwrap_or(8).max(8);
        for (name, v) in &self.counts {
            let _ = writeln!(s, "{name:width$}  {v:>12}");
        }
        s
    }
}

impl EventSink for Counters {
    fn record(&mut self, event: &Event) {
        match *event {
            Event::Counter { name, delta } => self.bump(name, delta),
            Event::CandidateEvaluated { .. } => self.bump("candidate_evals", 1),
            Event::TaskPlaced { new_vm, .. } => {
                self.bump("tasks_placed", 1);
                if new_vm {
                    self.bump("vms_provisioned", 1);
                }
            }
            Event::RefineMove { .. } => self.bump("refine_moves", 1),
            Event::RecoveryEpoch { .. } => self.bump("recovery_epochs", 1),
            Event::VmBooked { .. } => self.bump("sim_vm_boots", 1),
            Event::BootAbandoned { .. } => self.bump("sim_boots_abandoned", 1),
            Event::TaskStarted { .. } => self.bump("sim_task_starts", 1),
            Event::TaskAborted { .. } => self.bump("sim_tasks_lost", 1),
            Event::TransferStarted { .. } => self.bump("sim_transfers", 1),
            Event::VmCrashed { .. } => self.bump("sim_vm_crashes", 1),
            Event::DegradationStarted { .. } => self.bump("sim_degradations", 1),
            _ => {}
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let events = [
            Event::Counter { name: "cache_hits", delta: 3 },
            Event::Counter { name: "cache_hits", delta: 2 },
            Event::CandidateEvaluated {
                task: 0,
                used: false,
                host: 0,
                eft: 1.0,
                cost: 1.0,
                affordable: true,
            },
        ];
        let c = Counters::from_events(&events);
        assert_eq!(c.get("cache_hits"), 5);
        assert_eq!(c.get("candidate_evals"), 1);
        assert_eq!(c.get("absent"), 0);
        let t = c.table();
        assert!(t.contains("cache_hits"));
    }
}
