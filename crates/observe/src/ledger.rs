//! The budget ledger: every share/spend/pot movement on the planning side,
//! every Eq. 1–2 charge on the execution side, reconciled bit-exactly.
//!
//! Reconciliation works because the emission order mirrors the arithmetic:
//! the engine emits one [`Event::VmBilled`] per VM in report order followed
//! by [`Event::DcBilled`], and the ledger folds costs in that exact order
//! (`vm₀ + vm₁ + … + C_DC`), reproducing `SimulationReport::total_cost`
//! bit-for-bit; recovery accumulates epoch totals the same way the recovery
//! loop accumulates `spent`. [`BudgetLedger::reconcile`] therefore compares
//! with `to_bits` equality — no epsilon.

use crate::event::Event;
use crate::sink::EventSink;

/// The Eq. 5 budget-division record.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReservationRecord {
    /// The full initial budget.
    initial: f64,
    /// Reserved for datacenter transfers.
    reserved_datacenter: f64,
    /// Reserved for VM boot intervals.
    reserved_init: f64,
    /// Remainder divided into per-task shares.
    b_calc: f64,
}

/// Audit ledger over the budget-relevant slice of the event stream; also an
/// [`EventSink`] (ignores non-budget events), so it can be fed live or via
/// [`BudgetLedger::from_events`].
#[derive(Debug, Clone, Default)]
pub struct BudgetLedger {
    /// Budget-relevant events seen; the stream itself stays with the
    /// caller (a `RecordingSink` holds it whole).
    entry_count: usize,
    reservation: Option<ReservationRecord>,
    share_total: f64,
    share_count: u32,
    planned_cost: f64,
    placed_count: u32,
    last_share: f64,
    pot_violations: u32,
    final_pot: f64,
    epoch_vm_sum: f64,
    epoch_totals: Vec<f64>,
    billed_total: f64,
}

impl BudgetLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a ledger from a recorded event stream.
    pub fn from_events(events: &[Event]) -> Self {
        let mut l = Self::new();
        for e in events {
            l.record(e);
        }
        l
    }

    /// Tasks placed.
    pub fn placed_count(&self) -> u32 {
        self.placed_count
    }

    /// Placements whose pot movement did not replay as
    /// `max(0, pot_before + share − cost)` — always 0 for a well-formed
    /// stream.
    pub fn pot_violations(&self) -> u32 {
        self.pot_violations
    }

    /// Per-epoch billed totals (one entry per [`Event::DcBilled`]).
    pub fn epoch_totals(&self) -> &[f64] {
        &self.epoch_totals
    }

    /// The billed grand total (Σ epochs of `Σ C_v + C_DC`).
    pub fn billed_total(&self) -> f64 {
        self.billed_total
    }

    /// Bit-exact reconciliation against the simulator's bill
    /// (`SimulationReport::total_cost`, or recovery's accumulated `spent`).
    pub fn reconcile(&self, bill: f64) -> bool {
        self.billed_total.to_bits() == bill.to_bits()
    }

    /// Human-readable audit summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "budget ledger ({} entries)", self.entry_count);
        if let Some(r) = self.reservation {
            let _ = writeln!(
                s,
                "  reserved: initial {:.6}  datacenter {:.6}  boot {:.6}  b_calc {:.6}",
                r.initial, r.reserved_datacenter, r.reserved_init, r.b_calc
            );
        }
        let _ = writeln!(
            s,
            "  planning: {} placements  shares {:.6}  committed {:.6}  final pot {:.6}  pot violations {}",
            self.placed_count, self.share_total, self.planned_cost, self.final_pot, self.pot_violations
        );
        for (i, t) in self.epoch_totals.iter().enumerate() {
            let _ = writeln!(s, "  epoch {i}: billed {t:.6}");
        }
        let _ = writeln!(s, "  billed total {:.6}", self.billed_total);
        s
    }
}

impl EventSink for BudgetLedger {
    fn record(&mut self, event: &Event) {
        match *event {
            Event::BudgetReserved { initial, reserved_datacenter, reserved_init, b_calc } => {
                self.reservation = Some(ReservationRecord {
                    initial,
                    reserved_datacenter,
                    reserved_init,
                    b_calc,
                });
            }
            Event::TaskShare { share, .. } => {
                self.share_total += share;
                self.share_count += 1;
                self.last_share = share;
            }
            Event::TaskPlaced { cost, pot_before, pot_after, .. } => {
                self.planned_cost += cost;
                self.placed_count += 1;
                // Replay the pot movement with the same arithmetic as
                // `Pot::settle`; a share-less placement (unconstrained
                // planner) moves nothing.
                let expected = if self.share_count > self.placed_count.saturating_sub(1) {
                    (pot_before + self.last_share - cost).max(0.0)
                } else {
                    pot_before
                };
                if pot_after.to_bits() != expected.to_bits() {
                    self.pot_violations += 1;
                }
                self.final_pot = pot_after;
            }
            Event::EpochStarted { .. } | Event::RecoveryEpoch { .. } => {}
            Event::VmBilled { cost, .. } => self.epoch_vm_sum += cost,
            Event::DcBilled { cost, .. } => {
                // Mirrors `total_cost = vm_cost + datacenter_cost` …
                let epoch_total = self.epoch_vm_sum + cost;
                self.epoch_vm_sum = 0.0;
                self.epoch_totals.push(epoch_total);
                // … and recovery's `spent += run.report.total_cost`.
                self.billed_total += epoch_total;
            }
            _ => return,
        }
        self.entry_count += 1;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn vm_and_dc_bills_fold_in_order() {
        let costs = [0.125, 0.25, 0.0625];
        let mut l = BudgetLedger::new();
        for (i, &c) in costs.iter().enumerate() {
            l.record(&Event::VmBilled {
                vm: u32::try_from(i).unwrap(),
                category: 0,
                booked_at: 0.0,
                ready_at: 1.0,
                released_at: 2.0,
                cost: c,
                tasks_run: 1,
            });
        }
        l.record(&Event::DcBilled { cost: 0.5, makespan: 2.0 });
        let expected: f64 = costs.iter().sum::<f64>() + 0.5;
        assert!(l.reconcile(expected));
        assert_eq!(l.epoch_totals(), &[expected]);
        assert!(!l.reconcile(expected + 1e-12));
    }

    #[test]
    fn multi_epoch_totals_accumulate() {
        let mut l = BudgetLedger::new();
        for epoch in 0..2u32 {
            l.record(&Event::EpochStarted { epoch, t_offset: f64::from(epoch) * 10.0 });
            l.record(&Event::VmBilled {
                vm: 0,
                category: 0,
                booked_at: 0.0,
                ready_at: 1.0,
                released_at: 2.0,
                cost: 1.0,
                tasks_run: 1,
            });
            l.record(&Event::DcBilled { cost: 0.25, makespan: 5.0 });
        }
        assert_eq!(l.epoch_totals().len(), 2);
        assert!(l.reconcile(2.5));
    }

    #[test]
    fn pot_replay_flags_inconsistencies() {
        let mut l = BudgetLedger::new();
        l.record(&Event::TaskShare { task: 0, share: 2.0 });
        l.record(&Event::TaskPlaced {
            task: 0,
            vm: 0,
            new_vm: true,
            eft: 1.0,
            cost: 1.5,
            limit: 2.0,
            pot_before: 0.0,
            pot_after: 0.5,
        });
        assert_eq!(l.pot_violations(), 0);
        l.record(&Event::TaskShare { task: 1, share: 1.0 });
        l.record(&Event::TaskPlaced {
            task: 1,
            vm: 0,
            new_vm: false,
            eft: 2.0,
            cost: 0.5,
            limit: 1.5,
            pot_before: 0.5,
            pot_after: 99.0, // wrong on purpose
        });
        assert_eq!(l.pot_violations(), 1);
        assert_eq!(l.placed_count(), 2);
        assert!(l.summary().contains("shares 3.000000"));
        assert!(l.summary().contains("pot violations 1"));
    }

    /// The count behind `summary()`'s header takes one entry per budget
    /// event and none for the rest of the stream.
    #[test]
    fn summary_counts_one_entry_per_budget_event() {
        let stream = [
            Event::PlanStarted { algorithm: "HEFTBUDG", tasks: 1, budget: 2.0 },
            Event::BudgetReserved {
                initial: 2.0,
                reserved_datacenter: 0.25,
                reserved_init: 0.25,
                b_calc: 1.5,
            },
            Event::TaskShare { task: 0, share: 1.5 },
            Event::Counter { name: "plan_sweeps", delta: 1 },
            Event::TaskPlaced {
                task: 0,
                vm: 0,
                new_vm: true,
                eft: 1.0,
                cost: 1.0,
                limit: 1.5,
                pot_before: 0.0,
                pot_after: 0.5,
            },
            Event::EpochStarted { epoch: 0, t_offset: 0.0 },
            Event::VmReady { vm: 0, t: 1.0 },
            Event::VmCrashed { vm: 0, t: 2.0 },
            Event::VmBilled {
                vm: 0,
                category: 0,
                booked_at: 0.0,
                ready_at: 1.0,
                released_at: 2.0,
                cost: 1.0,
                tasks_run: 1,
            },
            Event::DcBilled { cost: 0.25, makespan: 2.0 },
            Event::RecoveryEpoch {
                epoch: 0,
                scheduled: 1,
                newly_durable: 1,
                cost: 1.25,
                budget_before: 2.0,
                makespan: 2.0,
            },
        ];
        let l = BudgetLedger::from_events(&stream);
        assert!(l.summary().starts_with("budget ledger (7 entries)\n"), "{}", l.summary());
        assert!(BudgetLedger::new().summary().starts_with("budget ledger (0 entries)\n"));
    }
}
