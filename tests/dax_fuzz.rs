//! Seeded mutation fuzzing of the DAX reader.
//!
//! Starts from 30-task DAX documents of the three paper generators and
//! derives about 5 000 mutants: byte flips, numeric attributes replaced by
//! hostile values (`NaN`, `inf`, `-1`, `1e308`, empty), truncation, and
//! duplicated or dropped tags. Every mutant must come back as `Ok` or a
//! `DaxError` — never a panic — and every accepted workflow must carry
//! finite, positive weights and finite, non-negative data sizes. The
//! mutation stream is fixed by the seed, so a failure reproduces exactly.
//! Every accepted workflow is then planned with HEFTBUDG at twice its
//! min-cost floor: planning must not panic, the planning replay must return
//! a report or a typed `SimError`, and the budget ledger rebuilt from the
//! replay's events must reconcile to the bill exactly. (The plan linter is
//! not asserted here: byte sizes near 1e308 push the clock to about 1e300 s,
//! where a task's duration rounds away.)
//! Every mutant's outcome — the field hash of the accepted workflow, or the
//! text of the error — is folded into one pinned FNV-1a constant, so any
//! change to what the reader returns for any mutant shows up here.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use budget_sched::prelude::*;
use budget_sched::scheduler::heft_budg_observed;
use budget_sched::workflow::dax::{from_dax, to_dax, DaxError};
use common::{hash, Fnv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SPEED: f64 = 10.0;
const MUTANTS_PER_SEED: usize = 1700;
const HOSTILE_NUMBERS: [&str; 5] = ["NaN", "inf", "-1", "1e308", ""];
const NUMERIC_ATTRS: [&str; 3] = ["runtime=\"", "sigma=\"", "size=\""];
/// Bytes a flip writes: the DAX syntax characters, digits, and letters.
const FLIP_BYTES: &[u8] = b"<>/=\"&;!?- \n.e0123456789abcdefghijklmnopqrstuvwxyzAEINT";
/// FNV-1a fold of every mutant's outcome, recorded with the tag-list reader.
const PINNED_OUTCOMES: u64 = 424407990953901297;

/// Byte spans `[start, end)` of every `<...>` tag of `doc`.
fn tag_spans(doc: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(lt) = doc[from..].find('<') {
        let start = from + lt;
        let Some(gt) = doc[start..].find('>') else {
            break;
        };
        spans.push((start, start + gt + 1));
        from = start + gt + 1;
    }
    spans
}

/// Value spans of every `runtime`, `sigma` and `size` attribute of `doc`.
fn numeric_spans(doc: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for attr in NUMERIC_ATTRS {
        let mut from = 0;
        while let Some(at) = doc[from..].find(attr) {
            let start = from + at + attr.len();
            let len = doc[start..].find('"').unwrap_or(0);
            spans.push((start, start + len));
            from = start;
        }
    }
    spans
}

/// One mutant of `doc` (pure ASCII), and a label for failure messages.
fn mutate(doc: &str, rng: &mut StdRng) -> (String, String) {
    let mut out = doc.to_string();
    let rounds = rng.gen_range(1..=3usize);
    let kind = rng.gen_range(0..5u32);
    let mut label = String::new();
    for _ in 0..rounds {
        if out.is_empty() {
            break;
        }
        match kind {
            0 => {
                let mut bytes = out.into_bytes();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = FLIP_BYTES[rng.gen_range(0..FLIP_BYTES.len())];
                label += &format!("flip@{at}={:?} ", bytes[at] as char);
                out = String::from_utf8(bytes).unwrap();
            }
            1 => {
                let spans = numeric_spans(&out);
                let (s, e) = spans[rng.gen_range(0..spans.len())];
                let v = HOSTILE_NUMBERS[rng.gen_range(0..HOSTILE_NUMBERS.len())];
                label += &format!("number@{s}={v:?} ");
                out.replace_range(s..e, v);
            }
            2 => {
                let at = rng.gen_range(0..out.len());
                label += &format!("truncate@{at} ");
                out.truncate(at);
            }
            _ => {
                let spans = tag_spans(&out);
                if spans.is_empty() {
                    continue;
                }
                let (s, e) = spans[rng.gen_range(0..spans.len())];
                if kind == 3 {
                    label += &format!("dup-tag@{s} ");
                    let tag = out[s..e].to_string();
                    out.insert_str(e, &tag);
                } else {
                    label += &format!("drop-tag@{s} ");
                    out.replace_range(s..e, "");
                }
            }
        }
    }
    (out, label)
}

/// Everything an accepted workflow promises downstream.
fn check_accepted(wf: &Workflow, label: &str) {
    for t in wf.tasks() {
        let w = t.weight;
        assert!(
            w.mean.is_finite() && w.mean > 0.0,
            "{label}: task {} mean {}",
            t.id,
            w.mean
        );
        assert!(
            w.std_dev.is_finite() && w.std_dev >= 0.0,
            "{label}: task {} σ {}",
            t.id,
            w.std_dev
        );
        for x in [t.external_input, t.external_output] {
            assert!(
                x.is_finite() && x >= 0.0,
                "{label}: task {} external data {x}",
                t.id
            );
        }
    }
    for e in wf.edges() {
        assert!(
            e.size.is_finite() && e.size >= 0.0,
            "{label}: edge size {}",
            e.size
        );
    }
}

/// Plans `wf` with HEFTBUDG at twice its min-cost floor and replays the
/// plan under the planning model. Returns whether the replay produced a
/// report (its ledger reconciled) rather than a typed error.
fn check_plans(wf: &Workflow, platform: &Platform, label: &str) -> bool {
    let planned = catch_unwind(AssertUnwindSafe(|| {
        let cheapest = min_cost_schedule(wf, platform);
        let floor = simulate(wf, platform, &cheapest, &SimConfig::planning())?.total_cost;
        let mut rec = RecordingSink::new();
        let (sched, _) = heft_budg_observed(wf, platform, 2.0 * floor, &mut rec);
        let report = simulate_observed(wf, platform, &sched, &SimConfig::planning(), &mut rec)?;
        Ok::<_, budget_sched::simulator::SimError>((report, rec.events))
    }))
    .unwrap_or_else(|_| panic!("{label}: planning or its replay panicked"));
    let Ok((report, events)) = planned else {
        return false;
    };
    let ledger = BudgetLedger::from_events(&events);
    assert!(
        ledger.reconcile(report.total_cost),
        "{label}: ledger {} != bill {}",
        ledger.billed_total(),
        report.total_cost
    );
    true
}

#[test]
fn mutated_dax_documents_return_ok_or_a_typed_error() {
    let (mut accepted, mut bad_values, mut other_errors) = (0, 0, 0);
    let mut outcomes = Fnv::new();
    let mut replayed = 0;
    let platform = Platform::paper_default();
    for (seed, wf) in [
        montage(GenConfig::new(30, 1)),
        cybershake(GenConfig::new(30, 2)),
        ligo(GenConfig::new(30, 3)),
    ]
    .into_iter()
    .enumerate()
    {
        let doc = to_dax(&wf, SPEED);
        assert!(doc.is_ascii());
        let mut rng = StdRng::seed_from_u64(0xDA5 + seed as u64);
        for case in 0..MUTANTS_PER_SEED {
            let (mutant, label) = mutate(&doc, &mut rng);
            let label = format!("{} case {case}: {label}", wf.name);
            let result = catch_unwind(AssertUnwindSafe(|| from_dax(&mutant, SPEED)))
                .unwrap_or_else(|_| panic!("{label}: from_dax panicked"));
            match &result {
                Ok(back) => {
                    check_accepted(back, &label);
                    outcomes.word(hash(back));
                    accepted += 1;
                    replayed += usize::from(check_plans(back, &platform, &label));
                }
                Err(e) => {
                    outcomes.str(&e.to_string());
                    if matches!(e, DaxError::BadValue { .. }) {
                        bad_values += 1;
                    } else {
                        other_errors += 1;
                    }
                }
            }
        }
    }
    // The stream must reach all three outcomes, and accepted workflows must
    // reach the ledger check, or it tests nothing.
    assert!(accepted > 500, "only {accepted} mutants parsed");
    assert!(
        bad_values > 200,
        "only {bad_values} out-of-range values caught"
    );
    assert!(other_errors > 500, "only {other_errors} other errors");
    assert!(replayed > 500, "only {replayed} plans replayed");
    assert_eq!(
        outcomes.0, PINNED_OUTCOMES,
        "the reader's outcome on some mutant moved"
    );
}
