//! Naive reference mode for the planner fast path.
//!
//! The dominance-pruned candidate sweep behind every host choice
//! ([`crate::PlanState::sweep`]: `getBestHost`, CG, SUFFERAGE's top-two
//! set and BDT's grown set) and the incremental MIN-MIN/MAX-MIN selection
//! caches are designed to be *observationally identical* to the
//! straightforward implementations they replaced. This module provides
//! the switch that turns those optimizations off — every sweep then
//! hands over the oracle
//! ([`crate::PlanState::evaluate_all`], one evaluation per candidate), and
//! nothing is pruned or cached — so tests can run any algorithm twice,
//! fast and naive, and assert the outputs match bit for bit.
//!
//! The flag is thread-local and sampled when a [`crate::PlanState`] is
//! constructed, so wrapping a whole algorithm run is enough:
//!
//! ```
//! use wfs_scheduler::{reference, Algorithm};
//! use wfs_platform::Platform;
//! use wfs_workflow::gen::chain;
//!
//! let wf = chain(4, 100.0, 1e6);
//! let p = Platform::paper_default();
//! let fast = Algorithm::MinMinBudg.run(&wf, &p, 10.0);
//! let naive = reference::with_naive(|| Algorithm::MinMinBudg.run(&wf, &p, 10.0));
//! assert_eq!(fast, naive);
//! ```

use std::cell::Cell;

thread_local! {
    static NAIVE: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the naive reference mode enabled on this thread: every
/// `PlanState` created inside uses per-candidate evaluation of every
/// candidate (no pruning) and the incremental selection caches are
/// bypassed. Restores the previous mode
/// on exit (also on panic).
pub fn with_naive<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            NAIVE.with(|n| n.set(self.0));
        }
    }
    let _guard = Restore(NAIVE.with(|n| n.replace(true)));
    f()
}

/// Whether naive reference mode is active on this thread.
pub(crate) fn naive_enabled() -> bool {
    NAIVE.with(|n| n.get())
}
