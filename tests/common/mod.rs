//! FNV-1a fingerprint of everything a parsed workflow carries, shared by
//! the DAX golden and fuzz tests.

use budget_sched::prelude::*;

/// FNV-1a over 64-bit words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// Folds the `to_bits` of every field: name, task names, weights,
    /// external I/O, edges in order, adjacency lists and the topological
    /// order.
    pub fn workflow(&mut self, wf: &Workflow) {
        self.str(&wf.name);
        self.word(wf.task_count() as u64);
        for t in wf.tasks() {
            self.word(u64::from(t.id.0));
            self.str(&t.name);
            self.f(t.weight.mean);
            self.f(t.weight.std_dev);
            self.f(t.external_input);
            self.f(t.external_output);
        }
        self.word(wf.edge_count() as u64);
        for e in wf.edges() {
            self.word(u64::from(e.from.0));
            self.word(u64::from(e.to.0));
            self.f(e.size);
        }
        for t in wf.task_ids() {
            for &e in wf.in_edges(t).iter().chain(wf.out_edges(t)) {
                self.word(u64::from(e.0));
            }
        }
        for t in wf.topological_order() {
            self.word(u64::from(t.0));
        }
    }
}

/// The field hash of one workflow.
pub fn hash(wf: &Workflow) -> u64 {
    let mut h = Fnv::new();
    h.workflow(wf);
    h.0
}
