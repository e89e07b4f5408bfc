//! In-memory span recorder for the traced pass. The benchmark opens one
//! span around each call it makes into a library layer (the library itself
//! is not instrumented), so a span's self time is the time spent in that
//! layer minus the layers the benchmark was seen calling inside it.

use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and operation, `module.operation`.
    pub name: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time from start to end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in opening order; a span's id is its index.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span inside the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, and any span still open inside it (a panicking call
    /// unwinds past its own `exit`).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total ns of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Check that the spans form a tree: each is closed, opened after its
    /// parent and lies inside it, and its children cover no more than its
    /// own duration (self time >= 0).
    pub fn check_tree(&self) -> Result<(), String> {
        if let Some(&id) = self.open.last() {
            return Err(format!("span {id} ({}) is still open", self.spans[id].name));
        }
        let mut children = vec![0u64; self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {id} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if p >= id || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                    return Err(format!(
                        "span {id} ({}) is not inside its parent {p} ({})",
                        s.name, ps.name
                    ));
                }
                children[p] += s.duration_ns();
            }
        }
        for (id, (s, c)) in self.spans.iter().zip(children).enumerate() {
            if c > s.duration_ns() {
                return Err(format!("children of span {id} ({}) outlast it", s.name));
            }
        }
        Ok(())
    }
}
