//! The benchmark's own span recorder: wall-clock spans taken around calls
//! into each layer's public functions, kept in memory and written out when
//! the run ends.
//!
//! Spans of one repetition form a tree under a `program` root. A span's
//! *self time* is its duration minus the part its children cover; the root's
//! self time is the harness glue between the layer calls, reported as
//! `bench.residual_s` — the check that the layer times sum back to the
//! whole.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `lang.exec.set_partition`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (the identifier spans of one
    /// whole-program run share).
    pub rep: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one (single-threaded) driver.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; timestamps count from now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            // Room for a few traced repetitions of the longest workload, so
            // recording inside a repetition does not reallocate.
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Tag subsequent spans with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span as a child of the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span.
    ///
    /// # Panics
    /// Panics when no span is open (a harness bug).
    pub fn exit(&mut self) {
        let now = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = now;
    }

    /// Record an already-measured span: how the tests build a synthetic
    /// tree with known durations.
    #[cfg(test)]
    fn push_closed(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            rep: self.rep,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `idx` minus the durations of its direct children.
    pub fn self_time_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::duration_ns)
            .sum();
        self.spans[idx].duration_ns().saturating_sub(children)
    }

    /// Total duration of the direct children of `idx`, grouped by name.
    pub fn children_by_name(&self, idx: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent == Some(idx)) {
            *out.entry(s.name).or_insert(0) += s.duration_ns();
        }
        out
    }

    /// The span tree as Chrome trace events (`chrome://tracing`, Perfetto):
    /// one complete (`X`) event per span, one track per repetition.
    pub fn chrome_trace(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "name": s.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": s.rep,
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.duration_ns() as f64 / 1e3,
                    "args": json!({"id": id, "parent": s.parent, "rep": s.rep}),
                })
            })
            .collect();
        json!({"traceEvents": events, "displayTimeUnit": "ms"})
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// program [0, 1000] with children a [100, 400], b [400, 900] and a
    /// grandchild b.inner [500, 600] that must not count against the root.
    fn synthetic() -> (Recorder, usize, usize) {
        let mut r = Recorder::new();
        let root = r.push_closed("program", None, 0, 1000);
        r.push_closed("a", Some(root), 100, 400);
        let b = r.push_closed("b", Some(root), 400, 900);
        r.push_closed("b.inner", Some(b), 500, 600);
        r.push_closed("a", Some(root), 900, 950);
        (r, root, b)
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let (r, root, b) = synthetic();
        assert_eq!(r.self_time_ns(root), 1000 - 300 - 500 - 50);
        assert_eq!(r.self_time_ns(b), 400);
    }

    #[test]
    fn children_and_residual_sum_back_to_the_parent() {
        let (r, root, _) = synthetic();
        let by_name = r.children_by_name(root);
        assert_eq!(by_name["a"], 350);
        assert_eq!(by_name["b"], 500);
        let children: u64 = by_name.values().sum();
        assert_eq!(
            children + r.self_time_ns(root),
            r.spans()[root].duration_ns()
        );
    }

    #[test]
    fn enter_exit_nest_under_the_open_span() {
        let mut r = Recorder::new();
        r.set_rep(3);
        let root = r.enter("program");
        let child = r.enter("child");
        r.exit();
        r.exit();
        assert_eq!(r.spans()[child].parent, Some(root));
        assert_eq!(r.spans()[root].parent, None);
        assert_eq!(r.spans()[child].rep, 3);
        assert!(r.spans()[root].duration_ns() >= r.spans()[child].duration_ns());
        let trace = serde_json::to_string(&r.chrome_trace()).unwrap();
        assert!(trace.contains("\"traceEvents\""));
    }
}
