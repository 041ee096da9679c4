//! Spans recorded by the benchmark's own code around its calls into each
//! layer (there are no spans inside the engine yet). One pre-sized buffer,
//! written out once at exit; a layer's figure is the median **self** time
//! of its spans: duration minus what its child spans cover.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the buffer; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Statement (or class) the operation belongs to.
    pub stmt: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// `capacity` spans are allocated up front so recording never grows
    /// the buffer inside a measured region in the common case.
    pub fn with_capacity(capacity: usize) -> Trace {
        Trace { origin: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Buffer time of an instant taken elsewhere (after the buffer was
    /// created).
    pub fn at_ns(&self, instant: Instant) -> u64 {
        instant.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span; [`end`](Trace::end) closes it.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, stmt: u32) -> SpanId {
        let now = self.now_ns();
        self.push(name, now, now, parent, stmt)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a span whose interval is already known (a duration the
    /// engine returned in its `Report`, placed inside the calling span).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        stmt: u32,
    ) -> SpanId {
        self.spans.push(Span { name, start_ns, end_ns, parent, stmt });
        (self.spans.len() - 1) as SpanId
    }

    pub fn span(&self, id: SpanId) -> Span {
        self.spans[id as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the sum of its direct
    /// children's durations (children are disjoint by construction).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Median self time in µs of the spans named `name`; `None` if no
    /// such span was recorded.
    pub fn median_self_us(&self, name: &str) -> Option<f64> {
        let own = self.self_times_ns();
        let v: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        (!v.is_empty()).then(|| stats::median(&v))
    }

    /// Total self time per span name, in ns, over the descendants of the
    /// spans named `root` (the roots' own self time is listed under
    /// `root`: it is the part of an operation no layer span covers).
    pub fn self_totals_under(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let own = self.self_times_ns();
        // A span is counted when its chain of parents reaches a `root`
        // span; parents precede children in the buffer.
        let mut under = vec![false; self.spans.len()];
        let mut totals = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            under[i] = s.name == root || (s.parent != NO_PARENT && under[s.parent as usize]);
            if under[i] {
                *totals.entry(s.name).or_insert(0) += own[i];
            }
        }
        totals
    }

    /// The whole buffer as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 72);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"stmt\":{}}}",
                s.name, s.start_ns, s.end_ns, s.stmt
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::with_capacity(8);
        let op = t.push("op", 0, 1000, NO_PARENT, 3);
        t.push("sql.plan_sql", 0, 100, op, 3);
        let ex = t.push("session.execute", 150, 950, op, 3);
        t.push("codegen.generate", 150, 350, ex, 3);
        t.push("engine.exec", 450, 950, ex, 3);
        // A second, childless operation.
        t.push("op", 2000, 2400, NO_PARENT, 4);
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = sample();
        let own = t.self_times_ns();
        // op: 1000 - (100 + 800); execute: 800 - (200 + 500).
        assert_eq!(own, vec![100, 100, 100, 200, 500, 400]);
        assert_eq!(t.median_self_us("op"), Some(0.25));
        assert_eq!(t.median_self_us("engine.exec"), Some(0.5));
        assert_eq!(t.median_self_us("absent"), None);
    }

    #[test]
    fn totals_under_a_root_add_up_to_the_roots() {
        let t = sample();
        let totals = t.self_totals_under("op");
        assert_eq!(totals.values().sum::<u64>(), 1000 + 400);
        assert_eq!(totals["op"], 500);
        assert_eq!(totals["codegen.generate"], 200);
        // Spans outside the root are not counted.
        assert!(!t.self_totals_under("session.execute").contains_key("sql.plan_sql"));
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let t = sample();
        let j = t.to_json("w", 7);
        assert_eq!(j.matches("\"id\":").count(), t.spans().len());
        assert!(j.contains("\"name\":\"op\",\"start\":0,\"end\":1000,\"parent\":-1,\"stmt\":3"));
        assert!(j.contains("\"name\":\"engine.exec\",\"start\":450,\"end\":950,\"parent\":2"));
    }
}
