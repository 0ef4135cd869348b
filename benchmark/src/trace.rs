//! Outside-in spans: the benchmark brackets calls into the product's
//! public API, keeps the spans in memory, and reduces them to per-layer
//! self times when the run ends. Nothing here runs inside product code.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: nanoseconds from the tracer's origin, and the span
/// that was open when it started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder. Spans nest strictly: `exit` closes the
/// innermost open span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets every recorded span (the origin stays).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }
}

/// Total self time per span name, in nanoseconds: each span's duration
/// minus the durations of its direct children (children nest inside their
/// parent, so they never overlap it partially).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    out
}

/// Total duration of every span named `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25).
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], 100 - 30 - 40);
        assert_eq!(t["a"], 30 - 10);
        assert_eq!(t["c"], 10);
        assert_eq!(t["b"], 40);
        // Self times partition the root's duration.
        assert_eq!(t.values().sum::<u64>(), 100);
        assert_eq!(total_ns(&spans, "op"), 100);
    }

    #[test]
    fn repeated_names_accumulate() {
        let spans = [
            span("op", 0, 50, None),
            span("chirp", 0, 10, Some(0)),
            span("chirp", 10, 30, Some(0)),
            span("op", 60, 70, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["chirp"], 30);
        assert_eq!(t["op"], 20 + 10);
    }

    #[test]
    fn tracer_records_nesting() {
        let mut tr = Tracer::default();
        let v = tr.span("outer", || 1);
        tr.enter("outer");
        tr.span("inner", || ());
        tr.exit();
        assert_eq!(v, 1);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[1].start_ns <= spans[2].start_ns && spans[2].end_ns <= spans[1].end_ns);
        tr.clear();
        assert!(tr.spans().is_empty());
    }
}
