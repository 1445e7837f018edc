//! The benchmark's own span recorder. Spans are taken around calls into
//! the library's public functions, kept in memory, and written out as
//! JSONL when the run ends. When off, recording is a branch on a bool.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are ns since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Name of the call the span wraps.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (`u64::MAX` while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by one request's spans (0 for spans of no
    /// request, such as a replay loop).
    pub req: u64,
}

/// Handle of an open span; `NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

/// In-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// ns since the recorder's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// ns offset of an instant from the recorder's epoch.
    pub fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: u64::MAX,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::enter`] (and any left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an already-finished interval, for spans whose start lies in
    /// the past (a request's life from its due time to its answer). It is a
    /// root: it overlaps the batch spans that served it rather than
    /// enclosing them.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, req: u64) {
        if self.on {
            self.spans.push(Span { name, start, end, parent: None, req });
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the durations of its
    /// direct children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end.saturating_sub(s.start);
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.end.saturating_sub(s.start).saturating_sub(c))
            .collect()
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end.saturating_sub(s.start);
            e.2 += own;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((i, s), own) in self.spans.iter().enumerate().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"req\":{},\"self_ns\":{own}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(t.self_times(), vec![60, 10, 20, 10]);
        let totals = t.totals();
        assert_eq!(totals["root"], (1, 100, 60));
        assert_eq!(totals["a"], (1, 30, 10));
        // Self times partition the root's interval.
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        t.span("sibling", 7, || ());
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(0)));
        assert!(s.iter().all(|x| x.req == 7 && x.end >= x.start && x.end != u64::MAX));
        assert!(s[0].start <= s[1].start && s[2].end <= s[0].end);
    }

    #[test]
    fn exiting_an_outer_span_closes_inner_ones() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 0);
        t.enter("left-open", 0);
        t.exit(outer);
        assert!(t.spans().iter().all(|s| s.end != u64::MAX));
        assert!(t.open.is_empty());
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", 1);
        t.exit(id);
        t.record("y", 0, 5, 1);
        assert_eq!(t.span("z", 1, || 3), 3);
        assert!(t.spans().is_empty());
    }
}
