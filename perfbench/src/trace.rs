//! In-memory spans recorded by the benchmark around its calls into each
//! layer.  Disabled, `begin` and `end` are one branch each and record
//! nothing; the end-to-end run keeps them disabled.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// A span handle; `NONE` when tracing is off.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The request the span belongs to: the frame ordinal for spans of
    /// one `FEED`, the repetition for batch spans.
    pub req: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        if let Some(pos) = self.open.iter().rposition(|&s| s == id) {
            self.open.truncate(pos);
        }
    }

    /// Add a span measured elsewhere, as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            req,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover.  Spans are recorded by one thread and nest, so
    /// children never overlap.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(children);
            let slot = out.entry(s.name).or_default();
            slot.0 += 1;
            slot.1 += own as f64;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a", 0);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 3);
        let child = t.begin("child", 3);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let after = t.begin("after", 4);
        let now = Instant::now();
        t.record(
            "recorded",
            now,
            now + std::time::Duration::from_micros(5),
            4,
        );
        t.end(after);
        assert_eq!(t.spans()[child].parent, Some(root));
        assert_eq!(t.spans()[after].parent, None);
        assert_eq!(t.spans()[after + 1].parent, Some(after));
        assert_eq!(t.total_ns("recorded"), 5000.0);
        let selfs = t.self_times();
        let root_total = t.total_ns("root");
        let child_total = t.total_ns("child");
        assert!(child_total >= 2e6);
        assert_eq!(selfs["root"].1, root_total - child_total);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("\"name\":\"child\""));
        assert!(text.contains(&format!("\"parent\":{root}")));
    }
}
