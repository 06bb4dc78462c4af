//! Span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls
//! into each layer's public functions. A request's spans share its
//! `request` number; `parent` names the span that caused this one. The
//! buffer is allocated once, before the first lap, and written out as
//! JSON lines when the run ends.
//!
//! The parent → child relation is causal, not temporal: a wire
//! request's children are measured on the shadow replica *after* the
//! reply arrived (the server is in another thread and is not
//! instrumented), so a child's interval can lie outside its parent's.
//! Self time is therefore defined on durations: the parent's duration
//! minus the length of the union of its children's intervals.

use std::io::{self, Write};
use std::time::Instant;

/// Identifier of a recorded span; `NONE` marks a root.
pub type SpanId = u32;

/// The parent of a root span.
pub const NONE: SpanId = 0;

/// One recorded span. Times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A fixed-capacity span buffer. When it is full further spans are
/// counted as dropped instead of growing the buffer mid-measurement.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records a span and returns its id (`NONE` when dropped).
    pub fn span(
        &mut self,
        parent: SpanId,
        request: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as SpanId + 1;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time in nanoseconds of every span named `name`.
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_time_ns(s.duration_ns(), &mut children[s.id as usize]))
            .collect()
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// A span's self time: its duration minus the length of the union of
/// its children's intervals (overlapping children are counted once),
/// floored at zero.
pub fn self_time_ns(duration_ns: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for &(start, end) in children.iter() {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    duration_ns.saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time_ns(100, &mut [(10, 30), (50, 60)]), 70);
        // Overlapping and nested children count once.
        assert_eq!(self_time_ns(100, &mut [(10, 40), (30, 50), (35, 38)]), 60);
        // Order does not matter.
        assert_eq!(self_time_ns(100, &mut [(50, 60), (10, 30)]), 70);
        // Children measured outside the parent's interval (the shadow
        // replica runs after the reply) still count by length.
        assert_eq!(self_time_ns(100, &mut [(1000, 1040)]), 60);
        // Never negative.
        assert_eq!(self_time_ns(10, &mut [(0, 50)]), 0);
        assert_eq!(self_time_ns(10, &mut []), 10);
    }

    #[test]
    fn recorder_links_spans_and_computes_self_times() {
        let mut rec = Recorder::with_capacity(8);
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = rec.span(NONE, 1, "request", at(0), at(100));
        let mid = rec.span(root, 1, "middleware", at(110), at(170));
        rec.span(mid, 1, "predict", at(120), at(150));
        rec.span(root, 1, "codec", at(180), at(190));
        assert_eq!(rec.spans().len(), 4);
        assert_eq!(rec.self_times_ns("request"), vec![30_000]);
        assert_eq!(rec.self_times_ns("middleware"), vec![30_000]);
        assert_eq!(rec.self_times_ns("predict"), vec![30_000]);
        assert_eq!(rec.durations_ns("codec"), vec![10_000]);
        assert_eq!(rec.spans()[1].parent, root);
        assert_eq!(rec.spans()[2].request, 1);
    }

    #[test]
    fn recorder_never_grows_past_its_capacity() {
        let mut rec = Recorder::with_capacity(2);
        let t = Instant::now();
        assert_eq!(rec.span(NONE, 0, "a", t, t), 1);
        assert_eq!(rec.span(NONE, 0, "b", t, t), 2);
        assert_eq!(rec.span(NONE, 0, "c", t, t), NONE);
        assert_eq!((rec.spans().len(), rec.dropped()), (2, 1));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut rec = Recorder::with_capacity(2);
        let t = Instant::now();
        let a = rec.span(NONE, 7, "driver.request", t, t + Duration::from_nanos(5));
        rec.span(a, 7, "middleware.request", t, t);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0]
            .starts_with("{\"id\":1,\"parent\":0,\"request\":7,\"name\":\"driver.request\""));
        assert!(lines[1].contains("\"parent\":1"));
    }
}
