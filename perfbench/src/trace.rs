//! Spans recorded by the benchmark around its own calls into each layer's
//! public functions; the library crates carry no instrumentation. A
//! [`Recorder`] belongs to one thread, keeps its spans in memory and hands
//! them over when that thread is done; the run writes them all out once, at
//! the end.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: its layer-qualified name, the span that caused it, the
/// request it served, and its start and end on the run's clock.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration minus the part covered by this span's children (filled in
    /// by [`Recorder::finish`]).
    pub self_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. A disabled recorder records nothing, so the
/// untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span; `None` when the recorder is disabled.
#[must_use = "close the span with Recorder::end"]
pub struct Open(Option<usize>);

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Opens a span as a child of the innermost span still open.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            thread: self.thread,
            id,
            parent: self.open.last().copied(),
            request,
            start_ns,
            end_ns: start_ns,
            self_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Closes the recorder and computes every span's self time. Children
    /// run on their parent's thread and inside its interval, so they never
    /// overlap and the covered part is the sum of their durations.
    pub fn finish(mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        for (s, c) in self.spans.iter_mut().zip(covered) {
            s.self_ns = s.duration_ns().saturating_sub(c);
        }
        self.spans
    }
}

/// Durations in seconds of every span called `name`, in recording order.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

/// Renders the spans as JSON lines, one span per line.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"thread\": {}, \"id\": {}, \"parent\": {parent}, \"request\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            s.name, s.thread, s.id, s.request, s.start_ns, s.end_ns, s.self_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true, Instant::now(), 0);
        let outer = rec.begin("outer", 0);
        let inner = rec.begin("inner", 0);
        std::hint::black_box((0..10_000u64).sum::<u64>());
        rec.end(inner);
        rec.end(outer);
        let spans = rec.finish();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            spans[0].self_ns,
            spans[0].duration_ns() - spans[1].duration_ns()
        );
        assert_eq!(spans[1].self_ns, spans[1].duration_ns());
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        let s = rec.begin("x", 0);
        rec.end(s);
        assert!(rec.finish().is_empty());
    }
}
