//! Spans recorded by the benchmark's own code around calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! epoch), the span that contains it, and the request it belongs to. Spans
//! of the request in progress are kept in a buffer; when the request ends
//! they are folded into per-name totals (count, wall time, self time), and
//! the raw spans of the first [`RAW_SPAN_CAP`] are kept for the trace file
//! written when the run ends. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.
//!
//! A disabled tracer records nothing: the benchmark runs the same code with
//! tracing off to measure what tracing costs.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw spans kept for the trace file (the per-name totals cover all).
pub const RAW_SPAN_CAP: usize = 200_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call this span times (`codec.decode`, `core.chase`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span within the same request, if any.
    pub parent: Option<u32>,
    /// The request this span belongs to.
    pub req: u64,
}

/// Per-name totals over every finished request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub wall_ns: u64,
    /// Sum of their self times, nanoseconds.
    pub self_ns: u64,
}

/// Span recorder of one client thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    req: u64,
    current: Vec<Span>,
    open: Vec<u32>,
    raw: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

/// Handle of an open span (ignored when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

impl Tracer {
    /// A tracer whose clock starts at `epoch` (shared by all client threads
    /// so their spans line up in the trace file).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            enabled: false,
            epoch,
            req: 0,
            current: Vec::new(),
            open: Vec::new(),
            raw: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Start recording request `req` (when `enabled`) or run it untraced.
    pub fn start_request(&mut self, req: u64, enabled: bool) {
        debug_assert!(self.current.is_empty() && self.open.is_empty());
        self.req = req;
        self.enabled = enabled;
    }

    /// Whether the request in progress is being recorded.
    pub fn recording(&self) -> bool {
        self.enabled
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let index = u32::try_from(self.current.len()).expect("span count fits u32");
        self.current.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(index);
        SpanId(index)
    }

    /// Close span `id` (which must be the innermost open one).
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        let top = self.open.pop().expect("end matches a begin");
        assert_eq!(top, id.0, "spans close innermost first");
        self.current[id.0 as usize].end = now;
    }

    /// Time `f` under a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Finish the current request: fold its spans into the totals.
    pub fn finish_request(&mut self) {
        assert!(self.open.is_empty(), "request finished with open spans");
        for (name, wall, own) in self_times(&self.current) {
            let t = self.totals.entry(name).or_default();
            t.count += 1;
            t.wall_ns += wall;
            t.self_ns += own;
        }
        let room = RAW_SPAN_CAP.saturating_sub(self.raw.len());
        self.raw.extend(self.current.drain(..).take(room));
        self.current.clear();
    }

    /// Per-name totals so far.
    pub fn totals(&self) -> &BTreeMap<&'static str, Totals> {
        &self.totals
    }

    /// Fold another thread's spans into this tracer.
    pub fn merge(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.wall_ns += t.wall_ns;
            mine.self_ns += t.self_ns;
        }
        let room = RAW_SPAN_CAP.saturating_sub(self.raw.len());
        self.raw.extend(other.raw.into_iter().take(room));
    }

    /// Write the kept raw spans, one tab-separated line each:
    /// `req  name  start_ns  end_ns  parent_name`.
    pub fn write_raw(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "req\tname\tstart_ns\tend_ns\tparent")?;
        let mut base = 0usize;
        for (i, span) in self.raw.iter().enumerate() {
            if span.parent.is_none() {
                base = i;
            }
            let parent = span
                .parent
                .and_then(|p| self.raw.get(base + p as usize))
                .map_or("-", |p| p.name);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                span.req, span.name, span.start, span.end, parent
            )?;
        }
        Ok(())
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// `(name, duration, self time)` of every span of one request. Self time is
/// the duration minus the union of the children's intervals clipped to the
/// parent's, so overlapping or out-of-bounds children are never counted
/// twice.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p as usize].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let wall = span.end.saturating_sub(span.start);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(s, e) in kids.iter() {
                let s = s.max(reach);
                let e = e.min(span.end);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.name, wall, wall - covered.min(wall))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("request", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("chase", 40, 90, Some(0)),
            span("repair", 50, 60, Some(2)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![
                ("request", 100, 30),
                ("decode", 20, 20),
                ("chase", 50, 40),
                ("repair", 10, 10),
            ]
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("parent", 10, 50, None),
            span("a", 0, 20, Some(0)),
            span("b", 15, 30, Some(0)),
            span("c", 45, 70, Some(0)),
        ];
        // Covered: [10, 30) from a ∪ b, [45, 50) from c → 25 of 40.
        assert_eq!(self_times(&spans)[0], ("parent", 40, 15));
    }

    #[test]
    fn tracer_nests_and_folds_requests() {
        let mut t = Tracer::new(Instant::now());
        for req in 0..3 {
            t.start_request(req, true);
            t.span("request", |t| {
                t.span("inner", |_| std::hint::black_box(req));
            });
            t.finish_request();
        }
        let totals = t.totals();
        assert_eq!(totals["request"].count, 3);
        assert_eq!(totals["inner"].count, 3);
        assert!(totals["request"].wall_ns >= totals["inner"].wall_ns);
        assert_eq!(
            totals["request"].self_ns,
            totals["request"].wall_ns - totals["inner"].wall_ns
        );
        let mut out = Vec::new();
        t.write_raw(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 7);
        assert!(text
            .lines()
            .any(|l| l.contains("\tinner\t") && l.ends_with("\trequest")));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        t.start_request(9, false);
        t.span("request", |t| t.span("inner", |_| ()));
        t.finish_request();
        assert!(t.totals().is_empty());
    }
}
