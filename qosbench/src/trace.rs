//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are kept in
//! per-thread logs while a traced run measures and written out when it
//! ends; per-layer metrics are read back from them. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same log, or [`NO_PARENT`].
    pub parent: usize,
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// One thread's spans. A disabled log records nothing, so untraced runs
/// pay only a branch per call.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        SpanLog {
            epoch,
            enabled,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: usize,
        req: u64,
    ) -> usize {
        if !self.enabled {
            return NO_PARENT;
        }
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span whose end is set by [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: usize, req: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end = self.ns(Instant::now());
        }
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, req);
        out
    }

    /// Appends `other`, re-pointing its parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent) {
            c.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, c)| s.dur() - covered(s.start, s.end, c))
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Share of the time spent in spans named in `roots` that their child
/// spans account for.
pub fn coverage(spans: &[Span], roots: &[&str]) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut inside) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&selfs) {
        if roots.contains(&s.name) {
            total += s.dur();
            inside += s.dur() - own;
        }
    }
    if total == 0 {
        0.0
    } else {
        inside as f64 / total as f64
    }
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e3)
        .collect()
}

/// Median duration in microseconds of the spans named `name`; zero when
/// there are none.
pub fn p50_us(spans: &[Span], name: &str) -> f64 {
    crate::stats::median_or_zero(durations_us(spans, name))
}

/// Writes every span, with its self time, as tab-separated lines.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
            s.req, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: usize) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 20, 50, 0),  // overlaps a: union 10..50
            span("c", 90, 120, 0), // clipped to the parent: 90..100
            span("leaf", 12, 18, 1),
            span("other", 0, 40, NO_PARENT),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 40 - 10, 20 - 6, 30, 30, 6, 40]);
    }

    #[test]
    fn self_time_of_a_span_without_children_is_its_duration() {
        assert_eq!(self_times(&[span("x", 5, 9, NO_PARENT)]), vec![4]);
    }

    #[test]
    fn coverage_counts_only_the_named_roots() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("layer", 0, 75, 0),
            span("op", 200, 300, NO_PARENT),
            span("layer", 200, 225, 2),
            span("setup", 400, 1000, NO_PARENT),
        ];
        assert_eq!(coverage(&spans, &["op"]), 0.5);
        assert_eq!(coverage(&spans, &["op", "setup"]), 100.0 / 800.0);
        assert_eq!(coverage(&spans, &["missing"]), 0.0);
    }

    #[test]
    fn absorb_repoints_parents_and_disabled_logs_stay_empty() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, true);
        let root = a.open("root", NO_PARENT, 0);
        a.close(root);
        let mut b = SpanLog::new(epoch, true);
        let r = b.open("root", NO_PARENT, 1);
        b.time("child", r, 1, || ());
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[0].parent, NO_PARENT);

        let mut off = SpanLog::new(epoch, false);
        let id = off.open("root", NO_PARENT, 0);
        off.close(id);
        assert_eq!(off.time("x", id, 0, || 3), 3);
        assert!(off.spans().is_empty());
    }
}
