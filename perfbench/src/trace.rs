//! In-memory span recorder for the traced run.
//!
//! Every span carries a name, start and end (nanoseconds since the tracer
//! was created) and the id of the span that was open when it started. Spans
//! stay in memory until the workload ends; [`Tracer::write`] then writes
//! them out as one JSON object per line. A span's *self time* is its
//! duration minus the time its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span (its index in the tracer).
pub type SpanId = usize;

/// The tracer's clock, copyable into code that runs on other threads (a
/// sink called from engine workers) so intervals it measures line up with
/// the tracer's spans.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).expect("a run shorter than 584 years")
    }
}

#[derive(Debug, Clone)]
struct SpanRecord {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

/// Records spans opened and closed in nesting order on the calling thread,
/// plus spans measured elsewhere and attached under an open parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock every span of this tracer uses.
    pub fn clock(&self) -> Clock {
        Clock(self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.clock().now_ns()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str) -> SpanId {
        let start_ns = self.now_ns();
        let id = self.push(name, start_ns, start_ns);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close in nesting order");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name);
        let value = f(self);
        self.close(id);
        value
    }

    /// Attaches an already measured interval (on this tracer's clock) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        self.push(name, start_ns, end_ns);
    }

    fn push(&mut self, name: &str, start_ns: u64, end_ns: u64) -> SpanId {
        self.spans.push(SpanRecord {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
        self.spans.len() - 1
    }

    fn duration_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        span.end_ns.saturating_sub(span.start_ns)
    }

    /// Self time of every span, in seconds: duration minus the union of
    /// its children's intervals.
    fn self_seconds(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        children
            .iter_mut()
            .enumerate()
            .map(|(id, intervals)| {
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                self.duration_ns(id).saturating_sub(covered) as f64 * 1e-9
            })
            .collect()
    }

    /// Total seconds of every span named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.name == name)
            .fold(0.0, |sum, (id, _)| sum + self.duration_ns(id) as f64 * 1e-9)
    }

    /// Total self seconds of every span named `name`.
    pub fn total_self_seconds(&self, name: &str) -> f64 {
        let own = self.self_seconds();
        self.spans
            .iter()
            .zip(own)
            .filter(|(span, _)| span.name == name)
            .fold(0.0, |sum, (_, seconds)| sum + seconds)
    }

    /// Writes every span as one JSON line (`id`, `name`, `parent`,
    /// `start_s`, `end_s`, `self_s`), followed by one `summary` line per
    /// span name with its count, total and self seconds.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_seconds();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut summary: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                span.name,
                span.start_ns as f64 * 1e-9,
                span.end_ns as f64 * 1e-9,
                own[id]
            )?;
            let entry = summary.entry(&span.name).or_default();
            entry.0 += 1;
            entry.1 += self.duration_ns(id) as f64 * 1e-9;
            entry.2 += own[id];
        }
        for (name, (count, total, self_s)) in summary {
            writeln!(
                out,
                "{{\"type\":\"summary\",\"name\":\"{name}\",\"count\":{count},\
                 \"total_s\":{total},\"self_s\":{self_s}}}"
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut tracer = Tracer::new();
        let root = tracer.open("root");
        tracer.record("child", 10, 40);
        tracer.record("child", 30, 50);
        tracer.close(root);
        tracer.spans[root].start_ns = 0;
        tracer.spans[root].end_ns = 100;
        let own = tracer.self_seconds();
        assert!((own[root] - 60e-9).abs() < 1e-15);
        assert!((tracer.total_seconds("child") - 50e-9).abs() < 1e-15);
    }
}
