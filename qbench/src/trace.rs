//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and the query it serves. Spans
//! stay in memory while the benchmark runs and are written out once at
//! the end ([`Tracer::write_json`]). A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub query: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerRow {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span nested under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, query: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            query,
            start_ns: start,
            end_ns: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span timed elsewhere (a load-generator thread), nested
    /// under the innermost open span.
    pub fn record(&mut self, name: &'static str, query: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            parent: self.open.last().copied(),
            query,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, aligned with [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn table(&self) -> BTreeMap<&'static str, LayerRow> {
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let row = rows.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += s.duration_ns();
            row.self_ns += self_ns;
        }
        rows
    }

    /// Self time (ns) of the spans named `name`, one value per span.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64)
            .collect()
    }

    /// Prints the self-time table, each layer's self time also as a
    /// share of all recorded self time.
    pub fn print_table(&self, workload: &str) {
        let rows = self.table();
        let all: u64 = rows.values().map(|r| r.self_ns).sum();
        println!("# per-layer self time, workload {workload} (spans from benchmark calls)");
        println!(
            "# {:<28} {:>8} {:>12} {:>12} {:>12} {:>7}",
            "layer", "spans", "total_ms", "self_ms", "self_us/span", "share"
        );
        for (name, r) in &rows {
            println!(
                "# {:<28} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>6.1}%",
                name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                r.self_ns as f64 / 1e3 / r.count as f64,
                100.0 * r.self_ns as f64 / all.max(1) as f64
            );
        }
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 * self.spans.len() + 16);
        out.push_str("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"query\":{},\"start_ns\":{},\"end_ns\":{}}}{}",
                s.name,
                s.query,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("root", 1, |t| {
            t.span("child", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let rows = t.table();
        let root = rows["root"];
        let child = rows["child"];
        assert_eq!(root.total_ns, root.self_ns + child.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
