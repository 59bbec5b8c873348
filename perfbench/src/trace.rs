//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! workspace crates (name, start, end, parent), kept in memory, and
//! written out once the pass ends. A layer's self time is its span's
//! duration minus the part covered by its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean total duration per call, in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.calls.max(1) as f64
    }

    /// Mean total duration per call, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

/// Records nested spans when enabled; when disabled, [`Tracer::span`] only
/// runs its closure, so the same code path measures tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let layer = out.entry(s.name).or_default();
            layer.calls += 1;
            layer.total_ns += dur;
            layer.self_ns += dur.saturating_sub(*child);
        }
        out
    }

    /// Share of the root spans' wall time covered by the self time of
    /// every non-root span.
    pub fn coverage(&self) -> f64 {
        let layers = self.layers();
        let roots: Vec<&Span> = self.spans.iter().filter(|s| s.parent.is_none()).collect();
        let wall: u64 = roots.iter().map(|s| s.end_ns - s.start_ns).sum();
        let root_self: u64 = roots
            .iter()
            .map(|r| r.name)
            .collect::<std::collections::BTreeSet<_>>()
            .iter()
            .map(|n| layers[n].self_ns)
            .sum();
        let covered: u64 = layers.values().map(|l| l.self_ns).sum::<u64>() - root_self;
        covered as f64 / wall.max(1) as f64
    }

    /// Writes every span as a CSV row `id,parent,name,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(out, "{i},{parent},{},{},{}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("a", |t| {
                busy(200_000);
                t.span("b", |_| busy(300_000));
            });
            t.span("b", |_| busy(100_000));
        });
        let layers = t.layers();
        assert_eq!(layers["b"].calls, 2);
        let a = layers["a"];
        assert!(a.total_ns >= 500_000);
        assert!(a.self_ns >= 200_000 && a.self_ns < a.total_ns - 290_000);
        assert_eq!(t.spans()[2].parent, Some(1));
        let cov = t.coverage();
        assert!(cov > 0.9 && cov <= 1.0, "{cov}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("root", |t| t.span("a", |_| 7));
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.coverage(), 0.0);
    }
}
