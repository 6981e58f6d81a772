//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span: name, start, end, parent span and unit id. Spans stay in memory
//! until the run ends, when they are summarised and written out. A span's
//! self time is its duration minus the durations of its children (the
//! calls are sequential, so children never overlap).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    unit: u64,
}

/// Records spans against one monotonic origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, unit: u64) -> usize {
        let id = self.spans.len();
        self.unit = unit;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` of the current unit.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, self.unit);
        let out = f();
        self.end(id);
        out
    }

    /// Per-name durations and self times of every closed span.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.durations_ns.push(dur);
            e.self_ns += dur - child;
        }
        Summary { by_name }
    }

    /// Writes every span as one CSV line:
    /// `id,parent,unit,name,start_ns,end_ns` (parent `-` for roots).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,unit,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id},{parent},{},{},{},{}",
                s.unit, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[derive(Default)]
struct NameStats {
    durations_ns: Vec<u64>,
    self_ns: u64,
}

pub struct Summary {
    by_name: BTreeMap<&'static str, NameStats>,
}

impl Summary {
    fn get(&self, name: &str) -> Option<&NameStats> {
        self.by_name.get(name)
    }

    pub fn count(&self, name: &str) -> usize {
        self.get(name).map_or(0, |s| s.durations_ns.len())
    }

    /// Summed duration of every span named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.get(name)
            .map_or(0.0, |s| s.durations_ns.iter().sum::<u64>() as f64)
    }

    /// Summed self time of every span named `name`, in ns.
    pub fn self_ns(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.self_ns as f64)
    }

    /// Nearest-rank quantile of the durations of `name`, in µs (0 when the
    /// span never ran on this workload).
    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        self.get(name).map_or(0.0, |s| {
            let v: Vec<f64> = s.durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
            crate::stats::quantile(v, q)
        })
    }
}
