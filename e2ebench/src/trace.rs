//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (the program itself is not instrumented).
//! Spans are written as JSONL when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    fn duration(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start).as_secs_f64()
    }

    fn child_time(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                covered[p] += self.duration(id);
            }
        }
        covered
    }

    /// Self time (duration minus the time its children cover) summed per
    /// span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let covered = self.child_time();
        let mut out = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += self.duration(id) - covered[id];
        }
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.duration(id))
            .sum()
    }

    /// Share of the root spans named `root` covered by their children:
    /// Σ stage time ÷ traced wall.
    pub fn coverage(&self, root: &str) -> f64 {
        let covered = self.child_time();
        let (mut wall, mut staged) = (0.0, 0.0);
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == root && s.parent.is_none() {
                wall += self.duration(id);
                staged += covered[id];
            }
        }
        crate::stats::ratio(staged, wall)
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}
