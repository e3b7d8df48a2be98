//! In-memory spans of the traced run.
//!
//! Each call the traced run makes into a crate gets a span with a name,
//! start, end and parent.  Spans stay in memory until the run ends and are
//! then written out as JSON; a span's self time is its duration minus the
//! durations of its direct children.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    /// Bytes the call processed (0 when not meaningful).
    pub bytes: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `body` inside a span named `name`; spans opened by `body` become
    /// its children.  Returns the body's result and the span's duration.
    pub fn record<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_s = self.now_s();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            bytes: 0,
        });
        self.open.push(id);
        let result = body(self);
        self.open.pop();
        let end_s = self.now_s();
        self.spans[id].end_s = end_s;
        (result, end_s - start_s)
    }

    /// [`Spans::record`] for a leaf call that processed `bytes`.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        bytes: u64,
        body: impl FnOnce() -> R,
    ) -> (R, f64) {
        let (result, duration) = self.record(name, |_| body());
        self.spans.last_mut().expect("span just recorded").bytes = bytes;
        (result, duration)
    }

    /// [`Spans::leaf`] when tracing, a plain timing otherwise.
    pub fn timed<R>(
        spans: Option<&mut Spans>,
        name: &'static str,
        bytes: u64,
        body: impl FnOnce() -> R,
    ) -> (R, f64) {
        match spans {
            Some(spans) => spans.leaf(name, bytes, body),
            None => {
                let start = Instant::now();
                let result = body();
                (result, start.elapsed().as_secs_f64())
            }
        }
    }

    /// Sets the byte count of the most recently *closed* span named `name`.
    pub fn set_bytes(&mut self, name: &'static str, bytes: u64) {
        if let Some(span) = self.spans.iter_mut().rev().find(|span| span.name == name) {
            span.bytes = bytes;
        }
    }

    fn self_times(&self) -> Vec<f64> {
        let mut self_s: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_s[parent] -= span.duration_s();
            }
        }
        self_s
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, span)| span.name == name)
    }

    /// Sum of the self times of every span named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        let self_s = self.self_times();
        self.named(name).map(|(id, _)| self_s[id]).sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    pub fn bytes(&self, name: &str) -> u64 {
        self.named(name).map(|(_, span)| span.bytes).sum()
    }

    pub fn max_s(&self, name: &str) -> f64 {
        self.named(name)
            .map(|(_, span)| span.duration_s())
            .fold(0.0, f64::max)
    }

    /// Writes every span as one JSON array element per line.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_s = self.self_times();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let separator = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}, \"parent\": {parent}, \"bytes\": {}}}{separator}",
                span.name,
                span.start_s * 1e6,
                span.end_s * 1e6,
                self_s[id] * 1e6,
                span.bytes
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let (_, outer) = spans.record("outer", |spans| {
            spans.leaf("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            spans.leaf("inner", 3, || ());
        });
        assert_eq!(spans.count("inner"), 2);
        assert_eq!(spans.bytes("inner"), 10);
        let inner = spans.busy_s("inner");
        assert!(inner >= 0.005);
        assert!((spans.busy_s("outer") + inner - outer).abs() < 1e-9);
    }
}
