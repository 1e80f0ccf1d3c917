//! The traced run's instruments: the benchmark's own in-memory spans,
//! and snapshots of the program's `coldtall-obs` counters and spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use coldtall::obs::json::{self, Value};

use crate::stats::Samples;

/// One recorded span.
#[derive(Debug, Clone)]
struct SpanRecord {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Spans kept in memory and written out once, at the end of the run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRecord>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name`, caused by `parent`, for op `op`.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            op,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Records an already-measured interval as a closed span ending
    /// now (for durations measured by another process or thread).
    pub fn record(&mut self, name: &str, parent: Option<SpanId>, op: u64, duration_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start_ns: end_ns.saturating_sub(duration_ns),
            end_ns,
            parent: parent.map(|p| p.0),
            op,
        });
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (microseconds) of the spans named `name`, in order.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Samples {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time (ns) of spans named `name`: their duration minus the
    /// part of it their direct children cover.
    #[must_use]
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut covered = vec![0u64; self.spans.len()];
        for child in &self.spans {
            if let Some(p) = child.parent {
                let parent = &self.spans[p];
                covered[p] += child
                    .end_ns
                    .min(parent.end_ns)
                    .saturating_sub(child.start_ns.max(parent.start_ns));
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum()
    }

    /// Writes every span as one JSON line: name, start and end (ns since
    /// the tracer started), parent span index, and op id.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A snapshot of a `coldtall-obs` registry export: counters, and per
/// span its count and summed nanoseconds. Histogram quantiles are
/// deliberately ignored: they are not clamped to the observed range.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    counters: BTreeMap<String, f64>,
    spans: BTreeMap<String, (f64, f64)>,
}

impl Obs {
    /// Parses a `--metrics=json` export. Text before the first line
    /// that opens the JSON object (diagnostics on the same stream) is
    /// skipped.
    ///
    /// # Errors
    ///
    /// A message if no export is found or it does not parse.
    pub fn parse(text: &str) -> Result<Self, String> {
        let start = text
            .find("{\n  \"counters\"")
            .ok_or_else(|| "no metrics export found".to_string())?;
        let value = json::parse(&text[start..])?;
        let mut obs = Self::default();
        if let Some(Value::Object(counters)) = value.get("counters") {
            for (name, v) in counters {
                obs.counters.insert(name.clone(), v.as_f64().unwrap_or(0.0));
            }
        }
        if let Some(Value::Object(spans)) = value.get("spans") {
            for (name, v) in spans {
                let field = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                obs.spans
                    .insert(name.clone(), (field("count"), field("sum_ns")));
            }
        }
        Ok(obs)
    }

    /// Snapshot of this process's global registry.
    #[must_use]
    pub fn global() -> Self {
        Self::parse(&coldtall::obs::global().render_json())
            .expect("the registry's own export parses")
    }

    /// `self - before`, counter by counter and span by span.
    #[must_use]
    pub fn since(&self, before: &Obs) -> Obs {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - before.counter(k)))
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, (c, s))| {
                let (bc, bs) = before.spans.get(k).copied().unwrap_or_default();
                (k.clone(), (c - bc, s - bs))
            })
            .collect();
        Obs { counters, spans }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Obs) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, (c, s)) in &other.spans {
            let e = self.spans.entry(k.clone()).or_default();
            e.0 += c;
            e.1 += s;
        }
    }

    /// A counter's value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// A span's summed milliseconds (0 when absent).
    #[must_use]
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |(_, s)| s / 1e6)
    }

    /// `<prefix>.hits / (<prefix>.hits + <prefix>.misses)`, or 0 when
    /// the cache was never probed.
    #[must_use]
    pub fn hit_ratio(&self, prefix: &str) -> f64 {
        let hits = self.counter(&format!("{prefix}.hits"));
        let total = hits + self.counter(&format!("{prefix}.misses"));
        if total > 0.0 {
            hits / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let op = t.open("op", None, 1);
        let child = t.open("child", Some(op), 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        t.close(op);
        let total_ns = |name: &str| (t.durations_us(name).sum() * 1e3).round() as u64;
        assert!(t.self_ns("op") < total_ns("op"));
        assert_eq!(t.self_ns("child"), total_ns("child"));
    }

    #[test]
    fn obs_deltas_subtract() {
        let text = "warm-start: restored 29\n{\n  \"counters\": {\"a\": 5},\n  \"spans\": {\"s\": {\"count\": 2, \"sum_ns\": 3000000}}\n}\n";
        let after = Obs::parse(text).unwrap();
        let before = Obs::parse("{\n  \"counters\": {\"a\": 2}}").unwrap();
        let d = after.since(&before);
        assert_eq!(d.counter("a"), 3.0);
        assert_eq!(d.span_ms("s"), 3.0);
    }
}
