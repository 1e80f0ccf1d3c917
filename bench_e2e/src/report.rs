//! What one run reports, and how it is printed: human-readable lines
//! first, then the one-line JSON result.

use std::fmt::Write as _;

use crate::stats::{tail_resolved, Samples};

/// The end-to-end metrics every untraced run reports in its JSON
/// result, in `BENCHMARK.json` order. The pass tail and the throughput
/// are printed but not in the result: on a shared two-core host they
/// move by 20-50% between runs of the same build.
pub const END_TO_END: [&str; 2] = ["setup_s", "pass_ms.p50"];

/// The per-layer metrics every traced run reports in its JSON result,
/// in `BENCHMARK.json` order: the layers all three workloads go
/// through. Layers only one or two workloads touch are printed in the
/// human-readable report of those workloads.
pub const PER_LAYER: [&str; 21] = [
    "cli.process_ms",
    "char.ms",
    "char.dispatches",
    "cache.hit_ratio",
    "cache.misses",
    "geometry.solves",
    "geometry.hit_ratio",
    "array.solve_us",
    "array.stripe_us",
    "array.solves",
    "eval.ms",
    "eval.rows",
    "eval.ns_per_row",
    "search.points_evaluated",
    "search.points_skipped",
    "search.bounds_computed",
    "search.floor_cache.hit_ratio",
    "pool.tasks",
    "pool.inline_plans",
    "unattributed_ms",
    "trace.overhead_pct",
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (0 when it is a count or a ratio).
    pub samples: usize,
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (set-up included).
    pub attempted: u64,
    /// Operations whose output check failed, or that failed outright.
    pub failed: u64,
    /// Untraced run: end-to-end metrics per operation kind, printed but
    /// not in the JSON result.
    pub detail: Vec<Metric>,
    /// Untraced run: the end-to-end metrics of [`END_TO_END`].
    pub end_to_end: Vec<Metric>,
    /// Traced run: every per-layer metric the workload has.
    pub layers: Vec<Metric>,
    /// Run facts: host, seed, generated mix, store sizes.
    pub facts: Vec<(String, String)>,
    /// Findings the traced run states in words.
    pub findings: Vec<String>,
    /// Output-check failures, described.
    pub errors: Vec<String>,
}

impl Report {
    /// Records the outcome of one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Records a run fact.
    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    /// Adds `name.p50` and the tail percentile `name.p<tail>` of
    /// `samples` (milliseconds) to the detail metrics.
    pub fn latency(&mut self, name: &str, samples: &Samples, tail_permille: usize) {
        if samples.is_empty() {
            return;
        }
        for permille in [500, tail_permille] {
            self.detail.push(Metric {
                name: format!("{name}.p{}", permille / 10),
                value: samples.percentile(permille),
                unit: "ms",
                samples: samples.len(),
            });
        }
    }

    /// Adds a metric to `list`.
    pub fn push(
        list: &mut Vec<Metric>,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        list.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// The human-readable report followed by the JSON result line.
    ///
    /// # Errors
    ///
    /// Names a metric the JSON result needs but the workload did not
    /// produce, or one whose value is not finite: both are bugs, and no
    /// result is printed for them.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let mut out = String::new();
        for (name, value) in &self.facts {
            let _ = writeln!(out, "fact    {name:<28} {value}");
        }
        let rows: Vec<&Metric> = if traced {
            self.layers.iter().collect()
        } else {
            self.detail.iter().chain(&self.end_to_end).collect()
        };
        for m in rows {
            let mut note = String::new();
            if m.samples > 0 {
                let _ = write!(note, "n={}", m.samples);
                if let Some(p) = m
                    .name
                    .rsplit_once(".p")
                    .and_then(|(_, p)| p.parse::<usize>().ok())
                {
                    if p > 50 && !tail_resolved(m.samples, p * 10) {
                        note.push_str(" (fewer than 10 samples beyond)");
                    }
                }
            }
            let _ = writeln!(
                out,
                "metric  {:<28} {:>14.6} {:<8} {note}",
                m.name, m.value, m.unit
            );
        }
        for finding in &self.findings {
            let _ = writeln!(out, "finding {finding}");
        }
        for error in &self.errors {
            let _ = writeln!(out, "error   {error}");
        }
        let source = if traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        let names: &[&str] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, name) in names.iter().enumerate() {
            let m = source
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        Ok(out)
    }
}
