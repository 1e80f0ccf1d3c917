//! The named metrics registry and its exporters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use crate::{Counter, Gauge, Histogram};

/// Histogram quantiles reported by the exporters.
const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

/// A named collection of counters, gauges, span histograms (durations
/// in nanoseconds) and value histograms (samples in a unit named at
/// registration).
///
/// Lookup is get-or-create and returns a cheap [`Arc`] handle; call
/// sites resolve their handles once (at construction or in a
/// `OnceLock`) and record through them lock-free afterwards — the
/// registry's own lock is touched only on first registration and on
/// export. Names are sorted (`BTreeMap`), so exports are stable.
///
/// Instrumented library code takes `&Registry` rather than assuming
/// [`global`], so tests running under the parallel libtest harness can
/// observe a private registry without cross-test interference.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    spans: RwLock<BTreeMap<String, Arc<Histogram>>>,
    values: RwLock<BTreeMap<String, Valued>>,
}

/// A value histogram and the unit of its samples.
#[derive(Debug)]
struct Valued {
    unit: &'static str,
    histogram: Arc<Histogram>,
}

fn get_or_create<M: Default>(map: &RwLock<BTreeMap<String, Arc<M>>>, name: &str) -> Arc<M> {
    if let Some(found) = map
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
    {
        return Arc::clone(found);
    }
    Arc::clone(
        map.write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default(),
    )
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use. The same
    /// name always resolves to the same counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge named `name`, created at zero on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The span-duration histogram named `name`, created empty on first
    /// use.
    #[must_use]
    pub fn span(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.spans, name)
    }

    /// The value histogram named `name`, created empty on first use,
    /// whose samples are in `unit` (for example `"permille"`). It is
    /// exported in its own `values` section with every field named
    /// after the unit (`p50_permille`, never `p50_ns`), so a ratio is
    /// never read as a duration. The first registration fixes the unit.
    #[must_use]
    pub fn value(&self, name: &str, unit: &'static str) -> Arc<Histogram> {
        if let Some(found) = self
            .values
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            debug_assert_eq!(found.unit, unit, "'{name}' registered with two units");
            return Arc::clone(&found.histogram);
        }
        let mut values = self.values.write().unwrap_or_else(PoisonError::into_inner);
        let entry = values.entry(name.to_string()).or_insert_with(|| Valued {
            unit,
            histogram: Arc::default(),
        });
        Arc::clone(&entry.histogram)
    }

    /// The current value of a counter, if it has been registered.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(|c| c.get())
    }

    /// A sorted snapshot of every counter: `(name, value)`.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// A sorted snapshot of every gauge: `(name, value)`.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, u64)> {
        self.gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect()
    }

    /// Ratios derived from counter pairs at export time, sorted by
    /// name: a `<prefix>.hit_ratio` of `hits / (hits + misses)` for
    /// every registered `<prefix>.hits` / `<prefix>.misses` pair.
    ///
    /// A pair that has never been probed (`hits + misses == 0`) is
    /// omitted rather than exported as a bogus `0.0` — the ratio of an
    /// untouched cache is undefined, not zero.
    #[must_use]
    pub fn derived(&self) -> Vec<(String, f64)> {
        let counters = self.counters();
        counters
            .iter()
            .filter_map(|(name, hits)| {
                let prefix = name.strip_suffix(".hits")?;
                let (_, misses) = counters
                    .iter()
                    .find(|(other, _)| other == &format!("{prefix}.misses"))?;
                let total = hits + misses;
                (total > 0).then(|| {
                    #[allow(clippy::cast_precision_loss)] // counters are far below 2^52
                    let ratio = *hits as f64 / total as f64;
                    (format!("{prefix}.hit_ratio"), ratio)
                })
            })
            .collect()
    }

    /// Zeroes every registered counter, gauge, span and value histogram
    /// (the metrics stay registered; their handles stay valid).
    pub fn reset(&self) {
        for counter in self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            counter.reset();
        }
        for gauge in self
            .gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            gauge.reset();
        }
        for span in self
            .spans
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            span.reset();
        }
        for value in self
            .values
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            value.histogram.reset();
        }
    }

    /// Renders an aligned human-readable report: counters, gauges, span
    /// timings, then value histograms, each histogram with
    /// count/mean/quantiles in its unit.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let counters = self.counters();
        let gauges = self.gauges();
        let width = counters
            .iter()
            .chain(&gauges)
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0);
        out.push_str("# counters\n");
        for (name, value) in &counters {
            let _ = writeln!(out, "{name:width$}  {value}");
        }
        let derived = self.derived();
        if !derived.is_empty() {
            out.push_str("# derived\n");
            for (name, value) in &derived {
                let _ = writeln!(out, "{name:width$}  {value:.6}");
            }
        }
        out.push_str("# gauges\n");
        for (name, value) in &gauges {
            let _ = writeln!(out, "{name:width$}  {value}");
        }
        out.push_str("# spans\n");
        for (name, hist) in self.spans.read().unwrap_or_else(PoisonError::into_inner).iter() {
            histogram_text(&mut out, name, hist, "ns");
        }
        out.push_str("# values\n");
        for (name, value) in self.values.read().unwrap_or_else(PoisonError::into_inner).iter() {
            histogram_text(&mut out, name, &value.histogram, value.unit);
        }
        out
    }

    /// Renders the registry as one JSON object with `counters`,
    /// `derived`, `gauges`, `spans` and `values` sections (names are
    /// JSON-escaped; the output parses with [`crate::json`]). Span
    /// fields carry the `_ns` suffix, value fields their own unit's.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        render_scalar_section(&mut out, &self.counters());
        out.push_str("},\n  \"derived\": {");
        let derived = self.derived();
        for (i, (name, value)) in derived.iter().enumerate() {
            let comma = if i + 1 == derived.len() { "" } else { "," };
            let _ = write!(out, "\n    \"{}\": {value:.6}{comma}", escape(name));
        }
        if !derived.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        render_scalar_section(&mut out, &self.gauges());
        out.push_str("},\n  \"spans\": {");
        let spans = self.spans.read().unwrap_or_else(PoisonError::into_inner);
        let spans: Vec<_> = spans.iter().map(|(name, hist)| (name, &**hist, "ns")).collect();
        histogram_section_json(&mut out, &spans);
        out.push_str("},\n  \"values\": {");
        let values = self.values.read().unwrap_or_else(PoisonError::into_inner);
        let values: Vec<_> = values
            .iter()
            .map(|(name, value)| (name, &*value.histogram, value.unit))
            .collect();
        histogram_section_json(&mut out, &values);
        out.push_str("}\n}\n");
        out
    }
}

/// One text line for a histogram: count, then mean, min and max
/// suffixed with `unit`, then the quantiles.
fn histogram_text(out: &mut String, name: &str, hist: &Histogram, unit: &str) {
    let _ = write!(
        out,
        "{name}  count={} mean={:.0}{unit} min={}{unit} max={}{unit}",
        hist.count(),
        hist.mean(),
        hist.min(),
        hist.max()
    );
    for (label, q) in QUANTILES {
        let _ = write!(out, " {label}={}", hist.quantile(q));
    }
    out.push('\n');
}

/// The entries of one JSON histogram section, every field but `count`
/// suffixed with its histogram's unit.
fn histogram_section_json(out: &mut String, entries: &[(&String, &Histogram, &str)]) {
    for (i, (name, hist, unit)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"sum_{unit}\": {}, \"mean_{unit}\": {:.1}, \"min_{unit}\": {}, \"max_{unit}\": {}",
            escape(name),
            hist.count(),
            hist.sum(),
            hist.mean(),
            hist.min(),
            hist.max()
        );
        for (label, q) in QUANTILES {
            let _ = write!(out, ", \"{label}_{unit}\": {}", hist.quantile(q));
        }
        let _ = write!(out, "}}{comma}");
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

fn render_scalar_section(out: &mut String, entries: &[(String, u64)]) {
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = write!(out, "\n    \"{}\": {value}{comma}", escape(name));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

/// Escapes a metric name for embedding in a JSON string literal.
fn escape(name: &str) -> String {
    name.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// The process-wide registry: what the `coldtall --metrics` flag and
/// the bench harness export. Library constructors default to it;
/// tests needing isolation pass their own [`Registry`].
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn same_name_resolves_to_the_same_metric() {
        let registry = Registry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(registry.counter_value("x"), Some(1));
        assert_eq!(registry.counter_value("missing"), None);
    }

    #[test]
    fn namespaces_are_independent() {
        let registry = Registry::new();
        registry.counter("dup").add(3);
        registry.gauge("dup").set(9);
        assert_eq!(registry.counter_value("dup"), Some(3));
        assert_eq!(registry.gauges(), vec![("dup".to_string(), 9)]);
    }

    #[test]
    fn reset_zeroes_everything_but_keeps_handles_valid() {
        let registry = Registry::new();
        let c = registry.counter("c");
        c.add(5);
        registry.gauge("g").set(2);
        registry.span("s").record(100);
        registry.value("v", "permille").record(900);
        registry.reset();
        assert_eq!(registry.counter_value("c"), Some(0));
        assert_eq!(registry.gauges()[0].1, 0);
        assert_eq!(registry.span("s").count(), 0);
        assert_eq!(registry.value("v", "permille").count(), 0);
        c.inc();
        assert_eq!(registry.counter_value("c"), Some(1));
    }

    #[test]
    fn text_export_lists_all_sections() {
        let registry = Registry::new();
        registry.counter("cache.hits").add(12);
        registry.gauge("pool.threads").set(4);
        registry.span("evaluate").record(1500);
        let text = registry.render_text();
        assert!(text.contains("# counters"));
        assert!(text.contains("cache.hits"));
        assert!(text.contains("12"));
        assert!(text.contains("# spans"));
        assert!(text.contains("evaluate"));
    }

    #[test]
    fn json_export_parses_and_preserves_values() {
        let registry = Registry::new();
        registry.counter("cache.hits").add(7);
        registry.counter("cache.misses").add(2);
        registry.gauge("pool.inline").set(1);
        registry.span("sweep").record(5000);
        let parsed = json::parse(&registry.render_json()).expect("export is valid JSON");
        let Value::Object(root) = parsed else {
            panic!("root must be an object")
        };
        let Value::Object(counters) = &root["counters"] else {
            panic!("counters section")
        };
        assert_eq!(counters["cache.hits"], Value::Number(7.0));
        let Value::Object(spans) = &root["spans"] else {
            panic!("spans section")
        };
        let Value::Object(sweep) = &spans["sweep"] else {
            panic!("sweep span")
        };
        assert_eq!(sweep["count"], Value::Number(1.0));
        assert!(matches!(sweep["p99_ns"], Value::Number(v) if v >= 5000.0));
    }

    /// A value histogram exports in its own section with fields named
    /// after its unit: no `_ns` field ever names a permille ratio.
    #[test]
    fn value_histograms_export_in_their_unit() {
        let registry = Registry::new();
        registry.span("sweep").record(5000);
        let tightness = registry.value("search.tightness.power", "permille");
        tightness.record(800);
        tightness.record(1000);

        let export = registry.render_json();
        let parsed = json::parse(&export).expect("export is valid JSON");
        let Value::Object(root) = parsed else {
            panic!("root must be an object")
        };
        let Value::Object(spans) = &root["spans"] else {
            panic!("spans section")
        };
        assert!(!spans.contains_key("search.tightness.power"));
        let Value::Object(values) = &root["values"] else {
            panic!("values section")
        };
        let Value::Object(power) = &values["search.tightness.power"] else {
            panic!("tightness entry")
        };
        assert_eq!(power["count"], Value::Number(2.0));
        assert_eq!(power["sum_permille"], Value::Number(1800.0));
        assert_eq!(power["max_permille"], Value::Number(1000.0));
        assert!(power.contains_key("p50_permille"));
        assert!(power.keys().all(|field| !field.ends_with("_ns")), "{power:?}");

        let text = registry.render_text();
        let (_, values) = text.split_once("# values\n").expect("values section");
        let expected = format!(
            "search.tightness.power  count=2 mean=900permille min=800permille \
             max=1000permille p50={} p95={} p99={}\n",
            tightness.quantile(0.50),
            tightness.quantile(0.95),
            tightness.quantile(0.99)
        );
        assert_eq!(values, expected);
    }

    #[test]
    fn derived_hit_ratios_pair_hits_with_misses() {
        let registry = Registry::new();
        registry.counter("cache.hits").add(9);
        registry.counter("cache.misses").add(3);
        // A second pair that has never been probed must be omitted...
        let _ = registry.counter("geometry.hits");
        let _ = registry.counter("geometry.misses");
        // ...and a hits counter with no matching misses pairs nothing.
        registry.counter("orphan.hits").add(5);
        assert_eq!(
            registry.derived(),
            vec![("cache.hit_ratio".to_string(), 0.75)]
        );

        let parsed = json::parse(&registry.render_json()).expect("export is valid JSON");
        let Value::Object(root) = parsed else {
            panic!("root must be an object")
        };
        let Value::Object(derived) = &root["derived"] else {
            panic!("derived section")
        };
        assert_eq!(derived["cache.hit_ratio"], Value::Number(0.75));
        assert!(!derived.contains_key("geometry.hit_ratio"));
        assert!(registry.render_text().contains("# derived"));

        registry.counter("geometry.misses").inc();
        assert_eq!(
            registry.derived(),
            vec![
                ("cache.hit_ratio".to_string(), 0.75),
                ("geometry.hit_ratio".to_string(), 0.0),
            ]
        );
    }

    #[test]
    fn empty_registry_exports_are_valid() {
        let registry = Registry::new();
        assert!(json::parse(&registry.render_json()).is_ok());
        assert!(registry.render_text().contains("# counters"));
    }

    #[test]
    fn metric_names_are_json_escaped() {
        let registry = Registry::new();
        registry.counter("weird\"name\\").inc();
        assert!(json::parse(&registry.render_json()).is_ok());
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a: *const Registry = global();
        let b: *const Registry = global();
        assert_eq!(a, b);
    }
}
