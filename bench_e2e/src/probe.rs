//! Layer probes shared by the traced runs: timed calls into one layer's
//! public functions, and the per-op reading of the program's counters.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use coldtall::array::{Objective, OrgGeometry};
use coldtall::core::{DesignPointKey, Explorer, MemoryConfig};
use coldtall::serve::{GeometryStore, RunRegistry};

use crate::report::{Metric, Report};
use crate::stats::Samples;
use crate::trace::Obs;
use crate::Ctx;

/// Milliseconds since `start`.
#[must_use]
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The per-layer metrics read from the program's own counters and
/// span sums over `ops` operations, per operation.
fn program_layers(obs: &Obs, ops: f64, out: &mut Vec<Metric>) {
    let per_op = |v: f64| if ops > 0.0 { v / ops } else { 0.0 };
    let rows = obs.counter("explorer.evaluate.calls");
    let eval_ms = obs.span_ms("evaluate");
    let mut push =
        |name: &str, value: f64, unit: &'static str| Report::push(out, name, value, unit, 0);
    push("char.ms", per_op(obs.span_ms("characterize")), "ms");
    push(
        "char.dispatches",
        per_op(obs.counter("explorer.characterize.dispatches")),
        "count",
    );
    push("cache.hit_ratio", obs.hit_ratio("cache"), "ratio");
    push("cache.misses", per_op(obs.counter("cache.misses")), "count");
    push(
        "geometry.solves",
        per_op(obs.counter("geometry.solves")),
        "count",
    );
    push("geometry.hit_ratio", obs.hit_ratio("geometry"), "ratio");
    push("eval.ms", per_op(eval_ms), "ms");
    push("eval.rows", per_op(rows), "count");
    push(
        "eval.ns_per_row",
        if rows > 0.0 {
            eval_ms * 1e6 / rows
        } else {
            0.0
        },
        "ns",
    );
    for (name, counter) in [
        ("search.points_evaluated", "search.points.evaluated"),
        ("search.points_skipped", "search.points.skipped"),
        ("search.bounds_computed", "search.bounds.computed"),
        ("pool.tasks", "pool.tasks"),
        ("pool.inline_plans", "pool.inline_plans"),
    ] {
        push(name, per_op(obs.counter(counter)), "count");
    }
    push(
        "search.floor_cache.hit_ratio",
        obs.hit_ratio("search.floor_cache"),
        "ratio",
    );
    push(
        "pool.busy_ms",
        per_op(obs.span_ms("pool.worker.busy")),
        "ms",
    );
    push(
        "pool.idle_ms",
        per_op(obs.span_ms("pool.worker.idle")),
        "ms",
    );
}

/// The study's distinct geometry keys, as base specs.
fn study_specs(explorer: &Explorer) -> Vec<coldtall::array::ArraySpec> {
    let mut seen = HashSet::new();
    MemoryConfig::study_set()
        .iter()
        .filter(|c| seen.insert(DesignPointKey::geometry_of(c).canonical().to_string()))
        .map(|c| c.to_base_spec(explorer.node()))
        .collect()
}

/// Two of the layer costs [`common`] measures, which workloads reuse in
/// their own derived numbers.
#[derive(Debug, Clone, Copy)]
pub struct Common {
    /// `cli.process_ms`.
    pub process_ms: f64,
    /// `array.solve_us`.
    pub solve_us: f64,
}

/// The per-layer metrics every workload reports: `cli.process_ms`, the
/// program's counters and spans over `ops` operations (per operation),
/// and the array probes.
///
/// # Errors
///
/// A message if `coldtall help` cannot be run.
pub fn common(ctx: &Ctx, obs: &Obs, ops: f64, out: &mut Vec<Metric>) -> Result<Common, String> {
    let process_ms = cli_process_ms(&ctx.coldtall)?;
    Report::push(out, "cli.process_ms", process_ms, "ms", 11);
    program_layers(obs, ops, out);
    let budget = Duration::from_millis(if ctx.smoke { 5 } else { 200 });
    let (solve_us, stripe_us) = array(budget);
    Report::push(out, "array.solve_us", solve_us, "us", 0);
    Report::push(out, "array.stripe_us", stripe_us, "us", 0);
    let solves = if ops > 0.0 {
        obs.counter("geometry.solves") / ops
    } else {
        0.0
    };
    Report::push(out, "array.solves", solves, "count", 0);
    Ok(Common {
        process_ms,
        solve_us,
    })
}

/// `array.solve_us` and `array.stripe_us`: the mean cost of one
/// `OrgGeometry::solve` (phase 1) and of one eight-temperature
/// `OrgGeometry::characterize_temps` stripe (phase 2) over the study's
/// geometry keys, each repeated for at least `budget`.
fn array(budget: Duration) -> (f64, f64) {
    let explorer = Explorer::with_defaults();
    let specs = study_specs(&explorer);
    let temps = coldtall::cryo::study_temperatures();
    let timed = |f: &dyn Fn(usize)| {
        let start = Instant::now();
        let mut calls = 0usize;
        while calls == 0 || start.elapsed() < budget {
            for i in 0..specs.len() {
                f(i);
                calls += 1;
            }
        }
        start.elapsed().as_secs_f64() * 1e6 / calls as f64
    };
    let solve_us = timed(&|i| {
        black_box(OrgGeometry::solve(black_box(&specs[i])));
    });
    let geometries: Vec<OrgGeometry> = specs.iter().map(OrgGeometry::solve).collect();
    let stripe_us = timed(&|i| {
        black_box(
            geometries[i].characterize_temps(black_box(temps), Objective::EnergyDelayProduct),
        );
    });
    (solve_us, stripe_us)
}

/// `cli.process_ms`: median wall time of `coldtall help`, the CLI's
/// fixed cost of one process.
fn cli_process_ms(coldtall: &Path) -> Result<f64, String> {
    let mut samples = Samples::default();
    for _ in 0..11 {
        let start = Instant::now();
        let status = Command::new(coldtall)
            .arg("help")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("{}: {e}", coldtall.display()))?;
        samples.push(ms_since(start));
        if !status.success() {
            return Err(format!("coldtall help exited with {status}"));
        }
    }
    Ok(samples.median())
}

/// One round of the store layers, timed in this process, as
/// `name value` lines: `GeometryStore::open`, `warm_into` over the
/// study set and `sync_from` (nothing new to append) on a fresh
/// explorer; with a registry, `RunRegistry::open` and `replay_into`;
/// last, `coldtall_obs::json::parse` alone over every line of the
/// stores. This is the `--probe-stores` mode, which [`StoreProbe`] runs
/// in fresh processes: the CLI and the daemon meet their stores in a
/// fresh process too, and a long-lived harness heap times the same
/// calls differently.
///
/// # Errors
///
/// Any I/O error from a store, or a line that does not parse as JSON.
pub fn stores_round(geometry: &Path, registry: Option<&Path>) -> Result<String, String> {
    let mut out = String::new();
    let mut line = |name: &str, value: f64| out.push_str(&format!("{name} {value}\n"));
    let explorer = Explorer::with_defaults();
    let start = Instant::now();
    let store = GeometryStore::open(geometry).map_err(|e| e.to_string())?;
    line("geomstore.open_ms", ms_since(start));
    let start = Instant::now();
    store
        .warm_into(&explorer, &MemoryConfig::study_set())
        .map_err(|e| e.to_string())?;
    line("geomstore.replay_ms", ms_since(start));
    let start = Instant::now();
    store.sync_from(&explorer).map_err(|e| e.to_string())?;
    line("geomstore.sync_ms", ms_since(start));
    line("geomstore.records", store.len() as f64);
    let mut files = vec![geometry];
    if let Some(path) = registry {
        let start = Instant::now();
        let registry = RunRegistry::open(path).map_err(|e| e.to_string())?;
        line("registry.open_ms", ms_since(start));
        let start = Instant::now();
        let replayed = registry
            .replay_into(&explorer)
            .map_err(|e| e.to_string())?
            .replayed;
        line("registry.replay_ms", ms_since(start));
        line("registry.records", replayed as f64);
        files.push(path);
    }
    let mut text = String::new();
    for path in &files {
        text.push_str(
            &std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }
    let start = Instant::now();
    for l in text.lines() {
        black_box(coldtall::obs::json::parse(black_box(l))?);
    }
    let ms = ms_since(start);
    line("json.parse_ms", ms);
    line("json.parse_mb_s", text.len() as f64 / 1e6 / (ms / 1e3));
    line(
        "geomstore.bytes",
        std::fs::metadata(geometry)
            .map_err(|e| e.to_string())?
            .len() as f64,
    );
    Ok(out)
}

/// The store probe's samples, by metric name, in first-seen order.
#[derive(Debug, Default)]
pub struct StoreProbe(Vec<(String, Samples)>);

impl StoreProbe {
    /// Runs one [`stores_round`] in a fresh process of this binary
    /// (`--probe-stores`) and records its numbers. Workloads call this
    /// between their traced operations, so the probe samples the host
    /// over the same window as the operations it is compared with.
    ///
    /// # Errors
    ///
    /// A message if the probe process fails or prints something
    /// unexpected.
    pub fn round(&mut self, geometry: &Path, registry: Option<&Path>) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let output = Command::new(&exe)
            .arg("--probe-stores")
            .arg(geometry)
            .args(registry)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !output.status.success() {
            return Err(format!(
                "store probe failed: {}",
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        for l in String::from_utf8_lossy(&output.stdout).lines() {
            let parsed = l
                .split_once(' ')
                .and_then(|(name, value)| Some((name, value.parse::<f64>().ok()?)));
            let (name, value) = parsed.ok_or_else(|| format!("bad probe line {l:?}"))?;
            match self.0.iter_mut().find(|(n, _)| n == name) {
                Some((_, samples)) => samples.push(value),
                None => self
                    .0
                    .push((name.to_string(), std::iter::once(value).collect())),
            }
        }
        Ok(())
    }

    /// Pushes each metric's median into `out`.
    pub fn report(&self, out: &mut Vec<Metric>) {
        for (name, samples) in &self.0 {
            let (unit, n) = if name.ends_with("_ms") {
                ("ms", samples.len())
            } else if name.ends_with("_mb_s") {
                ("MB/s", samples.len())
            } else if name.ends_with("bytes") {
                ("bytes", 0)
            } else {
                ("count", 0)
            };
            Report::push(out, name, samples.median(), unit, n);
        }
    }
}

/// Trace overhead: how much slower the traced half of the run's pass
/// median is than the untraced half's, in percent.
#[must_use]
pub fn overhead_pct(untraced: &Samples, traced: &Samples) -> f64 {
    (traced.median() / untraced.median() - 1.0) * 100.0
}
