//! Workload `cli`: the release `coldtall` binary, one child process at a
//! time. Each cycle runs a cold `coldtall sweep` and a cold `coldtall
//! search --temps 77:387`, each followed by `coldtall sweep
//! --warm-start <store>` on the store written during set-up, so cold and
//! warm invocations alternate over identical work. A pass is one cold
//! invocation and the warm sweep after it. The seed picks which cold
//! command leads each cycle.

use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::time::Instant;

use coldtall::core::{pareto_front, Constraints, Explorer, MemoryConfig, SweepPlan};
use coldtall_rng::SmallRng;

use crate::probe::{self, ms_since};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{Obs, Tracer};
use crate::Ctx;

/// One kind of invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Sweep,
    Search,
    WarmSweep,
}

impl Op {
    const ALL: [Op; 3] = [Op::Sweep, Op::Search, Op::WarmSweep];

    fn name(self) -> &'static str {
        match self {
            Op::Sweep => "sweep",
            Op::Search => "search",
            Op::WarmSweep => "warm_sweep",
        }
    }
}

/// The search region of `coldtall search --temps 77:387`: the study set
/// over every ladder temperature.
fn search_region() -> Vec<MemoryConfig> {
    MemoryConfig::study_set()
        .iter()
        .flat_map(|c| {
            coldtall::cryo::study_temperatures()
                .iter()
                .map(|&t| c.clone().at_temperature(t))
        })
        .collect()
}

const REGION_NAME: &str = "study x 77:387 K";

fn invoke(coldtall: &Path, op: Op, store: &Path, metrics: bool) -> Result<(f64, Output), String> {
    let mut command = Command::new(coldtall);
    match op {
        Op::Sweep => command.arg("sweep"),
        Op::Search => command.args(["search", "--temps", "77:387"]),
        Op::WarmSweep => command.arg("sweep").arg("--warm-start").arg(store),
    };
    if metrics {
        command.arg("--metrics=json");
    }
    let start = Instant::now();
    let output = command
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("{}: {e}", coldtall.display()))?;
    Ok((ms_since(start), output))
}

/// The first integer of the first stdout line containing `marker`.
fn leading_count(stdout: &[u8], marker: &str) -> Option<usize> {
    let text = String::from_utf8_lossy(stdout);
    let line = text.lines().find(|l| l.contains(marker))?;
    line.split_whitespace().next()?.parse().ok()
}

/// Reference outputs: what a cold invocation prints, checked once
/// against the library run in-process over the same region.
struct Reference {
    sweep: Vec<u8>,
    search: Vec<u8>,
}

fn reference(ctx: &Ctx, report: &mut Report) -> Result<Reference, String> {
    let (_, sweep) = invoke(&ctx.coldtall, Op::Sweep, Path::new(""), false)?;
    let (_, search) = invoke(&ctx.coldtall, Op::Search, Path::new(""), false)?;
    report.check(sweep.status.success() && search.status.success(), || {
        "a reference invocation exited nonzero".to_string()
    });
    let rows = Explorer::with_defaults()
        .try_sweep_configs(&MemoryConfig::study_set())
        .map_err(|e| e.to_string())?
        .len();
    let printed = leading_count(&sweep.stdout, " rows (");
    report.check(printed == Some(rows), || {
        format!("coldtall sweep reports {printed:?} rows, the library {rows}")
    });
    let outcome = Explorer::with_defaults()
        .search(REGION_NAME, &search_region(), &Constraints::none())
        .map_err(|e| e.to_string())?;
    let frontier = leading_count(&search.stdout, " frontier points over ");
    report.check(frontier == Some(outcome.frontier.len()), || {
        format!(
            "coldtall search reports {frontier:?} frontier points, the library {}",
            outcome.frontier.len()
        )
    });
    report.fact("sweep_rows", rows);
    report.fact("search_frontier", outcome.frontier.len());
    Ok(Reference {
        sweep: sweep.stdout,
        search: search.stdout,
    })
}

fn check(report: &mut Report, reference: &Reference, op: Op, output: &Output) {
    let expected = if op == Op::Search {
        &reference.search
    } else {
        &reference.sweep
    };
    report.check(
        output.status.success() && output.stdout == *expected,
        || {
            format!(
                "coldtall {} exited {} or its stdout differs from the cold reference",
                op.name(),
                output.status
            )
        },
    );
}

fn store_size(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    format!("{} records, {} bytes", text.lines().count(), text.len())
}

/// One cycle: the two cold commands in seeded order, each followed by a
/// warm sweep.
fn cycle(rng: &mut SmallRng) -> [Op; 4] {
    if rng.gen_bool(0.5) {
        [Op::Sweep, Op::WarmSweep, Op::Search, Op::WarmSweep]
    } else {
        [Op::Search, Op::WarmSweep, Op::Sweep, Op::WarmSweep]
    }
}

/// Runs the workload into `report`.
///
/// # Errors
///
/// A message if the binary cannot be spawned, the store cannot be read,
/// or the trace cannot be written.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let reference = reference(ctx, report)?;

    // Set-up: seed the warm-start store with `sweep --warm-start` on an
    // empty store (solve + record), eleven times; the last store is kept.
    let store = ctx.work.join("geometry.jsonl");
    let mut setup = Samples::default();
    for _ in 0..11 {
        let _ = std::fs::remove_file(&store);
        let (ms, output) = invoke(&ctx.coldtall, Op::WarmSweep, &store, false)?;
        setup.push(ms / 1e3);
        check(report, &reference, Op::WarmSweep, &output);
    }
    report.fact("store_at_start", store_size(&store));

    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let mut kinds: [Samples; 3] = Default::default();
    let mut pairs = Samples::default();
    let mut cycles = 0;
    let start = Instant::now();
    while ctx.more(start, cycles) {
        let mut pair = 0.0;
        for (i, op) in cycle(&mut rng).into_iter().enumerate() {
            let (ms, output) = invoke(&ctx.coldtall, op, &store, false)?;
            pair += ms;
            kinds[op as usize].push(ms);
            check(report, &reference, op, &output);
            if i % 2 == 1 {
                pairs.push(pair);
                pair = 0.0;
            }
        }
        cycles += 1;
    }
    report.fact("cycles", cycles);

    if !ctx.trace {
        report.fact("store_at_end", store_size(&store));
        let e2e = &mut report.end_to_end;
        Report::push(e2e, "setup_s", setup.median(), "s", setup.len());
        Report::push(e2e, "pass_ms.p50", pairs.median(), "ms", pairs.len());
        Report::push(e2e, "pass_ms.p95", pairs.percentile(950), "ms", pairs.len());
        let invocations = (pairs.len() * 2) as f64;
        Report::push(
            e2e,
            "throughput_ops",
            invocations / (pairs.sum() / 1e3),
            "1/s",
            pairs.len(),
        );
        for op in Op::ALL {
            report.latency(&format!("{}_ms", op.name()), &kinds[op as usize], 950);
        }
        return Ok(());
    }

    // Traced half: the same cycles with `--metrics=json` on every
    // child, one span per invocation, the child's counters per kind.
    let mut tracer = Tracer::new();
    let mut traced_pairs = Samples::default();
    let mut traced: [Samples; 3] = Default::default();
    let mut obs: [Obs; 3] = Default::default();
    let mut stores = probe::StoreProbe::default();
    let start = Instant::now();
    while ctx.more(start, traced_pairs.len() / 2) {
        // One store probe per cycle, outside the pair spans, so it
        // samples the host over the same window as the warm sweeps.
        stores.round(&store, None)?;
        for pair in cycle(&mut rng).chunks(2) {
            let op_id = traced_pairs.len() as u64;
            let root = tracer.open("pair", None, op_id);
            for &op in pair {
                let (ms, output) = invoke(&ctx.coldtall, op, &store, true)?;
                tracer.record(
                    &format!("cli.{}", op.name()),
                    Some(root),
                    op_id,
                    (ms * 1e6) as u64,
                );
                traced[op as usize].push(ms);
                let child = Obs::parse(&String::from_utf8_lossy(&output.stderr))?;
                obs[op as usize].add(&child);
                check(report, &reference, op, &output);
            }
            traced_pairs.push(tracer.close(root) as f64 / 1e6);
        }
    }
    report.fact("store_at_end", store_size(&store));
    let mut all = Obs::default();
    for o in &obs {
        all.add(o);
    }
    let invocations = (traced_pairs.len() * 2) as f64;
    let layers = &mut report.layers;
    let common = probe::common(ctx, &all, invocations, layers)?;
    stores.report(layers);

    // In-process replay of the library calls each command makes:
    // plan compiles, and the search's own time without the
    // characterize/evaluate spans it drives, and its frontier.
    let explorer = Explorer::with_defaults();
    let region = search_region();
    let mut compile = Samples::default();
    let mut jobs = Samples::default();
    for configs in [MemoryConfig::study_set(), region.clone()] {
        for _ in 0..5 {
            let start = Instant::now();
            let plan = SweepPlan::new(configs.clone())
                .compile(explorer.backends())
                .map_err(|e| e.to_string())?;
            compile.push(ms_since(start) * 1e3);
            jobs.push(plan.jobs().len() as f64);
        }
    }
    let mut search_self = Samples::default();
    for _ in 0..5 {
        let fresh = Explorer::with_defaults();
        let before = Obs::global();
        let start = Instant::now();
        fresh
            .search(REGION_NAME, &region, &Constraints::none())
            .map_err(|e| e.to_string())?;
        let wall = ms_since(start);
        let d = Obs::global().since(&before);
        search_self.push(wall - d.span_ms("characterize") - d.span_ms("evaluate"));
    }
    let rows = explorer
        .try_sweep_configs(&region)
        .map_err(|e| e.to_string())?;
    let mut frontier = Samples::default();
    for _ in 0..5 {
        let start = Instant::now();
        std::hint::black_box(pareto_front(std::hint::black_box(&rows)));
        frontier.push(ms_since(start) * 1e3);
    }
    Report::push(
        layers,
        "plan.compile_us",
        compile.median(),
        "us",
        compile.len(),
    );
    Report::push(layers, "plan.jobs", jobs.mean(), "count", 0);
    Report::push(
        layers,
        "search.ms",
        search_self.median(),
        "ms",
        search_self.len(),
    );
    Report::push(
        layers,
        "frontier.us",
        frontier.median(),
        "us",
        frontier.len(),
    );

    // Unattributed: per invocation, wall time minus every layer's share
    // (process, characterize, evaluate, plan compile, and the store
    // replay or the search's own time).
    let value = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let replay_ms = value("geomstore.open_ms") + value("geomstore.replay_ms");
    let compile_ms = compile.median() / 1e3;
    let mut unattributed = 0.0;
    for op in Op::ALL {
        let (child, samples) = (&obs[op as usize], &traced[op as usize]);
        let own = match op {
            Op::Sweep => 0.0,
            Op::Search => search_self.median(),
            Op::WarmSweep => replay_ms,
        };
        unattributed += samples.sum()
            - samples.len() as f64 * (common.process_ms + compile_ms + own)
            - child.span_ms("characterize")
            - child.span_ms("evaluate");
    }
    Report::push(
        layers,
        "unattributed_ms",
        unattributed / invocations,
        "ms",
        invocations as usize,
    );
    let overhead = probe::overhead_pct(&pairs, &traced_pairs);
    Report::push(
        layers,
        "trace.overhead_pct",
        overhead,
        "%",
        traced_pairs.len(),
    );
    for op in Op::ALL {
        let samples = &traced[op as usize];
        Report::push(
            layers,
            &format!("{}_ms.traced_mean", op.name()),
            samples.mean(),
            "ms",
            samples.len(),
        );
    }

    let cold_solves = obs[Op::Sweep as usize].counter("geometry.solves")
        / traced[Op::Sweep as usize].len() as f64;
    let solve_us = common.solve_us;
    report.findings.push(format!(
        "warm start: geomstore.open_ms + geomstore.replay_ms = {replay_ms:.3} ms to skip {cold_solves:.0} solves \
         that cost {cold_solves:.0} x {solve_us:.2} us = {:.3} ms (array.solve_us x array.solves of a cold sweep)",
        cold_solves * solve_us / 1e3
    ));
    report.fact("traced_pairs", traced_pairs.len());
    tracer
        .write(&ctx.trace_file)
        .map_err(|e| format!("{}: {e}", ctx.trace_file.display()))?;
    report.fact("trace_file", ctx.trace_file.display());
    Ok(())
}
