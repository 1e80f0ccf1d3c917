//! Workload `artifacts`: regenerates all 19 `results/` artifacts
//! in-process, pass after pass, and byte-compares each pass with the
//! committed goldens. Every generator builds a fresh `Explorer`, so the
//! model's caches start cold in every pass. The seed only shuffles the
//! order of the artifacts within each pass.

use std::time::Instant;

use coldtall::core::report::TextTable;
use coldtall_bench as gen;
use coldtall_rng::SmallRng;

use crate::probe::{self, ms_since};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{Obs, Tracer};
use crate::Ctx;

/// An artifact generator.
type Generator = fn() -> TextTable;

/// Every artifact: its `results/` file stem and its generator.
const ARTIFACTS: [(&str, Generator); 19] = [
    ("ablation_cooling", gen::ablation_cooling::run),
    ("ablation_ecc", gen::ablation_ecc::run),
    ("ablation_node", gen::ablation_node::run),
    ("ablation_stacking", gen::ablation_stacking::run),
    ("ablation_tags", gen::ablation_tags::run),
    ("ablation_voltage", gen::ablation_voltage::run),
    ("accel_study", gen::accel_study::run),
    ("cryo_nvm_study", gen::cryo_nvm_study::run),
    ("dynamic_temperature", gen::dynamic_temperature::run),
    ("fig1", gen::fig1::run),
    ("fig3", gen::fig3::run),
    ("fig4", gen::fig4::run),
    ("fig5", gen::fig5::run),
    ("fig6", gen::fig6::run),
    ("fig7", gen::fig7::run),
    ("hybrid_study", gen::hybrid_study::run),
    ("table1", gen::table1::run),
    ("table2", gen::table2::run),
    ("variation_study", gen::variation_study::run),
];

/// The bytes an artifact binary prints for `table`.
fn render(name: &str, table: &TextTable) -> String {
    format!("# {name}\n\n{}", table.render())
}

/// One pass's order: a seeded permutation of the artifact indices.
fn order(rng: &mut SmallRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ARTIFACTS.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs one untraced pass; returns its milliseconds and outputs.
fn pass(order: &[usize]) -> (f64, Vec<(usize, String)>) {
    let start = Instant::now();
    let outputs = order
        .iter()
        .map(|&i| {
            let (name, generate) = ARTIFACTS[i];
            (i, render(name, &generate()))
        })
        .collect();
    (ms_since(start), outputs)
}

/// Runs one traced pass: a `pass` span with one `artifact.<name>` and
/// one `report.render` span per artifact.
fn traced_pass(tracer: &mut Tracer, op: u64, order: &[usize]) -> (f64, Vec<(usize, String)>) {
    let root = tracer.open("pass", None, op);
    let mut outputs = Vec::with_capacity(order.len());
    for &i in order {
        let (name, generate) = ARTIFACTS[i];
        let table = tracer.time(&format!("artifact.{name}"), Some(root), op, generate);
        let text = tracer.time("report.render", Some(root), op, || render(name, &table));
        outputs.push((i, text));
    }
    (tracer.close(root) as f64 / 1e6, outputs)
}

fn check(report: &mut Report, goldens: &[String], outputs: &[(usize, String)]) {
    for (i, text) in outputs {
        report.check(*text == goldens[*i], || {
            format!(
                "{} differs from results/{}.txt",
                ARTIFACTS[*i].0, ARTIFACTS[*i].0
            )
        });
    }
}

/// Runs the workload into `report`.
///
/// # Errors
///
/// A message if a golden file cannot be read or the trace cannot be
/// written.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let goldens = ARTIFACTS
        .iter()
        .map(|(name, _)| {
            std::fs::read_to_string(format!("results/{name}.txt"))
                .map_err(|e| format!("results/{name}.txt: {e} (run from the repository root)"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    report.fact("artifacts_per_pass", ARTIFACTS.len());

    // Set-up: five warm-up passes outside the measured window; the
    // first pays the process's first-touch costs.
    let mut setup = Samples::default();
    for _ in 0..5 {
        let (ms, outputs) = pass(&order(&mut rng));
        setup.push(ms / 1e3);
        check(report, &goldens, &outputs);
    }

    let mut passes = Samples::default();
    let start = Instant::now();
    while ctx.more(start, passes.len()) {
        let (ms, outputs) = pass(&order(&mut rng));
        passes.push(ms);
        check(report, &goldens, &outputs);
    }
    report.fact("passes", passes.len());
    let rss = crate::vm_hwm_mib("self").unwrap_or(0.0);

    if !ctx.trace {
        let e2e = &mut report.end_to_end;
        Report::push(e2e, "setup_s", setup.median(), "s", setup.len());
        Report::push(e2e, "pass_ms.p50", passes.median(), "ms", passes.len());
        Report::push(
            e2e,
            "pass_ms.p95",
            passes.percentile(950),
            "ms",
            passes.len(),
        );
        let ops = (passes.len() * ARTIFACTS.len()) as f64;
        Report::push(
            e2e,
            "throughput_ops",
            ops / (passes.sum() / 1e3),
            "1/s",
            passes.len(),
        );
        Report::push(&mut report.detail, "rss_mb", rss, "MiB", 0);
        return Ok(());
    }

    let mut tracer = Tracer::new();
    let mut traced = Samples::default();
    let mut obs = Obs::default();
    let start = Instant::now();
    while ctx.more(start, traced.len()) {
        let before = Obs::global();
        let (ms, outputs) = traced_pass(&mut tracer, traced.len() as u64, &order(&mut rng));
        obs.add(&Obs::global().since(&before));
        traced.push(ms);
        check(report, &goldens, &outputs);
    }
    let n = traced.len() as f64;
    let layers = &mut report.layers;
    let common = probe::common(ctx, &obs, n, layers)?;
    for (name, _) in ARTIFACTS {
        let ms = tracer.durations_us(&format!("artifact.{name}")).sum() / 1e3 / n;
        Report::push(
            layers,
            &format!("artifact.{name}_ms"),
            ms,
            "ms",
            traced.len(),
        );
    }
    let render_ms = tracer.durations_us("report.render").sum() / 1e3 / n;
    Report::push(layers, "report.render_ms", render_ms, "ms", traced.len());
    let unattributed = tracer.self_ns("pass") as f64 / 1e6 / n;
    Report::push(layers, "unattributed_ms", unattributed, "ms", traced.len());
    Report::push(
        layers,
        "trace.overhead_pct",
        probe::overhead_pct(&passes, &traced),
        "%",
        traced.len(),
    );
    Report::push(layers, "rss_mb", rss, "MiB", 0);
    report.fact("traced_passes", traced.len());
    tracer
        .write(&ctx.trace_file)
        .map_err(|e| format!("{}: {e}", ctx.trace_file.display()))?;
    report.fact("trace_file", ctx.trace_file.display());
    report.findings.push(format!(
        "a pass spends {:.3} ms characterizing and {:.3} ms evaluating (program spans, summed over pool threads) \
         of {:.3} ms; {:.3} geometry solves per pass at {:.2} us each",
        obs.span_ms("characterize") / n,
        obs.span_ms("evaluate") / n,
        traced.median(),
        obs.counter("geometry.solves") / n,
        common.solve_us
    ));
    Ok(())
}
