//! End-to-end benchmark of coldtall.
//!
//! ```sh
//! bash bench_e2e/run.sh --workload cli --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Three workloads: `artifacts` regenerates the 19 `results/` artifacts
//! in-process, `cli` runs the release `coldtall sweep` / `search`
//! binaries cold and with `--warm-start`, `serve` drives a `coldtall
//! serve` daemon over two TCP connections. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is a separate run that splits the
//! workload's time across the program's layers. Human-readable lines
//! come first; the last line of stdout is the JSON result. See
//! `bench_e2e/README.md`.

mod artifacts;
mod cli;
mod mix;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;

/// Settings of one run, shared by the workloads.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Short smoke run: minimal work, same checks.
    pub smoke: bool,
    /// The release `coldtall` binary.
    pub coldtall: PathBuf,
    /// Scratch directory for this run's stores, removed at exit.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_file: PathBuf,
    /// Host threads; the pool and the daemon run at this many.
    pub nproc: usize,
}

impl Ctx {
    /// How long each measuring loop runs: the whole run, or half of a
    /// traced run (an untraced half, then a traced half).
    #[must_use]
    pub fn window(&self) -> Duration {
        let seconds = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(seconds)
    }

    /// Whether a measuring loop that started at `start` and has done
    /// `done` iterations should run another.
    #[must_use]
    pub fn more(&self, start: Instant, done: usize) -> bool {
        let min = if self.smoke { 1 } else { 5 };
        done < min || (!self.smoke && start.elapsed() < self.window())
    }
}

fn usage() -> String {
    "usage: bench_e2e --workload <artifacts|cli|serve> --seed <n> --seconds <s> --trace <0|1> \
     [--smoke]\n(run from the repository root; the coldtall binary is \
     $CARGO_TARGET_DIR/release/coldtall)"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut smoke = false;
    let target = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    );
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let bench_dir = target.join("bench_e2e");
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        smoke,
        coldtall: target.join("release").join("coldtall"),
        work: bench_dir.join(format!("{workload}-{}", std::process::id())),
        trace_file: bench_dir
            .join("traces")
            .join(format!("{workload}-seed{seed}.jsonl")),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    };
    Ok((workload, ctx))
}

/// The commit the checkout was made from, when it is a git checkout.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
#[must_use]
pub fn vm_hwm_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn run(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    if !ctx.coldtall.is_file() {
        return Err(format!(
            "{} not found: build it with bench_e2e/run.sh",
            ctx.coldtall.display()
        ));
    }
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    coldtall::par::set_max_threads(ctx.nproc);
    let mut report = Report::default();
    report.fact("workload", workload);
    report.fact("seed", ctx.seed);
    report.fact("seconds", ctx.seconds);
    report.fact("traced", ctx.trace);
    report.fact("nproc", ctx.nproc);
    report.fact("pool_threads", coldtall::par::max_threads());
    report.fact("commit", commit());
    report.fact(
        "parallel_speedup",
        "not measured (no sequential baseline is run)",
    );
    match workload {
        "artifacts" => artifacts::run(ctx, &mut report)?,
        "cli" => cli::run(ctx, &mut report)?,
        "serve" => serve::run(ctx, &mut report)?,
        other => return Err(format!("unknown workload {other}\n{}", usage())),
    }
    if !ctx.trace {
        let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
        let attempted = usize::try_from(report.attempted).unwrap_or(usize::MAX);
        Report::push(
            &mut report.detail,
            "error_rate",
            error_rate,
            "ratio",
            attempted,
        );
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--probe-stores") {
        let geometry = args.get(1).map(Path::new);
        let registry = args.get(2).map(Path::new);
        return match geometry.map(|g| probe::stores_round(g, registry)) {
            Some(Ok(lines)) => {
                print!("{lines}");
                ExitCode::SUCCESS
            }
            Some(Err(message)) => {
                eprintln!("bench_e2e: {message}");
                ExitCode::FAILURE
            }
            None => ExitCode::from(2),
        };
    }
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            return ExitCode::from(2);
        }
    };
    let result = run(&workload, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result.and_then(|report| report.render(ctx.trace)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::FAILURE
        }
    }
}
