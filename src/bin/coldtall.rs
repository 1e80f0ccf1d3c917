//! The `coldtall` command-line tool: characterize, evaluate, and
//! recommend LLC design points without writing code.
//!
//! ```sh
//! coldtall list
//! coldtall characterize --tech pcm --tentpole optimistic --dies 8
//! coldtall evaluate --bench namd --tech edram --temp 77
//! coldtall recommend --bench mcf --max-area 5
//! coldtall table2
//! coldtall sweep --metrics
//! coldtall serve --listen 127.0.0.1:0 --registry runs.jsonl
//! ```

// The CLI is the designated place for terminal output: artifact data
// goes to stdout, diagnostics and `--metrics` reports to stderr (so
// metrics never corrupt redirected artifacts).
#![allow(clippy::print_stderr)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use coldtall::array::Objective;
use coldtall::cell::Tentpole;
use coldtall::core::report::{sci, TextTable};
use coldtall::core::{
    selection, BackendRegistry, CacheConfig, Constraints, Error, EvalArena, Explorer, MemoryConfig,
    RequestHandler,
};
use coldtall::par::PoolConfig;
use coldtall::serve::{
    render_dashboard, replay_file, GeometryStore, PipeSafeWriter, ServeOptions, Server,
};
use coldtall::tech::ProcessNode;
use coldtall::units::Kelvin;
use coldtall::workloads::{benchmark, spec2017};

/// What `--metrics[=json]` asked for.
#[derive(Clone, Copy, PartialEq)]
enum MetricsMode {
    Off,
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics = MetricsMode::Off;
    args.retain(|arg| match arg.as_str() {
        "--metrics" | "--metrics=text" => {
            metrics = MetricsMode::Text;
            false
        }
        "--metrics=json" => {
            metrics = MetricsMode::Json;
            false
        }
        _ => true,
    });
    // The worker pool is resolved once, before any command runs:
    // `COLDTALL_THREADS` is read here (an invalid value warns once and
    // falls back to auto-detection), and the pool's metrics register
    // even when a command never fans out, so `--metrics` reports the
    // same metric set for every command and thread count.
    let (pool, pool_warnings) = PoolConfig::from_env();
    for w in &pool_warnings {
        eprintln!("{w}");
    }
    pool.apply();
    coldtall::par::register_metrics();
    let Some(command) = args.first() else {
        let mut usage = String::new();
        write_usage(&mut usage);
        // Usage on a bare invocation goes to stdout like `help`, but
        // the missing command is still a failure.
        let _ = flush_stdout(&usage);
        return ExitCode::FAILURE;
    };
    // Commands render into a buffer; the buffer is flushed through a
    // broken-pipe-absorbing writer at the end. A consumer that hangs up
    // early (`coldtall sweep | head`) is a satisfied consumer, not an
    // error: the flush latches instead of panicking and we exit 0.
    let mut out = String::new();
    let result = match command.as_str() {
        "list" => Options::parse(&args[1..], &[]).and_then(|_| cmd_list(&mut out)),
        "characterize" => {
            Options::parse(&args[1..], &["tech", "tentpole", "dies", "temp", "backend"])
                .and_then(|opts| cmd_characterize(&opts, &mut out))
        }
        "evaluate" => {
            Options::parse(&args[1..], &["tech", "tentpole", "dies", "temp", "bench", "backend"])
                .and_then(|opts| cmd_evaluate(&opts, &mut out))
        }
        "recommend" => Options::parse(&args[1..], &["bench", "max-area"])
            .and_then(|opts| cmd_recommend(&opts, &mut out)),
        "table2" => Options::parse(&args[1..], &[]).and_then(|_| cmd_table2(&mut out)),
        "backends" => Options::parse(&args[1..], &[]).and_then(|_| cmd_backends(&mut out)),
        "sweep" => Options::parse(&args[1..], &["warm-start"])
            .and_then(|opts| cmd_sweep(&opts, &mut out)),
        "search" => Options::parse(
            &args[1..],
            &[
                "tech",
                "dies",
                "temps",
                "objective",
                "max-latency",
                "max-area",
                "min-lifetime",
                "max-power",
                "warm-start",
            ],
        )
        .and_then(|opts| cmd_search(&opts, &mut out)),
        "serve" => Options::parse(
            &args[1..],
            &[
                "listen",
                "registry",
                "max-inflight",
                "deadline-ms",
                "threads",
                "cache-cap",
                "render",
                "warm-start",
            ],
        )
        .and_then(|opts| cmd_serve(&opts)),
        "help" | "--help" | "-h" => {
            write_usage(&mut out);
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => {
            let broken = match flush_stdout(&out) {
                Ok(broken) => broken,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Metrics go to stderr after the command's own output, so
            // redirected stdout stays a clean artifact and
            // `--metrics=json` stderr is a parseable JSON document.
            // When the consumer hung up we skip them: nobody is
            // listening to this pipeline anymore.
            if !broken {
                match metrics {
                    MetricsMode::Off => {}
                    MetricsMode::Text => eprint!("{}", coldtall::obs::global().render_text()),
                    MetricsMode::Json => eprint!("{}", coldtall::obs::global().render_json()),
                }
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `coldtall help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Writes the buffered output to stdout through a
/// [`PipeSafeWriter`]; returns whether the consumer hung up.
///
/// # Errors
///
/// Any non-`BrokenPipe` I/O error (a full disk on redirection).
fn flush_stdout(buffer: &str) -> io::Result<bool> {
    let stdout = io::stdout();
    let mut out = PipeSafeWriter::new(stdout.lock());
    out.write_all(buffer.as_bytes())?;
    out.flush()?;
    Ok(out.broken())
}

fn write_usage(out: &mut String) {
    let _ = writeln!(
        out,
        "coldtall — design-space exploration of cryogenic and 3D embedded cache memory\n\
         \n\
         USAGE:\n  coldtall <command> [options]\n\
         \n\
         COMMANDS:\n\
         \x20 list            benchmarks and configurations\n\
         \x20 characterize    array characteristics of one design point\n\
         \x20 evaluate        a design point under one benchmark's traffic\n\
         \x20 recommend       lowest-power viable choice for a benchmark\n\
         \x20 table2          the optimal-LLC summary table\n\
         \x20 sweep           the full study sweep, summarized per configuration\n\
         \x20 search          adaptive branch-and-bound Pareto search of the study space\n\
         \x20 backends        the characterization backends and their capabilities\n\
         \x20 serve           long-running daemon: JSON requests over TCP/stdin\n\
         \n\
         DESIGN-POINT OPTIONS:\n\
         \x20 --tech <sram|edram|pcm|stt|rram>   technology (default sram)\n\
         \x20 --tentpole <optimistic|pessimistic> eNVM tentpole (default optimistic)\n\
         \x20 --dies <1|2|4|8>                   stacked dies (default 1)\n\
         \x20 --temp <kelvin>                    operating temperature (default 350)\n\
         \n\
         OTHER OPTIONS:\n\
         \x20 --bench <name>                     benchmark (default namd)\n\
         \x20 --max-area <mm2>                   area constraint for recommend/search\n\
         \n\
         SEARCH OPTIONS:\n\
         \x20 --tech <name>                      restrict the region to one technology\n\
         \x20 --dies <1|2|4|8>                   restrict the region to one die count\n\
         \x20 --temps <study|kelvin|lo:hi>       expand over the study's 8 temperatures,\n\
         \x20                                    re-pin the region to one temperature, or\n\
         \x20                                    expand over the ladder inside lo:hi kelvin\n\
         \x20 --objective <power|latency|area>   also report the frontier point\n\
         \x20                                    minimizing this coordinate\n\
         \x20 --max-latency <x>                  relative-latency cap\n\
         \x20 --max-power <x>                    relative-power cap\n\
         \x20 --min-lifetime <years>             endurance floor\n\
         \x20 --backend <cryomem|destiny>        pin the characterization backend;\n\
         \x20                                    errors if it is not the one the\n\
         \x20                                    registry resolves for the point\n\
         \x20 --metrics[=json]                   after the command, report engine\n\
         \x20                                    telemetry (cache hit rates, pool\n\
         \x20                                    utilization, span timings) to stderr\n\
         \n\
         SERVE OPTIONS:\n\
         \x20 --listen <addr:port>               accept TCP clients (port 0 = ephemeral);\n\
         \x20                                    omit for a stdin-only daemon\n\
         \x20 --registry <file.jsonl>            replay this run registry at startup and\n\
         \x20                                    append every new characterization to it\n\
         \x20 --max-inflight <n>                 concurrent request cap (default 8)\n\
         \x20 --deadline-ms <ms>                 default per-request budget (default none)\n\
         \x20 --threads <n>                      worker pool size (default: COLDTALL_THREADS\n\
         \x20                                    or auto-detect)\n\
         \x20 --cache-cap <n>                    characterization-cache admission cap\n\
         \x20                                    (default: COLDTALL_CACHE_CAP or unbounded)\n\
         \x20 --render <dir>                     write the static HTML dashboard from the\n\
         \x20                                    registry and exit (no daemon)\n\
         \x20 --warm-start <file.jsonl>          (also: sweep, search) replay solved\n\
         \x20                                    geometries at startup and append new\n\
         \x20                                    ones, skipping every covered solve\n\
         \n\
         Options take `--key value` or `--key=value`. Unknown options,\n\
         missing values, and out-of-range inputs exit 1 with `error: ...`\n\
         on stderr; they are never silently defaulted."
    );
}

/// Parsed command-line options: `--key value` or `--key=value` pairs,
/// validated against the command's allowed set.
///
/// Unknown options, options with a missing value, duplicated options,
/// and stray positional arguments are all hard errors — a typo like
/// `--benhc` must never silently fall back to a default.
struct Options(HashMap<String, String>);

impl Options {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(stripped) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            let (name, inline) = match stripped.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (stripped, None),
            };
            if !allowed.contains(&name) {
                return Err(format!("unknown option '--{name}'"));
            }
            let value = match inline {
                Some(v) => v,
                // A following option is not a value: `--temp --bench x`
                // is a missing value, not a temperature of "--bench".
                None => match iter.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(format!("missing value for '--{name}'")),
                },
            };
            if map.insert(name.to_string(), value).is_some() {
                return Err(format!("duplicate option '--{name}'"));
            }
        }
        Ok(Self(map))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }
}

fn parse_config(opts: &Options) -> Result<MemoryConfig, String> {
    let tech = MemoryConfig::parse_technology(opts.get("tech").unwrap_or("sram"))
        .map_err(|e| e.to_string())?;
    let tentpole = match opts.get("tentpole").unwrap_or("optimistic") {
        "optimistic" | "opt" => Tentpole::Optimistic,
        "pessimistic" | "pess" => Tentpole::Pessimistic,
        other => return Err(format!("unknown tentpole '{other}'")),
    };
    let dies: u8 = opts
        .get("dies")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --dies value".to_string())?;
    MemoryConfig::validate_dies(dies).map_err(|e| format!("--dies: {e}"))?;
    let temp: f64 = opts
        .get("temp")
        .unwrap_or("350")
        .parse()
        .map_err(|_| "bad --temp value".to_string())?;
    if !(60.0..=400.0).contains(&temp) {
        return Err("--temp must be between 60 and 400 kelvin".into());
    }
    let temp = Kelvin::try_new(temp).map_err(|e| e.to_string())?;
    let config = if tech.is_nonvolatile() {
        MemoryConfig::try_envm_3d(tech, tentpole, dies)
            .map_err(|e| e.to_string())?
            .at_temperature(temp)
    } else if dies == 1 {
        MemoryConfig::volatile_2d(tech, temp)
    } else {
        return Err("stacked volatile configs: use --tech sram --dies N at 350K only".into());
    };
    Ok(config)
}

fn benchmark_name(opts: &Options) -> &str {
    opts.get("bench").unwrap_or("namd")
}

/// Resolves the backend the registry picks for `config` and, when the
/// user pinned one with `--backend`, insists the pin matches. A pin
/// never reroutes characterization — it asserts the routing, so a
/// script that expects the Destiny path fails loudly if its point is
/// actually served by CryoMEM.
fn check_backend(opts: &Options, explorer: &Explorer, config: &MemoryConfig) -> Result<&'static str, String> {
    let resolved = explorer
        .backends()
        .resolve(config)
        .map_err(|e| e.to_string())?
        .name();
    if let Some(pinned) = opts.get("backend") {
        if explorer.backends().get(pinned).is_none() {
            return Err(format!("unknown backend '{pinned}'"));
        }
        if pinned != resolved {
            return Err(format!(
                "backend '{pinned}' does not serve {config}: the registry resolves it to '{resolved}'"
            ));
        }
    }
    Ok(resolved)
}

fn cmd_backends(out: &mut String) -> Result<(), String> {
    let registry = BackendRegistry::with_defaults();
    let mut table =
        TextTable::new(&["backend", "priority", "technologies", "temperature", "dies"]);
    for backend in registry.backends() {
        let caps = backend.capabilities();
        let technologies: Vec<&str> =
            caps.technologies().iter().map(|t| t.name()).collect();
        let dies: Vec<String> =
            caps.die_counts().iter().map(u8::to_string).collect();
        let priority = registry
            .priority(backend.name())
            .expect("registered backends have a priority");
        table.row_owned(vec![
            backend.name().to_string(),
            priority.to_string(),
            technologies.join(", "),
            format!(
                "{:.0}-{:.0} K",
                caps.min_temperature().get(),
                caps.max_temperature().get()
            ),
            dies.join("/"),
        ]);
    }
    let _ = write!(out, "{}", table.render());
    Ok(())
}

fn cmd_list(out: &mut String) -> Result<(), String> {
    let mut table = TextTable::new(&["benchmark", "suite", "reads_per_s", "writes_per_s", "band"]);
    for b in spec2017() {
        table.row_owned(vec![
            b.name.to_string(),
            b.suite.to_string(),
            sci(b.traffic.reads_per_sec),
            sci(b.traffic.writes_per_sec),
            b.traffic_band().to_string(),
        ]);
    }
    let _ = write!(out, "{}", table.render());
    let _ = writeln!(out, "\nconfigurations ({}):", MemoryConfig::study_set().len());
    for c in MemoryConfig::study_set() {
        let _ = writeln!(out, "  {}", c.label());
    }
    Ok(())
}

fn cmd_characterize(opts: &Options, out: &mut String) -> Result<(), String> {
    let config = parse_config(opts)?;
    let explorer = Explorer::with_defaults();
    let backend = check_backend(opts, &explorer, &config)?;
    let a = explorer
        .try_characterize(&config)
        .map_err(|e| e.to_string())?;
    let _ = writeln!(out, "{}:", config.label());
    let _ = writeln!(out, "  backend           : {backend}");
    let _ = writeln!(out, "  organization      : {} subarrays x {} dies", a.organization, a.dies);
    let _ = writeln!(out, "  read latency      : {}", a.read_latency);
    let _ = writeln!(out, "  write latency     : {}", a.write_latency);
    let _ = writeln!(out, "  read energy/bit   : {}", a.read_energy_per_bit());
    let _ = writeln!(out, "  write energy/bit  : {}", a.write_energy_per_bit());
    let _ = writeln!(out, "  leakage power     : {}", a.leakage_power);
    let _ = writeln!(out, "  refresh power     : {}", a.refresh_power);
    let _ = writeln!(out, "  footprint         : {:.3} mm^2", a.footprint.as_mm2());
    let _ = writeln!(out, "  array efficiency  : {:.2}", a.array_efficiency);
    Ok(())
}

fn cmd_evaluate(opts: &Options, out: &mut String) -> Result<(), String> {
    let config = parse_config(opts)?;
    let explorer = Explorer::with_defaults();
    check_backend(opts, &explorer, &config)?;
    // Infeasible design points are still printable results — only
    // invalid inputs (or a NaN-invariant violation) error out.
    let e = explorer
        .try_evaluate(&config, benchmark_name(opts))
        .map_err(|e| e.to_string())?;
    let _ = writeln!(out, "{} running {}:", e.config_label, e.benchmark);
    let _ = writeln!(out, "  device power        : {}", e.device_power);
    let _ = writeln!(out, "  wall power (cooled) : {}", e.wall_power);
    let _ = writeln!(out, "  relative power      : {}", sci(e.relative_power));
    let _ = writeln!(out, "  relative latency    : {}", sci(e.relative_latency));
    let _ = writeln!(out, "  bandwidth use       : {}", sci(e.bandwidth_utilization));
    let _ = writeln!(out, "  lifetime            : {} years", sci(e.lifetime_years));
    let _ = writeln!(out, "  verdict             : {}", e.feasibility);
    Ok(())
}

fn cmd_recommend(opts: &Options, out: &mut String) -> Result<(), String> {
    let mut constraints = Constraints::default();
    if let Some(area) = opts.get("max-area") {
        constraints.max_area_mm2 =
            Some(area.parse().map_err(|_| "bad --max-area value".to_string())?);
    }
    let explorer = Explorer::with_defaults();
    let name = benchmark_name(opts);
    let bench = benchmark(name).ok_or_else(|| {
        Error::UnknownBenchmark {
            name: name.to_string(),
        }
        .to_string()
    })?;
    // One plan: the study set under this benchmark alone.
    let plan = explorer
        .plan_sweep_over(&MemoryConfig::study_set(), std::slice::from_ref(bench))
        .map_err(|e| e.to_string())?;
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let evals = arena.to_rows();
    for row in &evals {
        row.validate().map_err(|e| e.to_string())?;
    }
    match coldtall::core::recommend(&evals, &constraints) {
        Some(pick) => {
            let _ = writeln!(
                out,
                "{}: {} ({}x below the 350K SRAM reference, {:.2} mm^2)",
                name,
                pick.config_label,
                sci(1.0 / pick.relative_power),
                pick.footprint_mm2
            );
            Ok(())
        }
        None => Err("no configuration satisfies the constraints".into()),
    }
}

/// Replays a `--warm-start` geometry file into the explorer before the
/// command runs. Diagnostics go to stderr: warm-start is an engine
/// fact, not artifact data.
fn warm_start(
    opts: &Options,
    explorer: &Explorer,
    configs: &[MemoryConfig],
) -> Result<Option<GeometryStore>, String> {
    let Some(path) = opts.get("warm-start") else {
        return Ok(None);
    };
    let store = GeometryStore::open(path).map_err(|e| format!("--warm-start {path}: {e}"))?;
    let stats = store
        .warm_into(explorer, configs)
        .map_err(|e| format!("--warm-start {path}: {e}"))?;
    eprintln!(
        "warm-start: restored {} geometries ({} duplicates, {} skipped) from {path}",
        stats.replayed, stats.duplicates, stats.skipped
    );
    Ok(Some(store))
}

/// Appends every newly solved geometry back to the `--warm-start`
/// file, so the next invocation skips those solves too.
fn warm_sync(store: Option<&GeometryStore>, explorer: &Explorer) -> Result<(), String> {
    if let Some(store) = store {
        let appended = store
            .sync_from(explorer)
            .map_err(|e| format!("--warm-start {}: {e}", store.path().display()))?;
        if appended > 0 {
            eprintln!(
                "warm-start: recorded {appended} new geometries to {}",
                store.path().display()
            );
        }
    }
    Ok(())
}

fn cmd_sweep(opts: &Options, out: &mut String) -> Result<(), String> {
    let explorer = Explorer::with_defaults();
    let configs = MemoryConfig::study_set();
    let store = warm_start(opts, &explorer, &configs)?;
    let rows = explorer
        .try_sweep_configs(&configs)
        .map_err(|e| e.to_string())?;
    warm_sync(store.as_ref(), &explorer)?;
    let benchmarks = spec2017().len();
    let mut table = TextTable::new(&[
        "configuration",
        "viable",
        "min_rel_power",
        "mean_rel_power",
        "mean_rel_latency",
    ]);
    for (i, config) in configs.iter().enumerate() {
        let per_bench = &rows[i * benchmarks..(i + 1) * benchmarks];
        let viable = per_bench.iter().filter(|row| !row.slowdown).count();
        let min_power = per_bench
            .iter()
            .map(|row| row.relative_power)
            .fold(f64::INFINITY, f64::min);
        #[allow(clippy::cast_precision_loss)]
        let mean_power = per_bench.iter().map(|row| row.relative_power).sum::<f64>()
            / benchmarks as f64;
        let finite_latencies: Vec<f64> = per_bench
            .iter()
            .map(|row| row.relative_latency)
            .filter(|l| l.is_finite())
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let mean_latency = if finite_latencies.is_empty() {
            f64::INFINITY
        } else {
            finite_latencies.iter().sum::<f64>() / finite_latencies.len() as f64
        };
        table.row_owned(vec![
            config.label(),
            format!("{viable}/{benchmarks}"),
            sci(min_power),
            sci(mean_power),
            sci(mean_latency),
        ]);
    }
    let _ = write!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "\n{} rows ({} configurations x {} benchmarks), {} characterizations memoized",
        rows.len(),
        configs.len(),
        benchmarks,
        explorer.cached_characterizations()
    );
    Ok(())
}

fn cmd_search(opts: &Options, out: &mut String) -> Result<(), String> {
    // The region: the study set, narrowed by --tech/--dies, optionally
    // expanded over (or re-pinned to) temperatures. Filters that match
    // nothing are a typed empty-region error, never an empty report.
    let mut configs = MemoryConfig::study_set();
    let mut region = vec!["study".to_string()];
    if let Some(name) = opts.get("tech") {
        let tech = MemoryConfig::parse_technology(name).map_err(|e| e.to_string())?;
        configs.retain(|c| c.technology() == tech);
        region.push(name.to_string());
    }
    if let Some(dies) = opts.get("dies") {
        let dies: u8 = dies.parse().map_err(|_| "bad --dies value".to_string())?;
        MemoryConfig::validate_dies(dies).map_err(|e| format!("--dies: {e}"))?;
        configs.retain(|c| c.dies() == dies);
        region.push(format!("{dies} dies"));
    }
    match opts.get("temps") {
        None => {}
        Some("study") => {
            configs = configs
                .iter()
                .flat_map(|c| {
                    coldtall::cryo::study_temperatures()
                        .iter()
                        .map(|&t| c.clone().at_temperature(t))
                })
                .collect();
            region.push("study temperatures".to_string());
        }
        // `lo:hi` expands over the study temperatures inside the
        // range — `--temps 77:400` walks the full cryo-to-hot ladder.
        Some(range) if range.contains(':') => {
            let (lo, hi) = range
                .split_once(':')
                .expect("checked for ':' above");
            let lo: f64 = lo.parse().map_err(|_| "bad --temps range".to_string())?;
            let hi: f64 = hi.parse().map_err(|_| "bad --temps range".to_string())?;
            if !(60.0..=400.0).contains(&lo) || !(60.0..=400.0).contains(&hi) || lo > hi {
                return Err(
                    "--temps lo:hi needs 60 <= lo <= hi <= 400 kelvin".into()
                );
            }
            let ladder: Vec<Kelvin> = coldtall::cryo::study_temperatures()
                .iter()
                .copied()
                .filter(|t| (lo..=hi).contains(&t.get()))
                .collect();
            if ladder.is_empty() {
                return Err(format!(
                    "--temps {range}: no study temperature falls in that range \
                     (the ladder spans 77-387 K)"
                ));
            }
            configs = configs
                .iter()
                .flat_map(|c| ladder.iter().map(|&t| c.clone().at_temperature(t)))
                .collect();
            region.push(format!("{range} K"));
        }
        Some(t) => {
            let kelvin: f64 = t.parse().map_err(|_| "bad --temps value".to_string())?;
            if !(60.0..=400.0).contains(&kelvin) {
                return Err(
                    "--temps must be 'study', a kelvin value, or a lo:hi range".into()
                );
            }
            let kelvin = Kelvin::try_new(kelvin).map_err(|e| e.to_string())?;
            configs = configs
                .iter()
                .map(|c| c.clone().at_temperature(kelvin))
                .collect();
            region.push(format!("{t} K"));
        }
    }
    let objective = match opts.get("objective") {
        None => None,
        Some("power") => Some(0),
        Some("latency") => Some(1),
        Some("area") => Some(2),
        Some(other) => {
            return Err(format!(
                "unknown objective '{other}' (expected power, latency, or area)"
            ))
        }
    };
    let mut constraints = Constraints::none();
    if let Some(v) = opts.get("max-latency") {
        constraints.max_relative_latency =
            v.parse().map_err(|_| "bad --max-latency value".to_string())?;
    }
    if let Some(v) = opts.get("max-area") {
        constraints.max_area_mm2 =
            Some(v.parse().map_err(|_| "bad --max-area value".to_string())?);
    }
    if let Some(v) = opts.get("min-lifetime") {
        constraints.min_lifetime_years =
            v.parse().map_err(|_| "bad --min-lifetime value".to_string())?;
    }
    if let Some(v) = opts.get("max-power") {
        constraints.max_relative_power =
            Some(v.parse().map_err(|_| "bad --max-power value".to_string())?);
    }

    let region = region.join(" x ");
    let explorer = Explorer::with_defaults();
    let store = warm_start(opts, &explorer, &configs)?;
    let outcome = explorer
        .search(&region, &configs, &constraints)
        .map_err(|e| e.to_string())?;
    warm_sync(store.as_ref(), &explorer)?;
    if outcome.frontier.is_empty() {
        return Err(format!(
            "no design point in region '{region}' is feasible under the given constraints"
        ));
    }

    let mut table = TextTable::new(&[
        "configuration",
        "benchmark",
        "rel_power",
        "rel_latency",
        "area_mm2",
    ]);
    for row in &outcome.frontier {
        table.row_owned(vec![
            row.config_label.clone(),
            row.benchmark.to_string(),
            sci(row.relative_power),
            sci(row.relative_latency),
            format!("{:.2}", row.footprint_mm2),
        ]);
    }
    let _ = write!(out, "{}", table.render());
    let stats = outcome.stats;
    let _ = writeln!(
        out,
        "\n{} frontier points over {} rows: {} evaluated, {} skipped ({} infeasible, {} pruned)",
        outcome.frontier.len(),
        stats.rows_total,
        stats.points_evaluated,
        stats.points_skipped,
        stats.skipped_infeasible,
        stats.skipped_pruned
    );
    let _ = writeln!(
        out,
        "regions: {} expanded, {} refined, {} pruned; {} plane bounds computed",
        stats.regions_expanded, stats.regions_refined, stats.regions_pruned, stats.bounds_computed
    );
    if let Some(k) = objective {
        let coord = |row: &coldtall::core::LlcEvaluation| match k {
            0 => row.relative_power,
            1 => row.relative_latency,
            _ => row.footprint_mm2,
        };
        let best = outcome
            .frontier
            .iter()
            .min_by(|a, b| coord(a).total_cmp(&coord(b)))
            .expect("the frontier was checked non-empty");
        let _ = writeln!(
            out,
            "best by {}: {} on {} (rel_power {}, rel_latency {}, {:.2} mm^2)",
            ["power", "latency", "area"][k],
            best.config_label,
            best.benchmark,
            sci(best.relative_power),
            sci(best.relative_latency),
            best.footprint_mm2
        );
    }
    Ok(())
}

fn cmd_table2(out: &mut String) -> Result<(), String> {
    let explorer = Explorer::with_defaults();
    let rows = selection::table2(&explorer);
    let mut table = TextTable::new(&["band", "power", "power_alt", "performance", "area"]);
    for row in rows {
        table.row_owned(vec![
            row.band.label().to_string(),
            row.power.label,
            row.power.alternate.unwrap_or_else(|| "-".into()),
            row.performance.label,
            row.area.label,
        ]);
    }
    let _ = write!(out, "{}", table.render());
    Ok(())
}

/// `coldtall serve`: the long-running daemon (or, with `--render`, the
/// one-shot dashboard generator). Unlike the other commands this one
/// streams to stdout directly — responses must reach the client as they
/// complete, not at exit.
fn cmd_serve(opts: &Options) -> Result<(), String> {
    // Explicit configs, not environment latches: a long-running host
    // reconfigures per logical restart. `main` already applied
    // `COLDTALL_THREADS`; `--threads` overrides it.
    if let Some(raw) = opts.get("threads") {
        PoolConfig {
            threads: Some(
                raw.parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "bad --threads value".to_string())?,
            ),
        }
        .apply();
    }

    let (mut cache_config, cache_warnings) = CacheConfig::from_env();
    match opts.get("cache-cap") {
        Some(raw) => {
            cache_config.capacity = Some(
                raw.parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "bad --cache-cap value".to_string())?,
            );
        }
        None => {
            for w in &cache_warnings {
                eprintln!("{w}");
            }
        }
    }

    let default_deadline = match opts.get("deadline-ms") {
        Some(raw) => Some(Duration::from_millis(
            raw.parse::<u64>()
                .map_err(|_| "bad --deadline-ms value".to_string())?,
        )),
        None => None,
    };
    let max_inflight = match opts.get("max-inflight") {
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| "bad --max-inflight value".to_string())?,
        None => 8,
    };

    let metrics = coldtall::obs::global();
    let explorer = Explorer::try_with_backends_configured(
        ProcessNode::ptm_22nm_hp(),
        Objective::EnergyDelayProduct,
        BackendRegistry::with_defaults(),
        metrics,
        &cache_config,
    )
    .map_err(|e| e.to_string())?;
    let handler = RequestHandler::new(explorer, metrics, default_deadline);

    if let Some(dir) = opts.get("render") {
        if let Some(path) = opts.get("registry") {
            let stats = replay_file(Path::new(path), handler.explorer())
                .map_err(|e| format!("registry replay: {e}"))?;
            eprintln!(
                "replayed {} records ({} duplicates, {} skipped) from {path}",
                stats.replayed, stats.duplicates, stats.skipped
            );
        }
        let written = render_dashboard(Path::new(dir), &handler, metrics)
            .map_err(|e| format!("dashboard render: {e}"))?;
        eprintln!("wrote {} pages to {dir}", written.len());
        return Ok(());
    }

    let options = ServeOptions {
        listen: opts.get("listen").map(String::from),
        registry: opts.get("registry").map(PathBuf::from),
        geometry: opts.get("warm-start").map(PathBuf::from),
        max_inflight,
    };
    let server = Server::start(handler, &options).map_err(|e| e.to_string())?;
    let stdout = io::stdout();
    let mut out = PipeSafeWriter::new(stdout.lock());
    writeln!(out, "{}", server.ready_line()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let stdin = io::stdin();
    server
        .serve_lines(stdin.lock(), &mut out)
        .map_err(|e| e.to_string())?;
    Ok(())
}
