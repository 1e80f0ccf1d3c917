//! The `coldtall` command-line tool: characterize, evaluate, and
//! recommend LLC design points without writing code, and regenerate
//! the paper's artifacts.
//!
//! ```sh
//! coldtall list
//! coldtall characterize --tech pcm --tentpole optimistic --dies 8
//! coldtall evaluate --bench namd --tech edram --temp 77
//! coldtall recommend --bench mcf --max-area 5
//! coldtall replicate table2
//! coldtall replicate --check
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
use std::str::FromStr;
use std::time::Duration;

use coldtall::array::Objective;
use coldtall::core::report::{sci, TextTable};
use coldtall::core::{
    BackendRegistry, CacheConfig, Constraints, DesignPoint, Error, Explorer, LlcEvaluation,
    MemoryConfig, Request, RequestHandler, ResponsePayload,
};
use coldtall::par::PoolConfig;
use coldtall::serve::{
    render_dashboard, replay_file, GeometryStore, PipeSafeWriter, ServeOptions, Server,
};
use coldtall::tech::ProcessNode;
use coldtall::workloads::spec2017;
use coldtall_bench::{first_divergence, render, ARTIFACTS};

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
        "replicate" => cmd_replicate(&args[1..], &mut out),
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
         \x20 replicate       regenerate the paper's figures, tables and studies\n\
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
         REPLICATE OPTIONS (coldtall replicate [NAME...], default all 19):\n\
         \x20 --csv                              print each artifact's CSV\n\
         \x20 --check                            byte-check each against results/<name>.txt\n\
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

    /// The value of `--name` parsed as a `T`, if given.
    fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("bad --{name} value")))
            .transpose()
    }

    /// The value of `--name` as a positive count, if given.
    fn positive(&self, name: &str) -> Result<Option<usize>, String> {
        match self.parsed(name)? {
            Some(0) => Err(format!("bad --{name} value")),
            n => Ok(n),
        }
    }
}

/// The engine every command runs through, built the way the daemon
/// builds it: the default node, objective and backends, reporting into
/// the global registry. The cache knobs come from `COLDTALL_CACHE_CAP`
/// and `COLDTALL_METRICS_DETAIL` (an invalid value warns once) unless
/// `serve --cache-cap` overrides them; `serve --deadline-ms` sets the
/// default budget.
fn engine(opts: &Options) -> Result<RequestHandler, String> {
    let (mut cache_config, cache_warnings) = CacheConfig::from_env();
    match opts.positive("cache-cap")? {
        Some(cap) => cache_config.capacity = Some(cap),
        None => {
            for w in &cache_warnings {
                eprintln!("{w}");
            }
        }
    }
    let deadline = opts.parsed("deadline-ms")?.map(Duration::from_millis);
    let metrics = coldtall::obs::global();
    let explorer = Explorer::try_with_backends_configured(
        ProcessNode::ptm_22nm_hp(),
        Objective::EnergyDelayProduct,
        BackendRegistry::with_defaults(),
        metrics,
        &cache_config,
    )
    .map_err(|e| e.to_string())?;
    Ok(RequestHandler::new(explorer, metrics, deadline))
}

/// Answers `request` through the [`engine`]: the one way a command
/// reaches it.
///
/// A `--backend` pin never reroutes characterization — it asserts the
/// registry's routing, so a script that expects the Destiny path fails
/// loudly if its point is actually served by CryoMEM. A `--warm-start`
/// file is replayed over the study set's geometries (what `serve`
/// warms) before the request, and every geometry the request solved is
/// appended after it, so the next invocation skips those solves too.
/// Its diagnostics go to stderr: warm-start is an engine fact, not
/// artifact data.
fn answer(
    opts: &Options,
    handler: &RequestHandler,
    request: &Request,
) -> Result<ResponsePayload, String> {
    let explorer = handler.explorer();
    if let (Some(pinned), Request::Characterize { point } | Request::Evaluate { point, .. }) =
        (opts.get("backend"), request)
    {
        let config = point.to_config().map_err(cli_error)?;
        let resolved = explorer.backends().resolve(&config).map_err(cli_error)?.name();
        if explorer.backends().get(pinned).is_none() {
            return Err(format!("unknown backend '{pinned}'"));
        }
        if pinned != resolved {
            return Err(format!(
                "backend '{pinned}' does not serve {config}: the registry resolves it to '{resolved}'"
            ));
        }
    }
    let store_error = |path: &str, e: io::Error| format!("--warm-start {path}: {e}");
    let store = match opts.get("warm-start") {
        None => None,
        Some(path) => {
            let store = GeometryStore::open(path).map_err(|e| store_error(path, e))?;
            let stats = store
                .warm_into(explorer, &MemoryConfig::study_set())
                .map_err(|e| store_error(path, e))?;
            eprintln!(
                "warm-start: restored {} geometries ({} duplicates, {} skipped) from {path}",
                stats.replayed, stats.duplicates, stats.skipped
            );
            Some((path, store))
        }
    };
    let payload = handler.handle(request).map_err(cli_error)?;
    if let Some((path, store)) = store {
        let appended = store.sync_from(explorer).map_err(|e| store_error(path, e))?;
        if appended > 0 {
            eprintln!("warm-start: recorded {appended} new geometries to {path}");
        }
    }
    Ok(payload)
}

/// A core error as the CLI words it: a bad die count names its flag.
fn cli_error(error: Error) -> String {
    match error {
        Error::InvalidDieCount { .. } => format!("--dies: {error}"),
        _ => error.to_string(),
    }
}

/// The design point the flags name. Parsing here is textual only;
/// every range and combination check is [`DesignPoint::to_config`]'s.
fn design_point(opts: &Options) -> Result<DesignPoint, String> {
    let baseline = DesignPoint::baseline();
    Ok(DesignPoint {
        tech: opts.get("tech").map_or(baseline.tech, String::from),
        tentpole: opts.get("tentpole").map_or(baseline.tentpole, String::from),
        dies: opts.parsed("dies")?.unwrap_or(baseline.dies),
        temperature_kelvin: opts.parsed("temp")?.unwrap_or(baseline.temperature_kelvin),
    })
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
        table.row(&[
            backend.name(),
            &priority.to_string(),
            &technologies.join(", "),
            &format!(
                "{:.0}-{:.0} K",
                caps.min_temperature().get(),
                caps.max_temperature().get()
            ),
            &dies.join("/"),
        ]);
    }
    let _ = write!(out, "{}", table.render());
    Ok(())
}

fn cmd_list(out: &mut String) -> Result<(), String> {
    let mut table = TextTable::new(&["benchmark", "suite", "reads_per_s", "writes_per_s", "band"]);
    for b in spec2017() {
        table.row(&[
            b.name,
            &b.suite.to_string(),
            &sci(b.traffic.reads_per_sec),
            &sci(b.traffic.writes_per_sec),
            &b.traffic_band().to_string(),
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
    let request = Request::Characterize {
        point: design_point(opts)?,
    };
    let ResponsePayload::Characterization {
        label,
        backend,
        characterization: a,
        ..
    } = answer(opts, &engine(opts)?, &request)?
    else {
        unreachable!("characterize answers with a characterization");
    };
    let _ = writeln!(out, "{label}:");
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
    let request = Request::Evaluate {
        point: design_point(opts)?,
        benchmark: opts.get("bench").unwrap_or("namd").to_string(),
    };
    // Infeasible design points are still printable results — only
    // invalid inputs (or a NaN-invariant violation) error out.
    let ResponsePayload::Evaluation { row: e, .. } = answer(opts, &engine(opts)?, &request)? else {
        unreachable!("evaluate answers with a row");
    };
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

/// `coldtall recommend`: the study sweep's rows for one benchmark,
/// ranked by [`coldtall::core::recommend`].
fn cmd_recommend(opts: &Options, out: &mut String) -> Result<(), String> {
    let constraints = Constraints {
        max_area_mm2: opts.parsed("max-area")?,
        ..Constraints::default()
    };
    let name = opts.get("bench").unwrap_or("namd");
    let ResponsePayload::Sweep { rows, .. } = answer(opts, &engine(opts)?, &Request::Sweep)? else {
        unreachable!("sweep answers with rows");
    };
    let rows: Vec<LlcEvaluation> = rows
        .into_iter()
        .filter(|row| row.benchmark == name)
        .collect();
    if rows.is_empty() {
        let name = name.to_string();
        return Err(Error::UnknownBenchmark { name }.to_string());
    }
    let pick = coldtall::core::recommend(&rows, &constraints)
        .ok_or("no configuration satisfies the constraints")?;
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

fn cmd_sweep(opts: &Options, out: &mut String) -> Result<(), String> {
    let handler = engine(opts)?;
    let ResponsePayload::Sweep { rows, .. } = answer(opts, &handler, &Request::Sweep)? else {
        unreachable!("sweep answers with rows");
    };
    let benchmarks = spec2017().len();
    let mut table = TextTable::new(&[
        "configuration",
        "viable",
        "min_rel_power",
        "mean_rel_power",
        "mean_rel_latency",
    ]);
    for per_bench in rows.chunks(benchmarks) {
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
        table.row(&[
            &per_bench[0].config_label,
            &format!("{viable}/{benchmarks}"),
            &sci(min_power),
            &sci(mean_power),
            &sci(mean_latency),
        ]);
    }
    let _ = write!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "\n{} rows ({} configurations x {} benchmarks), {} characterizations memoized",
        rows.len(),
        rows.len() / benchmarks,
        benchmarks,
        handler.explorer().cached_characterizations()
    );
    Ok(())
}

/// The coordinates `search --objective` picks the frontier's best
/// point by: a render choice over the frontier, never engine work.
const OBJECTIVES: [&str; 3] = ["power", "latency", "area"];

fn cmd_search(opts: &Options, out: &mut String) -> Result<(), String> {
    let objective = opts
        .get("objective")
        .map(|name| {
            OBJECTIVES.iter().position(|&o| o == name).ok_or_else(|| {
                format!("unknown objective '{name}' (expected power, latency, or area)")
            })
        })
        .transpose()?;
    let none = Constraints::none();
    let request = Request::Search {
        tech: opts.get("tech").map(String::from),
        dies: opts.parsed("dies")?,
        temps: opts.get("temps").map(String::from),
        constraints: Constraints {
            max_relative_latency: opts
                .parsed("max-latency")?
                .unwrap_or(none.max_relative_latency),
            max_area_mm2: opts.parsed("max-area")?,
            min_lifetime_years: opts
                .parsed("min-lifetime")?
                .unwrap_or(none.min_lifetime_years),
            max_relative_power: opts.parsed("max-power")?,
        },
    };
    let ResponsePayload::Search {
        region, outcome, ..
    } = answer(opts, &engine(opts)?, &request)?
    else {
        unreachable!("search answers with a frontier");
    };
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
        table.row(&[
            &row.config_label,
            row.benchmark,
            &sci(row.relative_power),
            &sci(row.relative_latency),
            &format!("{:.2}", row.footprint_mm2),
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
        let coord =
            |row: &LlcEvaluation| [row.relative_power, row.relative_latency, row.footprint_mm2][k];
        let best = outcome
            .frontier
            .iter()
            .min_by(|a, b| coord(a).total_cmp(&coord(b)))
            .expect("the frontier was checked non-empty");
        let _ = writeln!(
            out,
            "best by {}: {} on {} (rel_power {}, rel_latency {}, {:.2} mm^2)",
            OBJECTIVES[k],
            best.config_label,
            best.benchmark,
            sci(best.relative_power),
            sci(best.relative_latency),
            best.footprint_mm2
        );
    }
    Ok(())
}

/// `coldtall replicate [NAME...] [--csv | --check]`: prints the named
/// artifacts of [`ARTIFACTS`] (all when none is named) or their CSV,
/// or byte-checks them against `results/`.
fn cmd_replicate(args: &[String], out: &mut String) -> Result<(), String> {
    let (mut csv, mut check) = (false, false);
    let mut selected = Vec::new();
    for arg in args {
        let seen = match arg.as_str() {
            "--csv" => &mut csv,
            "--check" => &mut check,
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            name => {
                let artifact = ARTIFACTS
                    .into_iter()
                    .find(|&(known, _)| known == name)
                    .ok_or_else(|| format!("unknown artifact '{name}'"))?;
                if selected.iter().any(|&(known, _)| known == name) {
                    return Err(format!("duplicate artifact '{name}'"));
                }
                selected.push(artifact);
                continue;
            }
        };
        if std::mem::replace(seen, true) {
            return Err(format!("duplicate option '{arg}'"));
        }
    }
    if csv && check {
        return Err("--csv and --check cannot be combined".into());
    }
    if selected.is_empty() {
        selected = ARTIFACTS.to_vec();
    }
    let mut mismatches = Vec::new();
    for &(name, generate) in &selected {
        let table = generate();
        let bytes = if csv {
            table.to_csv()
        } else {
            render(name, &table)
        };
        if !check {
            out.push_str(&bytes);
            continue;
        }
        let path = format!("results/{name}.txt");
        match std::fs::read_to_string(&path) {
            Ok(golden) if golden == bytes => {}
            Ok(golden) => mismatches.push(format!("{path}: {}", first_divergence(&golden, &bytes))),
            Err(e) => mismatches.push(format!("{path}: unreadable: {e}")),
        }
    }
    if !mismatches.is_empty() {
        return Err(format!(
            "{} of {} artifacts do not match results/\n{}",
            mismatches.len(),
            selected.len(),
            mismatches.join("\n")
        ));
    }
    if check {
        let _ = writeln!(out, "{} artifacts match results/", selected.len());
    }
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
    if let Some(threads) = opts.positive("threads")? {
        PoolConfig {
            threads: Some(threads),
        }
        .apply();
    }
    let max_inflight = opts.positive("max-inflight")?.unwrap_or(8);
    let handler = engine(opts)?;

    if let Some(dir) = opts.get("render") {
        if let Some(path) = opts.get("registry") {
            let stats = replay_file(Path::new(path), handler.explorer())
                .map_err(|e| format!("registry replay: {e}"))?;
            eprintln!(
                "replayed {} records ({} duplicates, {} skipped) from {path}",
                stats.replayed, stats.duplicates, stats.skipped
            );
        }
        let written = render_dashboard(Path::new(dir), &handler, coldtall::obs::global())
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
