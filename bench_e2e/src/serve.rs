//! Workload `serve`: the serve request path on a seeded run registry and
//! geometry store, driven in a closed loop over two connections.
//!
//! Set-up writes both stores with an in-process seeding session (the
//! daemon's own `Server`, another seed). The run then repeats identical
//! sessions until its window closes, each on fresh copies of the seeded
//! stores, so every session does the same work and the cache grows the
//! same way in each. Sessions alternate between an in-process `Server`
//! (the guarded metrics) and a `coldtall serve` daemon over TCP (the
//! client-observed latencies). The two connections meet at a barrier
//! after every round; a round (twenty requests) is the workload's pass.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Barrier;
use std::time::Instant;

use coldtall::array::Objective;
use coldtall::core::{pareto_front, Explorer, MemoryConfig, Request, RequestHandler, SweepPlan};
use coldtall::obs::json::{self, Value};
use coldtall::obs::Registry;
use coldtall::serve::{
    parse_request, render_response, GeometryStore, RunRegistry, ServeOptions, Server,
};
use coldtall::tech::ProcessNode;

use crate::mix::{self, Kind, Line, Session};
use crate::probe::{self, ms_since};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{Obs, Tracer};
use crate::Ctx;

/// Rounds per session.
const ROUNDS: usize = 20;
/// Mixed into the seed for the seeding session, so it differs from the
/// measured sessions.
const SEEDING_SALT: u64 = 0x5eed_5eed_5eed_5eed;

/// A run registry and a geometry store.
#[derive(Debug, Clone)]
struct Stores {
    registry: PathBuf,
    geometry: PathBuf,
}

impl Stores {
    fn at(dir: &Path, tag: &str) -> Self {
        Self {
            registry: dir.join(format!("{tag}-registry.jsonl")),
            geometry: dir.join(format!("{tag}-geometry.jsonl")),
        }
    }

    fn copy_to(&self, dir: &Path, tag: &str) -> Result<Self, String> {
        let copy = Self::at(dir, tag);
        for (from, to) in [
            (&self.registry, &copy.registry),
            (&self.geometry, &copy.geometry),
        ] {
            std::fs::copy(from, to).map_err(|e| format!("{}: {e}", from.display()))?;
        }
        Ok(copy)
    }

    fn options(&self) -> ServeOptions {
        ServeOptions {
            listen: None,
            registry: Some(self.registry.clone()),
            geometry: Some(self.geometry.clone()),
            ..ServeOptions::default()
        }
    }

    fn describe(&self) -> String {
        let size = |p: &Path| {
            let text = std::fs::read_to_string(p).unwrap_or_default();
            format!("{} records / {} bytes", text.lines().count(), text.len())
        };
        format!(
            "registry {}, geometry {}",
            size(&self.registry),
            size(&self.geometry)
        )
    }
}

/// The handler the daemon builds (default node, objective, backends and
/// cache, no deadline), reporting into `metrics`.
fn handler_with(metrics: &Registry) -> RequestHandler {
    let explorer = Explorer::with_registry(
        ProcessNode::ptm_22nm_hp(),
        Objective::EnergyDelayProduct,
        metrics,
    );
    RequestHandler::new(explorer, metrics, None)
}

/// [`handler_with`] on the process-wide registry, whose deltas the traced
/// run reads.
fn handler() -> RequestHandler {
    handler_with(coldtall::obs::global())
}

/// Runs `lines` through an in-process `Server` on `stores`, in order,
/// and returns each response.
fn serve_in_process<'a>(
    stores: &Stores,
    lines: impl Iterator<Item = &'a Line>,
) -> Result<Vec<(&'a Line, String)>, String> {
    let server = Server::start(handler(), &stores.options()).map_err(|e| e.to_string())?;
    let responses = lines.map(|l| (l, server.handle_line(&l.text))).collect();
    server.shutdown();
    Ok(responses)
}

/// Which latency group a request kind falls in.
fn group(kind: Kind) -> &'static str {
    match kind {
        Kind::Characterize | Kind::Evaluate => "point",
        Kind::Search => "search",
        Kind::Sweep => "sweep",
        Kind::Status => "status",
    }
}

/// What one connection saw in one session.
#[derive(Default)]
struct ClientOut<'a> {
    /// Each line sent, with its latency (ms) and response.
    results: Vec<(&'a Line, f64, String)>,
    /// Round times, measured by connection 0 between barriers.
    rounds_ms: Vec<f64>,
    /// Requests that got no response.
    lost: Vec<String>,
}

/// Sends one request line over a TCP connection and reads its response
/// line; returns the latency (ms) and the response.
fn exchange(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    text: &str,
) -> Result<(f64, String), String> {
    let start = Instant::now();
    writer
        .write_all(format!("{text}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    let n = reader
        .read_line(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    if n == 0 {
        return Err("daemon closed the connection".into());
    }
    let ms = ms_since(start);
    response.truncate(response.trim_end().len());
    Ok((ms, response))
}

/// Drives one connection's share of `session` through `send`, which
/// returns a line's latency (ms) and response: both connections meet at
/// a barrier around every round, connection 0 times the rounds and
/// sends the final status after the last one. After a failure the
/// connection's remaining lines are counted lost.
fn client<'a>(
    conn_index: usize,
    session: &'a Session,
    barrier: &Barrier,
    mut send: impl FnMut(&str) -> Result<(f64, String), String>,
) -> ClientOut<'a> {
    let mut out = ClientOut::default();
    let mut down = None;
    let mut one = |out: &mut ClientOut<'a>, line: &'a Line| {
        let result = match &down {
            Some(e) => Err(format!("connection is down after: {e}")),
            None => send(&line.text),
        };
        match result {
            Ok((ms, response)) => out.results.push((line, ms, response)),
            Err(e) => {
                out.lost.push(format!("{}: {e}", line.text));
                down.get_or_insert(e);
            }
        }
    };
    for round in &session.rounds {
        barrier.wait();
        let start = Instant::now();
        for line in &round[conn_index] {
            one(&mut out, line);
        }
        barrier.wait();
        if conn_index == 0 {
            out.rounds_ms.push(ms_since(start));
        }
    }
    if conn_index == 0 {
        one(&mut out, &session.status);
    }
    out
}

/// Runs both connections' clients to the end of the session.
fn clients<'a, F>(session: &'a Session, send: impl Fn(usize) -> F + Sync) -> Vec<ClientOut<'a>>
where
    F: FnMut(&str) -> Result<(f64, String), String>,
{
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let (barrier, send) = (&barrier, &send);
                scope.spawn(move || client(i, session, barrier, send(i)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Merges both connections' results, counting every lost line as a
/// failed operation; returns the results and connection 0's round times.
fn merge<'a>(
    outs: Vec<ClientOut<'a>>,
    report: &mut Report,
) -> (Vec<(&'a Line, f64, String)>, Vec<f64>) {
    let mut results = Vec::new();
    let mut rounds_ms = Vec::new();
    for out in outs {
        for lost in out.lost {
            report.check(false, || lost);
        }
        results.extend(out.results);
        if !out.rounds_ms.is_empty() {
            rounds_ms = out.rounds_ms;
        }
    }
    (results, rounds_ms)
}

/// What one session measured.
struct SessionRun<'a> {
    setup_ms: f64,
    load_ms: f64,
    rss_mib: f64,
    results: Vec<(&'a Line, f64, String)>,
    rounds_ms: Vec<f64>,
    metrics: Option<Obs>,
}

/// One session against an in-process `Server` on fresh copies of the
/// seeded stores: the daemon's own request path (`Server::handle_line`:
/// parse, admission gate, dispatch, registry and geometry sync, render)
/// without the socket and the process. Set-up is `Server::start`, which
/// replays both stores.
fn run_in_process_session<'a>(
    ctx: &Ctx,
    session: &'a Session,
    seeded: &Stores,
    report: &mut Report,
) -> Result<SessionRun<'a>, String> {
    let stores = seeded.copy_to(&ctx.work, "session")?;
    // A registry of its own, as a fresh daemon process has: the final
    // status counts this session's requests only.
    let metrics = Registry::new();
    let start = Instant::now();
    let server =
        Server::start(handler_with(&metrics), &stores.options()).map_err(|e| e.to_string())?;
    let setup_ms = ms_since(start);
    let load_start = Instant::now();
    let outs = clients(session, |_| {
        |text: &str| {
            let start = Instant::now();
            let response = server.handle_line(text);
            Ok((ms_since(start), response))
        }
    });
    let load_ms = ms_since(load_start);
    server.shutdown();
    let (results, rounds_ms) = merge(outs, report);
    Ok(SessionRun {
        setup_ms,
        load_ms,
        rss_mib: 0.0,
        results,
        rounds_ms,
        metrics: None,
    })
}

/// One session against a `coldtall serve` daemon on fresh copies of the
/// seeded stores, over two TCP connections. Set-up is spawn until the
/// ready line, which includes both stores' replay.
fn run_daemon_session<'a>(
    ctx: &Ctx,
    session: &'a Session,
    seeded: &Stores,
    metrics: bool,
    report: &mut Report,
) -> Result<SessionRun<'a>, String> {
    let stores = seeded.copy_to(&ctx.work, "session")?;
    let mut command = Command::new(&ctx.coldtall);
    command
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--threads",
            &ctx.nproc.to_string(),
        ])
        .arg("--registry")
        .arg(&stores.registry)
        .arg("--warm-start")
        .arg(&stores.geometry);
    if metrics {
        command.arg("--metrics=json");
    }
    command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = command
        .spawn()
        .map_err(|e| format!("{}: {e}", ctx.coldtall.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut ready = String::new();
    let read = stdout.read_line(&mut ready);
    let setup_ms = ms_since(start);
    let addr = read
        .ok()
        .and_then(|_| json::parse(ready.trim()).ok())
        .and_then(|v| match v.get("addr") {
            Some(Value::String(addr)) => Some(addr.clone()),
            _ => None,
        });
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("daemon did not announce an address: {ready:?}"));
    };

    let load_start = Instant::now();
    let outs = clients(session, |_| {
        let mut conn = TcpStream::connect(&addr)
            .and_then(|s| {
                s.set_nodelay(true)?;
                let reader = BufReader::new(s.try_clone()?);
                Ok((s, reader))
            })
            .map_err(|e| format!("connect {addr}: {e}"));
        move |text: &str| {
            let (writer, reader) = conn.as_mut().map_err(|e| e.clone())?;
            exchange(writer, reader, text)
        }
    });
    let load_ms = ms_since(load_start);
    let rss_mib = crate::vm_hwm_mib(&child.id().to_string()).unwrap_or(0.0);

    // Closing stdin is the daemon's graceful shutdown: it drains, then
    // prints its metrics export on stderr and exits.
    drop(child.stdin.take());
    let mut rest = String::new();
    let _ = stdout.read_to_string(&mut rest);
    let mut stderr = String::new();
    if let Some(mut pipe) = child.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    report.check(status.success(), || {
        format!("daemon exited {status}: {}", stderr.trim())
    });
    let (results, rounds_ms) = merge(outs, report);
    let metrics = if metrics {
        Some(Obs::parse(&stderr)?)
    } else {
        None
    };
    Ok(SessionRun {
        setup_ms,
        load_ms,
        rss_mib,
        results,
        rounds_ms,
        metrics,
    })
}

/// Checks one session's responses: byte-equal to the in-process
/// handler's, and a final status with no cache rejection and every line
/// served.
fn check_session(
    report: &mut Report,
    session: &Session,
    expected: &HashMap<&str, String>,
    run: &SessionRun,
) {
    for (line, _, response) in &run.results {
        if line.kind == Kind::Status {
            let status = json::parse(response).ok();
            let field = |name: &str| {
                status
                    .as_ref()
                    .and_then(|v| v.get("result"))
                    .and_then(|r| r.get(name))
                    .and_then(Value::as_f64)
            };
            let served = field("requests_served");
            report.check(
                field("cache_rejected") == Some(0.0) && served == Some(session.line_count() as f64),
                || format!("status after {} lines: {response}", session.line_count()),
            );
        } else {
            report.check(expected.get(line.text.as_str()) == Some(response), || {
                format!(
                    "response to {} differs from the in-process handler's: {response:.200}",
                    line.text
                )
            });
        }
    }
}

/// The configurations the plan a request compiles covers: a point's
/// one configuration, the study set, or a search's filtered region.
pub(crate) fn request_configs(request: &Request) -> Vec<MemoryConfig> {
    match request {
        Request::Characterize { point } | Request::Evaluate { point, .. } => {
            point.to_config().map(|c| vec![c]).unwrap_or_default()
        }
        Request::Sweep => MemoryConfig::study_set(),
        Request::Search { tech, dies, .. } => {
            let tech = tech.as_deref().map(MemoryConfig::parse_technology);
            MemoryConfig::study_set()
                .into_iter()
                .filter(|c| {
                    tech.as_ref()
                        .is_none_or(|t| t.as_ref().is_ok_and(|t| *t == c.technology()))
                        && dies.is_none_or(|d| d == c.dies())
                })
                .collect()
        }
        Request::Status => Vec::new(),
    }
}

/// Runs the workload into `report`.
///
/// # Errors
///
/// A message if a store cannot be written or copied, the daemon cannot
/// be started, or the trace cannot be written.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let rounds = if ctx.smoke { 2 } else { ROUNDS };
    let seeded = Stores::at(&ctx.work, "seeded");
    let seeding = mix::session(ctx.seed ^ SEEDING_SALT, rounds);
    for (line, response) in serve_in_process(&seeded, seeding.lines_in_order())? {
        report.check(response.starts_with("{\"ok\":true"), || {
            format!("seeding request {} failed: {response:.200}", line.text)
        });
    }
    let session = mix::session(ctx.seed, rounds);
    let expected_copy = seeded.copy_to(&ctx.work, "expected")?;
    let expected: HashMap<&str, String> =
        serve_in_process(&expected_copy, session.lines_in_order())?
            .into_iter()
            .filter(|(line, _)| line.kind != Kind::Status)
            .map(|(line, response)| (line.text.as_str(), response))
            .collect();
    for (text, response) in &expected {
        report.check(response.starts_with("{\"ok\":true"), || {
            format!("in-process request {text} failed: {response:.200}")
        });
    }
    report.fact("session_rounds", rounds);
    report.fact("session_mix", session.describe());
    report.fact("stores_at_start", seeded.describe());

    // Sessions alternate between an in-process `Server` (the guarded
    // end-to-end metrics: the request path without socket and process,
    // whose timings hold steady on a shared host) and the daemon over TCP
    // (the client-observed latencies, printed).
    let mut local = Measured::default();
    let mut daemon = Measured::default();
    let mut groups: HashMap<&str, Samples> = HashMap::new();
    let mut rss = Samples::default();
    let mut sessions = 0usize;
    let start = Instant::now();
    while ctx.more(start, sessions / 2) {
        let run = if sessions.is_multiple_of(2) {
            let run = run_in_process_session(ctx, &session, &seeded, report)?;
            local.add(&run);
            run
        } else {
            let run = run_daemon_session(ctx, &session, &seeded, false, report)?;
            daemon.add(&run);
            rss.push(run.rss_mib);
            for (line, ms, _) in &run.results {
                groups.entry(group(line.kind)).or_default().push(*ms);
            }
            run
        };
        check_session(report, &session, &expected, &run);
        sessions += 1;
    }
    report.fact(
        "sessions",
        format!(
            "{} in-process, {} daemon",
            local.setup.len(),
            daemon.setup.len()
        ),
    );
    report.fact("stores_at_end", Stores::at(&ctx.work, "session").describe());

    if ctx.trace {
        return traced(ctx, report, &session, &seeded, &expected, &daemon.rounds);
    }
    let e2e = &mut report.end_to_end;
    Report::push(e2e, "setup_s", local.setup.median(), "s", local.setup.len());
    let n = local.rounds.len();
    Report::push(e2e, "pass_ms.p50", local.rounds.median(), "ms", n);
    Report::push(e2e, "pass_ms.p95", local.rounds.percentile(950), "ms", n);
    Report::push(e2e, "throughput_ops", local.throughput(), "1/s", n);
    let detail = &mut report.detail;
    Report::push(
        detail,
        "daemon_setup_s",
        daemon.setup.median(),
        "s",
        daemon.setup.len(),
    );
    let n = daemon.rounds.len();
    Report::push(
        detail,
        "daemon_pass_ms.p50",
        daemon.rounds.median(),
        "ms",
        n,
    );
    Report::push(
        detail,
        "daemon_pass_ms.p95",
        daemon.rounds.percentile(950),
        "ms",
        n,
    );
    Report::push(detail, "throughput_rps", daemon.throughput(), "req/s", n);
    Report::push(detail, "rss_mb", rss.median(), "MiB", rss.len());
    let empty = Samples::default();
    report.latency("point_ms", groups.get("point").unwrap_or(&empty), 990);
    report.latency("search_ms", groups.get("search").unwrap_or(&empty), 950);
    report.latency("sweep_ms", groups.get("sweep").unwrap_or(&empty), 950);
    Ok(())
}

/// Set-up times, round times and request throughput of one kind of
/// session.
#[derive(Default)]
struct Measured {
    /// Set-up per session (s).
    setup: Samples,
    /// Round times (ms).
    rounds: Samples,
    requests: usize,
    load_ms: f64,
}

impl Measured {
    fn add(&mut self, run: &SessionRun) {
        self.setup.push(run.setup_ms / 1e3);
        self.rounds.extend(run.rounds_ms.iter().copied());
        self.requests += run.results.len();
        self.load_ms += run.load_ms;
    }

    /// Requests completed per second of session load time.
    fn throughput(&self) -> f64 {
        self.requests as f64 / (self.load_ms / 1e3)
    }
}

/// The traced half: daemon sessions with `--metrics=json`, each
/// followed by an in-process copy replaying the same lines through the
/// calls `Shared::handle_line` makes (each call in its own span) and by
/// one store probe, so all three sample the host over the same window.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    session: &Session,
    seeded: &Stores,
    expected: &HashMap<&str, String>,
    untraced_rounds: &Samples,
) -> Result<(), String> {
    // A first replay warms the harness (allocator, page cache); its
    // numbers are dropped.
    InProcess::default().replay(ctx, session, seeded, expected, 0, report)?;
    let mut copy = InProcess::default();
    let probe_copy = seeded.copy_to(&ctx.work, "probe")?;
    let mut stores = probe::StoreProbe::default();
    let mut rounds_ms = Samples::default();
    let mut obs = Obs::default();
    let mut client: HashMap<&str, Samples> = HashMap::new();
    let (mut requests, mut sessions) = (0usize, 0usize);
    let start = Instant::now();
    while ctx.more(start, sessions) {
        let run = run_daemon_session(ctx, session, seeded, true, report)?;
        check_session(report, session, expected, &run);
        rounds_ms.extend(run.rounds_ms.iter().copied());
        if let Some(m) = &run.metrics {
            obs.add(m);
        }
        for (line, ms, _) in &run.results {
            client.entry(line.text.as_str()).or_default().push(*ms);
        }
        requests += run.results.len();
        let op_base = (sessions * session.line_count()) as u64;
        copy.replay(ctx, session, seeded, expected, op_base, report)?;
        stores.round(&probe_copy.geometry, Some(&probe_copy.registry))?;
        sessions += 1;
    }

    let layers = &mut report.layers;
    probe::common(ctx, &obs, requests as f64, layers)?;
    stores.report(layers);
    let tracer = &copy.tracer;
    // Per call: its span name in the trace and its metric name.
    let mut calls = vec![
        (
            "geomstore.sync".to_string(),
            "geomstore.sync_us".to_string(),
        ),
        ("proto.parse".to_string(), "proto.parse_us".to_string()),
    ];
    for g in ["point", "search", "sweep"] {
        calls.push((format!("proto.render.{g}"), format!("proto.render_us.{g}")));
        calls.push((format!("handler.{g}"), format!("handler.us.{g}")));
    }
    for (span, metric) in &calls {
        let us = tracer.durations_us(span);
        Report::push(layers, metric, us.mean(), "us", us.len());
    }
    let sync_us: Vec<f64> = copy.sync_us.iter().map(Samples::median).collect();
    let sync: Samples = sync_us.iter().copied().collect();
    Report::push(layers, "registry.sync_us", sync.mean(), "us", sync.len());
    let entries: Samples = copy.sync_entries.iter().copied().collect();
    Report::push(layers, "registry.sync_entries", entries.mean(), "count", 0);
    let kb = &copy.sweep_kb;
    Report::push(
        layers,
        "proto.response_kb.sweep",
        kb.mean(),
        "KiB",
        kb.len(),
    );
    // Per line: the daemon's client-observed median minus the in-process
    // copy's median handling time.
    let transport_ms: Samples = copy
        .request_ms
        .iter()
        .filter_map(|(text, inproc)| Some(client.get(text.as_str())?.median() - inproc.median()))
        .collect();
    let transport_us = transport_ms.median() * 1e3;
    Report::push(
        layers,
        "server.transport_us",
        transport_us,
        "us",
        transport_ms.len(),
    );
    let compile = &copy.compile_us;
    Report::push(
        layers,
        "plan.compile_us",
        compile.mean(),
        "us",
        compile.len(),
    );
    Report::push(layers, "plan.jobs", copy.jobs.mean(), "count", 0);
    let search = &copy.search_ms;
    Report::push(layers, "search.ms", search.mean(), "ms", search.len());
    let frontier = &copy.frontier_us;
    Report::push(layers, "frontier.us", frontier.mean(), "us", frontier.len());
    // Every layer span sits inside the in-process request time, so what
    // the client sees beyond it is the unattributed share.
    let unattributed = transport_ms.mean();
    Report::push(
        layers,
        "unattributed_ms",
        unattributed,
        "ms",
        transport_ms.len(),
    );
    let overhead = probe::overhead_pct(untraced_rounds, &rounds_ms);
    Report::push(layers, "trace.overhead_pct", overhead, "%", rounds_ms.len());

    // The two costs this workload exposes.
    let quarter = sync_us.len() / 4;
    if quarter > 0 {
        let head = |v: &[f64]| v[..quarter].iter().sum::<f64>() / quarter as f64;
        let tail = |v: &[f64]| v[v.len() - quarter..].iter().sum::<f64>() / quarter as f64;
        report.findings.push(format!(
            "registry.sync_us grows with registry.sync_entries: {:.1} us at {:.0} entries (first quarter of requests), \
             {:.1} us at {:.0} entries (last quarter)",
            head(&sync_us),
            head(&copy.sync_entries),
            tail(&sync_us),
            tail(&copy.sync_entries)
        ));
    }
    let sweep_client: Samples = session
        .lines_in_order()
        .filter(|l| l.kind == Kind::Sweep)
        .filter_map(|l| client.get(l.text.as_str()))
        .flat_map(|s| s.values().iter().copied())
        .collect();
    if !sweep_client.is_empty() {
        report.findings.push(format!(
            "proto.render_us.sweep = {:.0} us of a {:.3} ms sweep request (client median, traced); handler {:.0} us",
            tracer.durations_us("proto.render.sweep").mean(),
            sweep_client.median(),
            tracer.durations_us("handler.sweep").mean()
        ));
    }
    report.fact("traced_sessions", sessions);
    tracer
        .write(&ctx.trace_file)
        .map_err(|e| format!("{}: {e}", ctx.trace_file.display()))?;
    report.fact("trace_file", ctx.trace_file.display());
    Ok(())
}

/// The in-process copy of a session, accumulated over replays: the
/// lines replayed through the calls `Shared::handle_line` makes, in its
/// order, each call in a span under the line's `request` span, on fresh
/// copies of the seeded stores.
#[derive(Default)]
struct InProcess {
    /// Every replay's spans.
    tracer: Tracer,
    /// Per synced request (in order), its registry sync durations (us).
    sync_us: Vec<Samples>,
    /// Per synced request, the cache entries the sync walked.
    sync_entries: Vec<f64>,
    compile_us: Samples,
    jobs: Samples,
    search_ms: Samples,
    frontier_us: Samples,
    sweep_kb: Samples,
    /// Per non-status line, its in-process handling times (ms).
    request_ms: HashMap<String, Samples>,
}

impl InProcess {
    /// Replays `session` once, checking every response against
    /// `expected`. Span op ids start at `op_base`.
    fn replay(
        &mut self,
        ctx: &Ctx,
        session: &Session,
        seeded: &Stores,
        expected: &HashMap<&str, String>,
        op_base: u64,
        report: &mut Report,
    ) -> Result<(), String> {
        let copy = seeded.copy_to(&ctx.work, "inproc")?;
        let handler = handler();
        let explorer = handler.explorer();
        let registry = RunRegistry::open(&copy.registry).map_err(|e| e.to_string())?;
        registry.replay_into(explorer).map_err(|e| e.to_string())?;
        let geometry = GeometryStore::open(&copy.geometry).map_err(|e| e.to_string())?;
        geometry
            .warm_into(explorer, &MemoryConfig::study_set())
            .map_err(|e| e.to_string())?;
        let plan_hash = SweepPlan::study()
            .compile(explorer.backends())
            .map_err(|e| e.to_string())?
            .stable_hash();
        let tracer = &mut self.tracer;
        let mut synced = 0;
        for (i, line) in session.lines_in_order().enumerate() {
            let op = op_base + i as u64;
            let g = group(line.kind);
            let before = Obs::global();
            let root = tracer.open("request", None, op);
            let parsed = tracer.time("proto.parse", Some(root), op, || parse_request(&line.text));
            let Ok(parsed) = parsed else {
                tracer.close(root);
                report.check(false, || format!("{} does not parse", line.text));
                continue;
            };
            let span = tracer.open(&format!("handler.{g}"), Some(root), op);
            let outcome = handler.handle(&parsed.request);
            let handler_us = tracer.close(span) as f64 / 1e3;
            if outcome.is_ok() {
                if self.sync_us.len() == synced {
                    self.sync_us.push(Samples::default());
                    self.sync_entries
                        .push(explorer.cached_characterizations() as f64);
                }
                let span = tracer.open("registry.sync", Some(root), op);
                let appended = registry.sync_from(explorer, plan_hash);
                self.sync_us[synced].push(tracer.close(span) as f64 / 1e3);
                appended.map_err(|e| e.to_string())?;
                synced += 1;
                tracer
                    .time("geomstore.sync", Some(root), op, || {
                        geometry.sync_from(explorer)
                    })
                    .map_err(|e| e.to_string())?;
            }
            let response = tracer.time(&format!("proto.render.{g}"), Some(root), op, || {
                render_response(parsed.request.kind(), parsed.id.as_deref(), &outcome)
            });
            let total_ms = tracer.close(root) as f64 / 1e6;
            let d = Obs::global().since(&before);
            if g == "sweep" {
                self.sweep_kb.push(response.len() as f64 / 1024.0);
            }
            if line.kind != Kind::Status {
                report.check(expected.get(line.text.as_str()) == Some(&response), || {
                    format!("in-process copy answered {} differently", line.text)
                });
                self.request_ms
                    .entry(line.text.clone())
                    .or_default()
                    .push(total_ms);
            }
            // Probes outside the request span: the plan the request
            // compiles, and for a search its frontier over the region's
            // rows.
            let configs = request_configs(&parsed.request);
            if configs.is_empty() {
                continue;
            }
            let t = Instant::now();
            let plan = SweepPlan::new(configs.clone()).compile(explorer.backends());
            let compile_us = ms_since(t) * 1e3;
            self.compile_us.push(compile_us);
            self.jobs.push(plan.map_or(0, |p| p.jobs().len()) as f64);
            if g == "search" {
                self.search_ms.push(
                    (handler_us - compile_us) / 1e3
                        - d.span_ms("characterize")
                        - d.span_ms("evaluate"),
                );
                let rows = explorer
                    .try_sweep_configs(&configs)
                    .map_err(|e| e.to_string())?;
                let t = Instant::now();
                std::hint::black_box(pareto_front(std::hint::black_box(&rows)));
                self.frontier_us.push(ms_since(t) * 1e3);
            }
        }
        Ok(())
    }
}
