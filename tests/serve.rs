//! Integration tests of `coldtall serve`: the daemon binary end to
//! end, over TCP and stdin, with the persistent run registry.
//!
//! The acceptance contract pinned here:
//!
//! * concurrent TCP clients receive responses *bit-identical* to what
//!   the library's own [`RequestHandler`] renders for the same request
//!   (server and test share the wire renderer, and the engine is
//!   deterministic across processes and thread counts);
//! * a registry written by a 4-thread daemon replays into a 1-thread
//!   daemon whose sweep answer is byte-identical, with a warm cache
//!   (nonzero hits) to show no re-solving happened;
//! * corrupt or truncated registry lines are counted and skipped,
//!   never fatal;
//! * stdin EOF drains in-flight work and exits 0 without dropping
//!   registry records (the file ends on a complete line).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use coldtall::core::{Explorer, RequestHandler};
use coldtall::obs::json::{self, Value};
use coldtall::serve::{parse_request, render_response};

/// A running `coldtall serve` subprocess with its ready-line fields.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: Option<String>,
    replayed: u64,
    skipped: u64,
}

impl Daemon {
    fn start(args: &[&str], envs: &[(&str, &str)]) -> Self {
        let mut command = Command::new(env!("CARGO_BIN_EXE_coldtall"));
        command
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (key, value) in envs {
            command.env(key, value);
        }
        let mut child = command.spawn().expect("daemon spawns");
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut ready = String::new();
        stdout.read_line(&mut ready).expect("ready line");
        let ready = json::parse(ready.trim()).expect("ready line is JSON");
        assert_eq!(
            ready.get("event"),
            Some(&Value::String("ready".to_string())),
            "first stdout line announces readiness"
        );
        let addr = match ready.get("addr") {
            Some(Value::String(addr)) => Some(addr.clone()),
            _ => None,
        };
        let field = |name: &str| {
            ready
                .get(name)
                .and_then(Value::as_f64)
                .expect("ready-line count") as u64
        };
        Self {
            child,
            stdin,
            stdout,
            addr,
            replayed: field("replayed"),
            skipped: field("skipped"),
        }
    }

    /// Sends one request line over stdin and reads one response line.
    fn request(&mut self, line: &str) -> String {
        let stdin = self.stdin.as_mut().expect("stdin open");
        writeln!(stdin, "{line}").expect("request written");
        stdin.flush().expect("request flushed");
        let mut response = String::new();
        self.stdout.read_line(&mut response).expect("response line");
        response.trim_end().to_string()
    }

    /// Closes stdin (the graceful-shutdown trigger) and waits for a
    /// clean exit.
    fn shutdown(mut self) {
        drop(self.stdin.take());
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "drain must exit 0, got {status:?}");
    }
}

fn temp_registry(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("coldtall-serve-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// What the library itself renders for a request line — the expected
/// bytes for the daemon's response to the same line.
fn expected_response(handler: &RequestHandler, line: &str) -> String {
    let parsed = parse_request(line).expect("test request parses");
    assert!(parsed.deadline_ms.is_none(), "keep expected-path simple");
    let outcome = handler.handle(&parsed.request);
    render_response(parsed.request.kind(), parsed.id.as_deref(), &outcome)
}

#[test]
fn concurrent_tcp_clients_get_bit_identical_responses() {
    let requests: Vec<String> = [
        r#"{"cmd":"characterize","id":"a"}"#,
        r#"{"cmd":"characterize","tech":"edram","temp":77,"id":"b"}"#,
        r#"{"cmd":"characterize","tech":"pcm","dies":4,"id":"c"}"#,
        r#"{"cmd":"characterize","tech":"pcm","tentpole":"pess","dies":8,"id":"d"}"#,
        r#"{"cmd":"characterize","tech":"stt","dies":2,"id":"e"}"#,
        // The cryo-NVM region (ISSUE 9): Δ(T) STT-MRAM at 77 K.
        r#"{"cmd":"characterize","tech":"stt-ram","temp":77,"dies":4,"id":"e2"}"#,
        r#"{"cmd":"characterize","tech":"rram","dies":8,"id":"f"}"#,
        r#"{"cmd":"evaluate","tech":"edram","temp":77,"bench":"mcf","id":"g"}"#,
        r#"{"cmd":"evaluate","tech":"pcm","dies":8,"bench":"namd","id":"h"}"#,
        // A typed error must also round-trip identically.
        r#"{"cmd":"evaluate","bench":"doom","id":"i"}"#,
    ]
    .iter()
    .map(ToString::to_string)
    .collect();

    // The library's own answers, rendered through the shared renderer.
    let metrics = coldtall::obs::Registry::new();
    let handler = RequestHandler::new(
        Explorer::with_registry(
            coldtall::tech::ProcessNode::ptm_22nm_hp(),
            coldtall::array::Objective::EnergyDelayProduct,
            &metrics,
        ),
        &metrics,
        None,
    );
    let expected: Vec<String> = requests
        .iter()
        .map(|line| expected_response(&handler, line))
        .collect();

    let daemon = Daemon::start(&["--listen", "127.0.0.1:0"], &[]);
    let addr = daemon.addr.clone().expect("daemon listens");

    // One client thread per request, all in flight together.
    let results: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|line| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(&addr).expect("client connects");
                    writeln!(stream, "{line}").expect("request sent");
                    stream.flush().expect("request flushed");
                    let mut reader = BufReader::new(stream);
                    let mut response = String::new();
                    reader.read_line(&mut response).expect("response read");
                    response.trim_end().to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    assert!(requests.len() >= 8, "the contract covers >= 8 concurrent clients");
    for ((line, got), want) in requests.iter().zip(&results).zip(&expected) {
        assert_eq!(got, want, "served bytes differ from library bytes for {line}");
    }
    daemon.shutdown();
}

#[test]
fn stdin_requests_drain_and_persist_the_registry() {
    let registry = temp_registry("drain");
    let mut daemon = Daemon::start(
        &["--registry", registry.to_str().unwrap()],
        &[("COLDTALL_THREADS", "2")],
    );
    assert_eq!(daemon.replayed, 0, "fresh registry has nothing to replay");

    let response = daemon.request(r#"{"cmd":"characterize","tech":"pcm","dies":4,"id":1}"#);
    let parsed = json::parse(&response).expect("response is JSON");
    assert_eq!(parsed.get("ok"), Some(&Value::Bool(true)), "{response}");

    // A cryogenic STT-MRAM point characterizes end-to-end through the
    // serve path and lands in the registry like any other point.
    let response =
        daemon.request(r#"{"cmd":"characterize","tech":"stt-ram","temp":77,"dies":4,"id":2}"#);
    let parsed = json::parse(&response).expect("cryo-STT response is JSON");
    assert_eq!(parsed.get("ok"), Some(&Value::Bool(true)), "{response}");

    let status = daemon.request(r#"{"cmd":"status"}"#);
    let parsed = json::parse(&status).expect("status is JSON");
    let served = parsed
        .get("result")
        .and_then(|r| r.get("requests_served"))
        .and_then(Value::as_f64)
        .expect("requests_served");
    assert!(served >= 2.0, "both requests counted: {status}");

    daemon.shutdown();

    // EOF-drain must leave a complete, parseable registry: every line
    // valid JSON, file ending on a newline (no truncated final record).
    let contents = std::fs::read_to_string(&registry).expect("registry written");
    assert!(contents.ends_with('\n'), "no truncated final record");
    let lines: Vec<&str> = contents.lines().collect();
    assert!(lines.len() >= 2, "both characterizations were recorded");
    for line in &lines {
        let record = json::parse(line).expect("registry line is JSON");
        assert_eq!(record.get("schema").and_then(Value::as_f64), Some(2.0));
        // Schema v2: every record carries the resolved backend.
        assert_eq!(
            record.get("backend"),
            Some(&Value::String("destiny".to_string())),
            "both points route to Destiny: {line}"
        );
    }
    // The cryo-STT point's key is in there, at its 77 K bit pattern.
    assert!(
        contents.contains("STT-RAM|optimistic|d4|t4053400000000000"),
        "cryo-STT key recorded: {contents}"
    );
    let _ = std::fs::remove_file(&registry);
}

#[test]
fn registry_replay_warms_a_fresh_daemon_bit_identically() {
    let registry = temp_registry("replay");
    let sweep_request = r#"{"cmd":"sweep","id":"s"}"#;

    // Pass 1: a 4-thread daemon computes the full study sweep cold.
    let mut hot = Daemon::start(
        &["--registry", registry.to_str().unwrap()],
        &[("COLDTALL_THREADS", "4")],
    );
    let hot_sweep = hot.request(sweep_request);
    hot.shutdown();
    assert!(
        json::parse(&hot_sweep).is_ok(),
        "sweep response parses: {}",
        &hot_sweep[..hot_sweep.len().min(200)]
    );

    // Pass 2: a 1-thread daemon replays the registry...
    let mut cold = Daemon::start(
        &["--registry", registry.to_str().unwrap()],
        &[("COLDTALL_THREADS", "1")],
    );
    assert!(
        cold.replayed >= 31,
        "the study's characterizations replay at startup, got {}",
        cold.replayed
    );
    assert_eq!(cold.skipped, 0, "a clean registry skips nothing");

    // ...answers the same sweep byte-identically...
    let cold_sweep = cold.request(sweep_request);
    assert_eq!(
        hot_sweep, cold_sweep,
        "4-thread-written / 1-thread-replayed sweeps must be bit-identical"
    );

    // ...and did so from the warm cache, not by re-solving.
    let status = cold.request(r#"{"cmd":"status"}"#);
    let parsed = json::parse(&status).expect("status is JSON");
    let hits = parsed
        .get("result")
        .and_then(|r| r.get("cache_hits"))
        .and_then(Value::as_f64)
        .expect("cache_hits in status");
    assert!(hits > 0.0, "replayed cache must serve the sweep: {status}");
    cold.shutdown();

    let _ = std::fs::remove_file(&registry);
}

#[test]
fn corrupt_registry_lines_are_counted_and_skipped() {
    let registry = temp_registry("corrupt");

    // Seed one good record through a real daemon.
    let mut seeder = Daemon::start(&["--registry", registry.to_str().unwrap()], &[]);
    let response = seeder.request(r#"{"cmd":"characterize","tech":"edram","temp":77}"#);
    assert!(response.contains("\"ok\":true"), "{response}");
    seeder.shutdown();

    // Vandalize it: garbage, bytes that are not UTF-8, a wrong-schema
    // record, and a torn final line with no trailing newline (a crash
    // mid-append).
    let good = std::fs::read_to_string(&registry).expect("seeded registry");
    let first = good.lines().next().expect("one record");
    let torn = &first[..first.len() / 2];
    let vandalized = [
        format!("{good}not json\n").as_bytes(),
        b"\xff\xfe\n",
        format!(
            "{}\n{torn}",
            first.replacen("\"schema\":2", "\"schema\":99", 1)
        )
        .as_bytes(),
    ]
    .concat();
    std::fs::write(&registry, vandalized).expect("vandalized write");

    let daemon = Daemon::start(&["--registry", registry.to_str().unwrap()], &[]);
    assert!(daemon.replayed >= 1, "good records still replay");
    assert_eq!(
        daemon.skipped, 4,
        "garbage + non-UTF-8 + wrong schema + torn line are counted, not fatal"
    );
    daemon.shutdown();
    let _ = std::fs::remove_file(&registry);
}

/// 64-bit FNV-1a over `bytes`: a std-only fingerprint for pinning wire
/// bytes without committing multi-kilobyte fixtures.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fixed request lines and the `(byte length, FNV-1a)` of the response
/// each renders to. The values were taken from the renderer that
/// allocated a `String` per field; the in-place renderer must reproduce
/// them exactly.
const WIRE_PINS: &[(&str, usize, u64)] = &[
    (r#"{"cmd":"sweep"}"#, 253_297, 0x4033_2191_f8bb_65d3),
    (
        r#"{"cmd":"search","tech":"pcm","max_latency":1.1,"max_area":10.0,"id":"s\"1"}"#,
        1032,
        0x4811_92a4_dfa0_472e,
    ),
    (
        r#"{"cmd":"characterize","tech":"edram","temp":77,"id":"c77"}"#,
        760,
        0xbd89_96f6_2893_9462,
    ),
    (
        r#"{"cmd":"characterize","tech":"pcm","tentpole":"optimistic","dies":4,"temp":350,"id":9}"#,
        693,
        0x4bb6_0102_9f26_d880,
    ),
    (
        r#"{"cmd":"evaluate","tech":"sram","temp":77,"bench":"mcf","id":7}"#,
        403,
        0x6e3b_6cb1_eb96_caf8,
    ),
    (
        r#"{"cmd":"evaluate","bench":"doom","id":"e"}"#,
        73,
        0x9682_08f6_42b6_d741,
    ),
];

#[test]
fn wire_bytes_are_pinned() {
    let metrics = coldtall::obs::Registry::new();
    let handler = RequestHandler::new(
        Explorer::with_registry(
            coldtall::tech::ProcessNode::ptm_22nm_hp(),
            coldtall::array::Objective::EnergyDelayProduct,
            &metrics,
        ),
        &metrics,
        None,
    );
    let mut daemon = Daemon::start(&[], &[]);
    for &(line, len, hash) in WIRE_PINS {
        let rendered = expected_response(&handler, line);
        assert_eq!(
            (rendered.len(), fnv1a(rendered.as_bytes())),
            (len, hash),
            "wire bytes moved for {line}: {}",
            &rendered[..rendered.len().min(200)]
        );
        assert_eq!(
            daemon.request(line),
            rendered,
            "daemon bytes differ for {line}"
        );
    }
    daemon.shutdown();
}

/// The two store formats are an on-disk contract: a file written by one
/// build must replay unchanged in the next. Fixed records — a 77 K
/// eDRAM point, a 350 K SRAM point whose `retention` is `null`, and a
/// 4-die geometry — must write files of pinned byte length and FNV-1a.
/// The values were taken from the two stores' separate writers; the
/// shared record log must reproduce them exactly.
#[test]
fn store_bytes_are_pinned() {
    use coldtall::array::OrgGeometry;
    use coldtall::cell::{MemoryTechnology, Tentpole};
    use coldtall::core::{DesignPointKey, MemoryConfig};
    use coldtall::serve::{GeometryStore, RunRegistry};

    let explorer = Explorer::with_defaults();
    let registry_path = temp_registry("pinned-registry");
    let registry = RunRegistry::open(&registry_path).expect("registry opens");
    for config in [MemoryConfig::edram_77k(), MemoryConfig::sram_350k()] {
        let key = DesignPointKey::of_config(&config);
        let array = explorer.characterize(&config);
        assert!(registry
            .record(0x0123_4567_89ab_cdef, &key, "cryomem", &array)
            .expect("record appends"));
    }
    let geometry_path = temp_registry("pinned-geometry");
    let store = GeometryStore::open(&geometry_path).expect("store opens");
    let config = MemoryConfig::envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, 4);
    let geometry = OrgGeometry::solve(&config.to_base_spec(explorer.node()));
    assert!(store
        .record(&DesignPointKey::geometry_of(&config), &geometry)
        .expect("record appends"));

    for (path, len, hash) in [
        (&registry_path, 1226, 0xa479_3345_d1ba_dcb7),
        (&geometry_path, 5783, 0x0277_e4df_823b_6069),
    ] {
        let bytes = std::fs::read(path).expect("store written");
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (len, hash),
            "store bytes moved for {}",
            path.display()
        );
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn serve_rejects_malformed_requests_without_dying() {
    let mut daemon = Daemon::start(&[], &[]);
    for (bad, needle) in [
        ("not json", "\"ok\":false"),
        (r#"{"cmd":"teleport"}"#, "unknown cmd"),
        (r#"{"cmd":"characterize","dies":3}"#, "\"ok\":false"),
        (r#"{"cmd":"characterize","temp":20}"#, "60-400 K"),
        (r#"{"cmd":"evaluate","bench":"doom"}"#, "unknown benchmark"),
    ] {
        let response = daemon.request(bad);
        assert!(
            response.contains(needle),
            "request {bad:?} should answer with {needle:?}, got {response}"
        );
    }
    // The daemon is still healthy after every rejection.
    let status = daemon.request(r#"{"cmd":"status"}"#);
    assert!(status.contains("\"ok\":true"), "{status}");
    daemon.shutdown();
}

/// Reads one response line from a TCP client, newline trimmed; an
/// empty string means the daemon closed the connection.
fn read_response(reader: &mut BufReader<TcpStream>) -> String {
    let mut response = String::new();
    reader.read_line(&mut response).expect("response read");
    response.trim_end().to_string()
}

#[test]
fn hostile_lines_get_typed_errors_and_the_daemon_survives() {
    let mut daemon = Daemon::start(&["--listen", "127.0.0.1:0"], &[]);
    let addr = daemon.addr.clone().expect("daemon listens");
    // A read timeout turns a daemon that never answers into a failure
    // instead of a hung test.
    let connect = || {
        let stream = TcpStream::connect(&addr).expect("client connects");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .expect("read timeout set");
        stream
    };
    let deep = "[".repeat(100_000);

    // 100k levels of nesting: a typed error, and the connection (and
    // its thread's stack) survive to answer the next request.
    let mut stream = connect();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    writeln!(stream, "{deep}").expect("deep line sent");
    let response = read_response(&mut reader);
    assert!(
        response.starts_with("{\"ok\":false,") && response.contains("nesting deeper than 128"),
        "{response}"
    );
    writeln!(stream, r#"{{"cmd":"status"}}"#).expect("status sent");
    assert!(read_response(&mut reader).contains("\"ok\":true"));
    drop((stream, reader));

    // 2 MiB without a newline: one typed error, then the daemon closes
    // the connection.
    let mut stream = connect();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let _ = stream.write_all(&vec![b'a'; 2 << 20]);
    let response = read_response(&mut reader);
    assert!(
        response.starts_with("{\"ok\":false,") && response.contains("request line longer than"),
        "{response}"
    );
    // Closed: end of stream, or a reset if the client was still
    // sending when the daemon stopped draining. Never another line.
    let mut rest = String::new();
    assert!(
        matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
        "the connection is closed after the error, got {rest:?}"
    );
    drop((stream, reader));

    // A fresh connection, and the stdin frontend, still get answers.
    let mut stream = connect();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    writeln!(stream, r#"{{"cmd":"status","id":1}}"#).expect("status sent");
    assert!(read_response(&mut reader).contains("\"ok\":true"));
    let response = daemon.request(&deep);
    assert!(response.contains("nesting deeper than 128"), "{response}");
    assert!(daemon
        .request(r#"{"cmd":"status"}"#)
        .contains("\"ok\":true"));
    daemon.shutdown();
}

#[test]
fn dashboard_render_writes_static_pages() {
    let registry = temp_registry("dash");
    let mut seeder = Daemon::start(&["--registry", registry.to_str().unwrap()], &[]);
    let response = seeder.request(r#"{"cmd":"sweep"}"#);
    assert!(response.contains("\"ok\":true"));
    seeder.shutdown();

    let mut dir = std::env::temp_dir();
    dir.push(format!("coldtall-serve-dash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_coldtall"))
        .args([
            "serve",
            "--registry",
            registry.to_str().unwrap(),
            "--render",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("render runs");
    assert!(output.status.success(), "{:?}", output);
    for name in ["index.html", "pareto.html", "search.html", "latency.html"] {
        let page = std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("{name} written: {e}"));
        assert!(page.contains("</html>"), "{name} is complete HTML");
    }
    let pareto = std::fs::read_to_string(dir.join("pareto.html")).unwrap();
    assert!(pareto.contains("<svg"), "pareto page carries the scatter");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&registry);
}
