//! The daemon: TCP + stdin frontends over one shared
//! [`RequestHandler`], with a drain-before-exit shutdown gate and
//! registry persistence after every completed request.
//!
//! Concurrency model (std only, no async runtime):
//!
//! - one *accept thread* polls a non-blocking [`TcpListener`] every few
//!   milliseconds, checking the shutdown flag between polls;
//! - one *connection thread* per client reads line-delimited requests
//!   with a short read timeout so it also observes shutdown promptly;
//! - the caller's thread (usually `main`) feeds stdin lines through the
//!   same [`Server::handle_line`] path, so a piped request and a TCP
//!   request take identical code.
//!
//! The shutdown gate is a `Mutex<GateState>` + condvar (a struct, not a
//! bare integer — the workspace denies `clippy::mutex_integer`). Every
//! request passes through it: admission refuses new work once draining
//! and bounds in-flight requests at `max_inflight`; shutdown flips the
//! flag, waits for the active count to reach zero, and only then
//! returns — so stdin EOF never strands a half-finished job or an
//! unsynced registry record.
//!
//! `std` cannot trap `SIGTERM` without external crates, so the
//! *graceful* shutdown trigger is stdin EOF (or an explicit
//! [`Server::shutdown`] call); orchestrators should close the daemon's
//! stdin rather than signal it.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use coldtall_core::{MemoryConfig, RequestHandler, SweepPlan};

use crate::geomstore::GeometryStore;
use crate::log::ReplayStats;
use crate::proto;
use crate::registry::RunRegistry;

/// The longest request line, newline included, a TCP client may send.
/// Real requests are well under a kilobyte; the cap bounds the memory a
/// client that never sends a newline can pin, and the parser's work on
/// one line. An over-long line is answered with one `ok:false` error,
/// then the connection closes.
pub const MAX_REQUEST_BYTES: usize = 128 * 1024;

/// How the daemon should be stood up.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP listen address (`127.0.0.1:0` for an ephemeral port), or
    /// `None` for a stdin-only daemon.
    pub listen: Option<String>,
    /// Run-registry file to replay at startup and append to, if any.
    pub registry: Option<PathBuf>,
    /// Geometry warm-start file to replay at startup and append solved
    /// geometries to, if any — startup skips every geometry solve the
    /// file covers (under the current model-code epoch).
    pub geometry: Option<PathBuf>,
    /// Maximum requests dispatching concurrently; further requests
    /// queue at the admission gate.
    pub max_inflight: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            listen: None,
            registry: None,
            geometry: None,
            max_inflight: 8,
        }
    }
}

/// The shutdown/admission gate's state, kept whole under one mutex.
#[derive(Debug, Default)]
struct GateState {
    /// Set once; no new request is admitted after.
    shutting_down: bool,
    /// Requests currently past admission and not yet finished.
    active: usize,
}

/// State shared by every frontend thread.
struct Shared {
    handler: RequestHandler,
    registry: Option<RunRegistry>,
    /// Geometry warm-start store, replayed at startup and kept in sync
    /// with the explorer's geometry cache after each request.
    geometry: Option<GeometryStore>,
    /// The study plan epoch registry records are keyed under.
    plan_hash: u64,
    max_inflight: usize,
    gate: Mutex<GateState>,
    gate_cv: Condvar,
}

impl Shared {
    fn draining(&self) -> bool {
        self.gate.lock().expect("gate lock poisoned").shutting_down
    }

    /// Admits one request: blocks while `max_inflight` are active,
    /// refuses (`false`) once draining.
    fn begin_request(&self) -> bool {
        let mut gate = self.gate.lock().expect("gate lock poisoned");
        loop {
            if gate.shutting_down {
                return false;
            }
            if gate.active < self.max_inflight {
                gate.active += 1;
                return true;
            }
            gate = self.gate_cv.wait(gate).expect("gate lock poisoned");
        }
    }

    fn end_request(&self) {
        let mut gate = self.gate.lock().expect("gate lock poisoned");
        gate.active = gate.active.saturating_sub(1);
        drop(gate);
        self.gate_cv.notify_all();
    }

    /// Handles one request line end to end: parse, admit, dispatch,
    /// persist, render. Always produces exactly one response line (no
    /// trailing newline).
    fn handle_line(&self, line: &str) -> String {
        let parsed = match proto::parse_request(line) {
            Ok(parsed) => parsed,
            Err(message) => return proto::render_parse_error(&message),
        };
        if !self.begin_request() {
            return proto::render_parse_error("server is shutting down");
        }
        // Panic-safe release of the admission slot.
        struct Slot<'a>(&'a Shared);
        impl Drop for Slot<'_> {
            fn drop(&mut self) {
                self.0.end_request();
            }
        }
        let _slot = Slot(self);
        let outcome = match parsed.deadline_ms {
            Some(ms) => self
                .handler
                .handle_with_deadline(&parsed.request, Some(Duration::from_millis(ms))),
            None => self.handler.handle(&parsed.request),
        };
        if outcome.is_ok() {
            if let Some(registry) = &self.registry {
                // A failed append must not fail the request: the answer
                // is already computed; persistence is best-effort and
                // will be retried by the next request's sync.
                let _ = registry.sync_from(self.handler.explorer(), self.plan_hash);
            }
            if let Some(geometry) = &self.geometry {
                // Same best-effort contract: newly solved geometries
                // land on disk so the next restart skips the solves.
                let _ = geometry.sync_from(self.handler.explorer());
            }
        }
        proto::render_response(parsed.request.kind(), parsed.id.as_deref(), &outcome)
    }
}

/// A running daemon. Dropping it without [`Server::shutdown`] leaves
/// background threads to exit on their own polls once the process ends;
/// call `shutdown` for a clean drain.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: Option<SocketAddr>,
    replay: ReplayStats,
    warm: ReplayStats,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("replay", &self.replay)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Stands the daemon up: replays the registry (if any) into the
    /// handler's cache, binds and starts accepting on the listen
    /// address (if any), and returns ready to serve.
    ///
    /// # Errors
    ///
    /// Propagates registry-open, replay-read, and bind failures. A
    /// handler whose study plan cannot compile also errors (it could
    /// never serve a sweep).
    pub fn start(handler: RequestHandler, options: &ServeOptions) -> io::Result<Self> {
        let plan_hash = SweepPlan::study()
            .compile(handler.explorer().backends())
            .map_err(|e| io::Error::new(ErrorKind::InvalidInput, e.to_string()))?
            .stable_hash();
        let (registry, replay) = match &options.registry {
            Some(path) => {
                let registry = RunRegistry::open(path)?;
                let replay = registry.replay_into(handler.explorer())?;
                (Some(registry), replay)
            }
            None => (None, ReplayStats::default()),
        };
        // Geometry warm-start covers the study grid: the geometry keys
        // every sweep/search request over the study space resolves to.
        let (geometry, warm) = match &options.geometry {
            Some(path) => {
                let store = GeometryStore::open(path)?;
                let warm = store.warm_into(handler.explorer(), &MemoryConfig::study_set())?;
                (Some(store), warm)
            }
            None => (None, ReplayStats::default()),
        };
        let shared = Arc::new(Shared {
            handler,
            registry,
            geometry,
            plan_hash,
            max_inflight: options.max_inflight.max(1),
            gate: Mutex::new(GateState::default()),
            gate_cv: Condvar::new(),
        });
        let connections = Arc::new(Mutex::new(Vec::new()));
        let (local_addr, accept_thread) = match &options.listen {
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                let local_addr = listener.local_addr()?;
                listener.set_nonblocking(true)?;
                let thread = spawn_accept_loop(listener, &shared, &connections);
                (Some(local_addr), Some(thread))
            }
            None => (None, None),
        };
        Ok(Self {
            shared,
            local_addr,
            replay,
            warm,
            accept_thread: Mutex::new(accept_thread),
            connections,
        })
    }

    /// The bound TCP address, if listening.
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The shared request handler (for status snapshots in tests).
    #[must_use]
    pub fn handler(&self) -> &RequestHandler {
        &self.shared.handler
    }

    /// The one-line startup announcement. Emitted on stdout by the CLI
    /// so orchestrators (and the integration tests) can discover the
    /// ephemeral port without racing the log.
    #[must_use]
    pub fn ready_line(&self) -> String {
        let addr = self.local_addr.map_or_else(
            || "null".to_string(),
            |a| format!("\"{}\"", proto::escape(&a.to_string())),
        );
        format!(
            "{{\"event\":\"ready\",\"addr\":{addr},\"replayed\":{},\"duplicates\":{},\
             \"skipped\":{},\"geometries_restored\":{}}}",
            self.replay.replayed, self.replay.duplicates, self.replay.skipped, self.warm.replayed
        )
    }

    /// Handles one request line through the same gate and persistence
    /// path a TCP connection uses. Returns the response line (no
    /// trailing newline).
    #[must_use]
    pub fn handle_line(&self, line: &str) -> String {
        self.shared.handle_line(line)
    }

    /// Serves line-delimited requests from `input` until EOF, writing
    /// one response line per request to `output`, then drains and shuts
    /// down. This is the stdin frontend — EOF is the graceful-shutdown
    /// trigger, since std cannot trap `SIGTERM`.
    ///
    /// # Errors
    ///
    /// Propagates read errors from `input` and write errors from
    /// `output` (wrap `output` in
    /// [`PipeSafeWriter`](crate::PipeSafeWriter) to absorb a consumer
    /// hangup). The drain still runs on early return.
    pub fn serve_lines<R: BufRead, W: Write>(&self, input: R, output: &mut W) -> io::Result<()> {
        let result = (|| {
            for line in input.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                writeln!(output, "{}", self.shared.handle_line(&line))?;
                output.flush()?;
            }
            Ok(())
        })();
        self.shutdown();
        result
    }

    /// Drains and stops the daemon: refuses new requests, waits for
    /// every in-flight request to finish, joins the accept and
    /// connection threads, and quiesces the worker pool. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut gate = self.shared.gate.lock().expect("gate lock poisoned");
            gate.shutting_down = true;
            // Wait for every admitted request to finish. Queued
            // requests waiting at the gate see the flag and bail.
            while gate.active > 0 {
                gate = self
                    .shared
                    .gate_cv
                    .wait(gate)
                    .expect("gate lock poisoned");
            }
        }
        self.shared.gate_cv.notify_all();
        // The accept loop polls the flag every few ms, so this join is
        // bounded; taking the handle keeps shutdown idempotent.
        let accept = self
            .accept_thread
            .lock()
            .expect("accept thread lock poisoned")
            .take();
        if let Some(thread) = accept {
            let _ = thread.join();
        }
        let handles = std::mem::take(
            &mut *self
                .connections
                .lock()
                .expect("connection list lock poisoned"),
        );
        for handle in handles {
            let _ = handle.join();
        }
        // Parallel regions spawned by admitted requests have finished
        // (active == 0), but assert global quiescence for good measure.
        let _ = coldtall_par::quiesce(Duration::from_secs(30));
    }
}

/// Spawns the accept loop: polls the non-blocking listener, spawning a
/// connection thread per client, until the shutdown flag is set.
fn spawn_accept_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let connections = Arc::clone(connections);
    thread::spawn(move || loop {
        if shared.draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                let handle = thread::spawn(move || serve_connection(&shared, stream));
                connections
                    .lock()
                    .expect("connection list lock poisoned")
                    .push(handle);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    })
}

/// Serves one TCP client: line-delimited requests in, one response line
/// per request out, until the client hangs up, sends a line longer than
/// [`MAX_REQUEST_BYTES`], or the daemon drains.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_nodelay(true);
    let _ = reader_half.set_read_timeout(Some(Duration::from_millis(50)));
    let mut writer = stream;
    let mut reader = BufReader::new(reader_half);
    let mut line = String::new();
    loop {
        // At most one byte past the cap: a line that reaches it is
        // over-long whether or not its newline has arrived.
        let budget = (MAX_REQUEST_BYTES + 1).saturating_sub(line.len()) as u64;
        match (&mut reader).take(budget).read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.len() > MAX_REQUEST_BYTES => {
                let mut response = proto::render_parse_error(&format!(
                    "request line longer than {MAX_REQUEST_BYTES} bytes"
                ));
                response.push('\n');
                let _ = writer.write_all(response.as_bytes());
                // Half-close, then discard what the client is still
                // sending (until it pauses or a bounded amount), so
                // closing with unread input does not reset the
                // connection before the client reads its error.
                let _ = writer.shutdown(Shutdown::Write);
                let _ = io::copy(
                    &mut (&mut reader).take(32 * MAX_REQUEST_BYTES as u64),
                    &mut io::sink(),
                );
                break;
            }
            Ok(_) => {
                let trimmed = line.trim_end_matches(['\r', '\n']);
                if !trimmed.is_empty() {
                    // The newline rides in the same write: with
                    // TCP_NODELAY a separate one costs a second syscall
                    // and usually a second segment the client waits for.
                    let mut response = shared.handle_line(trimmed);
                    response.push('\n');
                    if writer.write_all(response.as_bytes()).is_err() || writer.flush().is_err() {
                        break;
                    }
                }
                line.clear();
            }
            // A timeout just means "check the flag and keep waiting";
            // any partial line read so far stays buffered in `line`.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.draining() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}
