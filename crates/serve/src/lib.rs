//! Sweep-as-a-service: the long-running frontend over the exploration
//! library.
//!
//! The binary workflow (`coldtall sweep`, `coldtall search`) pays the
//! full characterization cost on every invocation and throws the
//! warmed caches away at exit. This crate keeps the process — and the
//! work — alive:
//!
//! * [`server`] — a daemon accepting line-delimited JSON requests over
//!   TCP and stdin, dispatching through the library's
//!   [`RequestHandler`](coldtall_core::RequestHandler) with per-request
//!   deadlines, bounded in-flight concurrency, and a drain-before-exit
//!   shutdown gate;
//! * [`proto`] — the wire protocol: request parsing and response
//!   rendering shared by the daemon and the bit-identity tests. Every
//!   number it prints goes through one private kernel that appends the
//!   shortest round-trip digits without `core::fmt`, byte for byte what
//!   `Display` prints;
//! * [`registry`] — the persistent run registry: computed
//!   characterizations, replayed at startup to warm a fresh process;
//! * [`geomstore`] — the persistent geometry warm-start store: solved
//!   candidate organizations, keyed by the model-code epoch
//!   fingerprint, so restarts (and repeated CLI invocations with
//!   `--warm-start`) answer sweeps with zero geometry solves. Both
//!   stores are line formats over one private append-only JSONL record
//!   log, which owns the exact-bit-pattern float codec, the dedup set,
//!   the incremental sync and the one line reader; a corrupt line is
//!   counted in [`ReplayStats`], never fatal;
//! * [`dashboard`] — a static HTML/SVG dashboard generated from the
//!   warmed cache and live metrics;
//! * [`pipe`] — the broken-pipe-absorbing writer that lets
//!   `coldtall sweep | head` exit 0 instead of panicking.
//!
//! Everything is `std`-only: no async runtime, no serialization crates,
//! no signal handling. Graceful shutdown is stdin EOF (or an explicit
//! [`Server::shutdown`]), because trapping `SIGTERM` would need a
//! non-`std` dependency.

pub mod dashboard;
pub mod geomstore;
mod log;
mod num;
pub mod pipe;
pub mod proto;
pub mod registry;
pub mod server;

pub use dashboard::render_dashboard;
pub use geomstore::{GeometryStore, GEOM_SCHEMA_VERSION};
pub use log::ReplayStats;
pub use pipe::PipeSafeWriter;
pub use proto::{parse_request, render_parse_error, render_response, ParsedRequest};
pub use registry::{replay_file, RunRegistry, SCHEMA_VERSION};
pub use server::{ServeOptions, Server};
