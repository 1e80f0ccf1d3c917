//! Std-only scoped worker pool for coldtall's Monte-Carlo study.
//!
//! The build environment is offline, so the workspace cannot pull in
//! `rayon`; this crate provides the small slice of it the explorer
//! needs, on `std::thread::scope` alone:
//!
//! * [`parallel_map`] — map an index range over all available cores,
//!   preserving order deterministically by writing each result into a
//!   pre-sized slot,
//! * an atomic work-stealing index, so uneven item costs (a PCM
//!   characterization is much slower than a cached SRAM lookup) never
//!   leave a core idle while work remains,
//! * automatic sequential fallback on 1-CPU machines, for a single
//!   item (two items already spawn two threads), and inside an
//!   already-parallel region (nested `parallel_map` calls run inline
//!   rather than oversubscribing),
//! * telemetry into the global `coldtall-obs` registry: a
//!   deterministic `pool.tasks` counter (items submitted, inline or
//!   not), `pool.spinups`/`pool.inline`/`pool.threads` gauges, and
//!   per-worker `pool.worker.busy`/`pool.worker.idle` time histograms.
//!
//! Determinism: `parallel_map(n, f)` returns exactly
//! `(0..n).map(f).collect()` whenever `f(i)` depends only on `i` — the
//! scheduling order varies between runs, the output order never does.
//!
//! Every region spawns its threads afresh. On a shared 2-vCPU host an
//! empty two-thread region costs about 70–260 µs, so spreading less
//! than about half a millisecond of work loses to the inline loop. A
//! caller therefore fans out once, over all of its items, or not at
//! all. The one caller is `coldtall-core`'s `monte_carlo`, which
//! characterizes every sample of a study in one region; compiled
//! sweep plans and the thermal schedule run inline. The pool itself
//! is key-agnostic: it schedules by index.
//!
//! # Examples
//!
//! ```
//! let squares = coldtall_par::parallel_map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Instant;

use coldtall_obs::{Counter, Gauge, Histogram};

/// Total item count below which [`parallel_map`] runs inline. It is
/// compared against `n`, not items per thread, so only a single item
/// stays inline: a 2-item region spawns two threads.
const MIN_ITEMS_FOR_PARALLEL: usize = 2;

/// Explicit thread-count override (0 = not set; see [`set_max_threads`]).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Parallel regions currently executing (inline or pooled). Drained by
/// [`quiesce`] on daemon shutdown.
static ACTIVE_REGIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while this thread is executing inside a pool worker; nested
    /// [`parallel_map`] calls then run sequentially instead of spawning
    /// a second tier of threads.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Handles into the global metrics registry, resolved once.
///
/// Discipline (`DESIGN.md` § Observability): `pool.tasks` is a
/// *counter* — it advances by `n` per [`parallel_map`] call whether the
/// region runs inline or on worker threads, so its value is
/// deterministic under any thread count. Everything scheduling-
/// dependent (spin-ups, inline fallbacks, thread count, busy/idle
/// time) is a gauge or histogram.
struct PoolMetrics {
    /// Work items submitted through the pool (inline or pooled).
    tasks: Arc<Counter>,
    /// Parallel regions that spawned worker threads.
    spinups: Arc<Gauge>,
    /// Regions that fell back to the inline sequential path.
    inline: Arc<Gauge>,
    /// Worker threads used by the most recent pooled region.
    threads: Arc<Gauge>,
    /// Per-worker time spent inside `f` (one sample per worker).
    busy: Arc<Histogram>,
    /// Per-worker time spent claiming/waiting (lifetime minus busy).
    idle: Arc<Histogram>,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = coldtall_obs::global();
        PoolMetrics {
            tasks: registry.counter("pool.tasks"),
            spinups: registry.gauge("pool.spinups"),
            inline: registry.gauge("pool.inline"),
            threads: registry.gauge("pool.threads"),
            busy: registry.span("pool.worker.busy"),
            idle: registry.span("pool.worker.idle"),
        }
    })
}

fn detected_parallelism() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| match std::env::var("COLDTALL_THREADS") {
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            // A malformed override must not be silently swallowed: the
            // user asked for a specific thread count and is getting
            // auto-detection instead. Warn once (OnceLock init runs at
            // most once per process) and fall back.
            _ => {
                warn_invalid_threads(&raw);
                auto_detected_parallelism()
            }
        },
        Err(std::env::VarError::NotUnicode(raw)) => {
            warn_invalid_threads(&raw.to_string_lossy());
            auto_detected_parallelism()
        }
        Err(std::env::VarError::NotPresent) => auto_detected_parallelism(),
    })
}

fn auto_detected_parallelism() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

// The workspace denies `print_stderr` in libraries, but this is the one
// place a library-level diagnostic is the correct tool: the fallback
// happens once per process, before any Registry exists, and redirected
// stdout artifacts must stay clean (stderr is the diagnostics channel).
#[allow(clippy::print_stderr)]
fn warn_invalid_threads(raw: &str) {
    eprintln!(
        "warning: ignoring invalid COLDTALL_THREADS={raw:?} (expected a positive \
         integer); auto-detecting the thread count instead"
    );
}

/// The number of worker threads a [`parallel_map`] call will use.
///
/// Resolution order: [`set_max_threads`] override, then the
/// `COLDTALL_THREADS` environment variable (read once), then
/// [`std::thread::available_parallelism`]. Always at least 1.
#[must_use]
pub fn max_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => detected_parallelism(),
        n => n,
    }
}

/// Eagerly resolves the pool's metric handles into the global
/// registry. The metric *set* a process reports must not depend on
/// whether any parallel region was large enough to fan out (`DESIGN.md`
/// § Observability), so a process that may never call [`parallel_map`]
/// — the CLI, whose commands all run inline — registers the pool's
/// metrics through this at start-up.
pub fn register_metrics() {
    let _ = metrics();
}

/// Overrides the worker-thread count process-wide (`0` restores
/// auto-detection). Tests pin a pool width through it, and
/// [`PoolConfig::apply`] installs a host's configured width.
pub fn set_max_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Whether the calling thread is already inside a pool worker (nested
/// parallel regions run inline).
#[must_use]
pub fn in_worker() -> bool {
    IN_POOL.with(Cell::get)
}

/// Explicit pool configuration, decoupled from the process
/// environment.
///
/// The environment path (`detected_parallelism` behind
/// [`max_threads`]) latches `COLDTALL_THREADS` in a `OnceLock` — the
/// right behavior for a one-shot CLI run (the warning prints exactly
/// once), but a long-running daemon must be reconfigurable across
/// logical restarts. Hosts parse their own settings into a
/// `PoolConfig` (collecting warnings as data, not stderr writes) and
/// [`PoolConfig::apply`] them through the [`set_max_threads`]
/// override, which bypasses the latch entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker-thread count; `None` restores auto-detection.
    pub threads: Option<usize>,
}

impl PoolConfig {
    /// Parses a raw thread-count string. Pure: reads nothing from the
    /// environment and prints nothing. Invalid values (zero, garbage)
    /// are ignored with a returned warning, mirroring the environment
    /// path's fallback semantics.
    #[must_use]
    pub fn parse(threads: Option<&str>) -> (Self, Vec<String>) {
        let mut warnings = Vec::new();
        let threads = match threads {
            None => None,
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                _ => {
                    warnings.push(format!(
                        "warning: ignoring invalid COLDTALL_THREADS={raw:?} (expected a \
                         positive integer); auto-detecting the thread count instead"
                    ));
                    None
                }
            },
        };
        (Self { threads }, warnings)
    }

    /// Reads `COLDTALL_THREADS` fresh from the environment (no
    /// latching) and returns the parsed config plus any warnings —
    /// unlike the [`max_threads`] default path, a second call observes
    /// a changed environment.
    #[must_use]
    pub fn from_env() -> (Self, Vec<String>) {
        let raw = std::env::var("COLDTALL_THREADS").ok();
        Self::parse(raw.as_deref())
    }

    /// Installs this config process-wide through the
    /// [`set_max_threads`] override (`None` restores auto-detection).
    pub fn apply(&self) {
        set_max_threads(self.threads.unwrap_or(0));
    }
}

/// Parallel regions currently executing, inline fallbacks included. A
/// region is active from [`parallel_map`] entry until its results are
/// collected, so a zero reading with no new callers means the pool is
/// quiet.
#[must_use]
pub fn active_regions() -> usize {
    ACTIVE_REGIONS.load(Ordering::Acquire)
}

/// Waits until no parallel region is executing, polling for at most
/// `timeout`. Returns `true` on a quiet pool, `false` on timeout.
///
/// This is the daemon's shutdown drain: after the accept loop stops
/// admitting requests, `quiesce` confirms in-flight sweeps have left
/// the pool before the process exits. It does not *prevent* new
/// regions — the caller is responsible for stopping admission first.
pub fn quiesce(timeout: std::time::Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while active_regions() > 0 {
        if Instant::now() >= deadline {
            return false;
        }
        thread::sleep(std::time::Duration::from_millis(1));
    }
    true
}

/// Panic-safe active-region accounting: decrements on drop, so a
/// panicking worker region still leaves the counter balanced.
struct RegionGuard;

impl RegionGuard {
    fn enter() -> Self {
        ACTIVE_REGIONS.fetch_add(1, Ordering::AcqRel);
        Self
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        ACTIVE_REGIONS.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Maps `f` over `0..n` across all available cores, returning results
/// in index order.
///
/// Work is distributed by an atomic stealing index (each worker claims
/// the next unclaimed item), so heterogeneous item costs balance
/// automatically; each result is written into its own pre-sized slot,
/// so the output order is deterministic regardless of scheduling.
/// Falls back to an inline sequential map when `n` is below
/// `MIN_ITEMS_FOR_PARALLEL` (that is, a single item), only one thread
/// is available, or the caller is itself a pool worker.
///
/// # Panics
///
/// Propagates the first panic raised by `f` once all workers have
/// stopped (via [`std::thread::scope`]).
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let _region = RegionGuard::enter();
    let m = metrics();
    // Counted up-front and identically on every path, so `pool.tasks`
    // stays deterministic across thread counts.
    m.tasks.add(n as u64);
    let threads = max_threads().min(n);
    if threads <= 1 || n < MIN_ITEMS_FOR_PARALLEL || in_worker() {
        m.inline.add(1);
        return (0..n).map(f).collect();
    }
    m.spinups.add(1);
    m.threads.set(threads as u64);

    let mut slots: Vec<OnceLock<T>> = Vec::new();
    slots.resize_with(n, OnceLock::new);
    let next = AtomicUsize::new(0);
    let (slots_ref, next_ref, f_ref) = (&slots, &next, &f);
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                IN_POOL.with(|flag| flag.set(true));
                let born = Instant::now();
                let mut busy = std::time::Duration::ZERO;
                loop {
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item_start = Instant::now();
                    let value = f_ref(i);
                    busy += item_start.elapsed();
                    assert!(
                        slots_ref[i].set(value).is_ok(),
                        "work item {i} claimed twice"
                    );
                }
                IN_POOL.with(|flag| flag.set(false));
                // One busy and one idle sample per worker per region:
                // utilization is busy / (busy + idle).
                let m = metrics();
                m.busy.record(duration_ns(busy));
                m.idle.record(duration_ns(born.elapsed().saturating_sub(busy)));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled by a worker"))
        .collect()
}

/// Saturating nanoseconds of a duration (a span longer than ~584 years
/// clamps rather than wraps).
#[allow(clippy::cast_possible_truncation)]
fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Maps `f` over a slice in parallel, preserving order (a shorthand for
/// [`parallel_map`] over indices).
pub fn parallel_map_slice<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send + Sync,
    F: Fn(&I) -> T + Sync,
{
    parallel_map(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-wide thread override,
    /// so the default multi-threaded test runner cannot interleave
    /// their set/assert/restore sequences.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn matches_sequential_map() {
        let par = parallel_map(1000, |i| i * 3 + 1);
        let seq: Vec<_> = (0..1000).map(|i| i * 3 + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn slice_variant_preserves_order() {
        let words = ["cold", "or", "tall"];
        let lens = parallel_map_slice(&words, |w| w.len());
        assert_eq!(lens, vec![4, 2, 4]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let seen = Mutex::new(HashSet::new());
        let n = 500;
        let _ = parallel_map(n, |i| {
            assert!(seen.lock().unwrap().insert(i), "item {i} ran twice");
            i
        });
        assert_eq!(seen.lock().unwrap().len(), n);
    }

    #[test]
    fn nested_calls_run_inline() {
        let rows = parallel_map(4, |i| parallel_map(4, move |j| i * 10 + j));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row, &vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
        }
        assert!(!in_worker(), "flag must reset after the region ends");
    }

    #[test]
    fn tasks_counter_advances_by_n_on_any_path() {
        // Other tests in this binary also feed the global counter, so
        // assert on the (monotone) delta only.
        let tasks = coldtall_obs::global().counter("pool.tasks");
        let before = tasks.get();
        let _ = parallel_map(10, |i| i);
        // Nested/inline regions count their items too.
        let _ = parallel_map(2, |_| parallel_map(3, |j| j));
        assert!(tasks.get() >= before + 10 + 2 + 2 * 3);
    }

    #[test]
    fn pool_config_parses_and_warns() {
        let (config, warnings) = PoolConfig::parse(Some("4"));
        assert_eq!(config.threads, Some(4));
        assert!(warnings.is_empty());

        let (config, warnings) = PoolConfig::parse(None);
        assert_eq!(config, PoolConfig::default());
        assert!(warnings.is_empty());

        for bad in ["0", "-2", "many"] {
            let (config, warnings) = PoolConfig::parse(Some(bad));
            assert_eq!(config.threads, None);
            assert_eq!(warnings.len(), 1);
            assert!(warnings[0].contains("COLDTALL_THREADS"));
            assert!(warnings[0].contains(bad));
        }
    }

    #[test]
    fn pool_config_apply_reconfigures_and_restores() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        PoolConfig { threads: Some(2) }.apply();
        assert_eq!(max_threads(), 2);
        // A second apply observes the new value — no once-latch.
        PoolConfig { threads: Some(5) }.apply();
        assert_eq!(max_threads(), 5);
        PoolConfig::default().apply();
        assert!(max_threads() >= 1);
    }

    #[test]
    fn active_regions_balance_even_across_panics() {
        let _ = parallel_map(8, |i| i);
        let caught = std::panic::catch_unwind(|| {
            let _ = parallel_map(4, |i| {
                assert!(i < 2, "forced worker panic");
                i
            });
        });
        assert!(caught.is_err());
        // Every region this test opened must close — the guard
        // releases on the panic path too. Other tests' transient
        // regions may be live at any sampling instant, so poll to
        // global quiescence instead of asserting an instantaneous
        // count; a leaked guard would pin the counter above zero and
        // time this out.
        assert!(
            quiesce(std::time::Duration::from_secs(10)),
            "pool failed to quiesce: a region guard leaked"
        );
    }

    #[test]
    fn thread_override_round_trips() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Relaxed check: the override store/load path, not detection.
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }
}
