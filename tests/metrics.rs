//! Metric-invariant tests of the observability layer.
//!
//! Each test observes a *private* `Registry`, so assertions cannot be
//! perturbed by other tests of this binary (or the fan-out's telemetry,
//! which feeds the process-global registry) running concurrently.
//! The invariants under test are the ones `DESIGN.md` § Observability
//! promises:
//!
//! * every characterization call is counted as exactly one cache hit
//!   or one cache miss,
//! * counter values are identical between 1-thread and 4-thread runs
//!   of the same sweep (the determinism contract extends from rows to
//!   telemetry),
//! * histogram quantile estimates are monotone,
//! * `Registry::reset` returns every metric to zero without breaking
//!   live handles.

mod support;

use coldtall::array::Objective;
use coldtall::core::{Explorer, LlcEvaluation, MemoryConfig};
use coldtall::obs::Registry;
use coldtall::tech::ProcessNode;

fn observed_explorer(registry: &Registry) -> Explorer {
    Explorer::with_registry(
        ProcessNode::ptm_22nm_hp(),
        Objective::EnergyDelayProduct,
        registry,
    )
}

fn small_config_set() -> Vec<MemoryConfig> {
    vec![
        MemoryConfig::sram_350k(),
        MemoryConfig::sram_77k(),
        MemoryConfig::edram_350k(),
        MemoryConfig::edram_77k(),
    ]
}

/// The sweep every test here observes: `configs` under the full suite.
fn sweep(explorer: &Explorer, configs: &[MemoryConfig]) -> Vec<LlcEvaluation> {
    explorer
        .try_sweep_configs(configs)
        .expect("configs resolve")
}

/// [`sweep`] on a fresh explorer observed by `registry`, with the
/// thread count pinned to `threads`.
fn sweep_on_threads(
    registry: &Registry,
    threads: usize,
    configs: &[MemoryConfig],
) -> Vec<LlcEvaluation> {
    let _pinned = support::pin_threads(threads);
    sweep(&observed_explorer(registry), configs)
}

#[test]
fn hits_plus_misses_equals_characterization_calls() {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let configs = small_config_set();
    let _ = sweep(&explorer, &configs);
    // A second sweep re-probes everything as hits; the identity must
    // keep holding.
    let _ = sweep(&explorer, &configs);

    let hits = registry
        .counter_value("cache.hits")
        .expect("hits registered");
    let misses = registry
        .counter_value("cache.misses")
        .expect("misses registered");
    let calls = registry
        .counter_value("explorer.characterize.calls")
        .expect("calls registered");
    assert_eq!(hits + misses, calls, "every probe is one hit or one miss");
    // Each of the 4 distinct configurations missed exactly once, ever.
    assert_eq!(misses, 4);
    assert_eq!(registry.counter_value("cache.inserts"), Some(4));
}

#[test]
fn counters_identical_between_sequential_and_parallel_sweeps() {
    let configs = small_config_set();

    // A 4-wide pool even on a 1-CPU host: counters must not depend on
    // the thread count.
    let seq_registry = Registry::new();
    let seq_rows = sweep_on_threads(&seq_registry, 1, &configs);
    let par_registry = Registry::new();
    let par_rows = sweep_on_threads(&par_registry, 4, &configs);

    assert_eq!(
        seq_rows, par_rows,
        "rows must not depend on the thread count"
    );
    assert_eq!(
        seq_registry.counters(),
        par_registry.counters(),
        "every exported counter must be identical between 1-thread \
         and 4-thread runs"
    );
    let hits = seq_registry.counter_value("cache.hits").unwrap();
    assert_eq!(
        hits,
        configs.len() as u64,
        "the batched evaluation kernel probes once per configuration \
         plane (not once per row), and after the job-phase warmup every \
         plane probe is a hit"
    );
}

/// Per-backend dispatch counters: every characterization that misses
/// the cache (plus the constructor's eager baseline) lands on exactly
/// one backend's `backend.<name>.characterizations` counter, and the
/// tallies are as deterministic as every other counter.
#[test]
fn backend_counters_attribute_every_dispatch() {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    // The small set is all single-die volatile: everything routes to
    // CryoMEM, and Destiny's counter registers but never moves.
    let _ = sweep(&explorer, &small_config_set());
    let misses = registry.counter_value("cache.misses").unwrap();
    let cryomem = registry
        .counter_value("backend.cryomem.characterizations")
        .expect("cryomem counter registered");
    assert_eq!(
        cryomem,
        misses + 1,
        "one dispatch per miss, plus the constructor's eager baseline"
    );
    assert_eq!(
        registry.counter_value("backend.destiny.characterizations"),
        Some(0),
        "no eNVM or stacked point in this sweep"
    );

    // A stacked point moves Destiny's counter without touching CryoMEM's.
    let stacked = MemoryConfig::envm_3d(
        coldtall::cell::MemoryTechnology::Pcm,
        coldtall::cell::Tentpole::Optimistic,
        4,
    );
    let _ = explorer.characterize(&stacked);
    assert_eq!(
        registry.counter_value("backend.destiny.characterizations"),
        Some(1)
    );
    assert_eq!(
        registry.counter_value("backend.cryomem.characterizations"),
        Some(cryomem)
    );
}

/// The backend counters obey the same thread-count determinism contract
/// as the rest of the telemetry (they are part of
/// `Registry::counters`, so this also rides on
/// `counters_identical_between_sequential_and_parallel_sweeps`; the
/// explicit check documents the per-backend guarantee).
#[test]
fn backend_counters_identical_between_sequential_and_parallel_sweeps() {
    let configs = small_config_set();
    let seq_registry = Registry::new();
    let _ = sweep_on_threads(&seq_registry, 1, &configs);
    let par_registry = Registry::new();
    let _ = sweep_on_threads(&par_registry, 4, &configs);
    for name in [
        "backend.cryomem.characterizations",
        "backend.destiny.characterizations",
    ] {
        assert_eq!(
            seq_registry.counter_value(name),
            par_registry.counter_value(name),
            "{name} must not depend on the thread count"
        );
    }
}

#[test]
fn characterization_span_counts_only_real_work() {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let configs = small_config_set();
    let _ = sweep(&explorer, &configs);
    let span = registry.span("characterize");
    assert_eq!(
        span.count(),
        registry
            .counter_value("explorer.characterize.dispatches")
            .unwrap(),
        "one characterize span per real dispatch (memoized calls are \
         not timed; the batched paths time one sample per batch)"
    );
    assert!(
        span.count() <= registry.counter_value("cache.misses").unwrap(),
        "dispatches never exceed misses"
    );
    // The batched kernel takes one `evaluate` span sample per
    // configuration plane (`sweep.configs`), while `evaluate.calls`
    // still counts logical per-row evaluations (`sweep.rows`).
    assert_eq!(
        registry.span("evaluate").count(),
        registry.counter_value("sweep.configs").unwrap()
    );
    assert_eq!(
        registry.counter_value("explorer.evaluate.calls").unwrap(),
        registry.counter_value("sweep.rows").unwrap()
    );
    assert_eq!(registry.span("sweep").count(), 1);
}

#[test]
fn histogram_quantiles_are_monotone() {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let _ = sweep(&explorer, &small_config_set());
    for name in ["characterize", "evaluate", "sweep"] {
        let span = registry.span(name);
        let (p50, p95, p99) = (
            span.quantile(0.50),
            span.quantile(0.95),
            span.quantile(0.99),
        );
        assert!(
            p50 <= p95 && p95 <= p99,
            "span '{name}': p50={p50} p95={p95} p99={p99} not monotone"
        );
        assert!(
            span.quantile(1.0) >= span.max() / 2,
            "upper bound brackets max"
        );
    }
}

#[test]
fn reset_zeroes_every_counter_gauge_and_span() {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let _ = sweep(&explorer, &small_config_set());
    assert!(registry.counter_value("cache.hits").unwrap() > 0);

    registry.reset();
    for (name, value) in registry.counters() {
        assert_eq!(value, 0, "counter '{name}' survived reset");
    }
    for (name, value) in registry.gauges() {
        assert_eq!(value, 0, "gauge '{name}' survived reset");
    }
    for name in ["characterize", "evaluate", "sweep"] {
        assert_eq!(
            registry.span(name).count(),
            0,
            "span '{name}' survived reset"
        );
    }

    // Live handles keep working after a reset.
    let _ = explorer.evaluate(
        &MemoryConfig::sram_350k(),
        coldtall::workloads::benchmark("namd").unwrap(),
    );
    assert_eq!(registry.counter_value("cache.hits"), Some(1));
}
