//! Bit-identity, arena-reuse, and perf tests of the batch evaluation
//! kernel behind [`Explorer::run`] and its `EvalArena`.
//!
//! The kernel evaluates a whole (configuration x benchmark x
//! temperature) grid in one call, hoisting the grid-invariants — the
//! 350 K SRAM baseline services, the cooling wall factor, the traffic
//! table — out of the per-row path. The contract under test:
//!
//! * `run` rows are **bit-identical** to the scalar
//!   [`Explorer::evaluate`] oracle over the full study x SPEC2017 x
//!   temperature grid, at any thread count, including infeasible rows
//!   (refresh-dead, bandwidth-saturated, and the non-finite baseline
//!   guard),
//! * a reused arena allocates nothing after its first fill (column
//!   capacities are stable across repeated sweeps),
//! * on a warm explorer `run` is strictly faster per row than the
//!   scalar per-row loop (`perf_smoke`, gated by `scripts/check.sh`),
//! * repeated sweeps over the *same* explorer at new temperatures hit
//!   the geometry cache (nonzero `geometry.hits`) without re-solving.

mod support;

use coldtall::array::Objective;
use coldtall::core::{EvalArena, Explorer, Feasibility, MemoryConfig};
use coldtall::cryo::study_temperatures;
use coldtall::obs::Registry;
use coldtall::tech::ProcessNode;
use coldtall::units::Kelvin;
use coldtall::workloads::{benchmark, spec2017, Benchmark};
use coldtall_bench::timing::time_median_pair;

/// The full study set expanded across every study temperature: the
/// densest grid the repo evaluates, containing viable, slowdown, and
/// refresh-dead rows.
fn expanded_study() -> Vec<MemoryConfig> {
    MemoryConfig::study_set()
        .iter()
        .flat_map(|config| {
            study_temperatures()
                .iter()
                .map(|&t| config.clone().at_temperature(t))
        })
        .collect()
}

fn observed_explorer(registry: &Registry) -> Explorer {
    Explorer::with_registry(
        ProcessNode::ptm_22nm_hp(),
        Objective::EnergyDelayProduct,
        registry,
    )
}

/// Runs the scalar per-cell oracle and [`Explorer::run`] over the full
/// study x SPEC2017 x temperature grid at `threads` threads, each
/// on a fresh explorer, and asserts bit-identity.
fn assert_batch_matches_scalar_oracle(threads: usize) {
    let _pinned = support::pin_threads(threads);
    let configs = expanded_study();
    let plan_on = |registry: &Registry| {
        let explorer = observed_explorer(registry);
        let plan = explorer
            .plan_sweep(&configs)
            .expect("study configs resolve");
        (explorer, plan)
    };

    let (explorer, plan) = plan_on(&Registry::new());
    let scalar = support::per_point(&explorer, &plan);
    let (explorer, plan) = plan_on(&Registry::new());
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let batched = arena.to_rows();

    assert_eq!(
        scalar, batched,
        "run must be bit-identical to the scalar oracle at {threads} threads"
    );

    // The grid genuinely exercises the infeasible paths: the 350 K
    // 3T-eDRAM points are refresh-dead (infinite relative latency).
    assert!(
        batched
            .iter()
            .any(|row| row.feasibility == Feasibility::RefreshDead),
        "the expanded study grid must contain refresh-dead rows"
    );
    assert!(
        batched
            .iter()
            .any(|row| row.feasibility == Feasibility::Viable),
        "the expanded study grid must contain viable rows"
    );
}

#[test]
fn batch_is_bit_identical_to_the_scalar_oracle_at_one_thread() {
    assert_batch_matches_scalar_oracle(1);
}

#[test]
fn batch_is_bit_identical_to_the_scalar_oracle_at_four_threads() {
    assert_batch_matches_scalar_oracle(4);
}

/// A traffic profile intense enough to saturate every array in the
/// study — including the 350 K SRAM baseline, which drives the hoisted
/// `base_service` to infinity and exercises the batch kernel's
/// non-finite-baseline guard on exactly the same branch the scalar
/// path takes.
fn saturating_benchmarks() -> &'static [Benchmark] {
    let profile = benchmark("namd").expect("namd profile exists").scaled(1e12);
    Box::leak(vec![profile].into_boxed_slice())
}

#[test]
fn batch_matches_scalar_on_bandwidth_saturated_rows() {
    let configs = MemoryConfig::study_set();
    let benchmarks = saturating_benchmarks();

    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let plan = coldtall::core::SweepPlan::new(configs.clone())
        .with_benchmarks(benchmarks)
        .compile(explorer.backends())
        .expect("study configs resolve");

    let scalar = support::per_point(&explorer, &plan);
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);

    assert_eq!(
        scalar,
        arena.to_rows(),
        "saturated rows must be bit-identical between batch and scalar"
    );
    assert!(
        arena
            .feasibility()
            .contains(&Feasibility::BandwidthSaturated),
        "the scaled profile must saturate at least one array"
    );
    // Every row is unserviceable (saturated or refresh-dead): the
    // infinite-over-infinite latency ratio never leaks a NaN.
    for (row, &latency) in arena.relative_latency().iter().enumerate() {
        assert!(
            latency.is_infinite(),
            "row {row}: saturated grid must report infinite relative latency, got {latency}"
        );
    }
}

#[test]
fn arena_reuse_allocates_nothing_after_the_first_sweep() {
    let explorer = Explorer::with_defaults();
    let plan = explorer
        .plan_sweep(&expanded_study())
        .expect("study configs resolve");

    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let first = arena.to_rows();
    assert_eq!(arena.rows(), plan.rows());
    let capacity = arena.row_capacity();
    assert!(capacity >= arena.rows());

    // Refill the same arena repeatedly: rows stay bit-identical and no
    // column ever reallocates (the minimum capacity across all columns
    // is exactly what the first sweep left behind).
    for round in 0..3 {
        explorer.run(&plan, &mut arena);
        assert_eq!(arena.to_rows(), first, "round {round} changed the rows");
        assert_eq!(
            arena.row_capacity(),
            capacity,
            "round {round} reallocated an arena column"
        );
    }
}

/// The headline perf invariant gated by `scripts/check.sh`: on a warm
/// explorer (characterizations cached, so the evaluation kernel is
/// what gets measured) [`Explorer::run`] is strictly faster per row
/// than the scalar per-row loop. Interleaved median timing, so a
/// one-off scheduler hiccup lands on both sides alike.
#[test]
fn perf_smoke() {
    let _pinned = support::pin_threads(1);
    let configs = expanded_study();
    let explorer = Explorer::with_defaults();
    let plan = explorer
        .plan_sweep(&configs)
        .expect("study configs resolve");
    // Warm every characterization so both sides measure evaluation.
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let reference = arena.to_rows();
    let rows = reference.len();

    let (per_row, batched) = time_median_pair(
        ("per_row", "batched"),
        9,
        || -> Vec<_> {
            configs
                .iter()
                .flat_map(|config| spec2017().iter().map(|b| explorer.evaluate(config, b)))
                .collect()
        },
        || explorer.run(&plan, &mut arena),
    );

    assert_eq!(arena.to_rows(), reference, "timed runs stay bit-identical");
    assert!(
        batched.median_ns_per(rows) < per_row.median_ns_per(rows),
        "batched evaluation must be strictly faster per row: batched {:.0} ns/row \
         vs per-row {:.0} ns/row over {rows} rows",
        batched.median_ns_per(rows),
        per_row.median_ns_per(rows),
    );
}

/// The geometry cache is alive across sweeps of the *same* explorer:
/// characterizing already-solved geometries at new temperatures probes
/// the temperature-stripped geometry key and hits, instead of
/// re-solving. (A fresh explorer per sweep never revisits a geometry,
/// so its `geometry.hits` read zero.)
#[test]
fn new_temperatures_on_a_warm_explorer_hit_the_geometry_cache() {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let configs = expanded_study();
    let plan = explorer
        .plan_sweep(&configs)
        .expect("study configs resolve");
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let solves = registry.counter_value("geometry.solves").unwrap();
    let hits = registry.counter_value("geometry.hits").unwrap();
    assert!(solves > 0, "the first sweep solves every distinct geometry");

    // The same study set shifted by +1 K: every characterization key is
    // new (temperature is part of the design-point key), but every
    // geometry key is already cached.
    let shifted: Vec<MemoryConfig> = configs
        .iter()
        .map(|config| {
            config
                .clone()
                .at_temperature(Kelvin::new(config.temperature().get() + 1.0))
        })
        .collect();
    let shifted_plan = explorer
        .plan_sweep(&shifted)
        .expect("shifted configs resolve");
    explorer.run(&shifted_plan, &mut arena);

    assert_eq!(
        registry.counter_value("geometry.solves"),
        Some(solves),
        "no geometry is ever re-solved"
    );
    assert!(
        registry.counter_value("geometry.hits").unwrap() > hits,
        "the shifted sweep must hit the warm geometry cache"
    );
}
