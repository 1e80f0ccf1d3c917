//! Bit-identity and counter tests of the two-phase characterization
//! kernel (geometry-batched plan execution).
//!
//! [`Explorer::run`] groups a plan's characterization jobs by
//! temperature-stripped geometry key, solves each geometry once, and
//! fans the temperatures out over the cached candidate list. The
//! contract under test:
//!
//! * rows are **bit-identical** to the per-point oracle
//!   (`support::per_point`), at any pool width,
//! * the geometry cache records exactly one solve per distinct
//!   geometry key (`perf_smoke`),
//! * the organization optimizer's lower-bound prune never changes the
//!   argmin (brute force over the full candidate grid), because the
//!   bound is sound (`score_lower_bound <= score`, verified
//!   exhaustively).

mod support;

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

use coldtall::array::{
    optimize, score_lower_bound, ArrayCharacterization, ArraySpec, Objective, OrgGeometry,
    Organization,
};
use coldtall_bench::timing::time_median_pair;
use coldtall::cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall::core::{pool, DesignPointKey, EvalArena, Explorer, MemoryConfig};
use coldtall::cryo::{characterize_at, study_temperatures};
use coldtall::obs::Registry;
use coldtall::tech::ProcessNode;
use coldtall::units::Capacity;

/// Tests that force a pool width share the process-global override.
static POOL_LOCK: Mutex<()> = Mutex::new(());

struct PinnedPool(#[allow(dead_code)] MutexGuard<'static, ()>);

impl PinnedPool {
    fn threads(n: usize) -> Self {
        let guard = POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        pool::set_max_threads(n);
        Self(guard)
    }
}

impl Drop for PinnedPool {
    fn drop(&mut self) {
        pool::set_max_threads(0);
    }
}

/// The full study set expanded across every study temperature — the
/// densest temperature sweep the repo runs, and the workload where
/// geometry batching pays (many temperatures per geometry key).
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

/// Runs the per-point oracle and [`Explorer::run`] over the full
/// study x temperature grid on `threads` pool threads, each on a fresh
/// explorer (cold caches), and asserts the rows are bit-identical.
fn assert_batched_paths_bit_identical(threads: usize) {
    let _pinned = PinnedPool::threads(threads);
    let configs = expanded_study();
    let run = |execute: &dyn Fn(&Explorer, &coldtall::core::ExecutionPlan) -> Vec<_>| {
        let registry = Registry::new();
        let explorer = observed_explorer(&registry);
        let plan = explorer.plan_sweep(&configs).expect("study configs resolve");
        execute(&explorer, &plan)
    };
    let per_point = run(&support::per_point);
    let batched = run(&|explorer, plan| {
        let mut arena = EvalArena::new();
        explorer.run(plan, &mut arena);
        arena.to_rows()
    });
    assert_eq!(
        per_point, batched,
        "batched execution must be bit-identical to per-point at {threads} threads"
    );
}

#[test]
fn batched_execution_is_bit_identical_to_per_point_at_one_thread() {
    assert_batched_paths_bit_identical(1);
}

#[test]
fn batched_execution_is_bit_identical_to_per_point_at_four_threads() {
    assert_batched_paths_bit_identical(4);
}

/// The headline perf invariant: one geometry solve per distinct
/// temperature-stripped key across the whole study x temperature grid,
/// and none at all on a warm cache.
#[test]
fn perf_smoke() {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let configs = expanded_study();
    let plan = explorer.plan_sweep(&configs).expect("study configs resolve");
    let distinct_geometries: HashSet<DesignPointKey> = plan
        .jobs()
        .iter()
        .map(|job| DesignPointKey::geometry_of(job.config()))
        .collect();
    assert!(
        distinct_geometries.len() < plan.jobs().len(),
        "the temperature sweep must share geometries across jobs"
    );

    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let rows = arena.to_rows();
    assert_eq!(rows.len(), plan.rows());
    let solves = registry
        .counter_value("geometry.solves")
        .expect("geometry cache registered");
    assert_eq!(
        solves,
        distinct_geometries.len() as u64,
        "exactly one geometry solve per distinct temperature-stripped key"
    );
    assert!(
        solves <= rows.len() as u64,
        "solves are bounded by the row count"
    );
    assert_eq!(
        registry
            .counter_value("explorer.characterize.dispatches")
            .unwrap(),
        {
            let backends: HashSet<(DesignPointKey, &str)> = plan
                .jobs()
                .iter()
                .map(|job| (DesignPointKey::geometry_of(job.config()), job.backend()))
                .collect();
            backends.len() as u64
        },
        "one batch dispatch per (geometry key, backend) group"
    );

    // A second execution is all cache hits: no new solves, no dispatch.
    explorer.run(&plan, &mut arena);
    assert_eq!(rows, arena.to_rows());
    assert_eq!(registry.counter_value("geometry.solves"), Some(solves));
}

/// The characterization-kernel perf gate: against pre-solved
/// geometries (the warm-start steady state) the SoA multi-temperature
/// stripe must be strictly faster per dispatch than the per-point
/// oracle, while staying bit-identical. Interleaved median timing, so
/// a one-off scheduler hiccup lands on both sides alike (the same
/// discipline as the eval-kernel gate); the stripe measured ≥3x ahead
/// when it landed, so a strict inequality here has headroom.
#[test]
fn multi_temperature_stripe_is_faster_than_per_point() {
    let _pinned = PinnedPool::threads(1);
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let temps = study_temperatures().to_vec();
    // One configuration per distinct study geometry — the same
    // temperature-stripped grouping plan execution uses.
    let mut seen = HashSet::new();
    let configs: Vec<MemoryConfig> = MemoryConfig::study_set()
        .into_iter()
        .filter(|config| seen.insert(DesignPointKey::geometry_of(config)))
        .collect();
    let dispatches = configs.len() * temps.len();

    let per_point = || -> Vec<ArrayCharacterization> {
        configs
            .iter()
            .flat_map(|config| {
                temps.iter().map(|&t| {
                    config
                        .to_base_spec(&node)
                        .at_temperature_cryo(t)
                        .characterize(objective)
                })
            })
            .collect()
    };
    let solved: Vec<OrgGeometry> = configs
        .iter()
        .map(|config| OrgGeometry::solve(&config.to_base_spec(&node)))
        .collect();
    let stripe = || -> Vec<ArrayCharacterization> {
        solved
            .iter()
            .flat_map(|geometry| geometry.characterize_temps(&temps, objective))
            .collect()
    };

    assert_eq!(
        per_point(),
        stripe(),
        "the stripe must stay bit-identical to the per-point oracle"
    );
    let (point, batched) = time_median_pair(("per_point", "stripe"), 9, per_point, stripe);
    assert!(
        batched.median_ns_per(dispatches) < point.median_ns_per(dispatches),
        "the SoA stripe must be strictly faster per dispatch: stripe {:.0} ns \
         vs per-point {:.0} ns over {dispatches} dispatches",
        batched.median_ns_per(dispatches),
        point.median_ns_per(dispatches),
    );
}

/// Brute-force argmin over the full candidate grid, replicating the
/// optimizer's feasibility rule and first-wins tie semantics — but
/// with no pruning and no shared device context.
fn brute_force(spec: &ArraySpec, objective: Objective) -> ArrayCharacterization {
    let per_die = spec.capacity().bits_f64() * spec.storage_overhead() / f64::from(spec.dies());
    let mut best: Option<(f64, ArrayCharacterization)> = None;
    for org in Organization::candidates() {
        #[allow(clippy::cast_precision_loss)]
        if org.bits_per_subarray() as f64 > per_die {
            continue;
        }
        let array = ArrayCharacterization::evaluate(spec, org);
        let score = objective.score(&array);
        if best.as_ref().is_none_or(|(incumbent, _)| score < *incumbent) {
            best = Some((score, array));
        }
    }
    best.expect("at least one feasible organization").1
}

/// Specs spanning the regimes the prune sees: the 350 K baseline, a
/// cryogenic operating point, a refresh-bearing cell, and a stacked
/// spec small enough that the feasibility filter actually removes
/// candidates.
fn prune_specs() -> Vec<ArraySpec> {
    let node = ProcessNode::ptm_22nm_hp();
    let sram = ArraySpec::llc_16mib(CellModel::sram(&node), &node);
    let edram = ArraySpec::llc_16mib(
        CellModel::tentpole(MemoryTechnology::Edram3T, Tentpole::Optimistic, &node),
        &node,
    );
    vec![
        sram.clone(),
        sram.clone().at_temperature_cryo(coldtall::units::Kelvin::LN2),
        edram,
        sram.with_capacity(Capacity::from_mebibytes(1)).with_dies(8),
    ]
}

#[test]
fn prune_never_changes_the_argmin() {
    for spec in prune_specs() {
        for objective in [
            Objective::EnergyDelayProduct,
            Objective::ReadLatency,
            Objective::ReadEnergy,
            Objective::Area,
            Objective::StandbyPower,
        ] {
            assert_eq!(
                optimize(&spec, objective),
                brute_force(&spec, objective),
                "pruned search diverged from brute force for {objective}"
            );
        }
    }
}

#[test]
fn lower_bound_is_sound_for_every_candidate() {
    for spec in prune_specs() {
        for objective in [
            Objective::EnergyDelayProduct,
            Objective::ReadLatency,
            Objective::ReadEnergy,
            Objective::Area,
            Objective::StandbyPower,
        ] {
            for org in Organization::candidates() {
                let bound = score_lower_bound(&spec, org, objective);
                let score = objective.score(&ArrayCharacterization::evaluate(&spec, org));
                assert!(
                    bound <= score,
                    "bound {bound} exceeds score {score} for {org:?} under {objective}"
                );
            }
        }
    }
}

/// Phase 2 against the one-shot reference: re-scoring a cached
/// geometry at a temperature must equal characterizing the base spec
/// at that temperature from scratch.
#[test]
fn apply_temperature_matches_characterize_at() {
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    for cell in [
        CellModel::sram(&node),
        CellModel::tentpole(MemoryTechnology::Edram3T, Tentpole::Optimistic, &node),
    ] {
        let spec = ArraySpec::llc_16mib(cell, &node);
        let geometry = OrgGeometry::solve(&spec);
        for &t in study_temperatures() {
            assert_eq!(
                geometry.apply_temperature(t, objective),
                characterize_at(&spec, t, objective)
            );
        }
    }
}
