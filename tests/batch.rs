//! Bit-identity and counter tests of the two-phase characterization
//! kernel (geometry-batched plan execution).
//!
//! [`Explorer::run`] groups a plan's characterization jobs by
//! temperature-stripped geometry key, solves each geometry once, and
//! fans the temperatures out over the cached candidate list. The
//! contract under test:
//!
//! * rows are **bit-identical** to the per-point oracle
//!   (`support::per_point`), at any thread count,
//! * the geometry cache records exactly one solve per distinct
//!   geometry key (`perf_smoke`),
//! * the one organization scan picks the argmin a brute force over
//!   every feasible candidate picks, and its component floors are the
//!   brute force's per-field minima, bit for bit.

mod support;

use std::collections::HashSet;

use coldtall::array::{ArrayCharacterization, ArraySpec, Objective, OrgGeometry, Organization};
use coldtall::cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall::core::{sample_cells, Backend, DesignPointKey, EvalArena, Explorer, MemoryConfig};
use coldtall::cryo::study_temperatures;
use coldtall::obs::Registry;
use coldtall::tech::ProcessNode;
use coldtall::units::{Capacity, Kelvin};
use coldtall_bench::timing::time_median_pair;
use coldtall_bench::variation_study;

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
/// study x temperature grid at `threads` threads, each on a fresh
/// explorer (cold caches), and asserts the rows are bit-identical.
fn assert_batched_paths_bit_identical(threads: usize) {
    let _pinned = support::pin_threads(threads);
    let configs = expanded_study();
    let run = |execute: &dyn Fn(&Explorer, &coldtall::core::ExecutionPlan) -> Vec<_>| {
        let registry = Registry::new();
        let explorer = observed_explorer(&registry);
        let plan = explorer
            .plan_sweep(&configs)
            .expect("study configs resolve");
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
/// one dispatch per geometry batch, and no solve at all on a warm
/// cache. Counter-based, so machine load cannot flake it the way a
/// wall-clock threshold would.
#[test]
fn perf_smoke() {
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let configs = expanded_study();
    let plan = explorer
        .plan_sweep(&configs)
        .expect("study configs resolve");
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
            let backends: HashSet<(DesignPointKey, Backend)> = plan
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

/// A one-cell miss is a geometry batch of one: after a plan has solved
/// a geometry, and after a geometry store has warm-started a fresh
/// explorer, characterizing or evaluating that geometry at an
/// off-ladder temperature counts one `geometry.hits` and no solve, and
/// still answers the direct lowering's bits.
#[test]
fn one_cell_misses_reuse_planned_and_warm_started_geometries() {
    use coldtall::serve::GeometryStore;
    let counter = |registry: &Registry, name: &str| registry.counter_value(name).unwrap();
    let node = ProcessNode::ptm_22nm_hp();

    // After a plan.
    let registry = Registry::new();
    let explorer = observed_explorer(&registry);
    let plan = explorer
        .plan_sweep(&MemoryConfig::study_set())
        .expect("the study resolves");
    explorer.run(&plan, &mut EvalArena::new());
    let (hits, solves) = (
        counter(&registry, "geometry.hits"),
        counter(&registry, "geometry.solves"),
    );
    let off_ladder = MemoryConfig::edram_77k().at_temperature(Kelvin::new(123.4));
    assert_eq!(
        explorer.characterize(&off_ladder),
        off_ladder
            .to_spec(&node)
            .characterize(Objective::EnergyDelayProduct)
    );
    assert_eq!(counter(&registry, "geometry.hits"), hits + 1);
    assert_eq!(counter(&registry, "geometry.solves"), solves);

    // After a geometry-store warm start.
    let mut path = std::env::temp_dir();
    path.push(format!(
        "coldtall-one-cell-warm-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let store = GeometryStore::open(&path).expect("store opens");
    assert_eq!(store.sync_from(&explorer).expect("sync appends"), solves);
    let warm_registry = Registry::new();
    let warm = observed_explorer(&warm_registry);
    let point = MemoryConfig::sram_350k().at_temperature(Kelvin::new(211.5));
    let stats = store
        .warm_into(&warm, std::slice::from_ref(&point))
        .expect("store replays");
    assert_eq!(stats.replayed, 1);
    let row = warm
        .try_evaluate(&point, "namd")
        .expect("the point evaluates");
    assert_eq!(
        row,
        explorer.evaluate(&point, coldtall::workloads::benchmark("namd").unwrap())
    );
    assert_eq!(counter(&warm_registry, "geometry.hits"), 1);
    assert_eq!(counter(&warm_registry, "geometry.solves"), 0);
    let _ = std::fs::remove_file(&path);
}

/// The characterization-kernel perf gate: against pre-solved
/// geometries (the warm-start steady state) the multi-temperature
/// stripe must be strictly faster per dispatch than characterizing
/// each point on its own — a solve plus a one-temperature scan per
/// point — while staying bit-identical. Interleaved median timing, so
/// a one-off scheduler hiccup lands on both sides alike (the same
/// discipline as the eval-kernel gate); the stripe measured ≥3x ahead
/// when it landed, so a strict inequality here has headroom.
#[test]
fn multi_temperature_stripe_is_faster_than_per_point() {
    let _pinned = support::pin_threads(1);
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
        "the stripe must stay bit-identical to per-point characterization"
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

const OBJECTIVES: [Objective; 5] = [
    Objective::EnergyDelayProduct,
    Objective::ReadLatency,
    Objective::ReadEnergy,
    Objective::Area,
    Objective::StandbyPower,
];

/// Every feasible candidate of `spec`, each fully characterized on its
/// own by [`ArrayCharacterization::evaluate`] (fresh geometry, fresh
/// device context, no columns), in canonical candidate order. The
/// feasibility rule is restated here, not borrowed from the scan.
fn evaluate_feasible(spec: &ArraySpec) -> Vec<ArrayCharacterization> {
    let per_die = spec.capacity().bits_f64() * spec.storage_overhead() / f64::from(spec.dies());
    #[allow(clippy::cast_precision_loss)]
    let feasible = |org: &Organization| org.bits_per_subarray() as f64 <= per_die;
    Organization::candidates()
        .filter(feasible)
        .map(|org| ArrayCharacterization::evaluate(spec, org))
        .collect()
}

/// The reference organization search: the first-wins argmin of
/// `objective` over [`evaluate_feasible`]'s candidates, with no
/// columns, no shared context and no skipped candidate.
fn brute_force(
    evaluated: &[ArrayCharacterization],
    objective: Objective,
) -> &ArrayCharacterization {
    let mut best: Option<(f64, &ArrayCharacterization)> = None;
    for array in evaluated {
        let score = objective.score(array);
        if best.is_none_or(|(incumbent, _)| score < incumbent) {
            best = Some((score, array));
        }
    }
    best.expect("at least one feasible organization").1
}

/// Every technology at both tentpoles, at its nominal operating point:
/// the 16 MiB array on 1, 2, 4 and 8 dies, plus a 1 MiB array on 8
/// dies whose per-die share is small enough that the feasibility
/// filter removes candidates (70 geometries).
fn oracle_geometries() -> Vec<ArraySpec> {
    let node = ProcessNode::ptm_22nm_hp();
    let mut specs = Vec::new();
    for technology in [
        MemoryTechnology::Sram,
        MemoryTechnology::Edram3T,
        MemoryTechnology::Edram1T1C,
        MemoryTechnology::Pcm,
        MemoryTechnology::SttRam,
        MemoryTechnology::Rram,
        MemoryTechnology::SotRam,
    ] {
        for tentpole in Tentpole::BOTH {
            let spec =
                ArraySpec::llc_16mib(CellModel::tentpole(technology, tentpole, &node), &node);
            for dies in [1, 2, 4, 8] {
                specs.push(spec.clone().with_dies(dies));
            }
            specs.push(spec.with_capacity(Capacity::from_mebibytes(1)).with_dies(8));
        }
    }
    specs
}

/// 60 K to 400 K in 10 K steps: the backends' whole legal span.
fn temperature_ladder() -> Vec<Kelvin> {
    (6..=40).map(|t| Kelvin::new(f64::from(t) * 10.0)).collect()
}

/// The scan behind every characterization, both per point
/// (`ArraySpec::characterize`) and as a stripe (`characterize_temps`),
/// against the brute force: every oracle geometry x objective, at its
/// nominal operating point and at every temperature of the ladder.
#[test]
fn column_scan_matches_brute_force() {
    let temps = temperature_ladder();
    for base in oracle_geometries() {
        let nominal = evaluate_feasible(&base);
        for objective in OBJECTIVES {
            assert_eq!(
                &base.characterize(objective),
                brute_force(&nominal, objective),
                "{} x{} at its nominal operating point diverged for {objective}",
                base.cell().technology().name(),
                base.dies(),
            );
        }
        let geometry = OrgGeometry::solve(&base);
        let stripes: Vec<Vec<ArrayCharacterization>> = OBJECTIVES
            .iter()
            .map(|&objective| geometry.characterize_temps(&temps, objective))
            .collect();
        for (i, &t) in temps.iter().enumerate() {
            let spec = base.clone().at_temperature_cryo(t);
            let evaluated = evaluate_feasible(&spec);
            for (&objective, stripe) in OBJECTIVES.iter().zip(&stripes) {
                let oracle = brute_force(&evaluated, objective);
                assert_eq!(
                    &spec.characterize(objective),
                    oracle,
                    "{} x{} at {t}: scan diverged from brute force for {objective}",
                    base.cell().technology().name(),
                    base.dies(),
                );
                assert_eq!(
                    &stripe[i],
                    oracle,
                    "{} x{} at {t}: stripe diverged from brute force for {objective}",
                    base.cell().technology().name(),
                    base.dies(),
                );
            }
        }
    }
}

/// The 360 cells `variation_study` samples: the only sampled cells the
/// repo characterizes, and each one a single-use geometry.
#[test]
fn variation_study_cells_match_brute_force() {
    let node = ProcessNode::ptm_22nm_hp();
    let mut checked = 0;
    for (technology, dies, seed) in variation_study::cases() {
        for cell in sample_cells(technology, variation_study::SAMPLES, seed, &node) {
            let mut spec = ArraySpec::llc_16mib(cell, &node);
            if dies > 1 {
                spec = spec.with_dies(dies);
            }
            let evaluated = evaluate_feasible(&spec);
            for objective in OBJECTIVES {
                assert_eq!(
                    &spec.characterize(objective),
                    brute_force(&evaluated, objective),
                    "sampled {} cell {checked} x{dies} diverged for {objective}",
                    technology.name(),
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 360);
}

/// The search prunes with these floors and counts what they skip, so
/// they must be exact, not merely sound: each equals the per-field
/// minimum of [`ArrayCharacterization::evaluate`] over the feasible
/// candidates, bit for bit.
#[test]
fn floors_are_the_per_field_minima_of_evaluate() {
    let temps = temperature_ladder();
    for base in oracle_geometries() {
        let geometry = OrgGeometry::solve(&base);
        for &t in &temps {
            let evaluated = evaluate_feasible(&base.clone().at_temperature_cryo(t));
            let min = |field: fn(&ArrayCharacterization) -> f64| {
                evaluated.iter().map(field).fold(f64::INFINITY, f64::min)
            };
            let floors = geometry.floors_at_temperature(t);
            let expected = [
                min(|a| a.read_latency.get()),
                min(|a| a.read_energy.get()),
                min(|a| a.standby_power().get()),
                min(|a| a.footprint.get()),
                min(|a| a.refresh_busy_fraction),
            ];
            let got = [
                floors.read_latency_s,
                floors.read_energy_j,
                floors.standby_power_w,
                floors.footprint_m2,
                floors.refresh_busy_fraction,
            ];
            assert_eq!(
                got.map(f64::to_bits),
                expected.map(f64::to_bits),
                "{} x{} at {t}: floors {got:?} vs per-field minima {expected:?}",
                base.cell().technology().name(),
                base.dies(),
            );
        }
    }
}
