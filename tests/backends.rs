//! Integration tests of the characterization-backend seam.
//!
//! The refactor's acceptance contract, proven end to end from outside
//! the crate:
//!
//! * the default registry resolves every study design point to exactly
//!   one backend — the default backends overlap on single-die SRAM and
//!   priority routes it to CryoMEM, reproducing the historical
//!   partition point for point (the migration test),
//! * overlap resolution is principled: priority breaks specificity
//!   ties, a strictly-containing capability set yields to the more
//!   specific backend, and a genuinely ambiguous overlap is a typed
//!   error naming every claimant,
//! * dispatching through the trait is bit-identical to the pre-refactor
//!   direct `to_spec().characterize()` path, for every study point,
//! * a full study sweep (study set x SPEC2017) produces byte-identical
//!   rows at 1 and at 4 threads,
//! * `--backend` pinning overrides the policy as an assertion: a pin
//!   that contradicts resolution exits 1, it never reroutes,
//! * a mock backend registered at test time flows its (doctored)
//!   output and its per-backend telemetry through the explorer.

mod support;

use coldtall::array::{ArrayCharacterization, ArraySpec, Objective};
use coldtall::cell::{CellModel, MemoryTechnology};
use coldtall::core::{
    BackendCapabilities, BackendRegistry, CharacterizationBackend, CryoMemBackend, DesignPointKey,
    Error, Explorer, GeometryCache, MemoryConfig, SweepPlan,
};
use coldtall::obs::Registry;
use coldtall::tech::ProcessNode;
use coldtall::units::Kelvin;
use coldtall::workloads::spec2017;

#[test]
fn every_study_point_resolves_to_exactly_one_default_backend() {
    let registry = BackendRegistry::with_defaults();
    let mut cryomem = 0;
    let mut destiny = 0;
    for config in MemoryConfig::study_set() {
        let backend = registry
            .resolve(&config)
            .unwrap_or_else(|e| panic!("{}: {e}", config.label()));
        match backend.name() {
            "cryomem" => {
                cryomem += 1;
                assert!(!config.technology().is_nonvolatile(), "{}", config.label());
                assert_eq!(config.dies(), 1, "{}", config.label());
            }
            "destiny" => {
                destiny += 1;
                assert!(
                    config.technology().is_nonvolatile() || config.dies() > 1,
                    "{}",
                    config.label()
                );
            }
            other => panic!("unexpected backend '{other}' for {}", config.label()),
        }
    }
    // 4 single-die volatile points; 3 stacked SRAM + 24 eNVM points.
    assert_eq!((cryomem, destiny), (4, 27));
}

/// The tentpole's equivalence guarantee: for every study design point,
/// the registry-dispatched characterization is bit-identical to the
/// pre-refactor direct lowering.
#[test]
fn backend_dispatch_is_bit_identical_to_direct_lowering() {
    let explorer = Explorer::with_defaults();
    let node = ProcessNode::ptm_22nm_hp();
    for config in MemoryConfig::study_set() {
        let via_registry = explorer.characterize(&config);
        let direct = config.to_spec(&node).characterize(Objective::EnergyDelayProduct);
        assert_eq!(via_registry, direct, "{}", config.label());
    }
}

/// The full study grid — study set x SPEC2017 — is byte-identical
/// between 1 and 4 threads, through the plan/run
/// pipeline.
#[test]
fn study_sweep_rows_identical_under_1_and_4_thread_pools() {
    let sweep = || {
        Explorer::with_defaults()
            .try_sweep_configs(&MemoryConfig::study_set())
            .expect("the study set resolves")
    };
    let one = {
        let _pinned = support::pin_threads(1);
        sweep()
    };
    let four = {
        let _pinned = support::pin_threads(4);
        sweep()
    };
    assert_eq!(one.len(), MemoryConfig::study_set().len() * spec2017().len());
    assert_eq!(one, four, "sweep rows must not depend on the thread count");
}

#[test]
fn compiled_study_plan_names_a_backend_per_job() {
    let explorer = Explorer::with_defaults();
    let plan = explorer
        .plan_sweep(&MemoryConfig::study_set())
        .expect("the study compiles");
    assert_eq!(plan.jobs().len(), 31);
    let cryomem = plan.jobs().iter().filter(|j| j.backend() == "cryomem").count();
    let destiny = plan.jobs().iter().filter(|j| j.backend() == "destiny").count();
    assert_eq!((cryomem, destiny), (4, 27));
}

#[test]
fn zero_backend_registry_is_a_typed_error_never_a_panic() {
    // At plan compilation...
    let err = SweepPlan::study()
        .compile(&BackendRegistry::new())
        .unwrap_err();
    assert!(matches!(err, Error::NoBackend { .. }), "{err}");

    // ...and at explorer construction (the baseline is characterized
    // eagerly, so an unusable registry is rejected up front).
    let metrics = Registry::new();
    let err = Explorer::try_with_backends(
        ProcessNode::ptm_22nm_hp(),
        Objective::EnergyDelayProduct,
        BackendRegistry::new(),
        &metrics,
    )
    .expect_err("empty registry must be rejected");
    assert!(matches!(err, Error::NoBackend { .. }), "{err}");
}

/// A capability-only backend for resolution-policy tests; the default
/// trait methods supply characterization, which these tests never call.
#[derive(Debug)]
struct CapBackend {
    name: &'static str,
    caps: BackendCapabilities,
}

impl CharacterizationBackend for CapBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn capabilities(&self) -> BackendCapabilities {
        self.caps.clone()
    }
}

fn caps_of(techs: &[MemoryTechnology], dies: &[u8]) -> BackendCapabilities {
    BackendCapabilities::new(
        techs.to_vec(),
        Kelvin::new(60.0),
        Kelvin::new(400.0),
        dies.to_vec(),
    )
}

#[test]
fn priority_beats_a_specificity_tie() {
    // Identical capability sets: specificity cannot separate them, so
    // the explicit registration priority decides.
    let mut registry = BackendRegistry::new();
    registry.register(std::sync::Arc::new(CapBackend {
        name: "low",
        caps: caps_of(&[MemoryTechnology::Sram], &[1]),
    }));
    registry.register_with_priority(
        std::sync::Arc::new(CapBackend {
            name: "high",
            caps: caps_of(&[MemoryTechnology::Sram], &[1]),
        }),
        5,
    );
    let resolved = registry.resolve(&MemoryConfig::sram_77k()).unwrap();
    assert_eq!(resolved.name(), "high");
}

#[test]
fn strict_containment_yields_to_the_specific_backend() {
    // The generalist covers SRAM and 3T-eDRAM at every die count; the
    // specialist covers single-die SRAM only. On the overlap the
    // generalist yields — even though it outranks the specialist on
    // priority — because specificity applies before priority.
    let mut registry = BackendRegistry::new();
    registry.register_with_priority(
        std::sync::Arc::new(CapBackend {
            name: "generalist",
            caps: caps_of(
                &[MemoryTechnology::Sram, MemoryTechnology::Edram3T],
                &[1, 2, 4, 8],
            ),
        }),
        100,
    );
    registry.register(std::sync::Arc::new(CapBackend {
        name: "specialist",
        caps: caps_of(&[MemoryTechnology::Sram], &[1]),
    }));
    let sram = MemoryConfig::sram_77k();
    assert_eq!(registry.resolve(&sram).unwrap().name(), "specialist");
    // Points only the generalist covers still route to it.
    assert_eq!(
        registry.resolve(&MemoryConfig::edram_77k()).unwrap().name(),
        "generalist"
    );
}

#[test]
fn ambiguous_overlap_is_a_typed_error_naming_every_claimant() {
    // Two non-nested overlapping backends at equal priority, plus a
    // strictly-containing generalist: the generalist yields, the other
    // two tie, and the error names all three claimants in
    // registration order.
    let mut registry = BackendRegistry::new();
    registry.register(std::sync::Arc::new(CapBackend {
        name: "sram-and-3t",
        caps: caps_of(&[MemoryTechnology::Sram, MemoryTechnology::Edram3T], &[1]),
    }));
    registry.register(std::sync::Arc::new(CapBackend {
        name: "sram-and-1t1c",
        caps: caps_of(&[MemoryTechnology::Sram, MemoryTechnology::Edram1T1C], &[1]),
    }));
    registry.register_with_priority(
        std::sync::Arc::new(CapBackend {
            name: "everything",
            caps: caps_of(
                &[
                    MemoryTechnology::Sram,
                    MemoryTechnology::Edram3T,
                    MemoryTechnology::Edram1T1C,
                ],
                &[1, 2],
            ),
        }),
        100,
    );
    let err = registry.resolve(&MemoryConfig::sram_77k()).unwrap_err();
    match err {
        Error::BackendConflict { config, backends } => {
            assert_eq!(config, "77K SRAM");
            assert_eq!(backends, ["sram-and-3t", "sram-and-1t1c", "everything"]);
        }
        other => panic!("expected BackendConflict, got {other}"),
    }
    // The non-overlapping regions still resolve: the eDRAMs are each
    // claimed by one specialist plus the yielded generalist.
    assert_eq!(
        registry.resolve(&MemoryConfig::edram_77k()).unwrap().name(),
        "sram-and-3t"
    );
}

#[test]
fn overlapping_registrations_are_an_ambiguity_error() {
    // A duplicate CryoMEM registered at CryoMEM's own priority
    // reintroduces a genuine tie on the single-die SRAM overlap; the
    // error names every claimant, including the out-prioritized
    // Destiny.
    let mut registry = BackendRegistry::with_defaults();
    registry.register_with_priority(
        std::sync::Arc::new(CryoMemBackend),
        BackendRegistry::CRYOMEM_PRIORITY,
    );
    let err = registry.resolve(&MemoryConfig::sram_77k()).unwrap_err();
    match err {
        Error::BackendConflict { config, backends } => {
            assert_eq!(config, "77K SRAM");
            assert_eq!(backends, ["cryomem", "destiny", "cryomem"]);
        }
        other => panic!("expected BackendConflict, got {other}"),
    }
    // A duplicate at *default* priority is not ambiguous: the
    // registry's CryoMEM outranks it.
    let mut registry = BackendRegistry::with_defaults();
    registry.register(std::sync::Arc::new(CryoMemBackend));
    assert_eq!(
        registry.resolve(&MemoryConfig::sram_77k()).unwrap().name(),
        "cryomem"
    );
}

/// The migration guarantee: every design point the old exclusive
/// partition resolved keeps its backend under the overlap policy.
/// The old rule was volatility/stack-height: Destiny took every
/// non-volatile point and stacked SRAM, CryoMEM took single-die
/// volatile arrays.
#[test]
fn registry_migration_preserves_every_resolved_point() {
    let registry = BackendRegistry::with_defaults();
    let mut checked = 0;
    for config in MemoryConfig::study_set() {
        for &t in coldtall::cryo::study_temperatures() {
            // Stacked volatile arrays are modeled at the 350 K
            // reference only — the old registry never resolved them
            // elsewhere, so there is nothing to migrate.
            if !config.technology().is_nonvolatile() && config.dies() > 1 && t != Kelvin::REFERENCE
            {
                continue;
            }
            let point = config.clone().at_temperature(t);
            let expected = if point.technology().is_nonvolatile() || point.dies() > 1 {
                "destiny"
            } else {
                "cryomem"
            };
            let resolved = registry
                .resolve(&point)
                .unwrap_or_else(|e| panic!("{}: {e}", point.label()));
            assert_eq!(resolved.name(), expected, "{}", point.label());
            checked += 1;
        }
    }
    // 31 configs x 8 study temperatures, minus the 3 stacked-SRAM
    // configs at the 7 non-reference temperatures.
    assert_eq!(checked, 31 * 8 - 3 * 7);
}

/// A test-time backend: claims single-die SRAM only and stamps a
/// sentinel array efficiency on everything it characterizes, proving
/// third-party backends plug into the explorer unchanged by overriding
/// the trait's one characterization method.
#[derive(Debug)]
struct MockBackend;

/// The sentinel the mock stamps — impossible for a real organization
/// search to produce exactly.
const MOCK_EFFICIENCY: f64 = 0.123_456_789;

impl CharacterizationBackend for MockBackend {
    fn name(&self) -> &'static str {
        "mock"
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities::new(
            vec![MemoryTechnology::Sram],
            Kelvin::new(60.0),
            Kelvin::new(400.0),
            vec![1],
        )
    }

    fn characterize_batch(
        &self,
        _geometry_key: &DesignPointKey,
        configs: &[MemoryConfig],
        node: &ProcessNode,
        objective: Objective,
        _geometries: &GeometryCache,
    ) -> Vec<ArrayCharacterization> {
        configs
            .iter()
            .map(|config| {
                let cell = CellModel::tentpole(config.technology(), config.tentpole(), node);
                let mut array = ArraySpec::llc_16mib(cell, node)
                    .at_temperature_cryo(config.temperature())
                    .characterize(objective);
                array.array_efficiency = MOCK_EFFICIENCY;
                array
            })
            .collect()
    }
}

#[test]
fn mock_backend_output_and_telemetry_flow_through_the_explorer() {
    let mut backends = BackendRegistry::new();
    backends.register(std::sync::Arc::new(MockBackend));
    let metrics = Registry::new();
    let explorer = Explorer::try_with_backends(
        ProcessNode::ptm_22nm_hp(),
        Objective::EnergyDelayProduct,
        backends,
        &metrics,
    )
    .expect("the mock claims the SRAM baseline");

    // The doctored output is what callers see...
    let array = explorer.characterize(&MemoryConfig::sram_77k());
    assert_eq!(array.array_efficiency, MOCK_EFFICIENCY);
    assert_eq!(explorer.baseline().array_efficiency, MOCK_EFFICIENCY);

    // ...and the dispatches land on the mock's own counter: one for
    // the eager baseline, one for the 77 K miss (the second probe is a
    // cache hit, not a dispatch).
    let _ = explorer.characterize(&MemoryConfig::sram_77k());
    assert_eq!(metrics.counter_value("backend.mock.characterizations"), Some(2));
    assert_eq!(metrics.counter_value("backend.cryomem.characterizations"), None);

    // Points outside the mock's capabilities are typed errors.
    let err = explorer
        .try_characterize(&MemoryConfig::edram_77k())
        .unwrap_err();
    assert!(matches!(err, Error::NoBackend { .. }), "{err}");
}
