//! Integration tests of the two characterization backends and their
//! one dispatch rule.
//!
//! Proven end to end from outside the crate:
//!
//! * the rule resolves every study design point to one backend — the
//!   backends overlap on single-die SRAM and CryoMEM's priority takes
//!   it, reproducing the historical partition point for point (the
//!   migration test),
//! * dispatching through the rule is bit-identical to the direct
//!   `to_spec().characterize()` path, for every study point,
//! * a full study sweep (study set x SPEC2017) produces byte-identical
//!   rows at 1 and at 4 threads,
//! * a compiled study plan names a backend per job.

mod support;

use coldtall::array::Objective;
use coldtall::core::{Backend, BackendRegistry, Explorer, MemoryConfig};
use coldtall::tech::ProcessNode;
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
        match backend {
            Backend::CryoMem => {
                cryomem += 1;
                assert!(!config.technology().is_nonvolatile(), "{}", config.label());
                assert_eq!(config.dies(), 1, "{}", config.label());
            }
            Backend::Destiny => {
                destiny += 1;
                assert!(
                    config.technology().is_nonvolatile() || config.dies() > 1,
                    "{}",
                    config.label()
                );
            }
        }
    }
    // 4 single-die volatile points; 3 stacked SRAM + 24 eNVM points.
    assert_eq!((cryomem, destiny), (4, 27));
}

/// The equivalence guarantee: for every study design point,
/// the rule-dispatched characterization is bit-identical to the
/// pre-refactor direct lowering.
#[test]
fn backend_dispatch_is_bit_identical_to_direct_lowering() {
    let explorer = Explorer::with_defaults();
    let node = ProcessNode::ptm_22nm_hp();
    for config in MemoryConfig::study_set() {
        let via_registry = explorer.characterize(&config);
        let direct = config
            .to_spec(&node)
            .characterize(Objective::EnergyDelayProduct);
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
    assert_eq!(
        one.len(),
        MemoryConfig::study_set().len() * spec2017().len()
    );
    assert_eq!(one, four, "sweep rows must not depend on the thread count");
}

#[test]
fn compiled_study_plan_names_a_backend_per_job() {
    let explorer = Explorer::with_defaults();
    let plan = explorer
        .plan_sweep(&MemoryConfig::study_set())
        .expect("the study compiles");
    assert_eq!(plan.jobs().len(), 31);
    let cryomem = plan
        .jobs()
        .iter()
        .filter(|j| j.backend() == Backend::CryoMem)
        .count();
    let destiny = plan
        .jobs()
        .iter()
        .filter(|j| j.backend() == Backend::Destiny)
        .count();
    assert_eq!((cryomem, destiny), (4, 27));
}

/// The migration guarantee: every design point the old exclusive
/// partition resolved keeps its backend under the priority rule.
/// The old rule was volatility/stack-height: Destiny took every
/// non-volatile point and stacked SRAM, CryoMEM took single-die
/// volatile arrays.
#[test]
fn registry_migration_preserves_every_resolved_point() {
    let registry = BackendRegistry::with_defaults();
    let mut checked = 0;
    for config in MemoryConfig::study_set() {
        for &t in coldtall::cryo::study_temperatures() {
            let point = config.clone().at_temperature(t);
            let expected = if point.technology().is_nonvolatile() || point.dies() > 1 {
                Backend::Destiny
            } else {
                Backend::CryoMem
            };
            let resolved = registry
                .resolve(&point)
                .unwrap_or_else(|e| panic!("{}: {e}", point.label()));
            assert_eq!(resolved, expected, "{}", point.label());
            checked += 1;
        }
    }
    assert_eq!(checked, 31 * 8);
}
