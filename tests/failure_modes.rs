//! Failure injection: every documented panic across the stack fires
//! with its documented message, and invalid configurations cannot slip
//! through silently.

use coldtall::array::{ArraySpec, Objective, Stacking};
use coldtall::cachesim::{CacheConfig, CpuConfig, Hierarchy, MemoryAccess};
use coldtall::cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall::core::MemoryConfig;
use coldtall::tech::{OperatingPoint, ProcessNode};
use coldtall::units::{Capacity, Kelvin, Volts, Watts};

fn catch(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(f);
    std::panic::set_hook(hook);
    match result {
        Ok(()) => panic!("expected a panic"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default(),
    }
}

#[test]
fn units_reject_nonsense() {
    assert!(catch(|| {
        let _ = Kelvin::new(-3.0);
    })
    .contains("finite and positive"));
    assert!(catch(|| {
        let _ = coldtall::units::Seconds::new(f64::NAN);
    })
    .contains("NaN"));
}

#[test]
fn tech_rejects_nonsense() {
    let node = ProcessNode::ptm_22nm_hp();
    assert!(catch(|| {
        let _ = OperatingPoint::custom(Kelvin::ROOM, Volts::new(-0.1), None);
    })
    .contains("positive"));
    assert!(catch(move || {
        let nmos = coldtall::tech::Mosfet::nmos(&node);
        let _ = nmos.with_vth_boost(Volts::new(-0.1));
    })
    .contains("non-negative"));
}

#[test]
fn array_rejects_impossible_configurations() {
    let node = ProcessNode::ptm_22nm_hp();
    let cell = CellModel::sram(&node);
    let spec = ArraySpec::llc_16mib(cell.clone(), &node);
    assert!(catch(move || {
        let _ = spec.with_stacking(Stacking::FaceToFace, 8);
    })
    .contains("does not support"));
    let spec2 = ArraySpec::llc_16mib(cell.clone(), &node);
    assert!(catch(move || {
        let _ = spec2.with_line_bits(0);
    })
    .contains("positive"));
    let spec3 = ArraySpec::llc_16mib(cell, &node);
    assert!(catch(move || {
        let _ = spec3.with_capacity(Capacity::from_bits(8));
    })
    .contains("at least one line"));
}

#[test]
fn tiny_capacities_still_characterize() {
    // Not a panic: the smallest sensible arrays must still work.
    let node = ProcessNode::ptm_22nm_hp();
    let cell = CellModel::tentpole(MemoryTechnology::SttRam, Tentpole::Optimistic, &node);
    let a = ArraySpec::new(cell, &node, Capacity::from_kibibytes(64))
        .characterize(Objective::EnergyDelayProduct);
    assert!(a.read_latency.get() > 0.0);
    assert!(a.footprint.as_mm2() < 2.0);
}

#[test]
fn cachesim_rejects_malformed_geometry() {
    assert!(catch(|| {
        let _ = CacheConfig::new(Capacity::from_bytes(96), 2, 64);
    })
    .contains("whole number of sets"));
    assert!(catch(|| {
        let mut h = Hierarchy::new(CpuConfig::skylake_desktop());
        h.access(MemoryAccess::data_read(99, 0));
    })
    .contains("out of range"));
}

#[test]
fn core_rejects_invalid_design_points() {
    assert!(catch(|| {
        let _ = MemoryConfig::envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, 5);
    })
    .contains("1, 2, 4, or 8"));
    assert!(catch(|| {
        let _ =
            coldtall::core::HybridLlc::new(MemoryConfig::sram_350k(), MemoryConfig::sram_350k(), 0);
    })
    .contains("between 1 and 15"));
}

#[test]
fn cryo_rejects_negative_power() {
    assert!(catch(|| {
        let _ =
            coldtall::cryo::CoolingSystem::Server100kW.wall_power(Watts::new(-1.0), Kelvin::LN2);
    })
    .contains("non-negative"));
    assert!(catch(|| {
        let _ = coldtall::cryo::overhead_for_capacity(Watts::new(0.0));
    })
    .contains("positive"));
}

#[test]
fn trace_parser_reports_line_numbers() {
    let err = coldtall::cachesim::trace::read_trace("0 R 0x40\nbogus\n".as_bytes()).unwrap_err();
    assert_eq!(err.line, 2);
}
