//! Failure injection: every documented panic across the stack fires
//! with its documented message, and invalid configurations cannot slip
//! through silently.

use coldtall::array::{ArraySpec, Objective, Stacking};
use coldtall::cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall::core::MemoryConfig;
use coldtall::tech::{OperatingPoint, ProcessNode};
use coldtall::units::{Capacity, Kelvin, Volts, Watts};
use coldtall::workloads::{CacheConfig, LlcTraffic};

fn catch<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> String {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(f);
    std::panic::set_hook(hook);
    match result {
        Ok(_) => panic!("expected a panic"),
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

/// Each array builder refuses a geometry no array has, with the exact
/// text its `# Panics` section documents: the array layer stacks 1-8
/// dies, face-to-face bonding joins exactly two, a planar array is one
/// die, and the capacity must hold one non-empty line.
#[test]
fn array_rejects_impossible_configurations() {
    let node = ProcessNode::ptm_22nm_hp();
    let spec = ArraySpec::llc_16mib(CellModel::sram(&node), &node);
    for dies in [0u8, 9, 16, 255] {
        let spec = spec.clone();
        assert_eq!(
            catch(move || spec.with_dies(dies)),
            format!("unsupported die count {dies}")
        );
    }
    for (stacking, dies, style) in [
        (Stacking::FaceToFace, 4, "3D face-to-face"),
        (Stacking::FaceToFace, 8, "3D face-to-face"),
        (Stacking::Planar, 2, "2D"),
    ] {
        let spec = spec.clone();
        assert_eq!(
            catch(move || spec.with_stacking(stacking, dies)),
            format!("{style} does not support {dies} dies")
        );
    }
    for (capacity, text) in [
        (Capacity::from_bits(8), "(8 b < 512 b)"),
        (Capacity::from_bytes(8), "(64 b < 512 b)"),
    ] {
        let spec = spec.clone();
        assert_eq!(
            catch(move || spec.with_capacity(capacity)),
            format!("capacity must hold at least one line {text}")
        );
    }
    let zero_width = spec.clone();
    assert_eq!(
        catch(move || zero_width.with_line_bits(0)),
        "line width must be positive"
    );
    // Inside the limits the builders chain.
    let spec = spec.with_dies(8).with_line_bits(256);
    assert_eq!((spec.dies(), spec.line_bits()), (8, 256));
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
}

/// Idle traffic is legal; a NaN, infinite or negative rate panics
/// with the text `LlcTraffic::new` documents, naming the direction at
/// fault.
#[test]
fn traffic_rejects_non_finite_and_negative_rates() {
    assert_eq!(LlcTraffic::new(0.0, 0.0).total_per_sec(), 0.0);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, -1.0, -1e6] {
        assert_eq!(
            catch(move || LlcTraffic::new(bad, 1.0)),
            "read rate must be finite and non-negative",
            "read rate {bad}"
        );
        assert_eq!(
            catch(move || LlcTraffic::new(1.0, bad)),
            "write rate must be finite and non-negative",
            "write rate {bad}"
        );
    }
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
