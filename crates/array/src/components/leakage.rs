//! Static (leakage) power of the array: cells plus periphery.

use coldtall_units::Watts;

use super::{Ctx, TempCtx};
use crate::calib;

/// Effective leaking transistor width in microns over the candidate's
/// peripheral silicon. Temperature-invariant, so the SoA kernel lowers
/// it into a per-candidate column at solve time.
pub(crate) fn width_um_f(periph_area: f64) -> f64 {
    periph_area * calib::PERIPH_WIDTH_DENSITY_PER_M2 * 1e6
}

/// Periphery leakage power from the candidate's effective width.
pub(crate) fn periphery_raw(tc: &TempCtx, width_um: f64) -> Watts {
    let current = tc.periph_leak_per_um * width_um;
    current * tc.vdd_v * tc.periph_bias_factor
}

/// Total static power from the candidate's effective periphery width.
pub(crate) fn total_raw(tc: &TempCtx, width_um: f64) -> Watts {
    tc.cell_leakage + periphery_raw(tc, width_um)
}

/// Leakage power of the storage cells. Candidate-invariant, so
/// [`TempCtx`] precomputes the whole value once per temperature.
pub fn cell_leakage(ctx: &Ctx<'_>) -> Watts {
    ctx.temp.cell_leakage
}

/// Leakage power of the peripheral circuitry: decoders, drivers, sense
/// amplifiers, H-tree repeaters, and the global floor, modelled as an
/// effective leaking transistor-width density over the peripheral
/// silicon. Current-sense arrays carry an additional static-bias factor
/// (reference generation and current-mode sense amplifiers).
pub fn periphery_leakage(ctx: &Ctx<'_>) -> Watts {
    periphery_raw(&ctx.temp, width_um_f(ctx.geom.periph_area))
}

/// Total static power.
pub fn total(ctx: &Ctx<'_>) -> Watts {
    cell_leakage(ctx) + periphery_leakage(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::Organization;
    use crate::spec::ArraySpec;
    use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
    use coldtall_tech::ProcessNode;
    use coldtall_units::Kelvin;

    fn ctx_build(cell: CellModel) -> (ArraySpec, Organization) {
        let node = ProcessNode::ptm_22nm_hp();
        (
            ArraySpec::llc_16mib(cell, &node),
            Organization::new(512, 1024),
        )
    }

    #[test]
    fn sram_16mib_leaks_about_half_a_watt_at_350k() {
        let node = ProcessNode::ptm_22nm_hp();
        let (spec, org) = ctx_build(CellModel::sram(&node));
        let p = total(&Ctx::new(&spec, org)).get();
        assert!(p > 0.25 && p < 1.0, "SRAM leakage = {p} W");
    }

    #[test]
    fn envm_leaks_only_in_periphery() {
        let node = ProcessNode::ptm_22nm_hp();
        let pcm = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &node);
        let (spec, org) = ctx_build(pcm);
        let ctx = Ctx::new(&spec, org);
        assert_eq!(cell_leakage(&ctx).get(), 0.0);
        assert!(periphery_leakage(&ctx).get() > 0.0);
    }

    #[test]
    fn envm_total_leak_is_fraction_of_sram_not_orders_below() {
        // Fig. 7 anchor: eNVM LLC power floors sit 2-10x below SRAM, not
        // a thousand-fold below, because periphery still leaks.
        let node = ProcessNode::ptm_22nm_hp();
        let (sram_spec, org) = ctx_build(CellModel::sram(&node));
        let sram = total(&Ctx::new(&sram_spec, org)).get();
        for tp in Tentpole::BOTH {
            let pcm = CellModel::tentpole(MemoryTechnology::Pcm, tp, &node);
            let (spec, _) = ctx_build(pcm);
            let envm = total(&Ctx::new(&spec, org)).get();
            let ratio = sram / envm;
            assert!(
                ratio > 2.0 && ratio < 80.0,
                "{tp}: SRAM/eNVM leak = {ratio}"
            );
        }
    }

    #[test]
    fn cryo_kills_periphery_leakage_too() {
        let node = ProcessNode::ptm_22nm_hp();
        let warm =
            ArraySpec::llc_16mib(CellModel::sram(&node), &node).at_temperature(Kelvin::REFERENCE);
        let cold =
            ArraySpec::llc_16mib(CellModel::sram(&node), &node).at_temperature_cryo(Kelvin::LN2);
        let org = Organization::new(512, 1024);
        let ratio = total(&Ctx::new(&cold, org)) / total(&Ctx::new(&warm, org));
        assert!(ratio < 1e-4, "cryo leak ratio = {ratio:e}");
    }
}
