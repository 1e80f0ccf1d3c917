//! H-tree distribution network: request/response routing across a die.

use coldtall_units::{Joules, Seconds};

use super::{Ctx, TempCtx};
use crate::calib;

/// Routed path length in meters: request plus response across the die.
/// Temperature-invariant, so the SoA kernel lowers it (including the
/// square root) into a per-candidate column at solve time.
pub(crate) fn path_m(footprint: f64) -> f64 {
    calib::HTREE_PATH_FACTOR * footprint.sqrt()
}

/// H-tree delay from the candidate's routed path length.
pub(crate) fn delay_raw(tc: &TempCtx, path_m: f64) -> Seconds {
    tc.htree_delay_per_m * path_m * calib::HTREE_DELAY_MARGIN * tc.derate
}

/// H-tree energy from the candidate's path length and live content area.
pub(crate) fn energy_raw(tc: &TempCtx, path_m: f64, per_die_content: f64) -> Joules {
    let path = tc.htree_energy_per_m * (path_m * tc.wires);
    // The broadcast term spans only the live array content of the
    // accessed die; the global floor (pumps, IO) and TSV fields are
    // clock-gated when idle.
    let broadcast = Joules::new(
        calib::BROADCAST_ENERGY_PER_M2 * per_die_content * tc.vdd_ratio_08 * tc.vdd_ratio_08,
    );
    path + broadcast
}

/// H-tree delay: optimally repeated global wiring over the path, with a
/// conservatism margin covering bank-level routing and arbitration.
pub fn delay(ctx: &Ctx<'_>) -> Seconds {
    delay_raw(&ctx.temp, path_m(ctx.geom.footprint))
}

/// H-tree energy: the data line plus address/command wires over the path,
/// plus the broadcast/background term proportional to the die footprint
/// (clock and control distribution, partially-switched branches).
pub fn energy(ctx: &Ctx<'_>) -> Joules {
    energy_raw(
        &ctx.temp,
        path_m(ctx.geom.footprint),
        ctx.geom.per_die_content,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::Organization;
    use crate::spec::ArraySpec;
    use coldtall_cell::CellModel;
    use coldtall_tech::ProcessNode;
    use coldtall_units::Kelvin;

    fn ctx_dies(dies: u8) -> (ArraySpec, Organization) {
        let node = ProcessNode::ptm_22nm_hp();
        (
            ArraySpec::llc_16mib(CellModel::sram(&node), &node).with_dies(dies),
            Organization::new(512, 1024),
        )
    }

    #[test]
    fn stacking_shortens_the_htree() {
        let (s1, org) = ctx_dies(1);
        let (s8, _) = ctx_dies(8);
        let l1 = path_m(Ctx::new(&s1, org).geom.footprint);
        let l8 = path_m(Ctx::new(&s8, org).geom.footprint);
        assert!(l8 < l1 * 0.6);
    }

    #[test]
    fn htree_energy_drops_with_stacking() {
        let (s1, org) = ctx_dies(1);
        let (s8, _) = ctx_dies(8);
        let e1 = energy(&Ctx::new(&s1, org));
        let e8 = energy(&Ctx::new(&s8, org));
        assert!(e8.get() < e1.get() * 0.5);
    }

    #[test]
    fn cryo_htree_is_much_faster() {
        let node = ProcessNode::ptm_22nm_hp();
        let org = Organization::new(512, 1024);
        let warm =
            ArraySpec::llc_16mib(CellModel::sram(&node), &node).at_temperature(Kelvin::REFERENCE);
        let cold =
            ArraySpec::llc_16mib(CellModel::sram(&node), &node).at_temperature_cryo(Kelvin::LN2);
        let d_warm = delay(&Ctx::new(&warm, org));
        let d_cold = delay(&Ctx::new(&cold, org));
        let ratio = d_cold / d_warm;
        assert!(ratio < 0.5, "cryo H-tree ratio = {ratio}");
    }

    #[test]
    fn sram_2d_htree_energy_is_nanojoule_scale() {
        let (s1, org) = ctx_dies(1);
        let e = energy(&Ctx::new(&s1, org));
        assert!(e.get() > 0.5e-9 && e.get() < 5e-9, "htree energy = {e}");
    }
}
