//! Wordline model: a distributed RC line loaded by access gates.

use coldtall_units::{Farads, Joules, Meters, Seconds};

use super::{Ctx, TempCtx};

/// Wordline length across the subarray, in meters.
pub(crate) fn length_m(cols: f64, cell_width: f64) -> f64 {
    cols * cell_width
}

/// Total gate load hanging on one wordline, in farads.
pub(crate) fn gate_load_f(gate_cap_min: f64, cols: f64) -> f64 {
    gate_cap_min * cols
}

/// Wordline rise delay from the candidate's scalar inputs (the single
/// formula site shared by the `Ctx` path and the SoA kernel).
pub(crate) fn delay_raw(tc: &TempCtx, wl_length_m: f64, wl_gate_load_f: f64) -> Seconds {
    tc.local_wire.distributed_delay_with_ratio(
        Meters::new(wl_length_m),
        tc.ratio,
        tc.wl_r_drive,
        Farads::new(wl_gate_load_f),
    ) * tc.derate
}

/// Wordline switching energy from the candidate's scalar inputs.
pub(crate) fn energy_raw(tc: &TempCtx, wl_length_m: f64, wl_gate_load_f: f64) -> Joules {
    let c_total = tc.local_wire.capacitance(Meters::new(wl_length_m)) + Farads::new(wl_gate_load_f);
    Joules::new(c_total.get() * tc.vdd * tc.vdd)
}

/// Wordline rise delay: driver resistance into the distributed line.
pub fn delay(ctx: &Ctx<'_>) -> Seconds {
    let cols = ctx.cols_f();
    delay_raw(
        &ctx.temp,
        length_m(cols, ctx.geom.cell_width),
        gate_load_f(ctx.temp.gate_cap_min.get(), cols),
    )
}

/// Wordline switching energy per activation.
pub fn energy(ctx: &Ctx<'_>) -> Joules {
    let cols = ctx.cols_f();
    energy_raw(
        &ctx.temp,
        length_m(cols, ctx.geom.cell_width),
        gate_load_f(ctx.temp.gate_cap_min.get(), cols),
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

    #[test]
    fn wider_subarrays_have_slower_wordlines() {
        let node = ProcessNode::ptm_22nm_hp();
        let spec = ArraySpec::llc_16mib(CellModel::sram(&node), &node);
        let narrow = Ctx::new(&spec, Organization::new(512, 256));
        let wide = Ctx::new(&spec, Organization::new(512, 4096));
        assert!(delay(&wide) > delay(&narrow));
        assert!(energy(&wide) > energy(&narrow));
    }

    #[test]
    fn cryo_wordline_is_faster() {
        let node = ProcessNode::ptm_22nm_hp();
        let warm =
            ArraySpec::llc_16mib(CellModel::sram(&node), &node).at_temperature(Kelvin::REFERENCE);
        let cold =
            ArraySpec::llc_16mib(CellModel::sram(&node), &node).at_temperature_cryo(Kelvin::LN2);
        let org = Organization::new(512, 1024);
        let d_warm = delay(&Ctx::new(&warm, org));
        let d_cold = delay(&Ctx::new(&cold, org));
        assert!(d_cold.get() < d_warm.get() * 0.6);
    }
}
