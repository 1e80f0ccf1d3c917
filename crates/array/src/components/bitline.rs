//! Bitline model: capacitance, development time, and swing energy.

use coldtall_units::{Farads, Joules, Meters, Seconds};

use super::{Ctx, SenseKind, TempCtx};
use crate::calib;

/// Bitline length down the subarray, in meters.
pub(crate) fn length_m(rows: f64, cell_height: f64) -> f64 {
    rows * cell_height
}

/// Capacitance of one bitline in farads: junction load of every cell
/// plus the wire. Temperature-invariant, so the SoA kernel lowers it
/// into a per-candidate column at solve time.
pub(crate) fn capacitance_f(
    junction_half: Farads,
    c_per_m: Farads,
    rows: f64,
    cell_height: f64,
) -> f64 {
    let wire_cap = c_per_m * (rows * cell_height);
    (junction_half * rows + wire_cap).get()
}

/// Resistance of one bitline wire at the operating temperature.
fn resistance_raw(tc: &TempCtx, bl_length_m: f64) -> f64 {
    tc.local_wire
        .resistance_with_ratio(Meters::new(bl_length_m), tc.ratio)
        .get()
}

/// Bitline read time from the candidate's scalar inputs.
pub(crate) fn read_delay_raw(tc: &TempCtx, bl_cap_f: f64, bl_length_m: f64) -> Seconds {
    match tc.sense {
        SenseKind::Voltage { swing } => {
            Seconds::new(calib::BITLINE_MARGIN * bl_cap_f * swing / tc.cell_read_current)
        }
        SenseKind::Current => Seconds::new(0.38 * resistance_raw(tc, bl_length_m) * bl_cap_f),
    }
}

/// Bitline write time from the candidate's scalar inputs.
pub(crate) fn write_delay_raw(tc: &TempCtx, bl_cap_f: f64, bl_length_m: f64) -> Seconds {
    Seconds::new(0.69 * (tc.write_r_drive + resistance_raw(tc, bl_length_m)) * bl_cap_f)
}

/// Bitline read energy from the candidate's scalar inputs.
pub(crate) fn read_energy_raw(tc: &TempCtx, bl_cap_f: f64, cols: f64) -> Joules {
    let e = match tc.sense {
        SenseKind::Voltage { swing } => cols * bl_cap_f * tc.vdd * swing,
        SenseKind::Current => tc.transfer_bits * bl_cap_f * tc.vdd * tc.vdd * 0.25,
    };
    Joules::new(e * calib::DUAL_PORT_ENERGY_FACTOR)
}

/// Bitline write energy from the candidate's scalar inputs.
pub(crate) fn write_energy_raw(tc: &TempCtx, bl_cap_f: f64, cols: f64) -> Joules {
    let bits = tc.transfer_bits;
    let e = match tc.sense {
        SenseKind::Voltage { swing } => {
            bits * bl_cap_f * tc.vdd * tc.vdd + (cols - bits).max(0.0) * bl_cap_f * tc.vdd * swing
        }
        SenseKind::Current => bits * bl_cap_f * tc.vdd * tc.vdd,
    };
    Joules::new(e * calib::DUAL_PORT_ENERGY_FACTOR)
}

/// Capacitance of one bitline: junction load of every cell plus the wire.
pub fn capacitance(ctx: &Ctx<'_>) -> Farads {
    Farads::new(capacitance_f(
        ctx.temp.junction_half,
        ctx.temp.local_wire.capacitance_per_m(),
        ctx.rows_f(),
        ctx.geom.cell_height,
    ))
}

/// Bitline time on a read: swing development for voltage sensing, or the
/// wire RC flight time for current sensing (the sensing itself lives in
/// the cell's intrinsic read time).
pub fn read_delay(ctx: &Ctx<'_>) -> Seconds {
    read_delay_raw(
        &ctx.temp,
        capacitance(ctx).get(),
        length_m(ctx.rows_f(), ctx.geom.cell_height),
    )
}

/// Bitline time on a write: full-swing drive by the write driver.
pub fn write_delay(ctx: &Ctx<'_>) -> Seconds {
    write_delay_raw(
        &ctx.temp,
        capacitance(ctx).get(),
        length_m(ctx.rows_f(), ctx.geom.cell_height),
    )
}

/// Bitline energy on a read: every column in the activated row swings by
/// the sense margin (voltage sensing); current-sense arrays only charge
/// the selected columns' lines to the read voltage (folded into the
/// cell's read energy, so just the wire here).
pub fn read_energy(ctx: &Ctx<'_>) -> Joules {
    read_energy_raw(&ctx.temp, capacitance(ctx).get(), ctx.cols_f())
}

/// Bitline energy on a write: written columns swing fully; for
/// voltage-sense cells the rest of the activated row still swings by the
/// sense margin.
pub fn write_energy(ctx: &Ctx<'_>) -> Joules {
    write_energy_raw(&ctx.temp, capacitance(ctx).get(), ctx.cols_f())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::Organization;
    use crate::spec::ArraySpec;
    use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
    use coldtall_tech::ProcessNode;

    fn ctx_for(cell: CellModel) -> (ArraySpec, Organization) {
        let node = ProcessNode::ptm_22nm_hp();
        (
            ArraySpec::llc_16mib(cell, &node),
            Organization::new(512, 1024),
        )
    }

    #[test]
    fn taller_subarrays_have_heavier_bitlines() {
        let node = ProcessNode::ptm_22nm_hp();
        let spec = ArraySpec::llc_16mib(CellModel::sram(&node), &node);
        let short = Ctx::new(&spec, Organization::new(128, 512));
        let tall = Ctx::new(&spec, Organization::new(2048, 512));
        assert!(capacitance(&tall).get() > capacitance(&short).get() * 10.0);
        assert!(read_delay(&tall) > read_delay(&short));
    }

    #[test]
    fn sram_read_develops_in_fraction_of_ns_to_ns() {
        let node = ProcessNode::ptm_22nm_hp();
        let (spec, org) = ctx_for(CellModel::sram(&node));
        let ctx = Ctx::new(&spec, org);
        let ns = read_delay(&ctx).as_nanos();
        assert!(ns > 0.05 && ns < 3.0, "bitline develop = {ns} ns");
    }

    #[test]
    fn envm_bitline_flight_is_fast() {
        let node = ProcessNode::ptm_22nm_hp();
        let pcm = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &node);
        let (spec, org) = ctx_for(pcm);
        let ctx = Ctx::new(&spec, org);
        assert!(read_delay(&ctx).as_nanos() < 0.2);
    }

    #[test]
    fn write_energy_exceeds_read_energy_for_sram() {
        let node = ProcessNode::ptm_22nm_hp();
        let (spec, org) = ctx_for(CellModel::sram(&node));
        let ctx = Ctx::new(&spec, org);
        assert!(write_energy(&ctx) > read_energy(&ctx));
    }
}
