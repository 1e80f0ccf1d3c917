//! Sense-amplifier and cell-intrinsic access model.
//!
//! Every quantity here is candidate-invariant (it reads the cell, the
//! operating point, and the stacking style, never the organization), so
//! [`super::TempCtx`] precomputes the whole values once per temperature
//! and these functions are plain reads.

use coldtall_units::{Joules, Seconds};

use super::Ctx;

/// Sensing delay: the cell's intrinsic sense time scaled by the device
/// speed at the operating point (sense amplifiers are device-limited).
pub fn delay(ctx: &Ctx<'_>) -> Seconds {
    ctx.temp.sense_delay
}

/// Sensing + cell-intrinsic read energy for one access.
pub fn read_energy(ctx: &Ctx<'_>) -> Joules {
    ctx.temp.sense_read_energy
}

/// Cell write-pulse delay (eNVM programming pulses or SRAM/eDRAM cell
/// flip time). Write pulses of resistive cells are thermally/physically
/// set and do not scale with device speed.
pub fn write_pulse(ctx: &Ctx<'_>) -> Seconds {
    ctx.temp.write_pulse
}

/// Cell-intrinsic write energy for one access. MTJ cells pay the
/// Δ(T)-driven switching-current factor of the operating temperature
/// (exactly 1.0 at the 350 K reference); all other cells are
/// temperature-flat here.
pub fn write_energy(ctx: &Ctx<'_>) -> Joules {
    ctx.temp.sense_write_energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::Organization;
    use crate::spec::ArraySpec;
    use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
    use coldtall_tech::ProcessNode;
    use coldtall_units::Kelvin;

    #[test]
    fn envm_write_pulse_is_temperature_insensitive() {
        let node = ProcessNode::ptm_22nm_hp();
        let pcm = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Pessimistic, &node);
        let warm = ArraySpec::llc_16mib(pcm.clone(), &node).at_temperature(Kelvin::REFERENCE);
        let cold = ArraySpec::llc_16mib(pcm, &node).at_temperature_cryo(Kelvin::LN2);
        let org = Organization::new(512, 1024);
        assert_eq!(
            write_pulse(&Ctx::new(&warm, org)),
            write_pulse(&Ctx::new(&cold, org))
        );
    }

    #[test]
    fn sram_write_pulse_speeds_up_at_cryo() {
        let node = ProcessNode::ptm_22nm_hp();
        let warm =
            ArraySpec::llc_16mib(CellModel::sram(&node), &node).at_temperature(Kelvin::REFERENCE);
        let cold =
            ArraySpec::llc_16mib(CellModel::sram(&node), &node).at_temperature_cryo(Kelvin::LN2);
        let org = Organization::new(512, 1024);
        assert!(write_pulse(&Ctx::new(&cold, org)) < write_pulse(&Ctx::new(&warm, org)));
    }

    #[test]
    fn envm_read_energy_dominated_by_cell_component() {
        let node = ProcessNode::ptm_22nm_hp();
        let pcm = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &node);
        let spec = ArraySpec::llc_16mib(pcm, &node);
        let ctx = Ctx::new(&spec, Organization::new(512, 1024));
        let e = read_energy(&ctx);
        // 576 bits * >=1.4 pJ/bit cell energy.
        assert!(e.get() > 0.5e-9, "eNVM read energy = {e}");
    }
}
