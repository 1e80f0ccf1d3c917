//! Fig. 3: array-level characterization of 16 MiB SRAM and 3T-eDRAM
//! under varying operating temperature, relative to 350 K SRAM.

use coldtall_array::{ArraySpec, Objective, OrgGeometry};
use coldtall_cell::{CellModel, MemoryTechnology};
use coldtall_core::report::{sci, TextTable};
use coldtall_cryo::study_temperatures;
use coldtall_tech::ProcessNode;
use coldtall_units::Kelvin;

/// Regenerates Fig. 3: read/write energy-per-bit, read/write latency,
/// and leakage power for SRAM and 3T-eDRAM from 77 K to 387 K, all
/// relative to SRAM at 350 K.
#[must_use]
pub fn run() -> TextTable {
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let base = ArraySpec::llc_16mib(CellModel::sram(&node), &node)
        .at_temperature(Kelvin::REFERENCE)
        .characterize(objective);

    let mut table = TextTable::new(&[
        "technology",
        "temp_K",
        "rel_read_energy_per_bit",
        "rel_write_energy_per_bit",
        "rel_read_latency",
        "rel_write_latency",
        "rel_leakage_power",
    ]);
    for tech in [MemoryTechnology::Sram, MemoryTechnology::Edram3T] {
        let cell = CellModel::tentpole(tech, coldtall_cell::Tentpole::Optimistic, &node);
        let geometry = OrgGeometry::solve(&ArraySpec::llc_16mib(cell, &node));
        let temps = study_temperatures();
        for (t, a) in temps
            .iter()
            .zip(geometry.characterize_temps(temps, objective))
        {
            table.row(&[
                tech.name(),
                &format!("{:.0}", t.get()),
                &sci(a.read_energy_per_bit() / base.read_energy_per_bit()),
                &sci(a.write_energy_per_bit() / base.write_energy_per_bit()),
                &sci(a.read_latency / base.read_latency),
                &sci(a.write_latency / base.write_latency),
                &sci(a.leakage_power / base.leakage_power),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_both_technologies() {
        let table = run();
        assert_eq!(table.len(), 2 * study_temperatures().len());
    }
}
