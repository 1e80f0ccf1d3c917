//! Fig. 6: array-level characterization of 2D and 3D eNVMs (and stacked
//! SRAM) at 350 K, relative to 16 MiB 2D SRAM.

use coldtall_array::{ArraySpec, Objective};
use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall_core::report::{sci, TextTable};
use coldtall_tech::ProcessNode;

/// Regenerates Fig. 6: one row per (technology, tentpole, die count)
/// with 2D footprint, read/write energy-per-bit, and read/write latency
/// relative to 1-die SRAM at 350 K.
#[must_use]
pub fn run() -> TextTable {
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let base = ArraySpec::llc_16mib(CellModel::sram(&node), &node).characterize(objective);

    let mut table = TextTable::new(&[
        "technology",
        "tentpole",
        "dies",
        "rel_area",
        "rel_read_energy_per_bit",
        "rel_write_energy_per_bit",
        "rel_read_latency",
        "rel_write_latency",
        "rel_leakage_power",
    ]);
    let techs = [
        MemoryTechnology::Sram,
        MemoryTechnology::Pcm,
        MemoryTechnology::SttRam,
        MemoryTechnology::Rram,
    ];
    for tech in techs {
        let tentpoles: &[Tentpole] = if tech == MemoryTechnology::Sram {
            &[Tentpole::Optimistic]
        } else {
            &Tentpole::BOTH
        };
        for &tentpole in tentpoles {
            let tentpole_label = if tech == MemoryTechnology::Sram {
                "-".to_string()
            } else {
                tentpole.to_string()
            };
            for dies in [1u8, 2, 4, 8] {
                let cell = CellModel::tentpole(tech, tentpole, &node);
                let mut spec = ArraySpec::llc_16mib(cell, &node);
                if dies > 1 {
                    spec = spec.with_dies(dies);
                }
                let a = spec.characterize(objective);
                table.row(&[
                    tech.name(),
                    &tentpole_label,
                    &dies.to_string(),
                    &sci(a.footprint / base.footprint),
                    &sci(a.read_energy_per_bit() / base.read_energy_per_bit()),
                    &sci(a.write_energy_per_bit() / base.write_energy_per_bit()),
                    &sci(a.read_latency / base.read_latency),
                    &sci(a.write_latency / base.write_latency),
                    &sci(a.leakage_power / base.leakage_power),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_per_configuration() {
        // SRAM x 4 dies + 3 eNVMs x 2 tentpoles x 4 dies.
        assert_eq!(run().len(), 4 + 3 * 2 * 4);
    }
}
