//! Ablation: error-correction strength.
//!
//! NVMExplorer's application inputs include fault-tolerance demands;
//! this study quantifies what stepping from no ECC through SECDED to a
//! BCH-class code costs each technology in area, energy, and latency.

use coldtall_array::{ArraySpec, EccScheme, Objective};
use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall_core::report::{sci, TextTable};
use coldtall_tech::ProcessNode;

/// One row per (technology, scheme), relative to that technology's
/// no-ECC configuration.
#[must_use]
pub fn run() -> TextTable {
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let mut table = TextTable::new(&[
        "technology",
        "ecc",
        "correctable_bits",
        "rel_area",
        "rel_read_energy",
        "rel_read_latency",
    ]);
    for tech in [
        MemoryTechnology::Sram,
        MemoryTechnology::Pcm,
        MemoryTechnology::SttRam,
    ] {
        let cell = CellModel::tentpole(tech, Tentpole::Optimistic, &node);
        let bare = ArraySpec::llc_16mib(cell.clone(), &node)
            .with_ecc_scheme(EccScheme::None)
            .characterize(objective);
        for scheme in EccScheme::ALL {
            let a = ArraySpec::llc_16mib(cell.clone(), &node)
                .with_ecc_scheme(scheme)
                .characterize(objective);
            table.row(&[
                tech.name(),
                &scheme.to_string(),
                &scheme.correctable_bits().to_string(),
                &sci(a.footprint / bare.footprint),
                &sci(a.read_energy / bare.read_energy),
                &sci(a.read_latency / bare.read_latency),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_techs_three_schemes() {
        assert_eq!(run().len(), 9);
    }

    #[test]
    fn stronger_codes_cost_more_area_and_energy() {
        let csv = run().to_csv();
        let col = |scheme: &str, idx: usize| -> f64 {
            csv.lines()
                .find(|l| l.starts_with("SRAM") && l.contains(scheme))
                .and_then(|l| l.split(',').nth(idx))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(col("SECDED", 3) > col("no-ECC", 3));
        assert!(col("BCH", 3) > col("SECDED", 3));
        assert!(col("BCH", 4) > col("no-ECC", 4));
        // SECDED costs roughly its 12.5% storage overhead in area.
        let secded_area = col("SECDED", 3);
        assert!(
            (1.05..1.25).contains(&secded_area),
            "SECDED area = {secded_area}"
        );
    }
}
