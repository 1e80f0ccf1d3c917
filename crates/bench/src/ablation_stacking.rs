//! Ablation: 3D integration styles (Section II-C trade-offs).
//!
//! Face-to-face bonding offers dense bond points but only two layers;
//! face-to-back TSVs scale to eight dies at coarser pitch; monolithic
//! vias are densest but derate upper-layer devices.

use coldtall_array::{ArraySpec, Objective, Stacking};
use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall_core::report::{sci, TextTable};
use coldtall_tech::ProcessNode;

/// One row per (technology, stacking style, die count) with the key
/// array metrics relative to that technology's own 2D configuration.
#[must_use]
pub fn run() -> TextTable {
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let mut table = TextTable::new(&[
        "technology",
        "stacking",
        "dies",
        "rel_area_vs_own_2d",
        "rel_read_latency_vs_own_2d",
        "rel_read_energy_vs_own_2d",
    ]);
    for tech in [
        MemoryTechnology::Sram,
        MemoryTechnology::SttRam,
        MemoryTechnology::Pcm,
    ] {
        let cell = CellModel::tentpole(tech, Tentpole::Optimistic, &node);
        let own_2d = ArraySpec::llc_16mib(cell.clone(), &node).characterize(objective);
        for (stacking, dies_set) in [
            (Stacking::FaceToFace, vec![2u8]),
            (Stacking::FaceToBack, vec![2, 4, 8]),
            (Stacking::Monolithic, vec![2, 4, 8]),
        ] {
            for dies in dies_set {
                let a = ArraySpec::llc_16mib(cell.clone(), &node)
                    .with_stacking(stacking, dies)
                    .characterize(objective);
                table.row(&[
                    tech.name(),
                    &stacking.to_string(),
                    &dies.to_string(),
                    &sci(a.footprint / own_2d.footprint),
                    &sci(a.read_latency / own_2d.read_latency),
                    &sci(a.read_energy / own_2d.read_energy),
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
    fn covers_three_techs_and_seven_configs_each() {
        assert_eq!(run().len(), 3 * 7);
    }

    #[test]
    fn face_to_face_beats_face_to_back_at_two_dies() {
        // Denser bond points mean less vertical-field area and energy.
        let csv = run().to_csv();
        let get = |style: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with("SRAM") && l.contains(style) && l.contains(",2,"))
                .and_then(|l| l.split(',').nth(3))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(get("3D face-to-face") <= get("3D face-to-back"));
    }
}
