//! 3D-stacking ablation: die counts and integration styles.
//!
//! ```sh
//! cargo run --release --example stacking_study
//! ```
//!
//! Reproduces the Fig. 6 trade-off space interactively: how footprint,
//! latency, energy, and leakage respond to stacking 1-8 dies, and what
//! the integration style (face-to-face, face-to-back, monolithic)
//! changes — the paper's Section II-C trade-offs.

use coldtall::array::{ArraySpec, Objective, Stacking};
use coldtall::cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall::core::report::{sci, TextTable};
use coldtall::tech::ProcessNode;

fn main() {
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let base = ArraySpec::llc_16mib(CellModel::sram(&node), &node).characterize(objective);

    println!("Die-count ablation (face-to-back TSV stacking), relative to 2D SRAM\n");
    let mut table = TextTable::new(&[
        "technology",
        "dies",
        "rel_area",
        "rel_read_lat",
        "rel_write_lat",
        "rel_read_energy",
        "rel_leakage",
    ]);
    for tech in [
        MemoryTechnology::Sram,
        MemoryTechnology::Pcm,
        MemoryTechnology::SttRam,
        MemoryTechnology::Rram,
    ] {
        for dies in [1u8, 2, 4, 8] {
            let cell = CellModel::tentpole(tech, Tentpole::Optimistic, &node);
            let mut spec = ArraySpec::llc_16mib(cell, &node);
            if dies > 1 {
                spec = spec.with_dies(dies);
            }
            let a = spec.characterize(objective);
            table.row(&[
                tech.name(),
                &dies.to_string(),
                &sci(a.footprint / base.footprint),
                &sci(a.read_latency / base.read_latency),
                &sci(a.write_latency / base.write_latency),
                &sci(a.read_energy / base.read_energy),
                &sci(a.leakage_power / base.leakage_power),
            ]);
        }
    }
    print!("{}", table.render());

    println!("\nIntegration-style ablation (2 dies, STT-RAM optimistic)\n");
    let mut styles = TextTable::new(&[
        "stacking",
        "max_dies",
        "rel_area",
        "rel_read_lat",
        "rel_read_energy",
    ]);
    for stacking in [Stacking::FaceToFace, Stacking::FaceToBack, Stacking::Monolithic] {
        let cell = CellModel::tentpole(MemoryTechnology::SttRam, Tentpole::Optimistic, &node);
        let spec = ArraySpec::llc_16mib(cell, &node).with_stacking(stacking, 2);
        let a = spec.characterize(objective);
        styles.row(&[
            &stacking.to_string(),
            &stacking.max_dies().to_string(),
            &sci(a.footprint / base.footprint),
            &sci(a.read_latency / base.read_latency),
            &sci(a.read_energy / base.read_energy),
        ]);
    }
    print!("{}", styles.render());
    println!(
        "\nFace-to-face bonds are dense but stop at two layers; monolithic\n\
         vias are densest but derate upper-layer devices (Section II-C)."
    );
}
