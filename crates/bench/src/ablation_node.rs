//! Ablation: process-node scaling of the 16 MiB LLC.
//!
//! The study is pinned at 22 nm (Table I); this ablation sweeps the
//! array engine across 45/32/22/16 nm nodes to check that the
//! technology-ranking conclusions are not an artifact of the node
//! choice.

use coldtall_array::{ArraySpec, Objective};
use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall_core::report::{sci, TextTable};
use coldtall_tech::ProcessNode;

/// One row per (node, technology): absolute footprint plus read
/// latency/energy relative to that node's own 2D SRAM.
#[must_use]
pub fn run() -> TextTable {
    let mut table = TextTable::new(&[
        "node",
        "technology",
        "footprint_mm2",
        "rel_read_latency",
        "rel_read_energy",
        "leakage_W",
    ]);
    for node in ProcessNode::scaling_set() {
        let base = ArraySpec::llc_16mib(CellModel::sram(&node), &node)
            .characterize(Objective::EnergyDelayProduct);
        for tech in [
            MemoryTechnology::Sram,
            MemoryTechnology::Edram3T,
            MemoryTechnology::Pcm,
            MemoryTechnology::SttRam,
        ] {
            let cell = CellModel::tentpole(tech, Tentpole::Optimistic, &node);
            let a = ArraySpec::llc_16mib(cell, &node).characterize(Objective::EnergyDelayProduct);
            table.row(&[
                node.name(),
                tech.name(),
                &format!("{:.2}", a.footprint.as_mm2()),
                &sci(a.read_latency / base.read_latency),
                &sci(a.read_energy / base.read_energy),
                &sci(a.leakage_power.get()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_nodes_by_four_technologies() {
        assert_eq!(run().len(), 16);
    }

    #[test]
    fn finer_nodes_yield_smaller_sram() {
        let csv = run().to_csv();
        let footprint = |node: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(node) && l.contains("SRAM,"))
                .and_then(|l| l.split(',').nth(2))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(footprint("PTM 45nm HP") > footprint("PTM 22nm HP"));
    }

    #[test]
    fn pcm_stays_denser_than_sram_on_every_node() {
        let csv = run().to_csv();
        for node in ["PTM 45nm HP", "PTM 32nm HP", "PTM 22nm HP"] {
            let get = |tech: &str| -> f64 {
                csv.lines()
                    .find(|l| l.starts_with(node) && l.contains(&format!("{tech},")))
                    .and_then(|l| l.split(',').nth(2))
                    .unwrap()
                    .parse()
                    .unwrap()
            };
            assert!(get("PCM") < get("SRAM"), "{node}: PCM must stay denser");
        }
    }
}
