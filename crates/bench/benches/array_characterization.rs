//! Wall-clock benchmarks of the array-characterization engine: the
//! inner loop behind every figure (NVSim/Destiny/CryoMEM-equivalent
//! work). Std-only timing — the offline workspace has no criterion.

use coldtall_array::{ArraySpec, Objective, OrgGeometry};
use coldtall_bench::timing::{report, time};
use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall_tech::ProcessNode;
use coldtall_units::Kelvin;

const ITERS: u32 = 10;

fn main() {
    let node = ProcessNode::ptm_22nm_hp();
    let mut samples = Vec::new();

    for tech in [
        MemoryTechnology::Sram,
        MemoryTechnology::Edram3T,
        MemoryTechnology::Pcm,
        MemoryTechnology::SttRam,
    ] {
        let cell = CellModel::tentpole(tech, Tentpole::Optimistic, &node);
        let spec = ArraySpec::llc_16mib(cell, &node);
        samples.push(time(
            &format!("characterize_16mib/{}", tech.name()),
            ITERS,
            || spec.characterize(Objective::EnergyDelayProduct),
        ));
    }

    for dies in [1u8, 2, 4, 8] {
        let cell = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &node);
        let mut spec = ArraySpec::llc_16mib(cell, &node);
        if dies > 1 {
            spec = spec.with_dies(dies);
        }
        samples.push(time(
            &format!("characterize_stacked_pcm/{dies}"),
            ITERS,
            || spec.characterize(Objective::EnergyDelayProduct),
        ));
    }

    let spec = ArraySpec::llc_16mib(CellModel::sram(&node), &node);
    samples.push(time("characterize_cryo_sweep", ITERS, || {
        OrgGeometry::solve(&spec).characterize_temps(
            coldtall_cryo::study_temperatures(),
            Objective::EnergyDelayProduct,
        )
    }));
    samples.push(time("characterize_77k_single", ITERS, || {
        spec.clone()
            .at_temperature_cryo(Kelvin::LN2)
            .characterize(Objective::EnergyDelayProduct)
    }));

    report("array characterization", &samples);
}
