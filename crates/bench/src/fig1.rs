//! Fig. 1: total LLC power of the client CPU running `namd` at
//! temperatures between 77 K and 387 K, relative to 350 K SRAM.

use coldtall_cell::MemoryTechnology;
use coldtall_core::report::{sci, TextTable};
use coldtall_core::{EvalArena, Explorer, MemoryConfig};
use coldtall_cryo::{study_temperatures, CoolingSystem};
use coldtall_workloads::benchmark;

/// The technologies Fig. 1 plots.
const TECHNOLOGIES: [MemoryTechnology; 2] = [MemoryTechnology::Sram, MemoryTechnology::Edram3T];

/// Regenerates Fig. 1: one row per (technology, temperature) with total
/// LLC power relative to the 350 K SRAM reference — without cooling and
/// under each cryocooler capacity tier.
///
/// # Panics
///
/// Panics if the reference benchmark is missing (it never is).
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    let namd = benchmark("namd").expect("namd present");
    // One plane per (technology, temperature, cooling tier), tiers
    // innermost in `CoolingSystem::ALL` order (100 kW first), under
    // `namd` alone.
    let configs: Vec<MemoryConfig> = TECHNOLOGIES
        .iter()
        .flat_map(|&tech| {
            study_temperatures().iter().flat_map(move |&t| {
                CoolingSystem::ALL
                    .map(|cooling| MemoryConfig::volatile_2d(tech, t).with_cooling(cooling))
            })
        })
        .collect();
    let plan = explorer
        .plan_sweep_over(&configs, std::slice::from_ref(namd))
        .expect("the volatile sweep resolves");
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let reference = explorer.reference_power().get();
    let mut table = TextTable::new(&[
        "technology",
        "temp_K",
        "rel_power_no_cooling",
        "rel_power_100kW",
        "rel_power_1kW",
        "rel_power_100W",
        "rel_power_10W",
    ]);
    let tiers = CoolingSystem::ALL.len();
    let points = TECHNOLOGIES
        .iter()
        .flat_map(|&tech| study_temperatures().iter().map(move |&t| (tech, t)));
    for (group, (tech, t)) in points.enumerate() {
        let first = group * tiers;
        // Device power ignores the cooling tier: the uncooled figure
        // reads the first (100 kW) plane.
        let device = arena.device_power_watts()[arena.row_index(first, 0)];
        let [kw100, kw1, w100, w10] = std::array::from_fn(|tier| {
            sci(arena.relative_power()[arena.row_index(first + tier, 0)])
        });
        table.row(&[
            tech.name(),
            &format!("{:.0}", t.get()),
            &sci(device / reference),
            &kw100,
            &kw1,
            &w100,
            &w10,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_both_technologies_across_the_sweep() {
        let table = run();
        assert_eq!(table.len(), 2 * study_temperatures().len());
    }

    #[test]
    fn csv_round_trips() {
        let table = run();
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), table.len() + 1);
    }
}
