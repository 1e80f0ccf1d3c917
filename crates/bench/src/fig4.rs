//! Fig. 4: total LLC power for `namd` and `leela` at room temperature,
//! cryogenic temperature, and cryogenic temperature including cooling.

use coldtall_cell::MemoryTechnology;
use coldtall_core::report::{sci, TextTable};
use coldtall_core::{EvalArena, Explorer, MemoryConfig};
use coldtall_units::Kelvin;

/// The volatile technologies Fig. 4 plots.
const TECHNOLOGIES: [MemoryTechnology; 2] = [MemoryTechnology::Sram, MemoryTechnology::Edram3T];

/// Regenerates Fig. 4: for the `namd` and `leela` benchmarks and both
/// volatile technologies, total LLC power at 350 K, at 77 K without
/// cooling, and at 77 K including the 100 kW-class cooling overhead —
/// relative to 350 K SRAM running `namd`.
///
/// # Panics
///
/// Panics if either benchmark is missing (they never are).
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    // Planes: per technology, 350 K then 77 K.
    let configs: Vec<MemoryConfig> = TECHNOLOGIES
        .iter()
        .flat_map(|&tech| {
            [Kelvin::REFERENCE, Kelvin::LN2].map(|t| MemoryConfig::volatile_2d(tech, t))
        })
        .collect();
    let plan = explorer
        .plan_sweep(&configs)
        .expect("the volatile study points resolve");
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let (power, device) = (arena.relative_power(), arena.device_power_watts());
    let reference = explorer.reference_power().get();
    let mut table = TextTable::new(&[
        "benchmark",
        "technology",
        "rel_power_350K",
        "rel_power_77K",
        "rel_power_77K_cooled",
    ]);
    for bench_name in ["namd", "leela"] {
        let b = arena
            .benchmark_names()
            .iter()
            .position(|&name| name == bench_name)
            .expect("benchmark present");
        for (i, tech) in TECHNOLOGIES.iter().enumerate() {
            let (warm, cold) = (arena.row_index(2 * i, b), arena.row_index(2 * i + 1, b));
            table.row_owned(vec![
                bench_name.to_string(),
                tech.name().to_string(),
                sci(power[warm]),
                sci(device[cold] / reference),
                sci(power[cold]),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_rows() {
        assert_eq!(run().len(), 4);
    }
}
