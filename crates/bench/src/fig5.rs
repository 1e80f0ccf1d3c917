//! Fig. 5: total LLC power and total LLC latency across the SPEC2017
//! suite at 77 K vs 350 K, relative to 350 K SRAM running `namd`
//! (power) and 350 K SRAM on the same benchmark (latency).

use coldtall_cell::MemoryTechnology;
use coldtall_core::report::{sci, TextTable};
use coldtall_core::{EvalArena, Explorer, MemoryConfig};
use coldtall_units::Kelvin;

/// The four configurations Fig. 5 plots.
fn configs() -> Vec<MemoryConfig> {
    vec![
        MemoryConfig::volatile_2d(MemoryTechnology::Sram, Kelvin::REFERENCE),
        MemoryConfig::volatile_2d(MemoryTechnology::Edram3T, Kelvin::REFERENCE),
        MemoryConfig::volatile_2d(MemoryTechnology::Sram, Kelvin::LN2),
        MemoryConfig::volatile_2d(MemoryTechnology::Edram3T, Kelvin::LN2),
    ]
}

/// Regenerates Fig. 5: one row per (benchmark, configuration) carrying
/// the traffic coordinates and the relative power (device-only and
/// including cooling) and relative latency series.
///
/// # Panics
///
/// Panics if a configuration stops resolving to a backend (none ever
/// does).
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    let plan = explorer
        .plan_sweep(&configs())
        .expect("the volatile study points resolve");
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let reference = explorer.reference_power().get();
    let mut table = TextTable::new(&[
        "benchmark",
        "reads_per_s",
        "writes_per_s",
        "config",
        "rel_power_no_cooling",
        "rel_power_cooled",
        "rel_latency",
    ]);
    // The arena is config-major; the figure prints benchmark-major.
    for (b, bench) in plan.benchmarks().iter().enumerate() {
        let reads = sci(bench.traffic.reads_per_sec);
        let writes = sci(bench.traffic.writes_per_sec);
        for (c, label) in arena.config_labels().iter().enumerate() {
            let row = arena.row_index(c, b);
            table.row(&[
                bench.name,
                &reads,
                &writes,
                label,
                &sci(arena.device_power_watts()[row] / reference),
                &sci(arena.relative_power()[row]),
                &sci(arena.relative_latency()[row]),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_workloads::spec2017;

    #[test]
    fn covers_suite_times_configs() {
        assert_eq!(run().len(), spec2017().len() * 4);
    }
}
