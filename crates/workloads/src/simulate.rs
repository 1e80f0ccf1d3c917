//! Driving the cache simulator with synthetic benchmark streams.

use coldtall_cachesim::{CpuConfig, Hierarchy, LlcTraffic};
use coldtall_units::Seconds;

use crate::generator::AccessGenerator;
use crate::profile::Benchmark;

/// Simulates `benchmark` as a SPECrate run — one synthetic copy per
/// core — through the cache hierarchy and extrapolates LLC traffic to
/// continuous operation.
///
/// `accesses_per_core` trades accuracy for runtime; a few hundred
/// thousand accesses per core reaches steady state for the working sets
/// in the suite. The conversion to wall-clock time follows the paper's
/// methodology: each core retires `instructions_per_access` instructions
/// per data access at the benchmark's IPC and the configured clock.
///
/// # Panics
///
/// Panics if `accesses_per_core` is zero.
#[must_use]
pub fn simulate_traffic(
    benchmark: &Benchmark,
    config: CpuConfig,
    accesses_per_core: u64,
    seed: u64,
) -> LlcTraffic {
    assert!(accesses_per_core > 0, "need at least one access per core");
    let mut hierarchy = Hierarchy::new(config);
    let mut generators: Vec<_> = (0..config.cores)
        .map(|core| AccessGenerator::new(benchmark.generator, core, seed))
        .collect();

    // Deterministic coverage warm-up: sweep each core's working set once
    // (capped for the streaming giants, which miss regardless) so that
    // cache-resident workloads reach their steady quiet state instead of
    // reporting compulsory-miss transients.
    const WARMUP_SWEEP_LINE_CAP: u64 = 131_072; // 8 MiB of lines
    let ws_lines = (benchmark.generator.working_set_bytes / 64).max(1);
    let sweep_lines = ws_lines.min(WARMUP_SWEEP_LINE_CAP);
    for core in 0..config.cores {
        let base = u64::from(core) << 40;
        for line in 0..sweep_lines {
            hierarchy.access(coldtall_cachesim::MemoryAccess::data_read(
                core,
                base + line * 64,
            ));
        }
    }

    // Random warm-up continues locality convergence, then measurement.
    let warmup = accesses_per_core / 2;
    for step in 0..(warmup + accesses_per_core) {
        if step == warmup {
            hierarchy.reset_stats();
        }
        for generator in &mut generators {
            let access = generator.next().expect("generators are infinite");
            hierarchy.access(access);
        }
    }
    let instructions_per_core =
        accesses_per_core as f64 * benchmark.generator.instructions_per_access;
    let cycles = instructions_per_core / benchmark.ipc;
    let execution_time = Seconds::new(cycles / config.frequency.get());
    LlcTraffic::from_simulation(&hierarchy, execution_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::benchmark;

    #[test]
    fn quiet_and_busy_benchmarks_order_correctly() {
        let config = CpuConfig::skylake_desktop();
        let quiet = simulate_traffic(benchmark("povray").unwrap(), config, 40_000, 1);
        let busy = simulate_traffic(benchmark("mcf").unwrap(), config, 40_000, 1);
        assert!(
            busy.reads_per_sec > 20.0 * quiet.reads_per_sec,
            "mcf ({:.3e}/s) must dwarf povray ({:.3e}/s)",
            busy.reads_per_sec,
            quiet.reads_per_sec
        );
    }

    #[test]
    fn write_heavy_benchmark_produces_llc_writes() {
        let config = CpuConfig::skylake_desktop();
        let lbm = simulate_traffic(benchmark("lbm").unwrap(), config, 40_000, 2);
        assert!(lbm.writes_per_sec > 0.0);
        assert!(
            lbm.write_fraction() > 0.15,
            "lbm writes = {}",
            lbm.write_fraction()
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let config = CpuConfig::skylake_desktop();
        let a = simulate_traffic(benchmark("gcc").unwrap(), config, 10_000, 3);
        let b = simulate_traffic(benchmark("gcc").unwrap(), config, 10_000, 3);
        assert_eq!(a, b);
    }
}
