//! Windowed traffic extraction: time-varying LLC traffic from a
//! simulated run.
//!
//! Steady-state rates hide phase behaviour; this module slices a
//! benchmark's simulated execution into equal windows and reports the
//! LLC traffic of each, producing the phased input the dynamic
//! temperature scheduler consumes.

use coldtall_cachesim::{CpuConfig, Hierarchy, LlcTraffic};
use coldtall_units::Seconds;

use crate::generator::AccessGenerator;
use crate::profile::Benchmark;

/// Simulates `benchmark` and reports per-window LLC traffic.
///
/// The run is split into `windows` equal slices of
/// `accesses_per_core_per_window` accesses each (after a warm-up of one
/// window); each slice's LLC counts are extrapolated to rates using the
/// benchmark's IPC, exactly as [`crate::simulate_traffic`] does for the
/// whole run.
///
/// # Panics
///
/// Panics if `windows` or `accesses_per_core_per_window` is zero.
#[must_use]
pub fn windowed_traffic(
    benchmark: &Benchmark,
    config: CpuConfig,
    windows: usize,
    accesses_per_core_per_window: u64,
    seed: u64,
) -> Vec<LlcTraffic> {
    assert!(windows > 0, "need at least one window");
    assert!(
        accesses_per_core_per_window > 0,
        "windows must contain accesses"
    );
    let mut hierarchy = Hierarchy::new(config);
    let mut generators: Vec<_> = (0..config.cores)
        .map(|core| AccessGenerator::new(benchmark.generator, core, seed))
        .collect();

    let instructions_per_core =
        accesses_per_core_per_window as f64 * benchmark.generator.instructions_per_access;
    let window_time = Seconds::new(instructions_per_core / benchmark.ipc / config.frequency.get());

    let mut run_window = |hierarchy: &mut Hierarchy| {
        for _ in 0..accesses_per_core_per_window {
            for generator in &mut generators {
                hierarchy.access(generator.next().expect("generators are infinite"));
            }
        }
    };

    // Warm-up window, not reported.
    run_window(&mut hierarchy);

    let mut out = Vec::with_capacity(windows);
    for _ in 0..windows {
        hierarchy.reset_stats();
        run_window(&mut hierarchy);
        out.push(LlcTraffic::from_simulation(&hierarchy, window_time));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::benchmark;

    #[test]
    fn produces_the_requested_window_count() {
        let config = CpuConfig::skylake_desktop();
        let windows = windowed_traffic(benchmark("x264").unwrap(), config, 4, 2_000, 1);
        assert_eq!(windows.len(), 4);
        for w in &windows {
            assert!(w.reads_per_sec.is_finite());
        }
    }

    #[test]
    fn steady_benchmarks_have_stable_windows() {
        let config = CpuConfig::skylake_desktop();
        let windows = windowed_traffic(benchmark("gcc").unwrap(), config, 4, 4_000, 2);
        let rates: Vec<f64> = windows.iter().map(|w| w.reads_per_sec).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        for r in &rates {
            assert!(
                (r - mean).abs() / mean < 0.5,
                "window rate {r} strays from mean {mean}"
            );
        }
    }

    #[test]
    fn quiet_benchmarks_stay_quiet_per_window() {
        let config = CpuConfig::skylake_desktop();
        let quiet = windowed_traffic(benchmark("povray").unwrap(), config, 2, 4_000, 3);
        let busy = windowed_traffic(benchmark("mcf").unwrap(), config, 2, 4_000, 3);
        assert!(quiet[0].reads_per_sec < busy[0].reads_per_sec / 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn zero_windows_rejected() {
        let config = CpuConfig::skylake_desktop();
        let _ = windowed_traffic(benchmark("gcc").unwrap(), config, 0, 100, 0);
    }
}
