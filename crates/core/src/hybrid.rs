//! Hybrid LLC architectures: a fast volatile partition in front of a
//! dense eNVM partition.
//!
//! The paper's related work (Section II-B) surveys SRAM/STT-RAM hybrid
//! caches with adaptive placement (Wang et al.) and PCM/SRAM hybrids
//! (Wu et al., Guo et al.): a few SRAM ways absorb the write-hot lines,
//! shielding the eNVM from its expensive writes while keeping its
//! density and low leakage for the read-mostly majority. This module
//! models that architecture at the same application level as the rest
//! of the exploration.

use coldtall_cell::CellModel;
use coldtall_units::{Capacity, Joules, Watts};
use coldtall_workloads::Benchmark;

use crate::config::MemoryConfig;
use crate::evaluate::{Feasibility, LlcEvaluation, RowValues};
use crate::explorer::Explorer;
use crate::lifetime::lifetime_years;

/// Exponent of the write-capture law: the fraction of writes the fast
/// partition absorbs is `fast_fraction ^ WRITE_CAPTURE_EXP`. Write-hot
/// lines are few and placement policies find them, so a small partition
/// captures most writes (e.g. 2 of 16 ways captures ~60%).
const WRITE_CAPTURE_EXP: f64 = 0.25;

/// Exponent of the read-capture law: reads are spread across the set,
/// so capture is closer to proportional.
const READ_CAPTURE_EXP: f64 = 0.8;

/// Fraction of dense-partition writes that trigger a migration into the
/// fast partition (each costing one fast write plus one dense read).
const MIGRATION_RATE: f64 = 0.05;

/// A hybrid LLC: a fast (volatile) partition of `fast_ways` ways and a
/// dense partition covering the rest of the 16-way capacity.
///
/// # Examples
///
/// ```
/// use coldtall_cell::{MemoryTechnology, Tentpole};
/// use coldtall_core::{Explorer, HybridLlc, MemoryConfig};
/// use coldtall_workloads::benchmark;
///
/// let hybrid = HybridLlc::new(
///     MemoryConfig::sram_350k(),
///     MemoryConfig::envm_3d(MemoryTechnology::SttRam, Tentpole::Optimistic, 4),
///     2,
/// );
/// let explorer = Explorer::with_defaults();
/// let eval = explorer.evaluate_hybrid(&hybrid, benchmark("lbm").unwrap());
/// // The SRAM ways shield the STT partition from the write storm.
/// assert!(eval.meets_lifetime_target());
/// assert!(eval.relative_latency.is_finite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HybridLlc {
    fast: MemoryConfig,
    dense: MemoryConfig,
    fast_ways: u8,
}

/// Total ways of the study LLC.
const TOTAL_WAYS: u8 = 16;

impl HybridLlc {
    /// Creates a hybrid with `fast_ways` of the 16 ways in the fast
    /// partition.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= fast_ways < 16`.
    #[must_use]
    pub fn new(fast: MemoryConfig, dense: MemoryConfig, fast_ways: u8) -> Self {
        assert!(
            (1..TOTAL_WAYS).contains(&fast_ways),
            "fast partition must hold between 1 and 15 of the 16 ways"
        );
        Self {
            fast,
            dense,
            fast_ways,
        }
    }

    /// The fast partition's configuration.
    #[must_use]
    pub fn fast(&self) -> &MemoryConfig {
        &self.fast
    }

    /// The dense partition's configuration.
    #[must_use]
    pub fn dense(&self) -> &MemoryConfig {
        &self.dense
    }

    /// Ways in the fast partition.
    #[must_use]
    pub fn fast_ways(&self) -> u8 {
        self.fast_ways
    }

    /// Capacity fraction of the fast partition.
    #[must_use]
    pub fn fast_fraction(&self) -> f64 {
        f64::from(self.fast_ways) / f64::from(TOTAL_WAYS)
    }

    /// Fraction of writes absorbed by the fast partition under the
    /// adaptive placement policy.
    #[must_use]
    pub fn write_capture(&self) -> f64 {
        self.fast_fraction().powf(WRITE_CAPTURE_EXP)
    }

    /// Fraction of reads served by the fast partition.
    #[must_use]
    pub fn read_capture(&self) -> f64 {
        self.fast_fraction().powf(READ_CAPTURE_EXP)
    }

    /// Display label, e.g. `"Hybrid SRAM+4-die STT-RAM (optimistic) (2/16 ways)"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "Hybrid {}+{} ({}/{} ways)",
            self.fast.label(),
            self.dense.label(),
            self.fast_ways,
            TOTAL_WAYS
        )
    }
}

impl Explorer {
    /// Evaluates a hybrid LLC under a benchmark's traffic.
    ///
    /// Each partition is characterized at its share of the 16 MiB
    /// capacity (memoized per (configuration, capacity), so another
    /// benchmark on the same hybrid characterizes nothing); traffic
    /// splits by the placement-capture laws, with a migration surcharge
    /// on dense-partition writes.
    #[must_use]
    pub fn evaluate_hybrid(&self, hybrid: &HybridLlc, benchmark: &Benchmark) -> LlcEvaluation {
        let total_bytes = Capacity::from_mebibytes(16).bytes();
        let fast_capacity = Capacity::from_bytes(total_bytes * u64::from(hybrid.fast_ways) / 16);
        let dense_capacity =
            Capacity::from_bytes(total_bytes * u64::from(16 - hybrid.fast_ways) / 16);
        let fast = self.characterize_partition(&hybrid.fast, fast_capacity);
        let dense = self.characterize_partition(&hybrid.dense, dense_capacity);
        // Lifetime needs only the dense cell's endurance model, which
        // resizing leaves untouched.
        let dense_cell = CellModel::tentpole(
            hybrid.dense.technology(),
            hybrid.dense.tentpole(),
            self.node(),
        );

        let traffic = benchmark.traffic;
        let (wc, rc) = (hybrid.write_capture(), hybrid.read_capture());
        let (r, w) = (traffic.reads_per_sec, traffic.writes_per_sec);
        let (r_fast, r_dense) = (r * rc, r * (1.0 - rc));
        let (w_fast, w_dense) = (w * wc, w * (1.0 - wc));
        let migrations = w_dense * MIGRATION_RATE;

        let dynamic = Joules::new(
            r_fast * fast.read_energy.get()
                + w_fast * fast.write_energy.get()
                + r_dense * dense.read_energy.get()
                + w_dense * dense.write_energy.get()
                + migrations * (fast.write_energy.get() + dense.read_energy.get()),
        );
        let standby = fast.standby_power() + dense.standby_power();
        let device = standby + Watts::new(dynamic.get());
        // Both partitions share the die: a cryogenic hybrid cools both.
        let wall = device * hybrid.fast.cooling().wall_factor(hybrid.fast.temperature());

        // Latency: traffic-weighted across partitions, normalized to the
        // baseline's raw service time on the same benchmark (undiluted,
        // matching the hybrid model's own undiluted partition sum).
        let service = r_fast * fast.read_latency.get()
            + w_fast * fast.write_latency.get()
            + r_dense * dense.read_latency.get()
            + w_dense * dense.write_latency.get();
        let baseline = self.baseline();
        let base_service = traffic.reads_per_sec * baseline.read_latency.get()
            + traffic.writes_per_sec * baseline.write_latency.get();
        let relative_latency = if base_service > 0.0 {
            service / base_service
        } else {
            1.0
        };

        let years = lifetime_years(&dense_cell, dense_capacity, 512, w_dense + migrations);

        let footprint_mm2 = fast.footprint.as_mm2() + dense.footprint.as_mm2();
        let utilization = fast
            .bandwidth_utilization(r_fast, w_fast)
            .max(dense.bandwidth_utilization(r_dense, w_dense));
        // The hybrid model has no refresh-dead partition (its fast side
        // is volatile SRAM/eDRAM kept serviceable by construction), so
        // the verdict reduces to saturation and slowdown.
        let feasibility = if utilization >= 1.0 {
            Feasibility::BandwidthSaturated
        } else if relative_latency > 1.0 {
            Feasibility::Slowdown
        } else {
            Feasibility::Viable
        };
        let values = RowValues {
            device_power_w: device.get(),
            wall_power_w: wall.get(),
            relative_power: wall / self.reference_power(),
            relative_latency,
            slowdown: relative_latency > 1.0,
            feasibility,
            footprint_mm2,
            bandwidth_utilization: utilization,
        };
        LlcEvaluation::from_values(hybrid.label(), benchmark.name, traffic, &values, years)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_array::Objective;
    use coldtall_cell::{MemoryTechnology, Tentpole};
    use coldtall_obs::Registry;
    use coldtall_tech::ProcessNode;
    use coldtall_workloads::benchmark;

    fn hybrid(fast_ways: u8) -> HybridLlc {
        HybridLlc::new(
            MemoryConfig::sram_350k(),
            MemoryConfig::envm_3d(MemoryTechnology::SttRam, Tentpole::Optimistic, 4),
            fast_ways,
        )
    }

    #[test]
    fn capture_laws_are_superlinear_for_writes() {
        let h = hybrid(2);
        assert!((h.fast_fraction() - 0.125).abs() < 1e-12);
        assert!(h.write_capture() > 0.5, "2 ways capture most writes");
        assert!(h.read_capture() < h.write_capture());
    }

    #[test]
    fn hybrid_beats_pure_sram_on_power_for_write_heavy_traffic() {
        let explorer = Explorer::with_defaults();
        let lbm = benchmark("lbm").unwrap();
        let pure_sram = explorer.evaluate(&MemoryConfig::sram_350k(), lbm);
        let h = explorer.evaluate_hybrid(&hybrid(2), lbm);
        assert!(
            h.relative_power < pure_sram.relative_power,
            "hybrid {} vs SRAM {}",
            h.relative_power,
            pure_sram.relative_power
        );
    }

    #[test]
    fn hybrid_extends_dense_partition_lifetime() {
        let explorer = Explorer::with_defaults();
        let lbm = benchmark("lbm").unwrap();
        let pcm_hybrid = HybridLlc::new(
            MemoryConfig::sram_350k(),
            MemoryConfig::envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, 4),
            2,
        );
        let pure_pcm = explorer.evaluate(
            &MemoryConfig::envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, 4),
            lbm,
        );
        let h = explorer.evaluate_hybrid(&pcm_hybrid, lbm);
        assert!(
            h.lifetime_years > 2.0 * pure_pcm.lifetime_years,
            "write shielding must extend lifetime: {} vs {}",
            h.lifetime_years,
            pure_pcm.lifetime_years
        );
    }

    #[test]
    fn more_fast_ways_cost_more_leakage() {
        let explorer = Explorer::with_defaults();
        let quiet = benchmark("leela").unwrap();
        let small = explorer.evaluate_hybrid(&hybrid(2), quiet);
        let large = explorer.evaluate_hybrid(&hybrid(8), quiet);
        assert!(large.relative_power > small.relative_power);
    }

    /// A partition depends on its (configuration, capacity) only, so the
    /// same hybrid on another benchmark characterizes nothing and
    /// answers what a fresh explorer answers.
    #[test]
    fn another_benchmark_on_the_same_hybrid_characterizes_nothing() {
        let registry = Registry::new();
        let explorer = Explorer::with_registry(
            ProcessNode::ptm_22nm_hp(),
            Objective::EnergyDelayProduct,
            &registry,
        );
        let characterizations = || -> u64 {
            explorer
                .backends()
                .backends()
                .iter()
                .map(|backend| {
                    let name = format!("backend.{backend}.characterizations");
                    registry.counter_value(&name).unwrap_or(0)
                })
                .sum()
        };
        let h = hybrid(2);
        let _ = explorer.evaluate_hybrid(&h, benchmark("lbm").unwrap());
        let before = characterizations();
        let leela = benchmark("leela").unwrap();
        let warm = explorer.evaluate_hybrid(&h, leela);
        assert_eq!(
            characterizations(),
            before,
            "both partitions come from the cache"
        );
        assert_eq!(warm, Explorer::with_defaults().evaluate_hybrid(&h, leela));
    }

    #[test]
    fn label_is_descriptive() {
        assert_eq!(
            hybrid(2).label(),
            "Hybrid SRAM+4-die STT-RAM (optimistic) (2/16 ways)"
        );
    }

    #[test]
    #[should_panic(expected = "between 1 and 15")]
    fn rejects_degenerate_partitions() {
        let _ = hybrid(16);
    }
}
