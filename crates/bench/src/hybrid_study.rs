//! Extension study: hybrid SRAM + eNVM LLCs (related work, Section II-B).
//!
//! Sweeps the fast-partition size for SRAM+STT-RAM and SRAM+PCM hybrids
//! on a write-heavy and a read-heavy workload, reporting power, latency,
//! and the dense partition's wear-limited lifetime against the pure
//! configurations.

use coldtall_cell::{MemoryTechnology, Tentpole};
use coldtall_core::report::{sci, TextTable};
use coldtall_core::{EvalArena, Explorer, HybridLlc, MemoryConfig};

/// The dense technologies the study pairs with SRAM ways.
const DENSE: [MemoryTechnology; 2] = [MemoryTechnology::SttRam, MemoryTechnology::Pcm];

/// One row per (workload, dense technology, fast ways 0/2/4/8), where
/// zero fast ways denotes the pure dense configuration and 16 the pure
/// SRAM one.
///
/// # Panics
///
/// Panics if a benchmark is missing from the suite or a pure end point
/// stops resolving to a backend (neither ever happens).
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    // The pure end points as planes: each dense technology, then SRAM.
    let mut pure: Vec<MemoryConfig> = DENSE
        .map(|tech| MemoryConfig::envm_3d(tech, Tentpole::Optimistic, 4))
        .to_vec();
    pure.push(MemoryConfig::sram_350k());
    let plan = explorer
        .plan_sweep(&pure)
        .expect("the pure end points resolve");
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let mut table = TextTable::new(&[
        "benchmark",
        "dense_technology",
        "fast_ways",
        "rel_power",
        "rel_latency",
        "lifetime_years",
    ]);
    for bench_name in ["lbm", "mcf"] {
        let b = arena
            .benchmark_names()
            .iter()
            .position(|&name| name == bench_name)
            .expect("benchmark present");
        let bench = &plan.benchmarks()[b];
        for (plane, dense_tech) in DENSE.iter().enumerate() {
            let mut rows = vec![(0u8, arena.row(arena.row_index(plane, b)))];
            for fast_ways in [2u8, 4, 8] {
                let hybrid =
                    HybridLlc::new(MemoryConfig::sram_350k(), pure[plane].clone(), fast_ways);
                rows.push((fast_ways, explorer.evaluate_hybrid(&hybrid, bench)));
            }
            rows.push((16, arena.row(arena.row_index(DENSE.len(), b))));
            for (fast_ways, eval) in rows {
                table.row(&[
                    bench_name,
                    dense_tech.name(),
                    &fast_ways.to_string(),
                    &sci(eval.relative_power),
                    &sci(eval.relative_latency),
                    &sci(eval.lifetime_years),
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
    fn sweeps_both_workloads_and_technologies() {
        assert_eq!(run().len(), 2 * 2 * 5);
    }

    #[test]
    fn hybridization_extends_pcm_lifetime_on_lbm() {
        let csv = run().to_csv();
        let lifetime = |ways: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with("lbm,PCM,") && l.split(',').nth(2) == Some(ways))
                .and_then(|l| l.split(',').nth(5))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(lifetime("4") > lifetime("0"), "SRAM ways must shield PCM");
    }
}
