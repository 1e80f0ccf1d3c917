//! Future-work study: cryogenic LLCs for specialized accelerators.
//!
//! The paper's summary proposes cryogenic operation for "more
//! specialized computing systems and settings where memory traffic is
//! well-understood, relatively lower overall traffic" — this experiment
//! runs the accelerator traffic profiles against the full configuration
//! set under the *embedded* (10 W, 39.6x) cooling tier, the worst case
//! for cryogenics, and reports the winner per scenario.

use coldtall_core::report::{sci, TextTable};
use coldtall_core::{Constraints, EvalArena, Explorer, LlcEvaluation, MemoryConfig};
use coldtall_cryo::CoolingSystem;
use coldtall_workloads::accelerator_profiles;

/// Winner per accelerator scenario under embedded-scale cooling.
///
/// # Panics
///
/// Panics if a study configuration stops resolving to a backend, or no
/// configuration is viable for a scenario (neither ever happens).
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    let configs: Vec<MemoryConfig> = MemoryConfig::study_set()
        .into_iter()
        .map(|c| c.with_cooling(CoolingSystem::Embedded10W))
        .collect();
    let plan = explorer
        .plan_sweep_over(&configs, accelerator_profiles())
        .expect("the study set resolves");
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let mut table = TextTable::new(&[
        "scenario",
        "reads_per_s",
        "winner",
        "rel_power",
        "cryo_wins",
    ]);
    for (b, bench) in plan.benchmarks().iter().enumerate() {
        let evals: Vec<LlcEvaluation> = (0..arena.config_count())
            .map(|c| arena.row(arena.row_index(c, b)))
            .collect();
        let pick = coldtall_core::recommend(&evals, &Constraints::default())
            .expect("some configuration is always viable");
        let cryo_wins = pick.config_label.contains("77K");
        table.row(&[
            bench.name,
            &sci(bench.traffic.reads_per_sec),
            &pick.config_label,
            &sci(pick.relative_power),
            &cryo_wins.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_scenarios() {
        assert_eq!(run().len(), 4);
    }

    #[test]
    fn cryo_wins_the_quiet_specialized_settings_even_at_10w_cooling() {
        let csv = run().to_csv();
        for quiet in ["sensor-fusion-space", "dnn-inference-edge"] {
            let row = csv.lines().find(|l| l.starts_with(quiet)).unwrap();
            assert!(
                row.contains("77K"),
                "{quiet}: cryo must win even under 39.6x cooling ({row})"
            );
        }
    }

    #[test]
    fn cryo_loses_the_streaming_accelerator() {
        let csv = run().to_csv();
        let row = csv.lines().find(|l| l.starts_with("graph-engine")).unwrap();
        assert!(
            !row.contains("77K"),
            "high-traffic accelerators should not pick cryo at 10 W scale ({row})"
        );
    }
}
