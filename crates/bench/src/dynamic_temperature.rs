//! Future-work study: temperature as a dynamic design knob (Section VI).
//!
//! Builds a phased day-in-the-life workload from SPEC2017 profiles and
//! plans the energy-optimal temperature schedule, comparing dynamic
//! operation against the best fixed temperature under discrete and
//! continuously-tunable set-point regimes.

use coldtall_cell::MemoryTechnology;
use coldtall_core::report::{sci, TextTable};
use coldtall_core::{plan_schedule, Explorer, WorkloadPhase};
use coldtall_cryo::study_temperatures;
use coldtall_units::{Kelvin, Seconds};
use coldtall_workloads::benchmark;

fn phases() -> Vec<WorkloadPhase> {
    // A bursty duty cycle: long quiet stretches with compute bursts.
    [
        ("leela", 3600.0),
        ("mcf", 300.0),
        ("povray", 7200.0),
        ("lbm", 600.0),
        ("deepsjeng", 3600.0),
    ]
    .into_iter()
    .map(|(name, secs)| {
        WorkloadPhase::from_benchmark(
            benchmark(name).expect("benchmark present"),
            Seconds::new(secs),
        )
    })
    .collect()
}

/// Two rows per technology: the discrete-set-point schedule (77 K or
/// 350 K only) and the tunable-set-point schedule (the full study
/// sweep), with the planned temperatures and savings.
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    let phases = phases();
    let mut table = TextTable::new(&[
        "technology",
        "setpoints",
        "schedule_K",
        "transitions",
        "best_fixed_K",
        "dynamic_savings",
    ]);
    for tech in [MemoryTechnology::Sram, MemoryTechnology::Edram3T] {
        let cases: [(&str, Vec<Kelvin>); 2] = [
            ("77|350", vec![Kelvin::LN2, Kelvin::REFERENCE]),
            ("tunable", study_temperatures().to_vec()),
        ];
        for (label, candidates) in cases {
            let schedule = plan_schedule(&explorer, tech, &phases, &candidates);
            let temps: Vec<String> = schedule
                .temperatures
                .iter()
                .map(|t| format!("{:.0}", t.get()))
                .collect();
            table.row(&[
                tech.name(),
                label,
                &temps.join(">"),
                &schedule.transitions().to_string(),
                &format!("{:.0}", schedule.best_fixed_temperature.get()),
                &sci(schedule.savings_fraction()),
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

    #[test]
    fn discrete_setpoints_reward_switching_tunable_ones_do_not() {
        let csv = run().to_csv();
        let sram_discrete = csv.lines().find(|l| l.starts_with("SRAM,77|350")).unwrap();
        let savings: f64 = sram_discrete.split(',').nth(5).unwrap().parse().unwrap();
        assert!(savings > 0.05, "discrete savings = {savings}");
        let sram_tunable = csv.lines().find(|l| l.starts_with("SRAM,tunable")).unwrap();
        let fixed: f64 = sram_tunable.split(',').nth(4).unwrap().parse().unwrap();
        assert!(
            (100.0..330.0).contains(&fixed),
            "tunable optimum must be intermediate: {fixed} K"
        );
    }
}
