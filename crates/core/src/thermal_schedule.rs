//! Dynamic operating-temperature scheduling.
//!
//! The paper's future-work section proposes exposing temperature as a
//! design knob: "a processor which has the capability to dynamically
//! adjust the operating temperature of the processor may be the optimal
//! method". This module implements that proposal: given a phased
//! workload (traffic levels with durations), it plans the
//! energy-optimal temperature per phase by dynamic programming, charging
//! a thermal-mass transition cost for each temperature change.

use coldtall_cell::MemoryTechnology;
use coldtall_units::{Joules, Kelvin, Seconds};
use coldtall_workloads::{Benchmark, LlcTraffic};

use crate::config::MemoryConfig;
use crate::explorer::Explorer;

/// Energy to move the cold plate and die stack by one kelvin
/// (joules per kelvin of transition, both directions: pumping heat in
/// or out of the thermal mass).
const TRANSITION_J_PER_K: f64 = 0.5;

/// One phase of a phased workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPhase {
    /// Label for reports.
    pub name: String,
    /// LLC traffic during the phase.
    pub traffic: LlcTraffic,
    /// Phase duration.
    pub duration: Seconds,
}

impl WorkloadPhase {
    /// Builds a phase from a benchmark profile and a duration.
    #[must_use]
    pub fn from_benchmark(benchmark: &Benchmark, duration: Seconds) -> Self {
        Self {
            name: benchmark.name.to_string(),
            traffic: benchmark.traffic,
            duration,
        }
    }
}

/// The planned schedule: a temperature per phase plus the energy
/// accounting against fixed-temperature operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureSchedule {
    /// Chosen temperature per phase, aligned with the input phases.
    pub temperatures: Vec<Kelvin>,
    /// Total energy of the dynamic schedule (including transitions).
    pub total_energy: Joules,
    /// Energy of running every phase at the best single fixed
    /// temperature.
    pub best_fixed_energy: Joules,
    /// The best single fixed temperature.
    pub best_fixed_temperature: Kelvin,
}

impl TemperatureSchedule {
    /// Energy saved by going dynamic, as a fraction of the best fixed
    /// schedule (0 means no benefit).
    #[must_use]
    pub fn savings_fraction(&self) -> f64 {
        1.0 - self.total_energy / self.best_fixed_energy
    }

    /// Number of temperature transitions in the schedule.
    #[must_use]
    pub fn transitions(&self) -> usize {
        self.temperatures
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count()
    }
}

/// Wall power of `technology` at temperature `t` under `traffic`,
/// including cooling.
fn phase_power(
    explorer: &Explorer,
    technology: MemoryTechnology,
    t: Kelvin,
    traffic: LlcTraffic,
) -> f64 {
    let config = MemoryConfig::volatile_2d(technology, t);
    let array = explorer.characterize(&config);
    let device = crate::evaluate::device_power(&array, &traffic);
    config.cooling().wall_power(device, t).get()
}

/// Plans the energy-optimal temperature schedule for a phased workload
/// on a volatile (SRAM or 3T-eDRAM) LLC, choosing per phase among
/// `candidates` by dynamic programming with thermal transition costs.
///
/// # Panics
///
/// Panics if `phases` or `candidates` is empty, or with the typed
/// error's message if some candidate temperature resolves to no
/// characterization backend.
#[must_use]
pub fn plan_schedule(
    explorer: &Explorer,
    technology: MemoryTechnology,
    phases: &[WorkloadPhase],
    candidates: &[Kelvin],
) -> TemperatureSchedule {
    assert!(!phases.is_empty(), "need at least one phase");
    assert!(!candidates.is_empty(), "need at least one temperature");

    // Warm every candidate temperature through the plan executor's job
    // phase — one geometry batch per (geometry, backend) group, so the
    // technology's organization is solved once and striped over the
    // candidates — then read the (phase x candidate) grid from the
    // cache.
    let temp_configs: Vec<MemoryConfig> = candidates
        .iter()
        .map(|&t| MemoryConfig::volatile_2d(technology, t))
        .collect();
    let plan = explorer
        .plan_sweep(&temp_configs)
        .unwrap_or_else(|e| panic!("{e}"));
    explorer.characterize_jobs(&plan);
    let energy: Vec<Vec<f64>> = phases
        .iter()
        .map(|phase| {
            candidates
                .iter()
                .map(|&t| {
                    phase_power(explorer, technology, t, phase.traffic) * phase.duration.get()
                })
                .collect()
        })
        .collect();

    // DP over (phase, temperature state).
    let n = candidates.len();
    let mut cost = energy[0].clone();
    let mut back: Vec<Vec<usize>> = vec![vec![0; n]];
    for phase_energy in energy.iter().skip(1) {
        let mut next = vec![f64::INFINITY; n];
        let mut choice = vec![0usize; n];
        for (j, &e) in phase_energy.iter().enumerate() {
            for (i, &prev) in cost.iter().enumerate() {
                let transition =
                    TRANSITION_J_PER_K * (candidates[i].get() - candidates[j].get()).abs();
                let total = prev + transition + e;
                if total < next[j] {
                    next[j] = total;
                    choice[j] = i;
                }
            }
        }
        cost = next;
        back.push(choice);
    }

    // Recover the dynamic schedule.
    let (mut state, &best_cost) = cost
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("candidates non-empty");
    let mut picks = vec![state; phases.len()];
    for p in (1..phases.len()).rev() {
        state = back[p][state];
        picks[p - 1] = state;
    }
    let temperatures: Vec<Kelvin> = picks.iter().map(|&i| candidates[i]).collect();

    // Best fixed temperature for comparison.
    let (fixed_idx, fixed_energy) = (0..n)
        .map(|j| (j, energy.iter().map(|row| row[j]).sum::<f64>()))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("candidates non-empty");

    TemperatureSchedule {
        temperatures,
        total_energy: Joules::new(best_cost),
        best_fixed_energy: Joules::new(fixed_energy),
        best_fixed_temperature: candidates[fixed_idx],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases() -> Vec<WorkloadPhase> {
        vec![
            WorkloadPhase {
                name: "idle".into(),
                traffic: LlcTraffic::new(1e3, 2e2),
                duration: Seconds::new(10_000.0),
            },
            WorkloadPhase {
                name: "burst".into(),
                traffic: LlcTraffic::new(2e8, 5e7),
                duration: Seconds::new(100.0),
            },
            WorkloadPhase {
                name: "idle2".into(),
                traffic: LlcTraffic::new(1e3, 2e2),
                duration: Seconds::new(10_000.0),
            },
        ]
    }

    fn candidates() -> Vec<Kelvin> {
        vec![Kelvin::LN2, Kelvin::new(227.0), Kelvin::REFERENCE]
    }

    #[test]
    fn dynamic_beats_the_best_fixed_temperature_with_discrete_setpoints() {
        // A real system offers discrete operating points (an LN2 loop or
        // ambient); between those, bursty workloads reward switching.
        let explorer = Explorer::with_defaults();
        let schedule = plan_schedule(
            &explorer,
            MemoryTechnology::Sram,
            &phases(),
            &[Kelvin::LN2, Kelvin::REFERENCE],
        );
        assert!(
            schedule.savings_fraction() > 0.1,
            "savings = {}",
            schedule.savings_fraction()
        );
        assert!(schedule.transitions() >= 1);
        // Quiet phases run colder than the burst phase.
        assert!(schedule.temperatures[0] < schedule.temperatures[1]);
    }

    #[test]
    fn a_tunable_setpoint_settles_on_an_intermediate_temperature() {
        // The paper's future-work observation: "sometimes the optimal
        // temperature is in-between these two operating points". With a
        // continuously tunable set-point and Carnot-scaled cooling, a
        // single intermediate temperature dominates and no switching is
        // warranted.
        let explorer = Explorer::with_defaults();
        let schedule = plan_schedule(&explorer, MemoryTechnology::Sram, &phases(), &candidates());
        let t = schedule.best_fixed_temperature;
        assert!(t > Kelvin::LN2 && t < Kelvin::REFERENCE, "fixed = {t}");
        assert!(schedule.savings_fraction() < 0.05);
    }

    #[test]
    fn steady_workloads_stay_at_one_temperature() {
        let explorer = Explorer::with_defaults();
        let steady: Vec<WorkloadPhase> = (0..4)
            .map(|i| WorkloadPhase {
                name: format!("p{i}"),
                traffic: LlcTraffic::new(1e6, 3e5),
                duration: Seconds::new(50.0),
            })
            .collect();
        let schedule = plan_schedule(&explorer, MemoryTechnology::Edram3T, &steady, &candidates());
        assert_eq!(schedule.transitions(), 0);
        assert!(schedule.savings_fraction().abs() < 1e-9);
    }

    #[test]
    fn single_candidate_degenerates_to_fixed() {
        let explorer = Explorer::with_defaults();
        let schedule = plan_schedule(
            &explorer,
            MemoryTechnology::Sram,
            &phases(),
            &[Kelvin::REFERENCE],
        );
        assert_eq!(schedule.transitions(), 0);
        assert_eq!(schedule.best_fixed_temperature, Kelvin::REFERENCE);
        assert!((schedule.total_energy / schedule.best_fixed_energy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn candidates_warm_as_one_geometry_batch() {
        // The candidates share one temperature-stripped geometry, so
        // the job phase solves it once and dispatches one batch; every
        // candidate still misses the characterization cache once.
        let registry = coldtall_obs::Registry::new();
        let explorer = Explorer::with_registry(
            coldtall_tech::ProcessNode::ptm_22nm_hp(),
            coldtall_array::Objective::EnergyDelayProduct,
            &registry,
        );
        let _ = plan_schedule(
            &explorer,
            MemoryTechnology::Sram,
            &phases(),
            coldtall_cryo::study_temperatures(),
        );
        let count = |name: &str| registry.counter_value(name);
        assert_eq!(count("explorer.characterize.dispatches"), Some(1));
        assert_eq!(count("geometry.solves"), Some(1));
        assert_eq!(count("cache.misses"), Some(8));
    }

    #[test]
    #[should_panic(expected = "no characterization backend supports 500K SRAM")]
    fn unresolvable_candidates_panic_with_the_typed_error() {
        let explorer = Explorer::with_defaults();
        let _ = plan_schedule(
            &explorer,
            MemoryTechnology::Sram,
            &phases(),
            &[Kelvin::REFERENCE, Kelvin::new(500.0)],
        );
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let explorer = Explorer::with_defaults();
        let _ = plan_schedule(&explorer, MemoryTechnology::Sram, &[], &candidates());
    }
}
