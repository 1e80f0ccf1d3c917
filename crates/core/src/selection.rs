//! The Table II engine: optimal LLC per traffic band and design target.

use std::collections::HashMap;

use coldtall_workloads::{spec2017, TrafficBand};

use crate::batch::EvalArena;
use crate::config::MemoryConfig;
use crate::explorer::Explorer;
use crate::lifetime::LIFETIME_TARGET_YEARS;
use crate::pareto::argmin;

/// The optimization goal of one Table II column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignTarget {
    /// Minimize total LLC wall power (including cooling).
    Power,
    /// Minimize traffic-weighted LLC latency.
    Performance,
    /// Minimize the 2D footprint.
    Area,
}

impl DesignTarget {
    /// All targets, in Table II column order.
    pub const ALL: [Self; 3] = [Self::Power, Self::Performance, Self::Area];

    /// The target's score of arena row `row` — read straight off the
    /// dense column, no row materialization.
    fn score_at(self, arena: &EvalArena, row: usize) -> f64 {
        match self {
            Self::Power => arena.relative_power()[row],
            Self::Performance => arena.relative_latency()[row],
            Self::Area => arena.footprint_mm2()[row],
        }
    }
}

/// The chosen configuration for one band/target cell of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalChoice {
    /// Label of the winning configuration.
    pub label: String,
    /// Label of the second-most-preferred configuration, which the paper
    /// lists as "alt" when the winner has endurance concerns.
    pub alternate: Option<String>,
    /// Whether the winner fails the five-year lifetime target on any
    /// benchmark of the band (endurance screening).
    pub endurance_limited: bool,
    /// Geometric-mean improvement factor over the 350 K SRAM baseline
    /// across the band's benchmarks (for the Power target this is the
    /// paper's "x reduction in power"; 1.0 means parity).
    pub improvement: f64,
}

/// One row of Table II: a traffic band with its per-target winners.
#[derive(Debug, Clone, PartialEq)]
pub struct BandSummary {
    /// The traffic band.
    pub band: TrafficBand,
    /// Winner under the power target.
    pub power: OptimalChoice,
    /// Winner under the performance target.
    pub performance: OptimalChoice,
    /// Winner under the area target.
    pub area: OptimalChoice,
}

/// Builds the paper's Table II from the full study sweep: for each
/// traffic band and design target, the configuration winning on the
/// most benchmarks of that band, with the second-most-preferred
/// configuration as the endurance alternate.
///
/// The whole (configuration × benchmark) grid is evaluated exactly
/// once — one batched sweep into an [`EvalArena`] — and every
/// band/target ranking reads the arena's dense score columns in place.
///
/// # Panics
///
/// Panics if `configs` is empty, or if some configuration does not
/// resolve to exactly one characterization backend (nothing the study
/// set or the CLI can produce does).
#[must_use]
pub fn summarize(explorer: &Explorer, configs: &[MemoryConfig]) -> Vec<BandSummary> {
    assert!(!configs.is_empty(), "need at least one configuration");
    let plan = explorer
        .plan_sweep(configs)
        .unwrap_or_else(|e| panic!("{e}"));
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    TrafficBand::ALL
        .iter()
        .map(|&band| {
            let bench_indices: Vec<usize> = spec2017()
                .iter()
                .enumerate()
                .filter(|(_, b)| b.traffic_band() == band)
                .map(|(i, _)| i)
                .collect();
            let choose = |target| choose_for(&arena, configs, &bench_indices, target);
            BandSummary {
                band,
                power: choose(DesignTarget::Power),
                performance: choose(DesignTarget::Performance),
                area: choose(DesignTarget::Area),
            }
        })
        .collect()
}

/// Convenience: Table II over the full study configuration set.
#[must_use]
pub fn table2(explorer: &Explorer) -> Vec<BandSummary> {
    summarize(explorer, &MemoryConfig::study_set())
}

fn choose_for(
    arena: &EvalArena,
    configs: &[MemoryConfig],
    bench_indices: &[usize],
    target: DesignTarget,
) -> OptimalChoice {
    // Per benchmark: the configuration with the first finite minimum of
    // the target score, read off the arena's dense columns — the
    // first-of-equal minima a stable sort would put first.
    let labels = arena.config_labels();
    let score = |bi: usize| move |&c: &usize| target.score_at(arena, arena.row_index(c, bi));
    let mut first_counts: HashMap<&str, usize> = HashMap::new();
    for &bi in bench_indices {
        if let Some(first) = argmin(0..configs.len(), score(bi)) {
            *first_counts.entry(&labels[first]).or_default() += 1;
        }
    }

    let winner = modal(&first_counts, labels).expect("at least one feasible configuration");
    // The alternate — the paper's "second-most-preferred LLC" — is the
    // winner among configurations of a *different solution class*
    // (different technology or temperature regime), so a family of die
    // counts does not crowd the podium.
    let winner_config = configs.iter().find(|c| c.label() == winner);
    let alternate = winner_config.and_then(|wc| {
        let others: Vec<usize> = (0..configs.len())
            .filter(|&c| {
                configs[c].technology() != wc.technology()
                    || configs[c].is_cryogenic() != wc.is_cryogenic()
            })
            .collect();
        if others.is_empty() {
            return None;
        }
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for &bi in bench_indices {
            // Same ranking as the winner pass, restricted to the other
            // solution classes.
            if let Some(best) = argmin(others.iter().copied(), score(bi)) {
                *counts.entry(&labels[best]).or_default() += 1;
            }
        }
        modal(&counts, labels)
    });

    // The winner's rows, skipping benchmarks where its score is not
    // finite (those never entered the ranking above either).
    let winner_index = configs
        .iter()
        .position(|c| c.label() == winner)
        .expect("the winner label comes from the configuration list");
    let winner_rows: Vec<usize> = bench_indices
        .iter()
        .map(|&bi| arena.row_index(winner_index, bi))
        .filter(|&row| target.score_at(arena, row).is_finite())
        .collect();
    // Lifetime is never NaN (validated invariant), so `<` is the exact
    // negation of `meets_lifetime_target`'s `>=`.
    let endurance_limited = winner_rows
        .iter()
        .any(|&row| arena.lifetime_years()[row] < LIFETIME_TARGET_YEARS);
    let improvement = geometric_mean(winner_rows.iter().map(|&row| {
        let score = target.score_at(arena, row);
        match target {
            DesignTarget::Power | DesignTarget::Performance => 1.0 / score,
            DesignTarget::Area => 1.0 / score, // mm^2; relative use only
        }
    }));

    OptimalChoice {
        label: winner,
        alternate,
        endurance_limited,
        improvement,
    }
}

/// The most frequent label of `counts`: the highest count, then the
/// shortest label, then the first in configuration order (`labels`),
/// so a tie never falls to the map's iteration order.
fn modal(counts: &HashMap<&str, usize>, labels: &[String]) -> Option<String> {
    labels
        .iter()
        .filter_map(|label| counts.get(label.as_str()).map(|&count| (label, count)))
        .min_by_key(|&(label, count)| (std::cmp::Reverse(count), label.len()))
        .map(|(label, _)| label.clone())
}

fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<BandSummary> {
        let explorer = Explorer::with_defaults();
        table2(&explorer)
    }

    #[test]
    fn low_band_power_goes_cryogenic() {
        let t = table();
        let low = t.iter().find(|b| b.band == TrafficBand::Low).unwrap();
        assert_eq!(low.power.label, "77K 3T-eDRAM");
        // Paper: more than 2,500x reduction including cooling.
        assert!(
            low.power.improvement > 100.0,
            "low-band improvement = {}",
            low.power.improvement
        );
    }

    #[test]
    fn high_band_power_goes_to_3d_pcm() {
        let t = table();
        let high = t.iter().find(|b| b.band == TrafficBand::High).unwrap();
        assert!(
            high.power.label.contains("PCM"),
            "high-band winner = {}",
            high.power.label
        );
        assert!(
            high.power.label.contains("die"),
            "high-band winner should be 3D: {}",
            high.power.label
        );
        assert!(high.power.endurance_limited, "PCM is endurance-screened");
    }

    #[test]
    fn room_temperature_performance_winner_is_stacked_stt_or_pcm() {
        // Among non-cryogenic solutions the paper's Table II performance
        // column holds: maximally-stacked STT-RAM (or PCM for the
        // read-dominated extreme) wins. In our reproduction the
        // cryogenic arrays additionally top raw latency overall (the
        // deviation is documented in EXPERIMENTS.md).
        let explorer = Explorer::with_defaults();
        let configs: Vec<MemoryConfig> = MemoryConfig::study_set()
            .into_iter()
            .filter(|c| !c.is_cryogenic())
            .collect();
        let t = summarize(&explorer, &configs);
        for row in &t {
            let label = &row.performance.label;
            assert!(
                label.contains("STT-RAM") || label.contains("PCM"),
                "{}: performance winner = {label}",
                row.band
            );
            assert!(label.contains("8-die"), "expect max stacking: {label}");
        }
    }

    #[test]
    fn area_winner_is_3d_pcm_with_stt_or_pcm_alternate() {
        let t = table();
        for row in &t {
            assert!(
                row.area.label.contains("PCM"),
                "{}: area winner = {}",
                row.band,
                row.area.label
            );
            assert!(row.area.label.contains("8-die"));
        }
    }

    /// Table II's modal winner breaks ties by configuration order,
    /// never by hash-map iteration order.
    #[test]
    fn modal_ties_fall_to_configuration_order() {
        let labels: Vec<String> = ["2-die PCM", "4-die PCM", "8-die PCM", "SRAM"]
            .map(String::from)
            .to_vec();
        // A fresh map per round: each has its own iteration order.
        for _ in 0..200 {
            let counts: HashMap<&str, usize> =
                HashMap::from([("8-die PCM", 3), ("4-die PCM", 3), ("2-die PCM", 1)]);
            assert_eq!(modal(&counts, &labels).as_deref(), Some("4-die PCM"));
            // Among equal counts a shorter label wins before order.
            let counts: HashMap<&str, usize> =
                HashMap::from([("8-die PCM", 3), ("4-die PCM", 3), ("SRAM", 3)]);
            assert_eq!(modal(&counts, &labels).as_deref(), Some("SRAM"));
        }
        assert_eq!(modal(&HashMap::new(), &labels), None);
    }

    #[test]
    fn mid_band_alternate_exists() {
        let t = table();
        let mid = t.iter().find(|b| b.band == TrafficBand::Mid).unwrap();
        assert!(mid.power.alternate.is_some());
    }
}
