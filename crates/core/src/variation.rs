//! Monte-Carlo variation analysis between the tentpoles.
//!
//! The tentpole methodology bounds each technology by its field-wise
//! best and worst published characteristics; real devices land
//! somewhere in between. This module samples synthetic cells
//! log-uniformly between the tentpole extrema (independently per field,
//! matching the tentpoles' own field-wise construction), characterizes
//! each sample, and reports percentile bands — turning the paper's
//! two-point envelopes into distributions.
//!
//! [`monte_carlo`] is the worker pool's one user: every sample of a
//! study, across all its cases, is characterized in one pool region.

use coldtall_array::{ArrayCharacterization, ArraySpec, Objective};
use coldtall_cell::{CellModel, MemoryTechnology, SurveyEntry, Tentpole};
use coldtall_tech::ProcessNode;
use coldtall_rng::SmallRng;

/// Percentile summary of one metric across the sampled population,
/// relative to the 350 K 2D SRAM baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricBand {
    /// 5th percentile.
    pub p5: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// The variation study's result for one (technology, die count).
#[derive(Debug, Clone, PartialEq)]
pub struct VariationSummary {
    /// Technology sampled.
    pub technology: MemoryTechnology,
    /// Die count.
    pub dies: u8,
    /// Samples drawn.
    pub samples: usize,
    /// Read latency relative to the SRAM baseline.
    pub read_latency: MetricBand,
    /// Write latency relative to the SRAM baseline.
    pub write_latency: MetricBand,
    /// Read energy relative to the SRAM baseline.
    pub read_energy: MetricBand,
    /// Footprint relative to the SRAM baseline.
    pub area: MetricBand,
}

fn log_uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    if (hi - lo).abs() < 1e-12 {
        return lo;
    }
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    (rng.gen_f64() * (hi.ln() - lo.ln()) + lo.ln()).exp()
}

/// Draws `n` synthetic survey entries between the technology's tentpole
/// extrema (log-uniform, independent per field).
///
/// # Panics
///
/// Panics for technologies without survey entries (SRAM, the eDRAMs).
#[must_use]
pub fn sample_cells(
    technology: MemoryTechnology,
    n: usize,
    seed: u64,
    node: &ProcessNode,
) -> Vec<CellModel> {
    let opt = Tentpole::Optimistic
        .bounding_entry(technology)
        .expect("variation sampling needs a surveyed technology");
    let pess = Tentpole::Pessimistic
        .bounding_entry(technology)
        .expect("variation sampling needs a surveyed technology");
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let entry = SurveyEntry {
                id: "monte-carlo-sample",
                year: opt.year,
                venue: opt.venue,
                technology,
                cell_area_f2: log_uniform(&mut rng, opt.cell_area_f2, pess.cell_area_f2),
                read_sense_ns: log_uniform(&mut rng, opt.read_sense_ns, pess.read_sense_ns),
                read_energy_pj: log_uniform(&mut rng, opt.read_energy_pj, pess.read_energy_pj),
                write_latency_ns: log_uniform(
                    &mut rng,
                    opt.write_latency_ns,
                    pess.write_latency_ns,
                ),
                write_energy_pj: log_uniform(
                    &mut rng,
                    opt.write_energy_pj,
                    pess.write_energy_pj,
                ),
                endurance_writes: log_uniform(
                    &mut rng,
                    pess.endurance_writes,
                    opt.endurance_writes,
                ),
                retention_years: opt.retention_years.min(pess.retention_years),
                mlc_bits: 1,
            };
            CellModel::from_survey(&entry, node)
        })
        .collect()
}

fn band(mut values: Vec<f64>) -> MetricBand {
    values.sort_by(f64::total_cmp);
    let pick = |q: f64| {
        let idx = ((values.len() - 1) as f64 * q).round() as usize;
        values[idx]
    };
    MetricBand {
        p5: pick(0.05),
        p50: pick(0.50),
        p95: pick(0.95),
    }
}

/// Runs the Monte-Carlo study over `cases`, each a `(technology, dies,
/// seed)` triple: `samples` synthetic cells of the technology, drawn
/// from the case's own seeded RNG ([`sample_cells`]) and stacked on
/// `dies` dies, each characterized at 350 K and normalized to the 2D
/// SRAM baseline. Returns one summary per case, in case order; a
/// single case is a one-element slice.
///
/// The baseline is characterized once per call. Every sample of every
/// case — one organization search per sampled cell — is characterized
/// in one worker-pool region. The samples are distinct devices, so
/// nothing dedups and nothing touches a cache.
///
/// # Panics
///
/// Panics if `samples` is zero or a technology has no survey.
#[must_use]
pub fn monte_carlo(cases: &[(MemoryTechnology, u8, u64)], samples: usize) -> Vec<VariationSummary> {
    assert!(samples > 0, "need at least one sample");
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let baseline = ArraySpec::llc_16mib(CellModel::sram(&node), &node).characterize(objective);

    let drawn: Vec<(CellModel, u8)> = cases
        .iter()
        .flat_map(|&(technology, dies, seed)| {
            sample_cells(technology, samples, seed, &node)
                .into_iter()
                .map(move |cell| (cell, dies))
        })
        .collect();
    let characterized = crate::pool::parallel_map_slice(&drawn, |(cell, dies)| {
        let mut spec = ArraySpec::llc_16mib(cell.clone(), &node);
        if *dies > 1 {
            spec = spec.with_dies(*dies);
        }
        spec.characterize(objective)
    });
    cases
        .iter()
        .zip(characterized.chunks(samples))
        .map(|(&(technology, dies, _), arrays)| {
            let relative = |ratio: &dyn Fn(&ArrayCharacterization) -> f64| {
                band(arrays.iter().map(ratio).collect())
            };
            VariationSummary {
                technology,
                dies,
                samples,
                read_latency: relative(&|a| a.read_latency / baseline.read_latency),
                write_latency: relative(&|a| a.write_latency / baseline.write_latency),
                read_energy: relative(&|a| a.read_energy / baseline.read_energy),
                area: relative(&|a| a.footprint / baseline.footprint),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tentpole_metric(
        technology: MemoryTechnology,
        tentpole: Tentpole,
        dies: u8,
    ) -> (f64, f64) {
        let node = ProcessNode::ptm_22nm_hp();
        let objective = Objective::EnergyDelayProduct;
        let baseline =
            ArraySpec::llc_16mib(CellModel::sram(&node), &node).characterize(objective);
        let mut spec =
            ArraySpec::llc_16mib(CellModel::tentpole(technology, tentpole, &node), &node);
        if dies > 1 {
            spec = spec.with_dies(dies);
        }
        let a = spec.characterize(objective);
        (
            a.read_latency / baseline.read_latency,
            a.footprint / baseline.footprint,
        )
    }

    #[test]
    fn samples_are_bounded_by_the_tentpoles() {
        let summary = &monte_carlo(&[(MemoryTechnology::Pcm, 1, 7)], 40)[0];
        let (opt_lat, opt_area) = tentpole_metric(MemoryTechnology::Pcm, Tentpole::Optimistic, 1);
        let (pess_lat, pess_area) =
            tentpole_metric(MemoryTechnology::Pcm, Tentpole::Pessimistic, 1);
        assert!(summary.read_latency.p5 >= opt_lat * 0.99);
        assert!(summary.read_latency.p95 <= pess_lat * 1.01);
        assert!(summary.area.p5 >= opt_area * 0.99);
        assert!(summary.area.p95 <= pess_area * 1.01);
    }

    #[test]
    fn percentiles_are_ordered() {
        let s = &monte_carlo(&[(MemoryTechnology::SttRam, 4, 11)], 30)[0];
        for b in [s.read_latency, s.write_latency, s.read_energy, s.area] {
            assert!(b.p5 <= b.p50 && b.p50 <= b.p95);
        }
        assert_eq!(s.samples, 30);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = monte_carlo(&[(MemoryTechnology::Rram, 1, 3)], 10);
        let b = monte_carlo(&[(MemoryTechnology::Rram, 1, 3)], 10);
        assert_eq!(a, b);
        let c = monte_carlo(&[(MemoryTechnology::Rram, 1, 4)], 10);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "surveyed technology")]
    fn sram_cannot_be_sampled() {
        let node = ProcessNode::ptm_22nm_hp();
        let _ = sample_cells(MemoryTechnology::Sram, 5, 0, &node);
    }
}
