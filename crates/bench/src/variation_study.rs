//! Extension study: Monte-Carlo variation between the tentpoles.
//!
//! The paper's tentpoles bound each technology's behaviour; this study
//! samples the space between them to show where the *distribution*
//! lies — e.g. whether the optimistic PCM corner that wins Table II is
//! an outlier or representative.

use coldtall_cell::MemoryTechnology;
use coldtall_core::report::{sci, TextTable};
use coldtall_core::{monte_carlo, VariationSummary};

/// Cells sampled per case.
pub const SAMPLES: usize = 60;

/// The study's `(technology, dies, seed)` cases: every eNVM technology
/// on 1 and 8 dies, each drawn from its own seed.
#[must_use]
pub fn cases() -> Vec<(MemoryTechnology, u8, u64)> {
    MemoryTechnology::ENVM_SET
        .into_iter()
        .flat_map(|tech| [1u8, 8].map(|dies| (tech, dies, 0xC01D + u64::from(dies))))
        .collect()
}

fn push(table: &mut TextTable, s: &VariationSummary) {
    table.row(&[
        s.technology.name(),
        &s.dies.to_string(),
        &format!(
            "{}/{}/{}",
            sci(s.read_latency.p5),
            sci(s.read_latency.p50),
            sci(s.read_latency.p95)
        ),
        &format!(
            "{}/{}/{}",
            sci(s.write_latency.p5),
            sci(s.write_latency.p50),
            sci(s.write_latency.p95)
        ),
        &format!(
            "{}/{}/{}",
            sci(s.read_energy.p5),
            sci(s.read_energy.p50),
            sci(s.read_energy.p95)
        ),
        &format!("{}/{}/{}", sci(s.area.p5), sci(s.area.p50), sci(s.area.p95)),
    ]);
}

/// One row per (technology, die count): p5/p50/p95 of the key metrics
/// across 60 sampled cells, relative to 2D SRAM.
#[must_use]
pub fn run() -> TextTable {
    let mut table = TextTable::new(&[
        "technology",
        "dies",
        "read_latency_p5/50/95",
        "write_latency_p5/50/95",
        "read_energy_p5/50/95",
        "area_p5/50/95",
    ]);
    for summary in monte_carlo(&cases(), SAMPLES) {
        push(&mut table, &summary);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_techs_two_die_counts() {
        assert_eq!(run().len(), 6);
    }

    #[test]
    fn median_pcm_area_is_well_below_sram() {
        let csv = run().to_csv();
        let pcm_row = csv
            .lines()
            .find(|l| l.starts_with("PCM,1"))
            .expect("PCM row present");
        let area_band = pcm_row.split(',').next_back().unwrap();
        let p50: f64 = area_band
            .trim_matches('"')
            .split('/')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(p50 < 0.3, "median PCM area = {p50}");
    }
}
