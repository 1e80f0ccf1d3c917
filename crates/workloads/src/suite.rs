//! The SPECrate CPU2017 profile table.
//!
//! Traffic values are calibrated stand-ins for the paper's Sniper
//! measurements (see `DESIGN.md` section 3). The anchors the paper
//! states are respected: `povray` is the quietest workload (below 1e4
//! LLC reads/s), `mcf` the most read-intensive (above 1e8/s) with the
//! lowest write share of the high-traffic group, `lbm` is write-heavy,
//! and `namd` — the Fig. 1/Fig. 4 reference — sits in the
//! several-million-reads band where cryogenic SRAM wins roughly 3x
//! including cooling while cryogenic eDRAM does not pay off.

use std::sync::OnceLock;

use crate::profile::{Benchmark, Suite};
use crate::traffic::LlcTraffic;

pub(crate) fn bench(name: &'static str, suite: Suite, reads: f64, writes: f64) -> Benchmark {
    Benchmark {
        name,
        suite,
        traffic: LlcTraffic::new(reads, writes),
    }
}

fn build_suite() -> Vec<Benchmark> {
    use Suite::{FpRate, IntRate};
    vec![
        // Low-traffic band (< 5e4 LLC reads/s).
        bench("povray", FpRate, 3.0e3, 8.0e2),
        bench("leela", IntRate, 2.0e4, 7.0e3),
        bench("exchange2", IntRate, 3.5e4, 9.0e3),
        // Mid-traffic band (5e4 ..= 8e6).
        bench("deepsjeng", IntRate, 8.0e4, 3.0e4),
        bench("perlbench", IntRate, 1.5e5, 6.0e4),
        bench("nab", FpRate, 3.0e5, 9.0e4),
        bench("imagick", FpRate, 6.0e5, 1.5e5),
        bench("x264", IntRate, 1.2e6, 5.0e5),
        bench("xalancbmk", IntRate, 2.2e6, 6.0e5),
        bench("blender", FpRate, 3.5e6, 1.2e6),
        bench("parest", FpRate, 5.0e6, 1.5e6),
        bench("namd", FpRate, 6.0e6, 2.0e6),
        bench("cam4", FpRate, 7.0e6, 2.5e6),
        // High-traffic band (> 8e6).
        bench("wrf", FpRate, 9.0e6, 3.0e6),
        bench("gcc", IntRate, 1.8e7, 7.0e6),
        bench("xz", IntRate, 2.5e7, 1.1e7),
        bench("roms", FpRate, 3.0e7, 1.2e7),
        bench("cactuBSSN", FpRate, 4.0e7, 1.6e7),
        bench("omnetpp", IntRate, 5.0e7, 2.0e7),
        bench("bwaves", FpRate, 8.0e7, 3.0e7),
        bench("fotonik3d", FpRate, 1.5e8, 6.0e7),
        // lbm: the write-heavy stencil (near-parity write share).
        bench("lbm", FpRate, 3.0e8, 2.0e8),
        // mcf: the most read-intensive workload, with the lowest write
        // share of the high-traffic group (Fig. 7's exception).
        bench("mcf", IntRate, 4.0e8, 2.0e6),
    ]
}

/// The full SPECrate CPU2017 profile suite (23 benchmarks).
#[must_use]
pub fn spec2017() -> &'static [Benchmark] {
    static SUITE: OnceLock<Vec<Benchmark>> = OnceLock::new();
    SUITE.get_or_init(build_suite)
}

/// Looks a benchmark up by name.
///
/// # Examples
///
/// ```
/// use coldtall_workloads::benchmark;
/// assert!(benchmark("mcf").is_some());
/// assert!(benchmark("doom").is_none());
/// ```
#[must_use]
pub fn benchmark(name: &str) -> Option<&'static Benchmark> {
    spec2017().iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TrafficBand;

    #[test]
    fn suite_has_23_unique_benchmarks() {
        let suite = spec2017();
        assert_eq!(suite.len(), 23);
        let mut names: Vec<_> = suite.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 23);
    }

    #[test]
    fn paper_traffic_anchors() {
        let povray = benchmark("povray").unwrap();
        assert!(povray.traffic.reads_per_sec < 1e4, "povray is the quietest");
        let mcf = benchmark("mcf").unwrap();
        assert!(mcf.traffic.reads_per_sec > 1e8, "mcf is the busiest");
        // Every benchmark sits between them.
        for b in spec2017() {
            assert!(b.traffic.reads_per_sec >= povray.traffic.reads_per_sec);
            assert!(b.traffic.reads_per_sec <= mcf.traffic.reads_per_sec);
        }
    }

    #[test]
    fn mcf_has_lowest_write_share_of_high_band() {
        let mcf = benchmark("mcf").unwrap();
        for b in spec2017() {
            if b.name != "mcf" && b.traffic_band() == TrafficBand::High {
                assert!(
                    b.traffic.write_fraction() > mcf.traffic.write_fraction(),
                    "{} should write more than mcf",
                    b.name
                );
            }
        }
    }

    #[test]
    fn lbm_is_the_write_heaviest() {
        let lbm = benchmark("lbm").unwrap();
        for b in spec2017() {
            if b.name != "lbm" {
                assert!(b.traffic.writes_per_sec <= lbm.traffic.writes_per_sec);
            }
        }
    }

    #[test]
    fn all_bands_are_populated() {
        for band in TrafficBand::ALL {
            assert!(
                spec2017().iter().any(|b| b.traffic_band() == band),
                "band {band} is empty"
            );
        }
    }

    #[test]
    fn table_is_sorted_by_read_traffic() {
        for pair in spec2017().windows(2) {
            assert!(
                pair[0].traffic.reads_per_sec <= pair[1].traffic.reads_per_sec,
                "suite table must be sorted by read traffic"
            );
        }
    }
}
