//! Property-style invariants across the stack.
//!
//! Formerly proptest-driven; the offline workspace carries no external
//! crates, so each property now runs over a deterministic grid plus a
//! seeded sample from `coldtall-rng` — same invariants, reproducible
//! cases, zero dependencies.

use coldtall::array::{ArraySpec, Objective};
use coldtall::cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall::cryo::CoolingSystem;
use coldtall::tech::{copper_resistivity_ratio, Mosfet, OperatingPoint, ProcessNode};
use coldtall::units::{Capacity, Kelvin, Watts};
use coldtall_rng::SmallRng;

fn node() -> ProcessNode {
    ProcessNode::ptm_22nm_hp()
}

const ALL_TECHS: [MemoryTechnology; 5] = [
    MemoryTechnology::Sram,
    MemoryTechnology::Edram3T,
    MemoryTechnology::Pcm,
    MemoryTechnology::SttRam,
    MemoryTechnology::Rram,
];

const BOTH_TENTPOLES: [Tentpole; 2] = [Tentpole::Optimistic, Tentpole::Pessimistic];

/// Draws `n` samples uniformly from `lo..hi` with a fixed seed, so a
/// failure names a reproducible case.
fn uniform_samples(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| lo + rng.gen_f64() * (hi - lo)).collect()
}

#[test]
fn resistivity_monotone_and_positive() {
    for &t in &uniform_samples(1, 64, 60.0, 400.0) {
        for dt in [1.0, 10.0, 50.0] {
            let lo = copper_resistivity_ratio(t);
            let hi = copper_resistivity_ratio(t + dt);
            assert!(lo > 0.0, "ratio must be positive at {t} K");
            assert!(hi >= lo, "ratio must be monotone at {t} + {dt} K");
        }
    }
}

#[test]
fn device_leakage_monotone_in_temperature() {
    let n = node();
    let dev = Mosfet::nmos(&n);
    for &t in &uniform_samples(2, 64, 77.0, 380.0) {
        for dt in [2.0, 20.0] {
            let cold = dev.leakage_current_per_um(&OperatingPoint::nominal(&n, Kelvin::new(t)));
            let warm =
                dev.leakage_current_per_um(&OperatingPoint::nominal(&n, Kelvin::new(t + dt)));
            assert!(
                warm.get() >= cold.get(),
                "leakage not monotone at {t} + {dt} K"
            );
        }
    }
}

#[test]
fn cell_leakage_never_negative() {
    let n = node();
    for tech in ALL_TECHS {
        for tentpole in BOTH_TENTPOLES {
            let cell = CellModel::tentpole(tech, tentpole, &n);
            for &t in &uniform_samples(3, 16, 77.0, 400.0) {
                let op = OperatingPoint::cryo_optimized(&n, Kelvin::new(t));
                assert!(
                    cell.leakage_power(&n, &op).get() >= 0.0,
                    "negative leakage: {tech:?}/{tentpole:?} at {t} K"
                );
            }
        }
    }
}

#[test]
fn array_metrics_positive_for_any_study_point() {
    let n = node();
    let mut rng = SmallRng::seed_from_u64(4);
    for _ in 0..64 {
        let tech = ALL_TECHS[usize::try_from(rng.gen_range(0..5)).unwrap()];
        let tentpole = BOTH_TENTPOLES[usize::try_from(rng.gen_range(0..2)).unwrap()];
        let dies = [1u8, 2, 4, 8][usize::try_from(rng.gen_range(0..4)).unwrap()];
        let t = 77.0 + rng.gen_f64() * (390.0 - 77.0);
        let cell = CellModel::tentpole(tech, tentpole, &n);
        let mut spec = ArraySpec::llc_16mib(cell, &n);
        if dies > 1 {
            spec = spec.with_dies(dies);
        }
        let a = spec
            .at_temperature_cryo(Kelvin::new(t))
            .characterize(Objective::EnergyDelayProduct);
        let case = format!("{tech:?}/{tentpole:?}/{dies} dies at {t} K");
        assert!(a.read_latency.get() > 0.0, "read latency: {case}");
        assert!(a.write_latency.get() > 0.0, "write latency: {case}");
        assert!(a.read_energy.get() > 0.0, "read energy: {case}");
        assert!(a.write_energy.get() > 0.0, "write energy: {case}");
        assert!(a.leakage_power.get() >= 0.0, "leakage: {case}");
        assert!(a.footprint.get() > 0.0, "footprint: {case}");
        assert!(
            a.array_efficiency > 0.0 && a.array_efficiency < 1.0,
            "efficiency: {case}"
        );
        assert!(
            a.write_energy >= a.read_energy * 0.5,
            "energy order: {case}"
        );
    }
}

#[test]
fn area_monotone_in_capacity() {
    let n = node();
    for mib_small in 1u64..8 {
        for factor in [2u64, 3] {
            let small =
                ArraySpec::new(CellModel::sram(&n), &n, Capacity::from_mebibytes(mib_small))
                    .characterize(Objective::EnergyDelayProduct);
            let large = ArraySpec::new(
                CellModel::sram(&n),
                &n,
                Capacity::from_mebibytes(mib_small * factor),
            )
            .characterize(Objective::EnergyDelayProduct);
            assert!(
                large.footprint.get() > small.footprint.get(),
                "footprint at {mib_small} MiB x{factor}"
            );
            assert!(
                large.leakage_power.get() > small.leakage_power.get(),
                "leakage at {mib_small} MiB x{factor}"
            );
        }
    }
}

#[test]
fn stacking_never_grows_the_footprint() {
    let n = node();
    for tech in ALL_TECHS {
        for tentpole in BOTH_TENTPOLES {
            let cell = CellModel::tentpole(tech, tentpole, &n);
            let one =
                ArraySpec::llc_16mib(cell.clone(), &n).characterize(Objective::EnergyDelayProduct);
            let eight = ArraySpec::llc_16mib(cell, &n)
                .with_dies(8)
                .characterize(Objective::EnergyDelayProduct);
            assert!(
                eight.footprint.get() <= one.footprint.get(),
                "stacking grew footprint: {tech:?}/{tentpole:?}"
            );
        }
    }
}

#[test]
fn cooling_overhead_is_carnot_shaped() {
    let powers = uniform_samples(5, 16, 0.0, 100.0);
    let temps = uniform_samples(6, 16, 60.0, 400.0);
    for &p in &powers {
        for &t in &temps {
            let power = Watts::new(p);
            for cooling in CoolingSystem::ALL {
                let wall = cooling.wall_power(power, Kelvin::new(t));
                assert!(wall.get() >= p, "wall below device at {p} W, {t} K");
                if t >= 300.0 {
                    assert!(
                        (wall.get() - p).abs() < 1e-12,
                        "warm operation must be free at {t} K"
                    );
                }
                if t <= 77.0 && p > 0.0 {
                    assert!(
                        wall.get() >= p * (1.0 + cooling.overhead_factor()),
                        "cryo overhead too small at {p} W, {t} K"
                    );
                }
            }
        }
    }
}

#[test]
fn tentpole_optimism_dominates_at_array_level() {
    let n = node();
    for tech in MemoryTechnology::ENVM_SET {
        for dies in [1u8, 2, 4, 8] {
            let build = |tp| {
                let mut spec = ArraySpec::llc_16mib(CellModel::tentpole(tech, tp, &n), &n);
                if dies > 1 {
                    spec = spec.with_dies(dies);
                }
                spec.characterize(Objective::EnergyDelayProduct)
            };
            let opt = build(Tentpole::Optimistic);
            let pess = build(Tentpole::Pessimistic);
            let case = format!("{tech:?} at {dies} dies");
            assert!(
                opt.read_latency <= pess.read_latency,
                "read latency: {case}"
            );
            assert!(
                opt.write_latency <= pess.write_latency,
                "write latency: {case}"
            );
            assert!(opt.read_energy <= pess.read_energy, "read energy: {case}");
            assert!(
                opt.write_energy <= pess.write_energy,
                "write energy: {case}"
            );
            assert!(
                opt.footprint.get() <= pess.footprint.get(),
                "footprint: {case}"
            );
        }
    }
}

/// The observability histogram must conserve its sample count: every
/// recorded value lands in exactly one log2 bucket, over a seeded
/// random stream spanning the full magnitude range.
#[test]
fn histogram_conserves_recorded_count_across_buckets() {
    let mut rng = SmallRng::seed_from_u64(41);
    let histogram = coldtall::obs::Histogram::new();
    let n = 4096;
    for _ in 0..n {
        // Exercise every bucket width: shift a 64-bit draw by a random
        // amount so magnitudes cover the whole range, including zero.
        let shift = rng.gen_range(0..64);
        histogram.record(rng.next_u64() >> shift);
    }
    assert_eq!(histogram.count(), n);
    assert_eq!(
        histogram.bucket_counts().iter().sum::<u64>(),
        n,
        "bucket totals must equal the recorded count"
    );
    let (p50, p95, p99) = (
        histogram.quantile(0.50),
        histogram.quantile(0.95),
        histogram.quantile(0.99),
    );
    assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
}

/// Merging two histograms must equal the histogram of the concatenated
/// sample streams — bucket-for-bucket, plus count/sum/min/max.
#[test]
fn histogram_merge_equals_concatenated_samples() {
    for seed in [7u64, 8, 9] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (left, right, concatenated) = (
            coldtall::obs::Histogram::new(),
            coldtall::obs::Histogram::new(),
            coldtall::obs::Histogram::new(),
        );
        for i in 0..1000 {
            let value = rng.next_u64() >> rng.gen_range(0..64);
            if i % 3 == 0 {
                left.record(value);
            } else {
                right.record(value);
            }
            concatenated.record(value);
        }
        left.merge_from(&right);
        assert_eq!(
            left.bucket_counts(),
            concatenated.bucket_counts(),
            "seed {seed}: merged buckets diverge from concatenation"
        );
        assert_eq!(left.count(), concatenated.count());
        assert_eq!(left.sum(), concatenated.sum());
        assert_eq!(left.min(), concatenated.min());
        assert_eq!(left.max(), concatenated.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                left.quantile(q),
                concatenated.quantile(q),
                "seed {seed}, q={q}"
            );
        }
    }
}
