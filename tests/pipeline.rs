//! End-to-end pipeline tests: the full study grid through the explorer
//! (calibrated traffic -> characterization -> application model), and
//! the LLC capacity carried through characterization with its ECC bits.

use coldtall::core::{Explorer, MemoryConfig};
use coldtall::units::Capacity;
use coldtall::workloads::spec2017;

#[test]
fn full_sweep_produces_finite_sane_rows() {
    let explorer = Explorer::with_defaults();
    let rows = explorer
        .try_sweep_configs(&MemoryConfig::study_set())
        .expect("the study set resolves");
    assert_eq!(
        rows.len(),
        MemoryConfig::study_set().len() * spec2017().len()
    );
    for row in &rows {
        assert!(
            row.wall_power.get() > 0.0,
            "{}: zero power",
            row.config_label
        );
        assert!(row.relative_power > 0.0);
        assert!(row.footprint_mm2 > 0.1 && row.footprint_mm2 < 50.0);
        assert!(
            row.relative_latency > 0.0,
            "{}: non-positive latency",
            row.config_label
        );
        assert!(row.lifetime_years > 0.0);
    }
}

#[test]
fn capacity_is_conserved_through_the_stack() {
    // 16 MiB through ECC is 18 MiB of raw bits; the array must hold them.
    let explorer = Explorer::with_defaults();
    let array = explorer.characterize(&MemoryConfig::sram_350k());
    let raw_bits = array.organization.bits_per_subarray() as f64;
    let needed = Capacity::from_mebibytes(16).bits_f64() * 1.125;
    // Subarray count times subarray bits covers the ECC-padded capacity.
    let subarrays = (needed / raw_bits).ceil();
    assert!(subarrays >= 1.0);
    assert!(
        array.transfer_bits > 512.0,
        "ECC check bits must ride along: {}",
        array.transfer_bits
    );
}
