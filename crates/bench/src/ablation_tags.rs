//! Ablation: the tag store's share of the LLC.
//!
//! Real LLCs pair the data array with an SRAM tag store (the 16 MiB /
//! 64 B cache needs 256 Ki tags of ~48 bits: address tag, state, ECC —
//! about 1.5 MiB). Tags are latency-critical and always SRAM, even when
//! the data array is an eNVM, so they set a floor on leakage and
//! lookup latency that pure data-array comparisons hide. This study
//! quantifies that floor for each technology.

use coldtall_array::{ArrayCharacterization, ArraySpec, EccScheme, Objective};
use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall_core::report::{sci, TextTable};
use coldtall_tech::ProcessNode;
use coldtall_units::Capacity;

/// Tag entry width: ~26 address bits + way/state + SECDED, per 64 B line.
const TAG_BITS_PER_LINE: u64 = 48;

/// Builds the SRAM tag store paired with a 16 MiB data array.
fn tag_store(node: &ProcessNode) -> ArrayCharacterization {
    let lines = Capacity::from_mebibytes(16).bytes() / 64;
    let tag_capacity = Capacity::from_bits(lines * TAG_BITS_PER_LINE);
    ArraySpec::new(CellModel::sram(node), node, tag_capacity)
        .with_line_bits(u32::try_from(TAG_BITS_PER_LINE * 16).expect("fits"))
        .with_ecc_scheme(EccScheme::None)
        .characterize(Objective::ReadLatency)
}

/// One row per technology: the data array alone versus data + tags,
/// showing the tag store's share of leakage, lookup latency (serial
/// tag-then-data), and area.
#[must_use]
pub fn run() -> TextTable {
    let node = ProcessNode::ptm_22nm_hp();
    let tags = tag_store(&node);
    let mut table = TextTable::new(&[
        "technology",
        "tag_leak_share",
        "tag_latency_share_serial",
        "tag_area_share",
        "data_leakage_W",
        "tag_leakage_W",
    ]);
    for tech in [
        MemoryTechnology::Sram,
        MemoryTechnology::Edram3T,
        MemoryTechnology::Pcm,
        MemoryTechnology::SttRam,
        MemoryTechnology::Rram,
    ] {
        let cell = CellModel::tentpole(tech, Tentpole::Optimistic, &node);
        let data = ArraySpec::llc_16mib(cell, &node)
            .with_dies(if tech.is_nonvolatile() { 8 } else { 1 })
            .characterize(Objective::EnergyDelayProduct);
        let leak_share =
            tags.leakage_power.get() / (tags.leakage_power.get() + data.leakage_power.get());
        let latency_share =
            tags.read_latency.get() / (tags.read_latency.get() + data.read_latency.get());
        let area_share = tags.footprint.get() / (tags.footprint.get() + data.footprint.get());
        table.row(&[
            tech.name(),
            &sci(leak_share),
            &sci(latency_share),
            &sci(area_share),
            &sci(data.leakage_power.get()),
            &sci(tags.leakage_power.get()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_five_technologies() {
        assert_eq!(run().len(), 5);
    }

    #[test]
    fn tag_store_is_modest_next_to_sram_but_dominates_envm_leakage() {
        let csv = run().to_csv();
        let share = |tech: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(&format!("{tech},")))
                .and_then(|l| l.split(',').nth(1))
                .unwrap()
                .parse()
                .unwrap()
        };
        // Tags are ~9% of a 16 MiB SRAM (1.5/17.5 MiB), so a small
        // leakage share next to the SRAM data array...
        assert!(share("SRAM") < 0.2, "SRAM tag share = {}", share("SRAM"));
        // ...but a large share of an eNVM LLC's total leakage, setting
        // the floor the eNVM cannot undercut.
        assert!(share("PCM") > 0.4, "PCM tag share = {}", share("PCM"));
    }

    #[test]
    fn tag_lookup_is_fast_relative_to_data() {
        let csv = run().to_csv();
        let latency_share: f64 = csv
            .lines()
            .find(|l| l.starts_with("SRAM,"))
            .and_then(|l| l.split(',').nth(2))
            .unwrap()
            .parse()
            .unwrap();
        assert!(latency_share < 0.5, "tag latency share = {latency_share}");
    }
}
