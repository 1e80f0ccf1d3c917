//! Table II: summary of the optimal LLC solution per traffic band and
//! design target.

use coldtall_core::report::TextTable;
use coldtall_core::selection::{summarize, table2 as select};
use coldtall_core::{Explorer, MemoryConfig};

/// Regenerates Table II: for each read-traffic band, the optimal LLC
/// under the power (100 kW cooling), performance, and area targets, with
/// the endurance-screened alternate.
///
/// Two performance columns are reported: the overall winner (which in
/// this reproduction is the cryogenic array — see `EXPERIMENTS.md`) and
/// the winner among room-temperature solutions, which is the
/// paper-comparable cell.
#[must_use]
pub fn run() -> TextTable {
    let explorer = Explorer::with_defaults();
    let full = select(&explorer);
    let room_temp_configs: Vec<MemoryConfig> = MemoryConfig::study_set()
        .into_iter()
        .filter(|c| !c.is_cryogenic())
        .collect();
    let room_temp = summarize(&explorer, &room_temp_configs);

    let mut table = TextTable::new(&[
        "read_accesses_per_s",
        "power_100kW_cooling",
        "power_reduction",
        "power_alt",
        "performance",
        "performance_room_temp",
        "area",
        "area_alt",
    ]);
    for (row, rt) in full.iter().zip(&room_temp) {
        let power_label = if row.power.endurance_limited {
            format!("{} [endurance-limited]", row.power.label)
        } else {
            row.power.label.clone()
        };
        table.row(&[
            row.band.label(),
            &power_label,
            &format!("{:.0}x", row.power.improvement),
            row.power.alternate.as_deref().unwrap_or("-"),
            &row.performance.label,
            &rt.performance.label,
            &row.area.label,
            row.area.alternate.as_deref().unwrap_or("-"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_bands() {
        let table = run();
        assert_eq!(table.len(), 3);
        let rendered = table.render();
        assert!(rendered.contains("77K 3T-eDRAM"));
        assert!(rendered.contains("PCM"));
    }
}
