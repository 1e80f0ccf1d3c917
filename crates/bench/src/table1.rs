//! Table I: key CPU model parameters.

use coldtall_core::report::TextTable;
use coldtall_workloads::CpuConfig;

/// Regenerates Table I from [`CpuConfig::skylake_desktop`] (desktop-class
/// CPU based on an Intel Skylake at 22 nm).
#[must_use]
pub fn run() -> TextTable {
    let cfg = CpuConfig::skylake_desktop();
    let mut table = TextTable::new(&["parameter", "value"]);
    table.row(&["class", "Desktop (based on Intel Skylake)"]);
    table.row(&["num. cores", &cfg.cores.to_string()]);
    table.row(&["process node", "22nm"]);
    table.row(&[
        "frequency",
        &format!("{:.0} GHz", cfg.frequency.get() / 1e9),
    ]);
    table.row(&["L1I$", &cfg.l1i.capacity.to_string()]);
    table.row(&["L1D$", &cfg.l1d.capacity.to_string()]);
    table.row(&["L2$", &cfg.l2.capacity.to_string()]);
    table.row(&[
        "L3$",
        &format!("shared {}, {} ways", cfg.llc.capacity, cfg.llc.ways),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_table_one() {
        let rendered = run().render();
        assert!(rendered.contains("8"));
        assert!(rendered.contains("5 GHz"));
        assert!(rendered.contains("32 KiB"));
        assert!(rendered.contains("512 KiB"));
        assert!(rendered.contains("shared 16 MiB, 16 ways"));
    }
}
