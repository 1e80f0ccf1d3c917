//! Smoke and content tests of every experiment harness: each table/
//! figure regenerator must produce a complete, well-formed data series.

use coldtall_bench as bench;

#[test]
fn fig1_has_cooling_columns_and_a_cold_floor() {
    let table = bench::fig1::run();
    let csv = table.to_csv();
    let header = csv.lines().next().unwrap();
    assert!(header.contains("rel_power_100kW"));
    assert!(header.contains("rel_power_10W"));
    // The 77 K SRAM row without cooling must be far below 1.
    let cold_row = csv
        .lines()
        .find(|l| l.starts_with("SRAM,77"))
        .expect("77K SRAM row present");
    let no_cooling: f64 = cold_row.split(',').nth(2).unwrap().parse().unwrap();
    assert!(no_cooling < 0.2, "77K no-cooling power = {no_cooling}");
}

#[test]
fn fig3_normalizes_350k_sram_to_unity() {
    let csv = bench::fig3::run().to_csv();
    let row = csv
        .lines()
        .find(|l| l.starts_with("SRAM,350"))
        .expect("350K SRAM row");
    let cells: Vec<&str> = row.split(',').collect();
    for value in &cells[2..] {
        let v: f64 = value.parse().unwrap();
        assert!((v - 1.0).abs() < 1e-6, "350K SRAM must be the unit: {row}");
    }
}

#[test]
fn fig4_shows_the_namd_asymmetry() {
    let csv = bench::fig4::run().to_csv();
    let namd_edram = csv
        .lines()
        .find(|l| l.starts_with("namd,3T-eDRAM"))
        .expect("row present");
    let cells: Vec<f64> = namd_edram
        .split(',')
        .skip(2)
        .map(|c| c.parse().unwrap())
        .collect();
    let (at_350, cooled) = (cells[0], cells[2]);
    assert!(
        cooled > at_350,
        "cryo eDRAM must lose to 350K eDRAM on namd"
    );
}

#[test]
fn fig5_and_fig7_cover_the_full_suite() {
    let fig5 = bench::fig5::run();
    let fig7 = bench::fig7::run();
    assert_eq!(fig5.len() % 23, 0);
    assert_eq!(fig7.len() % 23, 0);
    assert!(fig7.len() > fig5.len(), "fig7 sweeps a larger config set");
    for name in ["povray", "namd", "mcf", "lbm"] {
        assert!(fig5.to_csv().contains(name));
        assert!(fig7.to_csv().contains(name));
    }
}

#[test]
fn fig6_contains_all_die_counts_per_technology() {
    let csv = bench::fig6::run().to_csv();
    for tech in ["SRAM", "PCM", "STT-RAM", "RRAM"] {
        for dies in ["1", "2", "4", "8"] {
            assert!(
                csv.lines().any(|l| {
                    let c: Vec<&str> = l.split(',').collect();
                    c.first() == Some(&tech) && c.get(2) == Some(&dies)
                }),
                "missing {tech} x {dies} dies"
            );
        }
    }
}

#[test]
fn table1_prints_the_paper_parameters() {
    let rendered = bench::table1::run().render();
    for needle in ["Skylake", "22nm", "5 GHz", "16 MiB", "16 ways"] {
        assert!(rendered.contains(needle), "Table I must contain {needle}");
    }
}

#[test]
fn table2_prints_three_bands_with_winners() {
    let rendered = bench::table2::run().render();
    assert!(rendered.contains("<5e4"));
    assert!(rendered.contains("5e4..8e6"));
    assert!(rendered.contains(">8e6"));
    assert!(rendered.contains("77K 3T-eDRAM"));
    assert!(rendered.contains("endurance-limited"));
}
