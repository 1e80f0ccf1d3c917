//! Drive the Sniper-substitute cache hierarchy with synthetic SPEC2017
//! streams and extract LLC traffic.
//!
//! ```sh
//! cargo run --release --example cache_hierarchy_sim
//! ```
//!
//! This is the front half of the paper's pipeline (Fig. 2): workloads in,
//! LLC read/write accesses-per-second out. The simulated rates land in
//! the same traffic class as the calibrated table the explorer uses.

use coldtall::cachesim::CpuConfig;
use coldtall::core::report::{sci, TextTable};
use coldtall::workloads::{simulate_traffic, spec2017};

fn main() {
    let config = CpuConfig::skylake_desktop();
    println!(
        "Simulating {} cores @ {} (L1 {}/{} | L2 {} | LLC {} {}-way)\n",
        config.cores,
        config.frequency,
        config.l1i.capacity,
        config.l1d.capacity,
        config.l2.capacity,
        config.llc.capacity,
        config.llc.ways,
    );

    let mut table = TextTable::new(&[
        "benchmark",
        "sim_reads_per_s",
        "sim_writes_per_s",
        "calibrated_reads_per_s",
        "calibrated_writes_per_s",
        "sim_write_frac",
    ]);
    // A subset spanning the three traffic bands keeps the example quick.
    let chosen = ["povray", "leela", "deepsjeng", "x264", "namd", "gcc", "lbm", "mcf"];
    for name in chosen {
        let bench = spec2017()
            .iter()
            .find(|b| b.name == name)
            .expect("benchmark present");
        let traffic = simulate_traffic(bench, config, 60_000, 0xC01D);
        table.row(&[
            bench.name,
            &sci(traffic.reads_per_sec),
            &sci(traffic.writes_per_sec),
            &sci(bench.traffic.reads_per_sec),
            &sci(bench.traffic.writes_per_sec),
            &format!("{:.2}", traffic.write_fraction()),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nSimulated rates come from synthetic streams; the calibrated column\n\
         is the table the design-space exploration consumes (see DESIGN.md)."
    );
}
