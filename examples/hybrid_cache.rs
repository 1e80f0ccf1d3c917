//! Hybrid LLC walkthrough: SRAM ways shielding an eNVM partition.
//!
//! ```sh
//! cargo run --release --example hybrid_cache [benchmark]
//! ```
//!
//! Compares a pure SRAM LLC, a pure 4-die eNVM LLC, and hybrids with
//! 2/4/8 SRAM ways on the chosen workload (default: the write-heavy
//! `lbm`), showing how the fast partition absorbs the write storm —
//! the related-work architecture the paper cites (Section II-B).

// A terminal-facing example: usage errors belong on stderr.
#![allow(clippy::print_stderr)]

use coldtall::cell::{MemoryTechnology, Tentpole};
use coldtall::core::report::{sci, TextTable};
use coldtall::core::{Explorer, HybridLlc, MemoryConfig};
use coldtall::workloads::benchmark;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "lbm".to_string());
    let Some(bench) = benchmark(&name) else {
        eprintln!("unknown benchmark '{name}'");
        std::process::exit(1);
    };
    let explorer = Explorer::with_defaults();
    println!(
        "Hybrid LLC study on {} ({:.2e} reads/s, {:.2e} writes/s, write share {:.0}%)\n",
        bench.name,
        bench.traffic.reads_per_sec,
        bench.traffic.writes_per_sec,
        bench.traffic.write_fraction() * 100.0
    );

    let mut table = TextTable::new(&[
        "configuration",
        "rel_power",
        "rel_latency",
        "area_mm2",
        "lifetime_years",
    ]);
    let mut add = |label: &str, e: &coldtall::core::LlcEvaluation| {
        table.row(&[
            label,
            &sci(e.relative_power),
            &sci(e.relative_latency),
            &format!("{:.2}", e.footprint_mm2),
            &sci(e.lifetime_years),
        ]);
    };

    let sram = MemoryConfig::sram_350k();
    add("pure SRAM", &explorer.evaluate(&sram, bench));
    for dense_tech in [MemoryTechnology::SttRam, MemoryTechnology::Pcm] {
        let dense = MemoryConfig::envm_3d(dense_tech, Tentpole::Optimistic, 4);
        add(
            &format!("pure {}", dense.label()),
            &explorer.evaluate(&dense, bench),
        );
        for ways in [2u8, 4, 8] {
            let hybrid = HybridLlc::new(sram.clone(), dense.clone(), ways);
            add(&hybrid.label(), &explorer.evaluate_hybrid(&hybrid, bench));
        }
    }
    print!("{}", table.render());
    println!(
        "\nThe fast partition captures write-hot lines (a 2/16 partition absorbs\n\
         ~{:.0}% of writes), shielding the dense partition's endurance and write\n\
         latency while keeping most of its density and leakage advantage.",
        HybridLlc::new(
            sram,
            MemoryConfig::envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, 4),
            2
        )
        .write_capture()
            * 100.0
    );
}
