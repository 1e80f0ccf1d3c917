//! Technology shootout: rank every configuration of the study for one
//! workload under each design target.
//!
//! ```sh
//! cargo run --release --example llc_technology_shootout [benchmark]
//! ```
//!
//! Defaults to `mcf` (the paper's high-traffic extreme); pass any
//! SPECrate 2017 name, e.g. `povray` to watch the cryogenic options take
//! over at low traffic.

// A terminal-facing example: usage errors belong on stderr.
#![allow(clippy::print_stderr)]

use coldtall::core::report::{sci, TextTable};
use coldtall::core::{Error, Explorer, Feasibility, LlcEvaluation, MemoryConfig};
use coldtall::workloads::spec2017;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mcf".to_string());

    let explorer = Explorer::with_defaults();
    // The fallible API types an unknown benchmark name instead of
    // panicking, so the usage error can list the real suite.
    let evals: Result<Vec<LlcEvaluation>, Error> = MemoryConfig::study_set()
        .iter()
        .map(|c| explorer.try_evaluate(c, &name))
        .collect();
    let mut evals = match evals {
        Ok(evals) => evals,
        Err(err) => {
            eprintln!("{err}; choose one of:");
            for b in spec2017() {
                eprintln!("  {}", b.name);
            }
            std::process::exit(1);
        }
    };
    evals.sort_by(|a, b| a.relative_power.total_cmp(&b.relative_power));

    let head = &evals[0];
    println!(
        "LLC technology shootout on {} ({:.2e} reads/s, {:.2e} writes/s)\n",
        head.benchmark, head.traffic.reads_per_sec, head.traffic.writes_per_sec
    );
    let mut table = TextTable::new(&[
        "rank",
        "configuration",
        "rel_power",
        "rel_latency",
        "area_mm2",
        "lifetime_years",
        "verdict",
    ]);
    for (i, e) in evals.iter().enumerate() {
        let verdict = match e.feasibility {
            Feasibility::RefreshDead => "infeasible (refresh)".to_string(),
            Feasibility::Viable if !e.meets_lifetime_target() => "wears out".to_string(),
            other => other.to_string(),
        };
        table.row(&[
            &(i + 1).to_string(),
            &e.config_label,
            &sci(e.relative_power),
            &sci(e.relative_latency),
            &format!("{:.2}", e.footprint_mm2),
            &sci(e.lifetime_years),
            &verdict,
        ]);
    }
    print!("{}", table.render());

    let viable = evals
        .iter()
        .find(|e| e.feasibility.is_viable() && e.meets_lifetime_target());
    match viable {
        Some(e) => println!(
            "\nLowest-power viable choice: {} ({:.1}x below the 350K SRAM reference)",
            e.config_label,
            1.0 / e.relative_power
        ),
        None => println!("\nNo configuration is viable for this workload."),
    }
}
