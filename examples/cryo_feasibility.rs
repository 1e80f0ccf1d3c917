//! Cryogenic feasibility study: when is cooling worth it?
//!
//! ```sh
//! cargo run --release --example cryo_feasibility
//! ```
//!
//! Sweeps operating temperature and cryocooler capacity for SRAM and
//! 3T-eDRAM LLCs across three workload intensities, prints the best
//! operating temperature per case (the paper's future-work knob:
//! "temperature should be exposed as a design knob"), and checks the
//! liquid-nitrogen thermal budget.

use coldtall::cell::MemoryTechnology;
use coldtall::core::report::{sci, TextTable};
use coldtall::core::{Error, Explorer, MemoryConfig};
use coldtall::cryo::{CoolingSystem, LnBath, TemperatureSweep};
use coldtall::units::{Kelvin, Watts};

fn main() -> Result<(), Error> {
    let explorer = Explorer::with_defaults();
    let workloads = ["povray", "namd", "mcf"];

    println!("Optimal operating temperature per workload and cooling tier\n");
    let mut table = TextTable::new(&[
        "benchmark",
        "technology",
        "cooling",
        "best_temp_K",
        "rel_power_at_best",
        "rel_power_at_350K",
    ]);
    for name in workloads {
        for tech in [MemoryTechnology::Sram, MemoryTechnology::Edram3T] {
            for cooling in CoolingSystem::ALL {
                let mut best: Option<(f64, f64)> = None;
                let mut at_350 = f64::NAN;
                for t in TemperatureSweep::new(Kelvin::LN2, Kelvin::TDP, 10.0) {
                    let config = MemoryConfig::volatile_2d(tech, t).with_cooling(cooling);
                    let eval = explorer.try_evaluate(&config, name)?;
                    if (t.get() - 347.0).abs() < 5.0 {
                        at_350 = eval.relative_power;
                    }
                    if best.is_none_or(|(_, p)| eval.relative_power < p) {
                        best = Some((t.get(), eval.relative_power));
                    }
                }
                let (bt, bp) = best.expect("sweep is non-empty");
                table.row(&[
                    name,
                    tech.name(),
                    &cooling.to_string(),
                    &format!("{bt:.0}"),
                    &sci(bp),
                    &sci(at_350),
                ]);
            }
        }
    }
    print!("{}", table.render());

    // Thermal budget: can an LN2 bath remove the heat of the whole
    // 77 K processor? (Paper Section V discussion.)
    let bath = LnBath::default();
    let cryo_llc = explorer.try_evaluate(&MemoryConfig::sram_77k(), "mcf")?;
    // Budget the rest of the CPU at a conservative 60 W of 77 K heat.
    let total = cryo_llc.device_power + Watts::new(60.0);
    println!(
        "\nLN2 bath check: {total} of 77K heat vs {} capacity -> {}",
        bath.capacity(),
        if bath.can_dissipate(total) {
            "within budget"
        } else {
            "over budget"
        }
    );
    println!(
        "(bath advantage over air cooling: {:.2}x, die variation ~{} K)",
        bath.advantage_over_air(),
        bath.temperature_variation_k()
    );
    Ok(())
}
