//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each submodule reproduces one evaluation artifact, returning a
//! [`coldtall_core::report::TextTable`] with the same rows/series the
//! paper plots. [`ARTIFACTS`] lists them once, for `coldtall replicate`
//! and the golden suite; the integration test suite asserts the paper's
//! shape anchors on the same data.
//!
//! | name | artifact |
//! |---|---|
//! | `fig1` | total LLC power vs temperature for `namd`, with cooling tiers |
//! | `fig3` | array characterization vs temperature (SRAM, 3T-eDRAM) |
//! | `fig4` | total LLC power for `namd` and `leela` at 350 K / 77 K / 77 K + cooling |
//! | `fig5` | total LLC power and latency across SPEC2017, cryo vs room temperature |
//! | `fig6` | 2D/3D eNVM array characterization at 350 K |
//! | `fig7` | total LLC power and latency across SPEC2017 for 2D/3D eNVMs |
//! | `table1` | CPU model parameters |
//! | `table2` | optimal LLC per traffic band and design target |
//!
//! Beyond the paper's artifacts, eleven ablation/extension studies:
//!
//! | name | study |
//! |---|---|
//! | `ablation_node` | process-node scaling (45/32/22/16 nm) |
//! | `ablation_stacking` | 3D integration styles (F2F / F2B / monolithic) |
//! | `ablation_cooling` | cryocooler break-even capacity per benchmark |
//! | `ablation_ecc` | error-correction strength (none / SECDED / BCH) |
//! | `ablation_voltage` | 77 K supply-voltage sweep around the cryo policy |
//! | `ablation_tags` | the SRAM tag store's share of leakage/latency/area |
//! | `accel_study` | the future-work accelerator scenarios at 10 W cooling |
//! | `cryo_nvm_study` | Δ(T) STT-MRAM across 77-387 K × 1-8 dies, sweep + Pareto front |
//! | `hybrid_study` | SRAM + eNVM hybrid partitions (related work II-B) |
//! | `dynamic_temperature` | temperature as a dynamic knob (future work VI) |
//! | `variation_study` | Monte-Carlo sampling between the tentpoles |
//!
//! # Examples
//!
//! ```
//! let table = coldtall_bench::fig4::run();
//! assert!(!table.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation_cooling;
pub mod ablation_ecc;
pub mod ablation_node;
pub mod ablation_stacking;
pub mod ablation_tags;
pub mod ablation_voltage;
pub mod accel_study;
pub mod cryo_nvm_study;
pub mod dynamic_temperature;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod hybrid_study;
pub mod table1;
pub mod table2;
pub mod timing;
pub mod variation_study;

use coldtall_core::report::TextTable;

/// An artifact generator: builds its table anew on every call.
pub type Generator = fn() -> TextTable;

/// Every artifact under `results/`, in file-name order: the golden
/// file's stem and the generator that regenerates it.
pub const ARTIFACTS: [(&str, Generator); 19] = [
    ("ablation_cooling", ablation_cooling::run),
    ("ablation_ecc", ablation_ecc::run),
    ("ablation_node", ablation_node::run),
    ("ablation_stacking", ablation_stacking::run),
    ("ablation_tags", ablation_tags::run),
    ("ablation_voltage", ablation_voltage::run),
    ("accel_study", accel_study::run),
    ("cryo_nvm_study", cryo_nvm_study::run),
    ("dynamic_temperature", dynamic_temperature::run),
    ("fig1", fig1::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("hybrid_study", hybrid_study::run),
    ("table1", table1::run),
    ("table2", table2::run),
    ("variation_study", variation_study::run),
];

/// The golden bytes of an artifact, exactly as `results/<name>.txt`
/// holds them: `# <name>`, a blank line, then the table.
pub fn render(name: &str, table: &TextTable) -> String {
    format!("# {name}\n\n{}", table.render())
}

/// Where `actual` first departs from `expected`: the first differing
/// line, or the line counts when one is a prefix of the other.
pub fn first_divergence(expected: &str, actual: &str) -> String {
    let mut pairs = expected.lines().zip(actual.lines()).enumerate();
    match pairs.find(|(_, (want, got))| want != got) {
        Some((i, (want, got))) => {
            format!(
                "first divergence at line {}:\n  expected: {want}\n  actual:   {got}",
                i + 1
            )
        }
        None => format!(
            "line counts differ: expected {}, actual {}",
            expected.lines().count(),
            actual.lines().count()
        ),
    }
}
