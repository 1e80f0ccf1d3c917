//! # coldtall
//!
//! A design-space exploration framework for cryogenic and 3D embedded
//! cache memory — a from-scratch Rust reproduction of *"Is the Future
//! Cold or Tall? Design Space Exploration of Cryogenic and 3D Embedded
//! Cache Memory"* (ISPASS 2023).
//!
//! The workspace rebuilds the paper's entire toolflow:
//!
//! * [`tech`](mod@tech) — 22 nm device/interconnect models valid from 77 K to
//!   400 K (the PTM/CryoMEM device layer),
//! * [`cell`] — memory-cell models and the published-cell survey with
//!   tentpole extrema (the NVMExplorer cell database),
//! * [`array`](mod@array) — a CACTI/NVSim/Destiny-style 2D/3D array
//!   characterization engine,
//! * [`cryo`] — cryocooler overheads and temperature sweeps (CryoMEM's
//!   system side),
//! * [`workloads`] — the calibrated SPECrate 2017 LLC traffic table and
//!   the Table I CPU (standing in for Sniper runs of SPEC CPU2017),
//! * [`core`] — the cross-stack explorer, application model, and
//!   Table II selection engine (NVMExplorer itself),
//! * [`obs`] — the observability layer: the metrics registry behind
//!   `coldtall --metrics` (cache hit rates, pool utilization, span
//!   timings),
//! * `coldtall-bench` — the artifact manifest behind `coldtall replicate`,
//!   which regenerates every figure and table.
//!
//! # Quickstart
//!
//! ```
//! use coldtall::core::{Explorer, MemoryConfig};
//! use coldtall::workloads::benchmark;
//!
//! let explorer = Explorer::with_defaults();
//! let eval = explorer.evaluate(&MemoryConfig::edram_77k(), benchmark("povray").unwrap());
//! assert!(eval.relative_power < 1e-2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use coldtall_array as array;
pub use coldtall_cell as cell;
pub use coldtall_core as core;
pub use coldtall_cryo as cryo;
pub use coldtall_obs as obs;
pub use coldtall_serve as serve;
pub use coldtall_tech as tech;
pub use coldtall_units as units;
pub use coldtall_workloads as workloads;

/// The Monte-Carlo fan-out's thread-count override and resolver, under
/// the path the `bench_e2e` harness calls. Kept for the harness until a
/// change to the benchmark moves it to [`core::set_max_threads`] and
/// [`core::max_threads`].
pub mod par {
    pub use coldtall_core::{max_threads, set_max_threads};
}
