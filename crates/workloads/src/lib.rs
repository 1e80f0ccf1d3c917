//! SPEC CPU2017-like workloads: the calibrated LLC traffic table the
//! design-space exploration reads, and the Table I CPU it stands for.
//!
//! The paper drives its design-space exploration with the LLC read/write
//! accesses-per-second of the full SPECrate CPU2017 suite, measured with
//! Sniper on the Table I CPU; those two rates are all it takes from
//! Sniper. SPEC binaries and reference inputs are licensed artifacts we
//! cannot ship, so this crate substitutes a **calibrated traffic table**
//! ([`spec2017`]): per-benchmark [`LlcTraffic`] landing in the bands the
//! paper reports (povray below 1e4 reads/s at the quiet end; mcf above
//! 1e8 with the lowest write share; lbm write-heavy; namd as the Fig. 1
//! reference). The rates are calibrated, not simulated: a trace-driven
//! stand-in for Sniper did not reproduce them (povray and leela read 0,
//! the other 21 benchmarks 9.8x-3,500x the table's rate, and 12 of 23
//! landed in their band; `DESIGN.md` section 3). [`CpuConfig`] holds
//! the Table I parameters the table stands for, and [`TrafficTable`] is
//! the struct-of-arrays form the batched evaluation streams.
//!
//! # Examples
//!
//! ```
//! use coldtall_workloads::{benchmark, spec2017};
//!
//! let suite = spec2017();
//! assert_eq!(suite.len(), 23);
//! let povray = benchmark("povray").unwrap();
//! assert!(povray.traffic.reads_per_sec < 1e4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accelerator;
mod cpu;
mod profile;
mod suite;
mod traffic;

pub use accelerator::{accelerator_profile, accelerator_profiles};
pub use cpu::{CacheConfig, CpuConfig};
pub use profile::{Benchmark, Suite, TrafficBand};
pub use suite::{benchmark, spec2017};
pub use traffic::{LlcTraffic, TrafficTable};
