//! Trace-driven multi-core cache-hierarchy simulator.
//!
//! This crate substitutes for the Sniper simulations of the paper: it
//! models the Table I desktop CPU — eight cores at 5 GHz with 32 KiB L1
//! instruction and data caches, 512 KiB private L2 caches, and a shared
//! 16 MiB 16-way L3 — and extracts the quantity the design-space
//! exploration consumes: **LLC read and write accesses per second** under
//! continuous execution of a workload.
//!
//! The caches are set-associative with true-LRU replacement,
//! write-back/write-allocate, and an inclusive shared LLC. Coherence is
//! not modelled (the paper's pipeline only consumes traffic counts, not
//! inter-core ordering).
//!
//! # Examples
//!
//! ```
//! use coldtall_cachesim::{CpuConfig, Hierarchy, MemoryAccess};
//!
//! let mut hierarchy = Hierarchy::new(CpuConfig::skylake_desktop());
//! for i in 0..10_000u64 {
//!     hierarchy.access(MemoryAccess::data_read(0, i * 64));
//! }
//! let stats = hierarchy.llc_stats();
//! assert!(stats.read_accesses > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod access;
mod cache;
mod config;
mod hierarchy;
mod replacement;
mod stats;
pub mod trace;
mod traffic;

pub use access::{AccessKind, MemoryAccess};
pub use cache::{AccessOutcome, CacheConfig, SetAssociativeCache};
pub use config::CpuConfig;
pub use hierarchy::Hierarchy;
pub use replacement::ReplacementPolicy;
pub use stats::CacheStats;
pub use traffic::{LlcTraffic, TrafficTable};
