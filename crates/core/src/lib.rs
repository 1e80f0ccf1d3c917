//! Cross-stack design-space exploration of embedded LLC technologies.
//!
//! This crate is the reproduction's NVMExplorer: it wires the
//! technology/cell/array substrates and the workload traffic into the
//! application-level comparison the paper reports.
//!
//! The flow mirrors Fig. 2 of the paper:
//!
//! 1. a [`MemoryConfig`] names one design point — technology, tentpole,
//!    die count, operating temperature, cooling tier — and a
//!    [`BackendRegistry`] resolves it to exactly one characterization
//!    backend ([`CryoMemBackend`] for temperature-swept volatile
//!    memories, [`DestinyBackend`] for 2D/3D eNVM and stacked SRAM),
//!    which lowers it to an [`coldtall_array::ArraySpec`] and
//!    characterizes it,
//! 2. the application model ([`LlcEvaluation`]) combines the array
//!    characteristics with a benchmark's LLC traffic into total LLC
//!    power (with cryogenic cooling overhead), total LLC latency
//!    relative to the 350 K SRAM baseline, and area,
//! 3. the [`Explorer`] compiles sweeps into validated plans
//!    ([`SweepPlan`] → [`ExecutionPlan`], deduplicated by
//!    [`DesignPointKey`]) and runs them across the SPEC2017 profiles
//!    into an [`EvalArena`] ([`Explorer::run`]), and the [`selection`]
//!    engine condenses the sweep into
//!    the paper's Table II: the optimal LLC per traffic band under
//!    power, performance, and area objectives, with endurance-screened
//!    alternates.
//!
//! # Examples
//!
//! ```
//! use coldtall_core::{Explorer, MemoryConfig};
//! use coldtall_workloads::benchmark;
//!
//! let explorer = Explorer::with_defaults();
//! let eval = explorer.evaluate(&MemoryConfig::sram_350k(), benchmark("namd").unwrap());
//! // The baseline evaluated on the reference benchmark is 1.0 by construction.
//! assert!((eval.relative_power - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod batch;
mod config;
mod error;
mod evaluate;
mod explorer;
mod hybrid;
mod lifetime;
mod parcache;
mod pareto;
mod plan;
pub mod pool;
mod request;
mod search;
pub mod report;
pub mod selection;
mod thermal_schedule;
mod variation;

pub use backend::{
    BackendCapabilities, BackendRegistry, CharacterizationBackend, CryoMemBackend,
    DestinyBackend,
};
pub use batch::EvalArena;
pub use config::MemoryConfig;
pub use error::Error;
pub use evaluate::{Feasibility, LlcEvaluation};
pub use explorer::Explorer;
pub use plan::{CharacterizationJob, DesignPointKey, ExecutionPlan, SweepPlan};
pub use hybrid::HybridLlc;
pub use parcache::{CacheConfig, CacheCursor, CacheMetrics, GeometryCache, ShardedCache};
pub use pareto::{pareto_front, recommend, Constraints, ParetoFrontier};
pub use request::{DesignPoint, Request, RequestHandler, ResponsePayload, StatusReport};
pub use search::{PruneReason, PrunedRegion, SearchOutcome, SearchStats};
pub use thermal_schedule::{plan_schedule, TemperatureSchedule, WorkloadPhase};
pub use variation::{monte_carlo, sample_cells, MetricBand, VariationSummary};
pub use lifetime::{lifetime_years, LIFETIME_TARGET_YEARS};
