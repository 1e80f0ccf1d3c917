//! 2D/3D memory-array characterization engine.
//!
//! This crate reimplements the roles of NVSim, CACTI, and Destiny in the
//! paper's toolflow: given a memory-cell model, a capacity, a die count,
//! and an operating point, it derives the array-level characteristics the
//! design-space exploration consumes — read/write latency, read/write
//! energy per access, leakage power, refresh behaviour, and silicon area.
//!
//! The engine models the classic CACTI decomposition: subarrays of
//! `rows x cols` cells with row decoders, wordline drivers, bitlines,
//! and sense amplifiers; subarrays tiled across one or more dies; an
//! H-tree distribution network whose length follows the die footprint;
//! and, for 3D configurations, through-silicon vias (TSVs) or
//! finer-grained bonding depending on the stacking style. An organization
//! optimizer searches the subarray-dimension space for the configuration
//! minimizing a chosen objective (energy-delay product by default, as in
//! the paper).
//!
//! # Examples
//!
//! ```
//! use coldtall_array::{ArraySpec, Objective};
//! use coldtall_cell::CellModel;
//! use coldtall_tech::ProcessNode;
//!
//! let node = ProcessNode::ptm_22nm_hp();
//! let spec = ArraySpec::llc_16mib(CellModel::sram(&node), &node);
//! let result = spec.characterize(Objective::EnergyDelayProduct);
//! assert!(result.read_latency.get() > 0.0);
//! assert!(result.footprint.as_mm2() > 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface impossible configurations through the
// `try_` builders (or a documented panic in a thin wrapper), never an
// anonymous `unwrap`; tests are exempt since a test failure IS the
// report.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod calib;
mod characterize;
mod ecc;
mod components;
mod optimizer;
mod org_geometry;
mod organization;
mod spec;
mod stacking;

pub use characterize::ArrayCharacterization;
pub use components::Geometry;
pub use ecc::EccScheme;
pub use optimizer::{ComponentFloors, Objective};
pub use org_geometry::{geometry_code_epoch, OrgGeometry};
pub use organization::Organization;
pub use spec::{ArraySpec, SpecError};
pub use stacking::Stacking;
