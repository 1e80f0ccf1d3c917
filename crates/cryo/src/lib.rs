//! Cryogenic-operation models: cooling overheads, temperature sweeps,
//! and thermal feasibility.
//!
//! This crate is the CryoMEM-equivalent layer of the reproduction. The
//! temperature-dependent device physics lives in `coldtall-tech` and
//! flows through the array engine, whose cryogenic voltage-scaling
//! policy is `ArraySpec::at_temperature_cryo`; what remains — and what
//! this crate provides, depending on `coldtall-units` alone — is the
//! *system* side of cryogenic operation:
//!
//! * the cost of refrigeration ([`CoolingSystem`]), following the
//!   cryocooler survey data the paper uses (9.65x at 100 kW scale up to
//!   39.6x at 10 W scale),
//! * the study's canonical temperature sweep (77 K to 387 K in ~50 K
//!   steps),
//! * a liquid-nitrogen bath thermal-budget check mirroring the paper's
//!   discussion section.
//!
//! # Examples
//!
//! ```
//! use coldtall_cryo::CoolingSystem;
//! use coldtall_units::{Kelvin, Watts};
//!
//! // A watt of 77 K device power costs 10.65 W at the wall.
//! let wall = CoolingSystem::Server100kW.wall_power(Watts::new(1.0), Kelvin::LN2);
//! assert!((wall.get() - 10.65).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cooling;
mod regime;
mod sweep;
mod thermal;

pub use cooling::{overhead_for_capacity, CoolingSystem};
pub use regime::OperatingRegime;
pub use sweep::{study_temperatures, TemperatureSweep};
pub use thermal::LnBath;
