//! Typed physical quantities for the `coldtall` workspace.
//!
//! Every model in the workspace (device physics, array characterization,
//! workload traffic, design-space exploration) passes quantities through
//! this crate's newtypes rather than bare `f64`s, so that a latency can
//! never be silently added to an energy and the engineering-notation
//! formatting is uniform in every report.
//!
//! # Examples
//!
//! ```
//! use coldtall_units::{Joules, Seconds, Watts};
//!
//! let energy = Joules::new(2.0e-12);
//! let time = Seconds::new(1.0e-9);
//! let power: Watts = energy / time;
//! assert!((power.get() - 2.0e-3).abs() < 1e-15);
//! assert_eq!(format!("{power}"), "2.000 mW");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface invalid values through `try_` APIs (or a
// documented panic in a thin `new` wrapper), never an anonymous
// `unwrap`; tests are exempt since a test failure IS the report.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#[macro_use]
mod quantity;
mod capacity;
mod electrical;
mod format;
mod temperature;

pub use capacity::Capacity;
pub use electrical::switching_energy;
pub use format::engineering;
pub use temperature::{InvalidTemperature, Kelvin};

quantity!(
    /// A duration or latency in seconds.
    Seconds,
    "s"
);
quantity!(
    /// A frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// An energy in joules.
    Joules,
    "J"
);
quantity!(
    /// A power in watts.
    Watts,
    "W"
);
quantity!(
    /// An electric potential in volts.
    Volts,
    "V"
);
quantity!(
    /// An electric current in amperes.
    Amps,
    "A"
);
quantity!(
    /// An electrical resistance in ohms.
    Ohms,
    "Ohm"
);
quantity!(
    /// A capacitance in farads.
    Farads,
    "F"
);
quantity!(
    /// An electric charge in coulombs.
    Coulombs,
    "C"
);
quantity!(
    /// A length in meters.
    Meters,
    "m"
);
quantity!(
    /// An area in square meters.
    SquareMeters,
    "m^2"
);

impl Seconds {
    /// Constructs a duration from nanoseconds.
    ///
    /// ```
    /// use coldtall_units::Seconds;
    /// assert_eq!(Seconds::from_nanos(2.0), Seconds::new(2.0e-9));
    /// ```
    #[must_use]
    pub fn from_nanos(ns: f64) -> Self {
        Self::new(ns * 1e-9)
    }

    /// Returns the duration expressed in nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> f64 {
        self.get() * 1e9
    }

    /// Constructs a duration from picoseconds.
    #[must_use]
    pub fn from_picos(ps: f64) -> Self {
        Self::new(ps * 1e-12)
    }
}

impl Joules {
    /// Constructs an energy from picojoules.
    ///
    /// ```
    /// use coldtall_units::Joules;
    /// assert_eq!(Joules::from_picos(3.0), Joules::new(3.0e-12));
    /// ```
    #[must_use]
    pub fn from_picos(pj: f64) -> Self {
        Self::new(pj * 1e-12)
    }

    /// Returns the energy expressed in picojoules.
    #[must_use]
    pub fn as_picos(self) -> f64 {
        self.get() * 1e12
    }

    /// Constructs an energy from femtojoules.
    #[must_use]
    pub fn from_femtos(fj: f64) -> Self {
        Self::new(fj * 1e-15)
    }
}

impl Watts {
    /// Constructs a power from milliwatts.
    #[must_use]
    pub fn from_millis(mw: f64) -> Self {
        Self::new(mw * 1e-3)
    }

    /// Returns the power expressed in milliwatts.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.get() * 1e3
    }
}

impl Hertz {
    /// Constructs a frequency from gigahertz.
    #[must_use]
    pub fn from_gigas(ghz: f64) -> Self {
        Self::new(ghz * 1e9)
    }

    /// Returns the period of one cycle at this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[must_use]
    pub fn period(self) -> Seconds {
        assert!(self.get() > 0.0, "period of a zero frequency is undefined");
        Seconds::new(1.0 / self.get())
    }
}

impl Meters {
    /// Constructs a length from micrometers.
    #[must_use]
    pub fn from_micros(um: f64) -> Self {
        Self::new(um * 1e-6)
    }

    /// Constructs a length from nanometers.
    #[must_use]
    pub fn from_nanos(nm: f64) -> Self {
        Self::new(nm * 1e-9)
    }

    /// Constructs a length from millimeters.
    #[must_use]
    pub fn from_millis(mm: f64) -> Self {
        Self::new(mm * 1e-3)
    }
}

impl SquareMeters {
    /// Constructs an area from square millimeters.
    #[must_use]
    pub fn from_mm2(mm2: f64) -> Self {
        Self::new(mm2 * 1e-6)
    }

    /// Returns the area expressed in square millimeters.
    #[must_use]
    pub fn as_mm2(self) -> f64 {
        self.get() * 1e6
    }

    /// Constructs an area from square micrometers.
    #[must_use]
    pub fn from_um2(um2: f64) -> Self {
        Self::new(um2 * 1e-12)
    }

    /// Returns the area expressed in square micrometers.
    #[must_use]
    pub fn as_um2(self) -> f64 {
        self.get() * 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_nanos_roundtrip() {
        let s = Seconds::from_nanos(12.5);
        assert!((s.as_nanos() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn joules_picos_roundtrip() {
        let e = Joules::from_picos(0.75);
        assert!((e.as_picos() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hertz_period() {
        let f = Hertz::from_gigas(5.0);
        assert!((f.period().as_nanos() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "period of a zero frequency")]
    fn hertz_zero_period_panics() {
        let _ = Hertz::new(0.0).period();
    }

    #[test]
    fn area_conversions() {
        let a = SquareMeters::from_mm2(2.0);
        assert!((a.as_um2() - 2.0e6).abs() < 1e-3);
    }

    #[test]
    fn display_uses_engineering_notation() {
        assert_eq!(format!("{}", Seconds::from_nanos(1.5)), "1.500 ns");
        assert_eq!(format!("{}", Watts::new(2.5e3)), "2.500 kW");
        assert_eq!(format!("{}", Joules::new(0.0)), "0.000 J");
    }
}
