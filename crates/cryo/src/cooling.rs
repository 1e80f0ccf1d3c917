//! Cryocooler cost model.

use core::fmt;

use coldtall_units::{Kelvin, Watts};

/// A 77 K refrigeration system, classified by total cooling capacity.
///
/// The paper (Section III-C, following the cryocooler survey literature
/// and "Case Studies in Superconducting Magnets" Fig. 4.5) models the
/// *cooling overhead* — joules of input energy per joule of heat removed
/// at 77 K — as a function of system scale: large plants amortize far
/// better than desktop-scale coolers.
///
/// | capacity | overhead |
/// |---|---|
/// | 100 kW | 9.65x |
/// | 1 kW | 14.3x |
/// | 100 W | 21.8x |
/// | 10 W | 39.6x |
///
/// # Examples
///
/// ```
/// use coldtall_cryo::CoolingSystem;
/// use coldtall_units::{Kelvin, Watts};
///
/// let device = Watts::new(2.0);
/// let wall = CoolingSystem::Desktop100W.wall_power(device, Kelvin::LN2);
/// assert!((wall.get() - 2.0 * 22.8).abs() < 1e-9);
///
/// // No overhead outside the cryogenic regime.
/// let warm = CoolingSystem::Desktop100W.wall_power(device, Kelvin::REFERENCE);
/// assert_eq!(warm, device);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoolingSystem {
    /// 100 kW-class server plant (the prior work's default): 9.65x.
    #[default]
    Server100kW,
    /// 1 kW-class rack cooler: 14.3x.
    Rack1kW,
    /// 100 W-class desktop cooler: 21.8x.
    Desktop100W,
    /// 10 W-class embedded cooler: 39.6x.
    Embedded10W,
}

impl CoolingSystem {
    /// All capacity tiers, largest first, as swept in the paper.
    pub const ALL: [Self; 4] = [
        Self::Server100kW,
        Self::Rack1kW,
        Self::Desktop100W,
        Self::Embedded10W,
    ];

    /// Input energy required per joule of heat removed at 77 K.
    #[must_use]
    pub fn overhead_factor(self) -> f64 {
        match self {
            Self::Server100kW => 9.65,
            Self::Rack1kW => 14.3,
            Self::Desktop100W => 21.8,
            Self::Embedded10W => 39.6,
        }
    }

    /// Total cooling capacity of this tier.
    #[must_use]
    pub fn capacity(self) -> Watts {
        match self {
            Self::Server100kW => Watts::new(100e3),
            Self::Rack1kW => Watts::new(1e3),
            Self::Desktop100W => Watts::new(100.0),
            Self::Embedded10W => Watts::new(10.0),
        }
    }

    /// Refrigeration overhead at an arbitrary sub-ambient temperature:
    /// the 77 K survey factor scaled by the Carnot work ratio
    /// `(T_amb - T)/T`, so holding 77 K costs exactly the surveyed
    /// factor, milder set-points cost proportionally less, and ambient
    /// or hotter operation costs nothing.
    #[must_use]
    pub fn overhead_at(self, t: Kelvin) -> f64 {
        const T_AMBIENT: f64 = 300.0;
        let t = t.get();
        if t >= T_AMBIENT {
            return 0.0;
        }
        let carnot = (T_AMBIENT - t) / t;
        let carnot_77 = (T_AMBIENT - 77.0) / 77.0;
        self.overhead_factor() * carnot / carnot_77
    }

    /// The wall-power multiplier at temperature `t`:
    /// `1 + overhead_at(t)`, so `wall = device * wall_factor(t)`.
    ///
    /// Exposed separately from [`CoolingSystem::wall_power`] so batched
    /// evaluation can hoist the factor out of a per-row loop — the
    /// factor depends only on the cooling tier and temperature, both
    /// constant across a configuration's benchmark plane. The scalar
    /// path multiplies by exactly this factor, which is what keeps the
    /// two paths bit-identical.
    #[must_use]
    pub fn wall_factor(self, t: Kelvin) -> f64 {
        1.0 + self.overhead_at(t)
    }

    /// Wall power of running `device_power` at temperature `t`: the
    /// device power plus the refrigeration input required to hold the
    /// set-point (zero at or above ambient).
    ///
    /// # Panics
    ///
    /// Panics if `device_power` is negative.
    #[must_use]
    pub fn wall_power(self, device_power: Watts, t: Kelvin) -> Watts {
        assert!(
            device_power.get() >= 0.0,
            "device power must be non-negative"
        );
        device_power * self.wall_factor(t)
    }
}

/// Continuous cooling-overhead model: interpolates the cryocooler
/// survey's (capacity, overhead) points log-log, clamped at both ends.
///
/// This supports studies between the four discrete tiers — e.g. "how big
/// must the plant be before a given workload's cryogenic LLC pays off?".
///
/// # Examples
///
/// ```
/// use coldtall_cryo::{overhead_for_capacity, CoolingSystem};
/// use coldtall_units::Watts;
///
/// // Reproduces the tier anchors exactly...
/// let at_100w = overhead_for_capacity(Watts::new(100.0));
/// assert!((at_100w - 21.8).abs() < 1e-9);
/// // ...and interpolates between them.
/// let mid = overhead_for_capacity(Watts::new(300.0));
/// assert!(mid < 21.8 && mid > 14.3);
/// ```
///
/// # Panics
///
/// Panics if `capacity` is not strictly positive.
#[must_use]
pub fn overhead_for_capacity(capacity: Watts) -> f64 {
    assert!(capacity.get() > 0.0, "cooling capacity must be positive");
    // Survey anchors, ascending capacity.
    const POINTS: [(f64, f64); 4] = [(10.0, 39.6), (100.0, 21.8), (1.0e3, 14.3), (1.0e5, 9.65)];
    let c = capacity.get();
    if c <= POINTS[0].0 {
        return POINTS[0].1;
    }
    if c >= POINTS[3].0 {
        return POINTS[3].1;
    }
    for pair in POINTS.windows(2) {
        let (c0, f0) = pair[0];
        let (c1, f1) = pair[1];
        if c <= c1 {
            let t = (c.ln() - c0.ln()) / (c1.ln() - c0.ln());
            return (f0.ln() + t * (f1.ln() - f0.ln())).exp();
        }
    }
    unreachable!("capacity bracketed above")
}

impl fmt::Display for CoolingSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, x) = match self {
            Self::Server100kW => ("100 kW plant", 9.65),
            Self::Rack1kW => ("1 kW rack", 14.3),
            Self::Desktop100W => ("100 W desktop", 21.8),
            Self::Embedded10W => ("10 W embedded", 39.6),
        };
        write!(f, "{name} ({x}x)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_match_the_survey() {
        assert_eq!(CoolingSystem::Server100kW.overhead_factor(), 9.65);
        assert_eq!(CoolingSystem::Rack1kW.overhead_factor(), 14.3);
        assert_eq!(CoolingSystem::Desktop100W.overhead_factor(), 21.8);
        assert_eq!(CoolingSystem::Embedded10W.overhead_factor(), 39.6);
    }

    #[test]
    fn smaller_systems_cost_more_per_joule() {
        let mut prev = 0.0;
        for sys in CoolingSystem::ALL {
            assert!(sys.overhead_factor() > prev);
            prev = sys.overhead_factor();
        }
    }

    #[test]
    fn wall_power_at_77k_includes_one_plus_factor() {
        let p = CoolingSystem::Server100kW.wall_power(Watts::new(1.0), Kelvin::LN2);
        assert!((p.get() - 10.65).abs() < 1e-12);
    }

    #[test]
    fn wall_factor_is_the_exact_wall_power_multiplier() {
        for sys in CoolingSystem::ALL {
            for t in [77.0, 150.0, 300.0, 350.0] {
                let t = Kelvin::new(t);
                let factor = sys.wall_factor(t);
                assert_eq!(factor, 1.0 + sys.overhead_at(t));
                // Bit-identical, not merely close: the batched kernel
                // multiplies by the hoisted factor.
                let device = Watts::new(2.5);
                assert_eq!(sys.wall_power(device, t), device * factor);
            }
        }
        assert_eq!(CoolingSystem::Server100kW.wall_factor(Kelvin::ROOM), 1.0);
    }

    #[test]
    fn no_overhead_at_or_above_ambient() {
        for t in [300.0, 350.0, 387.0] {
            let p = CoolingSystem::Embedded10W.wall_power(Watts::new(3.0), Kelvin::new(t));
            assert_eq!(p.get(), 3.0);
        }
    }

    #[test]
    fn carnot_scaling_between_77k_and_ambient() {
        let sys = CoolingSystem::Server100kW;
        assert!((sys.overhead_at(Kelvin::LN2) - 9.65).abs() < 1e-12);
        assert_eq!(sys.overhead_at(Kelvin::ROOM), 0.0);
        // Milder set-points cost monotonically less.
        let mut prev = f64::INFINITY;
        for t in [77.0, 127.0, 177.0, 227.0, 277.0, 299.0] {
            let o = sys.overhead_at(Kelvin::new(t));
            assert!(o < prev, "overhead must fall with temperature at {t} K");
            prev = o;
        }
        // Holding 150 K costs roughly a third of holding 77 K.
        let mid = sys.overhead_at(Kelvin::new(150.0));
        assert!(mid > 2.0 && mid < 5.0, "150 K overhead = {mid}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_rejected() {
        let _ = CoolingSystem::Server100kW.wall_power(Watts::new(-1.0), Kelvin::LN2);
    }

    #[test]
    fn display() {
        assert_eq!(
            CoolingSystem::Server100kW.to_string(),
            "100 kW plant (9.65x)"
        );
    }

    #[test]
    fn continuous_model_hits_every_tier_anchor() {
        for sys in CoolingSystem::ALL {
            let f = overhead_for_capacity(sys.capacity());
            assert!(
                (f - sys.overhead_factor()).abs() < 1e-9,
                "{sys}: interpolated {f}"
            );
        }
    }

    #[test]
    fn continuous_model_is_monotone_decreasing_in_capacity() {
        let mut prev = f64::INFINITY;
        let mut c = 5.0;
        while c < 1e6 {
            let f = overhead_for_capacity(Watts::new(c));
            assert!(f <= prev + 1e-12, "overhead must not rise at {c} W");
            prev = f;
            c *= 1.5;
        }
    }

    #[test]
    fn continuous_model_clamps_at_the_survey_edges() {
        assert_eq!(overhead_for_capacity(Watts::new(1.0)), 39.6);
        assert_eq!(overhead_for_capacity(Watts::new(1.0e7)), 9.65);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_capacity_rejected() {
        let _ = overhead_for_capacity(Watts::new(0.0));
    }
}
