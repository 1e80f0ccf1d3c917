//! Temperature-aware MOSFET model.

use coldtall_units::{Amps, Farads, Kelvin, Meters, Ohms, Volts};

use crate::constants::{
    ALPHA_POWER, MOBILITY_CAP, MOBILITY_EXPONENT, NMOS_GATE_LEAK_FRACTION, NMOS_IOFF_300K,
    NMOS_ION_300K, NMOS_VTH_TEMPCO, PMOS_GATE_LEAK_FRACTION, PMOS_ION_RATIO, PMOS_VTH_OFFSET,
    PMOS_VTH_TEMPCO, SUBTHRESHOLD_IDEALITY, T_REF,
};
use crate::process::ProcessNode;
use crate::scaling::OperatingPoint;

/// Channel polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// An analytical MOSFET model valid from 77 K to 400 K.
///
/// The model captures the three first-order temperature effects that drive
/// the cryogenic-memory results:
///
/// 1. the threshold voltage rises as the die cools (polarity-specific
///    temperature coefficients),
/// 2. subthreshold leakage scales as `(T/300)^2 exp(-Vth / (n kT/q))` and
///    bottoms out on a temperature-insensitive tunneling floor,
/// 3. carrier mobility improves as `(300/T)^1.5`, capped by
///    ionized-impurity scattering.
///
/// # Examples
///
/// ```
/// use coldtall_tech::{Mosfet, OperatingPoint, ProcessNode};
/// use coldtall_units::Kelvin;
///
/// let node = ProcessNode::ptm_22nm_hp();
/// let nmos = Mosfet::nmos(&node);
/// let hot = OperatingPoint::nominal(&node, Kelvin::new(387.0));
/// let warm = OperatingPoint::nominal(&node, Kelvin::REFERENCE);
/// assert!(nmos.leakage_current_per_um(&hot) > nmos.leakage_current_per_um(&warm));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mosfet {
    polarity: Polarity,
    /// NMOS-referenced nominal threshold at 300 K.
    vth_base: Volts,
    /// Polarity offset added on top of the base threshold.
    vth_offset: Volts,
    /// Additional threshold boost (e.g. high-Vth cell transistors).
    vth_boost: Volts,
    tempco: f64,
    ion_300k_per_um: Amps,
    subthreshold_prefactor_per_um: Amps,
    gate_leak_per_um: Amps,
    gate_cap_per_m: Farads,
    junction_cap_per_m: Farads,
    vdd_nominal: Volts,
    vth_nominal: Volts,
}

impl Mosfet {
    /// Constructs the node's standard NMOS device.
    #[must_use]
    pub fn nmos(node: &ProcessNode) -> Self {
        Self::build(node, Polarity::Nmos)
    }

    /// Constructs the node's standard PMOS device.
    #[must_use]
    pub fn pmos(node: &ProcessNode) -> Self {
        Self::build(node, Polarity::Pmos)
    }

    fn build(node: &ProcessNode, polarity: Polarity) -> Self {
        let vth_base = node.vth_nominal();
        let n_vt_300 = SUBTHRESHOLD_IDEALITY * Kelvin::new(T_REF).thermal_voltage();
        // Prefactor chosen so the NMOS off-current at 300 K and nominal
        // threshold equals the node's published value.
        let i_s0_nmos = NMOS_IOFF_300K / (-vth_base.get() / n_vt_300).exp();
        let (vth_offset, tempco, ion, i_s0, gate_frac) = match polarity {
            Polarity::Nmos => (
                Volts::ZERO,
                NMOS_VTH_TEMPCO,
                NMOS_ION_300K,
                i_s0_nmos,
                NMOS_GATE_LEAK_FRACTION,
            ),
            Polarity::Pmos => (
                Volts::new(PMOS_VTH_OFFSET),
                PMOS_VTH_TEMPCO,
                NMOS_ION_300K * PMOS_ION_RATIO,
                i_s0_nmos * PMOS_ION_RATIO,
                PMOS_GATE_LEAK_FRACTION,
            ),
        };
        // The tunneling floor is referenced to the NMOS subthreshold
        // current at the paper's 350 K baseline temperature, making the
        // 77 K / 350 K total-leakage ratio land at ~1e-6.
        let i_sub_350_nominal = {
            let t = 350.0;
            let vth = vth_base.get() + NMOS_VTH_TEMPCO * (T_REF - t);
            let n_vt = SUBTHRESHOLD_IDEALITY * Kelvin::new(t).thermal_voltage();
            i_s0_nmos * (t / T_REF).powi(2) * (-vth / n_vt).exp()
        };
        Self {
            polarity,
            vth_base,
            vth_offset,
            vth_boost: Volts::ZERO,
            tempco,
            ion_300k_per_um: Amps::new(ion),
            subthreshold_prefactor_per_um: Amps::new(i_s0),
            gate_leak_per_um: Amps::new(gate_frac * i_sub_350_nominal),
            gate_cap_per_m: node.gate_cap_per_m(),
            junction_cap_per_m: node.junction_cap_per_m(),
            vdd_nominal: node.vdd_nominal(),
            vth_nominal: node.vth_nominal(),
        }
    }

    /// Returns a copy of the device with an additional threshold boost,
    /// as used for high-Vth memory-cell transistors.
    ///
    /// # Panics
    ///
    /// Panics if the boost is negative.
    #[must_use]
    pub fn with_vth_boost(mut self, boost: Volts) -> Self {
        assert!(boost.get() >= 0.0, "threshold boost must be non-negative");
        self.vth_boost = boost;
        self
    }

    /// The device polarity.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Effective threshold voltage magnitude at the given operating point.
    ///
    /// When the operating point carries a cryogenic threshold retarget,
    /// the natural temperature drift is replaced by the retargeted base
    /// value; polarity offset and cell boost still apply.
    #[must_use]
    pub fn vth(&self, op: &OperatingPoint) -> Volts {
        let base = match op.vth_override() {
            Some(v) => v.get(),
            None => self.vth_base.get() + self.tempco * (T_REF - op.temperature().get()),
        };
        Volts::new(base + self.vth_offset.get() + self.vth_boost.get())
    }

    /// Effective threshold magnitude governing *drive current* (strong
    /// inversion): drifts with the milder [`DRIVE_VTH_TEMPCO`] rather
    /// than the steep weak-inversion coefficient used for leakage.
    ///
    /// [`DRIVE_VTH_TEMPCO`]: crate::constants::DRIVE_VTH_TEMPCO
    #[must_use]
    pub fn vth_drive(&self, op: &OperatingPoint) -> Volts {
        let base = match op.vth_override() {
            Some(v) => v.get(),
            None => {
                self.vth_base.get()
                    + crate::constants::DRIVE_VTH_TEMPCO * (T_REF - op.temperature().get())
            }
        };
        Volts::new(base + self.vth_offset.get() + self.vth_boost.get())
    }

    /// Carrier-mobility improvement factor relative to 300 K.
    #[must_use]
    pub fn mobility_factor(&self, t: Kelvin) -> f64 {
        (T_REF / t.get()).powf(MOBILITY_EXPONENT).min(MOBILITY_CAP)
    }

    /// Saturation drain current per micron of gate width (alpha-power law
    /// with mobility scaling).
    ///
    /// The overdrive is floored at 50 mV: a device driven below threshold
    /// contributes essentially no drive current rather than a negative one.
    #[must_use]
    pub fn on_current_per_um(&self, op: &OperatingPoint) -> Amps {
        let overdrive_nominal = self.vdd_nominal.get() - self.vth_nominal.get();
        let overdrive = (op.vdd().get() - self.vth_drive(op).get()).max(0.05);
        let drive = (overdrive / overdrive_nominal).powf(ALPHA_POWER);
        self.ion_300k_per_um * (self.mobility_factor(op.temperature()) * drive)
    }

    /// Subthreshold leakage current per micron of gate width.
    #[must_use]
    pub fn subthreshold_current_per_um(&self, op: &OperatingPoint) -> Amps {
        let t = op.temperature().get();
        let n_vt = SUBTHRESHOLD_IDEALITY * op.temperature().thermal_voltage();
        let factor = (t / T_REF).powi(2) * (-self.vth(op).get() / n_vt).exp();
        self.subthreshold_prefactor_per_um * factor
    }

    /// Gate/junction tunneling leakage per micron of gate width
    /// (temperature-insensitive; scales with supply voltage).
    #[must_use]
    pub fn gate_leakage_per_um(&self, op: &OperatingPoint) -> Amps {
        self.gate_leak_per_um * (op.vdd() / self.vdd_nominal)
    }

    /// Total leakage current per micron of width: subthreshold plus the
    /// tunneling floor.
    #[must_use]
    pub fn leakage_current_per_um(&self, op: &OperatingPoint) -> Amps {
        self.subthreshold_current_per_um(op) + self.gate_leakage_per_um(op)
    }

    /// Effective switching resistance of a device of width `width`.
    ///
    /// Uses the standard `R_eq ~ 1.2 Vdd / Ion` large-signal approximation.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive.
    #[must_use]
    pub fn equivalent_resistance(&self, op: &OperatingPoint, width: Meters) -> Ohms {
        Self::resistance_from_ion(self.on_current_per_um(op), op, width)
    }

    /// [`Mosfet::equivalent_resistance`] from a pre-computed on-current
    /// density — bit-identical to the method form when `ion_per_um`
    /// equals `self.on_current_per_um(op)`. The per-temperature device
    /// context sizes three drivers (minimum, wordline, write) from one
    /// device, so it evaluates the alpha-power/mobility laws once and
    /// derives every width through this entry point.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive.
    #[must_use]
    pub fn resistance_from_ion(ion_per_um: Amps, op: &OperatingPoint, width: Meters) -> Ohms {
        assert!(width.get() > 0.0, "transistor width must be positive");
        let ion = ion_per_um.get() * (width.get() * 1e6);
        Ohms::new(1.2 * op.vdd().get() / ion)
    }

    /// Gate capacitance of a device of width `width`.
    #[must_use]
    pub fn gate_cap(&self, width: Meters) -> Farads {
        self.gate_cap_per_m * width.get()
    }

    /// Source/drain junction capacitance of a device of width `width`.
    #[must_use]
    pub fn junction_cap(&self, width: Meters) -> Farads {
        self.junction_cap_per_m * width.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> ProcessNode {
        ProcessNode::ptm_22nm_hp()
    }

    fn at(t: f64) -> OperatingPoint {
        OperatingPoint::nominal(&node(), Kelvin::new(t))
    }

    #[test]
    fn off_current_calibration_at_300k() {
        let nmos = Mosfet::nmos(&node());
        let i = nmos.subthreshold_current_per_um(&at(300.0));
        assert!(
            (i.get() - NMOS_IOFF_300K).abs() / NMOS_IOFF_300K < 0.01,
            "ioff = {i}"
        );
    }

    #[test]
    fn leakage_ratio_77k_to_350k_is_about_1e6() {
        let n = node();
        let nmos = Mosfet::nmos(&n);
        let cryo = OperatingPoint::cryo_optimized(&n, Kelvin::LN2);
        let base = OperatingPoint::nominal(&n, Kelvin::REFERENCE);
        // Plain (nominal-Vth) devices bottom out deeper than the 1e-6
        // cell-level anchor because their 350 K subthreshold reference is
        // ~60x higher than a high-Vth cell transistor's.
        let ratio = nmos.leakage_current_per_um(&cryo) / nmos.leakage_current_per_um(&base);
        assert!(
            ratio > 1e-9 && ratio < 1e-7,
            "77K/350K leakage ratio = {ratio:e}"
        );
    }

    #[test]
    fn leakage_monotone_in_temperature() {
        let nmos = Mosfet::nmos(&node());
        let mut prev = 0.0;
        for t in [77.0, 127.0, 177.0, 227.0, 277.0, 327.0, 387.0] {
            let i = nmos.leakage_current_per_um(&at(t)).get();
            assert!(i >= prev, "leakage not monotone at {t} K");
            prev = i;
        }
    }

    #[test]
    fn pmos_leaks_less_than_nmos() {
        let n = node();
        let nmos = Mosfet::nmos(&n);
        let pmos = Mosfet::pmos(&n);
        for t in [77.0, 200.0, 300.0, 350.0, 387.0] {
            let op = at(t);
            assert!(
                pmos.leakage_current_per_um(&op).get() < nmos.leakage_current_per_um(&op).get(),
                "PMOS should leak less at {t} K"
            );
        }
    }

    #[test]
    fn pmos_advantage_grows_with_temperature() {
        let n = node();
        let nmos = Mosfet::nmos(&n);
        let pmos = Mosfet::pmos(&n);
        let ratio = |t: f64| {
            let op = at(t);
            nmos.leakage_current_per_um(&op) / pmos.leakage_current_per_um(&op)
        };
        // The advantage at 350 K should be roughly an order of magnitude
        // beyond the 77 K (tunneling-floor) advantage.
        assert!(ratio(350.0) > 3.0 * ratio(77.0));
    }

    #[test]
    fn mobility_capped_at_cryo() {
        let nmos = Mosfet::nmos(&node());
        assert!((nmos.mobility_factor(Kelvin::LN2) - MOBILITY_CAP).abs() < 1e-12);
        assert!(nmos.mobility_factor(Kelvin::new(350.0)) < 1.0);
        assert!((nmos.mobility_factor(Kelvin::ROOM) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cryo_device_is_faster() {
        let n = node();
        let nmos = Mosfet::nmos(&n);
        let cryo = OperatingPoint::cryo_optimized(&n, Kelvin::LN2);
        let base = OperatingPoint::nominal(&n, Kelvin::REFERENCE);
        let w = Meters::from_nanos(100.0);
        let speedup = nmos.equivalent_resistance(&base, w) / nmos.equivalent_resistance(&cryo, w);
        assert!(speedup > 2.0 && speedup < 6.0, "device speedup = {speedup}");
    }

    #[test]
    fn vth_boost_reduces_leakage() {
        let n = node();
        let plain = Mosfet::nmos(&n);
        let boosted = Mosfet::nmos(&n).with_vth_boost(Volts::new(0.05));
        let op = at(350.0);
        assert!(
            boosted.subthreshold_current_per_um(&op).get()
                < plain.subthreshold_current_per_um(&op).get()
        );
    }

    #[test]
    fn capacitances_scale_with_width() {
        let nmos = Mosfet::nmos(&node());
        let c1 = nmos.gate_cap(Meters::from_nanos(100.0));
        let c2 = nmos.gate_cap(Meters::from_nanos(200.0));
        assert!((c2.get() / c1.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_resistance_panics() {
        let nmos = Mosfet::nmos(&node());
        let _ = nmos.equivalent_resistance(&at(300.0), Meters::new(0.0));
    }
}
