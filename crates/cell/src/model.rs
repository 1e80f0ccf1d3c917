//! The cell model consumed by the array-characterization engine.

use coldtall_tech::{Mosfet, OperatingPoint, ProcessNode};
use coldtall_units::{Amps, Farads, Joules, Kelvin, Seconds, Volts, Watts};

use crate::survey::SurveyEntry;
use crate::technology::MemoryTechnology;
use crate::tentpole::Tentpole;

/// How a cell's state is read out onto the bitline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadMechanism {
    /// The cell develops a small differential voltage on precharged
    /// bitlines (SRAM, gain-cell eDRAM).
    VoltageSense {
        /// Bitline swing that must develop before the sense amplifier
        /// fires.
        swing: Volts,
    },
    /// A read current through the resistive storage element is compared
    /// against a reference (PCM, STT-RAM, RRAM, SOT-RAM).
    CurrentSense,
}

/// A decaying storage node (eDRAM cells).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageNode {
    /// Storage capacitance.
    pub capacitance: Farads,
    /// Voltage margin that may decay before data is lost.
    pub margin: Volts,
}

/// Suppression factor of gate tunneling into an eDRAM storage node
/// relative to a standard logic gate (thicker-oxide boosted devices).
/// Calibrated so 77 K retention improves by more than the paper's
/// 10,000x anchor over 300 K.
const STORAGE_GATE_SUPPRESSION: f64 = 0.003;

/// Threshold boost applied to memory-cell transistors relative to logic
/// devices (high-Vth cell implant), calibrated to a ~0.5 W 16 MiB SRAM
/// cell-leakage budget at 350 K.
const CELL_VTH_BOOST: f64 = 0.19;

/// Default MTJ thermal-stability factor Δ at the reference temperature
/// (350 K): the ten-year-retention design point of the surveyed STT-RAM
/// demonstrations (Garzón et al.).
const MTJ_DELTA_REF: f64 = 60.0;

/// Néel-Brown attempt time τ0 of the MTJ free layer, the prefactor of
/// the thermally-activated retention law `t_ret = τ0 · exp(Δ(T))`.
const MTJ_ATTEMPT_TIME_S: f64 = 1.0e-9;

/// Slope of the MTJ switching-energy increase toward cryogenic
/// temperatures: the write-energy factor is
/// `1 + c · (T_ref/T − 1)`, exactly `1.0` at the 350 K reference.
/// Garzón et al. measure higher critical switching currents as Δ(T)
/// grows toward 77 K; `c` is calibrated so writes cost ~1.9x at 77 K.
const MTJ_WRITE_ENERGY_TEMP_COEFF: f64 = 0.25;

/// Temperature-dependent behavior of an STT-MRAM magnetic tunnel
/// junction, following Garzón et al. ("Adjusting Thermal Stability in
/// Double-Barrier MTJ for Energy Improvement in Cryogenic STT-MRAMs"):
/// the thermal-stability factor scales as `Δ(T) = Δ_ref · T_ref / T`
/// with `T_ref = 350 K`, dragging retention, write energy, and the
/// thermally-activated write-error rate with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtjThermal {
    /// Thermal-stability factor Δ(T) = E_barrier / (k_B · T).
    pub delta: f64,
    /// Néel-Brown retention time `τ0 · exp(Δ(T))`. Saturates to
    /// infinity when Δ(T) exceeds the representable exponent range —
    /// still ordered and still comparable against scrub thresholds.
    pub retention: Seconds,
    /// Multiplier on the cell write energy relative to the 350 K
    /// reference: exactly `1.0` at 350 K (bit-for-bit), above `1.0`
    /// toward cryo where the higher Δ(T) raises the switching current.
    pub write_energy_factor: f64,
    /// Thermally-activated write-error rate `exp(−Δ(T))`: the
    /// probability a written bit back-hops during the verify window.
    /// Shrinks toward cryo as the barrier grows.
    pub write_error_rate: f64,
}

/// The four leakage-path device models of a cell, pre-built at cell
/// construction so per-temperature queries ([`CellModel::leakage_current`],
/// [`CellModel::retention`]) evaluate only the operating-point-dependent
/// laws instead of re-running the exponential-heavy [`Mosfet`]
/// calibration four times per call. Building a device is pure and
/// deterministic, so the pre-built copies are bit-identical to the
/// historical per-call constructions.
#[derive(Debug, Clone, PartialEq)]
struct CellDevices {
    /// High-Vth (cell-implant) NMOS: subthreshold paths.
    nmos_boosted: Mosfet,
    /// High-Vth (cell-implant) PMOS: subthreshold paths.
    pmos_boosted: Mosfet,
    /// Standard-threshold NMOS: gate-tunneling paths.
    nmos_plain: Mosfet,
    /// Standard-threshold PMOS: gate-tunneling paths.
    pmos_plain: Mosfet,
}

impl CellDevices {
    fn new(node: &ProcessNode, vth_boost: Volts) -> Self {
        Self {
            nmos_boosted: Mosfet::nmos(node).with_vth_boost(vth_boost),
            pmos_boosted: Mosfet::pmos(node).with_vth_boost(vth_boost),
            nmos_plain: Mosfet::nmos(node),
            pmos_plain: Mosfet::pmos(node),
        }
    }
}

/// A storage-cell model: everything the array engine needs to know about
/// one bit of a given technology.
///
/// Construct with [`CellModel::sram`], [`CellModel::edram_3t`],
/// [`CellModel::edram_1t1c`], [`CellModel::from_survey`], or
/// [`CellModel::tentpole`].
///
/// # Examples
///
/// ```
/// use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
/// use coldtall_tech::{OperatingPoint, ProcessNode};
/// use coldtall_units::Kelvin;
///
/// let node = ProcessNode::ptm_22nm_hp();
/// let sram = CellModel::sram(&node);
/// let op = OperatingPoint::nominal(&node, Kelvin::REFERENCE);
/// assert!(sram.leakage_power(&node, &op).get() > 0.0);
///
/// let stt = CellModel::tentpole(MemoryTechnology::SttRam, Tentpole::Optimistic, &node);
/// assert_eq!(stt.leakage_power(&node, &op).get(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellModel {
    technology: MemoryTechnology,
    tentpole: Option<Tentpole>,
    area_f2: f64,
    // Total transistor widths (meters) participating in each leakage path.
    nmos_sub_width: f64,
    pmos_sub_width: f64,
    nmos_gate_width: f64,
    pmos_gate_width: f64,
    /// Width of the suppressed storage-node tunneling path (already
    /// scaled by [`STORAGE_GATE_SUPPRESSION`]).
    storage_gate_width: f64,
    vth_boost: Volts,
    read_mechanism: ReadMechanism,
    read_intrinsic: Seconds,
    read_energy_cell: Joules,
    write_pulse: Seconds,
    write_energy_cell: Joules,
    storage: Option<StorageNode>,
    endurance_writes: f64,
    nonvolatile: bool,
    mlc_bits: u8,
    /// MTJ thermal-stability factor at `Kelvin::REFERENCE`, for cells
    /// whose retention and write costs follow the Δ(T) law (STT-RAM).
    /// `None` for every other technology.
    mtj_delta_ref: Option<f64>,
    /// Pre-built leakage-path devices (see [`CellDevices`]).
    devices: CellDevices,
}

impl CellModel {
    /// The six-transistor SRAM cell (146 F^2, high-Vth cell devices).
    #[must_use]
    pub fn sram(node: &ProcessNode) -> Self {
        let w_min = node.min_width().get();
        Self {
            technology: MemoryTechnology::Sram,
            tentpole: None,
            area_f2: 146.0,
            // Two NMOS-dominated subthreshold paths per cell.
            nmos_sub_width: 2.0 * w_min,
            pmos_sub_width: 0.0,
            // Four NMOS and two PMOS gates tunnel.
            nmos_gate_width: 4.0 * w_min,
            pmos_gate_width: 2.0 * w_min,
            storage_gate_width: 0.0,
            vth_boost: Volts::new(CELL_VTH_BOOST),
            read_mechanism: ReadMechanism::VoltageSense {
                swing: Volts::new(0.1),
            },
            read_intrinsic: Seconds::from_picos(100.0),
            read_energy_cell: Joules::ZERO,
            write_pulse: Seconds::from_picos(150.0),
            write_energy_cell: Joules::ZERO,
            storage: None,
            endurance_writes: 1.0e16,
            nonvolatile: false,
            mlc_bits: 1,
            mtj_delta_ref: None,
            devices: CellDevices::new(node, Volts::new(CELL_VTH_BOOST)),
        }
    }

    /// The PMOS-only three-transistor gain-cell eDRAM (70 F^2), twice as
    /// dense as SRAM and far lower-leakage, but requiring refresh.
    #[must_use]
    pub fn edram_3t(node: &ProcessNode) -> Self {
        let w_min = node.min_width().get();
        Self {
            technology: MemoryTechnology::Edram3T,
            tentpole: None,
            area_f2: 70.0,
            nmos_sub_width: 0.0,
            // One PMOS write-transistor subthreshold path.
            pmos_sub_width: w_min,
            nmos_gate_width: 0.0,
            // Two standard PMOS gates; the storage-node path is
            // tunneling-suppressed.
            pmos_gate_width: 2.0 * w_min,
            storage_gate_width: STORAGE_GATE_SUPPRESSION * w_min,
            vth_boost: Volts::new(CELL_VTH_BOOST),
            read_mechanism: ReadMechanism::VoltageSense {
                swing: Volts::new(0.1),
            },
            read_intrinsic: Seconds::from_picos(120.0),
            read_energy_cell: Joules::ZERO,
            write_pulse: Seconds::from_picos(200.0),
            write_energy_cell: Joules::ZERO,
            storage: Some(StorageNode {
                capacitance: Farads::new(0.4e-15),
                margin: Volts::new(0.2),
            }),
            endurance_writes: 1.0e16,
            nonvolatile: false,
            mlc_bits: 1,
            mtj_delta_ref: None,
            devices: CellDevices::new(node, Volts::new(CELL_VTH_BOOST)),
        }
    }

    /// The one-transistor one-capacitor eDRAM (30 F^2, deep-trench
    /// capacitor). Modelled for completeness; the paper excludes it from
    /// the headline study because it is slower and more dynamic-energy
    /// hungry than SRAM and 3T-eDRAM.
    #[must_use]
    pub fn edram_1t1c(node: &ProcessNode) -> Self {
        let w_min = node.min_width().get();
        Self {
            technology: MemoryTechnology::Edram1T1C,
            tentpole: None,
            area_f2: 30.0,
            nmos_sub_width: w_min,
            pmos_sub_width: 0.0,
            nmos_gate_width: w_min,
            pmos_gate_width: 0.0,
            storage_gate_width: 0.0,
            vth_boost: Volts::new(CELL_VTH_BOOST),
            read_mechanism: ReadMechanism::VoltageSense {
                swing: Volts::new(0.06),
            },
            read_intrinsic: Seconds::from_picos(500.0),
            // Destructive read: the row must be written back.
            read_energy_cell: Joules::from_femtos(15.0),
            write_pulse: Seconds::from_picos(600.0),
            write_energy_cell: Joules::from_femtos(10.0),
            storage: Some(StorageNode {
                capacitance: Farads::new(10.0e-15),
                margin: Volts::new(0.15),
            }),
            endurance_writes: 1.0e16,
            nonvolatile: false,
            mlc_bits: 1,
            mtj_delta_ref: None,
            devices: CellDevices::new(node, Volts::new(CELL_VTH_BOOST)),
        }
    }

    /// Builds a cell model from one surveyed eNVM demonstration.
    ///
    /// # Panics
    ///
    /// Panics if the entry belongs to a technology without a resistive
    /// storage element (SRAM/eDRAM entries never appear in the survey).
    #[must_use]
    pub fn from_survey(entry: &SurveyEntry, node: &ProcessNode) -> Self {
        assert!(
            entry.technology.is_nonvolatile(),
            "survey entries must be eNVM technologies"
        );
        Self {
            technology: entry.technology,
            tentpole: None,
            area_f2: entry.cell_area_f2,
            // NVSim-style assumption: eNVM cells do not leak; the access
            // device sits in series with a high-resistance element.
            nmos_sub_width: 0.0,
            pmos_sub_width: 0.0,
            nmos_gate_width: 0.0,
            pmos_gate_width: 0.0,
            storage_gate_width: 0.0,
            vth_boost: Volts::ZERO,
            read_mechanism: ReadMechanism::CurrentSense,
            read_intrinsic: Seconds::from_nanos(entry.read_sense_ns),
            read_energy_cell: Joules::from_picos(entry.read_energy_pj),
            write_pulse: Seconds::from_nanos(entry.write_latency_ns),
            write_energy_cell: Joules::from_picos(entry.write_energy_pj),
            storage: None,
            endurance_writes: entry.endurance_writes,
            nonvolatile: true,
            mlc_bits: entry.mlc_bits,
            mtj_delta_ref: (entry.technology == MemoryTechnology::SttRam).then_some(MTJ_DELTA_REF),
            devices: CellDevices::new(node, Volts::ZERO),
        }
    }

    /// Builds the requested technology's cell model: the analytical model
    /// for SRAM/eDRAM, or the tentpole bounding cell for eNVMs.
    #[must_use]
    pub fn tentpole(technology: MemoryTechnology, tentpole: Tentpole, node: &ProcessNode) -> Self {
        match technology {
            MemoryTechnology::Sram => Self::sram(node),
            MemoryTechnology::Edram3T => Self::edram_3t(node),
            MemoryTechnology::Edram1T1C => Self::edram_1t1c(node),
            _ => {
                let entry = tentpole
                    .bounding_entry(technology)
                    .expect("eNVM technologies always have survey entries");
                let mut cell = Self::from_survey(&entry, node);
                cell.tentpole = Some(tentpole);
                cell
            }
        }
    }

    /// The cell's technology.
    #[must_use]
    pub fn technology(&self) -> MemoryTechnology {
        self.technology
    }

    /// The tentpole this cell was derived from, if any.
    #[must_use]
    pub fn tentpole_kind(&self) -> Option<Tentpole> {
        self.tentpole
    }

    /// Cell footprint in squared feature sizes.
    #[must_use]
    pub fn area_f2(&self) -> f64 {
        self.area_f2
    }

    /// Cell footprint in square meters on the given node.
    #[must_use]
    pub fn area_m2(&self, node: &ProcessNode) -> f64 {
        self.area_f2 * node.feature_area_m2()
    }

    /// How the cell is read.
    #[must_use]
    pub fn read_mechanism(&self) -> ReadMechanism {
        self.read_mechanism
    }

    /// Cell-intrinsic sensing latency (excludes array wires and decode).
    #[must_use]
    pub fn read_intrinsic(&self) -> Seconds {
        self.read_intrinsic
    }

    /// Cell-intrinsic read energy per bit (eNVM sensing currents;
    /// negligible for SRAM, where the bitlines dominate).
    #[must_use]
    pub fn read_energy_cell(&self) -> Joules {
        self.read_energy_cell
    }

    /// Cell write-pulse latency.
    #[must_use]
    pub fn write_pulse(&self) -> Seconds {
        self.write_pulse
    }

    /// Cell-intrinsic write energy per bit.
    #[must_use]
    pub fn write_energy_cell(&self) -> Joules {
        self.write_energy_cell
    }

    /// The decaying storage node, for refresh-dependent technologies.
    #[must_use]
    pub fn storage(&self) -> Option<StorageNode> {
        self.storage
    }

    /// Write endurance in program cycles.
    #[must_use]
    pub fn endurance_writes(&self) -> f64 {
        self.endurance_writes
    }

    /// `true` if the cell retains data without power.
    #[must_use]
    pub fn is_nonvolatile(&self) -> bool {
        self.nonvolatile
    }

    /// Bits per cell.
    #[must_use]
    pub fn mlc_bits(&self) -> u8 {
        self.mlc_bits
    }

    /// `true` if the technology requires periodic refresh.
    #[must_use]
    pub fn needs_refresh(&self) -> bool {
        self.technology.needs_refresh()
    }

    /// Overrides the MTJ thermal-stability factor at the 350 K
    /// reference (the Δ_ref of `Δ(T) = Δ_ref · T_ref / T`). Lowering it
    /// models a stability-adjusted junction in the spirit of Garzón et
    /// al.'s double-barrier MTJ — cheaper writes, shorter retention.
    ///
    /// # Panics
    ///
    /// Panics unless the cell is non-volatile (Δ only applies to
    /// MTJ-style storage) or `delta_ref` is not strictly positive.
    #[must_use]
    pub fn with_thermal_stability(mut self, delta_ref: f64) -> Self {
        assert!(
            self.nonvolatile,
            "thermal stability applies to non-volatile MTJ cells"
        );
        assert!(delta_ref > 0.0, "thermal stability must be positive");
        self.mtj_delta_ref = Some(delta_ref);
        self
    }

    /// The MTJ thermal-stability factor `Δ(T) = Δ_ref · T_ref / T`
    /// (Garzón et al.), or `None` for cells without an MTJ storage
    /// element.
    #[must_use]
    pub fn thermal_stability(&self, t: Kelvin) -> Option<f64> {
        let delta_ref = self.mtj_delta_ref?;
        Some(delta_ref * (Kelvin::REFERENCE.get() / t.get()))
    }

    /// The full Δ(T)-derived MTJ operating corner at temperature `t`,
    /// or `None` for cells without an MTJ storage element.
    #[must_use]
    pub fn mtj_thermal(&self, t: Kelvin) -> Option<MtjThermal> {
        let delta = self.thermal_stability(t)?;
        Some(MtjThermal {
            delta,
            retention: Seconds::new(MTJ_ATTEMPT_TIME_S * delta.exp()),
            write_energy_factor: self.write_energy_factor(t),
            write_error_rate: (-delta).exp(),
        })
    }

    /// Multiplier on [`CellModel::write_energy_cell`] at temperature
    /// `t`: `1 + c · (T_ref/T − 1)` for MTJ cells — exactly `1.0` at
    /// the 350 K reference, bit-for-bit — and `1.0` for every other
    /// technology.
    #[must_use]
    pub fn write_energy_factor(&self, t: Kelvin) -> f64 {
        match self.mtj_delta_ref {
            Some(_) => {
                1.0 + MTJ_WRITE_ENERGY_TEMP_COEFF * (Kelvin::REFERENCE.get() / t.get() - 1.0)
            }
            None => 1.0,
        }
    }

    /// Total leakage current of one cell at the given operating point.
    #[must_use]
    pub fn leakage_current(&self, _node: &ProcessNode, op: &OperatingPoint) -> Amps {
        let to_um = 1e6;
        let d = &self.devices;
        let sub = d.nmos_boosted.subthreshold_current_per_um(op) * (self.nmos_sub_width * to_um)
            + d.pmos_boosted.subthreshold_current_per_um(op) * (self.pmos_sub_width * to_um);
        let gate = d.nmos_plain.gate_leakage_per_um(op) * (self.nmos_gate_width * to_um)
            + d.pmos_plain.gate_leakage_per_um(op)
                * ((self.pmos_gate_width + self.storage_gate_width) * to_um);
        sub + gate
    }

    /// Leakage power of one cell at the given operating point.
    #[must_use]
    pub fn leakage_power(&self, node: &ProcessNode, op: &OperatingPoint) -> Watts {
        self.leakage_current(node, op) * op.vdd()
    }

    /// Retention time of the cell at the given operating point, or
    /// `None` for technologies that neither decay nor back-hop.
    ///
    /// For eDRAM storage nodes this is the time for the storage-node
    /// leakage to consume the margin charge, `t = C dV / I_leak`; for
    /// MTJ cells it is the Néel-Brown law `τ0 · exp(Δ(T))`.
    #[must_use]
    pub fn retention(&self, _node: &ProcessNode, op: &OperatingPoint) -> Option<Seconds> {
        if self.mtj_delta_ref.is_some() {
            return self.mtj_thermal(op.temperature()).map(|m| m.retention);
        }
        let storage = self.storage?;
        let to_um = 1e6;
        let (sub_width, boosted, plain) = match self.technology {
            MemoryTechnology::Edram3T => (
                self.pmos_sub_width,
                &self.devices.pmos_boosted,
                &self.devices.pmos_plain,
            ),
            _ => (
                self.nmos_sub_width,
                &self.devices.nmos_boosted,
                &self.devices.nmos_plain,
            ),
        };
        let i_leak = boosted.subthreshold_current_per_um(op) * (sub_width * to_um)
            + plain.gate_leakage_per_um(op) * (self.storage_gate_width.max(1e-12) * to_um);
        let q = storage.capacitance * storage.margin;
        Some(Seconds::new(q.get() / i_leak.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_units::Kelvin;

    fn node() -> ProcessNode {
        ProcessNode::ptm_22nm_hp()
    }

    fn op(t: f64) -> OperatingPoint {
        OperatingPoint::nominal(&node(), Kelvin::new(t))
    }

    fn cryo() -> OperatingPoint {
        OperatingPoint::cryo_optimized(&node(), Kelvin::LN2)
    }

    #[test]
    fn sram_16mib_cell_leakage_is_about_half_a_watt_at_350k() {
        let n = node();
        let sram = CellModel::sram(&n);
        let cells = 16.0 * 1024.0 * 1024.0 * 8.0;
        let p = sram.leakage_power(&n, &op(350.0)).get() * cells;
        assert!(p > 0.2 && p < 1.0, "16 MiB SRAM cell leakage = {p} W");
    }

    #[test]
    fn sram_leakage_collapses_by_1e6_at_cryo() {
        let n = node();
        let sram = CellModel::sram(&n);
        let ratio =
            sram.leakage_power(&n, &cryo()).get() / sram.leakage_power(&n, &op(350.0)).get();
        assert!(ratio > 1e-7 && ratio < 1e-5, "ratio = {ratio:e}");
    }

    #[test]
    fn edram_leakage_advantage_grows_from_10x_to_about_100x() {
        let n = node();
        let sram = CellModel::sram(&n);
        let edram = CellModel::edram_3t(&n);
        let ratio_at =
            |o: &OperatingPoint| sram.leakage_power(&n, o).get() / edram.leakage_power(&n, o).get();
        let at_cryo = ratio_at(&cryo());
        let at_350 = ratio_at(&op(350.0));
        let at_387 = ratio_at(&op(387.0));
        assert!(at_cryo > 5.0 && at_cryo < 25.0, "77 K ratio = {at_cryo}");
        assert!(at_350 > 40.0 && at_350 < 160.0, "350 K ratio = {at_350}");
        assert!(at_387 > 25.0 && at_387 < 160.0, "387 K ratio = {at_387}");
        assert!(
            at_350 > 3.0 * at_cryo,
            "advantage must grow with temperature"
        );
    }

    #[test]
    fn edram_cell_is_about_twice_as_dense_as_sram() {
        let n = node();
        let ratio = CellModel::sram(&n).area_f2() / CellModel::edram_3t(&n).area_f2();
        assert!(ratio > 1.8 && ratio < 2.4, "density ratio = {ratio}");
    }

    #[test]
    fn edram_retention_at_350k_is_microseconds_and_seconds_at_77k() {
        let n = node();
        let edram = CellModel::edram_3t(&n);
        let t350 = edram.retention(&n, &op(350.0)).unwrap();
        let t300 = edram.retention(&n, &op(300.0)).unwrap();
        let t77 = edram.retention(&n, &cryo()).unwrap();
        assert!(t350.get() < 1e-5, "350 K retention = {t350}");
        assert!(
            t300.get() > 1e-5 && t300.get() < 1e-3,
            "300 K retention = {t300}"
        );
        // The paper's anchor: cryogenic retention is prolonged more than
        // 10,000x, effectively eliminating refresh.
        assert!(t77 / t300 > 1.0e4, "retention gain = {}", t77 / t300);
        assert!(t77.get() > 0.1);
    }

    #[test]
    fn envm_cells_do_not_leak_or_decay() {
        let n = node();
        for tech in MemoryTechnology::ENVM_SET {
            for tp in Tentpole::BOTH {
                let cell = CellModel::tentpole(tech, tp, &n);
                assert_eq!(cell.leakage_power(&n, &op(350.0)).get(), 0.0);
                if tech == MemoryTechnology::SttRam {
                    // The MTJ models Δ(T) retention explicitly; the
                    // survey default is astronomically long, never a
                    // decay concern in the legal temperature span.
                    let ret = cell.retention(&n, &op(350.0)).unwrap();
                    assert!(ret.get() > 1e10, "STT retention = {ret}");
                } else {
                    assert!(cell.retention(&n, &op(350.0)).is_none());
                }
                assert!(cell.is_nonvolatile());
                assert_eq!(cell.tentpole_kind(), Some(tp));
            }
        }
    }

    #[test]
    fn mtj_delta_retention_and_write_energy_are_monotone_in_temperature() {
        let n = node();
        for tp in Tentpole::BOTH {
            let cell = CellModel::tentpole(MemoryTechnology::SttRam, tp, &n);
            let corners: Vec<MtjThermal> = [77.0, 127.0, 227.0, 300.0, 350.0, 400.0]
                .iter()
                .map(|&t| cell.mtj_thermal(Kelvin::new(t)).unwrap())
                .collect();
            for pair in corners.windows(2) {
                let (cold, warm) = (&pair[0], &pair[1]);
                assert!(cold.delta > warm.delta);
                assert!(cold.retention > warm.retention);
                assert!(cold.write_energy_factor > warm.write_energy_factor);
                assert!(cold.write_error_rate < warm.write_error_rate);
            }
        }
    }

    #[test]
    fn mtj_write_energy_factor_is_exactly_one_at_reference() {
        let n = node();
        let cell = CellModel::tentpole(MemoryTechnology::SttRam, Tentpole::Optimistic, &n);
        assert_eq!(cell.write_energy_factor(Kelvin::REFERENCE), 1.0);
        assert!(cell.write_energy_factor(Kelvin::LN2) > 1.5);
        assert!(cell.write_energy_factor(Kelvin::new(400.0)) < 1.0);
        // Non-MTJ cells are temperature-flat.
        let pcm = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &n);
        assert_eq!(pcm.write_energy_factor(Kelvin::LN2), 1.0);
        assert!(pcm.mtj_thermal(Kelvin::LN2).is_none());
        assert!(CellModel::sram(&n).thermal_stability(Kelvin::LN2).is_none());
    }

    #[test]
    fn adjusted_thermal_stability_shortens_retention() {
        let n = node();
        let cell = CellModel::tentpole(MemoryTechnology::SttRam, Tentpole::Optimistic, &n)
            .with_thermal_stability(30.0);
        let m = cell.mtj_thermal(Kelvin::REFERENCE).unwrap();
        assert!((m.delta - 30.0).abs() < 1e-12);
        // τ0 · e^30 ≈ 1.1e4 s (~3 hours): short enough that the array
        // layer must scrub, which is exactly what the knob is for.
        assert!(m.retention.get() > 1.0e3 && m.retention.get() < 1.0e5);
        let op77 = op(77.0);
        assert_eq!(
            cell.retention(&n, &op77).unwrap(),
            cell.mtj_thermal(Kelvin::LN2).unwrap().retention
        );
    }

    #[test]
    fn envm_write_costs_exceed_read_costs() {
        let n = node();
        for tech in MemoryTechnology::ENVM_SET {
            for tp in Tentpole::BOTH {
                let cell = CellModel::tentpole(tech, tp, &n);
                assert!(cell.write_energy_cell() > cell.read_energy_cell());
                assert!(cell.write_pulse() >= cell.read_intrinsic());
            }
        }
    }

    #[test]
    fn tentpole_dispatch_for_analytical_technologies() {
        let n = node();
        let s = CellModel::tentpole(MemoryTechnology::Sram, Tentpole::Pessimistic, &n);
        assert_eq!(s, CellModel::sram(&n));
        assert_eq!(s.tentpole_kind(), None);
    }

    #[test]
    fn area_in_m2_uses_feature_size() {
        let n = node();
        let sram = CellModel::sram(&n);
        let expected = 146.0 * 22e-9 * 22e-9;
        assert!((sram.area_m2(&n) - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn edram_1t1c_is_slow_but_dense() {
        let n = node();
        let c = CellModel::edram_1t1c(&n);
        assert!(c.area_f2() < CellModel::edram_3t(&n).area_f2());
        assert!(c.read_intrinsic() > CellModel::sram(&n).read_intrinsic());
        assert!(c.storage().is_some());
    }
}
