//! Array specification: what to characterize.

use coldtall_cell::CellModel;
use coldtall_tech::{OperatingPoint, ProcessNode};
use coldtall_units::{Capacity, Kelvin};

use crate::characterize::ArrayCharacterization;
use crate::ecc::EccScheme;
use crate::optimizer::Objective;
use crate::org_geometry::OrgGeometry;
use crate::stacking::Stacking;

/// A complete description of a memory array to characterize: the cell,
/// macro-level parameters (capacity, line width, ports, ECC), the 3D
/// configuration, and the electrical operating point.
///
/// `ArraySpec` is a builder: start from [`ArraySpec::new`] or the
/// paper-default [`ArraySpec::llc_16mib`] and chain configuration calls.
///
/// # Examples
///
/// ```
/// use coldtall_array::{ArraySpec, Objective, Stacking};
/// use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
/// use coldtall_tech::ProcessNode;
///
/// let node = ProcessNode::ptm_22nm_hp();
/// let cell = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &node);
/// let spec = ArraySpec::llc_16mib(cell, &node).with_dies(8);
/// let array = spec.characterize(Objective::EnergyDelayProduct);
/// assert_eq!(array.dies, 8);
/// ```
#[derive(Debug, Clone)]
pub struct ArraySpec {
    cell: CellModel,
    node: ProcessNode,
    op: OperatingPoint,
    capacity: Capacity,
    line_bits: u32,
    ecc: EccScheme,
    dies: u8,
    stacking: Stacking,
}

impl ArraySpec {
    /// Creates a specification with study defaults: 16 MiB, 512-bit line,
    /// ECC, dual-port, single die, 350 K nominal operation.
    #[must_use]
    pub fn new(cell: CellModel, node: &ProcessNode, capacity: Capacity) -> Self {
        Self {
            cell,
            node: node.clone(),
            op: OperatingPoint::nominal(node, Kelvin::REFERENCE),
            capacity,
            line_bits: 512,
            ecc: EccScheme::Secded,
            dies: 1,
            stacking: Stacking::Planar,
        }
    }

    /// The paper's LLC configuration: a 16 MiB, 16-way, dual-port,
    /// ECC-protected cache array at 22 nm.
    #[must_use]
    pub fn llc_16mib(cell: CellModel, node: &ProcessNode) -> Self {
        Self::new(cell, node, Capacity::from_mebibytes(16))
    }

    /// Sets the die count, selecting the default stacking style for it
    /// (planar for 1 die, face-to-back otherwise).
    ///
    /// Precondition: a stacking style supporting `dies` exists (1-8).
    ///
    /// # Panics
    ///
    /// Panics with `unsupported die count {dies}` if `dies` is zero or
    /// above the style's limit.
    #[must_use]
    pub fn with_dies(mut self, dies: u8) -> Self {
        let stacking = Stacking::default_for_dies(dies);
        assert!(stacking.supports_dies(dies), "unsupported die count {dies}");
        self.dies = dies;
        self.stacking = stacking;
        self
    }

    /// Sets an explicit stacking style and die count.
    ///
    /// Precondition: `stacking.supports_dies(dies)`.
    ///
    /// # Panics
    ///
    /// Panics with `{stacking} does not support {dies} dies` if the
    /// style does not support the die count (e.g. face-to-face beyond
    /// two dies, or a planar stack of more than one).
    #[must_use]
    pub fn with_stacking(mut self, stacking: Stacking, dies: u8) -> Self {
        assert!(
            stacking.supports_dies(dies),
            "{stacking} does not support {dies} dies"
        );
        self.stacking = stacking;
        self.dies = dies;
        self
    }

    /// Sets the operating point (temperature and voltages).
    #[must_use]
    pub fn with_operating_point(mut self, op: OperatingPoint) -> Self {
        self.op = op;
        self
    }

    /// Convenience: nominal operation at temperature `t`.
    #[must_use]
    pub fn at_temperature(mut self, t: Kelvin) -> Self {
        self.op = OperatingPoint::nominal(&self.node, t);
        self
    }

    /// Convenience: cryo-policy operation at temperature `t`.
    ///
    /// # Examples
    ///
    /// ```
    /// use coldtall_array::{ArraySpec, Objective};
    /// use coldtall_cell::CellModel;
    /// use coldtall_tech::ProcessNode;
    /// use coldtall_units::Kelvin;
    ///
    /// let node = ProcessNode::ptm_22nm_hp();
    /// let spec = ArraySpec::llc_16mib(CellModel::sram(&node), &node);
    /// let at = |t| spec.clone().at_temperature_cryo(t).characterize(Objective::EnergyDelayProduct);
    /// let (cold, warm) = (at(Kelvin::LN2), at(Kelvin::REFERENCE));
    /// assert!(cold.read_latency < warm.read_latency);
    /// ```
    #[must_use]
    pub fn at_temperature_cryo(mut self, t: Kelvin) -> Self {
        self.op = OperatingPoint::cryo_optimized(&self.node, t);
        self
    }

    /// Replaces the usable capacity (e.g. for hybrid-partition studies).
    ///
    /// Precondition: the capacity holds at least one line.
    ///
    /// # Panics
    ///
    /// Panics with `capacity must hold at least one line (..)` if the
    /// capacity is below one line.
    #[must_use]
    pub fn with_capacity(mut self, capacity: Capacity) -> Self {
        assert!(
            capacity.bits() >= u64::from(self.line_bits),
            "capacity must hold at least one line ({} b < {} b)",
            capacity.bits(),
            self.line_bits
        );
        self.capacity = capacity;
        self
    }

    /// Sets the access-line width in data bits.
    ///
    /// Precondition: `bits > 0`.
    ///
    /// # Panics
    ///
    /// Panics with `line width must be positive` if `bits` is zero.
    #[must_use]
    pub fn with_line_bits(mut self, bits: u32) -> Self {
        assert!(bits > 0, "line width must be positive");
        self.line_bits = bits;
        self
    }

    /// Selects an explicit error-correction scheme.
    #[must_use]
    pub fn with_ecc_scheme(mut self, scheme: EccScheme) -> Self {
        self.ecc = scheme;
        self
    }

    /// The cell model under characterization.
    #[must_use]
    pub fn cell(&self) -> &CellModel {
        &self.cell
    }

    /// The process node.
    #[must_use]
    pub fn node(&self) -> &ProcessNode {
        &self.node
    }

    /// The operating point.
    #[must_use]
    pub fn op(&self) -> &OperatingPoint {
        &self.op
    }

    /// Usable (data) capacity.
    #[must_use]
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Data bits per access.
    #[must_use]
    pub fn line_bits(&self) -> u32 {
        self.line_bits
    }

    /// The error-correction scheme.
    #[must_use]
    pub fn ecc_scheme(&self) -> EccScheme {
        self.ecc
    }

    /// Die count.
    #[must_use]
    pub fn dies(&self) -> u8 {
        self.dies
    }

    /// Stacking style.
    #[must_use]
    pub fn stacking(&self) -> Stacking {
        self.stacking
    }

    /// Storage overhead factor of the ECC scheme (9/8 for the study's
    /// SECDED default).
    #[must_use]
    pub fn storage_overhead(&self) -> f64 {
        self.ecc.storage_overhead()
    }

    /// Bits moved per access including ECC check bits.
    #[must_use]
    pub fn transfer_bits(&self) -> f64 {
        f64::from(self.line_bits) * self.storage_overhead()
    }

    /// Characterizes this array, searching internal organizations for the
    /// one minimizing `objective`: one [`OrgGeometry::solve`] plus one
    /// scan at this spec's own operating point.
    ///
    /// # Panics
    ///
    /// Panics if no candidate organization fits the spec (capacity
    /// smaller than the smallest subarray).
    #[must_use]
    pub fn characterize(&self, objective: Objective) -> ArrayCharacterization {
        OrgGeometry::solve(self).characterize(objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_cell::CellModel;

    fn spec() -> ArraySpec {
        let node = ProcessNode::ptm_22nm_hp();
        ArraySpec::llc_16mib(CellModel::sram(&node), &node)
    }

    #[test]
    fn defaults_match_paper_config() {
        let s = spec();
        assert_eq!(s.capacity(), Capacity::from_mebibytes(16));
        assert_eq!(s.line_bits(), 512);
        assert_eq!(s.ecc_scheme(), EccScheme::Secded);
        assert_eq!(s.dies(), 1);
        assert_eq!(s.stacking(), Stacking::Planar);
        assert_eq!(s.op().temperature(), Kelvin::REFERENCE);
    }

    #[test]
    fn ecc_adds_one_eighth() {
        let s = spec();
        assert!((s.storage_overhead() - 1.125).abs() < 1e-12);
        assert!((s.transfer_bits() - 576.0).abs() < 1e-12);
        let no_ecc = spec().with_ecc_scheme(EccScheme::None);
        assert!((no_ecc.transfer_bits() - 512.0).abs() < 1e-12);
    }

    #[test]
    fn with_dies_picks_default_stacking() {
        let s = spec().with_dies(4);
        assert_eq!(s.stacking(), Stacking::FaceToBack);
        let s1 = spec().with_dies(1);
        assert_eq!(s1.stacking(), Stacking::Planar);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn face_to_face_rejects_four_dies() {
        let _ = spec().with_stacking(Stacking::FaceToFace, 4);
    }

    #[test]
    fn cryo_policy_applies_only_when_cold() {
        let characterize_at = |t: Kelvin| {
            spec()
                .at_temperature_cryo(t)
                .characterize(Objective::EnergyDelayProduct)
        };
        let cold = characterize_at(Kelvin::LN2);
        let warm = characterize_at(Kelvin::REFERENCE);
        // Cryo dynamic energy is mildly lower (scaled Vdd), latency much lower.
        assert!(cold.read_energy < warm.read_energy);
        assert!(cold.read_energy.get() > warm.read_energy.get() * 0.8);
        assert!(cold.read_latency.get() < warm.read_latency.get() * 0.35);
        assert!(cold.leakage_power.get() < warm.leakage_power.get() * 1e-4);
    }

    #[test]
    fn temperature_helpers() {
        let s = spec().at_temperature_cryo(Kelvin::LN2);
        assert!(s.op().vth_override().is_some());
        let s = spec().at_temperature(Kelvin::LN2);
        assert!(s.op().vth_override().is_none());
    }
}
