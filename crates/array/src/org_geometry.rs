//! Phase 1 of the two-phase characterization kernel: the
//! temperature-invariant organization geometry, and the one
//! organization scan every characterization runs over it.
//!
//! Array geometry — the feasible subarray partitionings, wordline and
//! bitline lengths, H-tree extent, TSV counts — depends on the cell,
//! the node, the capacity, and the stacking style, but *never* on the
//! operating point; only device parameters (Matula wire resistivity,
//! subthreshold leakage, mobility) move with temperature.
//! [`OrgGeometry::solve`] derives it once and lowers it into
//! struct-of-arrays candidate columns; [`OrgGeometry::characterize`]
//! (the geometry's own operating point) and
//! [`OrgGeometry::characterize_temps`] (a cryo-policy temperature
//! stripe) then scan those columns — the same amortization
//! NVSim/Destiny use to make full design-space enumeration tractable.
//! [`crate::ArraySpec::characterize`] is a solve plus one scan, so
//! every array the repo characterizes goes through this scan.

use std::sync::OnceLock;

use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall_tech::ProcessNode;
use coldtall_units::Kelvin;

use crate::characterize::ArrayCharacterization;
use crate::components::{DeviceCtx, Geometry, NodeDevices};
use crate::optimizer::{self, CandidateColumns, ComponentFloors, Objective};
use crate::organization::Organization;
use crate::spec::ArraySpec;

/// The solved, temperature-invariant geometry of one array
/// specification: every feasible candidate organization paired with its
/// derived physical geometry, lowered into candidate columns, plus the
/// base spec they were derived from and its node's device models.
///
/// Solve once per (cell technology, spec geometry, organization
/// space); then characterize at any number of operating temperatures
/// via [`OrgGeometry::characterize_temps`].
///
/// # Examples
///
/// ```
/// use coldtall_array::{ArraySpec, Objective, OrgGeometry};
/// use coldtall_cell::CellModel;
/// use coldtall_tech::ProcessNode;
/// use coldtall_units::Kelvin;
///
/// let node = ProcessNode::ptm_22nm_hp();
/// let spec = ArraySpec::llc_16mib(CellModel::sram(&node), &node);
/// let geometry = OrgGeometry::solve(&spec);
/// let cold = geometry.characterize_temps(&[Kelvin::LN2], Objective::EnergyDelayProduct);
/// let direct = spec
///     .clone()
///     .at_temperature_cryo(Kelvin::LN2)
///     .characterize(Objective::EnergyDelayProduct);
/// assert_eq!(cold, [direct]);
/// ```
#[derive(Debug, Clone)]
pub struct OrgGeometry {
    spec: ArraySpec,
    candidates: Vec<(Organization, Geometry)>,
    columns: CandidateColumns,
    devices: NodeDevices,
}

impl OrgGeometry {
    /// Derives the feasible candidate organizations of `spec` and their
    /// geometries (phase 1), then lowers them into the SoA candidate
    /// columns every scan reads.
    ///
    /// The stored spec keeps `spec`'s operating point, but nothing in
    /// the solved geometry depends on it: two specs differing only in
    /// operating point solve to bit-identical candidate lists, which is
    /// what makes one `OrgGeometry` shareable across a temperature
    /// sweep.
    #[must_use]
    pub fn solve(spec: &ArraySpec) -> Self {
        Self::from_candidates(spec.clone(), optimizer::feasible_candidates(spec))
    }

    /// Rebuilds a geometry from an externally persisted candidate list
    /// — the warm-start restore path, which skips the feasibility
    /// enumeration and geometry derivation entirely and only re-lowers
    /// the SoA columns.
    ///
    /// `candidates` must be exactly what [`OrgGeometry::solve`] on
    /// `spec` would have produced (same organizations, same geometry
    /// bytes, same order); persisted records are guarded by
    /// [`geometry_code_epoch`] so stale files are rejected rather than
    /// restored.
    #[must_use]
    pub fn from_parts(spec: &ArraySpec, candidates: Vec<(Organization, Geometry)>) -> Self {
        Self::from_candidates(spec.clone(), candidates)
    }

    fn from_candidates(spec: ArraySpec, candidates: Vec<(Organization, Geometry)>) -> Self {
        let devices = NodeDevices::new(spec.node());
        let columns = CandidateColumns::lower(&spec, &candidates, &devices);
        Self {
            spec,
            candidates,
            columns,
            devices,
        }
    }

    /// The specification the geometry was solved for.
    #[must_use]
    pub fn spec(&self) -> &ArraySpec {
        &self.spec
    }

    /// The feasible `(organization, geometry)` candidates, in canonical
    /// candidate order.
    #[must_use]
    pub fn candidates(&self) -> &[(Organization, Geometry)] {
        &self.candidates
    }

    /// Number of feasible candidates.
    #[must_use]
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Runs the organization search at the stored spec's own operating
    /// point — its supply voltage and threshold included, so a custom
    /// or nominal operating point is characterized as built.
    ///
    /// # Panics
    ///
    /// Panics if the spec admits no feasible organization.
    #[must_use]
    pub fn characterize(&self, objective: Objective) -> ArrayCharacterization {
        self.scan(&self.spec, objective, &mut Vec::new())
    }

    /// Characterizes a whole temperature stripe in one kernel call: for
    /// each temperature in `temps`, the optimal characterization under
    /// `objective` with the stored spec moved to that temperature under
    /// the cryogenic voltage-scaling policy
    /// ([`ArraySpec::at_temperature_cryo`], the policy every sweep in
    /// the study applies).
    ///
    /// The per-temperature device-parameter derivation (Matula wire
    /// resistivity, subthreshold leakage, mobility-driven device speed)
    /// is hoisted out of the candidate loop — computed once per
    /// temperature, never once per candidate × temperature — and the
    /// candidates are scanned column-wise over the solve-time SoA
    /// columns, sharing the solve's device models and one score buffer
    /// across the whole stripe.
    ///
    /// Each entry is exactly the bytes of
    /// `spec.at_temperature_cryo(t).characterize(objective)`, because
    /// the candidate list is operating-point-invariant.
    ///
    /// # Panics
    ///
    /// Panics if the spec admits no feasible organization.
    #[must_use]
    pub fn characterize_temps(
        &self,
        temps: &[Kelvin],
        objective: Objective,
    ) -> Vec<ArrayCharacterization> {
        let mut scores = Vec::with_capacity(self.candidates.len());
        temps
            .iter()
            .map(|&t| {
                let spec = self.spec.clone().at_temperature_cryo(t);
                self.scan(&spec, objective, &mut scores)
            })
            .collect()
    }

    /// The organization scan at `spec`'s operating point: `spec` is the
    /// stored spec, possibly moved to another operating point.
    fn scan(
        &self,
        spec: &ArraySpec,
        objective: Objective,
        scores: &mut Vec<f64>,
    ) -> ArrayCharacterization {
        let devices = DeviceCtx::with_devices(spec, &self.devices);
        optimizer::search_columns(
            spec,
            &self.candidates,
            &self.columns,
            &devices,
            objective,
            scores,
        )
    }

    /// Componentwise floors over the candidate list at operating
    /// temperature `t` (same voltage-scaling policy as
    /// [`OrgGeometry::characterize_temps`]): lower bounds on the fields
    /// of whatever characterization the stripe returns at `t`, for
    /// *any* objective, because the chosen organization is one of the
    /// minimized-over candidates.
    ///
    /// # Panics
    ///
    /// Panics if the spec admits no feasible organization.
    #[must_use]
    pub fn floors_at_temperature(&self, t: Kelvin) -> ComponentFloors {
        let spec = self.spec.clone().at_temperature_cryo(t);
        let devices = DeviceCtx::with_devices(&spec, &self.devices);
        optimizer::component_floors(&devices.temp, &self.columns)
    }
}

/// Fingerprint of the geometry/characterization model code, for
/// versioning persisted warm-start records.
///
/// Computed once per process by solving and characterizing a fixed set
/// of probe specifications and hashing the resulting candidate
/// geometries and characterization bytes (FNV-1a over the exact bit
/// patterns). Any change to the geometry derivation, the feasibility
/// filter, the candidate ordering, or the component/device models moves
/// the fingerprint, so a persisted geometry file written by older model
/// code is rejected as a whole instead of silently replaying stale
/// physics. Byte-stable across processes and runs of the same build.
#[must_use]
pub fn geometry_code_epoch() -> u64 {
    static EPOCH: OnceLock<u64> = OnceLock::new();
    *EPOCH.get_or_init(compute_code_epoch)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(h: u64, bits: u64) -> u64 {
    let mut h = h;
    for b in bits.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn compute_code_epoch() -> u64 {
    let node = ProcessNode::ptm_22nm_hp();
    let cells = [
        CellModel::sram(&node),
        CellModel::edram_3t(&node),
        CellModel::tentpole(MemoryTechnology::SttRam, Tentpole::Optimistic, &node),
    ];
    let mut h = FNV_OFFSET;
    for cell in cells {
        for dies in [1u8, 8] {
            let spec = ArraySpec::llc_16mib(cell.clone(), &node).with_dies(dies);
            let geometry = OrgGeometry::solve(&spec);
            for (org, geom) in geometry.candidates() {
                h = fnv_mix(h, u64::from(org.rows()));
                h = fnv_mix(h, u64::from(org.cols()));
                h = fnv_mix(h, geom.subarrays_total);
                h = fnv_mix(h, geom.subarrays_per_die);
                for v in [
                    geom.cell_width,
                    geom.cell_height,
                    geom.cell_block_area,
                    geom.strips_area,
                    geom.subarray_area,
                    geom.per_die_content,
                    geom.floor_area,
                    geom.tsv_area,
                    geom.footprint,
                    geom.total_silicon,
                    geom.periph_area,
                ] {
                    h = fnv_mix(h, v.to_bits());
                }
            }
            // Two probe characterizations fold the temperature-dependent
            // component and device models into the fingerprint too.
            let probes = [Kelvin::new(77.0), Kelvin::new(300.0)];
            for a in geometry.characterize_temps(&probes, Objective::EnergyDelayProduct) {
                h = fnv_mix(h, a.read_latency.get().to_bits());
                h = fnv_mix(h, a.read_energy.get().to_bits());
                h = fnv_mix(h, a.standby_power().get().to_bits());
                h = fnv_mix(h, a.footprint.get().to_bits());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
    use coldtall_tech::ProcessNode;

    fn sram_spec() -> ArraySpec {
        let node = ProcessNode::ptm_22nm_hp();
        ArraySpec::llc_16mib(CellModel::sram(&node), &node)
    }

    #[test]
    fn solve_is_operating_point_invariant() {
        let base = sram_spec();
        let cold = OrgGeometry::solve(&base.clone().at_temperature_cryo(Kelvin::LN2));
        let warm = OrgGeometry::solve(&base);
        assert_eq!(warm.candidate_count(), cold.candidate_count());
        for (a, b) in warm.candidates().iter().zip(cold.candidates()) {
            assert_eq!(a, b, "geometry must not depend on the operating point");
        }
    }

    #[test]
    fn floors_bound_every_objectives_characterization() {
        let node = ProcessNode::ptm_22nm_hp();
        for cell in [
            CellModel::sram(&node),
            CellModel::tentpole(MemoryTechnology::Edram3T, Tentpole::Optimistic, &node),
        ] {
            let spec = ArraySpec::llc_16mib(cell, &node);
            let geometry = OrgGeometry::solve(&spec);
            for t in [77.0, 227.0, 350.0] {
                let t = Kelvin::new(t);
                let floors = geometry.floors_at_temperature(t);
                for objective in [
                    Objective::EnergyDelayProduct,
                    Objective::ReadLatency,
                    Objective::ReadEnergy,
                    Objective::Area,
                    Objective::StandbyPower,
                ] {
                    let array = &geometry.characterize_temps(&[t], objective)[0];
                    assert!(floors.read_latency_s <= array.read_latency.get());
                    assert!(floors.read_energy_j <= array.read_energy.get());
                    assert!(floors.standby_power_w <= array.standby_power().get());
                    assert!(floors.footprint_m2 <= array.footprint.get());
                    assert!(floors.refresh_busy_fraction <= array.refresh_busy_fraction);
                }
            }
        }
    }

    #[test]
    fn from_parts_replays_the_solve_exactly() {
        let spec = sram_spec();
        let solved = OrgGeometry::solve(&spec);
        let restored = OrgGeometry::from_parts(&spec, solved.candidates().to_vec());
        for t in [77.0, 300.0] {
            let t = Kelvin::new(t);
            assert_eq!(
                restored.characterize_temps(&[t], Objective::EnergyDelayProduct),
                solved.characterize_temps(&[t], Objective::EnergyDelayProduct),
            );
            assert_eq!(
                restored.characterize_temps(&[t], Objective::StandbyPower),
                solved.characterize_temps(&[t], Objective::StandbyPower),
            );
        }
    }

    #[test]
    fn code_epoch_is_stable_within_a_process_and_nonzero() {
        let a = geometry_code_epoch();
        let b = geometry_code_epoch();
        assert_eq!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn small_stacked_specs_prune_infeasible_subarrays() {
        use coldtall_units::Capacity;
        let solo = OrgGeometry::solve(&sram_spec());
        // A 1 MiB share per die cannot host the largest subarray
        // candidates, so the feasibility filter must bite.
        let small = OrgGeometry::solve(
            &sram_spec()
                .with_capacity(Capacity::from_mebibytes(1))
                .with_dies(8),
        );
        assert!(small.candidate_count() < solo.candidate_count());
        assert!(small.candidate_count() > 0);
    }
}
