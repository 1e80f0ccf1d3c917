//! Internal-organization optimizer.

use core::fmt;

use coldtall_units::{Joules, Seconds, Watts};

use crate::characterize::ArrayCharacterization;
use crate::components::refresh::RefreshProfile;
use crate::components::{
    bitline, decoder, htree, leakage, refresh, wordline, Ctx, DeviceCtx, Geometry, NodeDevices,
    TempCtx,
};
use crate::organization::Organization;
use crate::spec::ArraySpec;

/// The objective the organization search minimizes.
///
/// The paper's arrays are optimized for energy-delay product; the other
/// objectives support the `Optimal LLC` selection of Table II and
/// ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize read energy times read latency (the paper's default).
    #[default]
    EnergyDelayProduct,
    /// Minimize read latency.
    ReadLatency,
    /// Minimize read energy.
    ReadEnergy,
    /// Minimize the 2D footprint.
    Area,
    /// Minimize standby (leakage + refresh) power.
    StandbyPower,
}

impl Objective {
    /// The scalar score this objective assigns (lower is better).
    #[must_use]
    pub fn score(self, array: &ArrayCharacterization) -> f64 {
        match self {
            Self::EnergyDelayProduct => array.read_edp(),
            Self::ReadLatency => array.read_latency.get(),
            Self::ReadEnergy => array.read_energy.get(),
            Self::Area => array.footprint.get(),
            Self::StandbyPower => array.standby_power().get(),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::EnergyDelayProduct => "energy-delay product",
            Self::ReadLatency => "read latency",
            Self::ReadEnergy => "read energy",
            Self::Area => "area",
            Self::StandbyPower => "standby power",
        })
    }
}

/// The feasible candidate organizations of `spec`, each paired with
/// its derived (temperature-invariant) geometry, in canonical candidate
/// order.
///
/// Organizations whose subarray would exceed the per-die share of the
/// array (more subarray bits than one die stores) are skipped; at
/// least one candidate always remains for the capacities in this
/// study. This is phase 1 of the two-phase kernel — the list depends
/// on capacity, cell, node, and stacking, never on the operating
/// point, so [`crate::OrgGeometry`] caches it across a temperature
/// sweep.
pub(crate) fn feasible_candidates(spec: &ArraySpec) -> Vec<(Organization, Geometry)> {
    let total_bits = spec.capacity().bits_f64() * spec.storage_overhead();
    Organization::candidates()
        .filter(|org| {
            // A subarray must not dwarf the per-die share of the array.
            let per_die = total_bits / f64::from(spec.dies());
            org.bits_per_subarray() as f64 <= per_die
        })
        .map(|org| (org, Geometry::derive(spec, org)))
        .collect()
}

/// Componentwise floors over a feasible candidate list at one operating
/// point: for each physical quantity the application model consumes,
/// the minimum over *every* candidate organization.
///
/// Whatever objective the organization search later minimizes, the
/// chosen organization is one of the candidates, and each of its
/// characterized fields is produced by the very `*_raw` formula site
/// minimized here (the column helpers below sum the terms in
/// [`crate::ArrayCharacterization`]'s order). The floors are therefore
/// sound lower bounds on the chosen array's fields for any
/// [`Objective`], which is what the design-space search in
/// `coldtall-core` prunes with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentFloors {
    /// Minimum read latency over the candidates, in seconds.
    pub read_latency_s: f64,
    /// Minimum read energy per access over the candidates, in joules.
    pub read_energy_j: f64,
    /// Minimum standby (leakage + refresh) power over the candidates,
    /// in watts.
    pub standby_power_w: f64,
    /// Minimum 2D footprint over the candidates, in square meters.
    pub footprint_m2: f64,
    /// Minimum refresh busy fraction over the candidates (`0.0` for
    /// refresh-free cells).
    pub refresh_busy_fraction: f64,
}

/// Computes [`ComponentFloors`] over the lowered candidates at the
/// operating point `tc` was derived for, scanning the same columns
/// and helpers [`kernel_scores`] scans.
///
/// # Panics
///
/// Panics if `columns` holds no candidate.
pub(crate) fn component_floors(tc: &TempCtx, columns: &CandidateColumns) -> ComponentFloors {
    let c = columns.view();
    assert!(c.len > 0, "no feasible organization for the given capacity");
    let mut floors = ComponentFloors {
        read_latency_s: f64::INFINITY,
        read_energy_j: f64::INFINITY,
        standby_power_w: f64::INFINITY,
        footprint_m2: f64::INFINITY,
        refresh_busy_fraction: f64::INFINITY,
    };
    for i in 0..c.len {
        floors.read_latency_s = floors
            .read_latency_s
            .min(read_latency_cols(tc, &c, i).get());
        floors.read_energy_j = floors.read_energy_j.min(read_energy_cols(tc, &c, i).get());
        floors.standby_power_w = floors.standby_power_w.min(standby_cols(tc, &c, i).get());
        floors.footprint_m2 = floors.footprint_m2.min(c.footprint[i]);
        let busy = refresh_cols(tc, &c, i).map_or(0.0, |p| p.busy_fraction);
        floors.refresh_busy_fraction = floors.refresh_busy_fraction.min(busy);
    }
    floors
}

/// Temperature-invariant scalars lowered per candidate: the length of
/// [`Columns`]' field list.
const INPUTS: usize = 12;

/// The solved candidate list lowered into struct-of-arrays columns: one
/// contiguous column per temperature-invariant scalar a component
/// `*_raw` helper consumes, with one entry per candidate.
///
/// Built once at solve time (phase 1) from the same shared device
/// constants the `Ctx` path reads, so a column entry is bit-identical
/// to the scalar `ArrayCharacterization::from_ctx` derives for that
/// candidate. The twelve columns sit back to back in one allocation
/// (a solve allocates once, not twelve times, which is what keeps a
/// single-use geometry cheap) and are read through [`Columns`]. The
/// scans then walk candidates column-wise: the per-candidate work is
/// a handful of flops over adjacent memory with no pointer chasing,
/// which is what makes the inner loop autovectorizable.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct CandidateColumns {
    /// The columns in [`Columns`]' field order, one candidate-count
    /// run each.
    values: Vec<f64>,
}

/// A borrowed view of [`CandidateColumns`]: one slice of exactly `len`
/// entries per lowered input.
struct Columns<'a> {
    /// Number of candidates.
    len: usize,
    /// Decode depth in stages.
    levels: &'a [f64],
    /// Wordline length in meters.
    wl_length_m: &'a [f64],
    /// Wordline gate load in farads.
    wl_gate_load_f: &'a [f64],
    /// Bitline capacitance in farads.
    bl_cap_f: &'a [f64],
    /// Bitline length in meters.
    bl_length_m: &'a [f64],
    /// Column count.
    cols: &'a [f64],
    /// 2D footprint in square meters.
    footprint: &'a [f64],
    /// H-tree routed path length in meters.
    htree_path_m: &'a [f64],
    /// Live array content area per die in square meters.
    per_die_content: &'a [f64],
    /// Effective leaking periphery width in microns.
    periph_width_um: &'a [f64],
    /// Total rows in the array.
    rows_total: &'a [f64],
    /// Rows served by each per-die refresh engine.
    rows_per_engine: &'a [f64],
}

impl CandidateColumns {
    /// Lowers `candidates` into columns, reading the same node-invariant
    /// device constants the `Ctx` path reads (so every entry matches the
    /// scalar `Ctx` derives to the last bit).
    pub(crate) fn lower(
        spec: &ArraySpec,
        candidates: &[(Organization, Geometry)],
        devices: &NodeDevices,
    ) -> Self {
        let n = candidates.len();
        let mut values = vec![0.0; INPUTS * n];
        let gate_cap_min = devices.gate_cap_min.get();
        let c_per_m = devices.local_wire.capacitance_per_m();
        let dies = f64::from(spec.dies());
        for (i, &(org, geom)) in candidates.iter().enumerate() {
            let rows = f64::from(org.rows());
            let cols = f64::from(org.cols());
            let (rows_total, rows_per_engine) =
                refresh::rows_budget_f(geom.subarrays_total as f64, rows, dies);
            // In `Columns`' field order.
            let inputs: [f64; INPUTS] = [
                decoder::levels_f(rows, geom.subarrays_per_die as f64),
                wordline::length_m(cols, geom.cell_width),
                wordline::gate_load_f(gate_cap_min, cols),
                bitline::capacitance_f(devices.junction_half, c_per_m, rows, geom.cell_height),
                bitline::length_m(rows, geom.cell_height),
                cols,
                geom.footprint,
                htree::path_m(geom.footprint),
                geom.per_die_content,
                leakage::width_um_f(geom.periph_area),
                rows_total,
                rows_per_engine,
            ];
            for (k, value) in inputs.into_iter().enumerate() {
                values[k * n + i] = value;
            }
        }
        Self { values }
    }

    /// Number of lowered candidates.
    fn len(&self) -> usize {
        self.values.len() / INPUTS
    }

    /// Splits the buffer into its twelve columns, each exactly
    /// [`CandidateColumns::len`] entries long.
    fn view(&self) -> Columns<'_> {
        let len = self.len();
        let mut rest = self.values.as_slice();
        let mut next = || {
            let (column, tail) = rest.split_at(len);
            rest = tail;
            column
        };
        Columns {
            len,
            levels: next(),
            wl_length_m: next(),
            wl_gate_load_f: next(),
            bl_cap_f: next(),
            bl_length_m: next(),
            cols: next(),
            footprint: next(),
            htree_path_m: next(),
            per_die_content: next(),
            periph_width_um: next(),
            rows_total: next(),
            rows_per_engine: next(),
        }
    }
}

/// Read latency of candidate `i`, summed term-for-term as
/// `ArrayCharacterization::from_ctx` sums it.
///
/// `#[inline(always)]` so [`kernel_scores`]'s per-objective loops
/// flatten into straight-line candidate-independent flops the
/// auto-vectorizer can run lane-per-candidate.
#[inline(always)]
fn read_latency_cols(tc: &TempCtx, c: &Columns<'_>, i: usize) -> Seconds {
    decoder::delay_raw(tc, c.levels[i])
        + wordline::delay_raw(tc, c.wl_length_m[i], c.wl_gate_load_f[i])
        + bitline::read_delay_raw(tc, c.bl_cap_f[i], c.bl_length_m[i])
        + tc.sense_delay
        + htree::delay_raw(tc, c.htree_path_m[i])
        + tc.tsv_delay
}

/// Read energy of candidate `i`, summed term-for-term as
/// `ArrayCharacterization::from_ctx` sums it (the shared-term sum
/// there associates identically).
#[inline(always)]
fn read_energy_cols(tc: &TempCtx, c: &Columns<'_>, i: usize) -> Joules {
    decoder::energy_raw(tc, c.levels[i])
        + wordline::energy_raw(tc, c.wl_length_m[i], c.wl_gate_load_f[i])
        + htree::energy_raw(tc, c.htree_path_m[i], c.per_die_content[i])
        + tc.tsv_energy
        + bitline::read_energy_raw(tc, c.bl_cap_f[i], c.cols[i])
        + tc.sense_read_energy
}

/// Refresh or scrub profile of candidate `i`, or `None` for cells that
/// hold data indefinitely.
#[inline(always)]
fn refresh_cols(tc: &TempCtx, c: &Columns<'_>, i: usize) -> Option<RefreshProfile> {
    refresh::profile_raw(
        tc,
        c.levels[i],
        c.wl_length_m[i],
        c.wl_gate_load_f[i],
        c.bl_cap_f[i],
        c.bl_length_m[i],
        c.cols[i],
        c.rows_total[i],
        c.rows_per_engine[i],
    )
}

/// Standby power of candidate `i`, assembled as
/// [`ArrayCharacterization::standby_power`] assembles it.
#[inline(always)]
fn standby_cols(tc: &TempCtx, c: &Columns<'_>, i: usize) -> Watts {
    let refresh = refresh_cols(tc, c, i).map_or(Watts::ZERO, |p| p.power);
    leakage::total_raw(tc, c.periph_width_um[i]) + refresh
}

/// Fills `scores` with every candidate's [`Objective::score`], scanned
/// column-wise: one tight loop per objective over contiguous `f64`
/// columns, with all temperature-dependent device terms pre-hoisted
/// into `tc`. Each score is bit-identical to
/// `objective.score(&ArrayCharacterization::from_ctx(..))` for that
/// candidate because both sides evaluate the same `*_raw` formula sites
/// on the same scalar inputs in the same order.
fn kernel_scores(
    tc: &TempCtx,
    columns: &CandidateColumns,
    objective: Objective,
    scores: &mut Vec<f64>,
) {
    let c = columns.view();
    scores.clear();
    scores.resize(c.len, 0.0);
    let out = &mut scores[..c.len];
    match objective {
        // Operand order matches `ArrayCharacterization::read_edp`.
        Objective::EnergyDelayProduct => {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = read_energy_cols(tc, &c, i).get() * read_latency_cols(tc, &c, i).get();
            }
        }
        Objective::ReadLatency => {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = read_latency_cols(tc, &c, i).get();
            }
        }
        Objective::ReadEnergy => {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = read_energy_cols(tc, &c, i).get();
            }
        }
        Objective::Area => out.copy_from_slice(c.footprint),
        Objective::StandbyPower => {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = standby_cols(tc, &c, i).get();
            }
        }
    }
}

/// The organization search: scores every candidate through
/// [`kernel_scores`], takes the first-wins strict-`<` argmin (the
/// earliest candidate attaining the minimum score, as
/// `Iterator::min_by` over the same order would), and fully
/// characterizes only the winner through
/// `ArrayCharacterization::from_ctx`.
///
/// `scores` is caller-owned scratch so a temperature stripe reuses one
/// allocation across every temperature.
///
/// # Panics
///
/// Panics if `candidates` is empty (capacity smaller than the smallest
/// subarray) or an objective score is NaN (the models never produce
/// one for a valid spec).
pub(crate) fn search_columns(
    spec: &ArraySpec,
    candidates: &[(Organization, Geometry)],
    columns: &CandidateColumns,
    devices: &DeviceCtx,
    objective: Objective,
    scores: &mut Vec<f64>,
) -> ArrayCharacterization {
    debug_assert_eq!(candidates.len(), columns.len());
    kernel_scores(&devices.temp, columns, objective, scores);
    let mut best: Option<(f64, usize)> = None;
    for (i, &score) in scores.iter().enumerate() {
        assert!(!score.is_nan(), "objective scores are finite");
        if best.is_none_or(|(incumbent, _)| score < incumbent) {
            best = Some((score, i));
        }
    }
    let (_, idx) = best.expect("no feasible organization for the given capacity");
    let (org, geom) = candidates[idx];
    ArrayCharacterization::from_ctx(&Ctx::with_parts(spec, org, geom, devices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
    use coldtall_tech::ProcessNode;

    fn spec() -> ArraySpec {
        let node = ProcessNode::ptm_22nm_hp();
        ArraySpec::llc_16mib(CellModel::sram(&node), &node)
    }

    #[test]
    fn edp_choice_is_no_worse_than_any_candidate() {
        let s = spec();
        let best = s.characterize(Objective::EnergyDelayProduct);
        for org in Organization::candidates() {
            let other = ArrayCharacterization::evaluate(&s, org);
            assert!(best.read_edp() <= other.read_edp() + 1e-30);
        }
    }

    #[test]
    fn objectives_pick_their_own_optimum() {
        let s = spec();
        let fastest = s.characterize(Objective::ReadLatency);
        let leanest = s.characterize(Objective::ReadEnergy);
        assert!(fastest.read_latency <= leanest.read_latency);
        assert!(leanest.read_energy <= fastest.read_energy);
    }

    #[test]
    fn area_objective_minimizes_footprint() {
        let node = ProcessNode::ptm_22nm_hp();
        let pcm = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &node);
        let s = ArraySpec::llc_16mib(pcm, &node);
        let smallest = s.characterize(Objective::Area);
        let fastest = s.characterize(Objective::ReadLatency);
        assert!(smallest.footprint.get() <= fastest.footprint.get());
    }

    #[test]
    fn optimizer_respects_die_count() {
        let s = spec().with_dies(8);
        let a = s.characterize(Objective::EnergyDelayProduct);
        assert_eq!(a.dies, 8);
    }
}
