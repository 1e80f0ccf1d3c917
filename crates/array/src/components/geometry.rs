//! Physical geometry derivation: cell dimensions, subarray tiles, die
//! footprint, and silicon totals.

use coldtall_cell::ReadMechanism;

use crate::calib;
use crate::organization::Organization;
use crate::spec::ArraySpec;

/// Derived physical geometry of one candidate organization, in SI units
/// (meters and square meters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Width of one cell.
    pub cell_width: f64,
    /// Height of one cell.
    pub cell_height: f64,
    /// Area of one subarray's cell block.
    pub cell_block_area: f64,
    /// Area of one subarray's peripheral strips (decoder + sense).
    pub strips_area: f64,
    /// Total area of one subarray including control overhead.
    pub subarray_area: f64,
    /// Total number of subarrays across all dies.
    pub subarrays_total: u64,
    /// Subarrays tiled onto each die.
    pub subarrays_per_die: u64,
    /// Array content area per die (subarrays + H-tree routing).
    pub per_die_content: f64,
    /// Base-die global-periphery floor.
    pub floor_area: f64,
    /// Vertical-interconnect field area per die (zero for 2D).
    pub tsv_area: f64,
    /// 2D footprint: the area of the largest (base) die.
    pub footprint: f64,
    /// Total silicon across all dies.
    pub total_silicon: f64,
    /// Total non-cell (peripheral) silicon across all dies.
    pub periph_area: f64,
}

impl Geometry {
    /// Derives the geometry for `spec` under organization `org`.
    pub fn derive(spec: &ArraySpec, org: Organization) -> Self {
        let node = spec.node();
        let f = node.feature().get();
        let cell = spec.cell();
        let side_f = cell.area_f2().sqrt();
        let cell_width = side_f * f;
        let cell_height = side_f * f;
        let cell_area = cell.area_m2(node);

        let rows = f64::from(org.rows());
        let cols = f64::from(org.cols());
        let cell_block_area = rows * cols * cell_area;

        let sense_depth = match cell.read_mechanism() {
            ReadMechanism::VoltageSense { .. } => calib::SENSE_STRIP_DEPTH_F_VOLTAGE,
            ReadMechanism::CurrentSense => calib::SENSE_STRIP_DEPTH_F_CURRENT,
        };
        let decoder_strip = rows * cell_height * calib::DECODER_STRIP_DEPTH_F * f;
        let sense_strip = cols * cell_width * sense_depth * f;
        let strips_area = (decoder_strip + sense_strip) * calib::DUAL_PORT_AREA_FACTOR;
        let subarray_area = (cell_block_area + strips_area) * (1.0 + calib::CONTROL_AREA_OVERHEAD);

        let overhead = spec.storage_overhead();
        let subarrays_total = org.subarray_count(spec.capacity(), overhead);
        let dies = spec.dies();
        let subarrays_per_die = org.subarrays_per_die(spec.capacity(), overhead, dies);

        let tiles_area = subarray_area * subarrays_per_die as f64;
        let per_die_content = tiles_area * (1.0 + calib::HTREE_AREA_FRACTION);

        let floor_mm2_base = if cell.is_nonvolatile() {
            calib::GLOBAL_FLOOR_NVM_MM2
        } else {
            calib::GLOBAL_FLOOR_VOLATILE_MM2
        };
        let capacity_scale = (spec.capacity().bits_f64() / (16.0 * 1024.0 * 1024.0 * 8.0)).sqrt();
        let floor_area = floor_mm2_base * 1e-6 * capacity_scale;

        let tsv_area = if dies > 1 {
            let signals = spec.transfer_bits() + calib::TSV_OVERHEAD_SIGNALS;
            let pitch = spec.stacking().via_pitch_m();
            signals * pitch * pitch * (1.0 + calib::TSV_GROWTH_PER_DIE * f64::from(dies))
        } else {
            0.0
        };

        let footprint = per_die_content + floor_area + tsv_area;
        let total_silicon =
            per_die_content * f64::from(dies) + floor_area + tsv_area * f64::from(dies);
        let total_cell_area = subarrays_total as f64 * cell_block_area;
        let periph_area = (total_silicon - total_cell_area).max(0.0);

        Self {
            cell_width,
            cell_height,
            cell_block_area,
            strips_area,
            subarray_area,
            subarrays_total,
            subarrays_per_die,
            per_die_content,
            floor_area,
            tsv_area,
            footprint,
            total_silicon,
            periph_area,
        }
    }

    /// Array (storage) efficiency: cell area over total silicon.
    pub fn array_efficiency(&self) -> f64 {
        let cells = self.subarrays_total as f64 * self.cell_block_area;
        cells / self.total_silicon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
    use coldtall_tech::ProcessNode;

    fn geom(cell: CellModel, dies: u8) -> Geometry {
        let node = ProcessNode::ptm_22nm_hp();
        let spec = ArraySpec::llc_16mib(cell, &node).with_dies(dies);
        Geometry::derive(&spec, Organization::new(512, 1024))
    }

    #[test]
    fn sram_16mib_footprint_is_order_10mm2() {
        let node = ProcessNode::ptm_22nm_hp();
        let g = geom(CellModel::sram(&node), 1);
        let mm2 = g.footprint * 1e6;
        assert!(mm2 > 8.0 && mm2 < 25.0, "SRAM footprint = {mm2} mm^2");
        assert!(g.array_efficiency() > 0.5 && g.array_efficiency() < 0.95);
    }

    #[test]
    fn stacking_shrinks_footprint_but_not_total_silicon() {
        let node = ProcessNode::ptm_22nm_hp();
        let g1 = geom(CellModel::sram(&node), 1);
        let g8 = geom(CellModel::sram(&node), 8);
        assert!(g8.footprint < g1.footprint * 0.3);
        assert!(g8.total_silicon > g1.footprint * 0.9);
    }

    #[test]
    fn dense_cells_are_periphery_dominated() {
        let node = ProcessNode::ptm_22nm_hp();
        let pcm = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &node);
        let g = geom(pcm, 1);
        assert!(
            g.array_efficiency() < 0.5,
            "PCM efficiency = {}",
            g.array_efficiency()
        );
    }

    #[test]
    fn tsv_field_only_for_3d() {
        let node = ProcessNode::ptm_22nm_hp();
        assert_eq!(geom(CellModel::sram(&node), 1).tsv_area, 0.0);
        assert!(geom(CellModel::sram(&node), 2).tsv_area > 0.0);
    }

    #[test]
    fn nvm_floor_exceeds_volatile_floor() {
        let node = ProcessNode::ptm_22nm_hp();
        let sram = geom(CellModel::sram(&node), 1);
        let pcm = geom(
            CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &node),
            1,
        );
        assert!(pcm.floor_area > sram.floor_area);
    }
}
