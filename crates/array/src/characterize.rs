//! Assembly of the full array characterization from component models.

use coldtall_units::{Joules, Seconds, SquareMeters, Watts};

use crate::components::wordline;
use crate::components::{bitline, decoder, htree, leakage, refresh, sense, vertical, Ctx};
use crate::organization::Organization;
use crate::spec::ArraySpec;

/// The array-level characteristics consumed by the design-space
/// exploration: the same quantities NVSim/Destiny/CryoMEM report.
///
/// All energies are per access of the configured line width (including
/// ECC transport); divide by [`ArraySpec::transfer_bits`] via
/// [`ArrayCharacterization::read_energy_per_bit`] for per-bit figures.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayCharacterization {
    /// Random-access read latency.
    pub read_latency: Seconds,
    /// Random-access write latency.
    pub write_latency: Seconds,
    /// Dynamic energy per read access.
    pub read_energy: Joules,
    /// Dynamic energy per write access.
    pub write_energy: Joules,
    /// Static (leakage) power of cells plus periphery.
    pub leakage_power: Watts,
    /// Average refresh power (zero for non-decaying technologies).
    pub refresh_power: Watts,
    /// Fraction of time lost to refresh, in `[0, 1]`.
    pub refresh_busy_fraction: f64,
    /// Storage-node retention, if the technology decays.
    pub retention: Option<Seconds>,
    /// 2D footprint (area of the largest die).
    pub footprint: SquareMeters,
    /// Total silicon area across all dies.
    pub total_silicon: SquareMeters,
    /// Array (storage) efficiency: cell area over total silicon.
    pub array_efficiency: f64,
    /// The internal organization the optimizer selected.
    pub organization: Organization,
    /// Number of stacked dies.
    pub dies: u8,
    /// Bits transferred per access, including ECC.
    pub transfer_bits: f64,
    /// Bank occupancy of one read (the subarray-local portion that
    /// blocks a bank; the H-tree pipelines).
    pub read_cycle_time: Seconds,
    /// Bank occupancy of one write.
    pub write_cycle_time: Seconds,
}

impl ArrayCharacterization {
    /// Evaluates `spec` under a fixed internal organization.
    #[must_use]
    pub fn evaluate(spec: &ArraySpec, org: Organization) -> Self {
        Self::from_ctx(&Ctx::new(spec, org))
    }

    /// Evaluates a pre-built context — how the organization scan fully
    /// characterizes its winner, around the solved geometry and the
    /// scan's shared `DeviceCtx`. Produces exactly the bytes of
    /// [`ArrayCharacterization::evaluate`] on an equal context.
    #[must_use]
    pub(crate) fn from_ctx(ctx: &Ctx<'_>) -> Self {
        let (spec, org) = (ctx.spec, ctx.org);

        let t_dec = decoder::delay(ctx);
        let t_wl = wordline::delay(ctx);
        let t_bl_read = bitline::read_delay(ctx);
        let t_bl_write = bitline::write_delay(ctx);
        let t_sense = sense::delay(ctx);
        let t_htree = htree::delay(ctx);
        let t_tsv = vertical::delay(ctx);
        let t_pulse = sense::write_pulse(ctx);

        let read_latency = t_dec + t_wl + t_bl_read + t_sense + t_htree + t_tsv;
        let write_latency = t_dec + t_wl + t_bl_write + t_pulse + t_htree + t_tsv;

        // Bank occupancy: the subarray-local work blocks a bank; decode
        // and H-tree transport pipeline across accesses.
        let read_cycle_time = t_wl + t_bl_read + t_sense;
        let write_cycle_time = t_wl + t_bl_write + t_pulse;

        let e_common = decoder::energy(ctx)
            + wordline::energy(ctx)
            + htree::energy(ctx)
            + vertical::energy(ctx);
        let read_energy = e_common + bitline::read_energy(ctx) + sense::read_energy(ctx);
        let write_energy = e_common + bitline::write_energy(ctx) + sense::write_energy(ctx);

        let leakage_power = leakage::total(ctx);
        let (refresh_power, refresh_busy_fraction, retention) = match refresh::profile(ctx) {
            Some(p) => (p.power, p.busy_fraction, Some(p.retention)),
            None => (Watts::ZERO, 0.0, None),
        };

        Self {
            read_latency,
            write_latency,
            read_energy,
            write_energy,
            leakage_power,
            refresh_power,
            refresh_busy_fraction,
            retention,
            footprint: SquareMeters::new(ctx.geom.footprint),
            total_silicon: SquareMeters::new(ctx.geom.total_silicon),
            array_efficiency: ctx.geom.array_efficiency(),
            organization: org,
            dies: spec.dies(),
            transfer_bits: spec.transfer_bits(),
            read_cycle_time,
            write_cycle_time,
        }
    }

    /// Peak sustainable read bandwidth in accesses per second: the bank
    /// concurrency over the per-bank read occupancy.
    #[must_use]
    pub fn read_bandwidth(&self) -> f64 {
        crate::calib::BANK_CONCURRENCY / self.read_cycle_time.get()
    }

    /// Peak sustainable write bandwidth in accesses per second.
    #[must_use]
    pub fn write_bandwidth(&self) -> f64 {
        crate::calib::BANK_CONCURRENCY / self.write_cycle_time.get()
    }

    /// Fraction of the array's bank capacity a traffic mix consumes;
    /// values at or above 1 mean the array cannot sustain the traffic.
    #[must_use]
    pub fn bandwidth_utilization(&self, reads_per_sec: f64, writes_per_sec: f64) -> f64 {
        reads_per_sec / self.read_bandwidth() + writes_per_sec / self.write_bandwidth()
    }

    /// Read energy per transferred bit.
    #[must_use]
    pub fn read_energy_per_bit(&self) -> Joules {
        self.read_energy / self.transfer_bits
    }

    /// Write energy per transferred bit.
    #[must_use]
    pub fn write_energy_per_bit(&self) -> Joules {
        self.write_energy / self.transfer_bits
    }

    /// Static power including refresh.
    #[must_use]
    pub fn standby_power(&self) -> Watts {
        self.leakage_power + self.refresh_power
    }

    /// Energy-delay product of a read access, the paper's array
    /// optimization target.
    #[must_use]
    pub fn read_edp(&self) -> f64 {
        self.read_energy.get() * self.read_latency.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
    use coldtall_tech::ProcessNode;
    use coldtall_units::Kelvin;

    fn node() -> ProcessNode {
        ProcessNode::ptm_22nm_hp()
    }

    fn eval(cell: CellModel, dies: u8) -> ArrayCharacterization {
        let n = node();
        let spec = ArraySpec::llc_16mib(cell, &n).with_dies(dies);
        ArrayCharacterization::evaluate(&spec, Organization::new(1024, 1024))
    }

    #[test]
    fn sram_2d_latency_and_energy_are_cacti_scale() {
        let a = eval(CellModel::sram(&node()), 1);
        let ns = a.read_latency.as_nanos();
        assert!(ns > 1.0 && ns < 10.0, "SRAM 2D read latency = {ns} ns");
        let nj = a.read_energy.get() * 1e9;
        assert!(nj > 0.8 && nj < 5.0, "SRAM 2D read energy = {nj} nJ");
    }

    #[test]
    fn writes_cost_at_least_as_much_as_reads_for_sram() {
        let a = eval(CellModel::sram(&node()), 1);
        assert!(a.write_energy >= a.read_energy * 0.9);
        assert!(a.write_latency > Seconds::ZERO);
    }

    #[test]
    fn envm_writes_are_much_slower_than_reads() {
        let pcm = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Pessimistic, &node());
        let a = eval(pcm, 1);
        assert!(a.write_latency.get() > 10.0 * a.read_latency.get());
    }

    #[test]
    fn per_bit_energy_consistency() {
        let a = eval(CellModel::sram(&node()), 1);
        let per_bit = a.read_energy_per_bit();
        assert!((per_bit.get() * a.transfer_bits - a.read_energy.get()).abs() < 1e-18);
    }

    #[test]
    fn stacking_preserves_capacity_and_shrinks_footprint() {
        let a1 = eval(CellModel::sram(&node()), 1);
        let a8 = eval(CellModel::sram(&node()), 8);
        assert!(a8.footprint.get() < a1.footprint.get() * 0.35);
        assert_eq!(a8.dies, 8);
    }

    #[test]
    fn cryo_sram_latency_drops_by_more_than_half() {
        let n = node();
        let spec = ArraySpec::llc_16mib(CellModel::sram(&n), &n);
        let warm = ArrayCharacterization::evaluate(
            &spec.clone().at_temperature(Kelvin::REFERENCE),
            Organization::new(1024, 1024),
        );
        let cold = ArrayCharacterization::evaluate(
            &spec.at_temperature_cryo(Kelvin::LN2),
            Organization::new(1024, 1024),
        );
        let ratio = cold.read_latency / warm.read_latency;
        assert!(ratio < 0.5, "cryo latency ratio = {ratio}");
    }
}
