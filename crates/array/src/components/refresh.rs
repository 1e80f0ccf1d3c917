//! Refresh model for decaying (eDRAM) technologies and the scrub model
//! for marginal-retention non-volatile cells.

use coldtall_units::{Seconds, Watts};

use super::{bitline, decoder, wordline, Ctx, TempCtx};
use crate::calib;
use crate::spec::ArraySpec;

/// Independent refresh engines per die. Refresh is serialized through
/// each die's shared decode/H-tree resources, which is what makes
/// room-temperature 3T-eDRAM unusable in the paper (94% IPC loss).
const REFRESH_ENGINES_PER_DIE: f64 = 1.0;

/// Retention floor (seconds, ~10 years) below which a non-volatile
/// cell's thermally-activated back-hopping must be countered by
/// periodic scrubbing. Survey-default MTJs (Δ_ref = 60 at 350 K) sit
/// many decades above this across the legal 60-400 K span, so the
/// scrub path only engages for stability-adjusted cells
/// (`CellModel::with_thermal_stability`).
const NVM_SCRUB_RETENTION_FLOOR_S: f64 = 3.0e8;

/// The refresh behaviour of an array at its operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshProfile {
    /// Cell retention time.
    pub retention: Seconds,
    /// Average power spent refreshing.
    pub power: Watts,
    /// Fraction of time the array is unavailable due to refresh, in
    /// `[0, 1]`; a value of 1 means refresh cannot keep up at all.
    pub busy_fraction: f64,
}

/// The refresh regime of a spec at its operating point, with the
/// candidate-invariant cell terms hoisted. Which arm applies depends
/// only on the cell and the temperature, never on the organization, so
/// [`TempCtx`] resolves the dispatch once per temperature.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RefreshKind {
    /// Data holds indefinitely — no refresh, no scrub.
    Never,
    /// eDRAM decay: every row is read-and-restored per retention window.
    Decay {
        /// Cell retention time at the operating point.
        retention: Seconds,
        /// Storage-node capacitance in farads.
        storage_cap: f64,
    },
    /// Marginal-retention NVM scrub: every row is rewritten per window.
    Scrub {
        /// Cell retention time at the operating point.
        retention: Seconds,
        /// Per-cell write energy in joules.
        write_e_cell: f64,
        /// Temperature-dependent write-energy factor.
        write_e_factor: f64,
    },
}

/// Resolves the refresh regime of `spec` at its operating point.
pub(crate) fn kind_of(spec: &ArraySpec) -> RefreshKind {
    let cell = spec.cell();
    if cell.needs_refresh() {
        let retention = cell
            .retention(spec.node(), spec.op())
            .expect("refresh-dependent cells always model a storage node");
        let storage = cell
            .storage()
            .expect("refresh-dependent cells always model a storage node");
        return RefreshKind::Decay {
            retention,
            storage_cap: storage.capacitance.get(),
        };
    }
    if cell.is_nonvolatile() {
        if let Some(retention) = cell.retention(spec.node(), spec.op()) {
            if retention.get() < NVM_SCRUB_RETENTION_FLOOR_S {
                return RefreshKind::Scrub {
                    retention,
                    write_e_cell: cell.write_energy_cell().get(),
                    write_e_factor: cell.write_energy_factor(spec.op().temperature()),
                };
            }
        }
    }
    RefreshKind::Never
}

/// Total rows in the array and rows served by each per-die engine.
/// Temperature-invariant, so the SoA kernel lowers both into
/// per-candidate columns at solve time.
pub(crate) fn rows_budget_f(subarrays_total: f64, rows: f64, dies: f64) -> (f64, f64) {
    let rows_total = subarrays_total * rows;
    let rows_per_engine = rows_total / (dies * REFRESH_ENGINES_PER_DIE);
    (rows_total, rows_per_engine)
}

/// Computes the refresh or scrub profile from the candidate's scalar
/// inputs (the single formula site shared by the `Ctx` path and the SoA
/// kernel), or `None` for technologies that hold data indefinitely.
#[allow(clippy::too_many_arguments)]
pub(crate) fn profile_raw(
    tc: &TempCtx,
    levels: f64,
    wl_length_m: f64,
    wl_gate_load_f: f64,
    bl_cap_f: f64,
    bl_length_m: f64,
    cols: f64,
    rows_total: f64,
    rows_per_engine: f64,
) -> Option<RefreshProfile> {
    match tc.refresh {
        RefreshKind::Never => None,
        RefreshKind::Decay {
            retention,
            storage_cap,
        } => {
            // One row refresh is a local read-and-restore: decode,
            // wordline, and bitline write-back (no H-tree trip).
            let t_row = decoder::delay_raw(tc, levels)
                + wordline::delay_raw(tc, wl_length_m, wl_gate_load_f)
                + bitline::write_delay_raw(tc, bl_cap_f, bl_length_m);
            let busy_fraction = (rows_per_engine * t_row.get() / retention.get()).min(1.0);

            // Row refresh energy: a gain-cell refresh restores every
            // storage node in the row (C_storage V^2 each) and fires the
            // wordline; it does not pay full bitline swings, H-tree
            // trips, or sensing at the external access margin.
            let row_energy = (cols * storage_cap * tc.vdd * tc.vdd
                + wordline::energy_raw(tc, wl_length_m, wl_gate_load_f).get())
                * calib::REFRESH_ENERGY_FACTOR;
            let power = Watts::new(rows_total * row_energy / retention.get());

            Some(RefreshProfile {
                retention,
                power,
                busy_fraction,
            })
        }
        RefreshKind::Scrub {
            retention,
            write_e_cell,
            write_e_factor,
        } => {
            // A scrub row pass pays decode, wordline, bitline drive, and
            // the full programming pulse — eNVM writes are not a cheap
            // restore.
            let t_row = decoder::delay_raw(tc, levels)
                + wordline::delay_raw(tc, wl_length_m, wl_gate_load_f)
                + bitline::write_delay_raw(tc, bl_cap_f, bl_length_m)
                + tc.write_pulse;
            let busy_fraction = (rows_per_engine * t_row.get() / retention.get()).min(1.0);

            let row_energy = cols * write_e_cell * write_e_factor
                + wordline::energy_raw(tc, wl_length_m, wl_gate_load_f).get();
            let power = Watts::new(rows_total * row_energy / retention.get());

            Some(RefreshProfile {
                retention,
                power,
                busy_fraction,
            })
        }
    }
}

/// Computes the refresh (eDRAM) or scrub (marginal-retention NVM)
/// profile, or `None` for technologies that hold data indefinitely.
pub fn profile(ctx: &Ctx<'_>) -> Option<RefreshProfile> {
    let rows = ctx.rows_f();
    let cols = ctx.cols_f();
    let (rows_total, rows_per_engine) = rows_budget_f(
        ctx.geom.subarrays_total as f64,
        rows,
        f64::from(ctx.spec.dies()),
    );
    profile_raw(
        &ctx.temp,
        decoder::levels_f(rows, ctx.geom.subarrays_per_die as f64),
        wordline::length_m(cols, ctx.geom.cell_width),
        wordline::gate_load_f(ctx.temp.gate_cap_min.get(), cols),
        bitline::capacitance(ctx).get(),
        bitline::length_m(rows, ctx.geom.cell_height),
        cols,
        rows_total,
        rows_per_engine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::Organization;
    use crate::spec::ArraySpec;
    use coldtall_cell::CellModel;
    use coldtall_tech::ProcessNode;
    use coldtall_units::Kelvin;

    fn edram_at(t: f64, cryo: bool) -> RefreshProfile {
        let node = ProcessNode::ptm_22nm_hp();
        let spec = ArraySpec::llc_16mib(CellModel::edram_3t(&node), &node);
        let spec = if cryo {
            spec.at_temperature_cryo(Kelvin::new(t))
        } else {
            spec.at_temperature(Kelvin::new(t))
        };
        profile(&Ctx::new(&spec, Organization::new(1024, 1024))).unwrap()
    }

    #[test]
    fn sram_never_refreshes() {
        let node = ProcessNode::ptm_22nm_hp();
        let spec = ArraySpec::llc_16mib(CellModel::sram(&node), &node);
        assert!(profile(&Ctx::new(&spec, Organization::new(512, 512))).is_none());
    }

    #[test]
    fn edram_at_300k_is_refresh_crippled() {
        // The paper: 3T-eDRAM LLCs cannot run ordinary workloads at 300 K
        // (94% IPC reduction from refresh).
        let p = edram_at(300.0, false);
        assert!(p.busy_fraction > 0.9, "busy = {}", p.busy_fraction);
    }

    #[test]
    fn edram_at_350k_is_infeasible() {
        let p = edram_at(350.0, false);
        assert!((p.busy_fraction - 1.0).abs() < 1e-9);
        assert!(p.power.get() > 0.01, "refresh power = {}", p.power);
    }

    #[test]
    fn edram_at_77k_is_refresh_free() {
        let p = edram_at(77.0, true);
        assert!(p.busy_fraction < 1e-3, "busy = {}", p.busy_fraction);
        assert!(p.power.get() < 1e-3, "refresh power = {}", p.power);
        assert!(p.retention.get() > 1.0);
    }

    #[test]
    fn default_stt_never_scrubs_but_adjusted_stability_does() {
        use coldtall_cell::{MemoryTechnology, Tentpole};
        let node = ProcessNode::ptm_22nm_hp();
        let org = Organization::new(512, 1024);

        // Survey-default MTJ: retention is decades above the scrub
        // floor everywhere in the legal span — no profile.
        let stt = CellModel::tentpole(MemoryTechnology::SttRam, Tentpole::Optimistic, &node);
        for t in [77.0, 350.0, 400.0] {
            let spec = ArraySpec::llc_16mib(stt.clone(), &node).at_temperature(Kelvin::new(t));
            assert!(profile(&Ctx::new(&spec, org)).is_none(), "{t} K");
        }

        // A stability-adjusted junction (Δ_ref = 30 → hours of
        // retention at 350 K) must scrub, and scrubbing eases toward
        // cryo as Δ(T) grows.
        let adjusted = stt.with_thermal_stability(30.0);
        let profile_at = |t: f64| {
            let spec = ArraySpec::llc_16mib(adjusted.clone(), &node).at_temperature(Kelvin::new(t));
            profile(&Ctx::new(&spec, org)).unwrap()
        };
        let warm = profile_at(350.0);
        assert!(warm.power.get() > 0.0);
        assert!(warm.busy_fraction > 0.0 && warm.busy_fraction < 1.0);
        let cool = profile_at(300.0);
        assert!(cool.retention > warm.retention);
        assert!(cool.power < warm.power);
        // By 250 K the Δ(T) boost lifts retention back over the floor.
        let spec = ArraySpec::llc_16mib(adjusted.clone(), &node).at_temperature(Kelvin::new(250.0));
        assert!(profile(&Ctx::new(&spec, org)).is_none());
    }

    #[test]
    fn retention_monotone_with_temperature() {
        let cold = edram_at(200.0, false);
        let warm = edram_at(300.0, false);
        let hot = edram_at(387.0, false);
        assert!(cold.retention > warm.retention);
        assert!(warm.retention > hot.retention);
    }
}
