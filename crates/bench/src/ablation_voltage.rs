//! Ablation: cryogenic voltage scaling (CryoMEM's central idea).
//!
//! At 77 K the threshold voltage is retargeted downwards and the supply
//! follows. This study sweeps the 77 K supply voltage around the policy
//! point to show the trade: lower Vdd saves CV^2 dynamic energy until
//! the shrinking overdrive stalls the devices.

use coldtall_array::{ArraySpec, Objective};
use coldtall_cell::CellModel;
use coldtall_core::report::{sci, TextTable};
use coldtall_tech::{OperatingPoint, ProcessNode};
use coldtall_units::{Kelvin, Volts};

/// One row per supply point at 77 K, relative to the cryo-policy
/// default (0.76 V with the 0.35 V threshold retarget).
#[must_use]
pub fn run() -> TextTable {
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let cell = CellModel::sram(&node);
    let policy = ArraySpec::llc_16mib(cell.clone(), &node)
        .at_temperature_cryo(Kelvin::LN2)
        .characterize(objective);

    let mut table = TextTable::new(&[
        "vdd_V",
        "rel_read_energy",
        "rel_read_latency",
        "rel_leakage",
        "rel_read_edp",
    ]);
    for vdd_mv in (500..=900).step_by(50) {
        let vdd = Volts::new(f64::from(vdd_mv) / 1000.0);
        let op = OperatingPoint::custom(Kelvin::LN2, vdd, Some(Volts::new(0.35)));
        let a = ArraySpec::llc_16mib(cell.clone(), &node)
            .with_operating_point(op)
            .characterize(objective);
        table.row(&[
            &format!("{:.2}", vdd.get()),
            &sci(a.read_energy / policy.read_energy),
            &sci(a.read_latency / policy.read_latency),
            &sci(a.leakage_power / policy.leakage_power),
            &sci(a.read_edp() / policy.read_edp()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_supply_points() {
        assert_eq!(run().len(), 9);
    }

    #[test]
    fn lower_vdd_saves_energy_but_costs_latency() {
        let csv = run().to_csv();
        let row = |vdd: &str| -> Vec<f64> {
            csv.lines()
                .find(|l| l.starts_with(vdd))
                .unwrap()
                .split(',')
                .skip(1)
                .map(|c| c.parse().unwrap())
                .collect()
        };
        let low = row("0.55");
        let high = row("0.90");
        assert!(low[0] < high[0], "energy must fall with Vdd");
        assert!(low[1] > high[1], "latency must rise as overdrive shrinks");
    }

    #[test]
    fn the_edp_optimum_is_near_the_policy_point() {
        // The cryo policy's 0.76 V choice should sit within ~25% of the
        // swept EDP minimum.
        let csv = run().to_csv();
        let edps: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(4).unwrap().parse().unwrap())
            .collect();
        let min = edps.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            min > 0.7,
            "policy EDP must be within 40% of the sweep optimum (min = {min})"
        );
    }
}
