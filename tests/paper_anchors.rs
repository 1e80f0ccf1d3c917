//! Machine-checked reproduction anchors: every relative claim of the
//! paper's evaluation section asserted in a tolerant band.
//!
//! Each test names the figure or table it guards. Deviations we accept
//! (and their reasons) are documented in `EXPERIMENTS.md`; everything
//! asserted here is expected to hold for any retuning of the calibration
//! constants.

use coldtall::array::{ArrayCharacterization, ArraySpec, Objective};
use coldtall::cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall::core::{Explorer, MemoryConfig};
use coldtall::cryo::{study_temperatures, CoolingSystem};
use coldtall::tech::ProcessNode;
use coldtall::units::Kelvin;
use coldtall::workloads::{benchmark, spec2017, TrafficBand};

fn node() -> ProcessNode {
    ProcessNode::ptm_22nm_hp()
}

fn sram_baseline() -> ArrayCharacterization {
    ArraySpec::llc_16mib(CellModel::sram(&node()), &node())
        .characterize(Objective::EnergyDelayProduct)
}

/// `spec` characterized at `t` under the cryogenic voltage-scaling
/// policy, as every temperature sweep of the study applies it.
fn characterize_at(spec: &ArraySpec, t: Kelvin, objective: Objective) -> ArrayCharacterization {
    spec.clone().at_temperature_cryo(t).characterize(objective)
}

fn characterized(tech: MemoryTechnology, tentpole: Tentpole, dies: u8) -> ArrayCharacterization {
    let n = node();
    let cell = CellModel::tentpole(tech, tentpole, &n);
    let mut spec = ArraySpec::llc_16mib(cell, &n);
    if dies > 1 {
        spec = spec.with_dies(dies);
    }
    spec.characterize(Objective::EnergyDelayProduct)
}

// ---------------------------------------------------------------- Fig. 1

#[test]
fn fig1_cooling_tiers_scale_as_published() {
    // 9.65x / 14.3x / 21.8x / 39.6x from 100 kW down to 10 W.
    let factors: Vec<f64> = CoolingSystem::ALL
        .iter()
        .map(|c| c.overhead_factor())
        .collect();
    assert_eq!(factors, vec![9.65, 14.3, 21.8, 39.6]);
}

#[test]
fn fig1_namd_cryo_power_reduction_exceeds_50x_before_cooling() {
    let explorer = Explorer::with_defaults();
    let namd = benchmark("namd").unwrap();
    let warm = explorer.evaluate(&MemoryConfig::sram_350k(), namd);
    let cold = explorer.evaluate(&MemoryConfig::edram_77k(), namd);
    let no_cooling = warm.device_power / cold.device_power;
    assert!(no_cooling > 50.0, "device-power reduction = {no_cooling}");
    // Including conservative cooling there is still a >50% reduction.
    let cooled = warm.wall_power / cold.wall_power;
    assert!(cooled > 2.0, "cooled reduction = {cooled}");
}

// ---------------------------------------------------------------- Fig. 3

#[test]
fn fig3_dynamic_energy_varies_about_ten_percent_with_temperature() {
    let n = node();
    let spec = ArraySpec::llc_16mib(CellModel::sram(&n), &n);
    let base = sram_baseline();
    for &t in study_temperatures() {
        let a = characterize_at(&spec, t, Objective::EnergyDelayProduct);
        let rel = a.read_energy_per_bit() / base.read_energy_per_bit();
        assert!(
            (0.85..=1.15).contains(&rel),
            "read energy at {t} = {rel} of 350K"
        );
    }
}

#[test]
fn fig3_cryo_latency_is_about_70_percent_lower() {
    let n = node();
    let spec = ArraySpec::llc_16mib(CellModel::sram(&n), &n);
    let base = sram_baseline();
    let cold = characterize_at(&spec, Kelvin::LN2, Objective::EnergyDelayProduct);
    let rel = cold.read_latency / base.read_latency;
    assert!((0.2..=0.4).contains(&rel), "77K latency ratio = {rel}");
}

#[test]
fn fig3_cryo_leakage_collapses_about_a_million_fold() {
    let n = node();
    let spec = ArraySpec::llc_16mib(CellModel::sram(&n), &n);
    let base = sram_baseline();
    let cold = characterize_at(&spec, Kelvin::LN2, Objective::EnergyDelayProduct);
    let rel = cold.leakage_power / base.leakage_power;
    assert!(
        (1e-7..=1e-5).contains(&rel),
        "77K leakage ratio = {rel:e}"
    );
}

#[test]
fn fig3_edram_leakage_gap_grows_from_10x_to_beyond() {
    let n = node();
    let sram = ArraySpec::llc_16mib(CellModel::sram(&n), &n);
    let edram = ArraySpec::llc_16mib(CellModel::edram_3t(&n), &n);
    let obj = Objective::EnergyDelayProduct;
    let gap = |t: Kelvin| {
        characterize_at(&sram, t, obj).leakage_power
            / characterize_at(&edram, t, obj).leakage_power.get().max(1e-30)
            / 1.0
    };
    let gap_cold = characterize_at(&sram, Kelvin::LN2, obj).leakage_power.get()
        / characterize_at(&edram, Kelvin::LN2, obj).leakage_power.get();
    let gap_hot = characterize_at(&sram, Kelvin::TDP, obj).leakage_power.get()
        / characterize_at(&edram, Kelvin::TDP, obj).leakage_power.get();
    let _ = gap;
    assert!((5.0..=25.0).contains(&gap_cold), "77K gap = {gap_cold}");
    assert!(gap_hot > 2.0 * gap_cold, "gap must widen: {gap_cold} -> {gap_hot}");
}

#[test]
fn fig3_leakage_rises_monotonically_with_temperature() {
    let n = node();
    let spec = ArraySpec::llc_16mib(CellModel::sram(&n), &n);
    let mut prev = -1.0;
    for &t in study_temperatures() {
        let leak = characterize_at(&spec, t, Objective::EnergyDelayProduct)
            .leakage_power
            .get();
        assert!(leak > prev, "leakage must rise with temperature at {t}");
        prev = leak;
    }
}

#[test]
fn fig3_edram_retention_collapses_refresh_at_77k_only() {
    let n = node();
    let spec = ArraySpec::llc_16mib(CellModel::edram_3t(&n), &n);
    let obj = Objective::EnergyDelayProduct;
    let cold = characterize_at(&spec, Kelvin::LN2, obj);
    let warm = characterize_at(&spec, Kelvin::ROOM, obj);
    // Paper: 300 K 3T-eDRAM cannot run ordinary workloads (94% IPC
    // reduction); 77 K retention is >10,000x longer and refresh-free.
    assert!(warm.refresh_busy_fraction > 0.9);
    assert!(cold.refresh_busy_fraction < 1e-3);
    let gain = cold.retention.unwrap() / warm.retention.unwrap();
    assert!(gain > 1e4, "retention gain = {gain}");
}

// ---------------------------------------------------------------- Fig. 4

#[test]
fn fig4_namd_cryo_sram_wins_about_3x_including_cooling() {
    let explorer = Explorer::with_defaults();
    let namd = benchmark("namd").unwrap();
    let warm = explorer.evaluate(&MemoryConfig::sram_350k(), namd);
    let cold = explorer.evaluate(&MemoryConfig::sram_77k(), namd);
    let ratio = warm.wall_power / cold.wall_power;
    assert!((2.0..=6.0).contains(&ratio), "namd SRAM cooled win = {ratio}");
}

#[test]
fn fig4_namd_cryo_edram_is_thwarted_by_cooling() {
    let explorer = Explorer::with_defaults();
    let namd = benchmark("namd").unwrap();
    let warm = explorer.evaluate(&MemoryConfig::edram_350k(), namd);
    let cold = explorer.evaluate(&MemoryConfig::edram_77k(), namd);
    assert!(
        cold.wall_power > warm.wall_power,
        "cooling must erase the cryo eDRAM win on namd: {} vs {}",
        cold.wall_power,
        warm.wall_power
    );
}

#[test]
fn fig4_leela_cryo_wins_for_both_technologies() {
    let explorer = Explorer::with_defaults();
    let leela = benchmark("leela").unwrap();
    for (warm, cold) in [
        (MemoryConfig::sram_350k(), MemoryConfig::sram_77k()),
        (MemoryConfig::edram_350k(), MemoryConfig::edram_77k()),
    ] {
        let w = explorer.evaluate(&warm, leela);
        let c = explorer.evaluate(&cold, leela);
        assert!(
            c.wall_power.get() < w.wall_power.get() / 10.0,
            "{}: cryo must win by >10x on leela",
            warm.label()
        );
    }
}

// ---------------------------------------------------------------- Fig. 5

#[test]
fn fig5_77k_edram_is_lowest_power_across_the_suite() {
    let explorer = Explorer::with_defaults();
    let cryo_edram = MemoryConfig::edram_77k();
    let rivals = [
        MemoryConfig::sram_350k(),
        MemoryConfig::edram_350k(),
        MemoryConfig::sram_77k(),
    ];
    for bench in spec2017() {
        let champion = explorer.evaluate(&cryo_edram, bench).device_power;
        for rival in &rivals {
            let other = explorer.evaluate(rival, bench).device_power;
            assert!(
                champion.get() <= other.get(),
                "{}: 77K 3T-eDRAM must be the lowest-power volatile option",
                bench.name
            );
        }
    }
}

#[test]
fn fig5_cryo_cooled_power_exceeds_baseline_at_the_highest_traffic() {
    let explorer = Explorer::with_defaults();
    let mcf = benchmark("mcf").unwrap();
    let warm = explorer.evaluate(&MemoryConfig::sram_350k(), mcf);
    let cold = explorer.evaluate(&MemoryConfig::sram_77k(), mcf);
    assert!(
        cold.relative_power > warm.relative_power,
        "cooling must preclude cryo viability at mcf traffic"
    );
}

#[test]
fn fig5_cryo_aggregate_latency_is_2_to_4x_lower_everywhere() {
    let explorer = Explorer::with_defaults();
    for bench in spec2017() {
        for config in [MemoryConfig::sram_77k(), MemoryConfig::edram_77k()] {
            let eval = explorer.evaluate(&config, bench);
            assert!(
                (2.0..=6.0).contains(&(1.0 / eval.relative_latency)),
                "{} on {}: latency win = {}",
                config.label(),
                bench.name,
                1.0 / eval.relative_latency
            );
        }
    }
}

#[test]
fn fig5_77k_edram_latency_beats_77k_sram() {
    let explorer = Explorer::with_defaults();
    for bench in spec2017() {
        let edram = explorer.evaluate(&MemoryConfig::edram_77k(), bench);
        let sram = explorer.evaluate(&MemoryConfig::sram_77k(), bench);
        assert!(
            edram.relative_latency <= sram.relative_latency,
            "{}: 77K 3T-eDRAM must be at least as fast as 77K SRAM",
            bench.name
        );
    }
}

#[test]
fn fig5_povray_band_reduction_exceeds_2500x_even_with_cooling() {
    let explorer = Explorer::with_defaults();
    let povray = benchmark("povray").unwrap();
    let warm = explorer.evaluate(&MemoryConfig::sram_350k(), povray);
    let cold = explorer.evaluate(&MemoryConfig::edram_77k(), povray);
    let reduction = warm.wall_power / cold.wall_power;
    assert!(reduction > 1000.0, "povray reduction = {reduction}");
}

// ---------------------------------------------------------------- Fig. 6

#[test]
fn fig6_8die_sram_saves_over_80_percent_footprint() {
    let base = sram_baseline();
    let stacked = characterized(MemoryTechnology::Sram, Tentpole::Optimistic, 8);
    let rel = stacked.footprint / base.footprint;
    assert!(rel < 0.2, "8-die SRAM footprint = {rel}");
}

#[test]
fn fig6_pcm_gains_only_about_30_percent_from_stacking() {
    let one = characterized(MemoryTechnology::Pcm, Tentpole::Optimistic, 1);
    let eight = characterized(MemoryTechnology::Pcm, Tentpole::Optimistic, 8);
    let reduction = 1.0 - eight.footprint / one.footprint;
    assert!(
        (0.15..=0.5).contains(&reduction),
        "PCM 1->8 die footprint reduction = {reduction}"
    );
}

#[test]
fn fig6_8die_pcm_is_over_10x_denser_than_2d_sram() {
    let base = sram_baseline();
    let pcm = characterized(MemoryTechnology::Pcm, Tentpole::Optimistic, 8);
    let factor = base.footprint / pcm.footprint;
    assert!(factor > 10.0, "8-die PCM density win = {factor}");
}

#[test]
fn fig6_every_8die_envm_is_at_least_2x_denser_than_8die_sram() {
    let sram8 = characterized(MemoryTechnology::Sram, Tentpole::Optimistic, 8);
    for tech in MemoryTechnology::ENVM_SET {
        for tentpole in Tentpole::BOTH {
            let envm = characterized(tech, tentpole, 8);
            let factor = sram8.footprint / envm.footprint;
            assert!(
                factor >= 2.0,
                "{tech} ({tentpole}) 8-die density vs 8-die SRAM = {factor}"
            );
        }
    }
}

#[test]
fn fig6_best_read_energy_is_8die_sram_then_8die_pcm() {
    let base = sram_baseline();
    let sram8 = characterized(MemoryTechnology::Sram, Tentpole::Optimistic, 8);
    let pcm8 = characterized(MemoryTechnology::Pcm, Tentpole::Optimistic, 8);
    let stt8 = characterized(MemoryTechnology::SttRam, Tentpole::Optimistic, 8);
    let rram8 = characterized(MemoryTechnology::Rram, Tentpole::Optimistic, 8);
    // 8-die SRAM ~75% lower, 8-die PCM ~55% lower than the baseline.
    let sram_rel = sram8.read_energy / base.read_energy;
    let pcm_rel = pcm8.read_energy / base.read_energy;
    assert!((0.15..=0.4).contains(&sram_rel), "8-die SRAM read energy = {sram_rel}");
    assert!((0.35..=0.6).contains(&pcm_rel), "8-die PCM read energy = {pcm_rel}");
    assert!(sram8.read_energy < pcm8.read_energy);
    assert!(pcm8.read_energy < stt8.read_energy);
    assert!(pcm8.read_energy < rram8.read_energy);
}

#[test]
fn fig6_sram_has_lowest_write_energy_regardless_of_stacking() {
    for dies in [1u8, 2, 4, 8] {
        let sram = characterized(MemoryTechnology::Sram, Tentpole::Optimistic, dies);
        for tech in MemoryTechnology::ENVM_SET {
            let envm = characterized(tech, Tentpole::Optimistic, dies);
            assert!(
                sram.write_energy < envm.write_energy,
                "{dies}-die {tech} write energy must exceed SRAM's"
            );
        }
    }
}

#[test]
fn fig6_8die_pcm_has_the_best_read_latency() {
    let pcm8 = characterized(MemoryTechnology::Pcm, Tentpole::Optimistic, 8);
    let pcm4 = characterized(MemoryTechnology::Pcm, Tentpole::Optimistic, 4);
    let pcm2 = characterized(MemoryTechnology::Pcm, Tentpole::Optimistic, 2);
    let stt8 = characterized(MemoryTechnology::SttRam, Tentpole::Optimistic, 8);
    let rram8 = characterized(MemoryTechnology::Rram, Tentpole::Optimistic, 8);
    let sram8 = characterized(MemoryTechnology::Sram, Tentpole::Optimistic, 8);
    // 8- and 4-die PCM are within a percent of each other (the extra
    // TSV hops offset the shorter H-tree); the paper's strict ordering
    // is asserted with that tolerance.
    assert!(pcm8.read_latency.get() <= pcm4.read_latency.get() * 1.01);
    assert!(pcm4.read_latency <= pcm2.read_latency);
    assert!(pcm2.read_latency < stt8.read_latency);
    assert!(stt8.read_latency < rram8.read_latency);
    assert!(stt8.read_latency < sram8.read_latency, "STT competitive read");
}

#[test]
fn fig6_8die_stt_has_the_lowest_write_latency() {
    let stt8 = characterized(MemoryTechnology::SttRam, Tentpole::Optimistic, 8);
    let rivals = [
        characterized(MemoryTechnology::Sram, Tentpole::Optimistic, 1),
        characterized(MemoryTechnology::Sram, Tentpole::Optimistic, 8),
        characterized(MemoryTechnology::Pcm, Tentpole::Optimistic, 8),
        characterized(MemoryTechnology::Rram, Tentpole::Optimistic, 8),
    ];
    for rival in &rivals {
        assert!(
            stt8.write_latency < rival.write_latency,
            "8-die STT must write fastest"
        );
    }
    // And per die count, STT writes beat the matching SRAM config.
    for dies in [1u8, 2, 4, 8] {
        let stt = characterized(MemoryTechnology::SttRam, Tentpole::Optimistic, dies);
        let sram = characterized(MemoryTechnology::Sram, Tentpole::Optimistic, dies);
        assert!(stt.write_latency < sram.write_latency, "{dies}-die STT write");
    }
}

// ---------------------------------------------------------------- Fig. 7

#[test]
fn fig7_envms_sit_2_to_80x_below_sram_at_low_traffic() {
    let explorer = Explorer::with_defaults();
    let x264 = benchmark("x264").unwrap(); // ~1e6 reads/s
    let warm = explorer.evaluate(&MemoryConfig::sram_350k(), x264);
    for tech in MemoryTechnology::ENVM_SET {
        for tentpole in Tentpole::BOTH {
            for dies in [1u8, 8] {
                let config = MemoryConfig::envm_3d(tech, tentpole, dies);
                let eval = explorer.evaluate(&config, x264);
                let win = warm.relative_power / eval.relative_power;
                assert!(
                    (2.0..=80.0).contains(&win),
                    "{}: power win = {win}",
                    config.label()
                );
            }
        }
    }
}

#[test]
fn fig7_pessimistic_envms_win_only_single_digits() {
    // "even considering eNVMs with pessimistic underlying cell
    // properties" the win is in the 2-10x class, not orders of
    // magnitude: the periphery still burns static power.
    let explorer = Explorer::with_defaults();
    let x264 = benchmark("x264").unwrap();
    let warm = explorer.evaluate(&MemoryConfig::sram_350k(), x264);
    for tech in MemoryTechnology::ENVM_SET {
        let config = MemoryConfig::envm_3d(tech, Tentpole::Pessimistic, 1);
        let eval = explorer.evaluate(&config, x264);
        let win = warm.relative_power / eval.relative_power;
        assert!((2.0..=12.0).contains(&win), "{tech} pessimistic win = {win}");
    }
}

#[test]
fn fig7_stt_benefit_shrinks_as_write_power_dominates() {
    let explorer = Explorer::with_defaults();
    let config = MemoryConfig::envm_3d(MemoryTechnology::SttRam, Tentpole::Optimistic, 8);
    let quiet = benchmark("deepsjeng").unwrap(); // 8e4 reads/s
    let busy = benchmark("lbm").unwrap(); // write-heavy
    let quiet_win = explorer.evaluate(&MemoryConfig::sram_350k(), quiet).relative_power
        / explorer.evaluate(&config, quiet).relative_power;
    let busy_win = explorer.evaluate(&MemoryConfig::sram_350k(), busy).relative_power
        / explorer.evaluate(&config, busy).relative_power;
    assert!(
        busy_win < quiet_win / 2.0,
        "STT win must shrink with write traffic: {quiet_win} -> {busy_win}"
    );
}

#[test]
fn fig7_pessimistic_pcm_and_stt_slow_down_write_heavy_workloads() {
    let explorer = Explorer::with_defaults();
    let lbm = benchmark("lbm").unwrap();
    for tech in [MemoryTechnology::Pcm, MemoryTechnology::SttRam] {
        let config = MemoryConfig::envm_3d(tech, Tentpole::Pessimistic, 8);
        let eval = explorer.evaluate(&config, lbm);
        assert!(
            eval.slowdown,
            "pessimistic {tech} must exceed the latency envelope on lbm"
        );
    }
}

#[test]
fn fig7_stacked_stt_is_the_fastest_room_temperature_llc_except_mcf() {
    let explorer = Explorer::with_defaults();
    let stt8 = MemoryConfig::envm_3d(MemoryTechnology::SttRam, Tentpole::Optimistic, 8);
    let pcm8 = MemoryConfig::envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, 8);
    let mut stt_wins = 0usize;
    for bench in spec2017() {
        let stt = explorer.evaluate(&stt8, bench).relative_latency;
        let pcm = explorer.evaluate(&pcm8, bench).relative_latency;
        if bench.name == "mcf" {
            assert!(pcm < stt, "read-dominated mcf must prefer 8-die PCM");
        } else if stt < pcm {
            stt_wins += 1;
        }
    }
    assert!(
        stt_wins > spec2017().len() / 2,
        "8-die STT must win most benchmarks ({stt_wins} wins)"
    );
}

#[test]
fn fig7_power_optimal_die_count_rises_with_traffic() {
    // Paper summary: higher stacking is better for power at high
    // traffic, lower stacking at low traffic.
    let explorer = Explorer::with_defaults();
    let best_dies = |bench_name: &str| {
        let bench = benchmark(bench_name).unwrap();
        [1u8, 2, 4, 8]
            .into_iter()
            .min_by(|&a, &b| {
                let pa = explorer
                    .evaluate(
                        &MemoryConfig::envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, a),
                        bench,
                    )
                    .relative_power;
                let pb = explorer
                    .evaluate(
                        &MemoryConfig::envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, b),
                        bench,
                    )
                    .relative_power;
                pa.total_cmp(&pb)
            })
            .unwrap()
    };
    let quiet = best_dies("leela");
    let busy = best_dies("mcf");
    assert_eq!(quiet, 1, "low traffic prefers minimal stacking");
    assert!(busy > quiet, "high traffic must prefer more stacking");
}

// -------------------------------------------------------------- Table II

#[test]
fn table2_matches_the_papers_band_structure() {
    let explorer = Explorer::with_defaults();
    let rows = coldtall::core::selection::table2(&explorer);
    assert_eq!(rows.len(), 3);

    let low = rows.iter().find(|r| r.band == TrafficBand::Low).unwrap();
    assert_eq!(low.power.label, "77K 3T-eDRAM");
    assert!(low.power.improvement > 100.0);

    let mid = rows.iter().find(|r| r.band == TrafficBand::Mid).unwrap();
    assert!(mid.power.label.contains("PCM"), "mid winner = {}", mid.power.label);
    assert_eq!(mid.power.alternate.as_deref(), Some("77K 3T-eDRAM"));
    assert!(
        (10.0..=60.0).contains(&mid.power.improvement),
        "mid-band improvement = {}",
        mid.power.improvement
    );

    let high = rows.iter().find(|r| r.band == TrafficBand::High).unwrap();
    assert!(high.power.label.contains("PCM"));
    assert!(high.power.endurance_limited, "PCM winners carry the endurance flag");

    for row in &rows {
        assert!(row.area.label.contains("8-die PCM"));
    }
}
