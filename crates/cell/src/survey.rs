//! Survey database of published eNVM cell demonstrations.
//!
//! NVMExplorer aggregates cell-level characteristics published at ISSCC,
//! IEDM, and the VLSI symposia between 2016 and 2020. That database is
//! not redistributable, so this module ships **synthetic stand-in
//! entries** spanning the same per-technology ranges reported in the
//! literature; the downstream tentpole methodology only consumes the
//! per-field extrema, which these ranges reproduce (see `DESIGN.md`
//! section 3).

use crate::technology::MemoryTechnology;

/// Publication venue of a surveyed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Venue {
    /// International Solid-State Circuits Conference.
    Isscc,
    /// International Electron Devices Meeting.
    Iedm,
    /// Symposium on VLSI Technology and Circuits.
    Vlsi,
}

/// One published cell demonstration: the cell-level characteristics the
/// array model consumes.
///
/// This is a passive record type; all fields are public.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurveyEntry {
    /// Synthetic identifier, e.g. `"PCM-ISSCC17-A"`.
    pub id: &'static str,
    /// Publication year.
    pub year: u16,
    /// Publication venue.
    pub venue: Venue,
    /// Cell technology.
    pub technology: MemoryTechnology,
    /// Cell footprint in squared feature sizes (F^2).
    pub cell_area_f2: f64,
    /// Cell-level sensing latency for a read, nanoseconds.
    pub read_sense_ns: f64,
    /// Cell-level read energy, picojoules per bit.
    pub read_energy_pj: f64,
    /// Cell write (SET/RESET/switching) pulse latency, nanoseconds.
    pub write_latency_ns: f64,
    /// Cell write energy, picojoules per bit.
    pub write_energy_pj: f64,
    /// Write endurance in program cycles.
    pub endurance_writes: f64,
    /// Data retention at operating temperature, years.
    pub retention_years: f64,
    /// Bits stored per cell (multi-level cells).
    pub mlc_bits: u8,
}

macro_rules! entry {
    ($id:literal, $year:literal, $venue:ident, $tech:ident,
     area: $area:literal, sense: $sense:literal, re: $re:literal,
     wlat: $wlat:literal, we: $we:literal, end: $end:literal,
     ret: $ret:literal, mlc: $mlc:literal) => {
        SurveyEntry {
            id: $id,
            year: $year,
            venue: Venue::$venue,
            technology: MemoryTechnology::$tech,
            cell_area_f2: $area,
            read_sense_ns: $sense,
            read_energy_pj: $re,
            write_latency_ns: $wlat,
            write_energy_pj: $we,
            endurance_writes: $end,
            retention_years: $ret,
            mlc_bits: $mlc,
        }
    };
}

/// Phase-change memory demonstrations.
const PCM: &[SurveyEntry] = &[
    entry!("PCM-ISSCC16-A", 2016, Isscc, Pcm, area: 16.0, sense: 1.5, re: 3.2, wlat: 150.0, we: 60.0, end: 1.0e6, ret: 10.0, mlc: 1),
    entry!("PCM-IEDM16-B", 2016, Iedm, Pcm, area: 12.0, sense: 1.1, re: 2.7, wlat: 120.0, we: 45.0, end: 3.0e6, ret: 10.0, mlc: 1),
    entry!("PCM-VLSI17-A", 2017, Vlsi, Pcm, area: 9.0, sense: 0.9, re: 2.4, wlat: 90.0, we: 38.0, end: 1.0e7, ret: 10.0, mlc: 2),
    entry!("PCM-ISSCC17-B", 2017, Isscc, Pcm, area: 8.0, sense: 0.8, re: 2.2, wlat: 70.0, we: 30.0, end: 2.0e7, ret: 10.0, mlc: 1),
    entry!("PCM-IEDM17-C", 2017, Iedm, Pcm, area: 7.0, sense: 0.7, re: 2.0, wlat: 55.0, we: 24.0, end: 5.0e7, ret: 8.0, mlc: 2),
    entry!("PCM-ISSCC18-A", 2018, Isscc, Pcm, area: 6.0, sense: 0.6, re: 1.9, wlat: 45.0, we: 19.0, end: 1.0e8, ret: 10.0, mlc: 1),
    entry!("PCM-VLSI18-B", 2018, Vlsi, Pcm, area: 6.0, sense: 0.5, re: 1.8, wlat: 35.0, we: 15.0, end: 2.0e8, ret: 10.0, mlc: 2),
    entry!("PCM-IEDM18-D", 2018, Iedm, Pcm, area: 5.0, sense: 0.45, re: 1.7, wlat: 28.0, we: 12.0, end: 3.0e8, ret: 10.0, mlc: 1),
    entry!("PCM-ISSCC19-A", 2019, Isscc, Pcm, area: 5.0, sense: 0.4, re: 1.6, wlat: 22.0, we: 9.0, end: 5.0e8, ret: 10.0, mlc: 1),
    entry!("PCM-VLSI19-C", 2019, Vlsi, Pcm, area: 4.5, sense: 0.33, re: 1.5, wlat: 16.0, we: 7.0, end: 8.0e8, ret: 10.0, mlc: 2),
    entry!("PCM-IEDM19-B", 2019, Iedm, Pcm, area: 4.0, sense: 0.3, re: 1.45, wlat: 13.0, we: 6.0, end: 1.0e9, ret: 10.0, mlc: 1),
    entry!("PCM-ISSCC20-A", 2020, Isscc, Pcm, area: 4.0, sense: 0.15, re: 1.4, wlat: 10.0, we: 5.0, end: 1.0e9, ret: 10.0, mlc: 2),
];

/// Spin-transfer-torque MRAM demonstrations.
const STT: &[SurveyEntry] = &[
    entry!("STT-ISSCC16-A", 2016, Isscc, SttRam, area: 40.0, sense: 2.0, re: 4.0, wlat: 20.0, we: 15.0, end: 1.0e10, ret: 10.0, mlc: 1),
    entry!("STT-IEDM16-B", 2016, Iedm, SttRam, area: 34.0, sense: 1.7, re: 3.7, wlat: 16.0, we: 13.0, end: 5.0e10, ret: 10.0, mlc: 1),
    entry!("STT-VLSI17-A", 2017, Vlsi, SttRam, area: 30.0, sense: 1.4, re: 3.4, wlat: 12.0, we: 11.0, end: 1.0e11, ret: 10.0, mlc: 1),
    entry!("STT-ISSCC17-C", 2017, Isscc, SttRam, area: 27.0, sense: 1.2, re: 3.1, wlat: 10.0, we: 9.5, end: 5.0e11, ret: 10.0, mlc: 1),
    entry!("STT-IEDM17-A", 2017, Iedm, SttRam, area: 24.0, sense: 1.0, re: 2.9, wlat: 8.0, we: 8.0, end: 1.0e12, ret: 10.0, mlc: 1),
    entry!("STT-VLSI18-B", 2018, Vlsi, SttRam, area: 21.0, sense: 0.85, re: 2.7, wlat: 6.0, we: 7.0, end: 5.0e12, ret: 10.0, mlc: 1),
    entry!("STT-ISSCC18-D", 2018, Isscc, SttRam, area: 18.0, sense: 0.7, re: 2.5, wlat: 4.5, we: 6.2, end: 1.0e13, ret: 10.0, mlc: 1),
    entry!("STT-IEDM18-C", 2018, Iedm, SttRam, area: 16.0, sense: 0.6, re: 2.3, wlat: 3.2, we: 5.5, end: 5.0e13, ret: 10.0, mlc: 1),
    entry!("STT-ISSCC19-B", 2019, Isscc, SttRam, area: 14.0, sense: 0.5, re: 2.2, wlat: 2.2, we: 4.8, end: 1.0e14, ret: 10.0, mlc: 1),
    entry!("STT-VLSI19-A", 2019, Vlsi, SttRam, area: 12.0, sense: 0.45, re: 2.0, wlat: 1.5, we: 4.2, end: 3.0e14, ret: 10.0, mlc: 1),
    entry!("STT-IEDM19-D", 2019, Iedm, SttRam, area: 11.0, sense: 0.4, re: 1.9, wlat: 0.6, we: 3.8, end: 6.0e14, ret: 10.0, mlc: 1),
    entry!("STT-ISSCC20-B", 2020, Isscc, SttRam, area: 10.0, sense: 0.25, re: 1.8, wlat: 0.3, we: 3.5, end: 1.0e15, ret: 10.0, mlc: 1),
];

/// Resistive RAM demonstrations.
const RRAM: &[SurveyEntry] = &[
    entry!("RRAM-ISSCC16-B", 2016, Isscc, Rram, area: 30.0, sense: 3.0, re: 5.0, wlat: 100.0, we: 40.0, end: 1.0e6, ret: 10.0, mlc: 1),
    entry!("RRAM-IEDM16-A", 2016, Iedm, Rram, area: 26.0, sense: 2.5, re: 4.6, wlat: 80.0, we: 33.0, end: 5.0e6, ret: 10.0, mlc: 1),
    entry!("RRAM-VLSI17-C", 2017, Vlsi, Rram, area: 22.0, sense: 2.1, re: 4.2, wlat: 62.0, we: 27.0, end: 1.0e7, ret: 10.0, mlc: 2),
    entry!("RRAM-ISSCC17-A", 2017, Isscc, Rram, area: 18.0, sense: 1.8, re: 3.9, wlat: 48.0, we: 22.0, end: 1.0e8, ret: 10.0, mlc: 1),
    entry!("RRAM-IEDM17-D", 2017, Iedm, Rram, area: 15.0, sense: 1.5, re: 3.6, wlat: 37.0, we: 18.0, end: 5.0e8, ret: 10.0, mlc: 2),
    entry!("RRAM-VLSI18-A", 2018, Vlsi, Rram, area: 12.0, sense: 1.25, re: 3.3, wlat: 28.0, we: 15.0, end: 1.0e9, ret: 10.0, mlc: 1),
    entry!("RRAM-ISSCC18-C", 2018, Isscc, Rram, area: 10.0, sense: 1.0, re: 3.0, wlat: 21.0, we: 12.0, end: 5.0e9, ret: 10.0, mlc: 2),
    entry!("RRAM-IEDM18-B", 2018, Iedm, Rram, area: 8.0, sense: 0.85, re: 2.8, wlat: 16.0, we: 10.0, end: 1.0e10, ret: 10.0, mlc: 1),
    entry!("RRAM-ISSCC19-D", 2019, Isscc, Rram, area: 7.0, sense: 0.7, re: 2.6, wlat: 12.0, we: 8.0, end: 3.0e10, ret: 10.0, mlc: 1),
    entry!("RRAM-VLSI19-B", 2019, Vlsi, Rram, area: 6.0, sense: 0.6, re: 2.4, wlat: 9.0, we: 6.8, end: 6.0e10, ret: 10.0, mlc: 2),
    entry!("RRAM-IEDM19-A", 2019, Iedm, Rram, area: 5.0, sense: 0.5, re: 2.2, wlat: 7.0, we: 5.8, end: 8.0e10, ret: 10.0, mlc: 1),
    entry!("RRAM-ISSCC20-C", 2020, Isscc, Rram, area: 4.0, sense: 0.4, re: 2.0, wlat: 5.0, we: 5.0, end: 1.0e11, ret: 10.0, mlc: 2),
];

/// Spin-orbit-torque MRAM demonstrations (extension technology; faster
/// writes than STT at the cost of read latency and cell area, per the
/// paper's background discussion).
const SOT: &[SurveyEntry] = &[
    entry!("SOT-IEDM17-A", 2017, Iedm, SotRam, area: 60.0, sense: 2.5, re: 4.5, wlat: 2.0, we: 5.0, end: 1.0e12, ret: 10.0, mlc: 1),
    entry!("SOT-VLSI18-A", 2018, Vlsi, SotRam, area: 48.0, sense: 2.0, re: 3.9, wlat: 1.5, we: 3.8, end: 5.0e12, ret: 10.0, mlc: 1),
    entry!("SOT-ISSCC19-A", 2019, Isscc, SotRam, area: 36.0, sense: 1.5, re: 3.3, wlat: 1.0, we: 2.6, end: 1.0e13, ret: 10.0, mlc: 1),
    entry!("SOT-IEDM19-B", 2019, Iedm, SotRam, area: 28.0, sense: 1.1, re: 2.9, wlat: 0.7, we: 1.9, end: 1.0e14, ret: 10.0, mlc: 1),
    entry!("SOT-VLSI20-A", 2020, Vlsi, SotRam, area: 20.0, sense: 0.8, re: 2.5, wlat: 0.45, we: 1.3, end: 5.0e14, ret: 10.0, mlc: 1),
    entry!("SOT-ISSCC20-B", 2020, Isscc, SotRam, area: 15.0, sense: 0.5, re: 2.2, wlat: 0.15, we: 1.0, end: 1.0e15, ret: 10.0, mlc: 1),
];

/// Returns the surveyed cell demonstrations for a technology, or an empty
/// slice for technologies that are modelled analytically rather than from
/// the survey (SRAM and the eDRAMs).
///
/// # Examples
///
/// ```
/// use coldtall_cell::{survey_entries, MemoryTechnology};
///
/// let pcm = survey_entries(MemoryTechnology::Pcm);
/// assert!(pcm.len() >= 10);
/// assert!(survey_entries(MemoryTechnology::Sram).is_empty());
/// ```
#[must_use]
pub fn survey_entries(technology: MemoryTechnology) -> &'static [SurveyEntry] {
    match technology {
        MemoryTechnology::Pcm => PCM,
        MemoryTechnology::SttRam => STT,
        MemoryTechnology::Rram => RRAM,
        MemoryTechnology::SotRam => SOT,
        MemoryTechnology::Sram | MemoryTechnology::Edram3T | MemoryTechnology::Edram1T1C => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_nvm() -> impl Iterator<Item = &'static SurveyEntry> {
        MemoryTechnology::ENVM_SET
            .into_iter()
            .chain([MemoryTechnology::SotRam])
            .flat_map(survey_entries)
    }

    #[test]
    fn entries_are_internally_consistent() {
        for e in all_nvm() {
            assert!(e.cell_area_f2 > 0.0, "{}: bad area", e.id);
            assert!(e.read_sense_ns > 0.0, "{}: bad sense", e.id);
            assert!(e.write_latency_ns > 0.0, "{}: bad write latency", e.id);
            // SOT-RAM trades read cost for cheap writes; every other eNVM
            // has the classic expensive-write asymmetry.
            if e.technology != MemoryTechnology::SotRam {
                assert!(
                    e.write_energy_pj > e.read_energy_pj,
                    "{}: eNVM writes cost more than reads",
                    e.id
                );
            }
            assert!(e.endurance_writes >= 1.0e6, "{}: bad endurance", e.id);
            assert!(
                (2016..=2020).contains(&e.year),
                "{}: year out of survey window",
                e.id
            );
            assert!(e.mlc_bits >= 1, "{}: bad MLC bits", e.id);
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<_> = all_nvm().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate survey ids");
    }

    #[test]
    fn technology_tags_match_their_table() {
        for t in [
            MemoryTechnology::Pcm,
            MemoryTechnology::SttRam,
            MemoryTechnology::Rram,
            MemoryTechnology::SotRam,
        ] {
            for e in survey_entries(t) {
                assert_eq!(e.technology, t, "{} mis-tagged", e.id);
            }
        }
    }

    #[test]
    fn stt_has_highest_endurance_floor() {
        let min_end = |t| {
            survey_entries(t)
                .iter()
                .map(|e| e.endurance_writes)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(min_end(MemoryTechnology::SttRam) >= 1.0e10);
        assert!(min_end(MemoryTechnology::Pcm) < 1.0e8);
        assert!(min_end(MemoryTechnology::Rram) < 1.0e8);
    }

    #[test]
    fn pcm_is_densest_and_stt_writes_fastest() {
        let min_area = |t: MemoryTechnology| {
            survey_entries(t)
                .iter()
                .map(|e| e.cell_area_f2)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(min_area(MemoryTechnology::Pcm) <= min_area(MemoryTechnology::SttRam));
        let min_wlat = |t: MemoryTechnology| {
            survey_entries(t)
                .iter()
                .map(|e| e.write_latency_ns)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(min_wlat(MemoryTechnology::SttRam) < min_wlat(MemoryTechnology::Pcm));
        assert!(min_wlat(MemoryTechnology::SttRam) < min_wlat(MemoryTechnology::Rram));
        // SOT improves on STT's write speed, as the paper's background notes.
        assert!(min_wlat(MemoryTechnology::SotRam) < min_wlat(MemoryTechnology::SttRam));
    }
}
