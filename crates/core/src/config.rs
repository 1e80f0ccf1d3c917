//! Named design points of the exploration.

use core::fmt;

use coldtall_array::ArraySpec;
use coldtall_cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall_cryo::CoolingSystem;
use coldtall_tech::ProcessNode;
use coldtall_units::Kelvin;

/// One point of the design space: a technology at a tentpole, a die
/// count, an operating temperature, and (for cryogenic points) a cooling
/// tier.
///
/// # Examples
///
/// ```
/// use coldtall_core::MemoryConfig;
///
/// let cryo = MemoryConfig::edram_77k();
/// assert_eq!(cryo.label(), "77K 3T-eDRAM");
/// let pcm = MemoryConfig::envm_3d(coldtall_cell::MemoryTechnology::Pcm,
///                                 coldtall_cell::Tentpole::Optimistic, 8);
/// assert_eq!(pcm.label(), "8-die PCM (optimistic)");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryConfig {
    technology: MemoryTechnology,
    tentpole: Tentpole,
    dies: u8,
    temperature: Kelvin,
    cooling: CoolingSystem,
}

impl MemoryConfig {
    /// The die counts the study stacks. The single source of truth for
    /// die-count validation: [`MemoryConfig::try_design_point`], the
    /// search region builder, and [`crate::Backend::Destiny`]'s die
    /// counts all read it.
    pub const VALID_DIES: [u8; 4] = [1, 2, 4, 8];

    /// Validates a die count against [`MemoryConfig::VALID_DIES`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidDieCount`] if `dies` is not 1, 2,
    /// 4, or 8.
    pub(crate) fn validate_dies(dies: u8) -> Result<(), crate::Error> {
        if Self::VALID_DIES.contains(&dies) {
            Ok(())
        } else {
            Err(crate::Error::InvalidDieCount { dies })
        }
    }

    /// The study baseline: 2D SRAM at 350 K.
    #[must_use]
    pub fn sram_350k() -> Self {
        Self::volatile_2d(MemoryTechnology::Sram, Kelvin::REFERENCE)
    }

    /// 2D SRAM at 77 K under the cryo policy.
    #[must_use]
    pub fn sram_77k() -> Self {
        Self::volatile_2d(MemoryTechnology::Sram, Kelvin::LN2)
    }

    /// 2D 3T-eDRAM at 350 K.
    #[must_use]
    pub fn edram_350k() -> Self {
        Self::volatile_2d(MemoryTechnology::Edram3T, Kelvin::REFERENCE)
    }

    /// 2D 3T-eDRAM at 77 K under the cryo policy.
    #[must_use]
    pub fn edram_77k() -> Self {
        Self::volatile_2d(MemoryTechnology::Edram3T, Kelvin::LN2)
    }

    /// A volatile (SRAM/eDRAM) 2D configuration at temperature `t`.
    #[must_use]
    pub fn volatile_2d(technology: MemoryTechnology, t: Kelvin) -> Self {
        Self {
            technology,
            tentpole: Tentpole::Optimistic,
            dies: 1,
            temperature: t,
            cooling: CoolingSystem::default(),
        }
    }

    /// An eNVM (or SRAM) configuration with `dies` stacked dies at 350 K.
    ///
    /// Precondition: `dies` is 1, 2, 4, or 8. Outside input goes
    /// through [`MemoryConfig::try_design_point`] instead.
    ///
    /// # Panics
    ///
    /// Panics with `the study stacks 1, 2, 4, or 8 dies, got {dies}`
    /// ([`crate::Error::InvalidDieCount`]'s message) otherwise.
    #[must_use]
    pub fn envm_3d(technology: MemoryTechnology, tentpole: Tentpole, dies: u8) -> Self {
        Self::validate_dies(dies).unwrap_or_else(|e| panic!("{e}"));
        Self {
            technology,
            tentpole,
            dies,
            temperature: Kelvin::REFERENCE,
            cooling: CoolingSystem::default(),
        }
    }

    /// Parses a technology name as the CLI and service frontends spell
    /// them: `sram`, `edram`/`3t-edram`, `pcm`, `stt`/`stt-ram`,
    /// `rram`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::UnknownTechnology`] for anything else.
    pub fn parse_technology(name: &str) -> Result<MemoryTechnology, crate::Error> {
        match name {
            "sram" => Ok(MemoryTechnology::Sram),
            "edram" | "3t-edram" => Ok(MemoryTechnology::Edram3T),
            "pcm" => Ok(MemoryTechnology::Pcm),
            "stt" | "stt-ram" => Ok(MemoryTechnology::SttRam),
            "rram" => Ok(MemoryTechnology::Rram),
            other => Err(crate::Error::UnknownTechnology {
                name: other.to_string(),
            }),
        }
    }

    /// Parses a tentpole name as the frontends spell them:
    /// `optimistic`/`opt` or `pessimistic`/`pess`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::UnknownTentpole`] for anything else.
    pub(crate) fn parse_tentpole(name: &str) -> Result<Tentpole, crate::Error> {
        match name {
            "optimistic" | "opt" => Ok(Tentpole::Optimistic),
            "pessimistic" | "pess" => Ok(Tentpole::Pessimistic),
            other => Err(crate::Error::UnknownTentpole {
                name: other.to_string(),
            }),
        }
    }

    /// Builds a design point from frontend-style raw fields — the one
    /// design-point parser, which both frontends reach through
    /// [`crate::DesignPoint::to_config`], so they accept the same
    /// space.
    ///
    /// It checks the names and the die count only. Whether a point is
    /// modeled is the dispatch rule's answer
    /// ([`crate::BackendRegistry::resolve`]), as it is for a search
    /// region's points: stacked SRAM resolves to Destiny at any
    /// temperature, and stacked 3T-eDRAM to no backend.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::UnknownTechnology`],
    /// [`crate::Error::UnknownTentpole`], or
    /// [`crate::Error::InvalidDieCount`].
    pub fn try_design_point(
        tech: &str,
        tentpole: &str,
        dies: u8,
        temperature: Kelvin,
    ) -> Result<Self, crate::Error> {
        let technology = Self::parse_technology(tech)?;
        let tentpole = Self::parse_tentpole(tentpole)?;
        Self::validate_dies(dies)?;
        if technology.is_nonvolatile() || dies != 1 {
            Ok(Self::envm_3d(technology, tentpole, dies).at_temperature(temperature))
        } else {
            Ok(Self::volatile_2d(technology, temperature))
        }
    }

    /// Replaces the operating temperature.
    #[must_use]
    pub fn at_temperature(mut self, t: Kelvin) -> Self {
        self.temperature = t;
        self
    }

    /// Replaces the cooling tier charged for cryogenic operation.
    #[must_use]
    pub fn with_cooling(mut self, cooling: CoolingSystem) -> Self {
        self.cooling = cooling;
        self
    }

    /// Technology of this design point.
    #[must_use]
    pub fn technology(&self) -> MemoryTechnology {
        self.technology
    }

    /// Tentpole of this design point (meaningful for eNVMs).
    #[must_use]
    pub fn tentpole(&self) -> Tentpole {
        self.tentpole
    }

    /// Die count.
    #[must_use]
    pub fn dies(&self) -> u8 {
        self.dies
    }

    /// Operating temperature.
    #[must_use]
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }

    /// Cooling tier.
    #[must_use]
    pub fn cooling(&self) -> CoolingSystem {
        self.cooling
    }

    /// Whether this point runs in the cryogenic regime.
    #[must_use]
    pub fn is_cryogenic(&self) -> bool {
        self.temperature.is_cryogenic()
    }

    /// Human-readable label matching the paper's figure legends, e.g.
    /// `"77K 3T-eDRAM"` or `"4-die STT-RAM (pessimistic)"`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut parts = String::new();
        if self.temperature != Kelvin::REFERENCE {
            parts.push_str(&format!("{:.0}K ", self.temperature.get()));
        }
        if self.dies > 1 {
            parts.push_str(&format!("{}-die ", self.dies));
        }
        parts.push_str(self.technology.name());
        if self.technology.is_nonvolatile() {
            parts.push_str(&format!(" ({})", self.tentpole));
        }
        parts
    }

    /// Lowers this design point to an array specification: the base
    /// spec ([`MemoryConfig::to_base_spec`]) under the cryogenic
    /// voltage-scaling policy at the point's temperature.
    ///
    /// The backends' two-phase kernel (one geometry solve on
    /// [`MemoryConfig::to_base_spec`], then a temperature stripe) is
    /// bit-identical to characterizing this spec. In production only
    /// the hybrid-LLC partitioner characterizes it directly, after
    /// resizing the array.
    #[must_use]
    pub fn to_spec(&self, node: &ProcessNode) -> ArraySpec {
        self.to_base_spec(node)
            .at_temperature_cryo(self.temperature)
    }

    /// The temperature-free half of [`MemoryConfig::to_spec`]: cell,
    /// 16 MiB LLC geometry, and stacking, at the spec's nominal
    /// operating point.
    ///
    /// The batched characterization path solves the organization
    /// geometry on this base spec — two configurations differing only
    /// in temperature lower to the same base, which is exactly the
    /// sharing [`crate::DesignPointKey::geometry_of`] keys.
    #[must_use]
    pub fn to_base_spec(&self, node: &ProcessNode) -> ArraySpec {
        let cell = CellModel::tentpole(self.technology, self.tentpole, node);
        let mut spec = ArraySpec::llc_16mib(cell, node);
        if self.dies > 1 {
            spec = spec.with_dies(self.dies);
        }
        spec
    }

    /// The study's full configuration set: cryogenic and room-temperature
    /// SRAM/3T-eDRAM, plus 2D/3D SRAM and eNVM tentpoles at 350 K.
    #[must_use]
    pub fn study_set() -> Vec<Self> {
        let mut set = vec![
            Self::sram_350k(),
            Self::sram_77k(),
            Self::edram_350k(),
            Self::edram_77k(),
        ];
        for dies in [2, 4, 8] {
            set.push(Self::envm_3d(
                MemoryTechnology::Sram,
                Tentpole::Optimistic,
                dies,
            ));
        }
        for tech in MemoryTechnology::ENVM_SET {
            for tentpole in Tentpole::BOTH {
                for dies in [1, 2, 4, 8] {
                    set.push(Self::envm_3d(tech, tentpole, dies));
                }
            }
        }
        set
    }

    /// The cryogenic-NVM study region: STT-RAM at both tentpoles,
    /// every die count, across the study temperature ladder (77-387 K,
    /// inside the backends' 60-400 K span). This is the design space
    /// the Δ(T) thermal-stability model (`coldtall-cell`) exercises:
    /// unlike the room-temperature [`MemoryConfig::study_set`], every
    /// point here carries an explicit operating temperature, so write
    /// energy and retention shift with Δ(T) = Δ_ref · (T_ref / T).
    #[must_use]
    pub fn cryo_stt_study_set() -> Vec<Self> {
        let mut set = Vec::new();
        for tentpole in Tentpole::BOTH {
            for dies in Self::VALID_DIES {
                for &t in coldtall_cryo::study_temperatures() {
                    set.push(
                        Self::envm_3d(MemoryTechnology::SttRam, tentpole, dies).at_temperature(t),
                    );
                }
            }
        }
        set
    }
}

impl fmt::Display for MemoryConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(MemoryConfig::sram_350k().label(), "SRAM");
        assert_eq!(MemoryConfig::sram_77k().label(), "77K SRAM");
        assert_eq!(MemoryConfig::edram_77k().label(), "77K 3T-eDRAM");
        let stt = MemoryConfig::envm_3d(MemoryTechnology::SttRam, Tentpole::Pessimistic, 4);
        assert_eq!(stt.label(), "4-die STT-RAM (pessimistic)");
    }

    #[test]
    fn study_set_size_and_membership() {
        let set = MemoryConfig::study_set();
        // 4 volatile points + 3 stacked SRAM + 3 techs x 2 tentpoles x 4 dies.
        assert_eq!(set.len(), 4 + 3 + 24);
        assert!(set.iter().any(|c| c.label() == "8-die PCM (optimistic)"));
        assert!(set.iter().any(|c| c.is_cryogenic()));
    }

    #[test]
    fn cryo_stt_study_set_covers_the_region() {
        let set = MemoryConfig::cryo_stt_study_set();
        // 2 tentpoles x 4 die counts x 8 study temperatures.
        assert_eq!(set.len(), 2 * 4 * 8);
        assert!(set
            .iter()
            .all(|c| c.technology() == MemoryTechnology::SttRam));
        assert!(set.iter().any(|c| c.is_cryogenic()));
        assert!(set.iter().any(|c| c.dies() == 8));
        // Every point is reachable through the frontend constructor.
        for config in &set {
            let tentpole = match config.tentpole() {
                Tentpole::Optimistic => "opt",
                Tentpole::Pessimistic => "pess",
            };
            let rebuilt = MemoryConfig::try_design_point(
                "stt-ram",
                tentpole,
                config.dies(),
                config.temperature(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", config.label()));
            assert_eq!(&rebuilt, config);
        }
    }

    #[test]
    fn to_spec_applies_cryo_policy() {
        let node = ProcessNode::ptm_22nm_hp();
        let spec = MemoryConfig::edram_77k().to_spec(&node);
        assert!(spec.op().vth_override().is_some());
        let warm = MemoryConfig::edram_350k().to_spec(&node);
        assert!(warm.op().vth_override().is_none());
    }

    #[test]
    #[should_panic(expected = "the study stacks 1, 2, 4, or 8 dies, got 3")]
    fn bad_die_count_rejected() {
        let _ = MemoryConfig::envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, 3);
    }

    #[test]
    fn try_design_point_covers_the_study_space() {
        // Every study configuration must be reachable through the
        // raw-field constructor the serve frontend uses.
        for config in MemoryConfig::study_set() {
            let tech = match config.technology() {
                MemoryTechnology::Sram => "sram",
                MemoryTechnology::Edram3T => "edram",
                MemoryTechnology::Pcm => "pcm",
                MemoryTechnology::SttRam => "stt",
                MemoryTechnology::Rram => "rram",
                other => panic!("study set grew an unexpected technology {other:?}"),
            };
            let tentpole = match config.tentpole() {
                Tentpole::Optimistic => "optimistic",
                Tentpole::Pessimistic => "pessimistic",
            };
            let rebuilt =
                MemoryConfig::try_design_point(tech, tentpole, config.dies(), config.temperature())
                    .unwrap_or_else(|e| panic!("{}: {e}", config.label()));
            assert_eq!(rebuilt, config);
        }
    }

    #[test]
    fn try_design_point_rejects_out_of_scope_combinations() {
        assert!(matches!(
            MemoryConfig::try_design_point("flash", "optimistic", 1, Kelvin::REFERENCE),
            Err(crate::Error::UnknownTechnology { .. })
        ));
        assert!(matches!(
            MemoryConfig::try_design_point("sram", "hopeful", 1, Kelvin::REFERENCE),
            Err(crate::Error::UnknownTentpole { name }) if name == "hopeful"
        ));
        // A die count outside the study set is typed on both branches,
        // volatile and not.
        for tech in ["pcm", "sram"] {
            for dies in [0, 3, 5, 7, 9, 255] {
                assert_eq!(
                    MemoryConfig::try_design_point(tech, "opt", dies, Kelvin::REFERENCE),
                    Err(crate::Error::InvalidDieCount { dies }),
                    "{tech} x {dies}"
                );
            }
        }
        // At the reference a volatile stack is the study's stacked-SRAM
        // point; off it, that point re-pinned, as a search region builds
        // it. Whether it is modeled is the dispatch rule's answer.
        let stacked = MemoryConfig::try_design_point("sram", "opt", 4, Kelvin::REFERENCE).unwrap();
        assert_eq!(
            stacked,
            MemoryConfig::envm_3d(MemoryTechnology::Sram, Tentpole::Optimistic, 4)
        );
        assert_eq!(
            MemoryConfig::try_design_point("sram", "opt", 4, Kelvin::LN2).unwrap(),
            stacked.at_temperature(Kelvin::LN2)
        );
    }

    #[test]
    fn technology_names_parse_like_the_cli() {
        assert_eq!(
            MemoryConfig::parse_technology("3t-edram").unwrap(),
            MemoryTechnology::Edram3T
        );
        assert_eq!(
            MemoryConfig::parse_technology("stt").unwrap(),
            MemoryTechnology::SttRam
        );
        assert!(matches!(
            MemoryConfig::parse_technology("flash").unwrap_err(),
            crate::Error::UnknownTechnology { name } if name == "flash"
        ));
    }
}
