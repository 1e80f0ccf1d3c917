//! The paper's two characterization engines and the one rule that
//! picks between them.
//!
//! The paper's toolflow (Fig. 2) dispatches each design point to one of
//! two characterization engines: CryoMEM for temperature-swept volatile
//! memories and Destiny for 2D/3D eNVM and stacked-SRAM arrays. This
//! module is that pair, closed: [`Backend`] names the two engines and
//! carries each one's capabilities (technologies, die counts,
//! temperature span) and priority as constant data, and both run the
//! same two-phase kernel.
//!
//! [`BackendRegistry::resolve`] is the one dispatch rule: the
//! highest-priority backend whose capabilities admit the point, else
//! [`Error::NoBackend`]. The capabilities overlap on single-die SRAM,
//! and CryoMEM's priority (10, over Destiny's 0) routes that overlap to
//! CryoMEM. CryoMEM covers single-die volatile memories across the
//! legal 60-400 K span (the paper sweeps 77-400 K; the device models
//! extrapolate to the tool's lower legal bound); Destiny covers every
//! non-volatile technology plus stacked (multi-die) SRAM.

#![deny(missing_docs)]

use core::fmt;
use core::ops::RangeInclusive;

use coldtall_array::{ArrayCharacterization, Objective, OrgGeometry};
use coldtall_cell::MemoryTechnology;
use coldtall_tech::ProcessNode;
use coldtall_units::Kelvin;

use crate::config::MemoryConfig;
use crate::error::Error;
use crate::parcache::GeometryCache;
use crate::plan::DesignPointKey;

/// The operating temperatures both backends model, in kelvin. The
/// lower bound is the CLI's legal floor, below the paper's 77 K sweep
/// floor. A design point's temperature and a search's `temps` selector
/// must fall inside it.
pub(crate) const TEMPERATURE_SPAN_K: RangeInclusive<f64> = 60.0..=400.0;

/// One of the paper's two array-characterization engines.
///
/// # Examples
///
/// ```
/// use coldtall_core::Backend;
///
/// assert_eq!(Backend::from_name("destiny"), Some(Backend::Destiny));
/// assert_eq!(Backend::from_name("nvsim"), None);
/// assert!(Backend::CryoMem.priority() > Backend::Destiny.priority());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// CryoMEM: single-die volatile memories (SRAM and the eDRAMs)
    /// swept across operating temperature, lowered with the cryogenic
    /// voltage-scaling policy
    /// ([`ArraySpec::at_temperature_cryo`](coldtall_array::ArraySpec::at_temperature_cryo)).
    CryoMem,
    /// Destiny: 2D and 3D (multi-die) eNVM arrays plus stacked-SRAM
    /// organizations, lowered through the array engine's stacking
    /// model.
    Destiny,
}

impl Backend {
    /// Both backends, in priority order.
    pub(crate) const ALL: [Self; 2] = [Self::CryoMem, Self::Destiny];

    /// Stable machine-readable name (`cryomem`, `destiny`), used for
    /// CLI selection, per-backend metrics and the run registry.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::CryoMem => "cryomem",
            Self::Destiny => "destiny",
        }
    }

    /// The backend named `name`, if this build has one.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|backend| backend.name() == name)
    }

    /// Technologies the backend models.
    #[must_use]
    pub const fn technologies(self) -> &'static [MemoryTechnology] {
        use MemoryTechnology::{Edram1T1C, Edram3T, Pcm, Rram, SotRam, Sram, SttRam};
        match self {
            Self::CryoMem => &[Sram, Edram3T, Edram1T1C],
            Self::Destiny => &[Sram, Pcm, SttRam, Rram, SotRam],
        }
    }

    /// Die counts the backend models.
    #[must_use]
    pub const fn die_counts(self) -> &'static [u8] {
        match self {
            Self::CryoMem => &[1],
            Self::Destiny => &MemoryConfig::VALID_DIES,
        }
    }

    /// The inclusive operating-temperature span, 60-400 K for both.
    #[must_use]
    pub fn temperature_span(self) -> (Kelvin, Kelvin) {
        (
            Kelvin::new(*TEMPERATURE_SPAN_K.start()),
            Kelvin::new(*TEMPERATURE_SPAN_K.end()),
        )
    }

    /// Resolution priority: of the backends that admit a point, the
    /// higher one serves it.
    #[must_use]
    pub const fn priority(self) -> i32 {
        match self {
            Self::CryoMem => 10,
            Self::Destiny => 0,
        }
    }

    /// Whether the backend's capabilities admit `config` on all three
    /// axes: technology, die count and temperature.
    pub(crate) fn supports(self, config: &MemoryConfig) -> bool {
        let (min, max) = self.temperature_span();
        self.technologies().contains(&config.technology())
            && self.die_counts().contains(&config.dies())
            && config.temperature() >= min
            && config.temperature() <= max
    }

    /// Position in [`Backend::ALL`], which indexes per-backend state.
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The dispatch rule that maps every design point to one [`Backend`].
///
/// # Examples
///
/// ```
/// use coldtall_core::{Backend, BackendRegistry, MemoryConfig};
///
/// let registry = BackendRegistry::with_defaults();
/// assert_eq!(registry.resolve(&MemoryConfig::sram_77k()).unwrap(), Backend::CryoMem);
/// let stacked = MemoryConfig::envm_3d(
///     coldtall_cell::MemoryTechnology::Pcm,
///     coldtall_cell::Tentpole::Optimistic,
///     8,
/// );
/// assert_eq!(registry.resolve(&stacked).unwrap(), Backend::Destiny);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendRegistry;

impl BackendRegistry {
    /// The router over the paper's two engines.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self
    }

    /// The backends, in priority order.
    #[must_use]
    pub fn backends(&self) -> &'static [Backend] {
        &Backend::ALL
    }

    /// Resolves `config` to the highest-priority backend whose
    /// capabilities admit it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoBackend`] if neither backend admits the
    /// configuration.
    pub fn resolve(&self, config: &MemoryConfig) -> Result<Backend, Error> {
        Backend::ALL
            .into_iter()
            .filter(|backend| backend.supports(config))
            .max_by_key(|backend| backend.priority())
            .ok_or_else(|| Error::NoBackend {
                config: config.label(),
            })
    }
}

/// The two-phase kernel both backends run: characterizes a batch of
/// design points sharing one temperature-stripped geometry key (same
/// technology, tentpole where the cell model reads it, and die count —
/// the points differ only in operating temperature), returning one
/// result per config in order. A one-cell query is a batch of one.
///
/// One geometry solve per key ([`OrgGeometry::solve`] on the batch's
/// temperature-free base spec, memoized in `geometries` and counted as
/// `geometry.solves`), then the whole temperature stripe scored in
/// **one** [`OrgGeometry::characterize_temps`] call over the geometry's
/// candidate columns — N temperatures cost one solve plus N column
/// scans instead of N full searches. Every config lowers through the
/// same base spec ([`MemoryConfig::to_base_spec`]) before
/// `at_temperature_cryo`, exactly the decomposition `characterize_temps`
/// replays, so each result is bit-identical to
/// `config.to_spec(node).characterize(objective)` — the golden suite and
/// `tests/batch.rs` pin this.
///
/// # Panics
///
/// Panics if the stripe does not answer one result per config.
pub(crate) fn characterize_batch(
    geometry_key: &DesignPointKey,
    configs: &[MemoryConfig],
    node: &ProcessNode,
    objective: Objective,
    geometries: &GeometryCache,
) -> Vec<ArrayCharacterization> {
    let Some(first) = configs.first() else {
        return Vec::new();
    };
    let geometry = geometries.get_or_solve(geometry_key, || {
        OrgGeometry::solve(&first.to_base_spec(node))
    });
    let temps: Vec<Kelvin> = configs.iter().map(MemoryConfig::temperature).collect();
    let results = geometry.characterize_temps(&temps, objective);
    assert_eq!(
        results.len(),
        configs.len(),
        "the kernel returned {} results for a batch of {}",
        results.len(),
        configs.len()
    );
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_cell::Tentpole;

    #[test]
    fn default_backends_partition_the_study_set() {
        let registry = BackendRegistry::with_defaults();
        for config in MemoryConfig::study_set() {
            let backend = registry
                .resolve(&config)
                .unwrap_or_else(|e| panic!("{}: {e}", config.label()));
            let expected = if config.technology().is_nonvolatile() || config.dies() > 1 {
                Backend::Destiny
            } else {
                Backend::CryoMem
            };
            assert_eq!(backend, expected, "{}", config.label());
        }
    }

    #[test]
    fn batched_characterization_is_bit_identical_per_backend() {
        let node = ProcessNode::ptm_22nm_hp();
        let objective = Objective::EnergyDelayProduct;
        let geometries = GeometryCache::unregistered();

        // CryoMEM: one volatile array swept over temperature shares a
        // single geometry solve.
        let cryo_configs: Vec<MemoryConfig> = [77.0, 177.0, 350.0]
            .map(Kelvin::new)
            .map(|t| MemoryConfig::volatile_2d(MemoryTechnology::Edram3T, t))
            .to_vec();
        let key = DesignPointKey::geometry_of(&cryo_configs[0]);
        let batched = characterize_batch(&key, &cryo_configs, &node, objective, &geometries);
        assert_eq!(batched.len(), cryo_configs.len());
        for (config, got) in cryo_configs.iter().zip(&batched) {
            assert_eq!(
                got,
                &config.to_spec(&node).characterize(objective),
                "{}",
                config.label()
            );
        }
        assert_eq!(geometries.solves(), 1);

        // Destiny: a stacked eNVM point at two temperatures.
        let stacked: Vec<MemoryConfig> = [300.0, 350.0]
            .map(Kelvin::new)
            .map(|t| {
                MemoryConfig::envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, 4)
                    .at_temperature(t)
            })
            .to_vec();
        let key = DesignPointKey::geometry_of(&stacked[0]);
        let batched = characterize_batch(&key, &stacked, &node, objective, &geometries);
        for (config, got) in stacked.iter().zip(&batched) {
            assert_eq!(
                got,
                &config.to_spec(&node).characterize(objective),
                "{}",
                config.label()
            );
        }
        assert_eq!(geometries.solves(), 2, "one more solve for the new key");
    }

    #[test]
    fn capabilities_check_all_three_axes() {
        let cryo = Backend::CryoMem;
        assert!(cryo.supports(&MemoryConfig::sram_77k()));
        // Temperature out of span.
        let hot = MemoryConfig::volatile_2d(MemoryTechnology::Sram, Kelvin::new(500.0));
        assert!(!cryo.supports(&hot));
        // Technology not modeled.
        assert!(!cryo.supports(&MemoryConfig::envm_3d(
            MemoryTechnology::Pcm,
            Tentpole::Optimistic,
            1
        )));
        // Die count not modeled.
        assert!(!cryo.supports(&MemoryConfig::envm_3d(
            MemoryTechnology::Sram,
            Tentpole::Optimistic,
            2
        )));
        // Neither backend admits the hot point: a typed error.
        let err = BackendRegistry::with_defaults().resolve(&hot).unwrap_err();
        assert!(matches!(err, Error::NoBackend { .. }), "{err}");
    }

    #[test]
    fn default_overlap_resolves_to_cryomem_by_priority() {
        // Both backends admit single-die SRAM; priority routes it to
        // CryoMEM.
        let config = MemoryConfig::sram_77k();
        assert!(Backend::CryoMem.supports(&config));
        assert!(Backend::Destiny.supports(&config));
        assert_eq!(
            BackendRegistry::with_defaults().resolve(&config).unwrap(),
            Backend::CryoMem
        );
        assert_eq!(Backend::CryoMem.priority(), 10);
        assert_eq!(Backend::Destiny.priority(), 0);
    }

    #[test]
    fn names_round_trip_and_index_the_priority_order() {
        let registry = BackendRegistry::with_defaults();
        assert_eq!(registry.backends(), Backend::ALL);
        for (index, backend) in Backend::ALL.into_iter().enumerate() {
            assert_eq!(Backend::from_name(backend.name()), Some(backend));
            assert_eq!(backend.to_string(), backend.name());
            assert_eq!(backend.index(), index);
        }
        assert_eq!(Backend::from_name("nvsim"), None);
    }
}
