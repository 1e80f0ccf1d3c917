//! Pluggable array-characterization backends.
//!
//! The paper's toolflow (Fig. 2) dispatches each design point to one of
//! two interchangeable characterization engines: CryoMEM for
//! temperature-swept volatile memories and Destiny for 2D/3D eNVM and
//! stacked-SRAM arrays. This module is that fault line: a
//! [`CharacterizationBackend`] trait with a capability descriptor, the
//! two concrete backends ([`CryoMemBackend`], [`DestinyBackend`]), and
//! a [`BackendRegistry`] that resolves every [`MemoryConfig`] to
//! *exactly one* backend — never a silent pick.
//!
//! Backends are allowed to overlap. When several claim a point,
//! resolution applies two rules in order:
//!
//! 1. **Specificity** — a claimant whose [`BackendCapabilities`]
//!    strictly contain another claimant's yields to the more specific
//!    backend (the generalist defers to the specialist).
//! 2. **Priority** — among the surviving claimants, the unique highest
//!    registration priority wins.
//!
//! Zero claimants is [`Error::NoBackend`]; a priority tie among the
//! survivors is [`Error::BackendConflict`], naming *every* claimant so
//! the ambiguity is auditable. The default registry registers CryoMEM
//! above Destiny: both claim single-die SRAM (neither's capabilities
//! contain the other's), and priority routes that overlap to CryoMEM —
//! exactly the partition the old exclusive registry enforced, point
//! for point. CryoMEM covers single-die volatile memories across the
//! legal 60-400 K span (the paper sweeps 77-400 K; the device models
//! extrapolate to the tool's lower legal bound); Destiny covers every
//! non-volatile technology plus stacked (multi-die) SRAM.

#![deny(missing_docs)]

use core::fmt;
use std::sync::Arc;

use coldtall_array::{ArrayCharacterization, ArraySpec, Objective, OrgGeometry};
use coldtall_cell::MemoryTechnology;
use coldtall_tech::ProcessNode;
use coldtall_units::Kelvin;

use crate::config::MemoryConfig;
use crate::error::Error;
use crate::parcache::GeometryCache;
use crate::plan::DesignPointKey;

/// Lowest operating temperature either default backend accepts — the
/// CLI's legal lower bound, below the paper's 77 K sweep floor.
const MIN_TEMPERATURE_K: f64 = 60.0;

/// Highest operating temperature either default backend accepts.
const MAX_TEMPERATURE_K: f64 = 400.0;

/// What a backend can characterize: the technologies, the operating
/// temperature span, and the die counts it models.
///
/// [`BackendCapabilities::supports`] is the default admission check;
/// backends with constraints the descriptor cannot express
/// additionally override [`CharacterizationBackend::supports`]. The
/// descriptor also drives the resolution policy's specificity rule
/// ([`BackendCapabilities::strictly_contains`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BackendCapabilities {
    technologies: Vec<MemoryTechnology>,
    min_temperature: Kelvin,
    max_temperature: Kelvin,
    die_counts: Vec<u8>,
}

impl BackendCapabilities {
    /// Builds a descriptor from the supported technologies, the
    /// inclusive temperature span, and the supported die counts.
    #[must_use]
    pub fn new(
        technologies: Vec<MemoryTechnology>,
        min_temperature: Kelvin,
        max_temperature: Kelvin,
        die_counts: Vec<u8>,
    ) -> Self {
        Self {
            technologies,
            min_temperature,
            max_temperature,
            die_counts,
        }
    }

    /// Technologies the backend models.
    #[must_use]
    pub fn technologies(&self) -> &[MemoryTechnology] {
        &self.technologies
    }

    /// Lowest supported operating temperature (inclusive).
    #[must_use]
    pub fn min_temperature(&self) -> Kelvin {
        self.min_temperature
    }

    /// Highest supported operating temperature (inclusive).
    #[must_use]
    pub fn max_temperature(&self) -> Kelvin {
        self.max_temperature
    }

    /// Die counts the backend models.
    #[must_use]
    pub fn die_counts(&self) -> &[u8] {
        &self.die_counts
    }

    /// Whether the descriptor admits `config` on all three axes.
    #[must_use]
    pub fn supports(&self, config: &MemoryConfig) -> bool {
        self.technologies.contains(&config.technology())
            && self.die_counts.contains(&config.dies())
            && config.temperature() >= self.min_temperature
            && config.temperature() <= self.max_temperature
    }

    /// Whether `self` admits every point `other` admits: a superset on
    /// all three axes (technologies, temperature span, die counts).
    #[must_use]
    pub fn contains(&self, other: &Self) -> bool {
        other
            .technologies
            .iter()
            .all(|t| self.technologies.contains(t))
            && other.die_counts.iter().all(|d| self.die_counts.contains(d))
            && self.min_temperature <= other.min_temperature
            && self.max_temperature >= other.max_temperature
    }

    /// Strict containment: `self` admits everything `other` does, and
    /// `other` does not admit everything `self` does. This is the
    /// specificity relation of the resolution policy — the strictly
    /// containing (more general) backend yields to the contained (more
    /// specific) one.
    #[must_use]
    pub fn strictly_contains(&self, other: &Self) -> bool {
        self.contains(other) && !other.contains(self)
    }
}

/// One array-characterization engine.
///
/// A backend owns the lowering of a [`MemoryConfig`] to an
/// [`ArraySpec`] and its characterization. All dispatch goes through a
/// [`BackendRegistry`] — nothing outside this module calls
/// `to_spec().characterize()` directly — so swapping or adding an
/// engine (a measured-silicon table, an external simulator binding)
/// touches exactly one seam.
pub trait CharacterizationBackend: Send + Sync + fmt::Debug {
    /// Stable machine-readable name (`cryomem`, `destiny`), used for
    /// CLI selection and per-backend metrics.
    fn name(&self) -> &'static str;

    /// The backend's capability descriptor.
    fn capabilities(&self) -> BackendCapabilities;

    /// Whether this backend claims `config`. Defaults to the
    /// descriptor's three-axis check; override to carve out regions
    /// the descriptor cannot express.
    fn supports(&self, config: &MemoryConfig) -> bool {
        self.capabilities().supports(config)
    }

    /// Lowers the design point to an array specification (cell model,
    /// 16 MiB LLC geometry, stacking, temperature policy). Exposed so
    /// callers that re-shape the array before characterizing — the
    /// hybrid-LLC partitioner overrides capacity — still route through
    /// the backend.
    fn lower(&self, config: &MemoryConfig, node: &ProcessNode) -> ArraySpec {
        config.to_spec(node)
    }

    /// Characterizes the design point's array.
    fn characterize(
        &self,
        config: &MemoryConfig,
        node: &ProcessNode,
        objective: Objective,
    ) -> ArrayCharacterization {
        self.lower(config, node).characterize(objective)
    }

    /// Characterizes a batch of design points sharing one
    /// temperature-stripped geometry key (same technology, tentpole
    /// where the cell model reads it, and die count — the points
    /// differ only in operating temperature), returning one result per
    /// config in order.
    ///
    /// The default implementation loops
    /// [`CharacterizationBackend::characterize`] and never touches the
    /// geometry cache, so custom backends are correct with no extra
    /// work. The two default backends override it with the two-phase
    /// kernel: the organization geometry is solved once per
    /// `geometry_key` (memoized in `geometries`, counted as
    /// `geometry.solves`) and the cheap temperature pass fans out per
    /// point. Overrides must stay **bit-identical** to the per-point
    /// path — the golden suite and `tests/batch.rs` pin this.
    fn characterize_batch(
        &self,
        geometry_key: &DesignPointKey,
        configs: &[MemoryConfig],
        node: &ProcessNode,
        objective: Objective,
        geometries: &GeometryCache,
    ) -> Vec<ArrayCharacterization> {
        let _ = (geometry_key, geometries);
        configs
            .iter()
            .map(|config| self.characterize(config, node, objective))
            .collect()
    }
}

/// The shared two-phase batch kernel of the default backends: one
/// geometry solve per key ([`OrgGeometry::solve`] on the batch's
/// temperature-free base spec, memoized in `geometries`), then the
/// whole temperature stripe scored in **one**
/// [`OrgGeometry::characterize_temps`] call over the geometry's SoA
/// candidate columns — the per-temperature device-parameter derivation
/// (Matula resistivity, subthreshold leakage, mobility) is hoisted out
/// of the per-candidate loop inside the kernel, so a batch of N
/// temperatures costs N device derivations plus N column scans instead
/// of N full searches.
///
/// Bit-identity with the per-point path holds because both default
/// backends lower every config through the same base spec
/// ([`MemoryConfig::to_base_spec`]) before applying
/// `at_temperature_cryo` — exactly the decomposition
/// [`OrgGeometry::characterize_temps`] replays per stripe entry, over
/// the same column scan [`ArraySpec::characterize`] runs.
fn two_phase_batch(
    geometry_key: &DesignPointKey,
    configs: &[MemoryConfig],
    node: &ProcessNode,
    objective: Objective,
    geometries: &GeometryCache,
) -> Vec<ArrayCharacterization> {
    let Some(first) = configs.first() else {
        return Vec::new();
    };
    let geometry =
        geometries.get_or_solve(geometry_key, || OrgGeometry::solve(&first.to_base_spec(node)));
    let temps: Vec<Kelvin> = configs.iter().map(MemoryConfig::temperature).collect();
    geometry.characterize_temps(&temps, objective)
}

/// The CryoMEM-equivalent backend: single-die volatile memories
/// (SRAM and the eDRAMs) swept across operating temperature. It keeps
/// the trait's default lowering, [`MemoryConfig::to_spec`], which
/// applies the cryogenic voltage-scaling policy
/// ([`ArraySpec::at_temperature_cryo`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CryoMemBackend;

impl CharacterizationBackend for CryoMemBackend {
    fn name(&self) -> &'static str {
        "cryomem"
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities::new(
            vec![
                MemoryTechnology::Sram,
                MemoryTechnology::Edram3T,
                MemoryTechnology::Edram1T1C,
            ],
            Kelvin::new(MIN_TEMPERATURE_K),
            Kelvin::new(MAX_TEMPERATURE_K),
            vec![1],
        )
    }

    fn characterize_batch(
        &self,
        geometry_key: &DesignPointKey,
        configs: &[MemoryConfig],
        node: &ProcessNode,
        objective: Objective,
        geometries: &GeometryCache,
    ) -> Vec<ArrayCharacterization> {
        // The temperature sweeps this backend serves are exactly the
        // workload the two-phase kernel amortizes: one geometry solve,
        // then rho(T)/leakage/mobility re-evaluation per temperature.
        two_phase_batch(geometry_key, configs, node, objective, geometries)
    }
}

/// The Destiny-equivalent backend: 2D and 3D (multi-die) eNVM arrays
/// plus stacked-SRAM organizations, lowered through the array engine's
/// stacking model.
#[derive(Debug, Clone, Copy, Default)]
pub struct DestinyBackend;

impl CharacterizationBackend for DestinyBackend {
    fn name(&self) -> &'static str {
        "destiny"
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities::new(
            vec![
                MemoryTechnology::Sram,
                MemoryTechnology::Pcm,
                MemoryTechnology::SttRam,
                MemoryTechnology::Rram,
                MemoryTechnology::SotRam,
            ],
            Kelvin::new(MIN_TEMPERATURE_K),
            Kelvin::new(MAX_TEMPERATURE_K),
            MemoryConfig::VALID_DIES.to_vec(),
        )
    }

    fn characterize_batch(
        &self,
        geometry_key: &DesignPointKey,
        configs: &[MemoryConfig],
        node: &ProcessNode,
        objective: Objective,
        geometries: &GeometryCache,
    ) -> Vec<ArrayCharacterization> {
        two_phase_batch(geometry_key, configs, node, objective, geometries)
    }
}

/// Maps every design point to exactly one registered backend.
///
/// # Examples
///
/// ```
/// use coldtall_core::{BackendRegistry, MemoryConfig};
///
/// let registry = BackendRegistry::with_defaults();
/// assert_eq!(registry.resolve(&MemoryConfig::sram_77k()).unwrap().name(), "cryomem");
/// let stacked = MemoryConfig::envm_3d(
///     coldtall_cell::MemoryTechnology::Pcm,
///     coldtall_cell::Tentpole::Optimistic,
///     8,
/// );
/// assert_eq!(registry.resolve(&stacked).unwrap().name(), "destiny");
/// ```
#[derive(Debug, Clone, Default)]
pub struct BackendRegistry {
    backends: Vec<Arc<dyn CharacterizationBackend>>,
    priorities: Vec<i32>,
}

impl BackendRegistry {
    /// The priority [`BackendRegistry::register`] assigns when none is
    /// given explicitly.
    pub const DEFAULT_PRIORITY: i32 = 0;

    /// The priority [`BackendRegistry::with_defaults`] gives CryoMEM,
    /// above [`DestinyBackend`]'s [`Self::DEFAULT_PRIORITY`]: both
    /// default backends claim single-die SRAM, and priority routes the
    /// overlap to the cryo engine — preserving the historical
    /// partition.
    pub const CRYOMEM_PRIORITY: i32 = 10;

    /// An empty registry. Resolution against it always fails with
    /// [`Error::NoBackend`]; register backends first.
    #[must_use]
    pub fn new() -> Self {
        Self {
            backends: Vec::new(),
            priorities: Vec::new(),
        }
    }

    /// The paper's two engines: [`CryoMemBackend`] (at
    /// [`Self::CRYOMEM_PRIORITY`]) and [`DestinyBackend`] (at
    /// [`Self::DEFAULT_PRIORITY`]).
    #[must_use]
    pub fn with_defaults() -> Self {
        let mut registry = Self::new();
        registry.register_with_priority(Arc::new(CryoMemBackend), Self::CRYOMEM_PRIORITY);
        registry.register(Arc::new(DestinyBackend));
        registry
    }

    /// Registers a backend at [`Self::DEFAULT_PRIORITY`]. Registration
    /// order never decides resolution — overlap is settled by the
    /// specificity-then-priority policy of
    /// [`BackendRegistry::resolve`], and a genuine tie is reported as
    /// [`Error::BackendConflict`], never broken silently.
    pub fn register(&mut self, backend: Arc<dyn CharacterizationBackend>) {
        self.register_with_priority(backend, Self::DEFAULT_PRIORITY);
    }

    /// Registers a backend at an explicit resolution priority. Higher
    /// wins among claimants that specificity does not separate.
    pub fn register_with_priority(
        &mut self,
        backend: Arc<dyn CharacterizationBackend>,
        priority: i32,
    ) {
        self.backends.push(backend);
        self.priorities.push(priority);
    }

    /// The resolution priority of the named backend, if registered.
    #[must_use]
    pub fn priority(&self, name: &str) -> Option<i32> {
        self.backends
            .iter()
            .position(|b| b.name() == name)
            .map(|i| self.priorities[i])
    }

    /// The registered backends, in registration order.
    #[must_use]
    pub fn backends(&self) -> &[Arc<dyn CharacterizationBackend>] {
        &self.backends
    }

    /// Looks a backend up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Arc<dyn CharacterizationBackend>> {
        self.backends.iter().find(|b| b.name() == name)
    }

    /// Resolves `config` to exactly one backend.
    ///
    /// When several backends claim the point, specificity applies
    /// first — a claimant whose [`BackendCapabilities`] strictly
    /// contain another claimant's yields to the more specific one —
    /// then the unique highest-priority survivor wins.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoBackend`] if no registered backend claims the
    /// configuration, or [`Error::BackendConflict`] naming every
    /// claimant if specificity and priority leave the overlap
    /// ambiguous.
    pub fn resolve(&self, config: &MemoryConfig) -> Result<&Arc<dyn CharacterizationBackend>, Error> {
        self.resolve_index(config).map(|i| &self.backends[i])
    }

    /// [`BackendRegistry::resolve`], returning the registration index
    /// (used by the explorer to address per-backend telemetry).
    pub(crate) fn resolve_index(&self, config: &MemoryConfig) -> Result<usize, Error> {
        let claimants: Vec<usize> = self
            .backends
            .iter()
            .enumerate()
            .filter(|(_, b)| b.supports(config))
            .map(|(i, _)| i)
            .collect();
        match claimants.as_slice() {
            [] => Err(Error::NoBackend {
                config: config.label(),
            }),
            [only] => Ok(*only),
            _ => {
                // Specificity: drop every claimant whose capabilities
                // strictly contain another claimant's. Strict
                // containment is a strict partial order, so at least
                // one (minimal) claimant always survives.
                let survivors: Vec<usize> = claimants
                    .iter()
                    .copied()
                    .filter(|&i| {
                        !claimants.iter().any(|&j| {
                            j != i
                                && self.backends[i]
                                    .capabilities()
                                    .strictly_contains(&self.backends[j].capabilities())
                        })
                    })
                    .collect();
                let best = survivors
                    .iter()
                    .copied()
                    .map(|i| self.priorities[i])
                    .max()
                    .expect("specificity keeps at least one claimant");
                let mut winners = survivors.iter().filter(|&&i| self.priorities[i] == best);
                match (winners.next(), winners.next()) {
                    (Some(&index), None) => Ok(index),
                    _ => Err(Error::BackendConflict {
                        config: config.label(),
                        backends: claimants
                            .iter()
                            .map(|&i| self.backends[i].name().to_string())
                            .collect(),
                    }),
                }
            }
        }
    }
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
                "destiny"
            } else {
                "cryomem"
            };
            assert_eq!(backend.name(), expected, "{}", config.label());
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
        let batched =
            CryoMemBackend.characterize_batch(&key, &cryo_configs, &node, objective, &geometries);
        assert_eq!(batched.len(), cryo_configs.len());
        for (config, got) in cryo_configs.iter().zip(&batched) {
            assert_eq!(
                got,
                &CryoMemBackend.characterize(config, &node, objective),
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
        let batched =
            DestinyBackend.characterize_batch(&key, &stacked, &node, objective, &geometries);
        for (config, got) in stacked.iter().zip(&batched) {
            assert_eq!(
                got,
                &DestinyBackend.characterize(config, &node, objective),
                "{}",
                config.label()
            );
        }
        assert_eq!(geometries.solves(), 2, "one more solve for the new key");
    }

    #[test]
    fn capability_descriptor_checks_all_three_axes() {
        let caps = CryoMemBackend.capabilities();
        assert!(caps.supports(&MemoryConfig::sram_77k()));
        // Temperature out of span.
        let hot = MemoryConfig::volatile_2d(MemoryTechnology::Sram, Kelvin::new(500.0));
        assert!(!caps.supports(&hot));
        // Technology not modeled.
        assert!(!caps.supports(&MemoryConfig::envm_3d(
            MemoryTechnology::Pcm,
            Tentpole::Optimistic,
            1
        )));
        // Die count not modeled.
        assert!(!caps.supports(&MemoryConfig::envm_3d(
            MemoryTechnology::Sram,
            Tentpole::Optimistic,
            2
        )));
    }

    #[test]
    fn empty_registry_and_overlap_are_typed_errors() {
        let config = MemoryConfig::sram_350k();
        let err = BackendRegistry::new().resolve(&config).unwrap_err();
        assert!(matches!(err, Error::NoBackend { .. }), "{err}");

        // Two identical backends at the same priority: specificity
        // cannot separate equal capabilities and priority ties, so the
        // overlap stays a typed error naming every claimant.
        let mut overlapping = BackendRegistry::new();
        overlapping.register(Arc::new(CryoMemBackend));
        overlapping.register(Arc::new(CryoMemBackend));
        let err = overlapping.resolve(&config).unwrap_err();
        match err {
            Error::BackendConflict { backends, .. } => {
                assert_eq!(backends, ["cryomem", "cryomem"]);
            }
            other => panic!("expected a conflict, got {other}"),
        }
    }

    #[test]
    fn capability_containment_is_a_strict_partial_order() {
        let cryo = CryoMemBackend.capabilities();
        let destiny = DestinyBackend.capabilities();
        // The default backends overlap (single-die SRAM) but neither
        // contains the other: CryoMEM models the eDRAMs, Destiny the
        // eNVMs.
        assert!(!cryo.strictly_contains(&destiny));
        assert!(!destiny.strictly_contains(&cryo));
        // Equal capabilities contain each other, never strictly.
        assert!(cryo.contains(&cryo));
        assert!(!cryo.strictly_contains(&cryo.clone()));
        // A narrowed descriptor is strictly contained.
        let narrow = BackendCapabilities::new(
            vec![MemoryTechnology::Sram],
            Kelvin::new(70.0),
            Kelvin::new(300.0),
            vec![1],
        );
        assert!(cryo.strictly_contains(&narrow));
        assert!(!narrow.strictly_contains(&cryo));
    }

    #[test]
    fn default_overlap_resolves_to_cryomem_by_priority() {
        // Both default backends claim single-die SRAM; the registry
        // routes it to CryoMEM by priority, preserving the historical
        // partition.
        let registry = BackendRegistry::with_defaults();
        let config = MemoryConfig::sram_77k();
        assert!(CryoMemBackend.supports(&config));
        assert!(DestinyBackend.supports(&config));
        assert_eq!(registry.resolve(&config).unwrap().name(), "cryomem");
        assert_eq!(
            registry.priority("cryomem"),
            Some(BackendRegistry::CRYOMEM_PRIORITY)
        );
        assert_eq!(
            registry.priority("destiny"),
            Some(BackendRegistry::DEFAULT_PRIORITY)
        );
        assert_eq!(registry.priority("nvsim"), None);
    }

    #[test]
    fn lookup_by_name() {
        let registry = BackendRegistry::with_defaults();
        assert_eq!(registry.get("destiny").unwrap().name(), "destiny");
        assert!(registry.get("nvsim").is_none());
        assert_eq!(registry.backends().len(), 2);
    }
}
