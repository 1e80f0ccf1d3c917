//! The plan/execute sweep pipeline: canonical design-point keys,
//! deduplicated characterization job lists, and compiled sweep plans.
//!
//! A sweep used to be one monolithic call that interleaved planning
//! (which configurations, which benchmarks), deduplication, caching,
//! and dispatch. This module splits the *planning* half out: a
//! [`SweepPlan`] names the work, [`SweepPlan::compile`] validates it
//! against a [`crate::BackendRegistry`] (every configuration must
//! resolve to exactly one backend) and produces an [`ExecutionPlan`]
//! whose job list is deduplicated by [`DesignPointKey`] — the single
//! canonical key type shared by the sharded characterization cache and
//! its per-stripe observability counters.
//!
//! Executing a plan is the explorer's half: [`crate::Explorer::run`],
//! inline on the calling thread.

#![deny(missing_docs)]

use core::fmt;

use coldtall_workloads::{spec2017, Benchmark};

use crate::backend::BackendRegistry;
use crate::config::MemoryConfig;
use crate::error::Error;

/// Canonical identity of one characterization job.
///
/// Two configurations get the same key exactly when they are guaranteed
/// to characterize identically: the key covers technology, tentpole
/// (only for non-volatile technologies — the volatile cell models
/// ignore it), die count, and the *full-precision* operating
/// temperature. The cooling tier is deliberately excluded: it affects
/// wall power, not the array. Display labels are unsuitable as keys —
/// they round temperatures to whole kelvin, so `77.0 K` and `77.4 K`
/// would collide — which is why this type, not [`MemoryConfig::label`],
/// keys the cache.
///
/// The FNV-1a hash of the canonical form is precomputed at
/// construction and is stable across processes (unlike `RandomState`),
/// so cache stripes and per-stripe counters line up run to run.
///
/// # Examples
///
/// ```
/// use coldtall_core::{DesignPointKey, MemoryConfig};
/// use coldtall_units::Kelvin;
///
/// let a = DesignPointKey::of_config(&MemoryConfig::sram_77k());
/// let b = DesignPointKey::of_config(&MemoryConfig::volatile_2d(
///     coldtall_cell::MemoryTechnology::Sram,
///     Kelvin::LN2,
/// ));
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignPointKey {
    canonical: String,
    hash: u64,
}

impl DesignPointKey {
    /// The canonical key of a configuration's characterization.
    #[must_use]
    pub fn of_config(config: &MemoryConfig) -> Self {
        // Tentpole is part of the identity only when the cell model
        // reads it; the temperature is keyed by its exact bit pattern.
        let tentpole = if config.technology().is_nonvolatile() {
            config.tentpole().to_string()
        } else {
            "-".to_string()
        };
        Self::from_canonical(format!(
            "{}|{}|d{}|t{:016x}",
            config.technology().name(),
            tentpole,
            config.dies(),
            config.temperature().get().to_bits(),
        ))
    }

    /// The temperature-stripped *geometry* key of a configuration: two
    /// configurations share it exactly when their arrays share one
    /// temperature-invariant organization-geometry solve — same
    /// technology, same tentpole where the cell model reads it, same
    /// die count, any temperature. Keys the geometry cache of the
    /// batched two-phase characterization path. Namespaced so geometry
    /// keys can never collide with design-point keys.
    ///
    /// # Examples
    ///
    /// ```
    /// use coldtall_core::{DesignPointKey, MemoryConfig};
    ///
    /// let cold = DesignPointKey::geometry_of(&MemoryConfig::sram_77k());
    /// let warm = DesignPointKey::geometry_of(&MemoryConfig::sram_350k());
    /// assert_eq!(cold, warm, "geometry does not depend on temperature");
    /// ```
    #[must_use]
    pub fn geometry_of(config: &MemoryConfig) -> Self {
        let tentpole = if config.technology().is_nonvolatile() {
            config.tentpole().to_string()
        } else {
            "-".to_string()
        };
        Self::from_canonical(format!(
            "geom|{}|{}|d{}",
            config.technology().name(),
            tentpole,
            config.dies(),
        ))
    }

    /// Reconstructs a key from a previously stored canonical form — a
    /// run-registry record replaying into a fresh process. The hash is
    /// recomputed from the bytes, so a restored key is identical to
    /// (and cache-compatible with) the original.
    #[must_use]
    pub fn from_canonical(canonical: String) -> Self {
        let hash = fnv1a(canonical.as_bytes());
        Self { canonical, hash }
    }

    /// The canonical string form.
    #[must_use]
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The precomputed FNV-1a hash of the canonical form — stable
    /// across processes, used for cache shard selection.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        self.hash
    }
}

impl fmt::Display for DesignPointKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical)
    }
}

/// FNV-1a over `bytes`: deterministic across processes, cheap, and
/// well-mixed for short canonical strings.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// One validated characterization job of an [`ExecutionPlan`]: a
/// distinct design point, its canonical key, and the backend the
/// registry resolved it to.
#[derive(Debug, Clone)]
pub struct CharacterizationJob {
    key: DesignPointKey,
    config: MemoryConfig,
    backend: &'static str,
}

impl CharacterizationJob {
    /// The job's canonical key.
    #[must_use]
    pub fn key(&self) -> &DesignPointKey {
        &self.key
    }

    /// The design point to characterize.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Name of the backend the registry resolved this job to.
    #[must_use]
    pub fn backend(&self) -> &'static str {
        self.backend
    }
}

/// Names the work of a sweep — which configurations under which
/// benchmarks — before any validation or dispatch.
///
/// # Examples
///
/// ```
/// use coldtall_core::{BackendRegistry, SweepPlan};
///
/// let plan = SweepPlan::study().compile(&BackendRegistry::with_defaults()).unwrap();
/// assert_eq!(plan.jobs().len(), 31); // the study's distinct design points
/// assert_eq!(plan.rows(), 31 * 23); // configurations x SPEC2017 profiles
/// ```
#[derive(Debug, Clone)]
pub struct SweepPlan {
    configs: Vec<MemoryConfig>,
    benchmarks: &'static [Benchmark],
}

impl SweepPlan {
    /// A plan over `configs` under the full SPEC2017 suite.
    #[must_use]
    pub fn new(configs: Vec<MemoryConfig>) -> Self {
        Self {
            configs,
            benchmarks: spec2017(),
        }
    }

    /// The paper's full study: [`MemoryConfig::study_set`] under every
    /// SPEC2017 profile.
    #[must_use]
    pub fn study() -> Self {
        Self::new(MemoryConfig::study_set())
    }

    /// Replaces the benchmark set.
    #[must_use]
    pub fn with_benchmarks(mut self, benchmarks: &'static [Benchmark]) -> Self {
        self.benchmarks = benchmarks;
        self
    }

    /// Compiles the plan: resolves every configuration through the
    /// registry and deduplicates the characterization jobs by
    /// canonical key.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoBackend`] if some configuration is claimed by
    /// no registered backend, or [`Error::BackendConflict`] if more
    /// than one claims it.
    pub fn compile(self, registry: &BackendRegistry) -> Result<ExecutionPlan, Error> {
        let mut seen = std::collections::HashSet::new();
        let mut jobs = Vec::new();
        for config in &self.configs {
            let key = DesignPointKey::of_config(config);
            if !seen.insert(key.clone()) {
                continue;
            }
            let backend = registry.resolve(config)?.name();
            jobs.push(CharacterizationJob {
                key,
                config: config.clone(),
                backend,
            });
        }
        Ok(ExecutionPlan {
            configs: self.configs,
            benchmarks: self.benchmarks,
            jobs,
        })
    }
}

/// A compiled, validated sweep: the original (configuration x
/// benchmark) grid plus the deduplicated characterization job list,
/// every job already resolved to its backend.
///
/// Produced by [`SweepPlan::compile`]; executed by
/// [`crate::Explorer::run`].
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    configs: Vec<MemoryConfig>,
    benchmarks: &'static [Benchmark],
    jobs: Vec<CharacterizationJob>,
}

impl ExecutionPlan {
    /// The configurations of the sweep grid, in row order (duplicates
    /// preserved — only the job list is deduplicated).
    #[must_use]
    pub fn configs(&self) -> &[MemoryConfig] {
        &self.configs
    }

    /// The benchmark set of the sweep grid.
    #[must_use]
    pub fn benchmarks(&self) -> &'static [Benchmark] {
        self.benchmarks
    }

    /// The deduplicated characterization jobs, in first-appearance
    /// order.
    #[must_use]
    pub fn jobs(&self) -> &[CharacterizationJob] {
        &self.jobs
    }

    /// Number of evaluation rows the plan will produce.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.configs.len() * self.benchmarks.len()
    }

    /// A deterministic FNV-1a hash of the plan's identity: every grid
    /// configuration's canonical key in row order, then every
    /// benchmark name. Stable across processes and thread counts (the
    /// same guarantee as [`DesignPointKey::stable_hash`]), so it can
    /// key persisted artifacts — the run registry records it with
    /// every entry to tie a cached result back to the plan that
    /// produced it.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        let mut text = String::new();
        for config in &self.configs {
            text.push_str(DesignPointKey::of_config(config).canonical());
            text.push('\n');
        }
        text.push_str("--benchmarks--\n");
        for benchmark in self.benchmarks {
            text.push_str(benchmark.name);
            text.push('\n');
        }
        fnv1a(text.as_bytes())
    }

    /// The deduplicated job serving `key`, if the plan compiled one.
    ///
    /// Every configuration of a compiled plan has exactly one job under
    /// its [`DesignPointKey::of_config`] key; the adaptive search uses
    /// this to route a single surviving plane to the backend the plan
    /// already resolved and validated.
    #[must_use]
    pub fn job_for(&self, key: &DesignPointKey) -> Option<&CharacterizationJob> {
        self.jobs.iter().find(|job| job.key() == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_cell::{MemoryTechnology, Tentpole};
    use coldtall_units::Kelvin;

    #[test]
    fn keys_identify_identical_characterizations() {
        // Constructor spelling does not matter, the design point does.
        assert_eq!(
            DesignPointKey::of_config(&MemoryConfig::sram_77k()),
            DesignPointKey::of_config(&MemoryConfig::volatile_2d(
                MemoryTechnology::Sram,
                Kelvin::LN2
            )),
        );
        // Stacked-SRAM tentpoles characterize identically (volatile
        // cell models ignore the tentpole), so their keys collapse.
        assert_eq!(
            DesignPointKey::of_config(&MemoryConfig::envm_3d(
                MemoryTechnology::Sram,
                Tentpole::Optimistic,
                4
            )),
            DesignPointKey::of_config(&MemoryConfig::envm_3d(
                MemoryTechnology::Sram,
                Tentpole::Pessimistic,
                4
            )),
        );
        // eNVM tentpoles are real design choices.
        assert_ne!(
            DesignPointKey::of_config(&MemoryConfig::envm_3d(
                MemoryTechnology::Pcm,
                Tentpole::Optimistic,
                4
            )),
            DesignPointKey::of_config(&MemoryConfig::envm_3d(
                MemoryTechnology::Pcm,
                Tentpole::Pessimistic,
                4
            )),
        );
    }

    #[test]
    fn keys_carry_full_temperature_precision() {
        // Labels round to whole kelvin ("77K SRAM" for both); the key
        // must not.
        let a = MemoryConfig::volatile_2d(MemoryTechnology::Sram, Kelvin::new(77.0));
        let b = MemoryConfig::volatile_2d(MemoryTechnology::Sram, Kelvin::new(77.4));
        assert_eq!(a.label(), b.label());
        assert_ne!(
            DesignPointKey::of_config(&a),
            DesignPointKey::of_config(&b)
        );
    }

    #[test]
    fn geometry_keys_strip_temperature_and_nothing_else() {
        // Any two temperatures of one array share a geometry solve.
        assert_eq!(
            DesignPointKey::geometry_of(&MemoryConfig::sram_77k()),
            DesignPointKey::geometry_of(&MemoryConfig::sram_350k()),
        );
        // Technology, die count, and eNVM tentpole still discriminate.
        assert_ne!(
            DesignPointKey::geometry_of(&MemoryConfig::sram_77k()),
            DesignPointKey::geometry_of(&MemoryConfig::edram_77k()),
        );
        assert_ne!(
            DesignPointKey::geometry_of(&MemoryConfig::envm_3d(
                MemoryTechnology::Pcm,
                Tentpole::Optimistic,
                2
            )),
            DesignPointKey::geometry_of(&MemoryConfig::envm_3d(
                MemoryTechnology::Pcm,
                Tentpole::Optimistic,
                4
            )),
        );
        assert_ne!(
            DesignPointKey::geometry_of(&MemoryConfig::envm_3d(
                MemoryTechnology::Pcm,
                Tentpole::Optimistic,
                4
            )),
            DesignPointKey::geometry_of(&MemoryConfig::envm_3d(
                MemoryTechnology::Pcm,
                Tentpole::Pessimistic,
                4
            )),
        );
        // The namespace keeps geometry keys apart from design points.
        let geometry = DesignPointKey::geometry_of(&MemoryConfig::sram_77k());
        assert!(geometry.canonical().starts_with("geom|"));
        assert_ne!(geometry, DesignPointKey::of_config(&MemoryConfig::sram_77k()));
    }

    #[test]
    fn stable_hash_is_process_independent() {
        // FNV-1a of a fixed string is a fixed number; pin one value so
        // any accidental hasher change shows up as a test failure, not
        // as silently shuffled cache stripes.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(
            DesignPointKey::from_canonical("x".to_string()).stable_hash(),
            fnv1a(b"x")
        );
    }

    #[test]
    fn study_plan_compiles_to_31_jobs() {
        let registry = BackendRegistry::with_defaults();
        let plan = SweepPlan::study().compile(&registry).expect("study compiles");
        assert_eq!(plan.jobs().len(), 31);
        assert_eq!(plan.configs().len(), 31);
        assert_eq!(plan.rows(), 31 * plan.benchmarks().len());
    }

    #[test]
    fn duplicate_configs_share_one_job() {
        let registry = BackendRegistry::with_defaults();
        let plan = SweepPlan::new(vec![
            MemoryConfig::sram_350k(),
            MemoryConfig::edram_77k(),
            MemoryConfig::sram_350k(),
        ])
        .compile(&registry)
        .expect("compiles");
        assert_eq!(plan.configs().len(), 3, "the grid keeps duplicates");
        assert_eq!(plan.jobs().len(), 2, "the job list does not");
    }

    #[test]
    fn compile_fails_closed_on_an_empty_registry() {
        let err = SweepPlan::new(vec![MemoryConfig::sram_350k()])
            .compile(&BackendRegistry::new())
            .unwrap_err();
        assert!(matches!(err, Error::NoBackend { .. }), "{err}");
    }
}
