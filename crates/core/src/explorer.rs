//! The exploration driver: configurations x benchmarks.

use std::sync::Arc;

use coldtall_array::{ArrayCharacterization, ComponentFloors, Objective, OrgGeometry};
use coldtall_cell::CellModel;
use coldtall_obs::{Counter, Histogram, Registry, Span};
use coldtall_tech::ProcessNode;
use coldtall_units::{Capacity, Watts};
use coldtall_workloads::Benchmark;

use std::collections::HashMap;

use crate::backend::{self, Backend, BackendRegistry};
use crate::batch::EvalArena;
use crate::config::MemoryConfig;
use crate::error::Error;
use crate::evaluate::{device_power, row_values, service_time, LlcEvaluation};
use crate::lifetime::lifetime_years;
use crate::parcache::{CacheConfig, CacheCursor, CacheMetrics, GeometryCache, MemoCache};
use crate::pareto::Constraints;
use crate::plan::{CharacterizationJob, DesignPointKey, ExecutionPlan, SweepPlan};
use crate::search::{self, SearchMetrics, SearchOutcome};

/// The reference benchmark all power results are normalized to, as in
/// the paper (350 K SRAM running `namd`).
pub const REFERENCE_BENCHMARK: &str = "namd";

/// Drives the design-space exploration: characterizes configurations
/// (with caching), normalizes against the 350 K SRAM / `namd` reference,
/// and evaluates configurations under benchmark traffic.
///
/// Characterization is dispatched by [`BackendRegistry::resolve`]
/// (CryoMEM for single-die volatile points, Destiny for eNVM and
/// stacked arrays), and sweeps run as a plan/run
/// pipeline: [`Explorer::plan_sweep`] compiles the (configuration x
/// benchmark) grid into a validated [`ExecutionPlan`] with
/// key-deduplicated characterization jobs, and [`Explorer::run`]
/// executes it into an [`EvalArena`] — the one way a compiled plan
/// runs. [`Explorer::evaluate`] stays as the one-cell query.
///
/// The explorer is `Send + Sync`: the characterization memo is one
/// lock over an insertion-ordered log keyed by [`DesignPointKey`], so
/// one explorer can serve every connection thread of a daemon. All
/// evaluation is pure arithmetic over immutable state, so every row is
/// bit-identical to the scalar [`Explorer::evaluate`] of the same grid
/// cell.
///
/// # Examples
///
/// ```
/// use coldtall_core::{Explorer, MemoryConfig};
/// use coldtall_workloads::benchmark;
///
/// let explorer = Explorer::with_defaults();
/// let cryo = explorer.evaluate(&MemoryConfig::edram_77k(), benchmark("povray").unwrap());
/// assert!(cryo.relative_power < 0.01, "cryo eDRAM on povray is >100x below baseline");
/// ```
#[derive(Debug)]
pub struct Explorer {
    node: ProcessNode,
    objective: Objective,
    /// The characterization memo: each cached point's result and the
    /// backend resolution routed it to, so the serve run registry can
    /// persist the routing decision per key.
    cache: MemoCache<(ArrayCharacterization, Backend)>,
    /// Temperature-stripped geometry solves shared by every
    /// characterization miss and the search bounds (phase 1 of the
    /// two-phase kernel).
    geometries: GeometryCache,
    baseline: ArrayCharacterization,
    reference_power: Watts,
    metrics: ExplorerMetrics,
    /// Per-backend telemetry, indexed by [`Backend::index`].
    backend_stats: [BackendStats; 2],
    /// Work-avoidance telemetry of the adaptive search
    /// ([`Explorer::search`]); registered eagerly so counter *sets* are
    /// identical whether or not a search ever ran.
    search_metrics: SearchMetrics,
    /// Memoized componentwise plane floors of the adaptive search's
    /// bounding phase, keyed by design point. Explorer-lifetime (like
    /// the geometry cache), so repeated searches on one explorer —
    /// a serve daemon, the bench harness's warm comparisons — skip the
    /// bound recomputation entirely; `search.floor_cache.{hits,misses}`
    /// report the traffic. A serve `search` names any temperature, so
    /// the characterization cache's admission cap
    /// ([`CacheConfig::capacity`]) bounds this cache too: a refused
    /// floor counts `search.floor_cache.rejected` and is recomputed on
    /// the next probe, never changing a frontier.
    floors: MemoCache<ComponentFloors>,
}

/// Per-backend telemetry: how many design points the dispatch rule
/// routed to the backend, how many characterizations were dispatched,
/// and where their wall-clock went.
#[derive(Debug)]
struct BackendStats {
    /// Successful resolutions the explorer performed on the backend's
    /// behalf (`backend.<name>.resolved`): the eager baseline, one-cell
    /// misses, hybrid partition misses, and one per job at plan
    /// compilation. Overlap resolution is auditable here —
    /// a point silently rerouted by a rule change moves between
    /// these counters.
    resolved: Arc<Counter>,
    /// Characterized design points (`backend.<name>.characterizations`).
    characterizations: Arc<Counter>,
    /// Latency histogram of the backend's batches (span `backend.<name>`).
    span: Arc<Histogram>,
}

impl BackendStats {
    fn registered(registry: &Registry, backend: Backend) -> Self {
        let name = backend.name();
        Self {
            resolved: registry.counter(&format!("backend.{name}.resolved")),
            characterizations: registry.counter(&format!("backend.{name}.characterizations")),
            span: registry.span(&format!("backend.{name}")),
        }
    }

    /// Runs one geometry batch through the two-phase kernel, counted and
    /// timed as this backend's work — the one call of the kernel,
    /// shared by the eager baseline and every geometry-batch miss.
    fn characterize(
        &self,
        geometry_key: &DesignPointKey,
        configs: &[MemoryConfig],
        node: &ProcessNode,
        objective: Objective,
        geometries: &GeometryCache,
    ) -> Vec<ArrayCharacterization> {
        self.characterizations.add(configs.len() as u64);
        let _span = Span::enter(self.span.clone());
        backend::characterize_batch(geometry_key, configs, node, objective, geometries)
    }
}

/// Registry handles for the explorer's own telemetry.
///
/// Counters hold logical-work counts (calls, configs, rows) that are
/// deterministic under any thread count; the run-dependent part —
/// where the wall-clock went — lives in span histograms.
#[derive(Debug)]
struct ExplorerMetrics {
    /// Probes of the characterization cache (hit or miss alike).
    characterize_calls: Arc<Counter>,
    /// Geometry batches that performed real characterization work (a
    /// one-cell miss is a batch of one). Always equals the
    /// `characterize` span's sample count; at most `cache.misses`.
    characterize_dispatches: Arc<Counter>,
    /// Benchmark evaluations performed.
    evaluate_calls: Arc<Counter>,
    /// Configurations submitted to sweeps.
    sweep_configs: Arc<Counter>,
    /// Evaluation rows produced by sweeps.
    sweep_rows: Arc<Counter>,
    /// Durations of actual (missed) array characterizations.
    characterize_span: Arc<Histogram>,
    /// Durations of single-benchmark evaluations.
    evaluate_span: Arc<Histogram>,
    /// Durations of whole sweeps.
    sweep_span: Arc<Histogram>,
}

impl ExplorerMetrics {
    fn registered(registry: &Registry) -> Self {
        Self {
            characterize_calls: registry.counter("explorer.characterize.calls"),
            characterize_dispatches: registry.counter("explorer.characterize.dispatches"),
            evaluate_calls: registry.counter("explorer.evaluate.calls"),
            sweep_configs: registry.counter("sweep.configs"),
            sweep_rows: registry.counter("sweep.rows"),
            characterize_span: registry.span("characterize"),
            evaluate_span: registry.span("evaluate"),
            sweep_span: registry.span("sweep"),
        }
    }
}

impl Explorer {
    /// Creates an explorer on the paper's 22 nm node with EDP-optimized
    /// arrays, reporting into the process-wide metrics registry
    /// ([`coldtall_obs::global`]).
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::with_registry(
            ProcessNode::ptm_22nm_hp(),
            Objective::EnergyDelayProduct,
            coldtall_obs::global(),
        )
    }

    /// Creates an explorer with an explicit node and array objective,
    /// reporting into an explicit metrics registry, with the cache
    /// knobs of the environment ([`CacheConfig::from_env`]).
    ///
    /// Tests use a private [`Registry`] so counter assertions cannot be
    /// perturbed by other explorers (or other tests of the same binary)
    /// feeding the global one.
    ///
    /// # Panics
    ///
    /// As [`Explorer::configured`].
    #[must_use]
    pub fn with_registry(node: ProcessNode, objective: Objective, registry: &Registry) -> Self {
        Self::configured(node, objective, registry, &CacheConfig::from_env().0)
    }

    /// [`Explorer::with_registry`] with explicit cache knobs instead of
    /// the environment defaults.
    ///
    /// Long-running hosts (the serve daemon) construct their explorers
    /// through this path so a logical restart can change the admission
    /// cap without touching process-global state.
    ///
    /// The 350 K SRAM baseline is characterized eagerly (everything is
    /// normalized against it) as a geometry batch of one over a private
    /// geometry cache, so a fresh explorer reports no geometry traffic.
    ///
    /// # Panics
    ///
    /// Panics if the reference benchmark is missing from the workload
    /// suite, or no backend serves the baseline (neither ever happens).
    #[must_use]
    pub fn configured(
        node: ProcessNode,
        objective: Objective,
        registry: &Registry,
        cache_config: &CacheConfig,
    ) -> Self {
        let backend_stats = Backend::ALL.map(|backend| BackendStats::registered(registry, backend));
        let baseline_config = MemoryConfig::sram_350k();
        let backend = BackendRegistry::with_defaults()
            .resolve(&baseline_config)
            .expect("CryoMEM admits the 350 K SRAM baseline");
        let stats = &backend_stats[backend.index()];
        stats.resolved.inc();
        let baseline = stats
            .characterize(
                &DesignPointKey::geometry_of(&baseline_config),
                std::slice::from_ref(&baseline_config),
                &node,
                objective,
                &GeometryCache::unregistered(),
            )
            .remove(0);
        let reference = coldtall_workloads::spec2017()
            .iter()
            .find(|b| b.name == REFERENCE_BENCHMARK)
            .expect("reference benchmark present");
        let reference_power = device_power(&baseline, &reference.traffic);
        Self {
            node,
            objective,
            cache: MemoCache::new(
                CacheMetrics::registered(registry, "cache"),
                cache_config.capacity,
            ),
            geometries: GeometryCache::registered(registry, cache_config.capacity),
            baseline,
            reference_power,
            metrics: ExplorerMetrics::registered(registry),
            backend_stats,
            search_metrics: SearchMetrics::registered(registry),
            floors: MemoCache::new(
                CacheMetrics::registered(registry, "search.floor_cache"),
                cache_config.capacity,
            ),
        }
    }

    /// The process node.
    #[must_use]
    pub fn node(&self) -> &ProcessNode {
        &self.node
    }

    /// The array-organization objective.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The 350 K SRAM baseline characterization.
    #[must_use]
    pub fn baseline(&self) -> &ArrayCharacterization {
        &self.baseline
    }

    /// The normalization denominator: baseline power on the reference
    /// benchmark.
    #[must_use]
    pub fn reference_power(&self) -> Watts {
        self.reference_power
    }

    /// Distinct arrays currently memoized in the characterization
    /// cache: design points, plus any hybrid partitions.
    #[must_use]
    pub fn cached_characterizations(&self) -> usize {
        self.cache.len()
    }

    /// The characterization cache's hit/miss/insert telemetry.
    #[must_use]
    pub fn cache_metrics(&self) -> &CacheMetrics {
        self.cache.metrics()
    }

    /// A point-in-time snapshot of every memoized characterization,
    /// sorted by canonical key. The pairs round-trip bit-identically
    /// through [`Explorer::import_characterization`];
    /// [`Explorer::cached_entries_since`] is the incremental form the
    /// run registry syncs with.
    #[must_use]
    pub fn cached_entries(&self) -> Vec<(DesignPointKey, ArrayCharacterization)> {
        self.cache
            .snapshot()
            .into_iter()
            .map(|(key, (value, _))| (key, value))
            .collect()
    }

    /// The memoized characterizations published since `cursor` last
    /// walked this explorer's cache that `keep` accepts, each with the
    /// backend that produced it, sorted by canonical key —
    /// the run registry's incremental sync. `keep` is asked only about
    /// the entries published since the cursor.
    pub fn cached_entries_since(
        &self,
        cursor: &mut CacheCursor,
        keep: impl FnMut(&DesignPointKey) -> bool,
    ) -> Vec<(DesignPointKey, (ArrayCharacterization, Backend))> {
        self.cache.collect_since(cursor, keep)
    }

    /// Publishes an externally produced characterization (a run-registry
    /// replay) and the backend that produced it into the memo cache,
    /// without counting a probe. First publication wins, exactly like
    /// a worker's publish; one insert is counted, and the backend
    /// recorded, only if the entry lands.
    pub fn import_characterization(
        &self,
        key: &DesignPointKey,
        value: ArrayCharacterization,
        backend: Backend,
    ) -> ArrayCharacterization {
        self.cache.insert(key, (value, backend)).0
    }

    /// The backend resolution routed `key` to, if the cache holds the
    /// point (computed here, or imported by a replay). The backend
    /// lives in the cache entry, so it answers for exactly the cached
    /// keys and the admission cap bounds it too.
    #[must_use]
    pub fn resolved_backend(&self, key: &DesignPointKey) -> Option<Backend> {
        self.cache.peek(key, |&(_, backend)| backend)
    }

    /// The telemetry handles of `backend`.
    fn stats(&self, backend: Backend) -> &BackendStats {
        &self.backend_stats[backend.index()]
    }

    /// The geometry cache every characterization miss and the search
    /// bounds solve through.
    #[must_use]
    pub fn geometry_cache(&self) -> &GeometryCache {
        &self.geometries
    }

    /// The dispatch rule characterizations resolve through.
    #[must_use]
    pub fn backends(&self) -> &BackendRegistry {
        &BackendRegistry
    }

    /// Characterizes a configuration's array (cached, thread-safe).
    ///
    /// A miss resolves the configuration's backend and runs as a
    /// geometry batch of one, so it shares the geometry cache with
    /// plan execution and warm-started geometries. The
    /// characterization runs without the cache lock held; threads
    /// racing on the same key converge on the first published entry
    /// (the backends are deterministic, so every racer computes the
    /// same value anyway).
    ///
    /// # Panics
    ///
    /// Panics if no backend admits the configuration. Every
    /// configuration the study set or the CLI can produce resolves; use
    /// [`Explorer::try_characterize`] for untrusted configurations.
    #[must_use]
    pub fn characterize(&self, config: &MemoryConfig) -> ArrayCharacterization {
        self.characterize_keyed(&DesignPointKey::of_config(config), config)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one-cell probe: a hit returns the cached entry; a miss
    /// characterizes the point as a geometry batch of one.
    fn characterize_keyed(
        &self,
        key: &DesignPointKey,
        config: &MemoryConfig,
    ) -> Result<ArrayCharacterization, Error> {
        self.probe(key, config, |backend| {
            self.characterize_misses(
                &DesignPointKey::geometry_of(config),
                backend,
                &[key],
                std::slice::from_ref(config),
            )
            .remove(0)
        })
    }

    /// Characterizes one partition of a hybrid LLC: `config`'s array
    /// ([`MemoryConfig::to_spec`]) with the capacity overridden, the one
    /// characterization outside the geometry-batch dispatch. A
    /// partition depends on its (configuration, capacity) only, so it
    /// is memoized in the characterization cache under
    /// [`DesignPointKey::of_partition`]; a miss is resolved and counted
    /// against the backend like a one-cell miss.
    ///
    /// # Panics
    ///
    /// Panics if no backend admits the configuration.
    pub(crate) fn characterize_partition(
        &self,
        config: &MemoryConfig,
        capacity: Capacity,
    ) -> ArrayCharacterization {
        let key = DesignPointKey::of_partition(config, capacity);
        self.probe(&key, config, |backend| {
            let stats = self.stats(backend);
            let spec = config.to_spec(&self.node).with_capacity(capacity);
            stats.characterizations.inc();
            let array = {
                let _span = Span::enter(stats.span.clone());
                spec.characterize(self.objective)
            };
            self.cache.insert(&key, (array, backend)).0
        })
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one probe of the characterization cache outside a plan's job
    /// phase: counts the call, returns a hit, and on a miss resolves
    /// `config`'s backend once, counts the resolution and hands the
    /// backend to `miss`, which characterizes and publishes the entry.
    fn probe(
        &self,
        key: &DesignPointKey,
        config: &MemoryConfig,
        miss: impl FnOnce(Backend) -> ArrayCharacterization,
    ) -> Result<ArrayCharacterization, Error> {
        self.metrics.characterize_calls.inc();
        if let Some((hit, _)) = self.cache.get(key) {
            return Ok(hit);
        }
        let backend = self.backends().resolve(config)?;
        self.stats(backend).resolved.inc();
        Ok(miss(backend))
    }

    /// Characterizes a configuration's array, verifying the
    /// finite-output invariant the rest of the stack relies on.
    ///
    /// The characterization itself cannot fail for a validly
    /// constructed [`MemoryConfig`]; this wrapper exists so untrusted
    /// frontends get a typed [`Error::NonFinite`] — never a silent
    /// `NaN` — should a model invariant ever break.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoBackend`] if no backend admits the
    /// configuration, and [`Error::NonFinite`] if any characteristic
    /// that must be finite (latency, energy, power, area) is not.
    pub fn try_characterize(&self, config: &MemoryConfig) -> Result<ArrayCharacterization, Error> {
        let array = self.characterize_keyed(&DesignPointKey::of_config(config), config)?;
        let non_finite = |field: &str| Error::NonFinite {
            context: format!("{}: {field}", config.label()),
        };
        for (field, value) in [
            ("read_latency", array.read_latency.get()),
            ("write_latency", array.write_latency.get()),
            ("read_energy", array.read_energy.get()),
            ("write_energy", array.write_energy.get()),
            ("leakage_power", array.leakage_power.get()),
            ("refresh_power", array.refresh_power.get()),
            ("footprint", array.footprint.get()),
            ("array_efficiency", array.array_efficiency),
        ] {
            if !value.is_finite() {
                return Err(non_finite(field));
            }
        }
        if array.refresh_busy_fraction.is_nan() {
            return Err(non_finite("refresh_busy_fraction"));
        }
        Ok(array)
    }

    /// Evaluates one configuration under one benchmark's traffic — the
    /// one-cell query. Multi-row evaluations compile a plan and
    /// [`Explorer::run`] it instead; every row they produce is
    /// bit-identical to this function's answer for the same cell.
    ///
    /// # Panics
    ///
    /// Panics if no backend admits the configuration;
    /// [`Explorer::try_evaluate`] returns the typed error.
    #[must_use]
    pub fn evaluate(&self, config: &MemoryConfig, benchmark: &Benchmark) -> LlcEvaluation {
        self.evaluate_cell(config, benchmark)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Explorer::evaluate`] with resolution failure as a typed error.
    fn evaluate_cell(
        &self,
        config: &MemoryConfig,
        benchmark: &Benchmark,
    ) -> Result<LlcEvaluation, Error> {
        let _span = Span::enter(self.metrics.evaluate_span.clone());
        self.metrics.evaluate_calls.inc();
        let array = self.characterize_keyed(&DesignPointKey::of_config(config), config)?;
        // Lifetime needs only the cell's endurance model, not a full
        // lowering — build the cell directly.
        let cell = CellModel::tentpole(config.technology(), config.tentpole(), &self.node);
        let years = lifetime_years(
            &cell,
            Capacity::from_mebibytes(16),
            512,
            benchmark.traffic.writes_per_sec,
        );
        Ok(LlcEvaluation::build(
            config,
            benchmark.name,
            benchmark.traffic,
            &array,
            &self.baseline,
            self.reference_power,
            years,
        ))
    }

    /// Evaluates one configuration under a benchmark looked up by name,
    /// validating the row's NaN-free invariant.
    ///
    /// Infeasible rows are *data*, not errors — an evaluation of a
    /// refresh-dead point returns `Ok` with the verdict in
    /// [`LlcEvaluation::feasibility`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownBenchmark`] if `benchmark` is not in the
    /// workload suite, [`Error::NoBackend`] if no backend admits the
    /// configuration, or [`Error::NonFinite`] if the produced
    /// row violates the finite-or-explicitly-infeasible invariant.
    pub fn try_evaluate(
        &self,
        config: &MemoryConfig,
        benchmark: &str,
    ) -> Result<LlcEvaluation, Error> {
        let bench =
            coldtall_workloads::benchmark(benchmark).ok_or_else(|| Error::UnknownBenchmark {
                name: benchmark.to_string(),
            })?;
        let row = self.evaluate_cell(config, bench)?;
        row.validate()?;
        Ok(row)
    }

    /// Evaluates the given configurations under every SPEC2017
    /// benchmark ([`Explorer::plan_sweep`] + [`Explorer::run`]),
    /// validating every produced row's NaN-free invariant. Rows come
    /// back in config-major order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoBackend`] if no backend admits some
    /// configuration, or [`Error::NonFinite`] if any row violates the
    /// finite-or-explicitly-infeasible invariant (infeasible rows with
    /// their documented `INFINITY` sentinel are fine and included).
    pub fn try_sweep_configs(&self, configs: &[MemoryConfig]) -> Result<Vec<LlcEvaluation>, Error> {
        let plan = self.plan_sweep(configs)?;
        let mut arena = EvalArena::new();
        self.run(&plan, &mut arena);
        let rows = arena.to_rows();
        for row in &rows {
            row.validate()?;
        }
        Ok(rows)
    }

    /// Compiles a sweep over `configs` under the full SPEC2017 suite
    /// into a validated [`ExecutionPlan`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoBackend`] if no backend admits some
    /// configuration.
    pub fn plan_sweep(&self, configs: &[MemoryConfig]) -> Result<ExecutionPlan, Error> {
        self.plan_sweep_over(configs, coldtall_workloads::spec2017())
    }

    /// [`Explorer::plan_sweep`] under an explicit benchmark set (the
    /// accelerator profiles, one benchmark of the suite, ...).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoBackend`] if no backend admits some
    /// configuration.
    pub fn plan_sweep_over(
        &self,
        configs: &[MemoryConfig],
        benchmarks: &'static [Benchmark],
    ) -> Result<ExecutionPlan, Error> {
        let plan = SweepPlan::new(configs.to_vec())
            .with_benchmarks(benchmarks)
            .compile(self.backends())?;
        // Attribute each job's compile-time resolution to its backend —
        // pure plan arithmetic, deterministic under any thread count.
        for job in plan.jobs() {
            self.stats(job.backend()).resolved.inc();
        }
        Ok(plan)
    }

    /// Runs a compiled plan into a caller-owned arena — the one way a
    /// compiled plan executes.
    ///
    /// Two phases, both inline on the calling thread:
    ///
    /// 1. the job list, grouped by (temperature-stripped geometry key,
    ///    backend): every job probes the cache once, and each group's
    ///    misses dispatch as one batch, so each distinct geometry is
    ///    solved once;
    /// 2. every configuration plane, evaluated through the batched
    ///    kernel into the arena.
    ///
    /// The arena is cleared (capacity kept) and refilled in
    /// config-major row order ([`EvalArena::row_index`]); a caller
    /// that reuses one arena across sweeps of the same shape allocates
    /// nothing after the first sweep. Column accessors read results
    /// without constructing [`LlcEvaluation`] values at all.
    ///
    /// Telemetry: one `sweep` span sample, `sweep.configs` and
    /// `sweep.rows`, one `evaluate` span sample per plane with
    /// `explorer.evaluate.calls` per row, and one `characterize`
    /// dispatch per (geometry, backend) group that has misses.
    pub fn run(&self, plan: &ExecutionPlan, arena: &mut EvalArena) {
        let _span = Span::enter(self.metrics.sweep_span.clone());
        self.metrics.sweep_configs.add(plan.configs().len() as u64);
        self.characterize_jobs(plan);
        arena.begin(plan.benchmarks());
        let base_services = self.base_services(plan.benchmarks());
        for config in plan.configs() {
            self.evaluate_plane_into(config, &base_services, arena);
        }
        self.metrics.sweep_rows.add(arena.rows() as u64);
    }

    /// The job phase of [`Explorer::run`], on its own: every job of
    /// `plan` probes the cache once, and each geometry group's misses
    /// dispatch as one batch. The thermal schedule warms its candidate
    /// temperatures through this without evaluating any rows.
    pub(crate) fn characterize_jobs(&self, plan: &ExecutionPlan) {
        for group in self.geometry_groups(plan) {
            self.characterize_group(&group);
        }
    }

    /// Groups a plan's job list by (temperature-stripped geometry key,
    /// resolved backend), keys and groups in first-appearance order.
    ///
    /// Grouping is pure plan arithmetic — deterministic under any
    /// thread count — which is what keeps every counter of
    /// [`Explorer::run`] inside the determinism contract.
    fn geometry_groups<'a>(&self, plan: &'a ExecutionPlan) -> Vec<JobGroup<'a>> {
        let mut groups: Vec<JobGroup<'a>> = Vec::new();
        let mut index: HashMap<(DesignPointKey, Backend), usize> = HashMap::new();
        for job in plan.jobs() {
            let geometry_key = DesignPointKey::geometry_of(job.config());
            let backend = job.backend();
            match index.entry((geometry_key.clone(), backend)) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    groups[*slot.get()].jobs.push(job);
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(groups.len());
                    groups.push(JobGroup {
                        geometry_key,
                        backend,
                        jobs: vec![job],
                    });
                }
            }
        }
        groups
    }

    /// Runs one geometry group of a plan's job phase: probes every
    /// job's cache entry (each probe counting its one hit or miss) and
    /// characterizes the misses as one batch
    /// ([`Explorer::characterize_misses`] — one geometry solve for the
    /// whole group). The adaptive search refines one plane through a
    /// group of one.
    pub(crate) fn characterize_group(&self, group: &JobGroup<'_>) {
        let missing: Vec<&CharacterizationJob> = group
            .jobs
            .iter()
            .copied()
            .filter(|job| {
                self.metrics.characterize_calls.inc();
                self.cache.get(job.key()).is_none()
            })
            .collect();
        if missing.is_empty() {
            return;
        }
        let keys: Vec<&DesignPointKey> = missing.iter().map(|job| job.key()).collect();
        let configs: Vec<MemoryConfig> = missing.iter().map(|job| job.config().clone()).collect();
        let _ = self.characterize_misses(&group.geometry_key, group.backend, &keys, &configs);
    }

    /// Characterizes cache misses that share one temperature-stripped
    /// geometry key and backend as one batch through the geometry
    /// cache, and publishes them. Plan groups, the search's refinement
    /// and one-cell misses all land here; only the eager baseline (the
    /// same kernel over a private geometry cache) and the hybrid's
    /// resized partitions characterize elsewhere. Returns the
    /// published entries in order (first publication wins a race).
    ///
    /// One call is one `explorer.characterize.dispatches` increment and
    /// one `characterize` span sample; `backend.<name>.characterizations`
    /// counts every point.
    fn characterize_misses(
        &self,
        geometry_key: &DesignPointKey,
        backend: Backend,
        keys: &[&DesignPointKey],
        configs: &[MemoryConfig],
    ) -> Vec<ArrayCharacterization> {
        self.metrics.characterize_dispatches.inc();
        let results = {
            let _span = Span::enter(self.metrics.characterize_span.clone());
            self.stats(backend).characterize(
                geometry_key,
                configs,
                &self.node,
                self.objective,
                &self.geometries,
            )
        };
        keys.iter()
            .zip(results)
            .map(|(key, result)| self.cache.insert(key, (result, backend)).0)
            .collect()
    }

    /// Hoisted per-benchmark-column invariants: the 350 K SRAM
    /// baseline's service time on each benchmark, the denominator of
    /// every relative-latency cell in that column. `pub(crate)` for the
    /// adaptive search, whose latency lower bounds divide by the same
    /// terms.
    pub(crate) fn base_services(&self, benchmarks: &[Benchmark]) -> Vec<f64> {
        benchmarks
            .iter()
            .map(|benchmark| service_time(&self.baseline, &benchmark.traffic))
            .collect()
    }

    /// Evaluates one configuration plane straight into the arena — the
    /// one plane loop, shared by [`Explorer::run`] and the search's
    /// refinement.
    ///
    /// Every grid invariant is hoisted out of the per-row loop: the
    /// caller's per-column `base_services`, the arena's dense traffic
    /// table, and — per plane — one characterization-cache probe, the
    /// cooling tier's wall-power factor, the cell endurance model, the
    /// display label, and one `evaluate` span sample. The per-row
    /// arithmetic is shared with the scalar path (`row_values` — one
    /// copy of the float expressions), so the rows are bit-identical
    /// to [`Explorer::evaluate`]'s. Counts the plane's
    /// `explorer.evaluate.calls` (one per row, matching the scalar
    /// path's total).
    ///
    /// Characterizations need not be warm: a cold plane pays its cache
    /// miss inside the plane's probe, exactly like the scalar path.
    pub(crate) fn evaluate_plane_into(
        &self,
        config: &MemoryConfig,
        base_services: &[f64],
        arena: &mut EvalArena,
    ) {
        let nb = arena.benchmark_count();
        let _span = Span::enter(self.metrics.evaluate_span.clone());
        self.metrics.evaluate_calls.add(nb as u64);
        let array = self.characterize(config);
        let wall_factor = config.cooling().wall_factor(config.temperature());
        let cell = CellModel::tentpole(config.technology(), config.tentpole(), &self.node);
        let capacity = Capacity::from_mebibytes(16);
        arena.push_plane_label(config.label());
        for (b, &base_service) in base_services.iter().enumerate().take(nb) {
            let traffic = arena.traffic.get(b);
            let values = row_values(
                &array,
                &traffic,
                wall_factor,
                base_service,
                self.reference_power,
            );
            let years = lifetime_years(&cell, capacity, 512, traffic.writes_per_sec);
            arena.push_row(&values, years);
        }
    }

    /// Best-first branch-and-bound exploration of `configs` under the
    /// full SPEC2017 suite: regions of the (technology × dies ×
    /// temperature × organization) space are bounded from below on
    /// power, latency, and area, pruned when the incumbent frontier
    /// provably dominates them, and only the survivors are refined
    /// through the plane loop [`Explorer::run`] uses.
    ///
    /// The returned frontier is byte-identical to
    /// [`crate::pareto_front`] over the exhaustive sweep of the same
    /// grid (screened by `constraints`), with auditable work-avoidance
    /// statistics alongside; see the `coldtall_core::search` module
    /// docs and `DESIGN.md` § 13 for the soundness argument.
    ///
    /// `region` is the caller's name for the searched space — it
    /// surfaces only in the empty-region diagnostic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptySearchSpace`] if `configs` is empty, or
    /// [`Error::NoBackend`] if no backend admits some configuration.
    pub fn search(
        &self,
        region: &str,
        configs: &[MemoryConfig],
        constraints: &Constraints,
    ) -> Result<SearchOutcome, Error> {
        search::run(self, region, configs, constraints)
    }

    /// The adaptive search's telemetry handles.
    pub(crate) fn search_metrics(&self) -> &SearchMetrics {
        &self.search_metrics
    }

    /// The componentwise floors bounding every candidate organization
    /// of `key`'s plane, memoized for the explorer's lifetime.
    ///
    /// Returns `(floors, fresh)`: `fresh` is `true` iff this call
    /// computed the floors (the search's `bounds_computed` accounting —
    /// a probe that hits costs one cache read, not a bound
    /// computation). The compute path routes geometry solves through
    /// the shared geometry cache, so a warm-started explorer bounds
    /// planes without a single solve.
    pub(crate) fn plane_floors(
        &self,
        key: &DesignPointKey,
        config: &MemoryConfig,
    ) -> (ComponentFloors, bool) {
        if let Some(hit) = self.floors.get(key) {
            return (hit, false);
        }
        let geometry_key = DesignPointKey::geometry_of(config);
        let geometry = self.geometries.get_or_solve(&geometry_key, || {
            OrgGeometry::solve(&config.to_base_spec(&self.node))
        });
        let floors = geometry.floors_at_temperature(config.temperature());
        (self.floors.insert(key, floors), true)
    }
}

/// One geometry-keyed batch of a plan's job phase: every job of the
/// plan that shares this temperature-stripped geometry key and
/// backend, in first-appearance order.
pub(crate) struct JobGroup<'a> {
    pub(crate) geometry_key: DesignPointKey,
    pub(crate) backend: Backend,
    pub(crate) jobs: Vec<&'a CharacterizationJob>,
}

impl Default for Explorer {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_workloads::{benchmark, spec2017};

    /// Compile-time proof that the explorer can be shared across
    /// threads (a daemon's connection threads share one).
    #[test]
    fn explorer_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Explorer>();
    }

    #[test]
    fn baseline_on_reference_normalizes_to_one() {
        let explorer = Explorer::with_defaults();
        let eval = explorer.evaluate(
            &MemoryConfig::sram_350k(),
            benchmark(REFERENCE_BENCHMARK).unwrap(),
        );
        assert!((eval.relative_power - 1.0).abs() < 1e-9);
        assert!((eval.relative_latency - 1.0).abs() < 1e-9);
        assert!(!eval.slowdown);
    }

    #[test]
    fn characterization_cache_is_consistent() {
        let explorer = Explorer::with_defaults();
        let a = explorer.characterize(&MemoryConfig::edram_77k());
        let b = explorer.characterize(&MemoryConfig::edram_77k());
        assert_eq!(a, b);
        assert_eq!(explorer.cached_characterizations(), 1);
    }

    #[test]
    fn concurrent_characterize_converges_on_one_entry_per_label() {
        let explorer = Explorer::with_defaults();
        let configs = [
            MemoryConfig::sram_350k(),
            MemoryConfig::sram_77k(),
            MemoryConfig::edram_77k(),
        ];
        // 24 OS threads hammer 3 overlapping configurations at once
        // (raw spawns: this must stay concurrent even on a 1-CPU
        // machine, where the Monte-Carlo fan-out would run inline).
        let results: Vec<ArrayCharacterization> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..24)
                .map(|i| {
                    let (explorer, configs) = (&explorer, &configs);
                    scope.spawn(move || explorer.characterize(&configs[i % 3]))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("characterize worker panicked"))
                .collect()
        });
        assert_eq!(explorer.cached_characterizations(), 3);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result, &explorer.characterize(&configs[i % 3]));
        }
    }

    #[test]
    fn run_covers_the_cross_product_in_config_major_order() {
        let explorer = Explorer::with_defaults();
        let configs = [MemoryConfig::sram_350k(), MemoryConfig::edram_77k()];
        let plan = explorer.plan_sweep(&configs).expect("plan compiles");
        let mut arena = EvalArena::new();
        explorer.run(&plan, &mut arena);
        assert_eq!(arena.rows(), 2 * spec2017().len());
        let cell = arena.row_index(1, 3);
        assert_eq!(
            arena.row(cell),
            explorer.evaluate(&configs[1], &spec2017()[3])
        );
    }

    #[test]
    fn edram_350k_is_infeasible_for_performance() {
        let explorer = Explorer::with_defaults();
        let eval = explorer.evaluate(&MemoryConfig::edram_350k(), benchmark("namd").unwrap());
        assert!(eval.relative_latency.is_infinite());
        assert!(eval.slowdown);
        assert_eq!(eval.feasibility, crate::Feasibility::RefreshDead);
    }

    #[test]
    fn try_evaluate_types_unknown_benchmarks_and_keeps_infeasible_rows() {
        let explorer = Explorer::with_defaults();
        let err = explorer
            .try_evaluate(&MemoryConfig::sram_350k(), "doom")
            .unwrap_err();
        assert!(matches!(err, Error::UnknownBenchmark { name } if name == "doom"));
        // An infeasible point is data with a verdict, not an error.
        let dead = explorer
            .try_evaluate(&MemoryConfig::edram_350k(), "namd")
            .expect("infeasible rows are returned, not rejected");
        assert_eq!(dead.feasibility, crate::Feasibility::RefreshDead);
    }

    #[test]
    fn try_characterize_and_try_sweep_uphold_the_finite_invariant() {
        let explorer = Explorer::with_defaults();
        let array = explorer
            .try_characterize(&MemoryConfig::edram_77k())
            .expect("valid configs characterize");
        assert_eq!(array, explorer.characterize(&MemoryConfig::edram_77k()));
        let configs = [MemoryConfig::sram_350k(), MemoryConfig::edram_350k()];
        let rows = explorer
            .try_sweep_configs(&configs)
            .expect("sweep is NaN-free");
        assert_eq!(rows.len(), 2 * spec2017().len());
        let plan = explorer.plan_sweep(&configs).expect("plan compiles");
        let mut arena = EvalArena::new();
        explorer.run(&plan, &mut arena);
        assert_eq!(rows, arena.to_rows());
    }

    #[test]
    fn duplicate_configs_share_one_job_and_keep_their_rows() {
        let explorer = Explorer::with_defaults();
        let configs = [
            MemoryConfig::sram_350k(),
            MemoryConfig::edram_77k(),
            MemoryConfig::sram_350k(), // duplicate: one job, two grid rows
        ];
        let plan = explorer.plan_sweep(&configs).expect("plan compiles");
        assert_eq!(plan.jobs().len(), 2);
        assert_eq!(plan.rows(), 3 * spec2017().len());
        let mut arena = EvalArena::new();
        explorer.run(&plan, &mut arena);
        let nb = arena.benchmark_count();
        assert_eq!(
            arena.relative_power()[..nb],
            arena.relative_power()[2 * nb..]
        );
    }

    #[test]
    fn cryo_sram_on_namd_matches_fig4_anchors() {
        let explorer = Explorer::with_defaults();
        let namd = benchmark("namd").unwrap();
        let warm = explorer.evaluate(&MemoryConfig::sram_350k(), namd);
        let cold = explorer.evaluate(&MemoryConfig::sram_77k(), namd);
        // Without cooling the reduction is enormous; with the 9.65x
        // cooling charge roughly a 3-5x net win remains (Fig. 4).
        let no_cooling = warm.device_power / cold.device_power;
        assert!(no_cooling > 30.0, "no-cooling ratio = {no_cooling}");
        let with_cooling = warm.wall_power / cold.wall_power;
        assert!(
            with_cooling > 2.0 && with_cooling < 8.0,
            "cooled ratio = {with_cooling}"
        );
    }
}
