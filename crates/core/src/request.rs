//! Typed request/response facade over the [`Explorer`] for the
//! frontends.
//!
//! Both frontends speak to the engine exclusively through
//! [`RequestHandler`]: the `coldtall` CLI turns its flags into a
//! [`Request`] and renders the answer as text, and the serve daemon
//! parses a JSON line into one and renders the answer as JSON. The
//! handler is a thin, `Send + Sync` dispatcher that owns one warm
//! [`Explorer`], enforces a cooperative per-request deadline, and
//! answers with typed payloads. Validation lives here and in
//! [`DesignPoint::to_config`], once, so the two frontends accept the
//! same inputs and refuse the rest with the same typed [`Error`].
//! Wire formats live in the frontends — this module knows nothing
//! about JSON or sockets, which is what keeps responses bit-identical
//! between a daemon round-trip and a direct library call: both render
//! the same [`ResponsePayload`] through the same renderer.
//!
//! Deadlines are cooperative: the handler checks the elapsed budget
//! between pipeline stages (after planning, after characterization,
//! after evaluation), so work already dispatched runs to completion
//! and lands in the cache — a timed-out request wastes no warmth.

use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coldtall_array::ArrayCharacterization;
use coldtall_obs::{Counter, Histogram, Registry, Span};
use coldtall_units::Kelvin;

use crate::batch::EvalArena;
use crate::config::MemoryConfig;
use crate::error::Error;
use crate::evaluate::LlcEvaluation;
use crate::explorer::Explorer;
use crate::pareto::Constraints;
use crate::plan::SweepPlan;
use crate::search::SearchOutcome;

/// The modeled operating window in kelvin: a design point's
/// temperature and a search's `temps` selector must fall inside it.
const TEMPERATURE_WINDOW: RangeInclusive<f64> = 60.0..=400.0;

/// One design point as a frontend names it: raw strings and numbers,
/// validated by [`MemoryConfig::try_design_point`] at dispatch time.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Technology name (`sram`, `edram`, `pcm`, `stt`, `rram`).
    pub tech: String,
    /// Tentpole name (`optimistic`/`opt`, `pessimistic`/`pess`).
    pub tentpole: String,
    /// Stacked die count (1, 2, 4, or 8).
    pub dies: u8,
    /// Operating temperature in kelvin.
    pub temperature_kelvin: f64,
}

impl DesignPoint {
    /// A 2D SRAM point at the 350 K reference — the protocol's default
    /// when a request names no fields.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            tech: "sram".to_string(),
            tentpole: "optimistic".to_string(),
            dies: 1,
            temperature_kelvin: 350.0,
        }
    }

    /// Validates the raw fields into a [`MemoryConfig`].
    ///
    /// # Errors
    ///
    /// Returns the same typed errors as
    /// [`MemoryConfig::try_design_point`], plus
    /// [`Error::InvalidTemperature`] for a non-finite or non-positive
    /// temperature and [`Error::UnsupportedPoint`] for one outside the
    /// modeled 60–400 K window.
    pub fn to_config(&self) -> Result<MemoryConfig, Error> {
        let temperature = Kelvin::try_new(self.temperature_kelvin)?;
        if !TEMPERATURE_WINDOW.contains(&self.temperature_kelvin) {
            return Err(Error::UnsupportedPoint {
                reason: format!(
                    "{:.1} K is outside the modeled 60-400 K window",
                    self.temperature_kelvin
                ),
            });
        }
        MemoryConfig::try_design_point(&self.tech, &self.tentpole, self.dies, temperature)
    }
}

/// One typed request a frontend can dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Array characteristics of one design point.
    Characterize {
        /// The point to characterize.
        point: DesignPoint,
    },
    /// One design point under one benchmark's traffic.
    Evaluate {
        /// The point to evaluate.
        point: DesignPoint,
        /// Benchmark name from the SPEC2017 suite.
        benchmark: String,
    },
    /// The full study sweep: every study configuration under every
    /// SPEC2017 profile, in row order.
    Sweep,
    /// Adaptive branch-and-bound Pareto search over the study region,
    /// optionally narrowed to one technology and/or die count and
    /// expanded over (or re-pinned to) temperatures.
    Search {
        /// Restrict the region to one technology name.
        tech: Option<String>,
        /// Restrict the region to one die count.
        dies: Option<u8>,
        /// Temperature selector, as raw text: `study` expands the
        /// region over the study's temperature ladder, `lo:hi` over
        /// the ladder inside the range, and a kelvin value re-pins it
        /// to that one temperature.
        temps: Option<String>,
        /// Feasibility constraints on the frontier.
        constraints: Constraints,
    },
    /// Engine status: cache occupancy and probe telemetry.
    Status,
}

impl Request {
    /// Short lowercase tag naming the request kind (the wire-protocol
    /// `cmd` field and the per-kind counter suffix).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Characterize { .. } => "characterize",
            Self::Evaluate { .. } => "evaluate",
            Self::Sweep => "sweep",
            Self::Search { .. } => "search",
            Self::Status => "status",
        }
    }
}

/// The typed answer to one [`Request`].
#[derive(Debug, Clone)]
pub enum ResponsePayload {
    /// Answer to [`Request::Characterize`].
    Characterization {
        /// Paper-style label of the configuration.
        label: String,
        /// Name of the backend the registry resolved the point to.
        backend: &'static str,
        /// Hash of the single-point plan that produced it (the run
        /// registry's plan key).
        plan_hash: u64,
        /// The full array characterization.
        characterization: ArrayCharacterization,
    },
    /// Answer to [`Request::Evaluate`].
    Evaluation {
        /// Hash of the single-point plan that produced it.
        plan_hash: u64,
        /// The full evaluation row.
        row: LlcEvaluation,
    },
    /// Answer to [`Request::Sweep`].
    Sweep {
        /// Hash of the compiled study plan.
        plan_hash: u64,
        /// Every evaluation row in (configuration x benchmark) order.
        rows: Vec<LlcEvaluation>,
    },
    /// Answer to [`Request::Search`].
    Search {
        /// The region's name (`study x stt-ram x 77:400 K`).
        region: String,
        /// Hash of the compiled region plan.
        plan_hash: u64,
        /// Frontier, stats, and prune audit trail.
        outcome: SearchOutcome,
    },
    /// Answer to [`Request::Status`].
    Status(StatusReport),
}

/// Engine status at one instant: occupancy and probe counters of the
/// characterization and geometry caches plus the handler's own request
/// tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusReport {
    /// Distinct characterizations currently memoized.
    pub cached_characterizations: usize,
    /// Distinct geometries currently cached.
    pub cached_geometries: usize,
    /// Characterization-cache probe hits.
    pub cache_hits: u64,
    /// Characterization-cache probe misses.
    pub cache_misses: u64,
    /// Publications the characterization cache's admission cap refused.
    pub cache_rejected: u64,
    /// Estimated resident bytes of the characterization cache.
    pub cache_approx_bytes: u64,
    /// Geometry solves that actually ran.
    pub geometry_solves: u64,
    /// Requests this handler has dispatched (all kinds, this one
    /// included).
    pub requests_served: u64,
}

/// Telemetry handles for the handler, registered eagerly so the
/// counter *set* is identical whether or not a kind was ever
/// requested.
#[derive(Debug)]
struct HandlerMetrics {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    per_kind: Vec<(&'static str, Arc<Counter>)>,
    span: Arc<Histogram>,
}

/// Every request kind, for eager counter registration.
const REQUEST_KINDS: [&str; 5] = ["characterize", "evaluate", "sweep", "search", "status"];

impl HandlerMetrics {
    fn registered(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("serve.requests"),
            errors: registry.counter("serve.errors"),
            deadline_exceeded: registry.counter("serve.deadline_exceeded"),
            per_kind: REQUEST_KINDS
                .iter()
                .map(|kind| (*kind, registry.counter(&format!("serve.{kind}.requests"))))
                .collect(),
            span: registry.span("serve.request"),
        }
    }

    fn count_kind(&self, kind: &str) {
        if let Some((_, counter)) = self.per_kind.iter().find(|(name, _)| *name == kind) {
            counter.inc();
        }
    }
}

/// A cooperative per-request budget: stages call [`Deadline::check`]
/// between units of work; once the elapsed wall-clock passes the
/// budget the next check fails with [`Error::DeadlineExceeded`].
#[derive(Debug, Clone, Copy)]
struct Deadline {
    started: Instant,
    budget: Option<Duration>,
}

impl Deadline {
    fn start(budget: Option<Duration>) -> Self {
        Self {
            started: Instant::now(),
            budget,
        }
    }

    fn check(&self) -> Result<(), Error> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        let elapsed = self.started.elapsed();
        if elapsed >= budget {
            Err(Error::DeadlineExceeded {
                elapsed_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
                budget_ms: u64::try_from(budget.as_millis()).unwrap_or(u64::MAX),
            })
        } else {
            Ok(())
        }
    }
}

/// The service facade: one warm [`Explorer`], a default deadline, and
/// per-request telemetry. `Send + Sync`, so one handler serves every
/// connection thread of a daemon.
#[derive(Debug)]
pub struct RequestHandler {
    explorer: Explorer,
    default_deadline: Option<Duration>,
    metrics: HandlerMetrics,
}

impl RequestHandler {
    /// Wraps `explorer`, registering `serve.*` telemetry in
    /// `registry`. `default_deadline` bounds requests that carry no
    /// explicit budget; `None` means unbounded.
    #[must_use]
    pub fn new(
        explorer: Explorer,
        registry: &Registry,
        default_deadline: Option<Duration>,
    ) -> Self {
        Self {
            explorer,
            default_deadline,
            metrics: HandlerMetrics::registered(registry),
        }
    }

    /// The wrapped explorer (read-only: cache snapshots, metrics).
    #[must_use]
    pub fn explorer(&self) -> &Explorer {
        &self.explorer
    }

    /// Dispatches `request` under the handler's default deadline.
    ///
    /// # Errors
    ///
    /// Every typed [`Error`], including
    /// [`Error::DeadlineExceeded`] when the budget runs out between
    /// stages.
    pub fn handle(&self, request: &Request) -> Result<ResponsePayload, Error> {
        self.handle_with_deadline(request, self.default_deadline)
    }

    /// Dispatches `request` under an explicit budget (`None` for
    /// unbounded), overriding the handler default.
    ///
    /// # Errors
    ///
    /// Every typed [`Error`], including
    /// [`Error::DeadlineExceeded`] when the budget runs out between
    /// stages.
    pub fn handle_with_deadline(
        &self,
        request: &Request,
        deadline: Option<Duration>,
    ) -> Result<ResponsePayload, Error> {
        let _span = Span::enter(self.metrics.span.clone());
        self.metrics.requests.inc();
        self.metrics.count_kind(request.kind());
        let deadline = Deadline::start(deadline);
        let result = self.dispatch(request, &deadline);
        if let Err(error) = &result {
            self.metrics.errors.inc();
            if matches!(error, Error::DeadlineExceeded { .. }) {
                self.metrics.deadline_exceeded.inc();
            }
        }
        result
    }

    fn dispatch(&self, request: &Request, deadline: &Deadline) -> Result<ResponsePayload, Error> {
        match request {
            Request::Characterize { point } => {
                let config = point.to_config()?;
                deadline.check()?;
                let backend = self.explorer.backends().resolve(&config)?.name();
                let plan_hash = self.plan_hash(std::slice::from_ref(&config))?;
                let characterization = self.explorer.try_characterize(&config)?;
                deadline.check()?;
                Ok(ResponsePayload::Characterization {
                    label: config.label(),
                    backend,
                    plan_hash,
                    characterization,
                })
            }
            Request::Evaluate { point, benchmark } => {
                let config = point.to_config()?;
                deadline.check()?;
                let plan_hash = self.plan_hash(std::slice::from_ref(&config))?;
                let row = self.explorer.try_evaluate(&config, benchmark)?;
                deadline.check()?;
                Ok(ResponsePayload::Evaluation { plan_hash, row })
            }
            Request::Sweep => {
                let configs = MemoryConfig::study_set();
                let plan = self.explorer.plan_sweep(&configs)?;
                let plan_hash = plan.stable_hash();
                deadline.check()?;
                let mut arena = EvalArena::new();
                self.explorer.run(&plan, &mut arena);
                deadline.check()?;
                let rows = arena.to_rows();
                for row in &rows {
                    row.validate()?;
                }
                Ok(ResponsePayload::Sweep { plan_hash, rows })
            }
            Request::Search {
                tech,
                dies,
                temps,
                constraints,
            } => {
                let (region, configs) =
                    Self::search_region(tech.as_deref(), *dies, temps.as_deref())?;
                let plan_hash = self.plan_hash(&configs)?;
                deadline.check()?;
                let outcome = self.explorer.search(&region, &configs, constraints)?;
                deadline.check()?;
                Ok(ResponsePayload::Search {
                    region,
                    plan_hash,
                    outcome,
                })
            }
            Request::Status => Ok(ResponsePayload::Status(self.status())),
        }
    }

    /// The study region narrowed by the optional filters and expanded
    /// over the `temps` selector's temperatures, with its name
    /// (`study`, `study x pcm x 8 dies`, `study x 77:400 K`, ...).
    /// Filters that match nothing surface as
    /// [`Error::EmptySearchSpace`] from the search itself; invalid
    /// filter values fail here.
    fn search_region(
        tech: Option<&str>,
        dies: Option<u8>,
        temps: Option<&str>,
    ) -> Result<(String, Vec<MemoryConfig>), Error> {
        let mut configs = MemoryConfig::study_set();
        let mut region = vec!["study".to_string()];
        if let Some(name) = tech {
            let technology = MemoryConfig::parse_technology(name)?;
            configs.retain(|c| c.technology() == technology);
            region.push(name.to_string());
        }
        if let Some(dies) = dies {
            MemoryConfig::validate_dies(dies)?;
            configs.retain(|c| c.dies() == dies);
            region.push(format!("{dies} dies"));
        }
        if let Some(temps) = temps {
            let (ladder, name) = temperatures(temps)?;
            configs = configs
                .iter()
                .flat_map(|c| ladder.iter().map(|&t| c.clone().at_temperature(t)))
                .collect();
            region.push(name);
        }
        Ok((region.join(" x "), configs))
    }

    /// Stable hash of the plan over `configs` under the full SPEC2017
    /// suite — the key tying run-registry records back to the work
    /// that produced them.
    fn plan_hash(&self, configs: &[MemoryConfig]) -> Result<u64, Error> {
        Ok(SweepPlan::new(configs.to_vec())
            .compile(self.explorer.backends())?
            .stable_hash())
    }

    /// The current [`StatusReport`].
    #[must_use]
    pub fn status(&self) -> StatusReport {
        let cache = self.explorer.cache_metrics();
        StatusReport {
            cached_characterizations: self.explorer.cached_characterizations(),
            cached_geometries: self.explorer.geometry_cache().len(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_rejected: cache.rejected(),
            cache_approx_bytes: cache.approx_bytes(),
            geometry_solves: self.explorer.geometry_cache().solves(),
            requests_served: self.metrics.requests.get(),
        }
    }
}

/// The temperatures a search's `temps` selector names, with the
/// selector's part of the region name: `study` is the whole study
/// ladder, `lo:hi` the ladder inside the range (`77:400` walks all of
/// it), and a kelvin value that one temperature.
fn temperatures(temps: &str) -> Result<(Vec<Kelvin>, String), Error> {
    let invalid = |reason| Error::InvalidTemps {
        temps: temps.to_string(),
        reason,
    };
    let ladder = coldtall_cryo::study_temperatures();
    if temps == "study" {
        return Ok((ladder.to_vec(), "study temperatures".to_string()));
    }
    if let Some((lo, hi)) = temps.split_once(':') {
        let (Ok(lo), Ok(hi)) = (lo.parse::<f64>(), hi.parse::<f64>()) else {
            return Err(invalid("lo and hi must be kelvin values"));
        };
        if !(TEMPERATURE_WINDOW.contains(&lo) && TEMPERATURE_WINDOW.contains(&hi) && lo <= hi) {
            return Err(invalid("lo:hi needs 60 <= lo <= hi <= 400 kelvin"));
        }
        let inside: Vec<Kelvin> = ladder
            .iter()
            .copied()
            .filter(|t| (lo..=hi).contains(&t.get()))
            .collect();
        if inside.is_empty() {
            return Err(invalid(
                "no study temperature falls in that range (the ladder spans 77-387 K)",
            ));
        }
        return Ok((inside, format!("{temps} K")));
    }
    let kelvin: f64 = temps
        .parse()
        .map_err(|_| invalid("expected 'study', a kelvin value, or a lo:hi range"))?;
    if !TEMPERATURE_WINDOW.contains(&kelvin) {
        return Err(invalid("outside the modeled 60-400 K window"));
    }
    Ok((vec![Kelvin::try_new(kelvin)?], format!("{temps} K")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendRegistry;
    use crate::parcache::CacheConfig;
    use crate::plan::DesignPointKey;
    use coldtall_array::Objective;
    use coldtall_tech::ProcessNode;

    fn handler(registry: &Registry) -> RequestHandler {
        let explorer = Explorer::try_with_backends(
            ProcessNode::ptm_22nm_hp(),
            Objective::EnergyDelayProduct,
            BackendRegistry::with_defaults(),
            registry,
        )
        .expect("default backends cover the baseline");
        RequestHandler::new(explorer, registry, None)
    }

    #[test]
    fn characterize_matches_direct_explorer_call() {
        let registry = Registry::new();
        let handler = handler(&registry);
        let request = Request::Characterize {
            point: DesignPoint {
                tech: "pcm".to_string(),
                tentpole: "optimistic".to_string(),
                dies: 4,
                temperature_kelvin: 350.0,
            },
        };
        let ResponsePayload::Characterization {
            label,
            backend,
            characterization,
            ..
        } = handler.handle(&request).unwrap()
        else {
            panic!("characterize must answer with a characterization");
        };
        assert_eq!(label, "4-die PCM (optimistic)");
        assert_eq!(backend, "destiny");
        let config = MemoryConfig::try_design_point(
            "pcm",
            "optimistic",
            4,
            Kelvin::try_new(350.0).unwrap(),
        )
        .unwrap();
        let direct = handler.explorer().try_characterize(&config).unwrap();
        assert_eq!(
            characterization.read_latency.get().to_bits(),
            direct.read_latency.get().to_bits(),
            "handler and direct calls must agree bit-for-bit"
        );
    }

    #[test]
    fn evaluate_and_status_round_trip() {
        let registry = Registry::new();
        let handler = handler(&registry);
        let request = Request::Evaluate {
            point: DesignPoint::baseline(),
            benchmark: "namd".to_string(),
        };
        let ResponsePayload::Evaluation { row, .. } = handler.handle(&request).unwrap() else {
            panic!("evaluate must answer with an evaluation row");
        };
        assert!((row.relative_power - 1.0).abs() < 1e-9);

        let ResponsePayload::Status(status) = handler.handle(&Request::Status).unwrap() else {
            panic!("status must answer with a status report");
        };
        assert_eq!(status.requests_served, 2);
        assert!(status.cached_characterizations >= 1);
        assert_eq!(registry.counter_value("serve.requests"), Some(2));
        assert_eq!(registry.counter_value("serve.evaluate.requests"), Some(1));
        assert_eq!(registry.counter_value("serve.errors"), Some(0));
    }

    #[test]
    fn typed_errors_surface_and_count() {
        let registry = Registry::new();
        let handler = handler(&registry);
        let bad = Request::Evaluate {
            point: DesignPoint {
                tech: "flash".to_string(),
                ..DesignPoint::baseline()
            },
            benchmark: "namd".to_string(),
        };
        assert!(matches!(
            handler.handle(&bad).unwrap_err(),
            Error::UnknownTechnology { .. }
        ));
        let cold = Request::Characterize {
            point: DesignPoint {
                temperature_kelvin: 4.0,
                ..DesignPoint::baseline()
            },
        };
        assert!(matches!(
            handler.handle(&cold).unwrap_err(),
            Error::UnsupportedPoint { .. }
        ));
        assert_eq!(registry.counter_value("serve.errors"), Some(2));
    }

    #[test]
    fn zero_deadline_trips_before_dispatch() {
        let registry = Registry::new();
        let handler = handler(&registry);
        let err = handler
            .handle_with_deadline(&Request::Sweep, Some(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { budget_ms: 0, .. }));
        assert_eq!(registry.counter_value("serve.deadline_exceeded"), Some(1));
        // Status never takes the deadline path: it reads counters only.
        let ok = handler.handle_with_deadline(&Request::Status, Some(Duration::ZERO));
        assert!(ok.is_ok());
    }

    #[test]
    fn search_region_mirrors_the_cli_filters() {
        let (region, configs) = RequestHandler::search_region(Some("pcm"), Some(8), None).unwrap();
        assert_eq!(region, "study x pcm x 8 dies");
        assert_eq!(configs.len(), 2, "optimistic + pessimistic 8-die PCM");
        assert!(matches!(
            RequestHandler::search_region(Some("flash"), None, None),
            Err(Error::UnknownTechnology { .. })
        ));
        assert!(matches!(
            RequestHandler::search_region(None, Some(3), None),
            Err(Error::InvalidDieCount { dies: 3 })
        ));

        // `lo:hi` walks the ladder inside the range, config-major.
        let (region, configs) =
            RequestHandler::search_region(Some("stt-ram"), None, Some("77:400")).unwrap();
        assert_eq!(region, "study x stt-ram x 77:400 K");
        assert_eq!(configs, MemoryConfig::cryo_stt_study_set());
        let (region, configs) = RequestHandler::search_region(None, None, Some("study")).unwrap();
        assert_eq!(region, "study x study temperatures");
        assert_eq!(configs.len(), 31 * 8);
        let (region, configs) = RequestHandler::search_region(None, Some(4), Some("77")).unwrap();
        assert_eq!(region, "study x 4 dies x 77 K");
        assert!(configs.iter().all(|c| c.temperature() == Kelvin::LN2));

        for (temps, phrase) in [
            ("300:100", "60 <= lo <= hi <= 400"),
            ("20:300", "60 <= lo <= hi <= 400"),
            ("390:400", "no study temperature"),
            ("a:b", "kelvin values"),
            ("banana", "'study', a kelvin value, or a lo:hi range"),
            ("500", "60-400 K"),
            ("nan", "60-400 K"),
        ] {
            let err = RequestHandler::search_region(None, None, Some(temps)).unwrap_err();
            assert!(
                matches!(&err, Error::InvalidTemps { temps: t, .. } if t == temps),
                "{temps}: {err:?}"
            );
            assert!(err.to_string().contains(phrase), "{temps}: {err}");
        }
    }

    #[test]
    fn sweep_response_carries_the_study_plan_hash() {
        let registry = Registry::new();
        let handler = handler(&registry);
        let ResponsePayload::Sweep { plan_hash, rows } = handler.handle(&Request::Sweep).unwrap()
        else {
            panic!("sweep must answer with rows");
        };
        let expected = handler
            .explorer()
            .plan_sweep(&MemoryConfig::study_set())
            .unwrap()
            .stable_hash();
        assert_eq!(plan_hash, expected);
        assert_eq!(rows.len(), 31 * 23);
    }

    /// Regression: every characterization miss used to record its
    /// backend in an uncapped side map, even when the admission cap
    /// refused the cache entry, so one client sweeping temperatures
    /// grew the daemon's memory without bound despite `--cache-cap`.
    /// The routing map now answers for exactly the keys the cache
    /// holds.
    #[test]
    fn resolved_backends_are_bounded_by_the_cache_cap() {
        let registry = Registry::new();
        let explorer = Explorer::try_with_backends_configured(
            ProcessNode::ptm_22nm_hp(),
            Objective::EnergyDelayProduct,
            BackendRegistry::with_defaults(),
            &registry,
            &CacheConfig {
                capacity: Some(8),
                ..CacheConfig::default()
            },
        )
        .expect("default backends cover the baseline");
        let handler = RequestHandler::new(explorer, &registry, None);
        let points: Vec<DesignPoint> = (0..2000)
            .map(|i| DesignPoint {
                temperature_kelvin: 60.0 + f64::from(i) * 0.17,
                ..DesignPoint::baseline()
            })
            .collect();
        for point in &points {
            let request = Request::Characterize {
                point: point.clone(),
            };
            assert!(handler.handle(&request).is_ok());
        }
        let explorer = handler.explorer();
        let cached: Vec<String> = explorer
            .cached_entries()
            .into_iter()
            .map(|(key, _)| key.canonical().to_string())
            .collect();
        assert_eq!(cached.len(), 8, "the admission cap holds the cache at 8");
        let mut answered = 0;
        for point in &points {
            let key = DesignPointKey::of_config(&point.to_config().unwrap());
            let backend = explorer.resolved_backend(&key);
            assert_eq!(
                backend.is_some(),
                cached.iter().any(|c| c == key.canonical()),
                "resolved_backend must answer exactly for cached keys"
            );
            answered += usize::from(backend.is_some());
        }
        assert_eq!(answered, 8);
    }

    /// A serve `search` reaches the floor cache with any temperature,
    /// so the admission cap that bounds the characterization cache
    /// bounds it too. Refused floors are recomputed on the next probe,
    /// which costs work, never a different frontier.
    #[test]
    fn floor_cache_is_bounded_by_the_cache_cap() {
        let capped_registry = Registry::new();
        let capped = RequestHandler::new(
            Explorer::try_with_backends_configured(
                ProcessNode::ptm_22nm_hp(),
                Objective::EnergyDelayProduct,
                BackendRegistry::with_defaults(),
                &capped_registry,
                &CacheConfig {
                    capacity: Some(8),
                    ..CacheConfig::default()
                },
            )
            .expect("default backends cover the baseline"),
            &capped_registry,
            None,
        );
        let uncapped_registry = Registry::new();
        let uncapped = handler(&uncapped_registry);
        for i in 0..40 {
            let request = Request::Search {
                tech: Some("stt".to_string()),
                dies: None,
                temps: Some(format!("{}", 61 + 8 * i)),
                constraints: Constraints::none(),
            };
            let frontier = |handler: &RequestHandler| match handler.handle(&request) {
                Ok(ResponsePayload::Search {
                    region, outcome, ..
                }) => (region, outcome.frontier),
                other => panic!("search must answer with a frontier: {other:?}"),
            };
            assert_eq!(frontier(&capped), frontier(&uncapped), "{request:?}");
        }
        let entries = capped_registry.gauge("search.floor_cache.entries").get();
        assert!(
            entries <= 8,
            "the cap holds the floor cache at 8, got {entries}"
        );
        assert!(capped_registry.counter_value("search.floor_cache.rejected") > Some(0));
        assert_eq!(
            uncapped_registry.gauge("search.floor_cache.entries").get(),
            40 * 8,
            "uncapped, every (point, temperature) plane keeps its floors"
        );
    }
}
