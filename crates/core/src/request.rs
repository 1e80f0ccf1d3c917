//! Typed request/response facade over the [`Explorer`] for the
//! frontends.
//!
//! Both frontends speak to the engine exclusively through
//! [`RequestHandler`]: the `coldtall` CLI turns its flags into a
//! [`Request`] and renders the answer as text, and the serve daemon
//! parses a JSON line into one and renders the answer as JSON. Both
//! build the request through [`Request::from_fields`], the one field
//! table. The handler is a thin, `Send + Sync` dispatcher that owns one
//! warm [`Explorer`], enforces a cooperative per-request deadline, and
//! answers with typed payloads. Validation lives here and in
//! [`DesignPoint::to_config`], once, so the two frontends accept the
//! same inputs and refuse the rest with the same typed [`Error`] or
//! [`FieldError`].
//! Wire formats live in the frontends — this module knows nothing
//! about JSON or sockets, which is what keeps responses bit-identical
//! between a daemon round-trip and a direct library call: both render
//! the same [`ResponsePayload`] through the same renderer.
//!
//! Deadlines are cooperative: the handler checks the elapsed budget
//! between pipeline stages (once the request is validated, and once
//! its answer is computed), so work already dispatched runs to
//! completion and lands in the cache — a timed-out request wastes no
//! warmth. The study sweep is a constant of the handler: the first
//! `sweep` computes it and the handler keeps it. Every `sweep` checks
//! its budget before it reads the kept answer and again once the answer
//! is in hand; a first sweep whose budget runs out mid-computation
//! still keeps what it computed, and an [`Error::DeadlineExceeded`] is
//! never kept.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use coldtall_array::ArrayCharacterization;
use coldtall_obs::{Counter, Histogram, Registry, Span};
use coldtall_units::Kelvin;

use crate::backend::TEMPERATURE_SPAN_K;
use crate::batch::EvalArena;
use crate::config::MemoryConfig;
use crate::error::Error;
use crate::evaluate::LlcEvaluation;
use crate::explorer::Explorer;
use crate::pareto::Constraints;
use crate::plan::SweepPlan;
use crate::search::SearchOutcome;

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
        if !TEMPERATURE_SPAN_K.contains(&self.temperature_kelvin) {
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

    /// Builds the `cmd` request from its `(field, value)` pairs: the one
    /// request grammar. The wire names a field by its JSON key, the CLI
    /// by its flag with `_` spelled `-` (`--max-latency`). The defaults
    /// below and the `match` in `read` are the field table: a field left
    /// out keeps its default, and reading checks a value's form only.
    /// Names, die counts and temperature ranges are
    /// [`DesignPoint::to_config`]'s checks and the region builder's. Each
    /// frontend refuses a repeated field before it calls this: the CLI's
    /// option grammar and JSON's object grammar both do.
    ///
    /// # Errors
    ///
    /// A [`FieldError`] for the first refused field, in the order given.
    pub fn from_fields(cmd: &str, fields: &[(&str, FieldValue<'_>)]) -> Result<Self, FieldError> {
        let refused = |field: &str, problem| FieldError {
            field: field.to_string(),
            problem,
        };
        // The 350 K 2D SRAM reference.
        let point = || DesignPoint {
            tech: "sram".to_string(),
            tentpole: "optimistic".to_string(),
            dies: 1,
            temperature_kelvin: 350.0,
        };
        let mut request = match cmd {
            "characterize" => Self::Characterize { point: point() },
            "evaluate" => Self::Evaluate {
                point: point(),
                benchmark: "namd".to_string(),
            },
            "sweep" => Self::Sweep,
            "search" => Self::Search {
                tech: None,
                dies: None,
                temps: None,
                constraints: Constraints::none(),
            },
            "status" => Self::Status,
            _ => return Err(refused(cmd, FieldProblem::UnknownCommand)),
        };
        for &(field, value) in fields {
            request
                .read(field, value)
                .map_err(|problem| refused(field, problem))?;
        }
        Ok(request)
    }

    /// Reads one field into the request, by the command's row.
    fn read(&mut self, field: &str, value: FieldValue<'_>) -> Result<(), FieldProblem> {
        match (self, field) {
            (Self::Evaluate { benchmark, .. }, "bench") => *benchmark = value.text()?,
            (Self::Characterize { point } | Self::Evaluate { point, .. }, _) => match field {
                "tech" => point.tech = value.text()?,
                "tentpole" => point.tentpole = value.text()?,
                "dies" => point.dies = value.dies()?,
                "temp" => point.temperature_kelvin = value.finite()?,
                _ => return Err(FieldProblem::Unknown),
            },
            (Self::Search { tech, .. }, "tech") => *tech = Some(value.text()?),
            (Self::Search { dies, .. }, "dies") => *dies = Some(value.dies()?),
            (Self::Search { temps, .. }, "temps") => *temps = Some(value.text()?),
            (Self::Search { constraints: c, .. }, _) => match field {
                "max_latency" => c.max_relative_latency = value.cap()?,
                "max_area" => c.max_area_mm2 = Some(value.cap()?),
                "min_lifetime" => c.min_lifetime_years = value.cap()?,
                "max_power" => c.max_relative_power = Some(value.cap()?),
                _ => return Err(FieldProblem::Unknown),
            },
            _ => return Err(FieldProblem::Unknown),
        }
        Ok(())
    }
}

/// A request field's value as a frontend received it: CLI text, or a
/// JSON string or number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// Text. A numeric field reads it by JSON's number grammar, so `4.0`
    /// and `1e2` are numbers and `+4`, `inf` and `nan` are not.
    Text(&'a str),
    /// A number.
    Number(f64),
}

impl FieldValue<'_> {
    /// The value as a name: a technology, tentpole, benchmark or
    /// `temps` selector.
    fn text(self) -> Result<String, FieldProblem> {
        match self {
            Self::Text(text) => Ok(text.to_string()),
            Self::Number(_) => Err(FieldProblem::NotText),
        }
    }

    /// The value as a finite number, which is all a temperature must be.
    fn finite(self) -> Result<f64, FieldProblem> {
        match self {
            Self::Text(text) => coldtall_obs::json::parse(text).map_or(None, |v| v.as_f64()),
            Self::Number(n) => Some(n),
        }
        .filter(|n| n.is_finite())
        .ok_or(FieldProblem::NotFinite)
    }

    /// The value as a die count: an integer-valued number (`4.0` is 4)
    /// that fits a `u8`.
    fn dies(self) -> Result<u8, FieldProblem> {
        match self.finite() {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Ok(n) if n.fract() == 0.0 && (0.0..=255.0).contains(&n) => Ok(n as u8),
            _ => Err(FieldProblem::NotDieCount),
        }
    }

    /// The value as a constraint cap: a finite number, at least 0.
    fn cap(self) -> Result<f64, FieldProblem> {
        match self.finite()? {
            n if n < 0.0 => Err(FieldProblem::Negative),
            n => Ok(n),
        }
    }
}

/// What is wrong with a request field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldProblem {
    /// No request kind has this name.
    UnknownCommand,
    /// The command takes no field of this name.
    Unknown,
    /// A number where a name belongs.
    NotText,
    /// Not a finite number.
    NotFinite,
    /// Not an integer from 0 to 255.
    NotDieCount,
    /// A cap below zero.
    Negative,
}

/// A field [`Request::from_fields`] refused, and why. Each frontend
/// words it: `bad --max-latency value`, `'max_latency' must be a finite
/// number`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The field as the frontend named it; the command, for
    /// [`FieldProblem::UnknownCommand`].
    pub field: String,
    /// What is wrong with it.
    pub problem: FieldProblem,
}

/// The typed answer to one [`Request`].
#[derive(Debug, Clone)]
pub enum ResponsePayload {
    /// Answer to [`Request::Characterize`].
    Characterization {
        /// Paper-style label of the configuration.
        label: String,
        /// Name of the backend the point resolved to.
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
        /// Every evaluation row, as the columns [`Explorer::run`]
        /// filled, in (configuration x benchmark) order. A frontend
        /// reads or renders the columns; [`EvalArena::row`]
        /// materializes one row where a caller needs an
        /// [`LlcEvaluation`]. The handler keeps this one arena and
        /// answers every sweep with it.
        arena: Arc<EvalArena>,
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
    /// Sweeps answered from the kept study sweep.
    sweep_memo_hits: Arc<Counter>,
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
            sweep_memo_hits: registry.counter("serve.sweep.memo_hits"),
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

/// The study sweep a handler keeps: the plan hash and the validated
/// arena, or the typed error computing them returned.
type StudySweep = Result<(u64, Arc<EvalArena>), Error>;

/// The service facade: one warm [`Explorer`], a default deadline, and
/// per-request telemetry. `Send + Sync`, so one handler serves every
/// connection thread of a daemon.
#[derive(Debug)]
pub struct RequestHandler {
    explorer: Explorer,
    default_deadline: Option<Duration>,
    metrics: HandlerMetrics,
    /// The study sweep, computed by the first `sweep` request. The
    /// study grid is fixed, so every later sweep answers from it.
    sweep: OnceLock<StudySweep>,
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
            sweep: OnceLock::new(),
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
                let characterization = self.explorer.try_characterize(&config)?;
                deadline.check()?;
                Ok(ResponsePayload::Characterization {
                    label: config.label(),
                    backend,
                    plan_hash: SweepPlan::new(vec![config]).stable_hash(),
                    characterization,
                })
            }
            Request::Evaluate { point, benchmark } => {
                let config = point.to_config()?;
                deadline.check()?;
                // Resolved first, so a point no backend admits fails
                // before the benchmark lookup or any cache probe.
                self.explorer.backends().resolve(&config)?;
                let row = self.explorer.try_evaluate(&config, benchmark)?;
                deadline.check()?;
                Ok(ResponsePayload::Evaluation {
                    plan_hash: SweepPlan::new(vec![config]).stable_hash(),
                    row,
                })
            }
            Request::Sweep => {
                deadline.check()?;
                let (plan_hash, arena) = self.study_sweep()?;
                deadline.check()?;
                Ok(ResponsePayload::Sweep { plan_hash, arena })
            }
            Request::Search {
                tech,
                dies,
                temps,
                constraints,
            } => {
                let (region, configs) =
                    Self::search_region(tech.as_deref(), *dies, temps.as_deref())?;
                deadline.check()?;
                let outcome = self.explorer.search(&region, &configs, constraints)?;
                deadline.check()?;
                Ok(ResponsePayload::Search {
                    region,
                    plan_hash: SweepPlan::new(configs).stable_hash(),
                    outcome,
                })
            }
            Request::Status => Ok(ResponsePayload::Status(self.status())),
        }
    }

    /// The study sweep: planned, run and validated by the first call,
    /// and kept. Callers that race the first call wait for it and count
    /// a `serve.sweep.memo_hits`, as every later call does; the
    /// explorer's sweep counters move only for the call that computes.
    fn study_sweep(&self) -> StudySweep {
        let mut computed = false;
        let kept = self.sweep.get_or_init(|| {
            computed = true;
            let plan = self.explorer.plan_sweep(&MemoryConfig::study_set())?;
            let mut arena = EvalArena::new();
            self.explorer.run(&plan, &mut arena);
            arena.validate()?;
            Ok((plan.stable_hash(), Arc::new(arena)))
        });
        if !computed {
            self.metrics.sweep_memo_hits.inc();
        }
        kept.clone()
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
        if !(TEMPERATURE_SPAN_K.contains(&lo) && TEMPERATURE_SPAN_K.contains(&hi) && lo <= hi) {
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
    if !TEMPERATURE_SPAN_K.contains(&kelvin) {
        return Err(invalid("outside the modeled 60-400 K window"));
    }
    Ok((vec![Kelvin::try_new(kelvin)?], format!("{temps} K")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parcache::CacheConfig;
    use crate::plan::DesignPointKey;
    use coldtall_array::Objective;
    use coldtall_tech::ProcessNode;

    /// The design point of a request that names no field.
    fn baseline() -> DesignPoint {
        match Request::from_fields("characterize", &[]) {
            Ok(Request::Characterize { point }) => point,
            other => panic!("characterize builds a point: {other:?}"),
        }
    }

    /// A field left out takes the table's default: the 350 K 2D SRAM
    /// reference point, `namd`, and no search filter or cap.
    #[test]
    fn fields_left_out_take_the_table_defaults() {
        let point = baseline();
        assert_eq!(
            (point.tech.as_str(), point.tentpole.as_str(), point.dies),
            ("sram", "optimistic", 1)
        );
        assert_eq!(point.temperature_kelvin.to_bits(), 350.0_f64.to_bits());
        assert_eq!(
            Request::from_fields("evaluate", &[("dies", FieldValue::Number(4.0))]),
            Ok(Request::Evaluate {
                point: DesignPoint { dies: 4, ..point },
                benchmark: "namd".to_string(),
            })
        );
        assert_eq!(
            Request::from_fields("search", &[]),
            Ok(Request::Search {
                tech: None,
                dies: None,
                temps: None,
                constraints: Constraints::none(),
            })
        );
    }

    fn handler(registry: &Registry) -> RequestHandler {
        let explorer = Explorer::with_registry(
            ProcessNode::ptm_22nm_hp(),
            Objective::EnergyDelayProduct,
            registry,
        );
        RequestHandler::new(explorer, registry, None)
    }

    /// [`handler`] with the admission cap at `cap` entries.
    fn capped_handler(registry: &Registry, cap: usize) -> RequestHandler {
        let explorer = Explorer::configured(
            ProcessNode::ptm_22nm_hp(),
            Objective::EnergyDelayProduct,
            registry,
            &CacheConfig {
                capacity: Some(cap),
            },
        );
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
        let config =
            MemoryConfig::try_design_point("pcm", "optimistic", 4, Kelvin::try_new(350.0).unwrap())
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
            point: baseline(),
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

    /// Every [`Error`] variant a request can raise has a request here
    /// that raises it. The names come from a `match` with no `_` arm,
    /// so a new variant does not compile until someone names a request
    /// for it. [`Error::NonFinite`] is the one variant with no request:
    /// it guards the invariant that no model output is NaN, so a
    /// request that raised it would be a model bug.
    #[test]
    fn every_request_error_variant_has_a_request_that_raises_it() {
        let registry = Registry::new();
        let handler = handler(&registry);
        let characterize =
            |tech: &str, tentpole: &str, dies: u8, temperature_kelvin: f64| Request::Characterize {
                point: DesignPoint {
                    tech: tech.to_string(),
                    tentpole: tentpole.to_string(),
                    dies,
                    temperature_kelvin,
                },
            };
        let search = |tech: Option<&str>, dies: Option<u8>, temps: Option<&str>| Request::Search {
            tech: tech.map(String::from),
            dies,
            temps: temps.map(String::from),
            constraints: Constraints::none(),
        };
        let doom = Request::Evaluate {
            point: baseline(),
            benchmark: "doom".to_string(),
        };
        // The last request runs under a zero budget; the rest have none.
        let cases = [
            ("InvalidTemperature", characterize("sram", "opt", 1, 0.0)),
            ("UnsupportedPoint", characterize("sram", "opt", 1, 20.0)),
            ("InvalidDieCount", characterize("pcm", "opt", 3, 350.0)),
            ("UnknownTechnology", characterize("flash", "opt", 1, 350.0)),
            ("UnknownTentpole", characterize("pcm", "hopeful", 1, 350.0)),
            ("UnknownBenchmark", doom),
            ("NoBackend", characterize("edram", "opt", 8, 350.0)),
            ("EmptySearchSpace", search(Some("edram"), Some(8), None)),
            ("InvalidTemps", search(None, None, Some("banana"))),
            ("DeadlineExceeded", Request::Sweep),
        ];
        for (expected, request) in &cases {
            let deadline = (*expected == "DeadlineExceeded").then_some(Duration::ZERO);
            let error = handler
                .handle_with_deadline(request, deadline)
                .expect_err(expected);
            let raised = match error {
                Error::InvalidTemperature(_) => "InvalidTemperature",
                Error::InvalidDieCount { .. } => "InvalidDieCount",
                Error::UnknownTechnology { .. } => "UnknownTechnology",
                Error::UnknownBenchmark { .. } => "UnknownBenchmark",
                Error::NonFinite { .. } => "NonFinite",
                Error::NoBackend { .. } => "NoBackend",
                Error::EmptySearchSpace { .. } => "EmptySearchSpace",
                Error::UnknownTentpole { .. } => "UnknownTentpole",
                Error::UnsupportedPoint { .. } => "UnsupportedPoint",
                Error::InvalidTemps { .. } => "InvalidTemps",
                Error::DeadlineExceeded { .. } => "DeadlineExceeded",
            };
            assert_eq!(raised, *expected, "{request:?}");
        }
        assert_eq!(registry.counter_value("serve.errors"), Some(10));
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

    /// Every answer carries the hash of the compiled plan over its
    /// configurations, although only the sweep compiles one: the
    /// point and search answers hash the uncompiled plan.
    #[test]
    fn sweep_response_carries_the_study_plan_hash() {
        let registry = Registry::new();
        let handler = handler(&registry);
        let compiled = |configs: &[MemoryConfig]| {
            handler
                .explorer()
                .plan_sweep(configs)
                .unwrap()
                .stable_hash()
        };
        let ResponsePayload::Sweep { plan_hash, arena } = handler.handle(&Request::Sweep).unwrap()
        else {
            panic!("sweep must answer with rows");
        };
        assert_eq!(plan_hash, compiled(&MemoryConfig::study_set()));
        assert_eq!(arena.rows(), 31 * 23);

        let point = DesignPoint {
            tech: "pcm".to_string(),
            dies: 4,
            ..baseline()
        };
        let config = point.to_config().unwrap();
        let characterize = Request::Characterize {
            point: point.clone(),
        };
        let Ok(ResponsePayload::Characterization { plan_hash, .. }) = handler.handle(&characterize)
        else {
            panic!("characterize must answer with a characterization");
        };
        assert_eq!(plan_hash, compiled(std::slice::from_ref(&config)));
        let evaluate = Request::Evaluate {
            point,
            benchmark: "mcf".to_string(),
        };
        let Ok(ResponsePayload::Evaluation { plan_hash, .. }) = handler.handle(&evaluate) else {
            panic!("evaluate must answer with an evaluation row");
        };
        assert_eq!(plan_hash, compiled(std::slice::from_ref(&config)));

        let (_, region) = RequestHandler::search_region(Some("stt"), None, Some("77:400")).unwrap();
        let search = Request::Search {
            tech: Some("stt".to_string()),
            dies: None,
            temps: Some("77:400".to_string()),
            constraints: Constraints::none(),
        };
        let Ok(ResponsePayload::Search { plan_hash, .. }) = handler.handle(&search) else {
            panic!("search must answer with a frontier");
        };
        assert_eq!(plan_hash, compiled(&region));
    }

    /// The study sweep is computed once per handler. Two threads racing
    /// the first sweep get the same kept arena, the explorer runs the
    /// study once, and the thread that waited counts a memo hit. A
    /// spent budget still fails a later sweep and is never kept.
    #[test]
    fn racing_first_sweeps_compute_the_study_once() {
        let registry = Registry::new();
        let handler = handler(&registry);
        let sweep = |deadline| match handler.handle_with_deadline(&Request::Sweep, deadline) {
            Ok(ResponsePayload::Sweep { arena, .. }) => Ok(arena),
            Ok(_) => panic!("sweep must answer with rows"),
            Err(error) => Err(error),
        };
        let start = std::sync::Barrier::new(2);
        let arenas: Vec<Arc<EvalArena>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        sweep(None).expect("the study sweep answers")
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|racer| racer.join().expect("sweep thread"))
                .collect()
        });
        assert!(Arc::ptr_eq(&arenas[0], &arenas[1]));
        assert_eq!(registry.counter_value("sweep.rows"), Some(31 * 23));
        assert_eq!(registry.counter_value("serve.sweep.memo_hits"), Some(1));

        assert!(matches!(
            sweep(Some(Duration::ZERO)),
            Err(Error::DeadlineExceeded { budget_ms: 0, .. })
        ));
        let arena = sweep(None).expect("the kept sweep answers");
        assert!(Arc::ptr_eq(&arena, &arenas[0]));
        assert_eq!(registry.counter_value("sweep.rows"), Some(31 * 23));
        assert_eq!(registry.counter_value("serve.sweep.memo_hits"), Some(2));
        assert_eq!(registry.counter_value("serve.sweep.requests"), Some(4));
    }

    /// One scope rule: every row a search puts on its frontier is a
    /// point query's answer, bit for bit. The 77 K 4-die frontier holds
    /// stacked SRAM off the 350 K reference, which `evaluate` answers
    /// like any other point the dispatch rule admits.
    #[test]
    fn every_frontier_row_answers_as_a_point_query() {
        let registry = Registry::new();
        let handler = handler(&registry);
        let search = Request::Search {
            tech: None,
            dies: Some(4),
            temps: Some("77".to_string()),
            constraints: Constraints::none(),
        };
        let Ok(ResponsePayload::Search { outcome, .. }) = handler.handle(&search) else {
            panic!("search must answer with a frontier");
        };
        assert!(
            outcome
                .frontier
                .iter()
                .any(|row| row.config_label == "77K 4-die SRAM"),
            "{:?}",
            outcome.frontier
        );
        let (_, region) = RequestHandler::search_region(None, Some(4), Some("77")).unwrap();
        for row in &outcome.frontier {
            let config = region
                .iter()
                .find(|config| config.label() == row.config_label)
                .expect("every frontier row names a region configuration");
            let evaluate = Request::Evaluate {
                point: DesignPoint {
                    tech: config.technology().name().to_lowercase(),
                    tentpole: config.tentpole().to_string(),
                    dies: config.dies(),
                    temperature_kelvin: config.temperature().get(),
                },
                benchmark: row.benchmark.to_string(),
            };
            match handler.handle(&evaluate) {
                Ok(ResponsePayload::Evaluation { row: answer, .. }) => assert_eq!(&answer, row),
                other => panic!("{evaluate:?} must answer with a row: {other:?}"),
            }
        }
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
        let handler = capped_handler(&registry, 8);
        let points: Vec<DesignPoint> = (0..2000)
            .map(|i| DesignPoint {
                temperature_kelvin: 60.0 + f64::from(i) * 0.17,
                ..baseline()
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
        let capped = capped_handler(&capped_registry, 8);
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

    /// The geometry cache is temperature-stripped, so a client can name
    /// only 29 of its keys: SRAM at 1/2/4/8 dies, 3T-eDRAM at 1 die,
    /// and PCM/STT/RRAM x 2 tentpoles x 4 die counts. It holds at most
    /// min(cap, 29) entries; a refused geometry is solved again on the
    /// next miss, which costs work, never a different answer.
    #[test]
    fn geometry_cache_is_bounded_by_the_cache_cap() {
        let capped_registry = Registry::new();
        let capped = capped_handler(&capped_registry, 8);
        let uncapped = handler(&Registry::new());
        for config in MemoryConfig::study_set() {
            for temperature_kelvin in [config.temperature().get(), 77.0] {
                let point = DesignPoint {
                    tech: config.technology().name().to_lowercase(),
                    tentpole: config.tentpole().to_string(),
                    dies: config.dies(),
                    temperature_kelvin,
                };
                let request = Request::Characterize { point };
                let answer = |handler: &RequestHandler| match handler.handle(&request) {
                    Ok(ResponsePayload::Characterization {
                        label,
                        backend,
                        characterization,
                        ..
                    }) => (label, backend, characterization),
                    other => panic!("characterize must answer with a characterization: {other:?}"),
                };
                assert_eq!(answer(&capped), answer(&uncapped), "{request:?}");
            }
        }
        let geometries = capped.explorer().geometry_cache().len();
        assert!(
            geometries <= 8,
            "the cap holds the geometry cache at 8, got {geometries}"
        );
        assert!(capped_registry.counter_value("geometry.rejected") > Some(0));
        assert_eq!(
            uncapped.explorer().geometry_cache().len(),
            29,
            "uncapped, every nameable geometry key is cached once"
        );
    }
}
