//! Monte-Carlo variation analysis between the tentpoles.
//!
//! The tentpole methodology bounds each technology by its field-wise
//! best and worst published characteristics; real devices land
//! somewhere in between. This module samples synthetic cells
//! log-uniformly between the tentpole extrema (independently per field,
//! matching the tentpoles' own field-wise construction), characterizes
//! each sample, and reports percentile bands — turning the paper's
//! two-point envelopes into distributions.
//!
//! [`monte_carlo`] is coldtall's one fan-out: every sample of a study,
//! across all its cases, is characterized in one pass over scoped
//! threads. [`max_threads`] sizes it (the [`set_max_threads`]
//! override, else `COLDTALL_THREADS`, else the host's parallelism), and
//! it reports through the global registry: `pool.tasks` advances by
//! the sample count whether the samples run inline or not, and each
//! worker records one `pool.worker.busy` and one `pool.worker.idle`
//! sample per fan-out.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Instant;

use coldtall_array::{ArrayCharacterization, ArraySpec, Objective};
use coldtall_cell::{CellModel, MemoryTechnology, SurveyEntry, Tentpole};
use coldtall_obs::{Counter, Histogram, Span};
use coldtall_rng::SmallRng;
use coldtall_tech::ProcessNode;

/// Explicit thread-count override; 0 when unset ([`set_max_threads`]).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The fan-out's process-wide state, resolved once: the thread count
/// the environment or the host gives, and the `pool.*` handles in the
/// global registry. Resolving both together is what lets the CLI
/// register the `pool.*` metrics and warn about a bad `COLDTALL_THREADS`
/// with one call at start-up, whether or not the command fans out.
struct FanOut {
    /// `COLDTALL_THREADS`, else the host's available parallelism.
    detected: usize,
    /// Samples characterized, inline or not (`pool.tasks`).
    tasks: Arc<Counter>,
    /// Per-worker time spent characterizing (`pool.worker.busy`).
    busy: Arc<Histogram>,
    /// Per-worker time from its finish to the end of the fan-out
    /// (`pool.worker.idle`).
    idle: Arc<Histogram>,
}

fn fan_out() -> &'static FanOut {
    static FAN_OUT: OnceLock<FanOut> = OnceLock::new();
    FAN_OUT.get_or_init(|| {
        let registry = coldtall_obs::global();
        FanOut {
            detected: detect_threads(),
            tasks: registry.counter("pool.tasks"),
            busy: registry.span("pool.worker.busy"),
            idle: registry.span("pool.worker.idle"),
        }
    })
}

/// `COLDTALL_THREADS` if it is a positive integer, else the host's
/// available parallelism. Runs once per process (inside [`fan_out`]'s
/// `OnceLock`), so an invalid value warns exactly once.
fn detect_threads() -> usize {
    let available = || thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let raw = match std::env::var("COLDTALL_THREADS") {
        Ok(raw) => raw,
        Err(std::env::VarError::NotPresent) => return available(),
        Err(std::env::VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
    };
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            warn_invalid_threads(&raw);
            available()
        }
    }
}

// The workspace denies `print_stderr` in libraries, but this is the one
// place a library-level diagnostic is the right tool: the user asked
// for a thread count and is getting auto-detection instead, the
// fallback happens once per process, and redirected stdout artifacts
// must stay clean (stderr is the diagnostics channel).
#[allow(clippy::print_stderr)]
fn warn_invalid_threads(raw: &str) {
    eprintln!(
        "warning: ignoring invalid COLDTALL_THREADS={raw:?} (expected a positive \
         integer); auto-detecting the thread count instead"
    );
}

/// The number of threads [`monte_carlo`] fans out over (at most one
/// per sample).
///
/// Resolution order: the [`set_max_threads`] override, then the
/// `COLDTALL_THREADS` environment variable (read once; an invalid value
/// warns once and falls back), then
/// [`std::thread::available_parallelism`]. Always at least 1. The first
/// call also registers the fan-out's `pool.*` metrics in the global
/// registry.
#[must_use]
pub fn max_threads() -> usize {
    let detected = fan_out().detected;
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => detected,
        n => n,
    }
}

/// Overrides the thread count process-wide (`0` restores the
/// environment or auto-detection). Tests pin a width through it, and
/// `serve --threads` installs the daemon's.
pub fn set_max_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Percentile summary of one metric across the sampled population,
/// relative to the 350 K 2D SRAM baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricBand {
    /// 5th percentile.
    pub p5: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// The variation study's result for one (technology, die count).
#[derive(Debug, Clone, PartialEq)]
pub struct VariationSummary {
    /// Technology sampled.
    pub technology: MemoryTechnology,
    /// Die count.
    pub dies: u8,
    /// Samples drawn.
    pub samples: usize,
    /// Read latency relative to the SRAM baseline.
    pub read_latency: MetricBand,
    /// Write latency relative to the SRAM baseline.
    pub write_latency: MetricBand,
    /// Read energy relative to the SRAM baseline.
    pub read_energy: MetricBand,
    /// Footprint relative to the SRAM baseline.
    pub area: MetricBand,
}

fn log_uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    if (hi - lo).abs() < 1e-12 {
        return lo;
    }
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    (rng.gen_f64() * (hi.ln() - lo.ln()) + lo.ln()).exp()
}

/// Draws `n` synthetic survey entries between the technology's tentpole
/// extrema (log-uniform, independent per field).
///
/// # Panics
///
/// Panics for technologies without survey entries (SRAM, the eDRAMs).
#[must_use]
pub fn sample_cells(
    technology: MemoryTechnology,
    n: usize,
    seed: u64,
    node: &ProcessNode,
) -> Vec<CellModel> {
    let opt = Tentpole::Optimistic
        .bounding_entry(technology)
        .expect("variation sampling needs a surveyed technology");
    let pess = Tentpole::Pessimistic
        .bounding_entry(technology)
        .expect("variation sampling needs a surveyed technology");
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let entry = SurveyEntry {
                id: "monte-carlo-sample",
                year: opt.year,
                venue: opt.venue,
                technology,
                cell_area_f2: log_uniform(&mut rng, opt.cell_area_f2, pess.cell_area_f2),
                read_sense_ns: log_uniform(&mut rng, opt.read_sense_ns, pess.read_sense_ns),
                read_energy_pj: log_uniform(&mut rng, opt.read_energy_pj, pess.read_energy_pj),
                write_latency_ns: log_uniform(
                    &mut rng,
                    opt.write_latency_ns,
                    pess.write_latency_ns,
                ),
                write_energy_pj: log_uniform(&mut rng, opt.write_energy_pj, pess.write_energy_pj),
                endurance_writes: log_uniform(
                    &mut rng,
                    pess.endurance_writes,
                    opt.endurance_writes,
                ),
                retention_years: opt.retention_years.min(pess.retention_years),
                mlc_bits: 1,
            };
            CellModel::from_survey(&entry, node)
        })
        .collect()
}

fn band(mut values: Vec<f64>) -> MetricBand {
    values.sort_by(f64::total_cmp);
    let pick = |q: f64| {
        let idx = ((values.len() - 1) as f64 * q).round() as usize;
        values[idx]
    };
    MetricBand {
        p5: pick(0.05),
        p50: pick(0.50),
        p95: pick(0.95),
    }
}

/// Runs the Monte-Carlo study over `cases`, each a `(technology, dies,
/// seed)` triple: `samples` synthetic cells of the technology, drawn
/// from the case's own seeded RNG ([`sample_cells`]) and stacked on
/// `dies` dies, each characterized at 350 K and normalized to the 2D
/// SRAM baseline. Returns one summary per case, in case order; a
/// single case is a one-element slice.
///
/// The baseline is characterized once per call. Every sample of every
/// case — one organization search per sampled cell — is characterized
/// in one fan-out ([`max_threads`] wide). The samples are distinct
/// devices, so nothing dedups and nothing touches a cache.
///
/// # Panics
///
/// Panics if `samples` is zero or a technology has no survey.
#[must_use]
pub fn monte_carlo(cases: &[(MemoryTechnology, u8, u64)], samples: usize) -> Vec<VariationSummary> {
    assert!(samples > 0, "need at least one sample");
    let node = ProcessNode::ptm_22nm_hp();
    let objective = Objective::EnergyDelayProduct;
    let baseline = ArraySpec::llc_16mib(CellModel::sram(&node), &node).characterize(objective);

    let drawn: Vec<(CellModel, u8)> = cases
        .iter()
        .flat_map(|&(technology, dies, seed)| {
            sample_cells(technology, samples, seed, &node)
                .into_iter()
                .map(move |cell| (cell, dies))
        })
        .collect();
    let characterized = characterize_samples(&drawn, |(cell, dies)| {
        let mut spec = ArraySpec::llc_16mib(cell.clone(), &node);
        if *dies > 1 {
            spec = spec.with_dies(*dies);
        }
        spec.characterize(objective)
    });
    cases
        .iter()
        .zip(characterized.chunks(samples))
        .map(|(&(technology, dies, _), arrays)| {
            let relative = |ratio: &dyn Fn(&ArrayCharacterization) -> f64| {
                band(arrays.iter().map(ratio).collect())
            };
            VariationSummary {
                technology,
                dies,
                samples,
                read_latency: relative(&|a| a.read_latency / baseline.read_latency),
                write_latency: relative(&|a| a.write_latency / baseline.write_latency),
                read_energy: relative(&|a| a.read_energy / baseline.read_energy),
                area: relative(&|a| a.footprint / baseline.footprint),
            }
        })
        .collect()
}

/// `characterize` over every drawn sample, in index order.
///
/// With `t = max_threads().min(n)` above 1, `t` workers (worker 0 on
/// the calling thread, the others on scoped threads) each claim the
/// next unclaimed sample index from one shared counter until none is
/// left, and the results are put back in index order; otherwise the
/// samples run inline. A worker that starts late claims fewer samples
/// rather than holding a fixed share the others wait on.
fn characterize_samples(
    drawn: &[(CellModel, u8)],
    characterize: impl Fn(&(CellModel, u8)) -> ArrayCharacterization + Sync,
) -> Vec<ArrayCharacterization> {
    let fan_out = fan_out();
    fan_out.tasks.add(drawn.len() as u64);
    let threads = max_threads().min(drawn.len());
    if threads <= 1 {
        return drawn.iter().map(characterize).collect();
    }
    let characterize = &characterize;
    let next = &AtomicUsize::new(0);
    // The samples one worker claimed, by index, and when it ran out.
    let work = move || -> (Vec<(usize, ArrayCharacterization)>, Instant) {
        let mut claimed = Vec::with_capacity(drawn.len().div_ceil(threads));
        {
            let _busy = Span::enter(fan_out.busy.clone());
            loop {
                // `Relaxed` is enough: the counter publishes no data, and
                // each result reaches the caller through its worker's join.
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(sample) = drawn.get(index) else {
                    break;
                };
                claimed.push((index, characterize(sample)));
            }
        }
        (claimed, Instant::now())
    };
    // The calling thread is worker 0, so `t - 1` threads spawn.
    let workers = thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut workers = vec![work()];
        workers.extend(spawned.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        workers
    });
    let ended = Instant::now();
    let mut parts: Vec<_> = workers
        .into_iter()
        .map(|(claimed, finished)| {
            let idle = ended.saturating_duration_since(finished).as_nanos();
            fan_out.idle.record(u64::try_from(idle).unwrap_or(u64::MAX));
            claimed.into_iter().peekable()
        })
        .collect();
    // Each worker claimed its indices in increasing order, so sample
    // `i` is at the front of exactly one part when its turn comes.
    (0..drawn.len())
        .map(|i| {
            parts
                .iter_mut()
                .find_map(|part| part.next_if(|&(index, _)| index == i))
                .map(|(_, array)| array)
                .expect("every sample index is claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tentpole_metric(technology: MemoryTechnology, tentpole: Tentpole, dies: u8) -> (f64, f64) {
        let node = ProcessNode::ptm_22nm_hp();
        let objective = Objective::EnergyDelayProduct;
        let baseline = ArraySpec::llc_16mib(CellModel::sram(&node), &node).characterize(objective);
        let mut spec =
            ArraySpec::llc_16mib(CellModel::tentpole(technology, tentpole, &node), &node);
        if dies > 1 {
            spec = spec.with_dies(dies);
        }
        let a = spec.characterize(objective);
        (
            a.read_latency / baseline.read_latency,
            a.footprint / baseline.footprint,
        )
    }

    #[test]
    fn samples_are_bounded_by_the_tentpoles() {
        let summary = &monte_carlo(&[(MemoryTechnology::Pcm, 1, 7)], 40)[0];
        let (opt_lat, opt_area) = tentpole_metric(MemoryTechnology::Pcm, Tentpole::Optimistic, 1);
        let (pess_lat, pess_area) =
            tentpole_metric(MemoryTechnology::Pcm, Tentpole::Pessimistic, 1);
        assert!(summary.read_latency.p5 >= opt_lat * 0.99);
        assert!(summary.read_latency.p95 <= pess_lat * 1.01);
        assert!(summary.area.p5 >= opt_area * 0.99);
        assert!(summary.area.p95 <= pess_area * 1.01);
    }

    #[test]
    fn percentiles_are_ordered() {
        let s = &monte_carlo(&[(MemoryTechnology::SttRam, 4, 11)], 30)[0];
        for b in [s.read_latency, s.write_latency, s.read_energy, s.area] {
            assert!(b.p5 <= b.p50 && b.p50 <= b.p95);
        }
        assert_eq!(s.samples, 30);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = monte_carlo(&[(MemoryTechnology::Rram, 1, 3)], 10);
        let b = monte_carlo(&[(MemoryTechnology::Rram, 1, 3)], 10);
        assert_eq!(a, b);
        let c = monte_carlo(&[(MemoryTechnology::Rram, 1, 4)], 10);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "surveyed technology")]
    fn sram_cannot_be_sampled() {
        let node = ProcessNode::ptm_22nm_hp();
        let _ = sample_cells(MemoryTechnology::Sram, 5, 0, &node);
    }
}
