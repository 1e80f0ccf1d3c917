//! Helpers shared by the integration tests: the per-point reference
//! oracle that plan execution is checked against, and the guard that
//! pins the Monte-Carlo fan-out's thread count.

// Each test binary compiles its own copy and uses a subset of it.
#![allow(dead_code)]

use std::sync::{Mutex, MutexGuard, PoisonError};

use coldtall::core::{set_max_threads, ExecutionPlan, Explorer, LlcEvaluation};

/// Runs `plan` one point at a time, independent of the explorer's
/// geometry-batch dispatch: each job is characterized directly
/// (`config.to_spec(node).characterize(objective)`, one organization
/// solve per point) and published through
/// [`Explorer::import_characterization`], then the scalar
/// [`Explorer::evaluate`] runs for each grid cell, in config-major
/// order — the rows [`Explorer::run`] must reproduce bit for bit.
pub fn per_point(explorer: &Explorer, plan: &ExecutionPlan) -> Vec<LlcEvaluation> {
    for job in plan.jobs() {
        let array = job
            .config()
            .to_spec(explorer.node())
            .characterize(explorer.objective());
        let _ = explorer.import_characterization(job.key(), array, job.backend());
    }
    plan.configs()
        .iter()
        .flat_map(|config| {
            plan.benchmarks()
                .iter()
                .map(move |benchmark| explorer.evaluate(config, benchmark))
        })
        .collect()
}

/// Serializes the tests of one binary that pin the process-wide thread
/// override.
static PIN_LOCK: Mutex<()> = Mutex::new(());

/// The thread count pinned by [`pin_threads`]; dropping it restores
/// auto-detection (even on panic) and lets the next pinning test run.
pub struct PinnedThreads(MutexGuard<'static, ()>);

/// Pins the fan-out to `n` threads until the returned guard drops.
pub fn pin_threads(n: usize) -> PinnedThreads {
    let guard = PIN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    set_max_threads(n);
    PinnedThreads(guard)
}

impl Drop for PinnedThreads {
    fn drop(&mut self) {
        set_max_threads(0);
    }
}
