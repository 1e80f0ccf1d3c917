//! Helpers shared by the integration tests: the per-point reference
//! oracle that plan execution is checked against, the guard that pins
//! the Monte-Carlo fan-out's thread count, and one request's fields
//! spelled for each frontend.

// Each test binary compiles its own copy and uses a subset of it.
#![allow(dead_code)]

use std::sync::{Mutex, MutexGuard, PoisonError};

use coldtall::core::{
    set_max_threads, ExecutionPlan, Explorer, FieldError, FieldValue, LlcEvaluation, Request,
};
use coldtall::obs::json;

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

/// The request fields that read numbers; the others read text.
pub const NUMERIC_FIELDS: [&str; 6] = [
    "dies",
    "temp",
    "max_latency",
    "max_area",
    "min_lifetime",
    "max_power",
];

/// The request the field table builds from `fields` as the CLI passes
/// them: each value is the text a flag carries (`--max-latency 1.1` is
/// `("max_latency", "1.1")`). The binary's option grammar, which names
/// the fields and refuses unknown and repeated ones first, is not in it.
pub fn cli_request(cmd: &str, fields: &[(&str, &str)]) -> Result<Request, FieldError> {
    let fields: Vec<(&str, FieldValue<'_>)> = fields
        .iter()
        .map(|&(field, text)| (field, FieldValue::Text(text)))
        .collect();
    Request::from_fields(cmd, &fields)
}

/// The serve request line for the same fields: a numeric field's text
/// spliced in as a bare JSON literal, any other value as a JSON string.
pub fn wire_line(cmd: &str, fields: &[(&str, &str)]) -> String {
    let mut line = format!("{{\"cmd\":\"{}\"", json::escape(cmd));
    for &(field, text) in fields {
        if NUMERIC_FIELDS.contains(&field) {
            line.push_str(&format!(",\"{field}\":{text}"));
        } else {
            line.push_str(&format!(",\"{field}\":\"{}\"", json::escape(text)));
        }
    }
    line.push('}');
    line
}
