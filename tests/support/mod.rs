//! The per-point reference oracle that plan execution is checked
//! against.

use coldtall::core::{ExecutionPlan, Explorer, LlcEvaluation};

/// Runs `plan` one point at a time through the public API: the public
/// [`Explorer::characterize`] for each job (one backend dispatch per
/// missed point, no geometry batching), then the scalar
/// [`Explorer::evaluate`] for each grid cell, in config-major order —
/// the rows [`Explorer::run`] must reproduce bit for bit.
pub fn per_point(explorer: &Explorer, plan: &ExecutionPlan) -> Vec<LlcEvaluation> {
    for job in plan.jobs() {
        let _ = explorer.characterize(job.config());
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
