//! Wall-clock benchmarks of the design-space exploration driver: the
//! one-cell query, the study plan run cold and warm, and Table II.
//! Std-only timing — the offline workspace has no criterion.

use coldtall_bench::timing::{report, time};
use coldtall_core::{selection, EvalArena, Explorer, MemoryConfig};
use coldtall_workloads::benchmark;

fn main() {
    let mut samples = Vec::new();

    let explorer = Explorer::with_defaults();
    let namd = benchmark("namd").expect("benchmark present");
    let config = MemoryConfig::edram_77k();
    // Prime the characterization cache so this measures the application
    // model alone.
    let _ = explorer.evaluate(&config, namd);
    samples.push(time("evaluate_cached", 1000, || {
        explorer.evaluate(&config, namd)
    }));

    samples.push(time("study_run_cold", 3, || {
        let explorer = Explorer::with_defaults();
        let plan = explorer
            .plan_sweep(&MemoryConfig::study_set())
            .expect("the study set resolves");
        let mut arena = EvalArena::new();
        explorer.run(&plan, &mut arena);
        arena.rows()
    }));

    let explorer = Explorer::with_defaults();
    let plan = explorer
        .plan_sweep(&MemoryConfig::study_set())
        .expect("the study set resolves");
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena); // prime the cache
    samples.push(time("study_run_warm", 100, || {
        explorer.run(&plan, &mut arena);
        arena.rows()
    }));
    samples.push(time("table2_selection", 10, || {
        selection::table2(&explorer).len()
    }));

    report("explorer sweep", &samples);
}
