//! Integration tests of thread safety and determinism: the explorer is
//! shareable, plan execution is bit-identical to the sequential
//! per-point oracle under any thread count, the characterization cache
//! converges under contention, and the Monte-Carlo fan-out keeps its
//! samples in order.

mod support;

use coldtall::core::{EvalArena, Explorer, LlcEvaluation, MemoryConfig};
use coldtall::workloads::spec2017;

/// Compiles `configs` on `explorer` and returns the rows of
/// [`Explorer::run`] next to the per-point oracle's rows, the oracle
/// computed on a fresh explorer.
fn run_and_oracle(
    explorer: &Explorer,
    configs: &[MemoryConfig],
) -> (Vec<LlcEvaluation>, Vec<LlcEvaluation>) {
    let plan = explorer.plan_sweep(configs).expect("configs resolve");
    let mut arena = EvalArena::new();
    explorer.run(&plan, &mut arena);
    let oracle = Explorer::with_defaults();
    let oracle_plan = oracle.plan_sweep(configs).expect("configs resolve");
    (arena.to_rows(), support::per_point(&oracle, &oracle_plan))
}

/// Compile-time proof the explorer can be shared across threads.
#[test]
fn explorer_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Explorer>();
}

/// The headline determinism contract: the full study set x SPEC2017
/// cross-product, run with 4 threads pinned, is bit-identical, in
/// identical order, to the sequential per-point oracle.
#[test]
fn par_sweep_matches_sequential_over_full_study() {
    // Four threads even on a 1-CPU machine: plan execution must not
    // depend on the thread count.
    let _pinned = support::pin_threads(4);
    let configs = MemoryConfig::study_set();
    let (run, oracle) = run_and_oracle(&Explorer::with_defaults(), &configs);
    assert_eq!(run.len(), configs.len() * spec2017().len());
    assert_eq!(
        run, oracle,
        "plan execution diverged from the per-point oracle"
    );
}

/// Determinism must also hold from a cold cache on each side (plan
/// execution characterizes geometry batches, the oracle one point at a
/// time on demand).
#[test]
fn cold_cache_sweeps_agree() {
    let configs = [
        MemoryConfig::sram_350k(),
        MemoryConfig::sram_77k(),
        MemoryConfig::edram_350k(),
        MemoryConfig::edram_77k(),
    ];
    let (run, oracle) = run_and_oracle(&Explorer::with_defaults(), &configs);
    assert_eq!(run, oracle);
}

/// The default entry point, [`Explorer::try_sweep_configs`], returns
/// exactly the rows of an explicit plan run on a warm explorer and of
/// the per-point oracle.
#[test]
fn default_sweep_is_path_independent() {
    let configs = [MemoryConfig::sram_350k(), MemoryConfig::edram_77k()];
    let explorer = Explorer::with_defaults();
    let default_rows = explorer
        .try_sweep_configs(&configs)
        .expect("configs resolve");
    let (run, oracle) = run_and_oracle(&explorer, &configs);
    assert_eq!(default_rows, run);
    assert_eq!(run, oracle);
}

/// N OS threads hammer `characterize` on overlapping configurations:
/// the cache must converge on exactly one entry per distinct
/// label, and every thread must observe equal characterizations.
#[test]
fn concurrent_characterize_smoke() {
    let explorer = Explorer::with_defaults();
    let configs = MemoryConfig::study_set();
    let distinct = configs.len();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4 * distinct)
            .map(|i| {
                let (explorer, configs) = (&explorer, &configs);
                scope.spawn(move || explorer.characterize(&configs[i % configs.len()]))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });
    assert_eq!(explorer.cached_characterizations(), distinct);
    for (i, result) in results.iter().enumerate() {
        assert_eq!(
            result,
            &explorer.characterize(&configs[i % configs.len()]),
            "thread {i} observed a divergent characterization"
        );
    }
}

/// The Monte-Carlo variation study (the one fan-out) stays
/// deterministic per seed, and batching its cases into one fan-out
/// changes no sample: the six `variation_study` cases in one call give
/// the summaries of six one-case calls, at 1 and 4 threads. Every band
/// is a finite, positive ratio, so `==` is bit equality.
#[test]
fn parallel_monte_carlo_is_deterministic() {
    use coldtall::cell::MemoryTechnology;
    use coldtall::core::monte_carlo;
    let a = monte_carlo(&[(MemoryTechnology::Pcm, 4, 9)], 12);
    let b = monte_carlo(&[(MemoryTechnology::Pcm, 4, 9)], 12);
    assert_eq!(a, b);

    // `variation_study`: every surveyed technology at 1 and 8 dies.
    let cases: Vec<(MemoryTechnology, u8, u64)> = MemoryTechnology::ENVM_SET
        .into_iter()
        .flat_map(|tech| [1u8, 8].map(|dies| (tech, dies, 0xC01D + u64::from(dies))))
        .collect();
    let mut widths = Vec::new();
    for threads in [1, 4] {
        let _pinned = support::pin_threads(threads);
        let batched = monte_carlo(&cases, 60);
        let one_case_calls: Vec<_> = cases
            .iter()
            .flat_map(|case| monte_carlo(std::slice::from_ref(case), 60))
            .collect();
        assert_eq!(batched.len(), cases.len());
        assert_eq!(
            batched, one_case_calls,
            "batched cases diverged at {threads} threads"
        );
        widths.push(batched);
    }
    assert_eq!(
        widths[0], widths[1],
        "the summaries depend on the thread count"
    );
}
