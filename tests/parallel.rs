//! Integration tests of thread safety and determinism: the explorer is
//! shareable, plan execution is bit-identical to the sequential
//! per-point oracle under any pool width, the sharded characterization
//! cache converges under contention, and the pool itself keeps order.

mod support;

use coldtall::core::{pool, EvalArena, Explorer, LlcEvaluation, MemoryConfig};
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
/// cross-product, run under a 4-wide pool, is bit-identical, in
/// identical order, to the sequential per-point oracle.
#[test]
fn par_sweep_matches_sequential_over_full_study() {
    // A multi-worker pool even on a 1-CPU machine: plan execution must
    // not depend on the pool width.
    pool::set_max_threads(4);
    let configs = MemoryConfig::study_set();
    let (run, oracle) = run_and_oracle(&Explorer::with_defaults(), &configs);
    pool::set_max_threads(0);
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
/// the sharded cache must converge on exactly one entry per distinct
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

/// The pool preserves output order no matter how work is stolen.
#[test]
fn pool_output_order_is_deterministic() {
    pool::set_max_threads(4);
    let expected: Vec<usize> = (0..997).map(|i| i * 31).collect();
    for _ in 0..8 {
        assert_eq!(pool::parallel_map(997, |i| i * 31), expected);
    }
    pool::set_max_threads(0);
}

/// The Monte-Carlo variation study (parallel inner loop) stays
/// deterministic per seed.
#[test]
fn parallel_monte_carlo_is_deterministic() {
    use coldtall::cell::MemoryTechnology;
    let a = coldtall::core::monte_carlo(MemoryTechnology::Pcm, 4, 12, 9);
    let b = coldtall::core::monte_carlo(MemoryTechnology::Pcm, 4, 12, 9);
    assert_eq!(a, b);
}
