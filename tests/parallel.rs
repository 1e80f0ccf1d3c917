//! Integration tests of thread safety and determinism: the explorer is
//! shareable, plan execution is bit-identical to the sequential
//! per-point oracle under any pool width, the sharded characterization
//! cache converges under contention, and the pool itself keeps order.

mod support;

use std::sync::{Mutex, PoisonError};

use coldtall::core::{pool, EvalArena, Explorer, LlcEvaluation, MemoryConfig};
use coldtall::workloads::spec2017;

/// Tests that force a pool width share the process-global override.
static POOL_LOCK: Mutex<()> = Mutex::new(());

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
    let _pinned = POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
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
    let _pinned = POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    pool::set_max_threads(4);
    let expected: Vec<usize> = (0..997).map(|i| i * 31).collect();
    for _ in 0..8 {
        assert_eq!(pool::parallel_map(997, |i| i * 31), expected);
    }
    pool::set_max_threads(0);
}

/// The Monte-Carlo variation study (the pool's one user) stays
/// deterministic per seed, and batching its cases into one pool region
/// changes no sample: the six `variation_study` cases in one call give
/// the summaries of six one-case calls, under 1- and 4-thread pools.
/// Every band is a finite, positive ratio, so `==` is bit equality.
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
    let _pinned = POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let mut widths = Vec::new();
    for threads in [1, 4] {
        pool::set_max_threads(threads);
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
    pool::set_max_threads(0);
    assert_eq!(
        widths[0], widths[1],
        "the summaries depend on the pool width"
    );
}
