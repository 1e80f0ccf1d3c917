//! Pins how many worker-pool regions the pool-using artifacts open.
//! This binary holds exactly one test, so nothing else feeds the
//! global registry's pool metrics while it reads them.

use coldtall::core::pool;
use coldtall::core::report::TextTable;
use coldtall_bench::{dynamic_temperature, variation_study};

/// The thermal schedule never enters the pool, and the Monte-Carlo
/// study's 6 cases x 60 samples fan out as one region: spun up on a
/// 4-thread pool, inline on a 1-thread one.
#[test]
fn each_artifact_opens_at_most_one_pool_region() {
    let registry = coldtall::obs::global();
    let tasks = registry.counter("pool.tasks");
    let spinups = registry.gauge("pool.spinups");
    let inline = registry.gauge("pool.inline");
    // (pool.tasks, pool.spinups, pool.inline) moved by one generator.
    let moves = |threads: usize, generate: fn() -> TextTable| {
        pool::set_max_threads(threads);
        let before = (tasks.get(), spinups.get(), inline.get());
        let _ = generate();
        pool::set_max_threads(0);
        (
            tasks.get() - before.0,
            spinups.get() - before.1,
            inline.get() - before.2,
        )
    };
    assert_eq!(moves(4, dynamic_temperature::run), (0, 0, 0));
    assert_eq!(moves(4, variation_study::run), (360, 1, 0));
    assert_eq!(moves(1, variation_study::run), (360, 0, 1));
}
