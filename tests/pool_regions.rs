//! Pins how often the fan-out-using artifacts fan out. This binary
//! holds exactly one test, so nothing else feeds the global registry's
//! pool metrics while it reads them.

use coldtall::core::report::TextTable;
use coldtall::core::set_max_threads;
use coldtall_bench::{dynamic_temperature, variation_study};

/// The thermal schedule never fans out, and the Monte-Carlo study's 6
/// cases x 60 samples fan out once: one busy sample per worker at 4
/// threads, none when a single thread runs them inline.
#[test]
fn each_artifact_opens_at_most_one_pool_region() {
    let registry = coldtall::obs::global();
    let tasks = registry.counter("pool.tasks");
    let busy = registry.span("pool.worker.busy");
    // (pool.tasks, pool.worker.busy samples) moved by one generator.
    let moves = |threads: usize, generate: fn() -> TextTable| {
        set_max_threads(threads);
        let before = (tasks.get(), busy.count());
        let _ = generate();
        set_max_threads(0);
        (tasks.get() - before.0, busy.count() - before.1)
    };
    assert_eq!(moves(4, dynamic_temperature::run), (0, 0));
    assert_eq!(moves(4, variation_study::run), (360, 4));
    assert_eq!(moves(1, variation_study::run), (360, 0));
}
