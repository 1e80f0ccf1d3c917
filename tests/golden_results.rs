//! Golden-file regression suite over `results/`.
//!
//! Every artifact of [`coldtall_bench::ARTIFACTS`] is regenerated
//! in-process and byte-compared against the committed file, as
//! `coldtall replicate --check` does, so no future change can silently
//! corrupt the reproduction. The comparison runs twice — pinned to one
//! pool thread, then forced to four — because the artifacts must be
//! independent of how the sweep is scheduled.
//!
//! To rebless after an *intentional* model change:
//!
//! ```sh
//! COLDTALL_BLESS=1 cargo test --test golden_results
//! ```

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use coldtall::core::pool;
use coldtall_bench as bench;

/// The two passes share the process-wide pool override, so they take
/// this lock and restore auto-detection on drop (even on panic).
static POOL_LOCK: Mutex<()> = Mutex::new(());

struct PinnedPool(#[allow(dead_code)] MutexGuard<'static, ()>);

impl PinnedPool {
    fn threads(n: usize) -> Self {
        let guard = POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        pool::set_max_threads(n);
        Self(guard)
    }
}

impl Drop for PinnedPool {
    fn drop(&mut self) {
        pool::set_max_threads(0);
    }
}

fn bless_requested() -> bool {
    std::env::var("COLDTALL_BLESS").is_ok_and(|v| v == "1")
}

fn check_all_artifacts(mode: &str) {
    for (name, run) in bench::ARTIFACTS {
        let actual = bench::render(name, &run());
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("results/{name}.txt"));
        if bless_requested() {
            fs::write(&path, &actual)
                .unwrap_or_else(|err| panic!("blessing {} failed: {err}", path.display()));
            continue;
        }
        let expected = fs::read_to_string(&path)
            .unwrap_or_else(|err| panic!("golden file {} unreadable: {err}", path.display()));
        assert!(
            expected == actual,
            "results/{name}.txt diverged from its regenerator ({mode} pool).\n{}\n\
             If the change is intentional, rebless with:\n  COLDTALL_BLESS=1 cargo test --test golden_results",
            bench::first_divergence(&expected, &actual)
        );
    }
}

/// Every artifact, regenerated with the pool pinned to one thread at
/// every level, must match the checked-in bytes.
#[test]
fn artifacts_match_golden_files_sequentially() {
    let _pinned = PinnedPool::threads(1);
    check_all_artifacts("1-thread");
}

/// And again with a forced 4-worker pool: parallel scheduling must not
/// change a single byte of any artifact.
#[test]
fn artifacts_match_golden_files_with_four_threads() {
    let _pinned = PinnedPool::threads(4);
    check_all_artifacts("4-thread");
}

/// The artifacts above are all regenerated through the plan/execute
/// pipeline; pin the study plan's shape so a backend or dedup
/// regression is caught here, next to the bytes it would corrupt.
#[test]
fn study_plan_invariants_behind_the_goldens() {
    use coldtall::core::{BackendRegistry, SweepPlan};
    let plan = SweepPlan::study()
        .compile(&BackendRegistry::with_defaults())
        .expect("the study always compiles against the default backends");
    assert_eq!(plan.jobs().len(), 31, "one job per distinct design point");
    assert_eq!(plan.rows(), 31 * 23, "the full study grid");
    for job in plan.jobs() {
        assert!(
            matches!(job.backend(), "cryomem" | "destiny"),
            "unexpected backend '{}' for {}",
            job.backend(),
            job.config().label()
        );
    }
}

/// The suite covers the complete `results/` directory — a new artifact
/// must be added to [`bench::ARTIFACTS`] (and a removed one deleted), in
/// file-name order, or this test fails, keeping the golden set
/// exhaustive by construction.
#[test]
fn every_results_artifact_is_covered() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut on_disk: Vec<String> = fs::read_dir(&dir)
        .expect("results/ directory present")
        .map(|entry| entry.expect("readable dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let covered: Vec<String> = bench::ARTIFACTS
        .iter()
        .map(|(name, _)| format!("{name}.txt"))
        .collect();
    assert_eq!(
        on_disk, covered,
        "results/ and the golden suite drifted apart"
    );
}
