//! Minimal std-only timing support for the kernel perf gates.
//!
//! The offline build cannot depend on criterion; this module provides
//! the slice of it the gates need: interleaved median timing for
//! A-vs-B comparisons on a shared host.

use std::time::{Duration, Instant};

/// Per-iteration wall-clock samples: one untimed warmup, then every
/// iteration timed individually, summarized by the median.
///
/// The median is the honest summary for a harness sharing a machine
/// with other work: one stray slow iteration (page cache miss, CPU
/// migration) shifts a mean but not the middle order statistic.
#[derive(Debug, Clone)]
pub struct MedianSample {
    /// What was measured.
    pub label: String,
    /// Individual measured iterations, in run order.
    pub runs: Vec<Duration>,
}

impl MedianSample {
    /// Median seconds per iteration (mean of the middle pair when the
    /// run count is even; `0.0` for an empty sample).
    #[must_use]
    pub fn median_secs(&self) -> f64 {
        let mut secs: Vec<f64> = self.runs.iter().map(Duration::as_secs_f64).collect();
        if secs.is_empty() {
            return 0.0;
        }
        secs.sort_by(f64::total_cmp);
        let mid = secs.len() / 2;
        if secs.len().is_multiple_of(2) {
            (secs[mid - 1] + secs[mid]) / 2.0
        } else {
            secs[mid]
        }
    }

    /// Median nanoseconds per work item, for `items` items per
    /// iteration (e.g. sweep rows).
    #[must_use]
    pub fn median_ns_per(&self, items: usize) -> f64 {
        #[allow(clippy::cast_precision_loss)] // row counts are tiny
        let items = (items.max(1)) as f64;
        self.median_secs() * 1e9 / items
    }
}

/// Times two workloads **interleaved**: one untimed warmup of each,
/// then `iters` rounds of (one `a` run, one `b` run), each timed
/// individually.
///
/// Interleaving is what makes an A-vs-B comparison honest on a shared
/// host: machine-speed drift (thermal throttling, a noisy neighbor
/// arriving mid-run) lands on both workloads alike instead of biasing
/// against whichever was measured second.
pub fn time_median_pair<T, U>(
    labels: (&str, &str),
    iters: u32,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
) -> (MedianSample, MedianSample) {
    let _ = std::hint::black_box(a());
    let _ = std::hint::black_box(b());
    let mut a_runs = Vec::new();
    let mut b_runs = Vec::new();
    for _ in 0..iters.max(1) {
        a_runs.push(timed_run(&mut a));
        b_runs.push(timed_run(&mut b));
    }
    (
        MedianSample {
            label: labels.0.to_string(),
            runs: a_runs,
        },
        MedianSample {
            label: labels.1.to_string(),
            runs: b_runs,
        },
    )
}

fn timed_run<T>(f: &mut impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    let _ = std::hint::black_box(f());
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_middle_order_statistic() {
        let sample = MedianSample {
            label: "m".to_string(),
            runs: vec![
                Duration::from_secs(9), // the stray outlier a mean would fold in
                Duration::from_secs(1),
                Duration::from_secs(2),
            ],
        };
        assert!((sample.median_secs() - 2.0).abs() < 1e-12);
        let even = MedianSample {
            label: "e".to_string(),
            runs: vec![Duration::from_secs(1), Duration::from_secs(3)],
        };
        assert!((even.median_secs() - 2.0).abs() < 1e-12);
        assert!((even.median_ns_per(1000) - 2e6).abs() < 1e-3);
        let empty = MedianSample {
            label: "0".to_string(),
            runs: vec![],
        };
        assert_eq!(empty.median_secs(), 0.0);
    }

    #[test]
    fn interleaved_pair_alternates_the_workloads() {
        let order = std::cell::RefCell::new(Vec::new());
        let (a, b) = time_median_pair(
            ("a", "b"),
            3,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        // 1 warmup of each, then strict a/b alternation.
        assert_eq!(*order.borrow(), vec!['a', 'b', 'a', 'b', 'a', 'b', 'a', 'b']);
        assert_eq!(a.runs.len(), 3);
        assert_eq!(b.runs.len(), 3);
    }
}
