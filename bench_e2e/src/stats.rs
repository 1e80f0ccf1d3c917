//! Percentiles over the benchmark's own samples.
//!
//! Nearest rank: the p-th percentile of `n` sorted samples is the
//! sample at 1-based rank `ceil(p * n)`, so it is always one of the
//! observed values and never leaves `[min, max]`. Ranks use integer
//! per-mille arithmetic, so `p95` of 100 samples is rank 95, not the
//! rank 96 a floating-point `0.95 * 100` would round up to.

/// 1-based nearest rank of per-mille quantile `permille` among `n`
/// samples, clamped to `[1, n]`.
#[must_use]
pub fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending) at `permille`.
///
/// # Panics
///
/// Panics on an empty slice: a percentile of nothing is a bug in the
/// caller, which always records at least one sample per metric.
#[must_use]
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Whether at least ten samples lie beyond the `permille` percentile
/// at `n` samples, the rule for reporting a tail percentile.
#[must_use]
pub fn tail_resolved(n: usize, permille: usize) -> bool {
    n >= 1 && n - rank(n, permille) >= 10
}

/// One metric's samples, in recording order.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The samples in recording order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Sum of the samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Arithmetic mean, or 0 for no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank percentile at `permille`.
    ///
    /// # Panics
    ///
    /// Panics if no sample was recorded.
    #[must_use]
    pub fn percentile(&self, permille: usize) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, permille)
    }

    /// Median (nearest rank).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.percentile(500)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        values.iter().copied().collect()
    }

    #[test]
    fn one_sample_is_every_percentile() {
        let s = samples(&[4.5]);
        for p in [1, 500, 950, 990, 1000] {
            assert_eq!(s.percentile(p), 4.5);
        }
        assert!(!tail_resolved(1, 500));
    }

    #[test]
    fn ranks_use_exact_integer_arithmetic() {
        assert_eq!(rank(100, 950), 95);
        assert_eq!(rank(100, 990), 99);
        assert_eq!(rank(101, 950), 96);
        assert_eq!(rank(3, 500), 2);
        assert_eq!(rank(4, 500), 2);
        assert_eq!(rank(10, 1), 1);
        assert_eq!(rank(10, 1000), 10);
    }

    #[test]
    fn ties_return_the_tied_value() {
        let s = samples(&[2.0, 2.0, 2.0, 2.0, 9.0]);
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.percentile(800), 2.0);
        assert_eq!(s.percentile(810), 9.0);
    }

    #[test]
    fn percentiles_stay_inside_the_observed_range() {
        let values: Vec<f64> = (0..37).map(|i| f64::from((i * 7919) % 101)).collect();
        let s = samples(&values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for p in [0, 1, 250, 500, 950, 990, 999, 1000, 5000] {
            let v = s.percentile(p);
            assert!(
                (min..=max).contains(&v),
                "p{p} = {v} outside [{min}, {max}]"
            );
            assert!(values.contains(&v), "p{p} = {v} is not an observed sample");
        }
        assert_eq!(s.percentile(0), min);
        assert_eq!(s.percentile(5000), max);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert!(!tail_resolved(199, 950));
        assert!(tail_resolved(200, 950));
        assert!(!tail_resolved(999, 990));
        assert!(tail_resolved(1000, 990));
    }
}
