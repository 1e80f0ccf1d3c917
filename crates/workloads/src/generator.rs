//! Synthetic address-stream generation.

use coldtall_cachesim::MemoryAccess;
use coldtall_rng::SmallRng;

/// Parameters of a synthetic memory-reference stream.
///
/// The generator models the two first-order locality behaviours that
/// determine LLC traffic: a *hot set* that mostly hits in the private
/// caches, and streaming sweeps over the full working set that miss
/// beyond any cache smaller than it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorParams {
    /// Total working-set size in bytes.
    pub working_set_bytes: u64,
    /// Fraction of the working set forming the hot set.
    pub hot_fraction: f64,
    /// Probability that an access targets the hot set.
    pub hot_probability: f64,
    /// Fraction of data accesses that are stores.
    pub write_fraction: f64,
    /// Average sequential run length, in cache lines, of cold-region
    /// streaming.
    pub sequential_run: u32,
    /// Instructions executed per data access (controls the access rate
    /// when converting to wall-clock time).
    pub instructions_per_access: f64,
    /// Fraction of accesses that target a region shared by all cores
    /// (zero for SPECrate copies, which share nothing; used by
    /// coherence studies).
    pub shared_fraction: f64,
}

impl GeneratorParams {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range probabilities or a zero working set.
    pub fn validate(&self) {
        assert!(self.working_set_bytes >= 64, "working set below one line");
        assert!(
            (0.0..=1.0).contains(&self.hot_fraction),
            "hot fraction out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.hot_probability),
            "hot probability out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.write_fraction),
            "write fraction out of range"
        );
        assert!(self.sequential_run >= 1, "run length must be at least 1");
        assert!(
            self.instructions_per_access >= 1.0,
            "at least one instruction per access"
        );
        assert!(
            (0.0..=1.0).contains(&self.shared_fraction),
            "shared fraction out of range"
        );
    }
}

const LINE_BYTES: u64 = 64;

/// An infinite synthetic reference stream for one core.
///
/// # Examples
///
/// ```
/// use coldtall_workloads::{AccessGenerator, GeneratorParams};
///
/// let params = GeneratorParams {
///     working_set_bytes: 1 << 20,
///     hot_fraction: 0.1,
///     hot_probability: 0.9,
///     write_fraction: 0.3,
///     sequential_run: 8,
///     instructions_per_access: 4.0,
///     shared_fraction: 0.0,
/// };
/// let mut generator = AccessGenerator::new(params, 0, 42);
/// let first = generator.next().unwrap();
/// assert_eq!(first.core, 0);
/// ```
#[derive(Debug, Clone)]
pub struct AccessGenerator {
    params: GeneratorParams,
    core: u8,
    rng: SmallRng,
    cursor_line: u64,
    run_remaining: u32,
    base: u64,
}

impl AccessGenerator {
    /// Creates a stream for `core`, deterministically seeded.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see
    /// [`GeneratorParams::validate`]).
    #[must_use]
    pub fn new(params: GeneratorParams, core: u8, seed: u64) -> Self {
        params.validate();
        // SPECrate runs one copy per core: give each core a disjoint
        // address-space slice so copies do not share data.
        let base = u64::from(core) << 40;
        Self {
            params,
            core,
            rng: SmallRng::seed_from_u64(seed ^ (u64::from(core) << 32)),
            cursor_line: 0,
            run_remaining: 0,
            base,
        }
    }

    fn lines(&self) -> u64 {
        (self.params.working_set_bytes / LINE_BYTES).max(1)
    }

    fn hot_lines(&self) -> u64 {
        ((self.lines() as f64 * self.params.hot_fraction) as u64).max(1)
    }

    fn next_line(&mut self) -> u64 {
        if self.rng.gen_f64() < self.params.hot_probability {
            // Hot-set access: uniform within the hot region.
            self.rng.gen_range(0..self.hot_lines())
        } else {
            // Cold streaming: sequential runs over the full working set.
            if self.run_remaining == 0 {
                self.cursor_line = self.rng.gen_range(0..self.lines());
                self.run_remaining = self.params.sequential_run;
            }
            self.run_remaining -= 1;
            let line = self.cursor_line;
            self.cursor_line = (self.cursor_line + 1) % self.lines();
            line
        }
    }
}

impl Iterator for AccessGenerator {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        // Shared-region accesses use a core-independent slice so all
        // cores contend on the same lines.
        const SHARED_BASE: u64 = 0xFF << 40;
        let address = if self.params.shared_fraction > 0.0
            && self.rng.gen_f64() < self.params.shared_fraction
        {
            SHARED_BASE + (self.next_line() % 4096) * LINE_BYTES
        } else {
            self.base + self.next_line() * LINE_BYTES
        };
        let access = if self.rng.gen_f64() < self.params.write_fraction {
            MemoryAccess::data_write(self.core, address)
        } else {
            MemoryAccess::data_read(self.core, address)
        };
        Some(access)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(ws: u64) -> GeneratorParams {
        GeneratorParams {
            working_set_bytes: ws,
            hot_fraction: 0.1,
            hot_probability: 0.8,
            write_fraction: 0.25,
            sequential_run: 8,
            instructions_per_access: 4.0,
            shared_fraction: 0.0,
        }
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let a: Vec<_> = AccessGenerator::new(params(1 << 20), 0, 7)
            .take(100)
            .collect();
        let b: Vec<_> = AccessGenerator::new(params(1 << 20), 0, 7)
            .take(100)
            .collect();
        let c: Vec<_> = AccessGenerator::new(params(1 << 20), 0, 8)
            .take(100)
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_stay_within_working_set_slice() {
        let ws = 1 << 20;
        for access in AccessGenerator::new(params(ws), 3, 1).take(10_000) {
            let offset = access.address - (3u64 << 40);
            assert!(offset < ws, "address escaped the working set");
            assert_eq!(access.address % 64, 0, "addresses are line-aligned");
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let writes = AccessGenerator::new(params(1 << 20), 0, 3)
            .take(20_000)
            .filter(|a| a.kind.is_write())
            .count();
        let frac = writes as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "write fraction = {frac}");
    }

    #[test]
    fn cores_use_disjoint_slices() {
        let a = AccessGenerator::new(params(1 << 20), 0, 1).next().unwrap();
        let b = AccessGenerator::new(params(1 << 20), 1, 1).next().unwrap();
        assert_ne!(a.address >> 40, b.address >> 40);
    }

    #[test]
    #[should_panic(expected = "hot probability out of range")]
    fn invalid_probability_rejected() {
        let mut p = params(1 << 20);
        p.hot_probability = 1.5;
        let _ = AccessGenerator::new(p, 0, 0);
    }
}
