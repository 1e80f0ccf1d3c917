//! CPU model configuration (the paper's Table I).

use coldtall_units::{Capacity, Hertz};

/// Geometry of one cache level: capacity, associativity and line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total data capacity.
    pub capacity: Capacity,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Creates a cache-level geometry.
    ///
    /// # Panics
    ///
    /// Panics unless ways and line size are nonzero powers of two and the
    /// capacity divides evenly into at least one set.
    #[must_use]
    pub fn new(capacity: Capacity, ways: u32, line_bytes: u32) -> Self {
        assert!(ways.is_power_of_two(), "ways must be a power of two");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = capacity.bytes() / u64::from(line_bytes);
        assert!(
            lines >= u64::from(ways) && lines.is_multiple_of(u64::from(ways)),
            "capacity must hold a whole number of sets"
        );
        Self {
            capacity,
            ways,
            line_bytes,
        }
    }
}

/// The CPU whose LLC the study sizes: core count, frequency, and the
/// cache hierarchy.
///
/// [`CpuConfig::skylake_desktop`] reproduces Table I of the paper: an
/// 8-core desktop-class CPU at 5 GHz (22 nm) with 32 KiB L1I/L1D,
/// 512 KiB private L2, and a shared 16 MiB, 16-way L3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Number of cores.
    pub cores: u8,
    /// Core clock frequency.
    pub frequency: Hertz,
    /// L1 instruction cache, per core.
    pub l1i: CacheConfig,
    /// L1 data cache, per core.
    pub l1d: CacheConfig,
    /// Private unified L2, per core.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
}

impl CpuConfig {
    /// The paper's Table I desktop CPU.
    #[must_use]
    pub fn skylake_desktop() -> Self {
        Self {
            cores: 8,
            frequency: Hertz::from_gigas(5.0),
            l1i: CacheConfig::new(Capacity::from_kibibytes(32), 8, 64),
            l1d: CacheConfig::new(Capacity::from_kibibytes(32), 8, 64),
            l2: CacheConfig::new(Capacity::from_kibibytes(512), 8, 64),
            llc: CacheConfig::new(Capacity::from_mebibytes(16), 16, 64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_parameters() {
        let cfg = CpuConfig::skylake_desktop();
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.frequency, Hertz::from_gigas(5.0));
        assert_eq!(cfg.l1i.capacity, Capacity::from_kibibytes(32));
        assert_eq!(cfg.l1d.capacity, Capacity::from_kibibytes(32));
        assert_eq!(cfg.l2.capacity, Capacity::from_kibibytes(512));
        assert_eq!(cfg.llc.capacity, Capacity::from_mebibytes(16));
        assert_eq!(cfg.llc.ways, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_ways() {
        let _ = CacheConfig::new(Capacity::from_kibibytes(32), 3, 64);
    }
}
