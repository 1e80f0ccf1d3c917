//! Benchmark profile records.

use core::fmt;

use crate::traffic::LlcTraffic;

/// Which half of the SPECrate 2017 suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPECrate 2017 Integer.
    IntRate,
    /// SPECrate 2017 Floating Point.
    FpRate,
    /// Specialized accelerator traffic (the paper's future-work study).
    Accelerator,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::IntRate => "SPECrate2017_int",
            Self::FpRate => "SPECrate2017_fp",
            Self::Accelerator => "accelerator",
        })
    }
}

/// One benchmark: its calibrated LLC traffic under continuous operation
/// on the Table I CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Short benchmark name (e.g. `"namd"`).
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// Calibrated LLC traffic (reads/s, writes/s).
    pub traffic: LlcTraffic,
}

impl Benchmark {
    /// Reads-per-second band label used by Table II: `<5e4`,
    /// `5e4..=8e6`, or `>8e6`.
    #[must_use]
    pub fn traffic_band(&self) -> TrafficBand {
        TrafficBand::of(self.traffic.reads_per_sec)
    }

    /// Returns a copy with traffic scaled by `factor`, for sensitivity
    /// sweeps around a profile's calibrated point.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive"
        );
        let mut scaled = self.clone();
        scaled.traffic = LlcTraffic::new(
            self.traffic.reads_per_sec * factor,
            self.traffic.writes_per_sec * factor,
        );
        scaled
    }
}

/// The three read-traffic bands of the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficBand {
    /// Fewer than 5e4 LLC reads per second.
    Low,
    /// Between 5e4 and 8e6 LLC reads per second.
    Mid,
    /// More than 8e6 LLC reads per second.
    High,
}

impl TrafficBand {
    /// All bands in ascending traffic order.
    pub const ALL: [Self; 3] = [Self::Low, Self::Mid, Self::High];

    /// Classifies a read rate.
    #[must_use]
    pub fn of(reads_per_sec: f64) -> Self {
        if reads_per_sec < 5e4 {
            Self::Low
        } else if reads_per_sec <= 8e6 {
            Self::Mid
        } else {
            Self::High
        }
    }

    /// Human-readable band boundaries as printed in Table II.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Low => "<5e4",
            Self::Mid => "5e4..8e6",
            Self::High => ">8e6",
        }
    }
}

impl fmt::Display for TrafficBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_classification() {
        assert_eq!(TrafficBand::of(1e3), TrafficBand::Low);
        assert_eq!(TrafficBand::of(4.9e4), TrafficBand::Low);
        assert_eq!(TrafficBand::of(5e4), TrafficBand::Mid);
        assert_eq!(TrafficBand::of(8e6), TrafficBand::Mid);
        assert_eq!(TrafficBand::of(8.1e6), TrafficBand::High);
    }

    #[test]
    fn scaled_multiplies_both_rates() {
        let b = crate::suite::benchmark("namd").unwrap();
        let s = b.scaled(2.0);
        assert!((s.traffic.reads_per_sec - 2.0 * b.traffic.reads_per_sec).abs() < 1e-6);
        assert!((s.traffic.writes_per_sec - 2.0 * b.traffic.writes_per_sec).abs() < 1e-6);
        assert_eq!(s.name, b.name);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn scaled_rejects_zero() {
        let _ = crate::suite::benchmark("namd").unwrap().scaled(0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(TrafficBand::Low.to_string(), "<5e4");
        assert_eq!(Suite::FpRate.to_string(), "SPECrate2017_fp");
    }
}
