//! The study's canonical temperature sweep.

use std::sync::OnceLock;

use coldtall_units::Kelvin;

/// The temperature points the paper sweeps: 77 K (LN2) up to 387 K (CPU
/// thermal design point) at roughly 50 K intervals, plus the 350 K
/// reference.
///
/// The grid is a process-wide constant, so callers get a shared
/// `'static` slice rather than a fresh allocation per call (the sweep
/// drivers and bench loops hit this on every row).
#[must_use]
pub fn study_temperatures() -> &'static [Kelvin] {
    static POINTS: OnceLock<[Kelvin; 8]> = OnceLock::new();
    POINTS.get_or_init(|| [77.0, 127.0, 177.0, 227.0, 277.0, 327.0, 350.0, 387.0].map(Kelvin::new))
}

/// An inclusive temperature range iterated at a fixed step, for custom
/// sweeps (e.g. the future-work "optimal intermediate temperature"
/// studies).
///
/// # Examples
///
/// ```
/// use coldtall_cryo::TemperatureSweep;
/// use coldtall_units::Kelvin;
///
/// let points: Vec<_> = TemperatureSweep::new(Kelvin::LN2, Kelvin::ROOM, 100.0).collect();
/// assert_eq!(points.len(), 3); // 77, 177, 277
/// ```
#[derive(Debug, Clone)]
pub struct TemperatureSweep {
    next: f64,
    end: f64,
    step: f64,
}

impl TemperatureSweep {
    /// Creates a sweep from `start` to `end` (inclusive) stepping by
    /// `step_kelvin`.
    ///
    /// # Panics
    ///
    /// Panics if `step_kelvin` is not strictly positive or `end` is below
    /// `start`.
    #[must_use]
    pub fn new(start: Kelvin, end: Kelvin, step_kelvin: f64) -> Self {
        assert!(step_kelvin > 0.0, "sweep step must be positive");
        assert!(end >= start, "sweep end must not precede start");
        Self {
            next: start.get(),
            end: end.get(),
            step: step_kelvin,
        }
    }
}

impl Iterator for TemperatureSweep {
    type Item = Kelvin;

    fn next(&mut self) -> Option<Kelvin> {
        if self.next > self.end + 1e-9 {
            return None;
        }
        let t = Kelvin::new(self.next);
        self.next += self.step;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_sweep_brackets_the_paper_range() {
        let pts = study_temperatures();
        assert_eq!(pts.first().copied(), Some(Kelvin::LN2));
        assert_eq!(pts.last().copied(), Some(Kelvin::TDP));
        assert!(pts.contains(&Kelvin::REFERENCE));
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn custom_sweep_is_inclusive() {
        let pts: Vec<_> = TemperatureSweep::new(Kelvin::new(100.0), Kelvin::new(300.0), 50.0)
            .map(Kelvin::get)
            .collect();
        assert_eq!(pts, vec![100.0, 150.0, 200.0, 250.0, 300.0]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_rejected() {
        let _ = TemperatureSweep::new(Kelvin::LN2, Kelvin::ROOM, 0.0);
    }
}
