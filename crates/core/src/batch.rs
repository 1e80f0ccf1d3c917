//! Struct-of-arrays batch evaluation: the caller-owned [`EvalArena`]
//! row store that [`crate::Explorer::run`] fills.
//!
//! Plan execution batches the *characterization* phase (one geometry
//! solve per temperature-stripped key) and carries the same two-phase
//! idea through *evaluation*, the hot path of a warm sweep. The scalar
//! one-cell query ([`crate::Explorer::evaluate`]) pays, per grid cell:
//! one span sample (two clock reads), one canonical-key format + hash,
//! one cache probe under the cache lock, one `CellModel` construction, one
//! label allocation, and one baseline service-time recomputation. The
//! plane loop under [`crate::Explorer::run`] hoists every one of those
//! out of the per-row loop:
//!
//! * per grid — the 350 K SRAM baseline and the `reference_power`
//!   normalization denominator (already hoisted into the explorer),
//! * per benchmark column — the baseline's `base_service` term and the
//!   traffic rates, read once into a dense [`TrafficTable`],
//! * per configuration plane — the characterization-cache probe, the
//!   cooling tier's wall-power factor
//!   ([`coldtall_cryo::CoolingSystem::wall_factor`]), the cell's
//!   endurance model, the display label, and one `evaluate` span
//!   sample covering the whole plane.
//!
//! What remains per row is pure float arithmetic — and it is *the
//! same* arithmetic: both paths produce rows through
//! `row_values` (one copy of the float
//! expressions), so run/scalar bit-identity holds by construction
//! rather than by expression discipline. `tests/eval_batch.rs` pins it
//! over the full study × temperature × SPEC2017 grid, infeasible rows
//! included.
//!
//! Rows land in an [`EvalArena`]: one dense column per numeric field
//! (power, latency, area, utilization, lifetime), one verdict column,
//! plus the per-plane labels and per-benchmark identity shared by all
//! rows of a plane/column. A reused arena reaches steady state after
//! its first sweep and reallocates nothing on subsequent sweeps of the
//! same shape ([`EvalArena::row_capacity`] is how the tests watch
//! this).

#![deny(missing_docs)]

use coldtall_workloads::{Benchmark, LlcTraffic, TrafficTable};

use crate::error::Error;
use crate::evaluate::{Feasibility, LlcEvaluation, RowValues};

/// A caller-owned struct-of-arrays store for evaluation rows.
///
/// The arena owns its buffers across sweeps: each refill
/// clears contents but keeps capacity, so repeated sweeps of the same
/// grid shape allocate nothing after the first. Row `index` of the
/// grid maps to `(config, benchmark) = (index / benchmark_count,
/// index % benchmark_count)` — config-major, the order
/// [`crate::Explorer::run`] fills it in.
///
/// # Examples
///
/// ```
/// use coldtall_core::{EvalArena, Explorer, MemoryConfig};
/// use coldtall_workloads::spec2017;
///
/// let explorer = Explorer::with_defaults();
/// let config = MemoryConfig::sram_350k();
/// let plan = explorer.plan_sweep(std::slice::from_ref(&config)).unwrap();
/// let mut arena = EvalArena::new();
/// explorer.run(&plan, &mut arena);
/// assert_eq!(arena.rows(), plan.rows());
/// let cell = arena.row_index(0, 3);
/// assert_eq!(arena.row(cell), explorer.evaluate(&config, &spec2017()[3]));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalArena {
    /// Display label of each configuration plane, in plane order.
    pub(crate) labels: Vec<String>,
    /// Benchmark names, in column order.
    pub(crate) benchmarks: Vec<&'static str>,
    /// Benchmark traffic, in column order (the dense per-column hoist).
    pub(crate) traffic: TrafficTable,
    /// Device power in watts, per row.
    pub(crate) device_power_w: Vec<f64>,
    /// Wall power in watts, per row.
    pub(crate) wall_power_w: Vec<f64>,
    /// Relative power, per row.
    pub(crate) relative_power: Vec<f64>,
    /// Relative latency, per row.
    pub(crate) relative_latency: Vec<f64>,
    /// Footprint in mm², per row.
    pub(crate) footprint_mm2: Vec<f64>,
    /// Wear-limited lifetime in years, per row.
    pub(crate) lifetime_years: Vec<f64>,
    /// Bandwidth utilization, per row.
    pub(crate) bandwidth_utilization: Vec<f64>,
    /// Feasibility verdict, per row.
    pub(crate) feasibility: Vec<Feasibility>,
    /// Slowdown flag, per row.
    pub(crate) slowdown: Vec<bool>,
}

impl EvalArena {
    /// An empty arena. Buffers grow on first use and are kept across
    /// sweeps.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new sweep over `benchmarks`: clears every column
    /// (keeping capacity) and loads the benchmark identity and traffic
    /// table.
    pub(crate) fn begin(&mut self, benchmarks: &[Benchmark]) {
        self.labels.clear();
        self.benchmarks.clear();
        self.traffic.clear();
        self.device_power_w.clear();
        self.wall_power_w.clear();
        self.relative_power.clear();
        self.relative_latency.clear();
        self.footprint_mm2.clear();
        self.lifetime_years.clear();
        self.bandwidth_utilization.clear();
        self.feasibility.clear();
        self.slowdown.clear();
        for benchmark in benchmarks {
            self.benchmarks.push(benchmark.name);
            self.traffic.push(benchmark.traffic);
        }
    }

    /// Opens the next configuration plane.
    pub(crate) fn push_plane_label(&mut self, label: String) {
        self.labels.push(label);
    }

    /// Appends one row to the current plane.
    pub(crate) fn push_row(&mut self, values: &RowValues, lifetime_years: f64) {
        self.device_power_w.push(values.device_power_w);
        self.wall_power_w.push(values.wall_power_w);
        self.relative_power.push(values.relative_power);
        self.relative_latency.push(values.relative_latency);
        self.footprint_mm2.push(values.footprint_mm2);
        self.lifetime_years.push(lifetime_years);
        self.bandwidth_utilization
            .push(values.bandwidth_utilization);
        self.feasibility.push(values.feasibility);
        self.slowdown.push(values.slowdown);
    }

    /// Number of rows currently stored.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.relative_power.len()
    }

    /// Whether the arena holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.relative_power.is_empty()
    }

    /// Number of configuration planes.
    #[must_use]
    pub fn config_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of benchmark columns.
    #[must_use]
    pub fn benchmark_count(&self) -> usize {
        self.benchmarks.len()
    }

    /// Display labels of the configuration planes, in plane order.
    #[must_use]
    pub fn config_labels(&self) -> &[String] {
        &self.labels
    }

    /// Benchmark names, in column order.
    #[must_use]
    pub fn benchmark_names(&self) -> &[&'static str] {
        &self.benchmarks
    }

    /// The per-benchmark traffic table (shared by every plane).
    #[must_use]
    pub fn traffic(&self) -> &TrafficTable {
        &self.traffic
    }

    /// The flat row index of grid cell `(config, benchmark)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of the grid.
    #[must_use]
    pub fn row_index(&self, config: usize, benchmark: usize) -> usize {
        assert!(config < self.config_count(), "config index out of range");
        assert!(
            benchmark < self.benchmark_count(),
            "benchmark index out of range"
        );
        config * self.benchmark_count() + benchmark
    }

    /// The dense relative-power column.
    #[must_use]
    pub fn relative_power(&self) -> &[f64] {
        &self.relative_power
    }

    /// The dense relative-latency column.
    #[must_use]
    pub fn relative_latency(&self) -> &[f64] {
        &self.relative_latency
    }

    /// The dense footprint column (mm²).
    #[must_use]
    pub fn footprint_mm2(&self) -> &[f64] {
        &self.footprint_mm2
    }

    /// The dense lifetime column (years).
    #[must_use]
    pub fn lifetime_years(&self) -> &[f64] {
        &self.lifetime_years
    }

    /// The dense bandwidth-utilization column.
    #[must_use]
    pub fn bandwidth_utilization(&self) -> &[f64] {
        &self.bandwidth_utilization
    }

    /// The dense device-power column (watts).
    #[must_use]
    pub fn device_power_watts(&self) -> &[f64] {
        &self.device_power_w
    }

    /// The dense wall-power column (watts).
    #[must_use]
    pub fn wall_power_watts(&self) -> &[f64] {
        &self.wall_power_w
    }

    /// The feasibility-verdict column.
    #[must_use]
    pub fn feasibility(&self) -> &[Feasibility] {
        &self.feasibility
    }

    /// The slowdown-flag column.
    #[must_use]
    pub fn slowdown(&self) -> &[bool] {
        &self.slowdown
    }

    /// Row `index`'s numeric core, read back from the columns.
    fn values(&self, index: usize) -> RowValues {
        RowValues {
            device_power_w: self.device_power_w[index],
            wall_power_w: self.wall_power_w[index],
            relative_power: self.relative_power[index],
            relative_latency: self.relative_latency[index],
            slowdown: self.slowdown[index],
            feasibility: self.feasibility[index],
            footprint_mm2: self.footprint_mm2[index],
            bandwidth_utilization: self.bandwidth_utilization[index],
        }
    }

    /// Materializes one row as an [`LlcEvaluation`], bit-identical to
    /// what the scalar path produces for the same grid cell.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.rows()`.
    #[must_use]
    pub fn row(&self, index: usize) -> LlcEvaluation {
        let nb = self.benchmark_count();
        let (c, b) = (index / nb, index % nb);
        LlcEvaluation::from_values(
            self.labels[c].clone(),
            self.benchmarks[b],
            self.traffic.get(b),
            &self.values(index),
            self.lifetime_years[index],
        )
    }

    /// Checks every row, in grid order, against the invariant
    /// [`LlcEvaluation::validate`] checks, without materializing one:
    /// the first bad row's error is exactly what `self.row(i).validate()`
    /// returns for it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] for the first row that holds a
    /// `NaN`, or an infinite latency on a serviceable verdict.
    pub fn validate(&self) -> Result<(), Error> {
        let nb = self.benchmark_count();
        for index in 0..self.rows() {
            self.values(index).validate(
                self.lifetime_years[index],
                &self.labels[index / nb],
                self.benchmarks[index % nb],
            )?;
        }
        Ok(())
    }

    /// Materializes every row, in config-major grid order.
    #[must_use]
    pub fn to_rows(&self) -> Vec<LlcEvaluation> {
        (0..self.rows()).map(|index| self.row(index)).collect()
    }

    /// Iterates the rows lazily, in config-major grid order.
    pub fn iter_rows(&self) -> impl Iterator<Item = LlcEvaluation> + '_ {
        (0..self.rows()).map(|index| self.row(index))
    }

    /// Current row capacity of the numeric columns (the smallest
    /// column capacity): stable across repeated same-shape sweeps, the
    /// zero-reallocation invariant `tests/eval_batch.rs` watches.
    #[must_use]
    pub fn row_capacity(&self) -> usize {
        self.device_power_w
            .capacity()
            .min(self.wall_power_w.capacity())
            .min(self.relative_power.capacity())
            .min(self.relative_latency.capacity())
            .min(self.footprint_mm2.capacity())
            .min(self.lifetime_years.capacity())
            .min(self.bandwidth_utilization.capacity())
            .min(self.feasibility.capacity())
            .min(self.slowdown.capacity())
    }

    /// Reconstructs the traffic record of benchmark column `index` —
    /// bit-identical to the benchmark's own record.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of the benchmark columns.
    #[must_use]
    pub fn traffic_of(&self, index: usize) -> LlcTraffic {
        self.traffic.get(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;
    use crate::explorer::Explorer;

    #[test]
    fn arena_grid_accessors_are_consistent() {
        let explorer = Explorer::with_defaults();
        let configs = [MemoryConfig::sram_350k(), MemoryConfig::edram_77k()];
        let plan = explorer.plan_sweep(&configs).expect("configs resolve");
        let mut arena = EvalArena::new();
        explorer.run(&plan, &mut arena);

        assert_eq!(arena.config_count(), 2);
        assert_eq!(arena.benchmark_count(), plan.benchmarks().len());
        assert_eq!(arena.rows(), plan.rows());
        assert!(!arena.is_empty());
        let index = arena.row_index(1, 3);
        assert_eq!(index, arena.benchmark_count() + 3);
        let row = arena.row(index);
        assert_eq!(row.config_label, arena.config_labels()[1]);
        assert_eq!(row.benchmark, arena.benchmark_names()[3]);
        assert_eq!(row.traffic, arena.traffic_of(3));
        assert_eq!(row.relative_power, arena.relative_power()[index]);
        assert_eq!(row.relative_latency, arena.relative_latency()[index]);
        assert_eq!(row.footprint_mm2, arena.footprint_mm2()[index]);
        assert_eq!(row.lifetime_years, arena.lifetime_years()[index]);
        assert_eq!(row.feasibility, arena.feasibility()[index]);
        assert_eq!(row.slowdown, arena.slowdown()[index]);
        assert_eq!(arena.iter_rows().collect::<Vec<_>>(), arena.to_rows(),);
    }

    /// `validate` checks the arena's rows with the predicate
    /// `LlcEvaluation::validate` uses, so one bad row anywhere in the
    /// grid fails the arena with exactly that row's own error.
    #[test]
    fn validate_returns_the_bad_rows_own_error() {
        /// Spoils one row's numbers or its lifetime.
        type Spoil = fn(&mut RowValues, &mut f64);
        let explorer = Explorer::with_defaults();
        let plan = explorer
            .plan_sweep(&MemoryConfig::study_set())
            .expect("the study set resolves");
        let mut clean = EvalArena::new();
        explorer.run(&plan, &mut clean);
        assert_eq!(clean.validate(), Ok(()));

        // A serviceable row past the middle, so the check walks to it.
        let bad = (clean.rows() / 2..clean.rows())
            .find(|&i| clean.feasibility[i].is_serviceable())
            .expect("the study grid has serviceable rows");
        let spoiled = |spoil: Spoil| {
            let mut arena = EvalArena::new();
            arena.begin(plan.benchmarks());
            for (c, label) in clean.config_labels().iter().enumerate() {
                arena.push_plane_label(label.clone());
                for b in 0..clean.benchmark_count() {
                    let index = clean.row_index(c, b);
                    let mut values = clean.values(index);
                    let mut lifetime = clean.lifetime_years[index];
                    if index == bad {
                        spoil(&mut values, &mut lifetime);
                    }
                    arena.push_row(&values, lifetime);
                }
            }
            arena
        };
        let cases: [(&str, Spoil); 3] = [
            ("device_power", |values, _| values.device_power_w = f64::NAN),
            ("lifetime_years", |_, lifetime| *lifetime = f64::NAN),
            ("sentinel without verdict", |values, _| {
                values.relative_latency = f64::INFINITY;
                values.feasibility = Feasibility::Viable;
            }),
        ];
        for (field, spoil) in cases {
            let arena = spoiled(spoil);
            let expected = if field == "device_power" {
                // `Watts` refuses a NaN, so this row cannot materialize;
                // an infinite device power fails the same check.
                spoiled(|values, _| values.device_power_w = f64::INFINITY).row(bad)
            } else {
                arena.row(bad)
            }
            .validate()
            .expect_err(field);
            assert!(expected.to_string().contains(field), "{expected}");
            assert_eq!(arena.validate(), Err(expected), "{field}");
        }
    }

    #[test]
    #[should_panic(expected = "benchmark index out of range")]
    fn row_index_rejects_out_of_grid_cells() {
        let explorer = Explorer::with_defaults();
        let plan = explorer
            .plan_sweep(&[MemoryConfig::sram_350k()])
            .expect("config resolves");
        let mut arena = EvalArena::new();
        explorer.run(&plan, &mut arena);
        let _ = arena.row_index(0, arena.benchmark_count());
    }
}
