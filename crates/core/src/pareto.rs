//! Constraint filtering and Pareto-frontier extraction.
//!
//! NVMExplorer's inputs include "system design space and constraints";
//! this module implements that side of the flow: screen evaluations
//! against deployment constraints, extract the power/latency/area
//! Pareto frontier, and recommend a configuration.

use crate::evaluate::LlcEvaluation;

/// Deployment constraints an LLC evaluation must satisfy.
///
/// The default constraints encode the paper's viability conditions: no
/// slowdown versus the SRAM baseline (relative latency at most 1) and a
/// five-year lifetime.
///
/// # Examples
///
/// ```
/// use coldtall_core::{Constraints, Explorer, MemoryConfig};
/// use coldtall_workloads::benchmark;
///
/// let explorer = Explorer::with_defaults();
/// let eval = explorer.evaluate(&MemoryConfig::sram_350k(), benchmark("namd").unwrap());
/// assert!(Constraints::default().satisfied_by(&eval));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Maximum relative LLC latency (1 = no slowdown vs 350 K SRAM).
    pub max_relative_latency: f64,
    /// Maximum 2D footprint in square millimeters, if bounded.
    pub max_area_mm2: Option<f64>,
    /// Minimum wear-limited lifetime in years.
    pub min_lifetime_years: f64,
    /// Maximum relative power, if bounded.
    pub max_relative_power: Option<f64>,
}

impl Default for Constraints {
    fn default() -> Self {
        Self {
            max_relative_latency: 1.0,
            max_area_mm2: None,
            min_lifetime_years: crate::lifetime::LIFETIME_TARGET_YEARS,
            max_relative_power: None,
        }
    }
}

impl Constraints {
    /// Unconstrained screening: everything passes except unserviceable
    /// (refresh-dead or bandwidth-saturated) configurations, which
    /// [`Constraints::satisfied_by`] always rejects.
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_relative_latency: f64::INFINITY,
            max_area_mm2: None,
            min_lifetime_years: 0.0,
            max_relative_power: None,
        }
    }

    /// Whether `eval` satisfies every constraint.
    ///
    /// Unserviceable rows (non-finite relative latency) never satisfy
    /// any constraint set — even [`Constraints::none`], whose infinite
    /// latency bound would otherwise let `INFINITY <= INFINITY` pass a
    /// refresh-dead configuration into `recommend`.
    #[must_use]
    pub fn satisfied_by(&self, eval: &LlcEvaluation) -> bool {
        eval.relative_latency.is_finite()
            && eval.relative_latency <= self.max_relative_latency
            && self.max_area_mm2.is_none_or(|a| eval.footprint_mm2 <= a)
            && eval.lifetime_years >= self.min_lifetime_years
            && self
                .max_relative_power
                .is_none_or(|p| eval.relative_power <= p)
    }
}

/// Returns `true` if `a` dominates `b` in the (power, latency, area)
/// minimization sense: no worse everywhere, strictly better somewhere.
///
/// The production paths work on [`coords_dominate`] directly; this row
/// form remains as the test oracle for frontier membership.
#[cfg(test)]
#[must_use]
fn dominates(a: &LlcEvaluation, b: &LlcEvaluation) -> bool {
    coords_dominate(
        &[a.relative_power, a.relative_latency, a.footprint_mm2],
        &[b.relative_power, b.relative_latency, b.footprint_mm2],
    )
}

/// Returns `true` if `a` dominates `b`: no worse than `b` everywhere,
/// strictly better somewhere, in the minimization sense.
fn coords_dominate(a: &[f64; 3], b: &[f64; 3]) -> bool {
    let no_worse = a[0] <= b[0] && a[1] <= b[1] && a[2] <= b[2];
    let better = a[0] < b[0] || a[1] < b[1] || a[2] < b[2];
    no_worse && better
}

/// One accepted point of a [`ParetoFrontier`]: its insertion sequence
/// number, its objective coordinates, and the row.
#[derive(Debug, Clone)]
struct FrontierPoint {
    seq: usize,
    coords: [f64; 3],
    row: LlcEvaluation,
}

/// An incremental Pareto frontier over up to three minimized
/// coordinates: insert points one at a time, and the structure keeps
/// exactly the non-dominated (maximal) finite points seen so far.
///
/// Each insertion either bounces off an existing dominator, or lands
/// and evicts every point the newcomer dominates. Because dominance is
/// a strict partial order (transitive and irreflexive), the resident
/// set after any insertion sequence is the set of maximal elements of
/// everything inserted — independent of insertion order. That
/// order-invariance is what lets the adaptive search (which visits
/// design points in best-first order) and the exhaustive sweep (which
/// visits them in grid order) produce the same frontier.
///
/// A row is cloned only on acceptance, so a rejected point costs three
/// comparisons per resident and no clone. The `seq` number passed at
/// insertion is the global tie-breaker:
/// [`ParetoFrontier::into_sorted`] orders by `(coords[0], seq)`, which
/// reproduces a *stable* sort by the first coordinate whenever `seq`
/// follows the original row order.
#[derive(Debug, Clone, Default)]
pub struct ParetoFrontier {
    points: Vec<FrontierPoint>,
}

impl ParetoFrontier {
    /// An empty frontier.
    #[must_use]
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Number of resident (mutually non-dominated) points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the frontier holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Offers an evaluation under the standard (relative power,
    /// relative latency, footprint) coordinates; returns `true` if it
    /// joined the frontier.
    ///
    /// A point with any non-finite coordinate is rejected outright (a
    /// `NaN`/`INF` coordinate can never be dominated, so admitting one
    /// would seat it on the frontier forever). A point dominated by a
    /// resident is rejected without cloning the row. An accepted point
    /// evicts every resident it dominates. Coordinate-equal points do
    /// not dominate each other, so duplicates coexist until
    /// [`ParetoFrontier::into_sorted`] deduplicates by label order.
    pub fn insert(&mut self, seq: usize, eval: &LlcEvaluation) -> bool {
        let coords = [
            eval.relative_power,
            eval.relative_latency,
            eval.footprint_mm2,
        ];
        if !coords.iter().all(|c| c.is_finite()) {
            return false;
        }
        if self
            .points
            .iter()
            .any(|p| coords_dominate(&p.coords, &coords))
        {
            return false;
        }
        self.points.retain(|p| !coords_dominate(&coords, &p.coords));
        self.points.push(FrontierPoint {
            seq,
            coords,
            row: eval.clone(),
        });
        true
    }

    /// Whether some resident point is *strictly* below `corner` in all
    /// three coordinates.
    ///
    /// This is the region-prune test of the adaptive search: if a
    /// resident beats a region's componentwise lower-bound corner
    /// strictly everywhere, it strictly dominates every member of the
    /// region (member values are `>=` the corner coordinate by
    /// coordinate), so no member can ever join the frontier. Weak
    /// (`<=`) comparison would be unsound here — a coordinate-equal
    /// member belongs *on* the frontier.
    #[must_use]
    pub fn strictly_dominates(&self, corner: [f64; 3]) -> bool {
        self.points
            .iter()
            .any(|p| p.coords[0] < corner[0] && p.coords[1] < corner[1] && p.coords[2] < corner[2])
    }

    /// Iterates the resident points as `(seq, coords, row)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, [f64; 3], &LlcEvaluation)> {
        self.points.iter().map(|p| (p.seq, p.coords, &p.row))
    }

    /// Consumes the frontier into the classic presentation: ascending
    /// relative power (ties in original `seq` order), one row per
    /// configuration label.
    ///
    /// When every row of a set was offered with `seq` equal to its
    /// original index, this is byte-identical to the historical
    /// filter-at-the-end extraction: a stable sort by relative power
    /// followed by consecutive-label deduplication.
    #[must_use]
    pub fn into_sorted(self) -> Vec<LlcEvaluation> {
        let mut points = self.points;
        points.sort_by(|a, b| a.coords[0].total_cmp(&b.coords[0]).then(a.seq.cmp(&b.seq)));
        let mut front: Vec<LlcEvaluation> = points.into_iter().map(|p| p.row).collect();
        front.dedup_by(|a, b| a.config_label == b.config_label);
        front
    }
}

/// Extracts the power/latency/area Pareto frontier of a set of
/// evaluations (typically one benchmark across all configurations),
/// sorted by ascending relative power.
///
/// Every objective must be finite for a row to be a frontier
/// candidate: a non-finite power or area coordinate can never be
/// dominated (`NaN` fails every `<=`), so filtering latency alone
/// would seat such rows on the frontier forever. Implemented as one
/// pass of [`ParetoFrontier`] insertions in row order; non-finite rows
/// also cannot *dominate* a finite row (the `<=` fails), so skipping
/// them at insertion changes nothing for the finite survivors.
#[must_use]
pub fn pareto_front(evals: &[LlcEvaluation]) -> Vec<LlcEvaluation> {
    let mut frontier = ParetoFrontier::new();
    for (seq, eval) in evals.iter().enumerate() {
        frontier.insert(seq, eval);
    }
    frontier.into_sorted()
}

/// Recommends the lowest-power configuration satisfying `constraints`
/// for the given pre-computed evaluations, or `None` when nothing
/// qualifies: the first finite power minimum among the satisfiers, in
/// row order.
#[must_use]
pub fn recommend<'a>(
    evals: &'a [LlcEvaluation],
    constraints: &Constraints,
) -> Option<&'a LlcEvaluation> {
    argmin(
        evals.iter().filter(|eval| constraints.satisfied_by(eval)),
        |eval| eval.relative_power,
    )
}

/// The first item whose `score` is a finite minimum by
/// [`f64::total_cmp`], or `None` when no score is finite — the
/// first-of-equal-minima semantics of `Iterator::min_by`, with
/// non-finite scores never chosen. The one argmin behind
/// [`recommend`] and Table II's per-benchmark rankings.
pub(crate) fn argmin<T>(
    items: impl IntoIterator<Item = T>,
    score: impl Fn(&T) -> f64,
) -> Option<T> {
    items
        .into_iter()
        .map(|item| {
            let value = score(&item);
            (item, value)
        })
        .filter(|(_, value)| value.is_finite())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(item, _)| item)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;
    use crate::explorer::Explorer;
    use coldtall_workloads::benchmark;

    fn evals_for(bench_name: &str) -> Vec<LlcEvaluation> {
        let explorer = Explorer::with_defaults();
        let bench = benchmark(bench_name).unwrap();
        MemoryConfig::study_set()
            .iter()
            .map(|c| explorer.evaluate(c, bench))
            .collect()
    }

    #[test]
    fn front_members_are_mutually_non_dominated() {
        let evals = evals_for("namd");
        let front = pareto_front(&evals);
        assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                if a.config_label != b.config_label {
                    assert!(!dominates(a, b) || !dominates(b, a));
                }
            }
        }
        // Everything off the front is dominated by something on it.
        for e in &evals {
            if e.relative_latency.is_finite()
                && !front.iter().any(|f| f.config_label == e.config_label)
            {
                assert!(
                    evals.iter().any(|other| dominates(other, e)),
                    "{} should be dominated",
                    e.config_label
                );
            }
        }
    }

    #[test]
    fn front_excludes_refresh_dead_configs() {
        let evals = evals_for("namd");
        let front = pareto_front(&evals);
        assert!(front.iter().all(|e| e.relative_latency.is_finite()));
    }

    #[test]
    fn default_constraints_require_viability() {
        let evals = evals_for("lbm");
        let pick = recommend(&evals, &Constraints::default()).unwrap();
        assert!(pick.relative_latency <= 1.0);
        assert!(pick.meets_lifetime_target());
        // Unconstrained pick is at least as low-power.
        let free = recommend(&evals, &Constraints::none()).unwrap();
        assert!(free.relative_power <= pick.relative_power);
    }

    #[test]
    fn impossible_constraints_yield_none() {
        let evals = evals_for("namd");
        let constraints = Constraints {
            max_area_mm2: Some(0.001),
            ..Constraints::default()
        };
        assert!(recommend(&evals, &constraints).is_none());
    }

    /// Regression (ISSUE 3): `Constraints::none()` sets an infinite
    /// latency bound, and `INFINITY <= INFINITY` used to let
    /// refresh-dead rows pass screening — `recommend` could then pick
    /// an LLC that cannot run any workload.
    #[test]
    fn constraints_none_rejects_unserviceable_rows() {
        let explorer = Explorer::with_defaults();
        let dead = explorer.evaluate(&MemoryConfig::edram_350k(), benchmark("namd").unwrap());
        assert!(dead.relative_latency.is_infinite(), "precondition");
        assert!(!Constraints::none().satisfied_by(&dead));
        // A pool of only unserviceable rows must recommend nothing.
        assert!(recommend(std::slice::from_ref(&dead), &Constraints::none()).is_none());
        // And in the real study set, the unconstrained pick is never an
        // unserviceable configuration.
        let evals = evals_for("namd");
        let free = recommend(&evals, &Constraints::none()).unwrap();
        assert!(free.relative_latency.is_finite());
        assert!(free.feasibility.is_serviceable());
    }

    /// Regression (ISSUE 3): only latency was finiteness-filtered, so a
    /// row with NaN power or area could never be dominated and landed
    /// on the frontier.
    #[test]
    fn pareto_front_rejects_nan_power_and_area_rows() {
        let evals = evals_for("namd");
        let mut poisoned = evals.clone();
        let mut nan_power = evals[0].clone();
        nan_power.config_label = "nan-power".into();
        nan_power.relative_power = f64::NAN;
        let mut nan_area = evals[0].clone();
        nan_area.config_label = "nan-area".into();
        nan_area.footprint_mm2 = f64::NAN;
        poisoned.push(nan_power);
        poisoned.push(nan_area);
        let front = pareto_front(&poisoned);
        assert!(front.iter().all(|e| !e.config_label.starts_with("nan-")));
        assert_eq!(front, pareto_front(&evals), "poison rows change nothing");
    }

    #[test]
    fn area_constraint_filters_planar_sram() {
        let evals = evals_for("povray");
        let constraints = Constraints {
            max_area_mm2: Some(3.0),
            ..Constraints::none()
        };
        let pick = recommend(&evals, &constraints).unwrap();
        assert!(pick.footprint_mm2 <= 3.0);
        assert_ne!(pick.config_label, "SRAM");
    }
}
