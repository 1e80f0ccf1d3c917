//! The exploration's typed error taxonomy.
//!
//! Outside input reaches the engine only as a [`crate::Request`], from
//! a CLI flag or a serve wire field, and [`crate::RequestHandler`]
//! lowers every invalid one to a variant of [`Error`] instead of a
//! panic. Every variant but [`Error::NonFinite`] names a failure some
//! request can cause. `NonFinite` guards the invariant that every
//! evaluation is finite or explicitly infeasible: a
//! [`crate::LlcEvaluation`] field is either a finite number, a
//! documented `f64::INFINITY` sentinel (unserviceable latency,
//! unlimited lifetime), or the row is rejected here. `NaN` is never a
//! legal value anywhere in the exploration's outputs.

use core::fmt;

use coldtall_units::InvalidTemperature;

/// Everything that can go wrong between an untrusted input and a
/// finished evaluation.
///
/// # Examples
///
/// ```
/// use coldtall_core::{Error, Explorer, MemoryConfig};
///
/// let explorer = Explorer::with_defaults();
/// let err = explorer
///     .try_evaluate(&MemoryConfig::sram_350k(), "doom")
///     .unwrap_err();
/// assert!(matches!(err, Error::UnknownBenchmark { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A temperature outside the finite, strictly positive range.
    InvalidTemperature(InvalidTemperature),
    /// A die count outside the study's 1/2/4/8 set.
    InvalidDieCount {
        /// The rejected die count.
        dies: u8,
    },
    /// A technology name the exploration does not know.
    UnknownTechnology {
        /// The unrecognized name as supplied.
        name: String,
    },
    /// A benchmark name missing from the workload suite.
    UnknownBenchmark {
        /// The unrecognized name as supplied.
        name: String,
    },
    /// An internal model produced a non-finite number where a finite
    /// one is guaranteed — an invariant violation, reported instead of
    /// letting `NaN` leak into downstream screening.
    NonFinite {
        /// What was being computed when the invariant broke.
        context: String,
    },
    /// Neither characterization backend admits the configuration.
    NoBackend {
        /// Display label of the unclaimed configuration.
        config: String,
    },
    /// An adaptive search was asked to explore a region holding no
    /// design points at all (for example, a CLI filter that matches
    /// nothing). An *infeasible* region is a result (an empty
    /// frontier), not an error; an *empty* one is a caller mistake.
    EmptySearchSpace {
        /// Description of the empty region as the caller named it.
        region: String,
    },
    /// A tentpole name that is neither `optimistic` nor `pessimistic`.
    UnknownTentpole {
        /// The unrecognized name as supplied.
        name: String,
    },
    /// A design point the exploration deliberately does not model: a
    /// physical temperature outside the modeled 60-400 K window.
    UnsupportedPoint {
        /// Why the combination is out of scope.
        reason: String,
    },
    /// A search temperature selector that is not `study`, a kelvin
    /// value inside the modeled 60-400 K window, or a `lo:hi` range
    /// holding at least one study temperature.
    InvalidTemps {
        /// The selector as supplied.
        temps: String,
        /// Why it was refused.
        reason: &'static str,
    },
    /// A request ran past the per-request deadline its caller set.
    /// Raised by the serve frontend's [`crate::RequestHandler`], which
    /// checks the budget between pipeline stages — work already
    /// dispatched is finished (and cached), not torn down.
    DeadlineExceeded {
        /// Milliseconds actually elapsed when the check fired.
        elapsed_ms: u64,
        /// The caller's budget in milliseconds.
        budget_ms: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidTemperature(e) => e.fmt(f),
            Self::InvalidDieCount { dies } => {
                write!(f, "the study stacks 1, 2, 4, or 8 dies, got {dies}")
            }
            Self::UnknownTechnology { name } => write!(f, "unknown technology '{name}'"),
            Self::UnknownBenchmark { name } => write!(f, "unknown benchmark '{name}'"),
            Self::NonFinite { context } => {
                write!(f, "internal model produced a non-finite value in {context}")
            }
            Self::NoBackend { config } => {
                write!(f, "no characterization backend supports {config}")
            }
            Self::EmptySearchSpace { region } => {
                write!(f, "the search region '{region}' contains no design points")
            }
            Self::UnknownTentpole { name } => write!(
                f,
                "unknown tentpole '{name}' (expected optimistic or pessimistic)"
            ),
            Self::UnsupportedPoint { reason } => {
                write!(f, "unsupported design point: {reason}")
            }
            Self::InvalidTemps { temps, reason } => write!(f, "temps '{temps}': {reason}"),
            Self::DeadlineExceeded {
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "request deadline exceeded: {elapsed_ms} ms elapsed against a {budget_ms} ms budget"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidTemperature(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InvalidTemperature> for Error {
    fn from(e: InvalidTemperature) -> Self {
        Self::InvalidTemperature(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_input() {
        let err = Error::from(coldtall_units::Kelvin::try_new(-3.0).unwrap_err());
        assert!(err.to_string().contains("-3"));
        assert!(Error::UnknownBenchmark {
            name: "doom".into()
        }
        .to_string()
        .contains("'doom'"));
        assert!(Error::InvalidDieCount { dies: 5 }
            .to_string()
            .contains("1, 2, 4, or 8"));
        assert!(Error::NoBackend {
            config: "77K SRAM".into()
        }
        .to_string()
        .contains("77K SRAM"));
        assert!(Error::EmptySearchSpace {
            region: "edram x 8 dies".into()
        }
        .to_string()
        .contains("'edram x 8 dies'"));
    }

    #[test]
    fn sources_chain_to_the_layer_that_rejected() {
        use std::error::Error as _;
        let err = Error::from(coldtall_units::Kelvin::try_new(f64::NAN).unwrap_err());
        assert!(err.source().is_some());
        assert!(Error::UnknownTechnology {
            name: "flash".into()
        }
        .source()
        .is_none());
    }
}
