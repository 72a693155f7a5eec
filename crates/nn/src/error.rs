//! Typed errors for network configuration and training.
//!
//! Every shape or wiring defect the trainers can detect — a zero-width
//! layer, a rate outside its range, a backward pass with no cached
//! forward activations — surfaces as a [`DimensionError`] instead of a
//! panic, so the model zoo can skip a misconfigured family and keep
//! serving the rest.

use std::fmt;

/// A configuration or layer-wiring defect detected before or during
/// training.
#[derive(Debug, Clone, PartialEq)]
pub enum DimensionError {
    /// A width or count hyper-parameter that must be positive is zero.
    ZeroWidth {
        /// Which hyper-parameter (e.g. `"hidden layer"`, `"batch_size"`).
        what: &'static str,
    },
    /// A rate hyper-parameter is outside its valid range.
    RateOutOfRange {
        /// Which hyper-parameter (e.g. `"dropout"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `fit` was called with no training rows.
    EmptyTrainingSet,
    /// `fit` was called with `x` and `y` (or the validation pair's `x` and
    /// `y`) of different lengths.
    LengthMismatch {
        /// Rows in `x`.
        x: usize,
        /// Targets in `y`.
        y: usize,
    },
    /// A layer's backward pass ran without a cached training-mode forward.
    BackwardBeforeForward {
        /// Which layer.
        layer: &'static str,
    },
    /// An optimiser step ran without gradients from a backward pass.
    MissingGradient {
        /// Which layer.
        layer: &'static str,
    },
}

impl fmt::Display for DimensionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimensionError::ZeroWidth { what } => {
                write!(f, "{what} must be positive, got 0")
            }
            DimensionError::RateOutOfRange { what, value } => {
                write!(f, "{what} is out of range: {value}")
            }
            DimensionError::EmptyTrainingSet => write!(f, "empty training set"),
            DimensionError::LengthMismatch { x, y } => {
                write!(f, "x/y length mismatch: {x} rows vs {y} targets")
            }
            DimensionError::BackwardBeforeForward { layer } => {
                write!(f, "{layer}: backward called before a training-mode forward")
            }
            DimensionError::MissingGradient { layer } => {
                write!(f, "{layer}: optimiser step without gradients from backward")
            }
        }
    }
}

impl std::error::Error for DimensionError {}

/// The input checks every `fit` makes before training: a non-empty
/// training set, and `x` and `y` of equal length in the training pair and
/// in the validation pair.
pub(crate) fn check_fit_inputs(
    x: &[Vec<f64>],
    y: &[f64],
    valid: Option<(&[Vec<f64>], &[f64])>,
) -> Result<(), DimensionError> {
    if x.is_empty() {
        return Err(DimensionError::EmptyTrainingSet);
    }
    for (x, y) in std::iter::once((x, y)).chain(valid) {
        if x.len() != y.len() {
            return Err(DimensionError::LengthMismatch {
                x: x.len(),
                y: y.len(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        let e = DimensionError::ZeroWidth { what: "batch_size" };
        assert!(e.to_string().contains("batch_size"));
        let e = DimensionError::RateOutOfRange {
            what: "dropout",
            value: 1.5,
        };
        assert!(e.to_string().contains("1.5"));
        let e = DimensionError::LengthMismatch { x: 3, y: 5 };
        assert!(e.to_string().contains("3 rows vs 5 targets"));
    }
}
