//! Error type for the learning substrate.

use std::error::Error;
use std::fmt;

/// Error returned by fallible learning operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlError {
    /// The dataset was empty where samples are required.
    EmptyDataset,
    /// Samples have inconsistent dimensionality.
    DimensionMismatch {
        /// Dimensionality of the first sample.
        expected: usize,
        /// Dimensionality of the offending sample.
        actual: usize,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The violated constraint.
        constraint: &'static str,
    },
    /// More clusters/folds were requested than there are samples.
    NotEnoughSamples {
        /// How many samples the operation needs.
        needed: usize,
        /// How many were available.
        available: usize,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyDataset => write!(f, "dataset is empty"),
            MlError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "sample dimensionality {actual} does not match {expected}"
                )
            }
            MlError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter `{name}`: {constraint}")
            }
            MlError::NotEnoughSamples { needed, available } => {
                write!(f, "need at least {needed} samples, have {available}")
            }
        }
    }
}

impl Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MlError::NotEnoughSamples {
            needed: 4,
            available: 2,
        };
        assert!(e.to_string().contains('4'));
        assert!(e.to_string().contains('2'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MlError>();
    }
}
