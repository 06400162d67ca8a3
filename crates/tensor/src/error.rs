//! Error types for tensor operations.

use std::error::Error;
use std::fmt;

/// Error produced by tensor construction, indexing, and the MMA shape
/// rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that must agree did not.
    ShapeMismatch {
        /// Expected shape.
        expected: Vec<usize>,
        /// Shape actually supplied.
        actual: Vec<usize>,
    },
    /// An index was out of bounds for the tensor.
    IndexOutOfBounds {
        /// Index supplied.
        index: Vec<usize>,
        /// Bounds it was checked against.
        bounds: Vec<usize>,
    },
    /// Rank of an argument did not match the operation's requirement.
    RankMismatch {
        /// Rank required.
        expected: usize,
        /// Rank supplied.
        actual: usize,
    },
    /// An MMA partition was requested with a fragment shape the instruction
    /// does not support.
    UnsupportedMmaShape {
        /// Tensor shape supplied.
        shape: Vec<usize>,
        /// Human-readable requirement, e.g. "rows divisible by 64".
        requirement: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected:?}, got {actual:?}")
            }
            TensorError::IndexOutOfBounds { index, bounds } => {
                write!(f, "index {index:?} out of bounds {bounds:?}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "rank mismatch: expected {expected}, got {actual}")
            }
            TensorError::UnsupportedMmaShape { shape, requirement } => {
                write!(f, "unsupported mma fragment shape {shape:?}: {requirement}")
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs: Vec<TensorError> = vec![
            TensorError::ShapeMismatch {
                expected: vec![1],
                actual: vec![2],
            },
            TensorError::IndexOutOfBounds {
                index: vec![3],
                bounds: vec![2],
            },
            TensorError::RankMismatch {
                expected: 2,
                actual: 1,
            },
            TensorError::UnsupportedMmaShape {
                shape: vec![3, 3],
                requirement: "rows divisible by 64",
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }
}
