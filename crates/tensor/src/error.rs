use std::fmt;

/// Errors raised by tensor operations.
///
/// Every fallible tensor operation reports what went wrong with enough shape
/// context to debug it without a stack trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of data elements does not match the product of the shape.
    LengthMismatch { expected: usize, got: usize },
    /// Two shapes that must agree (exactly or via broadcasting) do not.
    ShapeMismatch { op: &'static str, lhs: Vec<usize>, rhs: Vec<usize> },
    /// An axis index is out of range for the tensor's rank.
    AxisOutOfRange { axis: usize, ndim: usize },
    /// An index along an axis is out of range.
    IndexOutOfRange { index: usize, len: usize },
    /// The operation requires a specific rank. Carries the operand's full
    /// shape so the error is debuggable without a stack trace.
    RankMismatch { op: &'static str, expected: usize, got: usize, shape: Vec<usize> },
    /// A free-form invalid-argument error (e.g. zero-sized kernel).
    Invalid(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, got } => {
                write!(f, "data length {got} does not match shape product {expected}")
            }
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            TensorError::AxisOutOfRange { axis, ndim } => {
                write!(f, "axis {axis} out of range for rank-{ndim} tensor")
            }
            TensorError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for axis of length {len}")
            }
            TensorError::RankMismatch { op, expected, got, shape } => {
                write!(f, "{op}: expected rank {expected}, got rank {got} with dims {shape:?}")
            }
            TensorError::Invalid(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
