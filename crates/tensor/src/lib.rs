//! # sthsl-tensor
//!
//! Dense, row-major, contiguous `f32` N-dimensional tensors with the operation
//! set required by the ST-HSL crime-prediction stack: NumPy-style broadcasting,
//! (batched) matrix multiplication, grouped 1-D/2-D convolutions with their
//! analytic backward passes, reductions, and shape manipulation.
//!
//! Design choices:
//! - Tensors are **always contiguous**; `permute`/`reshape` materialise copies
//!   when needed. This keeps every kernel a straight loop over `Vec<f32>` and
//!   makes correctness easy to audit, which matters more here than squeezing
//!   the last cycles out of a research reproduction.
//! - All fallible operations return [`TensorError`] instead of panicking, so
//!   shape bugs surface as typed errors at the public API boundary.
//!
//! ```
//! use sthsl_tensor::Tensor;
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.data(), a.data());
//! ```

mod error;
mod init;
mod shape;
mod tensor;

pub mod ops;
pub mod schedule;
pub mod simd;

pub use error::TensorError;
pub use shape::{broadcast_shapes, flatten_index, for_each_index, strides_of, Shape};
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
