//! Tensor operations beyond elementwise arithmetic, grouped by family.
//!
//! - [`matmul`] — 2-D and batched matrix multiplication.
//! - [`conv`] — 1-D/2-D convolutions with "same" padding, dilation and their
//!   analytic backward kernels (used directly by the autograd crate).
//! - [`reduce`] — axis and whole-tensor reductions, softmax.
//! - [`manip`] — permute, concat, slice, stack, index-select.

pub mod conv;
pub mod manip;
pub mod matmul;
#[cfg(test)]
mod oracle;
pub mod reduce;
