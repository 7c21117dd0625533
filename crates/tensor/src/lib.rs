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

// R7: a numeric `as` cast in kernel code can silently truncate (a `usize as
// f32` above 2^24 corrupts means and norms). Library code uses `From` /
// `try_from`; the grandfathered sites carry an `expect` with a reason.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss
    )
)]

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

#[cfg(test)]
mod tests {
    use std::path::Path;

    /// `(path, text)` of every library source file under `dir`: each file up
    /// to its first `#[cfg(test)]` (test modules sit at the end of a file),
    /// whole-file test modules skipped.
    fn library_sources(dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                library_sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                if !text.contains("#![cfg(test)]") {
                    let live = text.split("#[cfg(test)]").next().unwrap_or_default();
                    out.push((path.display().to_string(), live.to_owned()));
                }
            }
        }
    }

    /// R9 (DESIGN.md §6c): a closure literal handed to `parallel_rows_mut`
    /// runs once per band of rows, and a scalar it captures by reference is
    /// re-read through a pointer inside the row loop, which can keep the loop
    /// from vectorizing. `move` copies the scalar in. (The element closures
    /// of `map`, `map_inplace` and `zip_map` are held to this by a `'static`
    /// bound instead.)
    #[test]
    fn row_kernel_closures_are_move() {
        let mut sources = Vec::new();
        library_sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), &mut sources);
        let mut checked = 0;
        for (path, text) in &sources {
            for (at, call) in text.match_indices("parallel_rows_mut(") {
                // The call's arguments run to the matching `)`; a closure
                // literal among them starts at the first `|`, and a
                // closure-valued argument has none.
                let args = &text[at + call.len()..];
                let mut depth = 1;
                let end = args
                    .find(|c| {
                        depth += i32::from(c == '(') - i32::from(c == ')');
                        depth == 0
                    })
                    .unwrap_or(args.len());
                let Some(bar) = args[..end].find('|') else { continue };
                let line = text[..at].lines().count();
                assert!(
                    args[..bar].trim_end().ends_with("move"),
                    "{path}:{line}: the closure passed to parallel_rows_mut must be `move`"
                );
                checked += 1;
            }
        }
        // The scan itself must be looking at the kernels: matmul, conv,
        // reductions and the elementwise maps all run on row bands.
        assert!(checked >= 10, "found only {checked} parallel_rows_mut closures");
    }
}
