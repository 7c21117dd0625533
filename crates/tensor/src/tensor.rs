use crate::shape::{broadcast_shapes, strides_of};
use crate::simd::wide;
use crate::{Result, TensorError};
use std::ops::Range;
use sthsl_parallel::REDUCE_BLOCK;

/// Elementwise kernels only fan out above this element count; below it the
/// band count collapses to 1 and the loop runs inline on the caller.
pub(crate) const MIN_ELEMS_PER_BAND: usize = 1 << 14;

/// A dense, contiguous, row-major `f32` tensor.
///
/// The invariant `data.len() == shape.iter().product()` holds for every
/// constructed tensor; all constructors enforce it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Build a tensor from raw data and a shape. Fails when the element count
    /// does not match the shape product.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch { expected, got: data.len() });
        }
        Ok(Tensor { data, shape: shape.to_vec() })
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { data: vec![0.0; shape.iter().product()], shape: shape.to_vec() }
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor { data: vec![value; shape.iter().product()], shape: shape.to_vec() }
    }

    /// Rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: vec![value], shape: vec![] }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// `[0, 1, ..., n-1]` as a 1-D tensor.
    #[expect(
        clippy::cast_precision_loss,
        reason = "R7: an index above 2^24 rounds to the nearest f32, as any f32 ramp must"
    )]
    pub fn arange(n: usize) -> Self {
        Tensor { data: (0..n).map(|i| i as f32).collect(), shape: vec![n] }
    }

    // ------------------------------------------------------------ accessors

    /// Dimension list.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of dimensions). A scalar has rank 0.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its backing data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index. Panics on out-of-range indices (debug aid;
    /// use only where indices are known valid).
    pub fn at(&self, index: &[usize]) -> f32 {
        debug_assert_eq!(index.len(), self.shape.len());
        let strides = strides_of(&self.shape);
        let off: usize = index.iter().zip(&strides).map(|(i, s)| i * s).sum();
        self.data[off]
    }

    /// Mutable element at a multi-index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        debug_assert_eq!(index.len(), self.shape.len());
        let strides = strides_of(&self.shape);
        let off: usize = index.iter().zip(&strides).map(|(i, s)| i * s).sum();
        &mut self.data[off]
    }

    /// Value of a rank-0 or single-element tensor.
    pub fn item(&self) -> Result<f32> {
        if self.data.len() != 1 {
            return Err(TensorError::Invalid(format!(
                "item() requires exactly one element, tensor has {}",
                self.data.len()
            )));
        }
        Ok(self.data[0])
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    // ------------------------------------------------------------- map/zip

    /// Apply `f` elementwise, producing a new tensor of the same shape.
    /// Parallel above a size cutoff; each element is written by exactly one
    /// thread, so results are bit-identical at every thread count.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync + 'static) -> Tensor {
        let n = self.data.len();
        let src = &self.data;
        let mut data = vec![0.0f32; n];
        sthsl_parallel::parallel_rows_mut(
            &mut data,
            n,
            1,
            MIN_ELEMS_PER_BAND,
            move |rows, band| {
                wide!(band, |band| {
                    for (o, &v) in band.iter_mut().zip(&src[rows]) {
                        *o = f(v);
                    }
                });
            },
        );
        Tensor { data, shape: self.shape.clone() }
    }

    /// Apply `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync + 'static) {
        let n = self.data.len();
        sthsl_parallel::parallel_rows_mut(
            &mut self.data,
            n,
            1,
            MIN_ELEMS_PER_BAND,
            move |_, band| {
                wide!(band, |band| {
                    for v in band.iter_mut() {
                        *v = f(*v);
                    }
                });
            },
        );
    }

    /// Combine two tensors elementwise with NumPy broadcasting.
    ///
    /// A broadcast walks the output one row at a time (`RowPlan`): each
    /// operand is read as a contiguous row or as one repeated scalar, and
    /// the rows are partitioned over threads. Every output element is
    /// `f(a, b)` of the same two operands as a per-element walk, so the bits
    /// are the same at every thread count.
    pub fn zip_map(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32 + Sync + 'static,
    ) -> Result<Tensor> {
        if self.shape == other.shape {
            // Fast path: identical shapes need no index arithmetic.
            let n = self.data.len();
            let (lhs, rhs) = (&self.data, &other.data);
            let mut data = vec![0.0f32; n];
            sthsl_parallel::parallel_rows_mut(
                &mut data,
                n,
                1,
                MIN_ELEMS_PER_BAND,
                move |rows, band| {
                    wide!(band, |band| {
                        for ((o, &a), &b) in band.iter_mut().zip(&lhs[rows.clone()]).zip(&rhs[rows])
                        {
                            *o = f(a, b);
                        }
                    });
                },
            );
            return Ok(Tensor { data, shape: self.shape.clone() });
        }
        let out_shape = broadcast_shapes(&self.shape, &other.shape)?;
        let mut data = vec![0.0f32; out_shape.iter().product()];
        if data.is_empty() {
            return Ok(Tensor { data, shape: out_shape });
        }
        let plan = RowPlan::new(
            &out_shape,
            [
                broadcast_strides(&self.shape, &out_shape),
                broadcast_strides(&other.shape, &out_shape),
            ],
        )?;
        let (lhs, rhs) = (&self.data, &other.data);
        let (rows, row) = (plan.rows(), plan.row);
        let min_rows = (MIN_ELEMS_PER_BAND / row).max(1);
        sthsl_parallel::parallel_rows_mut(&mut data, rows, row, min_rows, move |rows, band| {
            wide!(band, |band| {
                plan.for_each_row(rows, |k, [l, r]| {
                    let out = &mut band[k * row..(k + 1) * row];
                    match plan.row_stride {
                        [1, 1] => {
                            for ((o, &a), &b) in
                                out.iter_mut().zip(&lhs[l..l + row]).zip(&rhs[r..r + row])
                            {
                                *o = f(a, b);
                            }
                        }
                        [1, _] => {
                            let b = rhs[r];
                            for (o, &a) in out.iter_mut().zip(&lhs[l..l + row]) {
                                *o = f(a, b);
                            }
                        }
                        [_, 1] => {
                            let a = lhs[l];
                            for (o, &b) in out.iter_mut().zip(&rhs[r..r + row]) {
                                *o = f(a, b);
                            }
                        }
                        _ => out.fill(f(lhs[l], rhs[r])),
                    }
                });
            });
        });
        Ok(Tensor { data, shape: out_shape })
    }

    // ------------------------------------------------------------ arithmetic

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, move |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, move |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, move |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, move |a, b| a / b)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(move |v| v * s)
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(move |v| v + s)
    }

    /// LeakyReLU with negative slope `alpha`: `v` where `v > 0`, else
    /// `alpha · v`. Written as a multiply by a selected factor, which the
    /// compiler vectorizes; `v · 1` is `v` for every `v`, so the bits equal
    /// the branchy form's for NaN, ±0, ±∞ and subnormals alike.
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        self.map(move |v| v * if v > 0.0 { 1.0 } else { alpha })
    }

    /// Gradient of [`Tensor::leaky_relu`] at `x`, with `self` the incoming
    /// gradient: `g` where `x > 0`, else `alpha · g`.
    pub fn leaky_relu_grad(&self, x: &Tensor, alpha: f32) -> Result<Tensor> {
        self.zip_map(x, move |g, v| g * if v > 0.0 { 1.0 } else { alpha })
    }

    /// In-place scaled accumulation: `self += alpha * other`. Shapes must
    /// match exactly (no broadcasting) — this is the hot path of backward
    /// gradient accumulation.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let n = self.data.len();
        let rhs = &other.data;
        sthsl_parallel::parallel_rows_mut(
            &mut self.data,
            n,
            1,
            MIN_ELEMS_PER_BAND,
            move |rows, band| {
                wide!(band, |band| {
                    for (a, &b) in band.iter_mut().zip(&rhs[rows]) {
                        *a += alpha * b;
                    }
                });
            },
        );
        Ok(())
    }

    /// Dot product of two tensors viewed as flat vectors (shapes must match).
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let (lhs, rhs) = (&self.data, &other.data);
        Ok(sthsl_parallel::blocked_sum_f32(lhs.len(), REDUCE_BLOCK, |r| {
            lhs[r.clone()].iter().zip(&rhs[r]).map(|(&a, &b)| a * b).sum()
        }))
    }

    /// Squared L2 norm of the whole tensor (deterministic blocked reduction).
    pub fn sq_norm(&self) -> f32 {
        let x = &self.data;
        sthsl_parallel::blocked_sum_f32(x.len(), REDUCE_BLOCK, |r| {
            x[r].iter().map(|&v| v * v).sum()
        })
    }

    /// L2 norm of the whole tensor.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    // ------------------------------------------------------- shape plumbing

    /// Reinterpret the data under a new shape with the same element count.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch { expected, got: self.data.len() });
        }
        Ok(Tensor { data: self.data.clone(), shape: shape.to_vec() })
    }

    /// Sum `grad`-style tensor down to `target_shape` by summing over axes
    /// that were broadcast. This is the adjoint of broadcasting and is used by
    /// every binary-op backward pass.
    pub fn reduce_to_shape(&self, target_shape: &[usize]) -> Result<Tensor> {
        if self.shape == target_shape {
            return Ok(self.clone());
        }
        // Verify target broadcasts to self.
        let b = broadcast_shapes(&self.shape, target_shape)?;
        if b != self.shape {
            return Err(TensorError::ShapeMismatch {
                op: "reduce_to_shape",
                lhs: self.shape.clone(),
                rhs: target_shape.to_vec(),
            });
        }
        let mut out = Tensor::zeros(target_shape);
        if self.data.is_empty() {
            return Ok(out);
        }
        // Serial on purpose: a target element gathers from many source rows,
        // and splitting the rows over threads would reorder its sum.
        let plan = RowPlan::new(&self.shape, [broadcast_strides(target_shape, &self.shape)])?;
        let row = plan.row;
        plan.for_each_row(0..plan.rows(), |k, [t]| {
            let src = &self.data[k * row..(k + 1) * row];
            if plan.row_stride[0] == 1 {
                for (o, &v) in out.data[t..t + row].iter_mut().zip(src) {
                    *o += v;
                }
            } else {
                // One target element takes the whole row, added in source
                // order onto its current value.
                let mut acc = out.data[t];
                for &v in src {
                    acc += v;
                }
                out.data[t] = acc;
            }
        });
        Ok(out)
    }
}

/// Strides for reading `shape` as if broadcast to `out_shape`: broadcast axes
/// get stride 0, missing leading axes get stride 0.
pub(crate) fn broadcast_strides(shape: &[usize], out_shape: &[usize]) -> Vec<usize> {
    let strides = strides_of(shape);
    let offset = out_shape.len() - shape.len();
    let mut out = vec![0usize; out_shape.len()];
    for i in 0..shape.len() {
        out[offset + i] = if shape[i] == 1 && out_shape[offset + i] != 1 { 0 } else { strides[i] };
    }
    out
}

/// Most axes a [`RowPlan`] keeps, the row axis included, once size-1
/// axes are dropped and neighbours merged.
const PLAN_AXES: usize = 16;

/// A broadcast walked one row at a time.
///
/// Built from an iteration shape and each operand's strides over it (0 on
/// broadcast axes). Size-1 axes are dropped, and neighbouring axes merge
/// wherever every operand steps through them as through one axis. The last
/// remaining axis is the row: each operand reads it as a contiguous run
/// (stride 1) or as one repeated element (stride 0), so an index odometer
/// advances once per row instead of once per element.
///
/// The plan and its odometer live on the stack: small heap blocks in this
/// kernel, some of them on pool workers, move the serving benchmark's peak
/// RSS by a few percent through allocator placement alone.
struct RowPlan<const N: usize> {
    /// Extents of the axes before the row axis, in `outer[..nd]`.
    outer: [usize; PLAN_AXES],
    nd: usize,
    /// Each operand's strides over `outer[..nd]`.
    strides: [[usize; PLAN_AXES]; N],
    /// Row length: the extent of the last remaining axis, 1 if none is left.
    row: usize,
    /// Each operand's stride along the row: 1 or 0.
    row_stride: [usize; N],
}

impl<const N: usize> RowPlan<N> {
    fn new(shape: &[usize], bstrides: [Vec<usize>; N]) -> Result<Self> {
        let mut outer = [0usize; PLAN_AXES];
        let mut strides = [[0usize; PLAN_AXES]; N];
        let mut nd = 0;
        for (d, &extent) in shape.iter().enumerate() {
            if extent == 1 {
                continue;
            }
            let merges =
                nd > 0 && strides.iter().zip(&bstrides).all(|(s, b)| s[nd - 1] == b[d] * extent);
            if merges {
                outer[nd - 1] *= extent;
            } else if nd < PLAN_AXES {
                outer[nd] = extent;
                nd += 1;
            } else {
                return Err(TensorError::Invalid(format!(
                    "broadcast over {shape:?} keeps more than {PLAN_AXES} axes after merging"
                )));
            }
            for (s, b) in strides.iter_mut().zip(&bstrides) {
                s[nd - 1] = b[d];
            }
        }
        let (row, row_stride) = match nd.checked_sub(1) {
            Some(last) => {
                nd = last;
                (outer[last], std::array::from_fn(|i| strides[i][last]))
            }
            None => (1, [0; N]),
        };
        debug_assert!(row_stride.iter().all(|&s| s <= 1), "row strides {row_stride:?}");
        Ok(RowPlan { outer, nd, strides, row, row_stride })
    }

    /// Number of rows.
    fn rows(&self) -> usize {
        self.outer[..self.nd].iter().product()
    }

    /// Call `f(k, offsets)` for the rows in `range`, in order, where `k`
    /// counts from 0 at `range.start` and `offsets[i]` is where operand `i`
    /// reads the row's first element. Always inlined, so that a caller's
    /// kernel body under [`wide!`] keeps the row loop in its vector copy.
    #[inline(always)]
    fn for_each_row(&self, range: Range<usize>, mut f: impl FnMut(usize, [usize; N])) {
        if range.is_empty() {
            return;
        }
        let extents = &self.outer[..self.nd];
        let mut idx = [0usize; PLAN_AXES];
        let mut offs = [0usize; N];
        let mut rest = range.start;
        for (d, &extent) in extents.iter().enumerate().rev() {
            idx[d] = rest % extent;
            rest /= extent;
            for (o, s) in offs.iter_mut().zip(&self.strides) {
                *o += idx[d] * s[d];
            }
        }
        for k in 0..range.len() {
            f(k, offs);
            for (d, &extent) in extents.iter().enumerate().rev() {
                idx[d] += 1;
                if idx[d] < extent {
                    for (o, s) in offs.iter_mut().zip(&self.strides) {
                        *o += s[d];
                    }
                    break;
                }
                idx[d] = 0;
                for (o, s) in offs.iter_mut().zip(&self.strides) {
                    *o -= (extent - 1) * s[d];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctor_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn eye_and_arange() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        let a = Tensor::arange(4);
        assert_eq!(a.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn broadcast_add_row_vector() {
        let m = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap();
        let r = Tensor::from_vec(vec![10., 20., 30.], &[3]).unwrap();
        let s = m.add(&r).unwrap();
        assert_eq!(s.data(), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn broadcast_mul_column_vector() {
        let m = Tensor::ones(&[2, 3]);
        let c = Tensor::from_vec(vec![2., 3.], &[2, 1]).unwrap();
        let p = m.mul(&c).unwrap();
        assert_eq!(p.data(), &[2., 2., 2., 3., 3., 3.]);
    }

    #[test]
    fn scalar_broadcast() {
        let m = Tensor::from_vec(vec![1., 2.], &[2]).unwrap();
        let s = Tensor::scalar(5.0);
        assert_eq!(m.add(&s).unwrap().data(), &[6., 7.]);
    }

    #[test]
    fn broadcast_plans_are_bounded_by_a_typed_error() {
        // 16 alternating broadcast axes never merge: the row and 15 outer
        // axes fit, one more axis does not.
        let shape = |rank: usize| -> Vec<usize> { (0..rank).map(|d| 1 + d % 2).collect() };
        let flip = |rank: usize| -> Vec<usize> { (0..rank).map(|d| 2 - d % 2).collect() };
        let ok = Tensor::ones(&shape(16)).add(&Tensor::ones(&flip(16))).unwrap();
        assert_eq!(ok.len(), 1 << 16);
        let err = Tensor::ones(&shape(17)).add(&Tensor::ones(&flip(17))).unwrap_err();
        assert!(matches!(err, TensorError::Invalid(_)), "{err:?}");
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_axes() {
        let g = Tensor::ones(&[2, 3]);
        let r = g.reduce_to_shape(&[3]).unwrap();
        assert_eq!(r.data(), &[2., 2., 2.]);
        let c = g.reduce_to_shape(&[2, 1]).unwrap();
        assert_eq!(c.data(), &[3., 3.]);
        let s = g.reduce_to_shape(&[]).unwrap();
        assert_eq!(s.data(), &[6.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let b = Tensor::from_vec(vec![1., 2., 3.], &[3]).unwrap();
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.data(), &[2., 4., 6.]);
        assert!(a.axpy(1.0, &Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn item_and_nonfinite() {
        assert_eq!(Tensor::scalar(3.5).item().unwrap(), 3.5);
        assert!(Tensor::zeros(&[2]).item().is_err());
        let mut t = Tensor::zeros(&[2]);
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn reshape_checks_len() {
        let t = Tensor::arange(6);
        assert_eq!(t.reshape(&[2, 3]).unwrap().shape(), &[2, 3]);
        assert!(t.reshape(&[4]).is_err());
    }
}
