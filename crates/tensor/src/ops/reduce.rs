//! Reductions and normalisation helpers.
//!
//! Whole-tensor reductions reassociate: they sum fixed-size blocks
//! ([`sthsl_parallel::REDUCE_BLOCK`] elements) and combine the partials in
//! ascending block order. The blocking is independent of the thread count, so
//! the result is bit-identical across thread counts (though it may differ from
//! a strictly linear sum by normal f32 rounding). Axis reductions and softmax
//! partition over *output* elements and keep the serial accumulation order, so
//! they are bit-identical to the serial kernels.

use crate::shape::strides_of;
use crate::{Result, Tensor, TensorError};
use sthsl_parallel::REDUCE_BLOCK;

/// Minimum elements a band must carry before it is worth a thread.
const MIN_ELEMS_PER_BAND: usize = 1 << 14;

impl Tensor {
    /// Sum of all elements (deterministic blocked reduction).
    pub fn sum_all(&self) -> f32 {
        let x = self.data();
        sthsl_parallel::blocked_sum_f32(x.len(), REDUCE_BLOCK, |r| x[r].iter().sum::<f32>())
    }

    /// Mean of all elements (0 for an empty tensor).
    #[expect(
        clippy::cast_precision_loss,
        reason = "R7: a length above 2^24 rounds to the nearest f32, a relative error of at most 2^-24 in the mean"
    )]
    pub fn mean_all(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_all() / self.len() as f32
        }
    }

    /// Maximum element (NaN-ignoring; `-inf` for an empty tensor).
    pub fn max_all(&self) -> f32 {
        self.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (NaN-ignoring; `+inf` for an empty tensor).
    pub fn min_all(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum along `axis`, removing that axis from the shape.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
        self.reduce_axis(axis, false)
    }

    /// Mean along `axis`, removing that axis from the shape.
    pub fn mean_axis(&self, axis: usize) -> Result<Tensor> {
        self.reduce_axis(axis, true)
    }

    #[expect(
        clippy::cast_precision_loss,
        reason = "R7: a length above 2^24 rounds to the nearest f32, a relative error of at most 2^-24 in the mean"
    )]
    fn reduce_axis(&self, axis: usize, mean: bool) -> Result<Tensor> {
        let ndim = self.ndim();
        if axis >= ndim {
            return Err(TensorError::AxisOutOfRange { axis, ndim });
        }
        let shape = self.shape();
        let out_shape: Vec<usize> =
            shape.iter().enumerate().filter(|(i, _)| *i != axis).map(|(_, &d)| d).collect();
        let axis_len = shape[axis];
        let strides = strides_of(shape);
        // outer runs over the axes before `axis`, inner over the axes after.
        let outer: usize = shape[..axis].iter().product();
        let inner: usize = shape[axis + 1..].iter().product();
        let mut out = vec![0.0f32; outer * inner];
        let x = self.data();
        let inv = 1.0 / axis_len as f32;
        let scale = mean && axis_len > 0;
        // Parallel over the outer slices: each output element is accumulated
        // by one thread in ascending `a` order, exactly as the serial loop.
        let min_rows = (MIN_ELEMS_PER_BAND / (axis_len * inner).max(1)).max(1);
        sthsl_parallel::parallel_rows_mut(&mut out, outer, inner, min_rows, move |outers, band| {
            if inner == 1 {
                // A unit inner extent: each output element sums one
                // contiguous run of `axis_len` inputs, from `+0.0`.
                for (ov, o) in band.iter_mut().zip(outers) {
                    let mut acc = 0.0f32;
                    for &xv in &x[o * axis_len..(o + 1) * axis_len] {
                        acc += xv;
                    }
                    *ov = if scale { acc * inv } else { acc };
                }
                return;
            }
            for (local, o) in outers.enumerate() {
                let orow = &mut band[local * inner..(local + 1) * inner];
                for a in 0..axis_len {
                    let base = o * axis_len * inner + a * strides[axis];
                    let xrow = &x[base..base + inner];
                    for (ov, &xv) in orow.iter_mut().zip(xrow) {
                        *ov += xv;
                    }
                }
                if scale {
                    for v in orow.iter_mut() {
                        *v *= inv;
                    }
                }
            }
        });
        Tensor::from_vec(out, &out_shape)
    }

    /// Broadcast a reduced tensor back along `axis` (the adjoint of
    /// `sum_axis`): inserts the axis with length `axis_len`, repeating values.
    pub fn repeat_axis(&self, axis: usize, axis_len: usize) -> Result<Tensor> {
        let ndim = self.ndim();
        if axis > ndim {
            return Err(TensorError::AxisOutOfRange { axis, ndim });
        }
        let mut out_shape = self.shape().to_vec();
        out_shape.insert(axis, axis_len);
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis..].iter().product();
        let x = self.data();
        let mut out = vec![0.0f32; outer * axis_len * inner];
        if inner == 1 {
            // A unit inner extent: one fill per input element instead of
            // `axis_len` one-element copies.
            for (o, &v) in x.iter().enumerate() {
                out[o * axis_len..(o + 1) * axis_len].fill(v);
            }
        } else {
            for o in 0..outer {
                let src = &x[o * inner..(o + 1) * inner];
                for a in 0..axis_len {
                    let dst_base = (o * axis_len + a) * inner;
                    out[dst_base..dst_base + inner].copy_from_slice(src);
                }
            }
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Softmax along the last axis, computed with the max-subtraction trick
    /// for numerical stability.
    pub fn softmax_lastdim(&self) -> Result<Tensor> {
        if self.ndim() == 0 {
            return Err(TensorError::RankMismatch {
                op: "softmax",
                expected: 1,
                got: 0,
                shape: Vec::new(),
            });
        }
        let Some(&last) = self.shape().last() else {
            return Err(TensorError::RankMismatch {
                op: "softmax",
                expected: 1,
                got: 0,
                shape: Vec::new(),
            });
        };
        if last == 0 {
            return Ok(self.clone());
        }
        let mut out = self.clone();
        let rows = out.len() / last;
        let min_rows = (MIN_ELEMS_PER_BAND / last.max(1)).max(1);
        sthsl_parallel::parallel_rows_mut(
            out.data_mut(),
            rows,
            last,
            min_rows,
            move |band_rows, band| {
                for local in 0..band_rows.len() {
                    let row = &mut band[local * last..(local + 1) * last];
                    let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0f32;
                    for v in row.iter_mut() {
                        *v = (*v - mx).exp();
                        sum += *v;
                    }
                    let inv = 1.0 / sum;
                    for v in row.iter_mut() {
                        *v *= inv;
                    }
                }
            },
        );
        Ok(out)
    }

    /// Mean and (population) standard deviation of all elements.
    #[expect(
        clippy::cast_precision_loss,
        reason = "R7: a length above 2^24 rounds to the nearest f32, a relative error of at most 2^-24 in the mean"
    )]
    pub fn mean_std(&self) -> (f32, f32) {
        let mean = self.mean_all();
        if self.is_empty() {
            return (0.0, 0.0);
        }
        let x = self.data();
        let sq = sthsl_parallel::blocked_sum_f32(x.len(), REDUCE_BLOCK, |r| {
            x[r].iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>()
        });
        let var = sq / self.len() as f32;
        (mean, var.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_tensor_reductions() {
        let t = Tensor::from_vec(vec![1., -2., 3., 4.], &[2, 2]).unwrap();
        assert_eq!(t.sum_all(), 6.0);
        assert_eq!(t.mean_all(), 1.5);
        assert_eq!(t.max_all(), 4.0);
        assert_eq!(t.min_all(), -2.0);
    }

    #[test]
    fn sum_axis_each_axis() {
        let t = Tensor::from_vec((1..=6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let s0 = t.sum_axis(0).unwrap();
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.data(), &[5., 7., 9.]);
        let s1 = t.sum_axis(1).unwrap();
        assert_eq!(s1.shape(), &[2]);
        assert_eq!(s1.data(), &[6., 15.]);
        assert!(t.sum_axis(2).is_err());
    }

    #[test]
    fn mean_axis_3d_middle() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        let m = t.mean_axis(1).unwrap();
        assert_eq!(m.shape(), &[2, 4]);
        // Mean over axis 1 of batch 0, col 0: (0 + 4 + 8) / 3 = 4.
        assert_eq!(m.at(&[0, 0]), 4.0);
    }

    #[test]
    fn repeat_axis_is_adjoint_shape_of_sum() {
        let t = Tensor::from_vec(vec![1., 2., 3.], &[3]).unwrap();
        let r = t.repeat_axis(0, 2).unwrap();
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.data(), &[1., 2., 3., 1., 2., 3.]);
        let r1 = t.repeat_axis(1, 2).unwrap();
        assert_eq!(r1.shape(), &[3, 2]);
        assert_eq!(r1.data(), &[1., 1., 2., 2., 3., 3.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1., 2., 3., 1000., 1001., 1002.], &[2, 3]).unwrap();
        let s = t.softmax_lastdim().unwrap();
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|v| v.is_finite()));
        }
        // Shift invariance: both rows are [1,2,3] up to a constant.
        for i in 0..3 {
            assert!((s.data()[i] - s.data()[3 + i]).abs() < 1e-5);
        }
    }

    #[test]
    fn mean_std_zscore_roundtrip() {
        let t = Tensor::from_vec(vec![2., 4., 6., 8.], &[4]).unwrap();
        let (m, s) = t.mean_std();
        assert_eq!(m, 5.0);
        assert!((s - 5.0f32.sqrt()).abs() < 1e-5);
        let z = t.map(move |v| (v - m) / s);
        let (zm, zs) = z.mean_std();
        assert!(zm.abs() < 1e-6);
        assert!((zs - 1.0).abs() < 1e-5);
    }
}
