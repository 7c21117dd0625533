//! Shape-manipulation operations: permute, concat, slice, stack, gather.

use crate::shape::strides_of;
use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Reorder axes according to `perm` (a permutation of `0..ndim`),
    /// materialising a new contiguous tensor.
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        let ndim = self.ndim();
        if perm.len() != ndim {
            return Err(TensorError::Invalid(format!(
                "permute: perm length {} != rank {ndim}",
                perm.len()
            )));
        }
        let mut seen = vec![false; ndim];
        for &p in perm {
            if p >= ndim || seen[p] {
                return Err(TensorError::Invalid(format!("permute: invalid permutation {perm:?}")));
            }
            seen[p] = true;
        }
        let in_shape = self.shape();
        let out_shape: Vec<usize> = perm.iter().map(|&p| in_shape[p]).collect();
        let in_strides = strides_of(in_shape);
        // Stride of output axis d in the *input* buffer.
        let gather_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let mut out = vec![0.0f32; self.len()];
        let x = self.data();
        // Each output row (the last output axis) is one strided gather, or a
        // plain copy when that axis is also the input's innermost. An
        // odometer over the outer output axes moves the row's input offset
        // incrementally.
        // A rank-0 tensor is one row of one element.
        let row_len = out_shape.last().copied().unwrap_or(1);
        let row_stride = gather_strides.last().copied().unwrap_or(1);
        let outer = ndim.saturating_sub(1);
        // One slot per axis although the last is never used: an
        // `outer`-slot vector falls in a different allocator size class for
        // rank 4 and raises the serve workloads' peak RSS by about 0.5 MB.
        let mut idx = vec![0usize; ndim];
        let mut off = 0usize;
        for row in out.chunks_exact_mut(row_len.max(1)) {
            if row_stride == 1 {
                row.copy_from_slice(&x[off..off + row_len]);
            } else {
                for (slot, &v) in row.iter_mut().zip(x[off..].iter().step_by(row_stride)) {
                    *slot = v;
                }
            }
            for d in (0..outer).rev() {
                idx[d] += 1;
                off += gather_strides[d];
                if idx[d] < out_shape[d] {
                    break;
                }
                off -= gather_strides[d] * out_shape[d];
                idx[d] = 0;
            }
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Concatenate tensors along `axis`. All shapes must match except on the
    /// concatenation axis.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Result<Tensor> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::Invalid("concat: need at least one tensor".into()))?;
        let ndim = first.ndim();
        if axis >= ndim {
            return Err(TensorError::AxisOutOfRange { axis, ndim });
        }
        let mut axis_total = 0usize;
        for t in tensors {
            if t.ndim() != ndim {
                return Err(TensorError::RankMismatch {
                    op: "concat",
                    expected: ndim,
                    got: t.ndim(),
                    shape: t.shape().to_vec(),
                });
            }
            for d in 0..ndim {
                if d != axis && t.shape()[d] != first.shape()[d] {
                    return Err(TensorError::ShapeMismatch {
                        op: "concat",
                        lhs: first.shape().to_vec(),
                        rhs: t.shape().to_vec(),
                    });
                }
            }
            axis_total += t.shape()[axis];
        }
        let mut out_shape = first.shape().to_vec();
        out_shape[axis] = axis_total;
        let outer: usize = first.shape()[..axis].iter().product();
        let inner: usize = first.shape()[axis + 1..].iter().product();
        let mut out = vec![0.0f32; out_shape.iter().product()];
        let row_out = axis_total * inner;
        let mut axis_off = 0usize;
        for t in tensors {
            let a = t.shape()[axis];
            let row_in = a * inner;
            for o in 0..outer {
                let src = &t.data()[o * row_in..(o + 1) * row_in];
                let dst_base = o * row_out + axis_off * inner;
                out[dst_base..dst_base + row_in].copy_from_slice(src);
            }
            axis_off += a;
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Stack tensors of identical shape along a new leading axis.
    pub fn stack(tensors: &[&Tensor]) -> Result<Tensor> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::Invalid("stack: need at least one tensor".into()))?;
        let mut out_shape = vec![tensors.len()];
        out_shape.extend_from_slice(first.shape());
        let mut data = Vec::with_capacity(first.len() * tensors.len());
        for t in tensors {
            if t.shape() != first.shape() {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.shape().to_vec(),
                    rhs: t.shape().to_vec(),
                });
            }
            data.extend_from_slice(t.data());
        }
        Tensor::from_vec(data, &out_shape)
    }

    /// Contiguous slice `[start, start+len)` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Result<Tensor> {
        let ndim = self.ndim();
        if axis >= ndim {
            return Err(TensorError::AxisOutOfRange { axis, ndim });
        }
        let axis_len = self.shape()[axis];
        if start + len > axis_len {
            return Err(TensorError::IndexOutOfRange { index: start + len, len: axis_len });
        }
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let mut out_shape = self.shape().to_vec();
        out_shape[axis] = len;
        let mut out = vec![0.0f32; outer * len * inner];
        let x = self.data();
        for o in 0..outer {
            let src_base = (o * axis_len + start) * inner;
            let dst_base = o * len * inner;
            out[dst_base..dst_base + len * inner]
                .copy_from_slice(&x[src_base..src_base + len * inner]);
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Select rows along `axis` in the given order (duplicates allowed) —
    /// the tensor analogue of fancy indexing, used for region shuffling in the
    /// infomax corruption step.
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Result<Tensor> {
        let ndim = self.ndim();
        if axis >= ndim {
            return Err(TensorError::AxisOutOfRange { axis, ndim });
        }
        let axis_len = self.shape()[axis];
        for &i in indices {
            if i >= axis_len {
                return Err(TensorError::IndexOutOfRange { index: i, len: axis_len });
            }
        }
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let mut out_shape = self.shape().to_vec();
        out_shape[axis] = indices.len();
        let mut out = vec![0.0f32; outer * indices.len() * inner];
        let x = self.data();
        for o in 0..outer {
            for (k, &i) in indices.iter().enumerate() {
                let src_base = (o * axis_len + i) * inner;
                let dst_base = (o * indices.len() + k) * inner;
                out[dst_base..dst_base + inner].copy_from_slice(&x[src_base..src_base + inner]);
            }
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Scatter-add rows of `self` back to an `axis_len`-long axis at the given
    /// indices (the adjoint of [`Tensor::index_select`]).
    pub fn index_scatter_add(
        &self,
        axis: usize,
        indices: &[usize],
        axis_len: usize,
    ) -> Result<Tensor> {
        let ndim = self.ndim();
        if axis >= ndim {
            return Err(TensorError::AxisOutOfRange { axis, ndim });
        }
        if indices.len() != self.shape()[axis] {
            return Err(TensorError::Invalid(format!(
                "index_scatter_add: {} indices for axis of length {}",
                indices.len(),
                self.shape()[axis]
            )));
        }
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let mut out_shape = self.shape().to_vec();
        out_shape[axis] = axis_len;
        let mut out = vec![0.0f32; outer * axis_len * inner];
        let x = self.data();
        for o in 0..outer {
            for (k, &i) in indices.iter().enumerate() {
                if i >= axis_len {
                    return Err(TensorError::IndexOutOfRange { index: i, len: axis_len });
                }
                let src_base = (o * indices.len() + k) * inner;
                let dst_base = (o * axis_len + i) * inner;
                for j in 0..inner {
                    out[dst_base + j] += x[src_base + j];
                }
            }
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Pad `axis` with zeros: `before` leading and `after` trailing slots.
    pub fn pad_axis(&self, axis: usize, before: usize, after: usize) -> Result<Tensor> {
        let ndim = self.ndim();
        if axis >= ndim {
            return Err(TensorError::AxisOutOfRange { axis, ndim });
        }
        let axis_len = self.shape()[axis];
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let new_len = axis_len + before + after;
        let mut out_shape = self.shape().to_vec();
        out_shape[axis] = new_len;
        let mut out = vec![0.0f32; outer * new_len * inner];
        let x = self.data();
        for o in 0..outer {
            let src_base = o * axis_len * inner;
            let dst_base = (o * new_len + before) * inner;
            out[dst_base..dst_base + axis_len * inner]
                .copy_from_slice(&x[src_base..src_base + axis_len * inner]);
        }
        Tensor::from_vec(out, &out_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permute_2d_is_transpose() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let p = t.permute(&[1, 0]).unwrap();
        assert_eq!(p.shape(), &[3, 2]);
        assert_eq!(p.data(), t.transpose2d().unwrap().data());
    }

    #[test]
    fn permute_3d_round_trip() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        let p = t.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), t.at(&[0, 2, 1]));
        let back = p.permute(&[1, 2, 0]).unwrap();
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn permute_rejects_bad_perm() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.permute(&[0]).is_err());
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0, 2]).is_err());
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5., 6.], &[1, 2]).unwrap();
        let c = Tensor::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.data(), &[1., 2., 3., 4., 5., 6.]);
        let d = Tensor::from_vec(vec![9., 10.], &[2, 1]).unwrap();
        let e = Tensor::concat(&[&a, &d], 1).unwrap();
        assert_eq!(e.shape(), &[2, 3]);
        assert_eq!(e.data(), &[1., 2., 9., 3., 4., 10.]);
    }

    #[test]
    fn stack_adds_leading_axis() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::zeros(&[2, 2]);
        let s = Tensor::stack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.at(&[0, 1, 1]), 1.0);
        assert_eq!(s.at(&[1, 1, 1]), 0.0);
        assert!(Tensor::stack(&[&a, &Tensor::zeros(&[3])]).is_err());
    }

    #[test]
    fn slice_middle_axis() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        let s = t.slice_axis(1, 1, 2).unwrap();
        assert_eq!(s.shape(), &[2, 2, 4]);
        assert_eq!(s.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        assert_eq!(s.at(&[1, 1, 3]), t.at(&[1, 2, 3]));
        assert!(t.slice_axis(1, 2, 2).is_err());
    }

    #[test]
    fn index_select_shuffles_rows() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[3, 2]).unwrap();
        let s = t.index_select(0, &[2, 0, 2]).unwrap();
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.data(), &[4., 5., 0., 1., 4., 5.]);
        assert!(t.index_select(0, &[3]).is_err());
    }

    #[test]
    fn scatter_add_is_select_adjoint() {
        // <select(x, idx), y> == <x, scatter(y, idx)> for random data.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng);
        let idx = [1usize, 3, 1];
        let y = Tensor::rand_normal(&[3, 3], 0.0, 1.0, &mut rng);
        let sel = x.index_select(0, &idx).unwrap();
        let scat = y.index_scatter_add(0, &idx, 4).unwrap();
        let lhs = sel.dot(&y).unwrap();
        let rhs = x.dot(&scat).unwrap();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn pad_axis_zero_fills() {
        let t = Tensor::from_vec(vec![1., 2.], &[1, 2]).unwrap();
        let p = t.pad_axis(1, 1, 2).unwrap();
        assert_eq!(p.shape(), &[1, 5]);
        assert_eq!(p.data(), &[0., 1., 2., 0., 0.]);
    }
}
