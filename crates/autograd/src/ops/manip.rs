//! Differentiable shape manipulation.

use crate::graph::{Graph, Var};
use crate::tape::OpKind;
use std::rc::Rc;
use sthsl_tensor::{Result, Tensor};

impl Graph {
    /// Reshape to a new shape with the same element count. A reshape to the
    /// input's own shape shares its value, with no copy.
    pub fn reshape(&self, x: Var, shape: &[usize]) -> Result<Var> {
        let xv = self.value(x);
        let out = if xv.shape() == shape { Rc::clone(&xv) } else { Rc::new(xv.reshape(shape)?) };
        let in_shape = xv.shape().to_vec();
        let kind = OpKind::Reshape { shape: shape.to_vec() };
        Ok(self.op(
            kind,
            out,
            vec![x],
            Box::new(move |g, _, _| Ok(vec![Some(g.reshape(&in_shape)?)])),
        ))
    }

    /// Permute axes; backward applies the inverse permutation.
    pub fn permute(&self, x: Var, perm: &[usize]) -> Result<Var> {
        let out = self.value(x).permute(perm)?;
        let mut inv = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        let kind = OpKind::Permute { perm: perm.to_vec() };
        Ok(self.op(kind, out, vec![x], Box::new(move |g, _, _| Ok(vec![Some(g.permute(&inv)?)]))))
    }

    /// Concatenate along `axis`; backward splits the gradient.
    pub fn concat(&self, xs: &[Var], axis: usize) -> Result<Var> {
        let vals: Vec<_> = xs.iter().map(|&v| self.value(v)).collect();
        let refs: Vec<&Tensor> = vals.iter().map(std::convert::AsRef::as_ref).collect();
        let out = Tensor::concat(&refs, axis)?;
        let lens: Vec<usize> = vals.iter().map(|v| v.shape()[axis]).collect();
        Ok(self.op(
            OpKind::Concat { axis },
            out,
            xs.to_vec(),
            Box::new(move |g, _, _| {
                let mut grads = Vec::with_capacity(lens.len());
                let mut start = 0;
                for &len in &lens {
                    grads.push(Some(g.slice_axis(axis, start, len)?));
                    start += len;
                }
                Ok(grads)
            }),
        ))
    }

    /// Stack along a new leading axis.
    pub fn stack(&self, xs: &[Var]) -> Result<Var> {
        let mut reshaped = Vec::with_capacity(xs.len());
        for &x in xs {
            let mut shape = self.shape_of(x)?;
            shape.insert(0, 1);
            reshaped.push(self.reshape(x, &shape)?);
        }
        self.concat(&reshaped, 0)
    }

    /// Contiguous slice along `axis`; backward pads with zeros.
    pub fn slice_axis(&self, x: Var, axis: usize, start: usize, len: usize) -> Result<Var> {
        let xv = self.value(x);
        let out = xv.slice_axis(axis, start, len)?;
        let total = xv.shape()[axis];
        Ok(self.op(
            OpKind::SliceAxis { axis, start, len },
            out,
            vec![x],
            Box::new(move |g, _, _| {
                Ok(vec![Some(g.pad_axis(axis, start, total - start - len)?)])
            }),
        ))
    }

    /// Zero-pad along `axis`; backward slices the gradient.
    pub fn pad_axis(&self, x: Var, axis: usize, before: usize, after: usize) -> Result<Var> {
        let xv = self.value(x);
        let out = xv.pad_axis(axis, before, after)?;
        let len = xv.shape()[axis];
        Ok(self.op(
            OpKind::PadAxis { axis, before, after },
            out,
            vec![x],
            Box::new(move |g, _, _| Ok(vec![Some(g.slice_axis(axis, before, len)?)])),
        ))
    }

    /// Gather rows along `axis` (duplicates allowed); backward scatter-adds.
    /// This implements both embedding lookup and the infomax region-shuffle
    /// corruption.
    pub fn index_select(&self, x: Var, axis: usize, indices: &[usize]) -> Result<Var> {
        let xv = self.value(x);
        let out = xv.index_select(axis, indices)?;
        let axis_len = xv.shape()[axis];
        let indices = indices.to_vec();
        Ok(self.op(
            OpKind::IndexSelect { axis, indices: indices.clone() },
            out,
            vec![x],
            Box::new(move |g, _, _| Ok(vec![Some(g.index_scatter_add(axis, &indices, axis_len)?)])),
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::gradcheck;
    use rand::{rngs::StdRng, SeedableRng};
    use sthsl_tensor::Tensor;

    #[test]
    fn reshape_permute_grads() {
        let mut rng = StdRng::seed_from_u64(12);
        gradcheck(&[Tensor::rand_normal(&[2, 3, 4], 0.0, 1.0, &mut rng)], |g, vars| {
            let r = g.reshape(vars[0], &[6, 4])?;
            let p = g.permute(r, &[1, 0])?;
            let sq = g.square(p);
            Ok(g.sum_all(sq))
        });
    }

    #[test]
    fn concat_slice_grads() {
        let mut rng = StdRng::seed_from_u64(13);
        gradcheck(
            &[
                Tensor::rand_normal(&[2, 2], 0.0, 1.0, &mut rng),
                Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut rng),
            ],
            |g, vars| {
                let c = g.concat(&[vars[0], vars[1]], 1)?;
                let s = g.slice_axis(c, 1, 1, 3)?;
                let sq = g.square(s);
                Ok(g.sum_all(sq))
            },
        );
    }

    #[test]
    fn stack_pad_grads() {
        let mut rng = StdRng::seed_from_u64(14);
        gradcheck(
            &[
                Tensor::rand_normal(&[3], 0.0, 1.0, &mut rng),
                Tensor::rand_normal(&[3], 0.0, 1.0, &mut rng),
            ],
            |g, vars| {
                let s = g.stack(&[vars[0], vars[1]])?;
                let p = g.pad_axis(s, 1, 1, 1)?;
                let sq = g.square(p);
                Ok(g.sum_all(sq))
            },
        );
    }

    #[test]
    fn index_select_grads_with_duplicates() {
        let mut rng = StdRng::seed_from_u64(15);
        gradcheck(&[Tensor::rand_normal(&[4, 2], 0.0, 1.0, &mut rng)], |g, vars| {
            let s = g.index_select(vars[0], 0, &[0, 2, 0, 3])?;
            let sq = g.square(s);
            Ok(g.sum_all(sq))
        });
    }
}
