//! Differentiable 1-D / 2-D convolutions, delegating forward and backward
//! kernels to `sthsl-tensor`.

use crate::graph::{Graph, Var};
use crate::tape::OpKind;
use sthsl_tensor::ops::conv::{ConvView, Pad1d};
use sthsl_tensor::{Result, Tensor};

impl Graph {
    /// 2-D convolution. `x: [B,Cin,H,W]`, `w: [Cout,Cin,kh,kw]`,
    /// `bias: [Cout]`, symmetric padding `(ph, pw)`, stride 1.
    pub fn conv2d(&self, x: Var, w: Var, bias: Option<Var>, pad: (usize, usize)) -> Result<Var> {
        self.conv2d_view(x, w, bias, pad, None)
    }

    /// [`Graph::conv2d`] of the operand `view` reads out of `x` (see
    /// [`ConvView`]): a same-padded C→C conv whose output has `x`'s shape
    /// and layout. `None` reads `x` itself as `[B,Cin,H,W]`.
    pub fn conv2d_view(
        &self,
        x: Var,
        w: Var,
        bias: Option<Var>,
        pad: (usize, usize),
        view: Option<ConvView>,
    ) -> Result<Var> {
        let (xv, wv) = (self.value(x), self.value(w));
        let bv = bias.map(|b| self.value(b));
        let out = xv.conv2d_view(&wv, bv.as_deref(), pad, view)?;
        let mut parents = vec![x, w];
        if let Some(b) = bias {
            parents.push(b);
        }
        let has_bias = bias.is_some();
        Ok(self.op(
            OpKind::Conv2d { pad, has_bias, view },
            out,
            parents,
            Box::new(move |g, p, _| {
                let gx = Tensor::conv2d_view_grad_input(g, &p[1], p[0].shape(), pad, view)?;
                let gw = Tensor::conv2d_view_grad_weight(g, &p[0], p[1].shape(), pad, view)?;
                let mut grads = vec![Some(gx), Some(gw)];
                if has_bias {
                    grads.push(Some(match view {
                        Some(v) => Tensor::conv_view_grad_bias(g, v)?,
                        None => Tensor::conv2d_grad_bias(g)?,
                    }));
                }
                Ok(grads)
            }),
        ))
    }

    /// 1-D convolution with dilation. `x: [B,Cin,L]`, `w: [Cout,Cin,k]`.
    pub fn conv1d(
        &self,
        x: Var,
        w: Var,
        bias: Option<Var>,
        pad: Pad1d,
        dilation: usize,
    ) -> Result<Var> {
        self.conv1d_view(x, w, bias, pad, dilation, None)
    }

    /// [`Graph::conv1d`] through a view, as [`Graph::conv2d_view`].
    pub fn conv1d_view(
        &self,
        x: Var,
        w: Var,
        bias: Option<Var>,
        pad: Pad1d,
        dilation: usize,
        view: Option<ConvView>,
    ) -> Result<Var> {
        let (xv, wv) = (self.value(x), self.value(w));
        let bv = bias.map(|b| self.value(b));
        let out = xv.conv1d_view(&wv, bv.as_deref(), pad, dilation, view)?;
        let mut parents = vec![x, w];
        if let Some(b) = bias {
            parents.push(b);
        }
        let has_bias = bias.is_some();
        let kind =
            OpKind::Conv1d { pad_left: pad.left, pad_right: pad.right, dilation, has_bias, view };
        Ok(self.op(
            kind,
            out,
            parents,
            Box::new(move |g, p, _| {
                let shape = p[0].shape();
                let gx = Tensor::conv1d_view_grad_input(g, &p[1], shape, pad, dilation, view)?;
                let gw =
                    Tensor::conv1d_view_grad_weight(g, &p[0], p[1].shape(), pad, dilation, view)?;
                let mut grads = vec![Some(gx), Some(gw)];
                if has_bias {
                    grads.push(Some(match view {
                        Some(v) => Tensor::conv_view_grad_bias(g, v)?,
                        None => Tensor::conv1d_grad_bias(g)?,
                    }));
                }
                Ok(grads)
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::gradcheck;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn conv2d_grads_with_bias() {
        let mut rng = StdRng::seed_from_u64(5);
        gradcheck(
            &[
                Tensor::rand_normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng),
                Tensor::rand_normal(&[2, 2, 3, 3], 0.0, 0.5, &mut rng),
                Tensor::rand_normal(&[2], 0.0, 0.5, &mut rng),
            ],
            |g, vars| {
                let y = g.conv2d(vars[0], vars[1], Some(vars[2]), (1, 1))?;
                let sq = g.square(y);
                Ok(g.sum_all(sq))
            },
        );
    }

    #[test]
    fn conv1d_dilated_grads() {
        let mut rng = StdRng::seed_from_u64(6);
        gradcheck(
            &[
                Tensor::rand_normal(&[2, 2, 8], 0.0, 1.0, &mut rng),
                Tensor::rand_normal(&[3, 2, 2], 0.0, 0.5, &mut rng),
            ],
            |g, vars| {
                let y = g.conv1d(vars[0], vars[1], None, Pad1d::causal(2, 2), 2)?;
                let sq = g.square(y);
                Ok(g.sum_all(sq))
            },
        );
    }

    #[test]
    fn stacked_residual_conv_grads() {
        // The ST-HSL local-encoder pattern: LeakyReLU(conv(x) + x), twice.
        // LeakyReLU is non-differentiable at 0, so the seed must keep every
        // pre-activation away from the kink for finite differences to agree.
        let mut rng = StdRng::seed_from_u64(8);
        gradcheck(
            &[
                Tensor::rand_normal(&[1, 2, 3, 3], 0.0, 1.0, &mut rng),
                Tensor::rand_normal(&[2, 2, 3, 3], 0.0, 0.3, &mut rng),
                Tensor::rand_normal(&[2, 2, 3, 3], 0.0, 0.3, &mut rng),
            ],
            |g, vars| {
                let h1 = g.conv2d(vars[0], vars[1], None, (1, 1))?;
                let h1 = g.add(h1, vars[0])?;
                let h1 = g.leaky_relu(h1, 0.1);
                let h2 = g.conv2d(h1, vars[2], None, (1, 1))?;
                let h2 = g.add(h2, h1)?;
                let h2 = g.leaky_relu(h2, 0.1);
                Ok(g.sum_all(h2))
            },
        );
    }
}
