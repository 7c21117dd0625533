//! Pointwise nonlinearities and dropout.

use crate::graph::{Graph, Var};
use crate::tape::OpKind;
use sthsl_tensor::{Result, TensorError};

impl Graph {
    /// Leaky rectified linear unit with negative slope `alpha` — the
    /// activation the ST-HSL paper denotes σ(·) in Eqs. 2–5.
    pub fn leaky_relu(&self, x: Var, alpha: f32) -> Var {
        let out = self.value(x).leaky_relu(alpha);
        self.op(
            OpKind::LeakyRelu { alpha },
            out,
            vec![x],
            Box::new(move |g, p, _| Ok(vec![Some(g.leaky_relu_grad(&p[0], alpha)?)])),
        )
    }

    /// Standard ReLU.
    pub fn relu(&self, x: Var) -> Var {
        self.leaky_relu(x, 0.0)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, x: Var) -> Var {
        let out = self.value(x).map(|v| 1.0 / (1.0 + (-v).exp()));
        self.op(
            OpKind::Sigmoid,
            out,
            vec![x],
            Box::new(|g, _, y| Ok(vec![Some(g.zip_map(y, move |gv, yv| gv * yv * (1.0 - yv))?)])),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, x: Var) -> Var {
        let out = self.value(x).map(f32::tanh);
        self.op(
            OpKind::Tanh,
            out,
            vec![x],
            Box::new(|g, _, y| Ok(vec![Some(g.zip_map(y, move |gv, yv| gv * (1.0 - yv * yv))?)])),
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self, x: Var) -> Var {
        let out = self.value(x).map(f32::exp);
        self.op(OpKind::Exp, out, vec![x], Box::new(|g, _, y| Ok(vec![Some(g.mul(y)?)])))
    }

    /// Natural log of `x + eps` (the eps guards sparse zero counts).
    pub fn ln_eps(&self, x: Var, eps: f32) -> Var {
        let out = self.value(x).map(move |v| (v + eps).ln());
        self.op(
            OpKind::LnEps { eps },
            out,
            vec![x],
            Box::new(move |g, p, _| {
                Ok(vec![Some(g.zip_map(&p[0], move |gv, xv| gv / (xv + eps))?)])
            }),
        )
    }

    /// Elementwise square root of `x + eps`.
    pub fn sqrt_eps(&self, x: Var, eps: f32) -> Var {
        let out = self.value(x).map(move |v| (v + eps).sqrt());
        self.op(
            OpKind::SqrtEps { eps },
            out,
            vec![x],
            Box::new(|g, _, y| Ok(vec![Some(g.zip_map(y, move |gv, yv| gv / (2.0 * yv))?)])),
        )
    }

    /// Numerically stable softplus `ln(1 + e^x)`, the building block of the
    /// infomax binary cross-entropy:
    /// `-log σ(x) = softplus(-x)` and `-log(1 - σ(x)) = softplus(x)`.
    pub fn softplus(&self, x: Var) -> Var {
        let out = self.value(x).map(stable_softplus);
        self.op(
            OpKind::Softplus,
            out,
            vec![x],
            Box::new(|g, p, _| {
                Ok(vec![Some(g.zip_map(&p[0], move |gv, xv| gv / (1.0 + (-xv).exp()))?)])
            }),
        )
    }

    /// Inverted dropout with keep-scaling. Identity in inference mode or when
    /// `p <= 0`. The mask is keyed by the graph's seed, the sample slot and
    /// this node's ordinal within the sample ([`Graph::training`]), and the
    /// backward pass recomputes it from the key instead of storing it
    /// ([`sthsl_tensor::Tensor::dropout`]). A NaN or `p >= 1` is a typed
    /// error in either mode: it would drop every element.
    pub fn dropout(&self, x: Var, p: f32) -> Result<Var> {
        if p.is_nan() || p >= 1.0 {
            return Err(TensorError::Invalid(format!(
                "dropout probability must be below 1, got {p}"
            )));
        }
        if !self.is_training() || p <= 0.0 {
            return Ok(x);
        }
        let (key, keep) = (self.next_dropout_key(), 1.0 - p);
        let out = self.value(x).dropout(key, keep);
        Ok(self.op(
            OpKind::Dropout { p },
            out,
            vec![x],
            Box::new(move |g, _, _| Ok(vec![Some(g.dropout(key, keep))])),
        ))
    }
}

fn stable_softplus(v: f32) -> f32 {
    if v > 20.0 {
        v
    } else if v < -20.0 {
        v.exp()
    } else {
        (1.0 + v.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::gradcheck;
    use sthsl_tensor::Tensor;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n]).unwrap()
    }

    #[test]
    fn leaky_relu_grads() {
        gradcheck(&[t(vec![1.0, -2.0, 0.5, -0.1])], |g, vars| {
            let y = g.leaky_relu(vars[0], 0.2);
            Ok(g.sum_all(y))
        });
    }

    #[test]
    fn sigmoid_tanh_grads() {
        gradcheck(&[t(vec![0.3, -1.2, 2.0])], |g, vars| {
            let s = g.sigmoid(vars[0]);
            let h = g.tanh(s);
            Ok(g.sum_all(h))
        });
    }

    #[test]
    fn exp_ln_sqrt_grads() {
        gradcheck(&[t(vec![0.5, 1.5, 2.5])], |g, vars| {
            let e = g.exp(vars[0]);
            let l = g.ln_eps(e, 1e-6);
            let r = g.sqrt_eps(l, 1e-6);
            Ok(g.sum_all(r))
        });
    }

    #[test]
    fn softplus_grads_and_stability() {
        gradcheck(&[t(vec![-3.0, 0.0, 3.0])], |g, vars| {
            let y = g.softplus(vars[0]);
            Ok(g.sum_all(y))
        });
        // Extreme inputs stay finite.
        assert!(stable_softplus(100.0).is_finite());
        assert!(stable_softplus(-100.0).is_finite());
        assert!((stable_softplus(100.0) - 100.0).abs() < 1e-4);
    }

    #[test]
    fn dropout_inference_is_identity() {
        let g = Graph::new();
        let x = g.leaf(t(vec![1.0, 2.0, 3.0]));
        let y = g.dropout(x, 0.5).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_training_preserves_expectation_roughly() {
        let g = Graph::training(42);
        let x = g.leaf(Tensor::ones(&[10000]));
        let y = g.dropout(x, 0.3).unwrap();
        let mean = g.value(y).mean_all();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Surviving entries are scaled by 1/keep.
        assert!(g.value(y).data().iter().all(|&v| v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-5));
    }

    #[test]
    fn dropout_rejects_nan_and_probabilities_of_one_or_more() {
        for p in [f32::NAN, 1.0, 1.5, f32::INFINITY] {
            for g in [Graph::training(3), Graph::new()] {
                let x = g.leaf(t(vec![1.0, 2.0]));
                let err = g.dropout(x, p).unwrap_err();
                assert!(matches!(err, TensorError::Invalid(_)), "p = {p}: {err:?}");
            }
        }
        // The boundary just below 1 still samples a mask.
        let g = Graph::training(3);
        let x = g.leaf(Tensor::ones(&[64]));
        assert!(g.dropout(x, 0.999).is_ok());
    }

    #[test]
    fn dropout_grad_uses_same_mask() {
        let g = Graph::training(7);
        let x = g.leaf(Tensor::ones(&[1000]));
        let y = g.dropout(x, 0.5).unwrap();
        let s = g.sum_all(y);
        let grads = g.backward(s).unwrap();
        let gx = grads.get(x).unwrap();
        let yv = g.value(y);
        for (gv, yv) in gx.data().iter().zip(yv.data()) {
            assert_eq!(gv, yv); // both are mask / keep
        }
    }

    /// Which of `n` ones a dropout recorded on `g` kept.
    fn mask(g: &Graph, n: usize, p: f32) -> Vec<bool> {
        let y = g.dropout(g.leaf(Tensor::ones(&[n])), p).unwrap();
        g.value(y).data().iter().map(|&v| v > 0.0).collect()
    }

    #[test]
    fn dropout_keeps_non_finite_inputs_non_finite_whether_kept_or_dropped() {
        let keep = mask(&Graph::training(11), 256, 0.5);
        assert!(keep.contains(&true) && keep.contains(&false));
        for bad in [f32::NAN, f32::INFINITY] {
            let g = Graph::training(11);
            let y = g.dropout(g.leaf(Tensor::full(&[256], bad)), 0.5).unwrap();
            for (&v, &k) in g.value(y).data().iter().zip(&keep) {
                // A kept ∞ is scaled; a dropped one is `∞ · 0`, NaN.
                assert!(if k && bad.is_infinite() { v == bad } else { v.is_nan() }, "{bad}: {v}");
            }
        }
    }

    #[test]
    fn a_samples_masks_differ_per_node_and_ignore_earlier_samples() {
        let sample = |g: &Graph| -> Vec<Vec<bool>> { (0..3).map(|_| mask(g, 300, 0.3)).collect() };
        let g = Graph::training(9);
        g.begin_sample(1);
        let alone = sample(&g);
        assert_ne!(alone[0], alone[1], "two nodes of one sample drew the same mask");
        let g = Graph::training(9);
        let first = sample(&g);
        g.begin_sample(1);
        assert_eq!(sample(&g), alone);
        assert_ne!(first, alone, "two slots drew the same masks");
    }
}
