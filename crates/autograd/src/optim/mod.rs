//! First-order optimizers operating on a [`crate::ParamStore`].

mod adam;

pub use adam::{Adam, AdamState};

use crate::graph::Gradients;
use crate::params::{ParamId, ParamStore, ParamVars};
use sthsl_tensor::{Result, Tensor};

/// A gradient-descent-family optimizer.
pub trait Optimizer {
    /// Apply one update step given the gradients of the current graph.
    fn step(&mut self, store: &mut ParamStore, pv: &ParamVars, grads: &Gradients) -> Result<()>;
}

/// Global-norm gradient clipping: returns the factor by which every gradient
/// should be scaled so that the concatenated gradient norm is at most
/// `max_norm` (1.0 when already within bounds).
pub fn global_clip_factor(
    store: &ParamStore,
    pv: &ParamVars,
    grads: &Gradients,
    max_norm: f32,
) -> f32 {
    let mut sq = 0.0f32;
    for id in store.ids() {
        if let Some(g) = pv.grad(grads, id) {
            sq += g.sq_norm();
        }
    }
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        max_norm / norm
    } else {
        1.0
    }
}

/// Euclidean norm of the concatenated gradient across every registered
/// parameter, accumulated in f64 (0.0 when no gradient flowed). This is the
/// quantity `global_clip_factor` bounds; observability layers report it
/// per-batch to spot exploding/vanishing gradients.
pub fn global_grad_norm(store: &ParamStore, pv: &ParamVars, grads: &Gradients) -> f64 {
    let mut sq = 0.0f64;
    for id in store.ids() {
        if let Some(g) = pv.grad(grads, id) {
            sq += f64::from(g.sq_norm());
        }
    }
    sq.sqrt()
}

/// Shared helper: fetch the (possibly clipped) gradient for one parameter.
#[expect(
    clippy::float_cmp,
    reason = "R4: 1.0 is `global_clip_factor`'s exact no-clip sentinel, not a computed value"
)]
pub(crate) fn effective_grad(
    pv: &ParamVars,
    grads: &Gradients,
    id: ParamId,
    clip: f32,
) -> Option<Tensor> {
    pv.grad(grads, id).map(|g| if clip == 1.0 { g.clone() } else { g.scale(clip) })
}

pub(crate) use effective_grad as grad_for;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn clip_factor_bounds_norm() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap());
        let g = Graph::new();
        let pv = store.inject(&g);
        let sq = g.square(pv.var(w));
        let loss = g.sum_all(sq); // grad = 2w = [6, 8], norm 10
        let grads = g.backward(loss).unwrap();
        let f = global_clip_factor(&store, &pv, &grads, 5.0);
        assert!((f - 0.5).abs() < 1e-6);
        let f2 = global_clip_factor(&store, &pv, &grads, 100.0);
        assert_eq!(f2, 1.0);
    }
}
