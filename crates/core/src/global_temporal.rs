//! Global-branch temporal relation encoding (paper Eq. 5).
//!
//! A stack of single-channel temporal convolutions (fusion kernel `V ∈
//! R^{L×1}`) shared across regions, categories and embedding slots injects
//! temporal context into the hypergraph output `Γ^{(R)}`. We add residual
//! connections around each layer — with four stacked layers (the paper's
//! setting) the plain stack is poorly conditioned; the residual preserves
//! Eq. 5's receptive field while keeping gradients healthy.

use crate::config::StHslConfig;
use rand::Rng;
use sthsl_autograd::{Graph, ParamId, ParamStore, ParamVars, Var};
use sthsl_tensor::ops::conv::{ConvView, Pad1d};
use sthsl_tensor::{Result, Tensor};

/// Four-layer (configurable) temporal convolution over the global branch.
pub struct GlobalTemporal {
    weights: Vec<ParamId>,
    biases: Vec<ParamId>,
    kernel: usize,
    dropout: f32,
}

impl GlobalTemporal {
    /// Register the conv stack.
    pub fn new(store: &mut ParamStore, cfg: &StHslConfig, rng: &mut impl Rng) -> Self {
        let k = cfg.kernel;
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for l in 0..cfg.global_temporal_layers {
            // Near-zero init: with four stacked layers, He-scale random
            // temporal filters would swamp the signal at the start of
            // training; starting near the identity (residual path only) lets
            // the filters grow as far as the data warrants.
            weights.push(store.register(
                format!("global_temporal.{l}.w"),
                Tensor::rand_normal(&[1, 1, k], 0.0, 0.02, rng),
            ));
            biases.push(store.register(format!("global_temporal.{l}.b"), Tensor::zeros(&[1])));
        }
        GlobalTemporal { weights, biases, kernel: cfg.kernel, dropout: cfg.dropout }
    }

    /// `Γ^{(R)}: [Tw, RC, d] → Γ^{(T)}: [Tw, RC, d]`.
    pub fn forward(&self, g: &Graph, pv: &ParamVars, gamma: Var) -> Result<Var> {
        let shape = g.shape_of(gamma)?;
        crate::guard::expect_rank("global_temporal", &shape, 3)?;
        let (tw, n, d) = (shape[0], shape[1], shape[2]);
        // Read in place as a [RC·d, 1, Tw] batch: time is the conv axis,
        // every (node, slot) pair is a batch element.
        let view =
            ConvView { batch: [(n, d), (d, 1)], channels: (1, 1), rows: (1, 1), cols: (tw, n * d) };
        let mut t = gamma;
        for l in 0..self.weights.len() {
            let conv = g.conv1d_view(
                t,
                pv.var(self.weights[l]),
                Some(pv.var(self.biases[l])),
                Pad1d::same(self.kernel),
                1,
                Some(view),
            )?;
            // Pre-activation residual: Eq. 5 is σ(δ(V*Γ + c)); wrapping only
            // the conv branch keeps the identity path linear so four stacked
            // layers do not attenuate sign-symmetric embeddings.
            let act = g.leaky_relu(g.dropout(conv, self.dropout)?, 0.1);
            t = g.add(act, t)?;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_shape_roundtrip() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let gt = GlobalTemporal::new(&mut store, &StHslConfig::quick(), &mut rng);
        let g = Graph::new();
        let pv = store.inject(&g);
        let x = g.constant(Tensor::rand_normal(&[5, 12, 8], 0.0, 1.0, &mut rng));
        let y = gt.forward(&g, &pv, x).unwrap();
        assert_eq!(g.shape_of(y).unwrap(), vec![5, 12, 8]);
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn temporal_mixing_but_no_node_mixing() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let gt = GlobalTemporal::new(&mut store, &StHslConfig::quick(), &mut rng);
        let base = Tensor::rand_normal(&[5, 4, 2], 0.0, 1.0, &mut rng);
        let run = |bump: f32| {
            let g = Graph::new();
            let pv = store.inject(&g);
            let mut x = base.clone();
            // Perturb node 0, time 0, slot 0: flat index 0.
            x.data_mut()[0] += bump;
            let xv = g.constant(x);
            let y = gt.forward(&g, &pv, xv).unwrap();
            g.value(y).as_ref().clone()
        };
        let a = run(0.0);
        let b = run(2.0);
        // Same node at a later time is affected (temporal mixing)…
        let idx_t2 = 2 * 4 * 2; // t=2, node 0, slot 0
        assert!((a.data()[idx_t2] - b.data()[idx_t2]).abs() > 1e-7);
        // …but other nodes are never affected at any time.
        for t in 0..5 {
            for node in 1..4 {
                for s in 0..2 {
                    let i = (t * 4 + node) * 2 + s;
                    assert!((a.data()[i] - b.data()[i]).abs() < 1e-7, "node leak at {i}");
                }
            }
        }
    }

    #[test]
    fn layer_count_follows_config() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut store = ParamStore::new();
        let mut cfg = StHslConfig::quick();
        cfg.global_temporal_layers = 4;
        let _ = GlobalTemporal::new(&mut store, &cfg, &mut rng);
        assert_eq!(store.len(), 8); // 4 weights + 4 biases
    }
}
