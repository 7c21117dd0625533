//! Multi-view spatial-temporal convolution encoder (paper Eqs. 2–3).
//!
//! Spatial view (Eq. 2): for each embedding slot and time step, a 2-D
//! convolution over the region grid whose channels are the crime categories —
//! so one kernel simultaneously captures *spatial* context (the k×k window)
//! and *type-wise* dependence (the channel mixing). Residual connection,
//! dropout and LeakyReLU as in the paper; two stacked layers.
//!
//! Temporal view (Eq. 3): a 1-D convolution over the window axis with the
//! same category-mixing channel structure, again residual and stacked.
//!
//! Ablations are realised by masking the kernels:
//! - "w/o S-Conv": a center-only spatial mask collapses k×k to 1×1;
//! - "w/o C-Conv": a diagonal channel mask removes category mixing;
//! - "w/o T-Conv": the temporal stack is skipped;
//! - "w/o Local": the whole module is skipped (identity).

use crate::config::{Ablation, StHslConfig};
use rand::Rng;
use sthsl_autograd::{Graph, ParamId, ParamStore, ParamVars, Var};
use sthsl_tensor::ops::conv::{ConvView, Pad1d};
use sthsl_tensor::{Result, Tensor};

/// The local (nearby-regions, nearby-days) relation encoder.
pub struct LocalEncoder {
    spatial_w: Vec<ParamId>,
    spatial_b: Vec<ParamId>,
    temporal_w: Vec<ParamId>,
    temporal_b: Vec<ParamId>,
    rows: usize,
    cols: usize,
    num_categories: usize,
    kernel: usize,
    dropout: f32,
    ablation: Ablation,
}

impl LocalEncoder {
    /// Register the convolution stacks for a `rows × cols` grid with `c`
    /// categories.
    pub fn new(
        store: &mut ParamStore,
        cfg: &StHslConfig,
        rows: usize,
        cols: usize,
        num_categories: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let c = num_categories;
        let k = cfg.kernel;
        let mut spatial_w = Vec::new();
        let mut spatial_b = Vec::new();
        let mut temporal_w = Vec::new();
        let mut temporal_b = Vec::new();
        for l in 0..cfg.local_layers {
            spatial_w.push(store.register(
                format!("local.spatial{l}.w"),
                Tensor::he_normal(&[c, c, k, k], c * k * k, rng),
            ));
            spatial_b.push(store.register(format!("local.spatial{l}.b"), Tensor::zeros(&[c])));
            temporal_w.push(store.register(
                format!("local.temporal{l}.w"),
                Tensor::he_normal(&[c, c, k], c * k, rng),
            ));
            temporal_b.push(store.register(format!("local.temporal{l}.b"), Tensor::zeros(&[c])));
        }
        LocalEncoder {
            spatial_w,
            spatial_b,
            temporal_w,
            temporal_b,
            rows,
            cols,
            num_categories,
            kernel: cfg.kernel,
            dropout: cfg.dropout,
            ablation: cfg.ablation,
        }
    }

    /// Spatial-kernel ablation mask (`[1, 1, k, k]`, center-only) or `None`.
    fn spatial_mask(&self) -> Option<Tensor> {
        if self.ablation.spatial_conv {
            return None;
        }
        let k = self.kernel;
        let mut m = Tensor::zeros(&[1, 1, k, k]);
        *m.at_mut(&[0, 0, k / 2, k / 2]) = 1.0;
        Some(m)
    }

    /// Category-mixing ablation mask (`[C, C, 1, 1]` diagonal) or `None`.
    fn category_mask2d(&self) -> Option<Tensor> {
        if self.ablation.category_conv {
            return None;
        }
        let c = self.num_categories;
        let mut m = Tensor::zeros(&[c, c, 1, 1]);
        for i in 0..c {
            *m.at_mut(&[i, i, 0, 0]) = 1.0;
        }
        Some(m)
    }

    fn category_mask1d(&self) -> Option<Tensor> {
        if self.ablation.category_conv {
            return None;
        }
        let c = self.num_categories;
        let mut m = Tensor::zeros(&[c, c, 1]);
        for i in 0..c {
            *m.at_mut(&[i, i, 0]) = 1.0;
        }
        Some(m)
    }

    /// Encode `E: [R, Tw, C, d] → H^{(T)}: [R, Tw, C, d]`.
    pub fn forward(&self, g: &Graph, pv: &ParamVars, e: Var) -> Result<Var> {
        if !self.ablation.local_encoder {
            return Ok(e);
        }
        let shape = g.shape_of(e)?;
        crate::guard::expect_rank("local.encoder", &shape, 4)?;
        crate::guard::expect_dim("local.encoder", &shape, 0, self.rows * self.cols)?;
        crate::guard::expect_dim("local.encoder", &shape, 2, self.num_categories)?;
        let (r, tw, c, d) = (shape[0], shape[1], shape[2], shape[3]);
        let k = self.kernel;
        let pad = (k / 2, k / 2);
        // Both stacks read and write E's [R,Tw,C,d] layout in place; the
        // views name the conv operand each one sees.
        let region = tw * c * d;
        let (slot, category) = ((d, 1), (c, d));

        // One node holds the stacks' input, so that the first layer's two
        // gradients (conv input and residual) are summed with each other
        // before the global branch's gradients of E join them, as when the
        // stack read a permuted copy: training keeps its bits.
        let mut h = g.reshape(e, &shape)?;

        // ---- Spatial + category view (Eq. 2) ---------------------------
        // A [Tw·d, C, I, J] batch: time and embedding slots form the conv
        // batch; categories are the channels.
        let spatial = ConvView {
            batch: [(tw, c * d), slot],
            channels: category,
            rows: (self.rows, self.cols * region),
            cols: (self.cols, region),
        };
        let smask = self.spatial_mask().map(|m| g.constant(m));
        let cmask = self.category_mask2d().map(|m| g.constant(m));
        for l in 0..self.spatial_w.len() {
            let mut w = pv.var(self.spatial_w[l]);
            if let Some(m) = smask {
                w = g.mul(w, m)?;
            }
            if let Some(m) = cmask {
                w = g.mul(w, m)?;
            }
            let bias = Some(pv.var(self.spatial_b[l]));
            let conv = g.conv2d_view(h, w, bias, pad, Some(spatial))?;
            let conv = g.dropout(conv, self.dropout)?;
            let res = g.add(conv, h)?; // residual (Eq. 2)
            h = g.leaky_relu(res, 0.1);
        }

        // ---- Temporal view (Eq. 3) --------------------------------------
        if self.ablation.temporal_conv {
            // A [R·d, C, Tw] batch.
            let temporal = ConvView {
                batch: [(r, region), slot],
                channels: category,
                rows: (1, 1),
                cols: (tw, c * d),
            };
            let cmask1 = self.category_mask1d().map(|m| g.constant(m));
            for l in 0..self.temporal_w.len() {
                let mut w = pv.var(self.temporal_w[l]);
                if let Some(m) = cmask1 {
                    w = g.mul(w, m)?;
                }
                let bias = Some(pv.var(self.temporal_b[l]));
                let conv = g.conv1d_view(h, w, bias, Pad1d::same(k), 1, Some(temporal))?;
                let conv = g.dropout(conv, self.dropout)?;
                let res = g.add(conv, h)?; // residual (Eq. 3)
                h = g.leaky_relu(res, 0.1);
            }
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sthsl_autograd::ParamStore;

    fn encoder(ablation: Ablation) -> (ParamStore, LocalEncoder) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let cfg = StHslConfig { ablation, ..StHslConfig::quick() };
        let enc = LocalEncoder::new(&mut store, &cfg, 3, 3, 2, &mut rng);
        (store, enc)
    }

    fn input() -> Tensor {
        let mut rng = StdRng::seed_from_u64(4);
        Tensor::rand_normal(&[9, 5, 2, 8], 0.0, 1.0, &mut rng)
    }

    #[test]
    fn forward_preserves_shape() {
        let (store, enc) = encoder(Ablation::full());
        let g = Graph::new();
        let pv = store.inject(&g);
        let e = g.constant(input());
        let h = enc.forward(&g, &pv, e).unwrap();
        assert_eq!(g.shape_of(h).unwrap(), vec![9, 5, 2, 8]);
        assert!(!g.value(h).has_non_finite());
    }

    #[test]
    fn without_local_is_identity() {
        let (store, enc) = encoder(Ablation::without_local());
        let g = Graph::new();
        let pv = store.inject(&g);
        let x = input();
        let e = g.constant(x.clone());
        let h = enc.forward(&g, &pv, e).unwrap();
        assert_eq!(g.value(h).data(), x.data());
    }

    #[test]
    fn without_spatial_conv_blocks_spatial_flow() {
        // With the centre-only mask, perturbing region 0 must not change any
        // other region's spatial-view output. Disable temporal conv too so
        // nothing else mixes positions (temporal conv does not mix regions
        // anyway, but keep the probe sharp).
        let ab = Ablation { spatial_conv: false, temporal_conv: false, ..Ablation::full() };
        let (store, enc) = encoder(ab);
        let run = |bump: f32| {
            let g = Graph::new();
            let pv = store.inject(&g);
            let mut x = input();
            x.data_mut()[0] += bump;
            let e = g.constant(x);
            let h = enc.forward(&g, &pv, e).unwrap();
            g.value(h).as_ref().clone()
        };
        let a = run(0.0);
        let b = run(3.0);
        // Region 0 output changes…
        let changed_r0 = (0..a.len() / 9).any(|i| (a.data()[i] - b.data()[i]).abs() > 1e-6);
        assert!(changed_r0);
        // …while every other region's output is bit-identical.
        let per_region = a.len() / 9;
        for i in per_region..a.len() {
            assert!((a.data()[i] - b.data()[i]).abs() < 1e-7, "region leak at flat index {i}");
        }
    }

    #[test]
    fn with_spatial_conv_neighbors_flow() {
        let ab = Ablation { temporal_conv: false, ..Ablation::full() };
        let (store, enc) = encoder(ab);
        let run = |bump: f32| {
            let g = Graph::new();
            let pv = store.inject(&g);
            let mut x = input();
            x.data_mut()[0] += bump;
            let e = g.constant(x);
            let h = enc.forward(&g, &pv, e).unwrap();
            g.value(h).as_ref().clone()
        };
        let a = run(0.0);
        let b = run(3.0);
        let per_region = a.len() / 9;
        // Region 1 (a grid neighbour of region 0) must see the change.
        let changed =
            (per_region..2 * per_region).any(|i| (a.data()[i] - b.data()[i]).abs() > 1e-6);
        assert!(changed, "spatial conv failed to propagate to neighbour");
    }

    #[test]
    fn without_category_conv_blocks_category_flow() {
        let ab = Ablation {
            category_conv: false,
            temporal_conv: false,
            spatial_conv: false,
            ..Ablation::full()
        };
        let (store, enc) = encoder(ab);
        let run = |bump: f32| {
            let g = Graph::new();
            let pv = store.inject(&g);
            let mut x = input();
            // Perturb only category 0 entries: layout [R,Tw,C,d], category
            // stride d, category index (flat / d) % C.
            let d = 8;
            let c = 2;
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                if (i / d) % c == 0 {
                    *v += bump;
                }
            }
            let e = g.constant(x);
            let h = enc.forward(&g, &pv, e).unwrap();
            g.value(h).as_ref().clone()
        };
        let a = run(0.0);
        let b = run(1.0);
        // Category-1 outputs must be unchanged.
        let d = 8;
        let c = 2;
        for i in 0..a.len() {
            if (i / d) % c == 1 {
                assert!((a.data()[i] - b.data()[i]).abs() < 1e-6, "category leak at {i}");
            }
        }
    }

    #[test]
    fn gradients_flow_to_all_conv_params() {
        let (store, enc) = encoder(Ablation::full());
        let g = Graph::new();
        let pv = store.inject(&g);
        let e = g.constant(input());
        let h = enc.forward(&g, &pv, e).unwrap();
        let sq = g.square(h);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss).unwrap();
        for id in store.ids() {
            assert!(pv.grad(&grads, id).is_some(), "no grad for {}", store.name(id));
        }
    }
}
