//! AGCRN (Bai et al., NeurIPS 2020): a GRU whose input transform is a graph
//! convolution over a *node-adaptive* adjacency built from learnable region
//! embeddings, plus node-specific bias generated from the same embeddings
//! (node-adaptive parameter learning, simplified to FiLM-style modulation).

use crate::common::{BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{Embedding, GruCell, Linear};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor};

/// The AGCRN network.
pub struct Net {
    node_emb: Embedding,
    input_proj: Linear,
    node_bias: Linear,
    cell: GruCell,
    head: Linear,
}

impl Net {
    /// `softmax(relu(E·Eᵀ))` — the node-adaptive adjacency.
    fn adjacency(&self, g: &Graph, pv: &ParamVars) -> Result<Var> {
        let e = self.node_emb.full(pv);
        let et = g.transpose2d(e)?;
        let s = g.matmul(e, et)?;
        let s = g.relu(s);
        g.softmax_lastdim(s)
    }
}

/// The AGCRN predictor.
pub type Agcrn = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "AGCRN";

    /// Build with 8-dim node embeddings.
    fn build(
        cfg: &BaselineConfig,
        data: &CrimeDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let c = data.num_categories();
        let h = cfg.hidden;
        let r = data.num_regions();
        Ok(Net {
            node_emb: Embedding::new(store, "agcrn.emb", r, 8, rng),
            input_proj: Linear::new(store, "agcrn.in", c, h, true, rng),
            node_bias: Linear::new(store, "agcrn.bias", 8, h, true, rng),
            cell: GruCell::new(store, "agcrn.gru", h, h, rng),
            head: Linear::new(store, "agcrn.head", h, c, true, rng),
        })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let (r, tw, c) = (z.shape()[0], z.shape()[1], z.shape()[2]);
        let a = self.adjacency(g, pv)?;
        // Node-specific bias from embeddings (NAPL, FiLM-simplified).
        let bias = self.node_bias.forward(g, pv, self.node_emb.full(pv))?; // [R, h]
        let mut h = g.constant(Tensor::zeros(&[r, self.cell.hidden_size()]));
        for t in 0..tw {
            let day = z.slice_axis(1, t, 1)?.reshape(&[r, c])?;
            let x = g.constant(day);
            // Adaptive graph conv on the input: A·x, then project + bias.
            let mixed = g.matmul(a, x)?;
            let xin = self.input_proj.forward(g, pv, mixed)?;
            let xin = g.add(xin, bias)?;
            h = self.cell.step(g, pv, xin, h)?;
        }
        self.head.forward(g, pv, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sthsl_data::{DatasetConfig, Predictor, SynthCity, SynthConfig};

    fn data() -> CrimeDataset {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 100)).unwrap();
        CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 7, val_days: 5, train_fraction: 7.0 / 8.0 },
        )
        .unwrap()
    }

    #[test]
    fn adjacency_is_learned_not_grid() {
        let data = data();
        let m = Agcrn::new(BaselineConfig::tiny(), &data).unwrap();
        let g = Graph::new();
        let pv = m.store.inject(&g);
        let a = m.net.adjacency(&g, &pv).unwrap();
        let av = g.value(a);
        // Every row sums to 1; entries between non-adjacent regions may be
        // non-zero (unlike a grid adjacency).
        for i in 0..16 {
            let s: f32 = (0..16).map(|j| av.at(&[i, j])).sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
        assert!(av.at(&[0, 15]) > 0.0);
    }

    #[test]
    fn forward_and_fit() {
        let data = data();
        let mut m = Agcrn::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
    }
}
