//! DMSTGCN (Han et al., KDD 2021): dynamic, time-aware graph construction —
//! the adjacency is factorised over day-of-week embeddings and node
//! embeddings — combined with graph convolution and a temporal conv stack.

use crate::common::{BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{Conv1d, Embedding, Linear};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor};

/// The DMSTGCN network.
pub struct Net {
    node_emb: Embedding,
    dow_emb: Embedding,
    input_proj: Linear,
    tconv: Conv1d,
    gconv: Linear,
    head: Linear,
}

impl Net {
    /// Dynamic adjacency for one day-of-week:
    /// `A_dow = softmax(relu(E · diag(e_dow) · Eᵀ))`.
    fn dynamic_adjacency(&self, g: &Graph, pv: &ParamVars, dow: usize) -> Result<Var> {
        let e = self.node_emb.full(pv); // [R, k]
        let edow = self.dow_emb.lookup(g, pv, &[dow])?; // [1, k]
        let scaled = g.mul(e, edow)?; // row-wise modulation
        let et = g.transpose2d(e)?;
        let s = g.matmul(scaled, et)?;
        let s = g.relu(s);
        g.softmax_lastdim(s)
    }
}

/// The DMSTGCN predictor.
pub type Dmstgcn = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "DMSTGCN";

    /// Build with 7 day-of-week slots.
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
            node_emb: Embedding::new(store, "dmst.node", r, 8, rng),
            dow_emb: Embedding::new(store, "dmst.dow", 7, 8, rng),
            input_proj: Linear::new(store, "dmst.in", c, h, true, rng),
            tconv: Conv1d::same(store, "dmst.t", h, h, 3, true, rng),
            gconv: Linear::new(store, "dmst.g", h, h, true, rng),
            head: Linear::new(store, "dmst.head", h, c, true, rng),
        })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let (_r, tw, _c) = (z.shape()[0], z.shape()[1], z.shape()[2]);
        // The window's last day determines the target's day-of-week phase;
        // absolute alignment is unknown from the window alone, so use the
        // window position modulo 7 (a consistent pseudo-phase).
        let dow = tw % 7;
        let x = self.input_proj.forward(g, pv, g.constant(z.clone()))?; // [R,Tw,h]
        let xt = g.permute(x, &[0, 2, 1])?; // [R,h,Tw]
        let t = g.relu(self.tconv.forward(g, pv, xt)?);
        let pooled = g.mean_axis(t, 2)?; // [R,h]
        let a = self.dynamic_adjacency(g, pv, dow)?;
        let mixed = g.matmul(a, pooled)?;
        let mixed = g.relu(self.gconv.forward(g, pv, mixed)?);
        let fused = g.add(mixed, pooled)?;
        self.head.forward(g, pv, fused)
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
    fn different_dow_gives_different_adjacency() {
        let data = data();
        let m = Dmstgcn::new(BaselineConfig::tiny(), &data).unwrap();
        let g = Graph::new();
        let pv = m.store.inject(&g);
        let a0 = m.net.dynamic_adjacency(&g, &pv, 0).unwrap();
        let a3 = m.net.dynamic_adjacency(&g, &pv, 3).unwrap();
        assert_ne!(g.value(a0).data(), g.value(a3).data());
    }

    #[test]
    fn forward_and_fit() {
        let data = data();
        let mut m = Dmstgcn::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
    }
}
