//! MTGNN (Wu et al., KDD 2020): a uni-directional learned graph plus
//! mix-hop propagation and a dilated temporal inception module.

use crate::common::{BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{Conv1d, Embedding, Linear};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor};

/// The MTGNN network.
pub struct Net {
    m1: Embedding,
    m2: Embedding,
    input_proj: Linear,
    incept_k2: Conv1d,
    incept_k3: Conv1d,
    hop_proj: Vec<Linear>,
    head: Linear,
    beta: f32,
}

impl Net {
    /// Uni-directional graph construction:
    /// `A = softmax(relu(tanh(M1·M2ᵀ − M2·M1ᵀ)))`.
    fn learned_graph(&self, g: &Graph, pv: &ParamVars) -> Result<Var> {
        let m1 = self.m1.full(pv);
        let m2 = self.m2.full(pv);
        let a = g.matmul(m1, g.transpose2d(m2)?)?;
        let b = g.matmul(m2, g.transpose2d(m1)?)?;
        let diff = g.sub(a, b)?;
        let t = g.tanh(diff);
        let r = g.relu(t);
        g.softmax_lastdim(r)
    }

    /// Mix-hop propagation: `h^{k+1} = β·x + (1−β)·A·h^k`, concat all hops.
    fn mix_hop(&self, g: &Graph, a: Var, x: Var, pv: &ParamVars) -> Result<Var> {
        let mut h = x;
        let mut outs = Vec::with_capacity(self.hop_proj.len());
        for proj in &self.hop_proj {
            let propagated = g.matmul(a, h)?;
            let keep = g.scale(x, self.beta);
            let walk = g.scale(propagated, 1.0 - self.beta);
            h = g.add(keep, walk)?;
            outs.push(proj.forward(g, pv, h)?);
        }
        let mut acc = outs[0];
        for &o in &outs[1..] {
            acc = g.add(acc, o)?;
        }
        Ok(acc)
    }
}

/// The MTGNN predictor.
pub type Mtgnn = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "MTGNN";

    /// Build with 2 mix-hops and kernel-2/3 temporal inception.
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
            m1: Embedding::new(store, "mtgnn.m1", r, 8, rng),
            m2: Embedding::new(store, "mtgnn.m2", r, 8, rng),
            input_proj: Linear::new(store, "mtgnn.in", c, h, true, rng),
            incept_k2: Conv1d::causal(store, "mtgnn.k2", h, h, 2, 1, true, rng),
            incept_k3: Conv1d::same(store, "mtgnn.k3", h, h, 3, true, rng),
            hop_proj: (0..2)
                .map(|i| Linear::new(store, &format!("mtgnn.hop{i}"), h, h, false, rng))
                .collect(),
            head: Linear::new(store, "mtgnn.head", h, c, true, rng),
            beta: 0.05,
        })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let (r, _tw, _c) = (z.shape()[0], z.shape()[1], z.shape()[2]);
        // [R, Tw, C] → project → [R, Tw, h] → TCN layout [R, h, Tw].
        let x = self.input_proj.forward(g, pv, g.constant(z.clone()))?;
        let xt = g.permute(x, &[0, 2, 1])?;
        // Temporal inception: two kernel widths, summed.
        let t2 = g.relu(self.incept_k2.forward(g, pv, xt)?);
        let t3 = g.relu(self.incept_k3.forward(g, pv, xt)?);
        let t = g.add(t2, t3)?;
        let pooled = g.mean_axis(t, 2)?; // [R, h]
                                         // Graph module.
        let a = self.learned_graph(g, pv)?;
        let mixed = g.relu(self.mix_hop(g, a, pooled, pv)?);
        let fused = g.add(mixed, pooled)?;
        let _ = r;
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
    fn learned_graph_is_row_stochastic() {
        let data = data();
        let m = Mtgnn::new(BaselineConfig::tiny(), &data).unwrap();
        let g = Graph::new();
        let pv = m.store.inject(&g);
        let a = m.net.learned_graph(&g, &pv).unwrap();
        let av = g.value(a);
        for i in 0..16 {
            let s: f32 = (0..16).map(|j| av.at(&[i, j])).sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn forward_and_fit() {
        let data = data();
        let mut m = Mtgnn::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
    }
}
