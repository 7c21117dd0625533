//! Graph WaveNet (Wu et al., IJCAI 2019): an adaptive adjacency matrix
//! learned from node embeddings, combined with gated dilated causal temporal
//! convolutions and skip connections.

use crate::common::{BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{Conv1d, Embedding, Linear};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor, TensorError};

struct TcnLayer {
    filter: Conv1d,
    gate: Conv1d,
    skip: Linear,
}

/// The GWN network.
pub struct Net {
    input_proj: Linear,
    e1: Embedding,
    e2: Embedding,
    layers: Vec<TcnLayer>,
    gconv: Linear,
    head: Linear,
    hidden: usize,
}

impl Net {
    /// Adaptive adjacency: `softmax(relu(E1·E2ᵀ))` (row-wise).
    fn adaptive_adjacency(&self, g: &Graph, pv: &ParamVars) -> Result<Var> {
        let e1 = self.e1.full(pv);
        let e2 = self.e2.full(pv);
        let e2t = g.transpose2d(e2)?;
        let scores = g.matmul(e1, e2t)?;
        let scores = g.relu(scores);
        g.softmax_lastdim(scores)
    }
}

/// The Graph WaveNet predictor.
pub type GraphWaveNet = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "GWN";

    /// Build with 3 dilated TCN layers (dilations 1, 2, 4) and 10-dim node
    /// embeddings for the adaptive adjacency.
    fn build(
        cfg: &BaselineConfig,
        data: &CrimeDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let c = data.num_categories();
        let h = cfg.hidden;
        let r = data.num_regions();
        let input_proj = Linear::new(store, "gwn.in", c, h, true, rng);
        let e1 = Embedding::new(store, "gwn.e1", r, 10, rng);
        let e2 = Embedding::new(store, "gwn.e2", r, 10, rng);
        let layers = (0..3)
            .map(|i| {
                let dil = 1usize << i;
                TcnLayer {
                    filter: Conv1d::causal(store, &format!("gwn.{i}.f"), h, h, 2, dil, true, rng),
                    gate: Conv1d::causal(store, &format!("gwn.{i}.g"), h, h, 2, dil, true, rng),
                    skip: Linear::new(store, &format!("gwn.{i}.s"), h, h, true, rng),
                }
            })
            .collect();
        let gconv = Linear::new(store, "gwn.gc", h, h, true, rng);
        let head = Linear::new(store, "gwn.head", h, c, true, rng);
        Ok(Net { input_proj, e1, e2, layers, gconv, head, hidden: h })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let (r, tw) = (z.shape()[0], z.shape()[1]);
        // Project categories to hidden width: [R, Tw, C] → [R, Tw, h].
        let x = g.constant(z.clone());
        let x = self.input_proj.forward(g, pv, x)?;
        // To TCN layout [R, h, Tw].
        let mut h = g.permute(x, &[0, 2, 1])?;
        let mut skip_sum: Option<Var> = None;
        // Dilations 1, 2, 4, … are baked into each layer's causal padding.
        for (i, layer) in self.layers.iter().enumerate() {
            let f = g.tanh(layer.filter.forward(g, pv, h)?);
            let gate = g.sigmoid(layer.gate.forward(g, pv, h)?);
            let gated = g.mul(f, gate)?;
            // Skip connection from the last time step of this layer.
            let last = g.slice_axis(gated, 2, tw - 1, 1)?;
            let last = g.reshape(last, &[r, self.hidden])?;
            let sk = layer.skip.forward(g, pv, last)?;
            skip_sum = Some(match skip_sum {
                Some(s) => g.add(s, sk)?,
                None => sk,
            });
            // Residual into the next layer; the last layer feeds only its
            // skip connection.
            if i + 1 < self.layers.len() {
                h = g.add(gated, h)?;
            }
        }
        let Some(skip) = skip_sum else {
            return Err(TensorError::Invalid("gwn: no TCN layers configured".into()));
        };
        // Adaptive graph convolution on the skip summary.
        let a = self.adaptive_adjacency(g, pv)?;
        let mixed = g.matmul(a, skip)?;
        let mixed = g.relu(self.gconv.forward(g, pv, mixed)?);
        let fused = g.add(mixed, skip)?;
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
            DatasetConfig { window: 8, val_days: 5, train_fraction: 7.0 / 8.0 },
        )
        .unwrap()
    }

    #[test]
    fn adaptive_adjacency_rows_are_distributions() {
        let data = data();
        let m = GraphWaveNet::new(BaselineConfig::tiny(), &data).unwrap();
        let g = Graph::new();
        let pv = m.store.inject(&g);
        let a = m.net.adaptive_adjacency(&g, &pv).unwrap();
        let av = g.value(a);
        assert_eq!(av.shape(), &[16, 16]);
        for i in 0..16 {
            let s: f32 = (0..16).map(|j| av.at(&[i, j])).sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn forward_shape() {
        let data = data();
        let m = GraphWaveNet::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
    }

    #[test]
    fn fit_runs() {
        let data = data();
        let mut m = GraphWaveNet::new(BaselineConfig::tiny(), &data).unwrap();
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
    }

    /// Pins the bits of a trained, fixed-seed GWN forecast: the training
    /// step and the forward pass both run through every TCN layer, the skip
    /// sum, the adaptive graph convolution and the head.
    #[test]
    fn trained_forecast_bits_are_pinned() {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0100_0000_01b3;
        let data = data();
        let mut m = GraphWaveNet::new(BaselineConfig::tiny(), &data).unwrap();
        m.fit(&data).unwrap();
        let mut hash = FNV_OFFSET;
        for day in [30, 40, 50] {
            let pred = m.predict(&data, &data.sample(day).unwrap().input).unwrap();
            for v in pred.data() {
                for byte in v.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
                }
            }
        }
        assert_eq!(hash, 0x427e_a28b_4b14_b29e, "GWN forecast bits drifted: {hash:#018x}");
    }
}
