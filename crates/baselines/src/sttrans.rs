//! STtrans (Wu et al., WWW 2020): stacked spatial and temporal Transformer
//! encoder layers over locations and time for sparse crime forecasting.

use crate::common::{BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{scaled_dot_attention, LayerNorm, Linear};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor};

/// One Transformer encoder layer (single head) with pre-norm residuals.
struct EncoderLayer {
    q: Linear,
    k: Linear,
    v: Linear,
    ff1: Linear,
    ff2: Linear,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl EncoderLayer {
    fn new(store: &mut ParamStore, name: &str, h: usize, rng: &mut StdRng) -> Self {
        EncoderLayer {
            q: Linear::new(store, &format!("{name}.q"), h, h, false, rng),
            k: Linear::new(store, &format!("{name}.k"), h, h, false, rng),
            v: Linear::new(store, &format!("{name}.v"), h, h, false, rng),
            ff1: Linear::new(store, &format!("{name}.ff1"), h, 2 * h, true, rng),
            ff2: Linear::new(store, &format!("{name}.ff2"), 2 * h, h, true, rng),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), h),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), h),
        }
    }

    /// Self-attention over the rows of `x: [n, h]`.
    fn forward(&self, g: &Graph, pv: &ParamVars, x: Var) -> Result<Var> {
        let n = self.ln1.forward(g, pv, x)?;
        let q = self.q.forward(g, pv, n)?;
        let k = self.k.forward(g, pv, n)?;
        let v = self.v.forward(g, pv, n)?;
        let attn = scaled_dot_attention(g, q, k, v)?;
        let x = g.add(x, attn)?;
        let n2 = self.ln2.forward(g, pv, x)?;
        let ff = self.ff2.forward(g, pv, g.relu(self.ff1.forward(g, pv, n2)?))?;
        g.add(x, ff)
    }
}

/// The STtrans network.
pub struct Net {
    input_proj: Linear,
    spatial: Vec<EncoderLayer>,
    temporal: Vec<EncoderLayer>,
    head: Linear,
}

/// The STtrans predictor.
pub type StTrans = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "STtrans";

    /// Build two spatial and two temporal encoder layers.
    fn build(
        cfg: &BaselineConfig,
        data: &CrimeDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let c = data.num_categories();
        let h = cfg.hidden;
        Ok(Net {
            input_proj: Linear::new(store, "sttrans.in", c, h, true, rng),
            spatial: (0..2)
                .map(|i| EncoderLayer::new(store, &format!("sttrans.s{i}"), h, rng))
                .collect(),
            temporal: (0..2)
                .map(|i| EncoderLayer::new(store, &format!("sttrans.t{i}"), h, rng))
                .collect(),
            head: Linear::new(store, "sttrans.head", h, c, true, rng),
        })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let (r, tw, _c) = (z.shape()[0], z.shape()[1], z.shape()[2]);
        let x = self.input_proj.forward(g, pv, g.constant(z.clone()))?; // [R,Tw,h]
                                                                        // Temporal transformer per region, batched via a single [R·Tw, h]
                                                                        // reshuffle: attention must stay within each region's window, so run
                                                                        // the layer on the mean-free per-region slices. For tractability we
                                                                        // attend over time on the region-averaged sequence, and over space on
                                                                        // the time-averaged sequence — the two stacked views of STtrans.
        let time_seq = g.mean_axis(x, 0)?; // [Tw, h]
        let mut t = time_seq;
        for layer in &self.temporal {
            t = layer.forward(g, pv, t)?;
        }
        let t_summary = g.mean_axis(t, 0)?; // [h]
        let space_seq = g.mean_axis(x, 1)?; // [R, h]
        let mut s = space_seq;
        for layer in &self.spatial {
            s = layer.forward(g, pv, s)?;
        }
        // Broadcast the temporal summary onto every region.
        let h = g.shape_of(s)?[1];
        let t_row = g.reshape(t_summary, &[1, h])?;
        let fused = g.add(s, t_row)?; // [R, h]
        let _ = (r, tw);
        self.head.forward(g, pv, fused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
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
    fn encoder_layer_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = EncoderLayer::new(&mut store, "l", 6, &mut rng);
        let g = Graph::new();
        let pv = store.inject(&g);
        let x = g.constant(Tensor::rand_normal(&[5, 6], 0.0, 1.0, &mut rng));
        let y = layer.forward(&g, &pv, x).unwrap();
        assert_eq!(g.shape_of(y).unwrap(), vec![5, 6]);
    }

    #[test]
    fn forward_and_fit() {
        let data = data();
        let mut m = StTrans::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
    }
}
