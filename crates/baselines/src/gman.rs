//! GMAN (Zheng et al., AAAI 2020): spatial attention across regions plus
//! temporal attention across the window, combined by a gated fusion.
//! The transform-attention decoder is unnecessary for a one-step horizon.

use crate::common::{BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{scaled_dot_attention, Linear};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor};

/// The GMAN network.
pub struct Net {
    input_proj: Linear,
    tq: Linear,
    tk: Linear,
    tv: Linear,
    sq: Linear,
    sk: Linear,
    sv: Linear,
    gate: Linear,
    head: Linear,
    hidden: usize,
}

/// The GMAN predictor.
pub type Gman = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "GMAN";

    /// Build the attention stacks.
    fn build(
        cfg: &BaselineConfig,
        data: &CrimeDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let c = data.num_categories();
        let h = cfg.hidden;
        Ok(Net {
            input_proj: Linear::new(store, "gman.in", c, h, true, rng),
            tq: Linear::new(store, "gman.tq", h, h, false, rng),
            tk: Linear::new(store, "gman.tk", h, h, false, rng),
            tv: Linear::new(store, "gman.tv", h, h, false, rng),
            sq: Linear::new(store, "gman.sq", h, h, false, rng),
            sk: Linear::new(store, "gman.sk", h, h, false, rng),
            sv: Linear::new(store, "gman.sv", h, h, false, rng),
            gate: Linear::new(store, "gman.gate", 2 * h, h, true, rng),
            head: Linear::new(store, "gman.head", h, c, true, rng),
            hidden: h,
        })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let (r, _tw, _c) = (z.shape()[0], z.shape()[1], z.shape()[2]);
        let h = self.hidden;
        // Embed: [R, Tw, C] → [R, Tw, h].
        let x = self.input_proj.forward(g, pv, g.constant(z.clone()))?;

        // --- Temporal attention (batched over regions) -------------------
        let q = self.tq.forward(g, pv, x)?; // [R, Tw, h]
        let k = self.tk.forward(g, pv, x)?;
        let v = self.tv.forward(g, pv, x)?;
        let kt = g.permute(k, &[0, 2, 1])?; // [R, h, Tw]
        let scores = g.batched_matmul(q, kt)?; // [R, Tw, Tw]
        let scores = g.scale(scores, 1.0 / (h as f32).sqrt());
        let attn = g.softmax_lastdim(scores)?;
        let t_ctx = g.batched_matmul(attn, v)?; // [R, Tw, h]
        let t_pooled = g.mean_axis(t_ctx, 1)?; // [R, h]

        // --- Spatial attention (on time-pooled features) -----------------
        let pooled = g.mean_axis(x, 1)?; // [R, h]
        let sq = self.sq.forward(g, pv, pooled)?;
        let sk = self.sk.forward(g, pv, pooled)?;
        let sv = self.sv.forward(g, pv, pooled)?;
        let s_ctx = scaled_dot_attention(g, sq, sk, sv)?; // [R, h]

        // --- Gated fusion -------------------------------------------------
        let both = g.concat(&[t_pooled, s_ctx], 1)?; // [R, 2h]
        let gate = g.sigmoid(self.gate.forward(g, pv, both)?); // [R, h]
        let one = g.constant(Tensor::ones(&[r, h]));
        let inv = g.sub(one, gate)?;
        let a = g.mul(gate, t_pooled)?;
        let b = g.mul(inv, s_ctx)?;
        let fused = g.add(a, b)?;
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
    fn forward_shape() {
        let data = data();
        let m = Gman::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
        assert!(p.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fit_runs() {
        let data = data();
        let mut m = Gman::new(BaselineConfig::tiny(), &data).unwrap();
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
    }
}
