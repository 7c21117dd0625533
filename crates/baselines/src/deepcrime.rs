//! DeepCrime (Huang et al., CIKM 2018): category-aware temporal encoding
//! with a GRU and hierarchical attention over the hidden states — the
//! representative deep crime-prediction baseline.

use crate::common::{window_days, BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{Embedding, GruCell, Linear};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor, TensorError};

/// The DeepCrime network.
pub struct Net {
    cat_emb: Embedding,
    input_proj: Linear,
    cell: GruCell,
    attn: Linear,
    head: Linear,
    c: usize,
}

/// The DeepCrime predictor.
pub type DeepCrime = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "DeepCrime";

    /// Build the recurrent attentive network.
    fn build(
        cfg: &BaselineConfig,
        data: &CrimeDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let c = data.num_categories();
        let h = cfg.hidden;
        Ok(Net {
            cat_emb: Embedding::new(store, "deepcrime.cat", c, 8, rng),
            input_proj: Linear::new(store, "deepcrime.in", 8, h, true, rng),
            cell: GruCell::new(store, "deepcrime.gru", h, h, rng),
            attn: Linear::new(store, "deepcrime.attn", h, 1, true, rng),
            head: Linear::new(store, "deepcrime.head", h, c, true, rng),
            c,
        })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let r = z.shape()[0];
        // Category-aware input: counts weighted through a learned category
        // projection (the paper's crime-category embeddings).
        let cat = self.cat_emb.full(pv); // [C, e]
        let days = window_days(g, z)?;
        let mut h = g.constant(Tensor::zeros(&[r, self.cell.hidden_size()]));
        let mut states = Vec::with_capacity(days.len());
        for x in days {
            // [R, C] · [C, e] → [R, e], then project into the GRU width.
            let xe = g.matmul(x, cat)?;
            let xin = self.input_proj.forward(g, pv, xe)?;
            h = self.cell.step(g, pv, xin, h)?;
            states.push(h);
        }
        // Temporal attention over hidden states (Bahdanau-flavoured scores).
        let mut scores = Vec::with_capacity(states.len());
        for &s in &states {
            let e = g.tanh(self.attn.forward(g, pv, s)?); // [R, 1]
            scores.push(e);
        }
        let cat_scores = g.concat(&scores, 1)?; // [R, T]
        let w = g.softmax_lastdim(cat_scores)?;
        let mut ctx: Option<Var> = None;
        for (i, &s) in states.iter().enumerate() {
            let wi = g.slice_axis(w, 1, i, 1)?;
            let ws = g.mul(s, wi)?;
            ctx = Some(match ctx {
                Some(acc) => g.add(acc, ws)?,
                None => ws,
            });
        }
        let Some(ctx) = ctx else {
            return Err(TensorError::Invalid("deepcrime: empty attention window".into()));
        };
        let _ = self.c;
        self.head.forward(g, pv, ctx)
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
        let m = DeepCrime::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
    }

    #[test]
    fn attention_weights_normalise() {
        // Indirect check: feeding a constant window produces finite output
        // (softmax over identical scores = uniform attention).
        let data = data();
        let m = DeepCrime::new(BaselineConfig::tiny(), &data).unwrap();
        let p = m.predict(&data, &Tensor::ones(&[16, 7, 4])).unwrap();
        assert!(p.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fit_runs() {
        let data = data();
        let mut m = DeepCrime::new(BaselineConfig::tiny(), &data).unwrap();
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
    }
}
