//! STDN (Yao et al., AAAI 2019): local convolution over the grid with a
//! flow-gating mechanism, and periodically *shifted* attention over the
//! window's weekly positions feeding a recurrent summary.

use crate::common::{BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{Conv2d, GruCell, Linear};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor, TensorError};

/// The STDN network.
pub struct Net {
    local_conv: Conv2d,
    flow_gate: Conv2d,
    cell: GruCell,
    attn_q: Linear,
    attn_k: Linear,
    head: Linear,
    rows: usize,
    cols: usize,
    c: usize,
    hidden: usize,
}

impl Net {
    /// Flow-gated local convolution of one day: `conv(x) ⊙ σ(gate(x))`,
    /// producing `[R, hidden]`.
    fn local_features(&self, g: &Graph, pv: &ParamVars, day: &Tensor) -> Result<Var> {
        let r = day.shape()[0];
        let img = day
            .reshape(&[self.rows, self.cols, self.c])?
            .permute(&[2, 0, 1])?
            .reshape(&[1, self.c, self.rows, self.cols])?;
        let x = g.constant(img);
        let f = self.local_conv.forward(g, pv, x)?;
        let gate = g.sigmoid(self.flow_gate.forward(g, pv, x)?);
        let gated = g.mul(f, gate)?; // [1, hidden, I, J]
        let flat = g.reshape(gated, &[self.hidden, r])?;
        g.transpose2d(flat)
    }
}

/// The STDN predictor.
pub type Stdn = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "STDN";

    /// Build the flow-gated conv + shifted attention stack.
    fn build(
        cfg: &BaselineConfig,
        data: &CrimeDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let c = data.num_categories();
        let h = cfg.hidden;
        Ok(Net {
            local_conv: Conv2d::same(store, "stdn.conv", c, h, 3, true, rng),
            flow_gate: Conv2d::same(store, "stdn.gate", c, h, 3, true, rng),
            cell: GruCell::new(store, "stdn.gru", h, h, rng),
            attn_q: Linear::new(store, "stdn.q", h, h, false, rng),
            attn_k: Linear::new(store, "stdn.k", h, h, false, rng),
            head: Linear::new(store, "stdn.head", h, c, true, rng),
            rows: data.rows,
            cols: data.cols,
            c,
            hidden: h,
        })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let (r, tw, _c) = (z.shape()[0], z.shape()[1], z.shape()[2]);
        // Recent days through the gated local conv + GRU.
        let recent = tw.min(7);
        let mut h = g.constant(Tensor::zeros(&[r, self.hidden]));
        let mut states = Vec::with_capacity(recent);
        for t in tw - recent..tw {
            let day = z.slice_axis(1, t, 1)?.reshape(&[r, self.c])?;
            let x = self.local_features(g, pv, &day)?;
            h = self.cell.step(g, pv, x, h)?;
            states.push(h);
        }
        // Periodically shifted attention: the final state attends over the
        // stored states (shifted weekly positions collapse to the window for
        // a one-step horizon).
        let q = self.attn_q.forward(g, pv, h)?; // [R, hidden]
        let mut weighted: Option<Var> = None;
        let mut weights = Vec::with_capacity(states.len());
        for &s in &states {
            let k = self.attn_k.forward(g, pv, s)?;
            let prod = g.mul(q, k)?;
            let score = g.sum_axis_keepdim(prod, 1)?; // [R, 1]
            weights.push(score);
        }
        // Softmax over states per region.
        let cat = g.concat(&weights, 1)?; // [R, S]
        let sm = g.softmax_lastdim(cat)?;
        for (i, &s) in states.iter().enumerate() {
            let w = g.slice_axis(sm, 1, i, 1)?; // [R, 1]
            let ws = g.mul(s, w)?;
            weighted = Some(match weighted {
                Some(acc) => g.add(acc, ws)?,
                None => ws,
            });
        }
        let Some(ctx) = weighted else {
            return Err(TensorError::Invalid("stdn: empty attention window".into()));
        };
        let fused = g.add(ctx, h)?;
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
        let m = Stdn::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
        assert!(p.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fit_runs() {
        let data = data();
        let mut m = Stdn::new(BaselineConfig::tiny(), &data).unwrap();
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
    }
}
