//! ST-MetaNet (Pan et al., KDD 2019): a meta-learner generates
//! region-specific transformation parameters from region meta-embeddings
//! (FiLM-style scale and shift applied around a shared GRU), so each region
//! gets its own effective weights without a per-region parameter explosion.

use crate::common::{window_days, BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{Embedding, GruCell, Linear};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor};

/// The ST-MetaNet network.
pub struct Net {
    meta_emb: Embedding,
    meta_scale: Linear,
    meta_shift: Linear,
    input_proj: Linear,
    cell: GruCell,
    head: Linear,
}

/// The ST-MetaNet predictor.
pub type StMetaNet = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "ST-MetaNet";

    /// Build with 8-dim region meta-embeddings.
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
            meta_emb: Embedding::new(store, "meta.emb", r, 8, rng),
            meta_scale: Linear::new(store, "meta.scale", 8, h, true, rng),
            meta_shift: Linear::new(store, "meta.shift", 8, h, true, rng),
            input_proj: Linear::new(store, "meta.in", c, h, true, rng),
            cell: GruCell::new(store, "meta.gru", h, h, rng),
            head: Linear::new(store, "meta.head", h, c, true, rng),
        })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let r = z.shape()[0];
        // Meta-knowledge: per-region scale (centred at 1) and shift.
        let e = self.meta_emb.full(pv);
        let scale_raw = self.meta_scale.forward(g, pv, e)?;
        let scale = g.add_scalar(g.tanh(scale_raw), 1.0); // in (0, 2)
        let shift = self.meta_shift.forward(g, pv, e)?;
        let days = window_days(g, z)?;
        let mut h = g.constant(Tensor::zeros(&[r, self.cell.hidden_size()]));
        for x in days {
            let xin = self.input_proj.forward(g, pv, x)?;
            let xin = g.mul(xin, scale)?;
            let xin = g.add(xin, shift)?;
            h = self.cell.step(g, pv, xin, h)?;
        }
        // Meta-modulated readout as well.
        let hm = g.mul(h, scale)?;
        self.head.forward(g, pv, hm)
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
    fn regions_get_distinct_effective_params() {
        // Two regions fed identical inputs must produce different outputs
        // because their meta-embeddings differ.
        let data = data();
        let m = StMetaNet::new(BaselineConfig::tiny(), &data).unwrap();
        let uniform = Tensor::ones(&[16, 7, 4]);
        let p = m.predict(&data, &uniform).unwrap();
        let row0: Vec<f32> = (0..4).map(|c| p.at(&[0, c])).collect();
        let row7: Vec<f32> = (0..4).map(|c| p.at(&[7, c])).collect();
        assert_ne!(row0, row7, "meta-learning produced identical region params");
    }

    #[test]
    fn forward_and_fit() {
        let data = data();
        let mut m = StMetaNet::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
    }
}
