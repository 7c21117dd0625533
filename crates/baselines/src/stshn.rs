//! STSHN (Xia et al., IJCAI 2021): spatial message passing over *stationary*
//! hypergraph connections between regions — the hypergraph-based crime
//! predictor ST-HSL directly improves on. The incidence structure is learned
//! once but is not time-dependent and there is no self-supervision; the
//! contrast with ST-HSL isolates the paper's contributions.

use crate::common::{BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{Conv1d, Linear};
use sthsl_autograd::{Graph, ParamId, ParamStore, ParamVars, Var};
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor};

/// The STSHN network.
pub struct Net {
    input_proj: Linear,
    hyper: ParamId,
    path_proj: Vec<Linear>,
    tconv: Conv1d,
    head: Linear,
}

/// The STSHN predictor.
pub type Stshn = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "STSHN";

    /// Build with a static learnable hypergraph (paper setting: stationary
    /// construction, 2 spatial aggregation layers).
    fn build(
        cfg: &BaselineConfig,
        data: &CrimeDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let c = data.num_categories();
        let h = cfg.hidden;
        let r = data.num_regions();
        // Match ST-HSL's hyperedge budget for fair comparison, scaled down
        // with the hidden width in quick configs.
        let hyperedges = (cfg.hidden * 2).max(4);
        Ok(Net {
            input_proj: Linear::new(store, "stshn.in", c, h, true, rng),
            hyper: store
                .register("stshn.hyper", Tensor::rand_normal(&[hyperedges, r], 0.0, 0.05, rng)),
            path_proj: (0..2)
                .map(|i| Linear::new(store, &format!("stshn.path{i}"), h, h, false, rng))
                .collect(),
            tconv: Conv1d::same(store, "stshn.t", h, h, 3, true, rng),
            head: Linear::new(store, "stshn.head", h, c, true, rng),
        })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let (r, _tw, _c) = (z.shape()[0], z.shape()[1], z.shape()[2]);
        let x = self.input_proj.forward(g, pv, g.constant(z.clone()))?; // [R,Tw,h]
                                                                        // Temporal conv first: [R,Tw,h] → [R,h,Tw] → conv → pool.
        let xt = g.permute(x, &[0, 2, 1])?;
        let t = g.relu(self.tconv.forward(g, pv, xt)?);
        let mut h = g.mean_axis(t, 2)?; // [R, h]
                                        // Two spatial path-aggregation layers over the static hypergraph:
                                        // node → hyperedge → node with a projection per layer.
        let hy = pv.var(self.hyper); // [He, R]
        let hyt = g.transpose2d(hy)?;
        for proj in &self.path_proj {
            let hubs = g.leaky_relu(g.matmul(hy, h)?, 0.1); // [He, h]
            let back = g.leaky_relu(g.matmul(hyt, hubs)?, 0.1); // [R, h]
            let p = proj.forward(g, pv, back)?;
            h = g.add(h, p)?; // residual path aggregation
        }
        let _ = r;
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
    fn hypergraph_gives_global_receptive_field() {
        let data = data();
        let m = Stshn::new(BaselineConfig::tiny(), &data).unwrap();
        // Perturb region 0's window; a far region's prediction must change.
        let s = data.sample(30).unwrap();
        let base = m.predict(&data, &s.input).unwrap();
        let mut bumped = s.input.clone();
        for t in 0..7 {
            for c in 0..4 {
                *bumped.at_mut(&[0, t, c]) += 25.0;
            }
        }
        let alt = m.predict(&data, &bumped).unwrap();
        let far_changed = (0..4).any(|c| (base.at(&[15, c]) - alt.at(&[15, c])).abs() > 1e-7);
        assert!(far_changed, "static hypergraph failed to propagate globally");
    }

    #[test]
    fn forward_and_fit() {
        let data = data();
        let mut m = Stshn::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
    }
}
