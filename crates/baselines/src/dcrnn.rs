//! DCRNN (Li et al., ICLR 2018): diffusion convolution — bidirectional
//! random walks over the region graph — embedded in a GRU cell
//! (seq2seq reduced to a one-step decoder for the next-day task).

use crate::common::{BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{GraphConv, Linear};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_data::graph::RegionGraph;
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor};

/// A GRU cell whose gate transforms are diffusion convolutions.
struct DcGruCell {
    gate_z: GraphConv,
    gate_r: GraphConv,
    cand: GraphConv,
    hidden: usize,
}

impl DcGruCell {
    fn step(&self, g: &Graph, pv: &ParamVars, supports: &[Tensor], x: Var, h: Var) -> Result<Var> {
        let xh = g.concat(&[x, h], 1)?;
        let z = g.sigmoid(self.gate_z.forward(g, pv, supports, xh)?);
        let r = g.sigmoid(self.gate_r.forward(g, pv, supports, xh)?);
        let rh = g.mul(r, h)?;
        let xrh = g.concat(&[x, rh], 1)?;
        let cand = g.tanh(self.cand.forward(g, pv, supports, xrh)?);
        let diff = g.sub(cand, h)?;
        let upd = g.mul(z, diff)?;
        g.add(h, upd)
    }
}

/// The DCRNN network.
pub struct Net {
    cell: DcGruCell,
    head: Linear,
    supports: Vec<Tensor>,
    c: usize,
}

/// The DCRNN predictor.
pub type Dcrnn = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "DCRNN";

    /// Build with bidirectional 2-hop diffusion supports on the grid graph.
    fn build(
        cfg: &BaselineConfig,
        data: &CrimeDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let c = data.num_categories();
        let h = cfg.hidden;
        let graph = RegionGraph::eight_connected(data.rows, data.cols);
        let fwd = graph.random_walk()?;
        let bwd = graph.reverse_random_walk()?;
        let mut supports = graph.diffusion_supports(&fwd, 2)?;
        supports.extend(graph.diffusion_supports(&bwd, 2)?);
        let num_s = supports.len();
        let cell = DcGruCell {
            gate_z: GraphConv::new(store, "dcrnn.z", num_s, c + h, h, rng),
            gate_r: GraphConv::new(store, "dcrnn.r", num_s, c + h, h, rng),
            cand: GraphConv::new(store, "dcrnn.c", num_s, c + h, h, rng),
            hidden: h,
        };
        let head = Linear::new(store, "dcrnn.head", h, c, true, rng);
        Ok(Net { cell, head, supports, c })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let (r, tw, c) = (z.shape()[0], z.shape()[1], z.shape()[2]);
        debug_assert_eq!(c, self.c);
        let mut h = g.constant(Tensor::zeros(&[r, self.cell.hidden]));
        for t in 0..tw {
            let day = z.slice_axis(1, t, 1)?.reshape(&[r, c])?;
            let x = g.constant(day);
            h = self.cell.step(g, pv, &self.supports, x, h)?;
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
    fn forward_shape_and_finite() {
        let data = data();
        let m = Dcrnn::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
        assert!(p.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fit_runs_and_reports() {
        let data = data();
        let mut m = Dcrnn::new(BaselineConfig::tiny(), &data).unwrap();
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
        assert!(rep.seconds_per_epoch > 0.0);
    }

    #[test]
    fn uses_four_diffusion_supports() {
        let data = data();
        let m = Dcrnn::new(BaselineConfig::tiny(), &data).unwrap();
        assert_eq!(m.net.supports.len(), 4);
    }
}
