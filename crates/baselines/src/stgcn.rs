//! STGCN (Yu et al., IJCAI 2018): "sandwich" spatial-temporal blocks —
//! gated temporal convolution (GLU), Chebyshev-style graph convolution,
//! gated temporal convolution again — followed by an output layer.

use crate::common::{BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::{Conv1d, GraphConv, Linear};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_data::graph::RegionGraph;
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor};

/// Gated temporal conv: `GLU(conv(x)) = a ⊙ σ(b)` with channel split.
struct GatedTemporalConv {
    conv: Conv1d,
    out_ch: usize,
}

impl GatedTemporalConv {
    fn new(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        k: usize,
        rng: &mut StdRng,
    ) -> Self {
        GatedTemporalConv {
            conv: Conv1d::same(store, name, in_ch, 2 * out_ch, k, true, rng),
            out_ch,
        }
    }

    /// `x: [B, in_ch, L] → [B, out_ch, L]`.
    fn forward(&self, g: &Graph, pv: &ParamVars, x: Var) -> Result<Var> {
        let y = self.conv.forward(g, pv, x)?;
        let a = g.slice_axis(y, 1, 0, self.out_ch)?;
        let b = g.slice_axis(y, 1, self.out_ch, self.out_ch)?;
        let gate = g.sigmoid(b);
        g.mul(a, gate)
    }
}

struct StBlock {
    t1: GatedTemporalConv,
    spatial: GraphConv,
    t2: GatedTemporalConv,
}

/// The STGCN network.
pub struct Net {
    blocks: Vec<StBlock>,
    head: Linear,
    /// Chebyshev polynomial supports T_0..T_{K-1} of the scaled Laplacian.
    supports: Vec<Tensor>,
    hidden: usize,
}

/// The STGCN predictor.
pub type Stgcn = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "STGCN";

    /// Build with two ST-Conv blocks on the normalised grid adjacency.
    fn build(
        cfg: &BaselineConfig,
        data: &CrimeDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let c = data.num_categories();
        let h = cfg.hidden;
        // Kernel size 3 in the spectral sense: Chebyshev order K = 3, the
        // paper's STGCN setting.
        let supports = RegionGraph::eight_connected(data.rows, data.cols).chebyshev_supports(3)?;
        let mut blocks = Vec::new();
        let mut in_ch = c;
        for i in 0..2 {
            blocks.push(StBlock {
                t1: GatedTemporalConv::new(store, &format!("stgcn.{i}.t1"), in_ch, h, 3, rng),
                spatial: GraphConv::new(store, &format!("stgcn.{i}.sp"), 3, h, h, rng),
                t2: GatedTemporalConv::new(store, &format!("stgcn.{i}.t2"), h, h, 3, rng),
            });
            in_ch = h;
        }
        let head = Linear::new(store, "stgcn.head", h, c, true, rng);
        Ok(Net { blocks, head, supports, hidden: h })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let (r, tw, c) = (z.shape()[0], z.shape()[1], z.shape()[2]);
        // [R, Tw, C] → [R, C, Tw]: regions as batch, categories as channels.
        let mut h = g.constant(z.permute(&[0, 2, 1])?);
        let mut ch = c;
        for block in &self.blocks {
            // Temporal gate 1: [R, ch, Tw] → [R, hidden, Tw].
            let t1 = block.t1.forward(g, pv, h)?;
            // Chebyshev graph convolution per time step over the region axis.
            let mut per_t = Vec::with_capacity(tw);
            for t in 0..tw {
                let xt = g.slice_axis(t1, 2, t, 1)?;
                let xt = g.reshape(xt, &[r, self.hidden])?;
                let yt = block.spatial.forward(g, pv, &self.supports, xt)?;
                per_t.push(g.relu(yt));
            }
            let stacked = g.stack(&per_t)?; // [Tw, R, hidden]
                                            // Back to [R, hidden, Tw].
            let back = g.permute(stacked, &[1, 2, 0])?;
            // Temporal gate 2.
            h = block.t2.forward(g, pv, back)?;
            ch = self.hidden;
        }
        let _ = ch;
        // Pool time, project to categories.
        let pooled = g.mean_axis(h, 2)?; // [R, hidden]
        self.head.forward(g, pv, pooled)
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
    fn forward_shape() {
        let data = data();
        let m = Stgcn::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
    }

    #[test]
    fn glu_gate_bounds_activation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let gtc = GatedTemporalConv::new(&mut store, "g", 2, 3, 3, &mut rng);
        let g = Graph::new();
        let pv = store.inject(&g);
        let x = g.constant(Tensor::ones(&[1, 2, 5]));
        let y = gtc.forward(&g, &pv, x).unwrap();
        assert_eq!(g.shape_of(y).unwrap(), vec![1, 3, 5]);
    }

    #[test]
    fn fit_runs() {
        let data = data();
        let mut m = Stgcn::new(BaselineConfig::tiny(), &data).unwrap();
        let rep = m.fit(&data).unwrap();
        assert!(rep.final_loss.is_finite());
    }
}
