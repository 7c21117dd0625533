//! ST-ResNet (Zhang et al., AAAI 2017): residual convolution blocks on the
//! region grid, with separate *closeness* (recent days) and *period* (same
//! weekday, previous weeks) input branches fused by learned weights.

use crate::common::{BaselineConfig, Network, Neural};
use rand::rngs::StdRng;
use sthsl_autograd::nn::Conv2d;
use sthsl_autograd::{Graph, ParamId, ParamStore, ParamVars, Var};
use sthsl_data::CrimeDataset;
use sthsl_tensor::{Result, Tensor};

/// The ST-ResNet network.
pub struct Net {
    close_in: Conv2d,
    period_in: Conv2d,
    res_blocks: Vec<(Conv2d, Conv2d)>,
    out: Conv2d,
    fuse_close: ParamId,
    fuse_period: ParamId,
    rows: usize,
    cols: usize,
    c: usize,
    closeness: usize,
    period_stride: usize,
    periods: usize,
}

impl Net {
    /// Stack the last `closeness` days (and `periods` same-weekday days) as
    /// conv channels: `[1, C·L, I, J]`.
    fn branch_input(&self, g: &Graph, z: &Tensor, offsets: &[usize]) -> Result<Var> {
        let (r, tw, c) = (z.shape()[0], z.shape()[1], z.shape()[2]);
        let mut channels = Vec::with_capacity(offsets.len());
        for &off in offsets {
            let t = tw - 1 - off;
            let day = z.slice_axis(1, t, 1)?.reshape(&[r, c])?;
            channels.push(day);
        }
        let refs: Vec<&Tensor> = channels.iter().collect();
        let stacked = Tensor::concat(&refs, 1)?; // [R, C·L]
        let img = stacked
            .reshape(&[self.rows, self.cols, c * offsets.len()])?
            .permute(&[2, 0, 1])?
            .reshape(&[1, c * offsets.len(), self.rows, self.cols])?;
        Ok(g.constant(img))
    }

    fn run_branch(&self, g: &Graph, pv: &ParamVars, input: Var, entry: &Conv2d) -> Result<Var> {
        let mut h = g.relu(entry.forward(g, pv, input)?);
        for (c1, c2) in &self.res_blocks {
            let y = g.relu(c1.forward(g, pv, h)?);
            let y = c2.forward(g, pv, y)?;
            let y = g.add(y, h)?; // residual
            h = g.relu(y);
        }
        Ok(h)
    }
}

/// The ST-ResNet predictor.
pub type StResNet = Neural<Net>;

impl Network for Net {
    const NAME: &'static str = "ST-ResNet";

    /// Build for a dataset's grid.
    fn build(
        cfg: &BaselineConfig,
        data: &CrimeDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let c = data.num_categories();
        let h = cfg.hidden.max(c);
        let closeness = 3usize;
        let periods = 2usize;
        let close_in = Conv2d::same(store, "resnet.close_in", c * closeness, h, 3, true, rng);
        // Period branch channel count depends on how many weekly offsets fit;
        // we fix `periods` channels and clamp offsets at forward time, so use
        // the worst case (periods) and pad-by-reuse when the window is short.
        let period_in = Conv2d::same(store, "resnet.period_in", c * periods, h, 3, true, rng);
        let res_blocks = (0..2)
            .map(|i| {
                (
                    Conv2d::same(store, &format!("resnet.res{i}a"), h, h, 3, true, rng),
                    Conv2d::same(store, &format!("resnet.res{i}b"), h, h, 3, true, rng),
                )
            })
            .collect();
        let out = Conv2d::same(store, "resnet.out", h, c, 3, true, rng);
        let fuse_close = store.register("resnet.fuse_close", Tensor::ones(&[1]));
        let fuse_period = store.register("resnet.fuse_period", Tensor::full(&[1], 0.5));
        Ok(Net {
            close_in,
            period_in,
            res_blocks,
            out,
            fuse_close,
            fuse_period,
            rows: data.rows,
            cols: data.cols,
            c,
            closeness,
            period_stride: 7,
            periods,
        })
    }

    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
        let tw = z.shape()[1];
        // Offsets clamp to the window so channel counts always match the
        // registered conv weights, even for short windows.
        let close_offsets: Vec<usize> = (0..self.closeness).map(|o| o.min(tw - 1)).collect();
        let period_offsets: Vec<usize> =
            (1..=self.periods).map(|k| (k * self.period_stride).min(tw - 1)).collect();

        let xc = self.branch_input(g, z, &close_offsets)?;
        let xp = self.branch_input(g, z, &period_offsets)?;
        let hc = self.run_branch(g, pv, xc, &self.close_in)?;
        let hp = self.run_branch(g, pv, xp, &self.period_in)?;
        // Parametric fusion (the paper's learned element weights).
        let fc = g.mul(hc, pv.var(self.fuse_close))?;
        let fp = g.mul(hp, pv.var(self.fuse_period))?;
        let fused = g.add(fc, fp)?;
        let out = self.out.forward(g, pv, fused)?; // [1, C, I, J]
        let flat = g.reshape(out, &[self.c, self.rows * self.cols])?;
        let pred = g.transpose2d(flat)?; // [R, C]
        Ok(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sthsl_data::{DatasetConfig, Predictor, SynthCity, SynthConfig};

    fn data() -> CrimeDataset {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 120)).unwrap();
        CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 15, val_days: 7, train_fraction: 7.0 / 8.0 },
        )
        .unwrap()
    }

    #[test]
    fn forward_shape() {
        let data = data();
        let m = StResNet::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
        assert!(p.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_improves_over_initialization() {
        let data = data();
        let mut m = StResNet::new(BaselineConfig::tiny(), &data).unwrap();
        let before = m.evaluate(&data).unwrap().mae_overall();
        m.fit(&data).unwrap();
        let after = m.evaluate(&data).unwrap().mae_overall();
        assert!(after <= before * 1.05, "training hurt badly: {before} → {after}");
    }

    #[test]
    fn period_branch_handles_short_windows() {
        // Window shorter than one weekly period: offsets clamp, no panic.
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 100)).unwrap();
        let data = CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 5, val_days: 5, train_fraction: 7.0 / 8.0 },
        )
        .unwrap();
        let m = StResNet::new(BaselineConfig::tiny(), &data).unwrap();
        let s = data.sample(30).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
    }
}
