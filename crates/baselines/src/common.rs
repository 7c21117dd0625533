//! Shared configuration and the one implementation every neural baseline
//! shares: [`Neural`], a [`Network`] trained by `sthsl-core`'s `TrainLoop`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_core::trainer::{self, Schedule, Trainable};
use sthsl_data::predictor::sanitize_counts;
use sthsl_data::{CrimeDataset, FitReport, Predictor, Split};
use sthsl_graphcheck::{AuditOptions, AuditReport};
use sthsl_tensor::{Result, Tensor, TensorError};

/// Hyperparameters shared by all neural baselines. Models take what they
/// need; classic baselines (ARIMA, SVR) reuse `epochs`/`seed` semantics where
/// sensible.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Hidden width of each model's main representation.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Samples per gradient step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Optional cap on batches per epoch.
    pub max_batches_per_epoch: Option<usize>,
    /// Weight decay.
    pub weight_decay: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            hidden: 16,
            epochs: 20,
            batch_size: 8,
            lr: 1e-3,
            max_batches_per_epoch: None,
            weight_decay: 1e-4,
            seed: 7,
        }
    }
}

impl BaselineConfig {
    /// Reduced setting for CPU-budget experiments.
    pub fn quick() -> Self {
        BaselineConfig {
            hidden: 8,
            epochs: 8,
            batch_size: 4,
            max_batches_per_epoch: Some(10),
            ..Self::default()
        }
    }

    /// Minimal setting for unit tests.
    pub fn tiny() -> Self {
        BaselineConfig {
            hidden: 4,
            epochs: 2,
            batch_size: 2,
            max_batches_per_epoch: Some(3),
            ..Self::default()
        }
    }
}

/// What distinguishes one neural baseline from another: its name, its
/// parameters and its forward pass.
pub trait Network: Sized {
    /// The model's Table III name.
    const NAME: &'static str;

    /// Register the network's parameters in `store`, drawing initial values
    /// from `rng`.
    fn build(
        cfg: &BaselineConfig,
        data: &CrimeDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Result<Self>;

    /// `forward(graph, params, zscored_window [R, Tw, C]) → predicted counts
    /// [R, C]`.
    fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var>;
}

/// A neural baseline: a [`Network`], its parameters and its config. It
/// trains through the same `TrainLoop` as ST-HSL, on the squared error of
/// its forecast, with Adam, the config's weight decay and a 5.0 gradient
/// clip.
pub struct Neural<N> {
    cfg: BaselineConfig,
    pub(crate) store: ParamStore,
    pub(crate) net: N,
}

impl<N: Network> Neural<N> {
    /// Build the network for a dataset's dimensions, with initial weights
    /// drawn from `cfg.seed`.
    pub fn new(cfg: BaselineConfig, data: &CrimeDataset) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let net = N::build(&cfg, data, &mut store, &mut rng)?;
        Ok(Neural { cfg, store, net })
    }
}

impl<N: Network> Predictor for Neural<N> {
    fn name(&self) -> String {
        N::NAME.into()
    }

    fn fit(&mut self, data: &CrimeDataset) -> Result<FitReport> {
        trainer::train(self, data)
    }

    fn predict(&self, data: &CrimeDataset, window: &Tensor) -> Result<Tensor> {
        let g = Graph::new();
        let pv = self.store.inject(&g);
        let z = data.zscore(window);
        let pred = self.net.forward(&g, &pv, &z)?;
        Ok(sanitize_counts(g.value(pred).as_ref().clone()))
    }
}

impl<N: Network> Trainable for Neural<N> {
    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn schedule(&self) -> Schedule {
        Schedule {
            epochs: self.cfg.epochs,
            batch_size: self.cfg.batch_size,
            max_batches_per_epoch: self.cfg.max_batches_per_epoch,
            lr: self.cfg.lr,
            weight_decay: self.cfg.weight_decay,
            seed: self.cfg.seed,
        }
    }

    fn loss(
        &self,
        g: &Graph,
        pv: &ParamVars,
        zscored: &Tensor,
        target: &Tensor,
        _corrupt: Option<&mut StdRng>,
    ) -> Result<Var> {
        let pred = self.net.forward(g, pv, zscored)?;
        let t = g.constant(target.clone());
        g.mse(pred, t)
    }

    /// Audits the graph of one training step on the first training day.
    fn graph_audit(&self, data: &CrimeDataset) -> Result<AuditReport> {
        let day = *data.target_days(Split::Train).first().ok_or_else(|| {
            TensorError::Invalid("graph audit: dataset has no training days".into())
        })?;
        let g = Graph::training(self.cfg.seed);
        let pv = self.store.inject(&g);
        let sample = data.sample(day)?;
        let z = data.zscore(&sample.input);
        let loss = self.loss(&g, &pv, &z, &sample.target, None)?;
        let params: Vec<(String, usize)> =
            self.store.named_vars(&pv).into_iter().map(|(n, v)| (n, v.index())).collect();
        let spec = g.export_tape();
        Ok(sthsl_graphcheck::audit(N::NAME, &spec, loss.index(), &params, &AuditOptions::default()))
    }
}

/// Split a z-scored window `[R, Tw, C]` into per-day constants `[R, C]`,
/// oldest first — the input format of the recurrent baselines.
pub fn window_days(g: &Graph, z: &Tensor) -> Result<Vec<Var>> {
    let (r, tw, c) = (z.shape()[0], z.shape()[1], z.shape()[2]);
    (0..tw)
        .map(|t| {
            let day = z.slice_axis(1, t, 1)?.reshape(&[r, c])?;
            Ok(g.constant(day))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sthsl_autograd::nn::Linear;
    use sthsl_data::{DatasetConfig, SynthCity, SynthConfig};

    fn data() -> CrimeDataset {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 80)).unwrap();
        CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 7, val_days: 5, train_fraction: 7.0 / 8.0 },
        )
        .unwrap()
    }

    /// A one-layer linear forecaster over the flattened window.
    struct LinearNet {
        lin: Linear,
        flat: usize,
    }

    impl Network for LinearNet {
        const NAME: &'static str = "Linear";

        fn build(
            _cfg: &BaselineConfig,
            data: &CrimeDataset,
            store: &mut ParamStore,
            rng: &mut StdRng,
        ) -> Result<Self> {
            let c = data.num_categories();
            let flat = data.config.window * c;
            Ok(LinearNet { lin: Linear::new(store, "lin", flat, c, true, rng), flat })
        }

        fn forward(&self, g: &Graph, pv: &ParamVars, z: &Tensor) -> Result<Var> {
            let r = z.shape()[0];
            let flat = g.constant(z.reshape(&[r, self.flat])?);
            self.lin.forward(g, pv, flat)
        }
    }

    #[test]
    fn trainer_reduces_loss_for_linear_model() {
        let data = data();
        let cfg = BaselineConfig { epochs: 6, ..BaselineConfig::tiny() };
        let mut model = Neural::<LinearNet>::new(cfg, &data).unwrap();
        let report = model.fit(&data).unwrap();
        assert!(report.final_loss.is_finite());
        assert!(report.seconds_per_epoch > 0.0);
        // Re-run one more epoch set: loss should not explode.
        let report2 = model.fit(&data).unwrap();
        assert!(report2.final_loss <= report.final_loss * 1.5);
    }

    #[test]
    fn window_days_slices_in_order() {
        let data = data();
        let s = data.sample(20).unwrap();
        let z = data.zscore(&s.input);
        let g = Graph::new();
        let days = window_days(&g, &z).unwrap();
        assert_eq!(days.len(), 7);
        assert_eq!(g.shape_of(days[0]).unwrap(), vec![16, 4]);
        // Day 0 of the vars equals slice 0 of the tensor.
        let expect = z.slice_axis(1, 0, 1).unwrap().reshape(&[16, 4]).unwrap();
        assert_eq!(g.value(days[0]).data(), expect.data());
    }
}
