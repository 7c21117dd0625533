//! Shared configuration and the neural-baseline training harness.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;
use sthsl_autograd::optim::{Adam, Optimizer};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
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

/// Generic mini-batch MSE trainer for neural baselines.
///
/// `forward(graph, params, zscored_window) → predicted counts [R, C]`.
/// Handles batching, shuffling, Adam with weight decay, gradient clipping and
/// NaN bail-out — so each baseline implements only its forward pass.
pub fn train_nn<F>(
    cfg: &BaselineConfig,
    store: &mut ParamStore,
    data: &CrimeDataset,
    forward: F,
) -> Result<FitReport>
where
    F: Fn(&Graph, &ParamVars, &Tensor) -> Result<Var>,
{
    let mut opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
    opt.max_grad_norm = Some(5.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0xA24B_AED4));
    let mut days = data.target_days(Split::Train);
    if days.is_empty() {
        return Err(TensorError::Invalid("train_nn: no training days".into()));
    }
    let start = Instant::now();
    let mut final_loss = f64::NAN;
    let mut step = 0u64;
    for _epoch in 0..cfg.epochs {
        days.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in days.chunks(cfg.batch_size.max(1)) {
            if let Some(max) = cfg.max_batches_per_epoch {
                if batches >= max {
                    break;
                }
            }
            step += 1;
            let g = Graph::training(cfg.seed ^ step);
            let pv = store.inject(&g);
            let mut loss = g.constant(Tensor::scalar(0.0));
            for &day in chunk {
                let sample = data.sample(day)?;
                let z = data.zscore(&sample.input);
                let pred = forward(&g, &pv, &z)?;
                let t = g.constant(sample.target.clone());
                let l = g.mse(pred, t)?;
                loss = g.add(loss, l)?;
            }
            let loss = g.scale(loss, 1.0 / chunk.len() as f32);
            let lv = g.value(loss).item()?;
            if !lv.is_finite() {
                return Ok(FitReport::new(1, final_loss, start.elapsed().as_secs_f64()));
            }
            epoch_loss += f64::from(lv);
            batches += 1;
            let grads = g.backward(loss)?;
            opt.step(store, &pv, &grads)?;
        }
        if batches > 0 {
            final_loss = epoch_loss / batches as f64;
        }
    }
    Ok(FitReport::new(cfg.epochs, final_loss, start.elapsed().as_secs_f64()))
}

/// Everything the static graph analyzer needs from one model: the recorded
/// (unexecuted) training graph, the loss node backward would start from, and
/// every named parameter.
pub struct AuditArtifacts {
    /// The tape-recorded training graph.
    pub graph: Graph,
    /// Loss `Var` backward would start from.
    pub loss: Var,
    /// `(name, var)` for every registered parameter.
    pub params: Vec<(String, Var)>,
}

/// Neural models whose training graph can be statically certified before any
/// optimizer step. Classic baselines (ARIMA, SVR, HA) build no graph and are
/// out of scope.
pub trait GraphAudited: Predictor {
    /// Record one training step's graph on the first training day.
    fn audit_artifacts(&self, data: &CrimeDataset) -> Result<AuditArtifacts>;

    /// Run the full static audit (shape, grad-flow, value ranges, float
    /// error, determinism, cost) over the recorded graph.
    fn graph_audit(&self, data: &CrimeDataset) -> Result<AuditReport> {
        let art = self.audit_artifacts(data)?;
        let spec = art.graph.export_tape();
        let params: Vec<(String, usize)> =
            art.params.iter().map(|(n, v)| (n.clone(), v.index())).collect();
        Ok(sthsl_graphcheck::audit(
            &self.name(),
            &spec,
            art.loss.index(),
            &params,
            &AuditOptions::default(),
        ))
    }
}

/// The shared audit-artifact recorder for MSE-trained baselines: exactly the
/// graph [`train_nn`] builds for a single-day batch.
pub fn mse_audit<F>(
    store: &ParamStore,
    seed: u64,
    data: &CrimeDataset,
    forward: F,
) -> Result<AuditArtifacts>
where
    F: Fn(&Graph, &ParamVars, &Tensor) -> Result<Var>,
{
    let day = *data
        .target_days(Split::Train)
        .first()
        .ok_or_else(|| TensorError::Invalid("graph audit: dataset has no training days".into()))?;
    let g = Graph::training(seed);
    let pv = store.inject(&g);
    let sample = data.sample(day)?;
    let z = data.zscore(&sample.input);
    let pred = forward(&g, &pv, &z)?;
    let t = g.constant(sample.target.clone());
    let loss = g.mse(pred, t)?;
    let params = store.named_vars(&pv);
    Ok(AuditArtifacts { graph: g, loss, params })
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
    use rand::{rngs::StdRng, SeedableRng};
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

    #[test]
    fn trainer_reduces_loss_for_linear_model() {
        let data = data();
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let c = data.num_categories();
        let w = data.config.window;
        let lin = Linear::new(&mut store, "lin", w * c, c, true, &mut rng);
        let forward = |g: &Graph, pv: &ParamVars, z: &Tensor| {
            let r = z.shape()[0];
            let flat = g.constant(z.reshape(&[r, w * c])?);
            lin.forward(g, pv, flat)
        };
        let cfg = BaselineConfig { epochs: 6, ..BaselineConfig::tiny() };
        let report = train_nn(&cfg, &mut store, &data, forward).unwrap();
        assert!(report.final_loss.is_finite());
        assert!(report.seconds_per_epoch > 0.0);
        // Re-run one more epoch set: loss should not explode.
        let report2 = train_nn(&cfg, &mut store, &data, forward).unwrap();
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
