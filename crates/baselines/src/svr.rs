//! Support-vector regression baseline: per-category linear ε-insensitive SVR
//! on lag features, trained with averaged subgradient descent (the SMO of
//! libsvm is replaced by SGD; the loss and regulariser are the same).

#![expect(
    clippy::disallowed_types,
    reason = "R5: reports wall-clock fit time for Table III; outside the kernel crates"
)]

use crate::common::BaselineConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;
use sthsl_data::predictor::sanitize_counts;
use sthsl_data::{CrimeDataset, FitReport, Predictor, Split};
use sthsl_tensor::{Result, Tensor, TensorError};

/// Linear SVR per category over lagged count features.
pub struct Svr {
    /// Number of lag-day features.
    pub lags: usize,
    /// ε-insensitive tube half-width.
    pub epsilon: f32,
    /// L2 regularisation strength.
    pub reg: f32,
    cfg: BaselineConfig,
    /// `[C][lags + 2]`: per-category weights (+ window-mean feature + bias).
    weights: Vec<Vec<f32>>,
}

impl Svr {
    /// SVR with 7 lags, ε = 0.1.
    pub fn new(cfg: BaselineConfig) -> Self {
        Svr { lags: 7, epsilon: 0.1, reg: 1e-4, cfg, weights: Vec::new() }
    }

    fn features(&self, series: &[f32]) -> Vec<f32> {
        let n = series.len();
        let mut f: Vec<f32> =
            (1..=self.lags).map(|l| if l <= n { series[n - l] } else { 0.0 }).collect();
        let mean = series.iter().sum::<f32>() / n.max(1) as f32;
        f.push(mean);
        f.push(1.0); // bias feature
        f
    }

    fn dot(w: &[f32], x: &[f32]) -> f32 {
        w.iter().zip(x).map(|(&a, &b)| a * b).sum()
    }
}

impl Predictor for Svr {
    fn name(&self) -> String {
        "SVM".into()
    }

    fn fit(&mut self, data: &CrimeDataset) -> Result<FitReport> {
        let start = Instant::now();
        let (r, t, c) = (data.num_regions(), data.num_days(), data.num_categories());
        let dim = self.lags + 2;
        self.weights = vec![vec![0.0f32; dim]; c];
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        // Training pairs: every (region, train-day) with `lags` of history.
        let mut days = data.target_days(Split::Train);
        let epochs = self.cfg.epochs.max(3);
        let mut last_obj = 0.0f64;
        for epoch in 0..epochs {
            days.shuffle(&mut rng);
            let lr = self.cfg.lr * 10.0 / (1.0 + epoch as f32);
            let mut obj = 0.0f64;
            let mut n = 0usize;
            for &day in days.iter().take(200) {
                for ri in 0..r {
                    let lo = day - self.lags.min(day);
                    let series: Vec<f32> = (lo..day)
                        .map(|ti| {
                            (0..c).map(|ci| data.tensor.data()[(ri * t + ti) * c + ci]).sum::<f32>()
                        })
                        .collect();
                    for ci in 0..c {
                        let series_c: Vec<f32> = (lo..day)
                            .map(|ti| data.tensor.data()[(ri * t + ti) * c + ci])
                            .collect();
                        let x = self.features(&series_c);
                        let y = data.tensor.data()[(ri * t + day) * c + ci];
                        let w = &mut self.weights[ci];
                        let pred = Self::dot(w, &x);
                        let err = pred - y;
                        obj += f64::from(err.abs().max(self.epsilon) - self.epsilon);
                        n += 1;
                        // ε-insensitive subgradient + L2.
                        let sg = if err > self.epsilon {
                            1.0
                        } else if err < -self.epsilon {
                            -1.0
                        } else {
                            0.0
                        };
                        for (wi, &xi) in w.iter_mut().zip(&x) {
                            *wi -= lr * (sg * xi + self.reg * *wi);
                        }
                    }
                    let _ = series;
                }
            }
            if n > 0 {
                last_obj = obj / n as f64;
            }
        }
        Ok(FitReport::new(epochs, last_obj, start.elapsed().as_secs_f64()))
    }

    fn predict(&self, _data: &CrimeDataset, window: &Tensor) -> Result<Tensor> {
        if self.weights.is_empty() {
            return Err(TensorError::Invalid("SVR: predict before fit".into()));
        }
        let (r, tw, c) = (window.shape()[0], window.shape()[1], window.shape()[2]);
        let mut out = vec![0.0f32; r * c];
        for ri in 0..r {
            for ci in 0..c {
                let series: Vec<f32> =
                    (0..tw).map(|ti| window.data()[(ri * tw + ti) * c + ci]).collect();
                let x = self.features(&series);
                out[ri * c + ci] = Self::dot(&self.weights[ci], &x);
            }
        }
        Ok(sanitize_counts(Tensor::from_vec(out, &[r, c])?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sthsl_data::{DatasetConfig, SynthCity, SynthConfig};

    fn data() -> CrimeDataset {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 120)).unwrap();
        CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 14, val_days: 7, train_fraction: 7.0 / 8.0 },
        )
        .unwrap()
    }

    #[test]
    fn feature_vector_layout() {
        let svr = Svr::new(BaselineConfig::tiny());
        let f = svr.features(&[1.0, 2.0, 3.0]);
        assert_eq!(f.len(), svr.lags + 2);
        assert_eq!(f[0], 3.0); // lag-1 is the most recent value
        assert_eq!(f[1], 2.0);
        assert_eq!(f[svr.lags], 2.0); // window mean
        assert_eq!(f[svr.lags + 1], 1.0); // bias
    }

    #[test]
    fn fit_predict_and_sane_metrics() {
        let data = data();
        let mut m = Svr::new(BaselineConfig::tiny());
        m.fit(&data).unwrap();
        let rep = m.evaluate(&data).unwrap();
        assert!(rep.mae_overall().is_finite());
        assert!(rep.mae_overall() < 20.0);
    }

    #[test]
    fn predict_before_fit_errors() {
        let data = data();
        let m = Svr::new(BaselineConfig::tiny());
        let s = data.sample(100).unwrap();
        assert!(m.predict(&data, &s.input).is_err());
    }
}
