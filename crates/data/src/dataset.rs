//! Windowed spatial-temporal crime datasets with the paper's splits.

use crate::synth::SynthCity;
use sthsl_tensor::{Result, Tensor, TensorError};

/// Which portion of the time axis a sample's *target* day falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training days (first 7/8 of the span minus the validation tail).
    Train,
    /// Validation: the last `val_days` of the training region.
    Val,
    /// Test: the final 1/8 of the span.
    Test,
}

/// Dataset construction options.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Input window length Tw (days of history per sample). The paper's
    /// reference implementation uses 30.
    pub window: usize,
    /// Validation tail length inside the training region (paper: 30).
    pub val_days: usize,
    /// Train fraction of the full span (paper: 7:1 train:test → 7/8).
    pub train_fraction: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig { window: 30, val_days: 30, train_fraction: 7.0 / 8.0 }
    }
}

/// One supervised sample: `window` days of history and the next-day target.
pub struct Sample {
    /// Input `[R, Tw, C]`.
    pub input: Tensor,
    /// Target `[R, C]` — counts on the day following the window.
    pub target: Tensor,
    /// Index of the target day in the full tensor.
    pub target_day: usize,
}

/// A crime tensor with grid metadata, split boundaries and z-score stats.
pub struct CrimeDataset {
    /// Full tensor `[R, T, C]`.
    pub tensor: Tensor,
    /// Grid rows (I).
    pub rows: usize,
    /// Grid cols (J).
    pub cols: usize,
    /// Category names.
    pub category_names: Vec<String>,
    /// Dataset options.
    pub config: DatasetConfig,
    /// First day (exclusive upper bound) of the training region.
    train_end: usize,
    /// First test day.
    test_start: usize,
    /// Mean of the *training* portion (used for z-scoring, Eq. 1).
    pub mu: f32,
    /// Std of the training portion.
    pub sigma: f32,
}

impl CrimeDataset {
    /// Build a dataset from a simulated city.
    pub fn from_city(city: &SynthCity, config: DatasetConfig) -> Result<Self> {
        Self::new(city.tensor.clone(), city.rows, city.cols, city.category_names.clone(), config)
    }

    /// Build from a raw `[R, T, C]` tensor.
    pub fn new(
        tensor: Tensor,
        rows: usize,
        cols: usize,
        category_names: Vec<String>,
        config: DatasetConfig,
    ) -> Result<Self> {
        if tensor.ndim() != 3 {
            return Err(TensorError::RankMismatch {
                op: "CrimeDataset",
                expected: 3,
                got: tensor.ndim(),
                shape: tensor.shape().to_vec(),
            });
        }
        let (r, t, c) = (tensor.shape()[0], tensor.shape()[1], tensor.shape()[2]);
        if r != rows * cols {
            return Err(TensorError::Invalid(format!(
                "CrimeDataset: {r} regions but grid is {rows}×{cols}"
            )));
        }
        if category_names.len() != c {
            return Err(TensorError::Invalid(format!(
                "CrimeDataset: {} names for {c} categories",
                category_names.len()
            )));
        }
        let test_start = ((t as f64) * config.train_fraction).round() as usize;
        if config.window + config.val_days + 2 > test_start || test_start >= t {
            return Err(TensorError::Invalid(format!(
                "CrimeDataset: span {t} too short for window {} + val {} and a test region",
                config.window, config.val_days
            )));
        }
        let train_end = test_start - config.val_days;
        // z-score over the training days only — no test leakage.
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for ri in 0..r {
            for ti in 0..train_end {
                for ci in 0..c {
                    sum += f64::from(tensor.data()[(ri * t + ti) * c + ci]);
                    count += 1;
                }
            }
        }
        let mu = (sum / count as f64) as f32;
        let mut var = 0.0f64;
        for ri in 0..r {
            for ti in 0..train_end {
                for ci in 0..c {
                    let d = f64::from(tensor.data()[(ri * t + ti) * c + ci]) - f64::from(mu);
                    var += d * d;
                }
            }
        }
        let sigma = ((var / count as f64).sqrt() as f32).max(1e-6);
        Ok(CrimeDataset {
            tensor,
            rows,
            cols,
            category_names,
            config,
            train_end,
            test_start,
            mu,
            sigma,
        })
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.tensor.shape()[0]
    }

    /// Number of days.
    pub fn num_days(&self) -> usize {
        self.tensor.shape()[1]
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.tensor.shape()[2]
    }

    /// Split of a given target day.
    pub fn split_of(&self, target_day: usize) -> Split {
        if target_day < self.train_end {
            Split::Train
        } else if target_day < self.test_start {
            Split::Val
        } else {
            Split::Test
        }
    }

    /// Target-day indices belonging to a split (each must have a full window
    /// of history before it).
    pub fn target_days(&self, split: Split) -> Vec<usize> {
        let (lo, hi) = match split {
            Split::Train => (self.config.window, self.train_end),
            Split::Val => (self.train_end.max(self.config.window), self.test_start),
            Split::Test => (self.test_start.max(self.config.window), self.num_days()),
        };
        (lo..hi).collect()
    }

    /// Materialise the sample whose target is `target_day`.
    pub fn sample(&self, target_day: usize) -> Result<Sample> {
        let w = self.config.window;
        if target_day < w || target_day >= self.num_days() {
            return Err(TensorError::IndexOutOfRange { index: target_day, len: self.num_days() });
        }
        let input = self.tensor.slice_axis(1, target_day - w, w)?;
        let target = self
            .tensor
            .slice_axis(1, target_day, 1)?
            .reshape(&[self.num_regions(), self.num_categories()])?;
        Ok(Sample { input, target, target_day })
    }

    /// Z-score a raw window per Eq. 1 (training statistics).
    pub fn zscore(&self, x: &Tensor) -> Tensor {
        let (mu, sigma) = (self.mu, self.sigma);
        x.map(move |v| (v - mu) / sigma)
    }

    /// Invert the z-scoring.
    pub fn un_zscore(&self, z: &Tensor) -> Tensor {
        let (mu, sigma) = (self.mu, self.sigma);
        z.map(move |v| v * sigma + mu)
    }

    /// Ground-truth matrix `[R, C]` for one day.
    pub fn day(&self, day: usize) -> Result<Tensor> {
        self.tensor.slice_axis(1, day, 1)?.reshape(&[self.num_regions(), self.num_categories()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthConfig;

    fn dataset() -> CrimeDataset {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(6, 6, 160)).unwrap();
        CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 14, val_days: 10, train_fraction: 7.0 / 8.0 },
        )
        .unwrap()
    }

    #[test]
    fn split_boundaries_follow_paper_ratio() {
        let ds = dataset();
        // 160 days → test starts at 140 (7/8), val occupies [130, 140).
        assert_eq!(ds.split_of(139), Split::Val);
        assert_eq!(ds.split_of(129), Split::Train);
        assert_eq!(ds.split_of(140), Split::Test);
        assert_eq!(ds.target_days(Split::Test).len(), 20);
    }

    #[test]
    fn samples_align_history_and_target() {
        let ds = dataset();
        let s = ds.sample(50).unwrap();
        assert_eq!(s.input.shape(), &[36, 14, 4]);
        assert_eq!(s.target.shape(), &[36, 4]);
        // The target equals the raw tensor at day 50.
        let truth = ds.day(50).unwrap();
        assert_eq!(s.target.data(), truth.data());
        // The last input day is day 49.
        let last_in = s.input.slice_axis(1, 13, 1).unwrap();
        let day49 = ds.tensor.slice_axis(1, 49, 1).unwrap();
        assert_eq!(last_in.data(), day49.data());
    }

    #[test]
    fn sample_bounds_checked() {
        let ds = dataset();
        assert!(ds.sample(5).is_err()); // not enough history
        assert!(ds.sample(500).is_err());
    }

    #[test]
    fn zscore_roundtrip_and_train_only_stats() {
        let ds = dataset();
        let s = ds.sample(40).unwrap();
        let z = ds.zscore(&s.input);
        let back = ds.un_zscore(&z);
        for (a, b) in back.data().iter().zip(s.input.data()) {
            assert!((a - b).abs() < 1e-3);
        }
        assert!(ds.sigma > 0.0);
    }

    #[test]
    fn density_matches_figure1_shape() {
        // Most regions should fall in the lowest density band, as in Fig. 1.
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(10, 10, 300)).unwrap();
        let ds = CrimeDataset::from_city(&city, DatasetConfig::default()).unwrap();
        let dens = crate::density_degrees(&ds.tensor).unwrap();
        assert_eq!(dens.len(), 100);
        assert!(dens.iter().all(|&d| (0.0..=1.0).contains(&d)));
        // There must be sparse regions (≤ 0.5) — the phenomenon the paper
        // addresses — and they should be the majority or close to it.
        let sparse = dens.iter().filter(|&&d| d <= 0.5).count();
        assert!(sparse >= 30, "only {sparse}/100 sparse regions");
    }

    #[test]
    fn rejects_mismatched_construction() {
        let t = Tensor::zeros(&[10, 50, 2]);
        assert!(CrimeDataset::new(
            t.clone(),
            3,
            3,
            vec!["a".into(), "b".into()],
            DatasetConfig::default()
        )
        .is_err());
        assert!(
            CrimeDataset::new(t.clone(), 2, 5, vec!["a".into()], DatasetConfig::default()).is_err()
        );
        // Span too short for the default 30-day window.
        assert!(CrimeDataset::new(t, 2, 5, vec!["a".into(), "b".into()], DatasetConfig::default())
            .is_err());
    }
}
