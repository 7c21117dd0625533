//! Workload inputs: the model and city presets, generated from the seed.

use std::path::PathBuf;
use std::time::Instant;
use sthsl_bench::{City, Scale};
use sthsl_core::{StHsl, StHslConfig};
use sthsl_data::{CrimeDataset, DatasetConfig, SynthCity, SynthConfig};

/// Problem size. `Quick` is what the benchmark measures; `Tiny` keeps the
/// benchmark's own tests fast and exercises the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Quick,
    Tiny,
}

/// Everything a workload needs to build its inputs.
#[derive(Debug, Clone)]
pub struct Preset {
    pub synth: SynthConfig,
    pub dataset: DatasetConfig,
    pub model: StHslConfig,
    /// Forecast cache capacity in tiles; the `serve-miss` cycle must visit
    /// more distinct grids than this holds.
    pub cache_capacity: usize,
    pub seed: u64,
}

impl Preset {
    /// `Scale::Quick` NYC-like: 8×8 regions, 240 days, window 14, d=16,
    /// H=64, batch 4, 12 batches per epoch, default `sparse_propagation`.
    pub fn new(size: Size, seed: u64) -> Self {
        match size {
            Size::Quick => Preset {
                synth: Scale::Quick.synth_config(City::Nyc, seed),
                dataset: Scale::Quick.dataset_config(),
                model: Scale::Quick.sthsl_config(seed),
                cache_capacity: 1024,
                seed,
            },
            Size::Tiny => {
                let mut synth = SynthConfig::nyc_like().scaled(4, 4, 60);
                synth.seed ^= seed;
                Preset {
                    synth,
                    dataset: DatasetConfig { window: 7, val_days: 5, train_fraction: 0.8 },
                    model: StHslConfig {
                        d: 4,
                        num_hyperedges: 6,
                        batch_size: 4,
                        max_batches_per_epoch: Some(6),
                        // Fast enough that four epochs reliably lower the loss.
                        lr: 1e-2,
                        ..StHslConfig::quick().with_seed(seed)
                    },
                    cache_capacity: 16,
                    seed,
                }
            }
        }
    }

    pub fn regions(&self) -> usize {
        self.synth.rows * self.synth.cols
    }

    pub fn days(&self) -> usize {
        self.synth.days
    }

    pub fn city(&self) -> sthsl_data::Result<SynthCity> {
        SynthCity::generate(&self.synth)
    }

    pub fn dataset(&self, city: &SynthCity) -> sthsl_data::Result<CrimeDataset> {
        CrimeDataset::from_city(city, self.dataset.clone())
    }

    pub fn data(&self) -> sthsl_data::Result<CrimeDataset> {
        self.dataset(&self.city()?)
    }

    pub fn model(&self, data: &CrimeDataset) -> sthsl_data::Result<StHsl> {
        StHsl::new(self.model.clone(), data)
    }
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `t0`.
pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A fresh scratch directory inside the working directory, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir =
            PathBuf::from(".bench_build").join(format!("perfbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
