//! # sthsl-data
//!
//! Data substrate for the ST-HSL reproduction:
//!
//! - [`synth`] — a calibrated stochastic city simulator producing the
//!   `X ∈ R^{R×T×C}` crime tensors the paper trains on (standing in for the
//!   proprietary NYC / Chicago extracts; see DESIGN.md §1 for the
//!   substitution argument).
//! - [`dataset`] — windowed spatial-temporal datasets with the paper's 7:1
//!   train/test split and 30-day validation tail.
//! - [`metrics`] — MAE / masked-MAPE / RMSE plus the density-degree tooling
//!   behind Figures 1 and 6.
//! - [`graph`] — grid region graphs (adjacency, normalised supports, random
//!   walks) consumed by the GNN baselines.
//! - [`predictor`] — the `Predictor` trait every model (ST-HSL and all
//!   baselines) implements, so the harness can treat them uniformly.

pub mod dataset;
pub mod graph;
pub mod loader;
pub mod metrics;
pub mod predictor;
pub mod synth;

pub use dataset::{CrimeDataset, DatasetConfig, Sample, Split};
pub use loader::{
    dataset_from_csv, dataset_from_csv_lenient, dataset_from_csv_path_io, parse_csv,
    parse_csv_lenient, CrimeRecord, GridSpec, LoadStats, ParseReport,
};
pub use metrics::{density_bucket, density_degrees, mae, mape, rmse, DensityBucket, EvalReport};
pub use predictor::{FitReport, Predictor};
pub use synth::{CategorySpec, SynthCity, SynthConfig};

pub use sthsl_tensor::{Result, Tensor, TensorError};
