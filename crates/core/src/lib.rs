//! # sthsl-core
//!
//! The ST-HSL model — *Spatial-Temporal Hypergraph Self-Supervised Learning
//! for Crime Prediction* (Li, Huang, Xia, Xu, Pei — ICDE 2022) — implemented
//! from scratch on the `sthsl-autograd` substrate.
//!
//! ## Architecture (paper section III)
//!
//! 1. **Crime embedding layer** (Eq. 1): z-scored counts scale learnable
//!    category embeddings — [`embedding::CrimeEmbedding`].
//! 2. **Multi-view spatial-temporal convolution encoder** (Eqs. 2–3):
//!    grid convolutions mixing categories plus temporal convolutions, with
//!    residual connections — [`local::LocalEncoder`].
//! 3. **Hypergraph global dependency modelling** (Eq. 4): learnable
//!    region↔hyperedge structures propagate information across the whole
//!    city — [`hypergraph::HypergraphEncoder`].
//! 4. **Global temporal relation encoding** (Eq. 5) —
//!    [`global_temporal::GlobalTemporal`].
//! 5. **Dual-stage self-supervised learning**: hypergraph infomax (Eqs. 6–7,
//!    [`infomax::InfomaxHead`]) and local-global cross-view contrastive
//!    learning (Eq. 8, [`contrastive`]).
//! 6. **Prediction head + joint objective** (Eqs. 9–10) —
//!    [`predict::PredictionHead`], [`model::StHsl`].
//!
//! Every variant of the paper's Table IV / Figure 5 is one value of the
//! [`config::Ablation`] enum.
//!
//! ```no_run
//! use sthsl_core::{StHsl, StHslConfig};
//! use sthsl_data::{CrimeDataset, DatasetConfig, Predictor, SynthCity, SynthConfig};
//!
//! let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(8, 8, 200)).unwrap();
//! let data = CrimeDataset::from_city(&city, DatasetConfig::default()).unwrap();
//! let mut model = StHsl::new(StHslConfig::quick(), &data).unwrap();
//! model.fit(&data).unwrap();
//! let report = model.evaluate(&data).unwrap();
//! println!("MAE {:.4}  MAPE {:.4}", report.mae_overall(), report.mape_overall());
//! ```

pub mod config;
pub mod contrastive;
pub mod embedding;
pub mod global_temporal;
mod guard;
pub mod hypergraph;
pub mod infomax;
pub mod local;
pub mod model;
pub mod obs_hooks;
pub mod predict;
pub mod trainer;

pub use config::{Ablation, StHslConfig};
pub use model::{AuditGraph, StHsl};
pub use obs_hooks::TraceHooks;
pub use trainer::{
    BatchCtx, DivergenceCtx, EpochCtx, Fault, HookAction, NoHooks, Schedule, TrainHooks, TrainLoop,
    TrainOptions, TrainOutcome, Trainable,
};

pub use sthsl_tensor::{Result, Tensor, TensorError};
