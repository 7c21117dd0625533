//! # sthsl
//!
//! Facade crate for the ST-HSL reproduction — *Spatial-Temporal Hypergraph
//! Self-Supervised Learning for Crime Prediction* (ICDE 2022) — re-exporting
//! the public API of every workspace crate:
//!
//! - [`faults`] — the deterministic fault-injection I/O seam and retry
//!   toolkit (its recovery contracts are tested in
//!   `tests/failure_injection.rs`).
//! - [`parallel`] — the scoped thread pool behind every multi-threaded kernel.
//! - [`tensor`] — dense f32 tensors, convolutions, matmul.
//! - [`autograd`] — tape-based reverse-mode autodiff, NN layers, optimizers.
//! - [`obs`] — structured JSONL tracing and the tape profiler.
//! - [`data`] — the calibrated city simulator, datasets, metrics, graphs.
//! - [`core`] — the ST-HSL model itself.
//! - [`baselines`] — the 15 paper baselines (+ HA).
//! - [`graphcheck`] — the static compute-graph analyzer behind `graph-audit`.
//! - [`serve`] — the batched, cached forecast serving runtime behind
//!   `sthsl serve`.
//!
//! ```no_run
//! use sthsl::prelude::*;
//!
//! let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(8, 8, 240)).unwrap();
//! let data = CrimeDataset::from_city(&city, DatasetConfig::default()).unwrap();
//! let mut model = StHsl::new(StHslConfig::quick(), &data).unwrap();
//! model.fit(&data).unwrap();
//! let report = model.evaluate(&data).unwrap();
//! println!("MAE {:.4}", report.mae_overall());
//! ```

pub mod cli;

pub use sthsl_autograd as autograd;
pub use sthsl_baselines as baselines;
pub use sthsl_chaos as faults;
pub use sthsl_core as core;
pub use sthsl_data as data;
pub use sthsl_graphcheck as graphcheck;
pub use sthsl_obs as obs;
pub use sthsl_parallel as parallel;
pub use sthsl_serve as serve;
pub use sthsl_tensor as tensor;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use sthsl_autograd::{
        latest_checkpoint, load_latest_verified, quarantine, Checkpoint, Gradients, Graph,
        ParamStore, PruneReport, TapeObserver, TapePhase, TrainerState, Var,
    };
    pub use sthsl_baselines::{all_auditable, all_baselines, BaselineConfig};
    pub use sthsl_chaos::{
        retry, FaultKind, FaultPlan, FaultRule, FaultyIo, Io, OpClass, RealIo, RetryPolicy,
        ThreadSleeper, VirtualSleeper,
    };
    pub use sthsl_core::{
        Ablation, BatchCtx, DivergenceCtx, EpochCtx, Fault, HookAction, NoHooks, StHsl,
        StHslConfig, TraceHooks, TrainHooks, TrainLoop, TrainOptions, TrainOutcome, Trainable,
    };
    pub use sthsl_data::{
        CrimeDataset, DatasetConfig, EvalReport, FitReport, Predictor, Split, SynthCity,
        SynthConfig,
    };
    pub use sthsl_graphcheck::{AuditOptions, AuditReport};
    pub use sthsl_obs::{
        Clock, FakeClock, ProfileReport, TapeProfiler, TraceEmitter, TraceEvent, WallClock,
    };
    pub use sthsl_serve::{
        ForecastCache, ForecastEngine, ServeError, Server, ServerConfig, StartupError, TileKey,
    };
    pub use sthsl_tensor::Tensor;
}
