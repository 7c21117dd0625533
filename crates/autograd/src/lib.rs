//! # sthsl-autograd
//!
//! A tape-based reverse-mode automatic-differentiation engine over
//! [`sthsl_tensor::Tensor`], plus the neural-network layer zoo and optimizers
//! used by the ST-HSL model and all its baselines.
//!
//! ## Architecture
//!
//! A [`Graph`] is a per-forward-pass arena of nodes. Each operation appends a
//! node holding the forward value and a backward closure; [`Graph::backward`]
//! walks the tape in reverse, accumulating gradients. Model parameters live
//! outside any graph in a [`ParamStore`] and are injected as leaves at the
//! start of every training step, so graphs stay cheap and short-lived.
//!
//! ```
//! use sthsl_autograd::{Graph, ParamStore};
//! use sthsl_tensor::Tensor;
//!
//! // Minimise f(w) = (w - 3)^2 by hand-rolled gradient descent.
//! let mut w = Tensor::scalar(0.0);
//! for _ in 0..50 {
//!     let g = Graph::new();
//!     let wv = g.leaf(w.clone());
//!     let c = g.constant(Tensor::scalar(3.0));
//!     let diff = g.sub(wv, c).unwrap();
//!     let loss = g.mul(diff, diff).unwrap();
//!     let grads = g.backward(loss).unwrap();
//!     let gw = grads.get(wv).unwrap();
//!     w = Tensor::scalar(w.item().unwrap() - 0.2 * gw.item().unwrap());
//! }
//! assert!((w.item().unwrap() - 3.0).abs() < 1e-3);
//! # let _ = ParamStore::new();
//! ```

mod gradcheck;
mod graph;
mod ops;
mod params;
mod serialize;

pub mod checkpoint;
pub mod nn;
pub mod optim;
pub mod tape;

pub use checkpoint::{
    checkpoint_file_name, latest_checkpoint, latest_checkpoint_io, load_latest_verified,
    load_with_reread, prune_checkpoints_io, quarantine, sweep_stale_tmp, Checkpoint, PruneReport,
    TrainerState,
};
pub use gradcheck::{gradcheck, gradcheck_tol, try_gradcheck_tol};
pub use graph::{Gradients, Graph, TapeObserver, TapePhase, Var};
pub use optim::AdamState;
pub use params::{ParamId, ParamStore, ParamVars};
pub use tape::{NodeSpec, OpKind, PartitionStrategy, ReductionOrder, ScheduleMeta, TapeSpec};

pub use sthsl_tensor::{Result, Tensor, TensorError};
