//! # sthsl-obs
//!
//! Structured observability for the ST-HSL stack: a JSONL trace-event
//! emitter, injectable clocks and a span-based tape profiler.
//!
//! ## Architecture
//!
//! * [`clock`] — the [`Clock`] trait with a real [`WallClock`] and a
//!   deterministic [`FakeClock`]. Every timestamp in this crate comes
//!   through an injected clock, so tests and golden pins are
//!   machine-independent, and the kernel crates (which the R5 lint keeps
//!   clock-free) never read time themselves.
//! * [`json`] — a std-only JSON value/writer/parser (the environment has no
//!   registry access, so no serde). Panic-free in both directions.
//! * [`event`] — the typed [`TraceEvent`] schema with a round-trippable
//!   JSON encoding.
//! * [`emit`] — [`TraceEmitter`] writes events as JSON lines with a
//!   `seq`/`t_ns` envelope; I/O failures are latched, never fatal. Its file
//!   sink opens through the `sthsl-chaos` [`Io`] seam, re-exported here
//!   with [`RealIo`] for callers that do not depend on that crate.
//! * [`profile`] — [`TapeProfiler`] implements
//!   [`sthsl_autograd::TapeObserver`] and attributes wall time per tape op
//!   (delta profiling: the time between successive notifications belongs to
//!   the op just reported), aggregating into a deterministic top-K
//!   [`ProfileReport`].
//!
//! ```
//! use std::rc::Rc;
//! use sthsl_autograd::Graph;
//! use sthsl_obs::{FakeClock, TapeProfiler};
//! use sthsl_tensor::Tensor;
//!
//! let profiler = TapeProfiler::shared(Rc::new(FakeClock::new(10)));
//! let g = Graph::new();
//! g.set_observer(profiler.clone());
//! let x = g.leaf(Tensor::scalar(2.0));
//! let y = g.mul(x, x).unwrap();
//! g.backward(y).unwrap();
//! let report = profiler.report(5);
//! assert_eq!(report.total_rows, 3); // leaf + mul forward, mul backward
//! ```

pub mod clock;
pub mod emit;
pub mod event;
pub mod json;
pub mod profile;

pub use clock::{Clock, FakeClock, WallClock};
pub use emit::{parse_trace, parse_trace_line, TraceEmitter};
pub use event::TraceEvent;
pub use json::{parse as parse_json, Json, JsonError};
pub use profile::{phase_name, OpStat, ProfileReport, ProfileRow, TapeProfiler};
pub use sthsl_chaos::{Io, RealIo};
