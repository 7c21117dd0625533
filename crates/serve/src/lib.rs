//! `sthsl-serve` — the batched, cached forecast serving runtime.
//!
//! `sthsl serve` turns a trained ST-HSL artifact into a forecast API:
//!
//! 1. **Startup** — [`ForecastEngine::from_checkpoint_dir`] loads the newest
//!    *verified* checkpoint-v2 generation (corrupt files are quarantined,
//!    older good generations win), cross-checks every parameter name and
//!    shape against the requested model config, and runs a full graphcheck
//!    audit over the serving tape. A checkpoint trained under a different
//!    config is a typed [`StartupError`] before the socket opens — never a
//!    surprise at first request.
//! 2. **Serving** — [`Server::run`] drains concurrent connections into
//!    micro-batches and answers every forecast query in a batch through
//!    one shared graph and parameter injection per horizon step, with one
//!    forward pass per window ([`ForecastEngine::grid_forecast_batch`]),
//!    fronted by an LRU tile cache ([`ForecastCache`]) keyed by
//!    `(city, window-end day, horizon, region-tile)` and explicitly
//!    invalidated on `/reload`. Responses are bit-identical to the offline
//!    `Predictor` path, whether they come from the cache or a fresh forward.
//! 3. **Observability** — per-request spans, cache hit/miss counters and
//!    p50/p99 latency gauges flow through `sthsl-obs` ([`Metrics`]), both as
//!    trace events and on `GET /metrics`.
//!
//! Every request-path failure is a typed [`ServeError`] rendered as a JSON
//! body with a 4xx/5xx status; the serving loop has no panic-reachable
//! paths and, per this workspace's concurrency rule, no locks or threads —
//! parallelism lives in the tensor kernels on the `sthsl-parallel` pool.

pub mod cache;
pub mod engine;
pub mod error;
pub mod http;
pub mod metrics;
pub mod server;

pub use cache::{CacheStats, ForecastCache, TileEntry, TileKey};
pub use engine::ForecastEngine;
pub use error::{ServeError, StartupError};
pub use http::{read_request, write_response, Request};
pub use metrics::{Counters, Metrics};
pub use server::{Server, ServerConfig};
