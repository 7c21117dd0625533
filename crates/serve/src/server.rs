//! The HTTP server: a single-threaded, non-blocking accept loop that
//! micro-batches concurrent requests through the engine.
//!
//! Concurrency model: the listener is non-blocking; each iteration drains
//! every pending connection (up to `batch_max`, waiting at most
//! `batch_window_ms` after the first accept for stragglers), parses them
//! all, answers the cheap endpoints immediately, and sends every forecast
//! query in the batch through **one** [`ForecastEngine::grid_forecast_batch`]
//! call. The tensor kernels inside that call fan out on the `sthsl-parallel`
//! pool, so parallelism lives where the work is — the serving layer itself
//! needs no locks, no threads and no shared mutable state, which is also
//! what makes every response deterministic and bit-identical to the offline
//! predictor path.
//!
//! Failure matrix: malformed HTTP or JSON → 400; unknown path → 404; wrong
//! method → 405; oversized head/body → 413; out-of-range region, category,
//! day or horizon → 422; engine invariant failure → 500; reload that finds
//! no usable checkpoint → 503 (old parameters keep serving). All of these
//! are typed [`ServeError`] responses with a JSON body; none of them
//! terminate the accept loop.

#![expect(
    clippy::disallowed_types,
    reason = "R5: wall-clock latency, accept-wait and uptime metrics; serving is outside the kernel crates"
)]

use crate::cache::{ForecastCache, TileEntry, TileKey};
use crate::engine::ForecastEngine;
use crate::error::{ServeError, StartupError};
use crate::http::{read_request, write_response, Request};
use crate::metrics::Metrics;
use std::collections::BTreeSet;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use sthsl_chaos::{RealIo, RetryPolicy, ThreadSleeper};
use sthsl_obs::{Json, TraceEmitter, TraceEvent};

/// Regions per forecast-cache tile: a tile holds one `(day, horizon)`
/// forecast for this many consecutive regions.
pub const TILE_REGIONS: usize = 4;

/// Knobs for the accept loop and the cache.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// City label used in cache keys and response bodies.
    pub city: String,
    /// How long to keep draining stragglers after the first accept.
    pub batch_window_ms: u64,
    /// Hard cap on connections per micro-batch.
    pub batch_max: usize,
    /// Request-body size limit in bytes.
    pub max_body: usize,
    /// Serve exactly this many requests, then return from [`Server::run`].
    /// `None` runs forever. This is how tests and CI smoke runs get a
    /// clean, deterministic shutdown.
    pub max_requests: Option<u64>,
    /// Forecast cache capacity, in tiles.
    pub cache_capacity: usize,
    /// Horizon cap for requests.
    pub max_horizon: usize,
    /// Directory `/reload` rescans; `None` disables the endpoint.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            city: "synth".into(),
            batch_window_ms: 2,
            batch_max: 64,
            max_body: 256 * 1024,
            max_requests: None,
            cache_capacity: 1024,
            max_horizon: 7,
            checkpoint_dir: None,
        }
    }
}

/// One fully resolved forecast query.
#[derive(Debug, Clone)]
struct Query {
    region: usize,
    category: usize,
    category_name: String,
    day: usize,
    horizon: usize,
}

/// What routing decided for one connection.
enum Outcome {
    /// Answer is already known (healthz, metrics, reload, any error).
    Ready(u16, Json),
    /// Forecast queries to resolve through the batched engine call.
    Forecast(Vec<Query>),
}

struct Pending {
    stream: TcpStream,
    started: Instant,
    path: String,
    outcome: Outcome,
}

/// The serving loop.
pub struct Server {
    engine: ForecastEngine,
    cfg: ServerConfig,
    cache: ForecastCache,
    metrics: Metrics,
    listener: TcpListener,
    addr: SocketAddr,
    emitter: Option<TraceEmitter>,
    checkpoint: Option<PathBuf>,
    epoch: Instant,
}

/// Idle sleep between empty accept polls.
const IDLE_POLL: Duration = Duration::from_millis(1);
/// Sleep between accept polls inside an open batch window.
const BATCH_POLL: Duration = Duration::from_micros(200);
/// Per-connection socket read/write budget.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

impl Server {
    /// Bind the listener and assemble the server. `checkpoint` is the path
    /// the engine was loaded from, echoed in `/healthz`; `emitter` receives
    /// per-request spans and per-batch counter/gauge snapshots.
    pub fn bind(
        engine: ForecastEngine,
        cfg: ServerConfig,
        checkpoint: Option<PathBuf>,
        emitter: Option<TraceEmitter>,
    ) -> Result<Self, StartupError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| StartupError::Bind(format!("{}: {e}", cfg.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| StartupError::Bind(format!("set_nonblocking: {e}")))?;
        let addr =
            listener.local_addr().map_err(|e| StartupError::Bind(format!("local_addr: {e}")))?;
        let cache = ForecastCache::new(cfg.cache_capacity);
        Ok(Server {
            engine,
            cfg,
            cache,
            metrics: Metrics::new(),
            listener,
            addr,
            emitter,
            checkpoint,
            epoch: Instant::now(),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Metrics snapshot (counters only; for in-process inspection).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Serve until `max_requests` responses have been written (forever when
    /// unset). Request-path failures never propagate out of this loop; the
    /// only way `run` ends early is the listener itself dying.
    pub fn run(&mut self) -> Result<(), StartupError> {
        let mut served: u64 = 0;
        loop {
            if self.cfg.max_requests.is_some_and(|cap| served >= cap) {
                break;
            }
            let conns = self.drain_accepts();
            if conns.is_empty() {
                std::thread::sleep(IDLE_POLL);
                continue;
            }
            self.metrics.counters_mut().batches += 1;
            served += self.process_batch(conns);
            if let Some(em) = &self.emitter {
                self.metrics.emit(em, &self.cache.stats());
                em.flush().ok();
            }
        }
        if let Some(em) = &self.emitter {
            em.flush().ok();
        }
        Ok(())
    }

    /// Accept every pending connection: return immediately when the queue
    /// is empty, otherwise keep polling for `batch_window_ms` after the
    /// first accept so concurrent clients land in the same batch.
    fn drain_accepts(&mut self) -> Vec<TcpStream> {
        let mut conns = Vec::new();
        let window = Duration::from_millis(self.cfg.batch_window_ms);
        let mut first: Option<Instant> = None;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    first.get_or_insert_with(Instant::now);
                    conns.push(stream);
                    if conns.len() >= self.cfg.batch_max.max(1) {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => match first {
                    None => break,
                    Some(t0) if t0.elapsed() >= window => break,
                    Some(_) => std::thread::sleep(BATCH_POLL),
                },
                // Transient accept failures (ECONNABORTED etc.): serve what
                // we have; the loop comes back for the rest.
                Err(_) => break,
            }
        }
        conns
    }

    /// Read, route, batch-resolve and answer one batch. Returns the number
    /// of responses written (= requests consumed from `max_requests`).
    fn process_batch(&mut self, conns: Vec<TcpStream>) -> u64 {
        let mut pending: Vec<Pending> = Vec::with_capacity(conns.len());
        for mut stream in conns {
            let started = Instant::now();
            stream.set_nonblocking(false).ok();
            stream.set_read_timeout(Some(SOCKET_TIMEOUT)).ok();
            stream.set_write_timeout(Some(SOCKET_TIMEOUT)).ok();
            let (path, outcome) = match read_request(&mut stream, self.cfg.max_body) {
                Ok(req) => {
                    let path = req.path.clone();
                    let outcome = match self.route(&req) {
                        Ok(o) => o,
                        Err(e) => Outcome::Ready(e.status(), e.to_json()),
                    };
                    (path, outcome)
                }
                Err(e) => ("<unparsed>".to_string(), Outcome::Ready(e.status(), e.to_json())),
            };
            pending.push(Pending { stream, started, path, outcome });
        }

        self.resolve_forecasts(&mut pending);

        let mut written: u64 = 0;
        for p in &mut pending {
            let (status, body) = match &p.outcome {
                Outcome::Ready(status, body) => (*status, body.clone()),
                // Unresolved forecast after resolve_forecasts is a bug, but
                // it must still be a typed 500, not a crash.
                Outcome::Forecast(_) => {
                    let e = ServeError::Internal("forecast batch left unresolved".into());
                    (e.status(), e.to_json())
                }
            };
            // A client that hung up mid-response is its problem, not ours.
            write_response(&mut p.stream, status, &body).ok();
            let dur = p.started.elapsed();
            self.metrics.observe(status, u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX));
            if let Some(em) = &self.emitter {
                let start = p.started.duration_since(self.epoch);
                em.emit(&TraceEvent::Span {
                    name: format!("serve.request {}", p.path),
                    start_ns: u64::try_from(start.as_nanos()).unwrap_or(u64::MAX),
                    dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
                });
            }
            written += 1;
        }
        written
    }

    /// Resolve every [`Outcome::Forecast`] in the batch: serve what the
    /// cache has, compute the distinct missing `(day, horizon)` grids in a
    /// single engine call, repopulate the cache tile by tile, and render
    /// responses.
    fn resolve_forecasts(&mut self, pending: &mut [Pending]) {
        // (pending index, per-query cached value or miss marker).
        let mut lookups: Vec<(usize, Vec<Option<f32>>)> = Vec::new();
        let mut missing: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (i, p) in pending.iter().enumerate() {
            let Outcome::Forecast(queries) = &p.outcome else { continue };
            let mut values = Vec::with_capacity(queries.len());
            for q in queries {
                let key = self.tile_key(q);
                match self.cache.get(&key) {
                    Some(entry) => values.push(entry.value(q.region, q.category, self.columns())),
                    None => {
                        missing.insert((q.day, q.horizon));
                        values.push(None);
                    }
                }
            }
            lookups.push((i, values));
        }
        if lookups.is_empty() {
            return;
        }

        let specs: Vec<(usize, usize)> = missing.into_iter().collect();
        let grids = if specs.is_empty() {
            Ok(Vec::new())
        } else {
            self.metrics.counters_mut().forwards += specs.len() as u64;
            self.engine.grid_forecast_batch(&specs)
        };
        let grids = match grids {
            Ok(g) => g,
            Err(e) => {
                // Connections that were fully cache-served still succeed;
                // ones that needed the failed computation get the error.
                for (i, values) in lookups {
                    let Some(p) = pending.get_mut(i) else { continue };
                    let resolved = {
                        let Outcome::Forecast(queries) = &p.outcome else { continue };
                        if values.iter().all(Option::is_some) {
                            self.render_forecast(queries, &values)
                        } else {
                            Outcome::Ready(e.status(), e.to_json())
                        }
                    };
                    p.outcome = resolved;
                }
                return;
            }
        };
        for ((day, horizon), grid) in specs.iter().copied().zip(&grids) {
            self.populate_tiles(day, horizon, grid);
        }

        for (i, mut values) in lookups {
            let Some(p) = pending.get_mut(i) else { continue };
            let resolved = {
                let Outcome::Forecast(queries) = &p.outcome else { continue };
                let mut failed = None;
                for (q, slot) in queries.iter().zip(&mut values) {
                    if slot.is_none() {
                        match specs.iter().position(|&s| s == (q.day, q.horizon)) {
                            Some(gi) => *slot = Some(grids[gi].at(&[q.region, q.category])),
                            None => {
                                failed = Some(ServeError::Internal(format!(
                                    "grid for (day {}, horizon {}) missing",
                                    q.day, q.horizon
                                )));
                            }
                        }
                    }
                }
                match failed {
                    Some(e) => Outcome::Ready(e.status(), e.to_json()),
                    None => self.render_forecast(queries, &values),
                }
            };
            p.outcome = resolved;
        }
    }

    fn columns(&self) -> usize {
        self.engine.data().num_categories()
    }

    fn tile_key(&self, q: &Query) -> TileKey {
        TileKey {
            city: self.cfg.city.clone(),
            day: q.day,
            horizon: q.horizon,
            tile: q.region / TILE_REGIONS,
        }
    }

    /// Insert every tile of a freshly computed `(day, horizon)` grid.
    fn populate_tiles(&mut self, day: usize, horizon: usize, grid: &sthsl_tensor::Tensor) {
        let r = self.engine.data().num_regions();
        let c = self.columns();
        for start in (0..r).step_by(TILE_REGIONS) {
            let len = TILE_REGIONS.min(r - start);
            let mut counts = Vec::with_capacity(len * c);
            for region in start..start + len {
                for cat in 0..c {
                    counts.push(grid.at(&[region, cat]));
                }
            }
            let key =
                TileKey { city: self.cfg.city.clone(), day, horizon, tile: start / TILE_REGIONS };
            self.cache.insert(key, TileEntry { region_start: start, regions: len, counts });
        }
    }

    /// Build the 200 body for a forecast connection whose values are all
    /// resolved; `values[i]` pairs with `queries[i]`.
    fn render_forecast(&self, queries: &[Query], values: &[Option<f32>]) -> Outcome {
        let mut items = Vec::with_capacity(queries.len());
        for (q, v) in queries.iter().zip(values) {
            let Some(v) = *v else {
                let e = ServeError::Internal("forecast value unresolved".into());
                return Outcome::Ready(e.status(), e.to_json());
            };
            items.push(Json::Obj(vec![
                ("region".into(), Json::Int(i64::try_from(q.region).unwrap_or(i64::MAX))),
                ("category".into(), Json::Str(q.category_name.clone())),
                ("category_index".into(), Json::Int(i64::try_from(q.category).unwrap_or(i64::MAX))),
                ("day".into(), Json::Int(i64::try_from(q.day).unwrap_or(i64::MAX))),
                ("horizon".into(), Json::Int(i64::try_from(q.horizon).unwrap_or(i64::MAX))),
                ("count".into(), Json::Float(f64::from(v))),
            ]));
        }
        Outcome::Ready(
            200,
            Json::Obj(vec![
                ("city".into(), Json::Str(self.cfg.city.clone())),
                ("forecasts".into(), Json::Arr(items)),
            ]),
        )
    }

    fn route(&mut self, req: &Request) -> Result<Outcome, ServeError> {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Ok(Outcome::Ready(200, self.health_json())),
            ("GET", "/metrics") => {
                Ok(Outcome::Ready(200, self.metrics.to_json(&self.cache.stats(), self.cache.len())))
            }
            ("GET", "/forecast") => Ok(Outcome::Forecast(vec![self.parse_query(req)?])),
            ("POST", "/forecast") => Ok(Outcome::Forecast(self.parse_body(req)?)),
            ("POST", "/reload") => {
                let body = self.reload()?;
                Ok(Outcome::Ready(200, body))
            }
            (_, "/healthz" | "/metrics" | "/forecast" | "/reload") => {
                Err(ServeError::MethodNotAllowed(format!(
                    "{} does not support {}",
                    req.path, req.method
                )))
            }
            _ => Err(ServeError::NotFound(format!("no route for {}", req.path))),
        }
    }

    fn health_json(&self) -> Json {
        let d = self.engine.data();
        let as_int = |v: usize| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
        Json::Obj(vec![
            ("status".into(), Json::Str("ok".into())),
            ("city".into(), Json::Str(self.cfg.city.clone())),
            ("regions".into(), as_int(d.num_regions())),
            ("categories".into(), as_int(d.num_categories())),
            ("days".into(), as_int(d.num_days())),
            ("window".into(), as_int(d.config.window)),
            ("default_day".into(), as_int(self.engine.default_day())),
            ("max_horizon".into(), as_int(self.engine.max_horizon())),
            (
                "checkpoint".into(),
                match &self.checkpoint {
                    Some(p) => Json::Str(p.display().to_string()),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn reload(&mut self) -> Result<Json, ServeError> {
        let Some(dir) = self.cfg.checkpoint_dir.clone() else {
            return Err(ServeError::Unprocessable(
                "server was not started from a checkpoint directory".into(),
            ));
        };
        let path = self.engine.reload_from_dir(
            &RealIo,
            &dir,
            RetryPolicy::default_read(),
            &ThreadSleeper,
        )?;
        let dropped = self.cache.invalidate_all();
        self.metrics.counters_mut().reloads += 1;
        if let Some(em) = &self.emitter {
            em.emit(&TraceEvent::Checkpoint { path: path.display().to_string() });
        }
        self.checkpoint = Some(path.clone());
        Ok(Json::Obj(vec![
            ("reloaded".into(), Json::Str(path.display().to_string())),
            ("invalidated_entries".into(), Json::Int(i64::try_from(dropped).unwrap_or(i64::MAX))),
        ]))
    }

    /// `GET /forecast?region=&category=&horizon=&day=`.
    fn parse_query(&self, req: &Request) -> Result<Query, ServeError> {
        let region = parse_usize("region", req.query_get("region"))?
            .ok_or_else(|| ServeError::BadRequest("missing query parameter 'region'".into()))?;
        let category_raw = req
            .query_get("category")
            .ok_or_else(|| ServeError::BadRequest("missing query parameter 'category'".into()))?;
        let horizon = parse_usize("horizon", req.query_get("horizon"))?.unwrap_or(1);
        let day =
            parse_usize("day", req.query_get("day"))?.unwrap_or_else(|| self.engine.default_day());
        self.resolve_query(region, category_raw, day, horizon)
    }

    /// `POST /forecast` with `{"queries": [{...}]}`.
    fn parse_body(&self, req: &Request) -> Result<Vec<Query>, ServeError> {
        let text = std::str::from_utf8(&req.body)
            .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))?;
        let doc = sthsl_obs::parse_json(text)
            .map_err(|e| ServeError::BadRequest(format!("body is not valid JSON: {e}")))?;
        let Some(Json::Arr(items)) = doc.get("queries") else {
            return Err(ServeError::BadRequest(
                "body must be an object with a 'queries' array".into(),
            ));
        };
        if items.is_empty() {
            return Err(ServeError::BadRequest("'queries' must not be empty".into()));
        }
        if items.len() > 4096 {
            return Err(ServeError::PayloadTooLarge(format!(
                "{} queries exceeds the 4096-per-request cap",
                items.len()
            )));
        }
        items
            .iter()
            .map(|item| {
                let region = json_usize(item, "region")?
                    .ok_or_else(|| ServeError::BadRequest("query is missing 'region'".into()))?;
                let category = match item.get("category") {
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::Int(i)) => i.to_string(),
                    Some(_) => {
                        return Err(ServeError::BadRequest(
                            "'category' must be a string or an integer".into(),
                        ));
                    }
                    None => {
                        return Err(ServeError::BadRequest("query is missing 'category'".into()));
                    }
                };
                let horizon = json_usize(item, "horizon")?.unwrap_or(1);
                let day = json_usize(item, "day")?.unwrap_or_else(|| self.engine.default_day());
                self.resolve_query(region, &category, day, horizon)
            })
            .collect()
    }

    /// Validate parsed fields against the engine (all failures are 422s).
    fn resolve_query(
        &self,
        region: usize,
        category_raw: &str,
        day: usize,
        horizon: usize,
    ) -> Result<Query, ServeError> {
        self.engine.check_region(region)?;
        let category = self.engine.category_index(category_raw)?;
        self.engine.check_spec(day, horizon)?;
        let category_name = self
            .engine
            .data()
            .category_names
            .get(category)
            .cloned()
            .unwrap_or_else(|| category.to_string());
        Ok(Query { region, category, category_name, day, horizon })
    }
}

impl TileEntry {
    /// The cached count for `(region, category)`, when this tile covers it.
    fn value(&self, region: usize, category: usize, columns: usize) -> Option<f32> {
        let row = region.checked_sub(self.region_start)?;
        if row >= self.regions || category >= columns {
            return None;
        }
        self.counts.get(row * columns + category).copied()
    }
}

fn parse_usize(name: &str, raw: Option<&str>) -> Result<Option<usize>, ServeError> {
    match raw {
        None => Ok(None),
        Some(s) => s.parse::<usize>().map(Some).map_err(|_| {
            ServeError::BadRequest(format!("query parameter '{name}' is not an integer: '{s}'"))
        }),
    }
}

fn json_usize(item: &Json, key: &str) -> Result<Option<usize>, ServeError> {
    match item.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64().and_then(|u| usize::try_from(u).ok()) {
            Some(u) => Ok(Some(u)),
            None => Err(ServeError::BadRequest(format!("'{key}' must be a non-negative integer"))),
        },
    }
}
