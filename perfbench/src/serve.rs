//! The `serve-miss` and `serve-hit` workloads: an in-process `Server` with
//! the `sthsl serve` defaults, started from a checkpoint directory, driven
//! over loopback by one closed-loop client with one connection in flight.
//! Set-up times are read from a [`SpeedClock`] on the server thread. The
//! server thread also calibrates the host speed between requests, where the
//! client waits for it outside the timed interval. Of each request's wall
//! time, the CPU time of the client and of the server thread is scaled with
//! the speeds calibrated before and after it (see `calib.rs`).

use crate::calib::{scale, speed, thread_cpu_s, Reference, SpeedClock};
use crate::report::{median, peak_rss_mb, percentile, Report};
use crate::setup::{secs, Preset, Scratch, Size};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use sthsl_autograd::checkpoint_file_name;
use sthsl_chaos::{RealIo, RetryPolicy, ThreadSleeper};
use sthsl_data::Predictor;
use sthsl_serve::{ForecastEngine, Server, ServerConfig};

/// Which traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Distinct `(day, horizon)` per request: every request misses the cache.
    Miss,
    /// Every region × category of the default day at horizons 1–4.
    Hit,
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Horizon cap, as `sthsl serve` sets it.
const MAX_HORIZON: usize = 7;
/// How often the server thread recalibrates the host speed: about every
/// `serve-miss` request, every few `serve-hit` ones.
const CALIBRATE_EVERY: Duration = Duration::from_millis(20);
/// How often the client looks whether the server thread is ready.
const POLL: Duration = Duration::from_micros(50);
/// Client socket budget; a request slower than this is a failure.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// `serve-miss` responses checked against `ForecastEngine::grid_forecast`.
const MISS_CHECKS: usize = 12;
/// Percentile reported as `latency_ms_tail`. `serve-miss` makes a few
/// hundred requests, so p90 (the horizon-4 class) keeps ten samples beyond
/// it. `serve-hit` makes several thousand, but its p98 and p99 are set by
/// scheduling hiccups of the host: on a shared 2-core machine p98 moved by
/// 75% (quartile spread over ten runs).
const TAIL_Q: f64 = 0.90;

impl Kind {
    pub fn plan(self, preset: &Preset) -> Plan {
        match self {
            Kind::Miss => miss_plan(preset),
            Kind::Hit => hit_plan(preset),
        }
    }
}

/// One forecast query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub region: usize,
    pub category: usize,
    pub day: usize,
    pub horizon: usize,
}

impl Query {
    fn target(&self) -> String {
        format!(
            "/forecast?region={}&category={}&horizon={}&day={}",
            self.region, self.category, self.horizon, self.day
        )
    }
}

/// The request sequence (cycled) and the warm-up requests sent before it.
pub struct Plan {
    pub warm: Vec<Query>,
    pub cycle: Vec<Query>,
}

const CATEGORIES: usize = 4;

/// `serve-miss`: a seeded shuffle of the valid days, cycled. In every block
/// of ten requests three (at seeded positions) ask for horizon 4 and seven
/// for horizon 1, so any run holds the 70/30 mix. A `(day, horizon)` key
/// comes back only after a full cycle of days, which is longer than the
/// cache holds grids, so every request misses. Warm-up uses horizon 2, which
/// the cycle never asks for.
pub fn miss_plan(preset: &Preset) -> Plan {
    let mut rng = StdRng::seed_from_u64(preset.seed ^ 0x5345_5256_454d_4953);
    let mut days: Vec<usize> = (preset.dataset.window..preset.days()).collect();
    days.shuffle(&mut rng);
    let n = days.len();
    let len = n * 10; // whole blocks of ten and whole cycles of days
    let mut cycle = Vec::with_capacity(len);
    let mut block = [1usize, 1, 1, 1, 1, 1, 1, 4, 4, 4];
    for i in 0..len {
        if i % 10 == 0 {
            block.shuffle(&mut rng);
        }
        cycle.push(Query {
            region: rng.gen_range(0..preset.regions()),
            category: rng.gen_range(0..CATEGORIES),
            day: days[i % n],
            horizon: block[i % 10],
        });
    }
    let warm = (0..2).map(|i| Query { horizon: 2, ..cycle[i] }).collect();
    Plan { warm, cycle }
}

/// `serve-hit`: every region × category of the default day at horizons
/// 1–4 in a seeded order. Warm-up fills the four grids, then runs a few
/// dozen requests through the hit path.
pub fn hit_plan(preset: &Preset) -> Plan {
    let day = preset.days() - 1;
    let mut cycle = Vec::new();
    for horizon in 1..=4 {
        for region in 0..preset.regions() {
            for category in 0..CATEGORIES {
                cycle.push(Query { region, category, day, horizon });
            }
        }
    }
    cycle.shuffle(&mut StdRng::seed_from_u64(preset.seed ^ 0x5345_5256_4548_4954));
    let mut warm: Vec<Query> =
        (1..=4).map(|horizon| Query { region: 0, category: 0, day, horizon }).collect();
    warm.extend(cycle.iter().take(60));
    Plan { warm, cycle }
}

/// One HTTP/1.1 round trip; returns the raw response.
fn round_trip(addr: SocketAddr, target: &str) -> Result<Vec<u8>, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT)).map_err(|e| e.to_string())?;
    let msg = format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(msg.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::with_capacity(512);
    stream.read_to_end(&mut raw).map_err(|e| format!("receive: {e}"))?;
    Ok(raw)
}

/// Status code and body of a raw response.
fn split_response(raw: &[u8]) -> Result<(u16, &str), String> {
    let text = std::str::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response has no header end")?;
    let status = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok((status, body))
}

/// The forecast count a `/forecast` response carries for `q`, after
/// checking that the response is a 200 and echoes the query.
pub fn forecast_value(raw: &[u8], q: &Query) -> Result<f32, String> {
    let (status, body) = split_response(raw)?;
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let doc = sthsl_obs::parse_json(body).map_err(|e| format!("body is not JSON: {e}"))?;
    let item = match doc.get("forecasts").and_then(|f| f.as_arr()) {
        Some([item]) => item,
        _ => return Err(format!("expected one forecast in {body}")),
    };
    let field = |key: &str| item.get(key).and_then(sthsl_obs::Json::as_u64);
    let echoed = (field("region"), field("category_index"), field("day"), field("horizon"));
    let want = (q.region, q.category, q.day, q.horizon);
    let want = (Some(want.0 as u64), Some(want.1 as u64), Some(want.2 as u64), Some(want.3 as u64));
    if echoed != want {
        return Err(format!("response {body} does not echo query {q:?}"));
    }
    let count = item.get("count").and_then(sthsl_obs::Json::as_f64).ok_or("no count")?;
    Ok(count as f32)
}

/// Check a response against the expected value, bit for bit.
pub fn verify(raw: &[u8], q: &Query, expected: f32) -> Result<(), String> {
    let got = forecast_value(raw, q)?;
    if got.to_bits() == expected.to_bits() {
        Ok(())
    } else {
        Err(format!("{q:?}: served {got:e}, reference {expected:e}"))
    }
}

/// Counters the server reports on `GET /metrics`.
#[derive(Debug, Clone, Copy)]
pub struct ServerCounters {
    pub requests: u64,
    pub batches: u64,
    pub forwards: u64,
    pub hits: u64,
    pub misses: u64,
    pub p50_ms: f64,
}

fn server_counters(addr: SocketAddr) -> Result<ServerCounters, String> {
    let raw = round_trip(addr, "/metrics")?;
    let (status, body) = split_response(&raw)?;
    let doc = sthsl_obs::parse_json(body).map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics status {status}"));
    }
    let count = |key: &str| {
        doc.get(key).and_then(sthsl_obs::Json::as_u64).ok_or(format!("/metrics: no count {key}"))
    };
    Ok(ServerCounters {
        requests: count("requests")?,
        batches: count("batches")?,
        forwards: count("forwards")?,
        hits: count("cache_hits")?,
        misses: count("cache_misses")?,
        p50_ms: doc.get("p50_ms").and_then(sthsl_obs::Json::as_f64).unwrap_or(f64::NAN),
    })
}

/// Publish a checkpoint exported from a freshly initialised model, the way
/// a trained model is handed to `sthsl serve`.
pub fn export_checkpoint(preset: &Preset, dir: &Path) -> Result<(), String> {
    let data = preset.data().map_err(|e| e.to_string())?;
    let model = preset.model(&data).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    model.export_checkpoint().save(dir.join(checkpoint_file_name(1))).map_err(|e| e.to_string())
}

/// The serving engine as `sthsl serve --checkpoint-dir` builds it: data
/// generation, verified checkpoint load, the `install_params` check and the
/// serving audit.
pub fn load_engine(preset: &Preset, dir: &Path) -> Result<(ForecastEngine, PathBuf), String> {
    let data = preset.data().map_err(|e| e.to_string())?;
    ForecastEngine::from_checkpoint_dir(
        &RealIo,
        dir,
        preset.model.clone(),
        data,
        MAX_HORIZON,
        RetryPolicy::default_read(),
        &ThreadSleeper,
    )
    .map_err(|e| e.to_string())
}

/// What the server thread reports after each response.
#[derive(Debug, Clone, Copy)]
struct Ready {
    /// The latest seconds per reference pass.
    pass_s: f64,
    /// CPU seconds the server thread spent on the request.
    cpu_s: f64,
}

/// Set-up figures: the address, scaled seconds per set-up repetition and
/// seconds per reference pass, or why set-up failed.
type Started = Result<(SocketAddr, Vec<f64>, f64), String>;

/// State the server thread shares with the client. The repository's lint
/// keeps channels and locks out of non-test code, so the hand-off is atomics
/// and a `OnceLock`, and the client polls.
#[derive(Default)]
struct Shared {
    started: OnceLock<Started>,
    stop: AtomicBool,
    /// Set when the server thread ends.
    done: AtomicBool,
    /// Responses written; bumped once the server thread is ready for the
    /// next request, after `pass_bits` and `cpu_bits` describe this one.
    /// The bump is a `Release` after their `Relaxed` stores, and the client
    /// reads it with `Acquire` before loading them, so it sees those stores.
    served: AtomicU64,
    pass_bits: AtomicU64,
    cpu_bits: AtomicU64,
}

/// A server running on its own thread.
pub struct Running<'a> {
    pub addr: SocketAddr,
    /// Scaled seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds per reference pass, calibrated on the server thread after
    /// set-up.
    pub pass_s: f64,
    shared: &'a Shared,
}

/// Set the server up `reps` times (keeping the last), then serve until
/// `shared.stop`, calibrating the host speed between requests.
fn serve_thread(preset: &Preset, dir: &Path, reps: usize, shared: &Shared) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(reps);
    let mut server = None;
    let mut clock = SpeedClock::new();
    for _ in 0..reps.max(1) {
        let t0 = clock.now();
        let bound = load_engine(preset, dir).and_then(|(engine, path)| {
            let cfg = ServerConfig {
                city: "nyc".into(),
                cache_capacity: preset.cache_capacity,
                max_horizon: MAX_HORIZON,
                checkpoint_dir: Some(dir.to_path_buf()),
                // `run` returns after each response so this thread can
                // calibrate and notice the stop flag; one closed-loop client
                // never has more than one request in a batch anyway.
                max_requests: Some(1),
                ..ServerConfig::default()
            };
            Server::bind(engine, cfg, Some(path), None).map_err(|e| e.to_string())
        });
        setup_s.push(clock.now() - t0);
        server = Some(bound);
    }
    let mut server = match server {
        Some(Ok(s)) => s,
        Some(Err(e)) => {
            let _ = shared.started.set(Err(e.clone()));
            return Err(e);
        }
        None => return Err("no set-up ran".into()),
    };
    let mut reference = Reference::new();
    let mut pass_s = reference.calibrate();
    let mut calibrated = Instant::now();
    let _ = shared.started.set(Ok((server.local_addr(), setup_s, pass_s)));
    let mut cpu_mark = thread_cpu_s();
    while !shared.stop.load(Ordering::SeqCst) {
        server.run().map_err(|e| e.to_string())?;
        let cpu_s = thread_cpu_s() - cpu_mark;
        if calibrated.elapsed() >= CALIBRATE_EVERY {
            pass_s = reference.calibrate();
            calibrated = Instant::now();
        }
        shared.pass_bits.store(pass_s.to_bits(), Ordering::Relaxed);
        shared.cpu_bits.store(cpu_s.to_bits(), Ordering::Relaxed);
        cpu_mark = thread_cpu_s();
        shared.served.fetch_add(1, Ordering::Release);
    }
    Ok(())
}

/// Stops the server when dropped, also when the client panics.
struct StopOnDrop<'a>(&'a Shared, SocketAddr);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so `run` returns and sees the flag.
        let _ = round_trip(self.1, "/healthz");
    }
}

/// Set the server up `reps` times (keeping the last) on a thread of its
/// own, hand it to `client`, then stop it and wait for the thread. Returns
/// what `client` returned and how the server thread ended.
pub fn with_server<T>(
    preset: &Preset,
    dir: &Path,
    reps: usize,
    client: impl FnOnce(&Running) -> T,
) -> Result<(T, Result<(), String>), String> {
    let shared = Shared::default();
    std::thread::scope(|scope| {
        let thread = scope.spawn(|| {
            let result = serve_thread(preset, dir, reps, &shared);
            shared.done.store(true, Ordering::SeqCst);
            result
        });
        let started = loop {
            if let Some(started) = shared.started.get() {
                break started.clone();
            }
            if shared.done.load(Ordering::SeqCst) && shared.started.get().is_none() {
                break Err("server thread ended during set-up".into());
            }
            std::thread::sleep(POLL);
        };
        let (addr, setup_s, pass_s) = match started {
            Ok(started) => started,
            Err(e) => {
                let _ = thread.join();
                return Err(e);
            }
        };
        let out = {
            let _stop = StopOnDrop(&shared, addr);
            client(&Running { addr, setup_s, pass_s, shared: &shared })
        };
        let stopped = thread.join().unwrap_or_else(|_| Err("server thread panicked".into()));
        Ok((out, stopped))
    })
}

impl Running<'_> {
    /// Run one client exchange with the server, then wait until the server
    /// thread is ready for the next; `None` if it never answered.
    fn exchange<T>(&self, f: impl FnOnce() -> T) -> (T, Option<Ready>) {
        let shared = self.shared;
        let before = shared.served.load(Ordering::Acquire);
        let out = f();
        let deadline = Instant::now() + CLIENT_TIMEOUT;
        while shared.served.load(Ordering::Acquire) == before {
            if shared.done.load(Ordering::SeqCst) || Instant::now() >= deadline {
                return (out, None);
            }
            std::thread::sleep(POLL);
        }
        let ready = Ready {
            pass_s: f64::from_bits(shared.pass_bits.load(Ordering::Relaxed)),
            cpu_s: f64::from_bits(shared.cpu_bits.load(Ordering::Relaxed)),
        };
        (out, Some(ready))
    }
}

/// What the client saw.
pub struct Load {
    /// Scaled seconds per timed request; infinite for a failed one.
    pub latency_s: Vec<f64>,
    /// Wall-clock seconds per timed request; infinite for a failed one.
    pub wall_latency_s: Vec<f64>,
    /// Index into the plan's cycle of each timed request.
    pub sent: Vec<usize>,
    /// Raw response of each timed request that returned 200.
    pub responses: Vec<Option<Vec<u8>>>,
    pub warm_ups: usize,
    /// One line per failed request (non-200, socket error or timeout),
    /// warm-up included.
    pub errors: Vec<String>,
    /// Scaled seconds of the timed requests together.
    pub scaled_s: f64,
    /// Median host speed over the timed phase, 1.0 being nominal.
    pub host_speed: f64,
    /// Server counters over the timed requests.
    pub server: Result<ServerCounters, String>,
}

/// When the timed phase ends.
pub enum Until {
    Seconds(f64),
    Requests(usize),
}

/// A 200 response, or why the request failed.
fn forecast_round_trip(addr: SocketAddr, q: &Query) -> Result<Vec<u8>, String> {
    let raw = round_trip(addr, &q.target())?;
    match split_response(&raw)? {
        (200, _) => Ok(raw),
        (status, body) => Err(format!("status {status}: {body}")),
    }
}

/// Warm up, then send the plan's cycle from one closed-loop client.
pub fn drive(server: &Running, plan: &Plan, until: &Until) -> Load {
    let addr = server.addr;
    let mut errors = Vec::new();
    let mut pass_s = server.pass_s;
    for q in &plan.warm {
        let (result, ready) = server.exchange(|| forecast_round_trip(addr, q));
        pass_s = ready.map_or(pass_s, |r| r.pass_s);
        if let Err(e) = result {
            errors.push(format!("warm-up {q:?}: {e}"));
        }
    }
    let (before, _) = server.exchange(|| server_counters(addr));
    let (mut latency_s, mut wall_latency_s) = (Vec::new(), Vec::new());
    let (mut sent, mut responses, mut passes) = (Vec::new(), Vec::new(), vec![pass_s]);
    let mut scaled_s = 0.0;
    let t0 = Instant::now();
    loop {
        let i = sent.len();
        let done = match *until {
            Until::Seconds(s) => secs(t0) >= s,
            Until::Requests(n) => i >= n,
        };
        if done {
            break;
        }
        let index = i % plan.cycle.len();
        let q = &plan.cycle[index];
        let ((result, elapsed, client_cpu), ready) = server.exchange(|| {
            let cpu = thread_cpu_s();
            let t = Instant::now();
            let result = forecast_round_trip(addr, q);
            let elapsed = secs(t);
            (result, elapsed, thread_cpu_s() - cpu)
        });
        let after = ready.map_or(pass_s, |r| r.pass_s);
        let cpu = client_cpu + ready.map_or(f64::NAN, |r| r.cpu_s);
        let scaled = scale(elapsed, cpu, 0.5 * (speed(pass_s) + speed(after)));
        pass_s = after;
        passes.push(pass_s);
        scaled_s += scaled;
        let failed = |v: f64| if result.is_ok() { v } else { f64::INFINITY };
        latency_s.push(failed(scaled));
        wall_latency_s.push(failed(elapsed));
        if let Err(e) = &result {
            errors.push(format!("{q:?}: {e}"));
        }
        sent.push(index);
        responses.push(result.ok());
    }
    let (after, _) = server.exchange(|| server_counters(addr));
    let counters = before.and_then(|b| {
        let a = after?;
        // The first `/metrics` request is counted after its response.
        Ok(ServerCounters {
            requests: a.requests.saturating_sub(b.requests + 1),
            batches: a.batches.saturating_sub(b.batches + 1),
            forwards: a.forwards - b.forwards,
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            p50_ms: a.p50_ms,
        })
    });
    Load {
        latency_s,
        wall_latency_s,
        sent,
        responses,
        warm_ups: plan.warm.len(),
        errors,
        scaled_s,
        host_speed: speed(median(&passes)),
        server: counters,
    }
}

pub fn run(kind: Kind, size: Size, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    let preset = Preset::new(size, seed);
    let scratch = match Scratch::new("serve") {
        Ok(s) => s,
        Err(e) => return report.fail(format!("scratch dir: {e}")),
    };
    let dir = scratch.0.join("ckpt");
    if let Err(e) = export_checkpoint(&preset, &dir) {
        return report.fail(format!("exporting the checkpoint: {e}"));
    }
    let plan = kind.plan(&preset);
    let served = with_server(&preset, &dir, SETUP_REPS, |server| {
        (median(&server.setup_s), drive(server, &plan, &Until::Seconds(seconds)))
    });
    let ((setup_s, load), stopped) = match served {
        Ok(s) => s,
        Err(e) => return report.fail(format!("server set-up: {e}")),
    };
    let rss = peak_rss_mb();

    report.attempted = (load.warm_ups + load.latency_s.len()) as u64;
    report.failed = load.errors.len() as u64;
    report.check(stopped.is_ok(), || format!("server shutdown: {stopped:?}"));
    match (&load.server, kind) {
        (Ok(s), Kind::Miss) => report.check(s.hits == 0 && s.misses >= s.requests, || {
            format!("serve-miss was served from the cache: {s:?}")
        }),
        (Ok(s), Kind::Hit) => report
            .check(s.forwards == 0 && s.misses == 0, || format!("serve-hit ran the model: {s:?}")),
        (Err(e), _) => report.check(false, || format!("/metrics: {e}")),
    }
    check_responses(&mut report, kind, &preset, &dir, &plan, &load);

    let succeeded = load.latency_s.iter().filter(|l| l.is_finite()).count();
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("latency_ms_p50", percentile(&load.latency_s, 0.5) * 1e3, "ms");
    report.metric("latency_ms_tail", percentile(&load.latency_s, TAIL_Q) * 1e3, "ms");
    report.metric("ops_per_s", succeeded as f64 / load.scaled_s, "1/s");
    report.note("op", "GET /forecast, connect to full response");
    report.note("latency_ms_tail", format!("p{}", (TAIL_Q * 100.0).round()));
    report.note("host_speed", format!("{:.3}", load.host_speed));
    report
        .note("wall_latency_ms_p50", format!("{:.3}", percentile(&load.wall_latency_s, 0.5) * 1e3));
    if let Ok(s) = &load.server {
        report.note("server", format!("{s:?}"));
    }
    if let Some(first) = load.errors.first() {
        report.note("first_failure", first);
    }
    report
}

/// Bit-compare responses with `ForecastEngine::grid_forecast` and, at
/// horizon 1, with the offline `Predictor::predict`, on an engine loaded
/// afresh from the same checkpoint.
fn check_responses(
    report: &mut Report,
    kind: Kind,
    preset: &Preset,
    dir: &Path,
    plan: &Plan,
    load: &Load,
) {
    let engine = match load_engine(preset, dir) {
        Ok((engine, _)) => engine,
        Err(e) => return report.check(false, || format!("reference engine: {e}")),
    };
    let mut picked: Vec<usize> =
        (0..load.sent.len()).filter(|&i| load.responses[i].is_some()).collect();
    if kind == Kind::Miss {
        picked.shuffle(&mut StdRng::seed_from_u64(preset.seed));
        picked.truncate(MISS_CHECKS);
        picked.sort_unstable();
    }
    let mut grids = std::collections::BTreeMap::new();
    let mut checked = 0;
    for i in picked {
        let q = plan.cycle[load.sent[i]];
        let grid = grids
            .entry((q.day, q.horizon))
            .or_insert_with(|| engine.grid_forecast(q.day, q.horizon).map_err(|e| e.to_string()));
        let expected = match grid {
            Ok(g) => g.at(&[q.region, q.category]),
            Err(e) => return report.check(false, || format!("reference forecast {q:?}: {e}")),
        };
        let Some(raw) = &load.responses[i] else { continue };
        if let Err(e) = verify(raw, &q, expected) {
            return report.check(false, || format!("response {i}: {e}"));
        }
        checked += 1;
    }
    // Horizon 1 is the offline predictor's forecast, bit for bit.
    for (&(day, horizon), grid) in &grids {
        let (Ok(grid), 1) = (grid, horizon) else { continue };
        let offline =
            engine.data().sample(day).and_then(|s| engine.model().predict(engine.data(), &s.input));
        let same = offline.as_ref().is_ok_and(|o| {
            o.data().iter().zip(grid.data()).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        report
            .check(same, || format!("grid_forecast(day {day}, 1) differs from Predictor::predict"));
    }
    report.check(checked > 0, || "no response was checked".into());
    report.note("responses_checked", checked);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny server, `n` checked `serve-hit` requests, and the plan used.
    fn tiny_hit_load(n: usize) -> (Preset, Scratch, Plan, Load) {
        let preset = Preset::new(Size::Tiny, 9);
        let scratch = Scratch::new(&format!("test-{n}")).unwrap();
        let dir = scratch.0.join("ckpt");
        export_checkpoint(&preset, &dir).unwrap();
        let plan = hit_plan(&preset);
        let (load, stopped) =
            with_server(&preset, &dir, 1, |server| drive(server, &plan, &Until::Requests(n)))
                .unwrap();
        stopped.unwrap();
        assert!(load.errors.is_empty() && load.server.is_ok(), "{:?}", load.errors);
        (preset, scratch, plan, load)
    }

    /// Change the leading digit of the first `"count":` value, so the value
    /// moves by at least 1 and no rounding to `f32` can hide it.
    fn corrupt_count(raw: &[u8]) -> Vec<u8> {
        let text = String::from_utf8(raw.to_vec()).unwrap();
        let at = text.find("\"count\":").unwrap() + "\"count\":".len();
        let mut bytes = text.into_bytes();
        bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
        bytes
    }

    #[test]
    fn a_corrupted_response_fails_the_correctness_check() {
        let (preset, scratch, plan, mut load) = tiny_hit_load(6);
        let dir = scratch.0.join("ckpt");
        let mut clean = Report::new();
        check_responses(&mut clean, Kind::Hit, &preset, &dir, &plan, &load);
        assert!(clean.correct, "{:?}", clean.problems);

        let raw = load.responses[3].clone().unwrap();
        load.responses[3] = Some(corrupt_count(&raw));
        let mut corrupted = Report::new();
        check_responses(&mut corrupted, Kind::Hit, &preset, &dir, &plan, &load);
        assert!(!corrupted.correct, "a corrupted count passed the check");
        assert!(corrupted.problems[0].contains("response 3"), "{:?}", corrupted.problems);
    }

    #[test]
    fn responses_must_be_200_and_echo_the_query() {
        let (_preset, _scratch, plan, load) = tiny_hit_load(2);
        let q = plan.cycle[load.sent[0]];
        let raw = load.responses[0].clone().unwrap();
        let value = forecast_value(&raw, &q).unwrap();
        assert!(verify(&raw, &q, value).is_ok());
        assert!(verify(&raw, &q, f32::from_bits(value.to_bits() ^ 1)).is_err());
        let other = Query { region: (q.region + 1) % 16, ..q };
        assert!(forecast_value(&raw, &other).is_err(), "a mismatched echo passed");
        let not_found = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\n{}";
        assert!(forecast_value(not_found, &q).is_err());
    }

    #[test]
    fn every_serve_miss_request_is_a_new_key_for_the_cache() {
        for size in [Size::Tiny, Size::Quick] {
            let preset = Preset::new(size, 4);
            let plan = miss_plan(&preset);
            let tiles_per_grid = preset.regions().div_ceil(4);
            let grids_cached = preset.cache_capacity / tiles_per_grid;
            let keys: Vec<(usize, usize)> = plan.cycle.iter().map(|q| (q.day, q.horizon)).collect();
            // Cycle twice so the wrap-around is covered too.
            let twice: Vec<_> = keys.iter().chain(&keys).collect();
            for (i, k) in twice.iter().enumerate() {
                let window = &twice[i.saturating_sub(grids_cached)..i];
                assert!(!window.contains(k), "{size:?}: request {i} repeats {k:?}");
            }
            let h4 = keys.iter().filter(|k| k.1 == 4).count();
            assert_eq!(h4 * 10, keys.len() * 3, "horizon mix is not 70/30");
            assert!(plan.warm.iter().all(|q| q.horizon == 2));
        }
    }
}
