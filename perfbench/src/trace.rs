//! The traced run: per-layer numbers, each measured from outside the
//! program by timing calls into that layer's public functions.
//!
//! - `core.*`: each `sthsl-core` component built standalone (`new`) at the
//!   workload's shapes, then `forward` and `Graph::backward` timed apart;
//!   one whole training sample and one `StHsl::predict`.
//! - `tensor.*`: a `TapeProfiler` attached through `Graph::set_observer`
//!   while training samples run; rows per sample.
//! - `autograd.*`: `Graph::backward`, `Adam::step`, checkpoint save and
//!   `load_latest_verified`; tape sizes.
//! - `graphcheck.*`: `StHsl::graph_audit` and the serving audit.
//! - `data.*`: city generation, windowing and `CrimeDataset::sample`.
//! - `serve.*`: `ForecastEngine::grid_forecast`, `http::read_request` /
//!   `write_response`, `ForecastCache::get` / `insert`, and `/metrics` of a
//!   short `serve-miss` session and a short `serve-hit` session.
//!
//! Every traced run performs the same sweep, whatever the workload, so each
//! per-layer metric exists in every run.

use crate::report::{median, Report};
use crate::serve::{self, Kind, Until};
use crate::setup::{ms, Preset, Scratch, Size};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use sthsl_autograd::optim::{Adam, Optimizer};
use sthsl_autograd::{
    checkpoint_file_name, load_latest_verified, Checkpoint, Graph, ParamStore, ParamVars,
    TapeObserver, TapePhase, TrainerState, Var,
};
use sthsl_chaos::{RealIo, RetryPolicy, ThreadSleeper};
use sthsl_core::contrastive::contrastive_loss;
use sthsl_core::embedding::CrimeEmbedding;
use sthsl_core::global_temporal::GlobalTemporal;
use sthsl_core::hypergraph::HypergraphEncoder;
use sthsl_core::infomax::InfomaxHead;
use sthsl_core::local::LocalEncoder;
use sthsl_core::predict::PredictionHead;
use sthsl_core::StHsl;
use sthsl_data::{CrimeDataset, Predictor, Split};
use sthsl_graphcheck::AuditOptions;
use sthsl_obs::{Json, TapeProfiler, WallClock};
use sthsl_serve::{read_request, write_response, ForecastCache, TileEntry, TileKey};
use sthsl_tensor::Tensor;

/// Tensor ops reported by name; the rest of the profile is `tensor.other_ms`.
/// `batched_matmul` is left out: the default sparse propagation never runs it.
const OPS: [&str; 10] = [
    "conv2d",
    "conv1d",
    "sparse_matmul",
    "matmul",
    "permute",
    "leaky_relu",
    "dropout",
    "reshape",
    "mul",
    "add",
];

/// Repetitions of each timed call (medians are reported).
const REPS: usize = 7;
/// Requests in the traced `serve-miss` and `serve-hit` sessions.
const MISS_REQUESTS: usize = 30;
const HIT_REQUESTS: usize = 400;

/// Median of `reps` timings of `f`, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            ms(t)
        })
        .collect();
    median(&times)
}

/// Median per-call time in microseconds of `f`, called `calls` times per
/// sample over `samples` samples.
fn time_us(samples: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|s| {
            let t = Instant::now();
            for c in 0..calls {
                f(s * calls + c);
            }
            ms(t) * 1e3 / calls as f64
        })
        .collect();
    median(&times)
}

type Fallible<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn run(size: Size, seed: u64) -> Report {
    let mut report = Report::new();
    if let Err(e) = sweep(&mut report, size, seed) {
        report.failed += 1;
        report.check(false, || e);
    }
    report
}

fn sweep(report: &mut Report, size: Size, seed: u64) -> Fallible<()> {
    let preset = Preset::new(size, seed);
    data_layer(report, &preset)?;
    let data = preset.data().map_err(err)?;
    let model = preset.model(&data).map_err(err)?;
    audits(report, &model, &data)?;
    training_sample(report, &preset, &model, &data)?;
    components(report, &preset, &model, &data)?;
    serving(report, &preset, &model, &data)?;
    Ok(())
}

fn data_layer(report: &mut Report, preset: &Preset) -> Fallible<()> {
    let mut city = None;
    report.metric("data.synth_ms", time_ms(REPS, || city = Some(preset.city())), "ms");
    let city = city.ok_or("no city")?.map_err(err)?;
    let mut data = None;
    report.metric("data.dataset_ms", time_ms(REPS, || data = Some(preset.dataset(&city))), "ms");
    let data = data.ok_or("no dataset")?.map_err(err)?;
    let days = data.target_days(Split::Train);
    let mut failures = 0;
    let us = time_us(20, days.len().min(50), |i| {
        let day = days[i % days.len()];
        match data.sample(day) {
            Ok(s) => {
                black_box(data.zscore(&s.input));
            }
            Err(_) => failures += 1,
        }
    });
    report.metric("data.sample_us", us, "us");
    report.attempted += 2 * REPS as u64 + 20;
    report.failed += failures;
    Ok(())
}

/// Audit the serving tape as `ForecastEngine` does at startup.
fn serve_audit(model: &StHsl, data: &CrimeDataset) -> Fallible<sthsl_graphcheck::AuditReport> {
    let (g, root, params) = model.serving_artifacts(data).map_err(err)?;
    let indexed: Vec<(String, usize)> =
        params.iter().map(|(n, v)| (n.clone(), v.index())).collect();
    let opts = AuditOptions {
        allow_unreachable: model.expected_serving_inactive_prefixes(),
        ..AuditOptions::default()
    };
    Ok(sthsl_graphcheck::audit("ST-HSL", &g.export_tape(), root.index(), &indexed, &opts))
}

fn audits(report: &mut Report, model: &StHsl, data: &CrimeDataset) -> Fallible<()> {
    let mut clean = true;
    let train = time_ms(3, || clean &= model.graph_audit(data).is_ok_and(|a| !a.has_errors()));
    let serve = time_ms(3, || clean &= serve_audit(model, data).is_ok_and(|a| !a.has_errors()));
    report.check(clean, || "graph audit reported errors".into());
    report.metric("graphcheck.train_audit_ms", train, "ms");
    report.metric("graphcheck.serve_audit_ms", serve, "ms");
    report.attempted += 6;
    Ok(())
}

/// Counts the forward notifications of one recording.
#[derive(Default)]
struct NodeCounter(std::cell::Cell<usize>);

impl TapeObserver for NodeCounter {
    fn on_op(&self, _name: &'static str, phase: TapePhase, _bytes: usize) {
        if phase == TapePhase::Forward {
            self.0.set(self.0.get() + 1);
        }
    }
}

/// One training sample (`record_training_graph` + `Graph::backward`), plain
/// and under a `TapeProfiler`; one `StHsl::predict`; tape sizes.
fn training_sample(
    report: &mut Report,
    preset: &Preset,
    model: &StHsl,
    data: &CrimeDataset,
) -> Fallible<()> {
    let sample = |observer: Option<Rc<dyn TapeObserver>>| -> Fallible<(f64, f64)> {
        let g = Graph::training(preset.seed);
        if let Some(obs) = observer {
            g.set_observer(obs);
        }
        let t = Instant::now();
        let (loss, _) = model.record_training_graph(&g, data).map_err(err)?;
        let fwd = ms(t);
        let t = Instant::now();
        black_box(g.backward(loss).map_err(err)?);
        Ok((fwd, ms(t)))
    };
    sample(None)?; // warm-up
    let mut total = Vec::new();
    let mut backward = Vec::new();
    for _ in 0..REPS {
        let (f, b) = sample(None)?;
        total.push(f + b);
        backward.push(b);
    }
    let profiler = TapeProfiler::shared(Rc::new(WallClock::new()));
    let mut profiled = Vec::new();
    for _ in 0..REPS {
        profiler.mark();
        let (f, b) = sample(Some(Rc::clone(&profiler) as Rc<dyn TapeObserver>))?;
        profiled.push(f + b);
    }
    let plain_ms = median(&total);
    report.metric("core.train_sample_ms", plain_ms, "ms");
    report.metric("autograd.backward_ms", median(&backward), "ms");
    report.metric(
        "obs.profiler_overhead_pct",
        (median(&profiled) - plain_ms) / plain_ms * 100.0,
        "%",
    );

    let rows = profiler.report(usize::MAX).rows;
    let mut per_op: BTreeMap<(String, TapePhase), f64> = BTreeMap::new();
    let mut other = 0.0;
    for row in &rows {
        let row_ms = row.total_ns as f64 / 1e6 / REPS as f64;
        if OPS.contains(&row.name.as_str()) {
            per_op.insert((row.name.clone(), row.phase), row_ms);
        } else {
            other += row_ms;
        }
    }
    for op in OPS {
        for (phase, suffix) in [(TapePhase::Forward, "fwd_ms"), (TapePhase::Backward, "bwd_ms")] {
            let v = per_op.get(&(op.to_string(), phase)).copied().unwrap_or(0.0);
            report.metric(format!("tensor.{op}.{suffix}"), v, "ms");
        }
    }
    report.metric("tensor.other_ms", other, "ms");

    // Tape sizes, cross-checked: the recording the profiler watched, the
    // tape the audit exports, and the model `train` runs.
    let counter = Rc::new(NodeCounter::default());
    let g = Graph::training(preset.seed);
    g.set_observer(Rc::clone(&counter) as Rc<dyn TapeObserver>);
    model.record_training_graph(&g, data).map_err(err)?;
    let train_nodes = g.node_count();
    let (audit_g, _, _) = model.audit_artifacts(data).map_err(err)?;
    let audited = audit_g.export_tape().nodes.len();
    report.check(counter.0.get() == train_nodes && audited == train_nodes, || {
        format!(
            "training tape sizes disagree: recorded {train_nodes}, observed {}, audited {audited}",
            counter.0.get()
        )
    });
    let timed_model = crate::train::tape_nodes(model, data);
    report.check(timed_model == train_nodes, || {
        format!("train workload's model has {timed_model} tape nodes, traced {train_nodes}")
    });
    let (serve_g, _, _) = model.serving_artifacts(data).map_err(err)?;
    report.metric("autograd.tape_nodes.train", train_nodes as f64, "count");
    report.metric("autograd.tape_nodes.serve", serve_g.node_count() as f64, "count");

    let day = data.num_days() - 1;
    let window = data.sample(day).map_err(err)?.input;
    let mut ok = true;
    let forward = time_ms(REPS, || ok &= model.predict(data, &window).is_ok());
    report.check(ok, || "StHsl::predict failed".into());
    report.metric("core.forward_ms", forward, "ms");
    report.attempted += 4 * REPS as u64 + 2;
    Ok(())
}

/// Inputs of every component at the workload's shapes, from real data.
struct Inputs {
    zscored: Tensor,
    /// `[R, Tw, C, d]` embeddings.
    e: Tensor,
    /// `[Tw, R·C, d]` node layout, and a region-shuffled copy.
    e_flat: Tensor,
    e_flat_corrupt: Tensor,
    /// `[R, C, d]` temporally pooled embeddings.
    pooled: Tensor,
}

fn inputs(emb: &CrimeEmbedding, store: &ParamStore, data: &CrimeDataset) -> Fallible<Inputs> {
    let day = data.target_days(Split::Train).first().copied().ok_or("no training day")?;
    let zscored = data.zscore(&data.sample(day).map_err(err)?.input);
    let g = Graph::new();
    let pv = store.inject(&g);
    let e = g.value(emb.forward(&g, &pv, &zscored).map_err(err)?).as_ref().clone();
    let (r, tw, c, d) = (e.shape()[0], e.shape()[1], e.shape()[2], e.shape()[3]);
    let flat = |x: &Tensor| -> Fallible<Tensor> {
        x.permute(&[1, 0, 2, 3]).and_then(|p| p.reshape(&[tw, r * c, d])).map_err(err)
    };
    let reversed: Vec<usize> = (0..r).rev().collect();
    Ok(Inputs {
        e_flat: flat(&e)?,
        e_flat_corrupt: flat(&e.index_select(0, &reversed).map_err(err)?)?,
        pooled: e.mean_axis(1).map_err(err)?,
        zscored,
        e,
    })
}

/// Forward and backward of one component, timed apart, `REPS` times on
/// fresh training graphs.
fn fwd_bwd(
    report: &mut Report,
    name: &str,
    store: &ParamStore,
    seed: u64,
    forward: &dyn Fn(&Graph, &ParamVars) -> sthsl_tensor::Result<Var>,
) -> Fallible<()> {
    let mut fwd = Vec::with_capacity(REPS);
    let mut bwd = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let g = Graph::training(seed ^ rep as u64);
        let pv = store.inject(&g);
        let t = Instant::now();
        let out = forward(&g, &pv).map_err(|e| format!("{name} forward: {e}"))?;
        let f = ms(t);
        let root = if g.value(out).len() == 1 { out } else { g.sum_all(out) };
        let t = Instant::now();
        black_box(g.backward(root).map_err(|e| format!("{name} backward: {e}"))?);
        // Repetition 0 warms up allocations and is not reported.
        if rep > 0 {
            fwd.push(f);
            bwd.push(ms(t));
        }
    }
    report.metric(format!("core.{name}.fwd_ms"), median(&fwd), "ms");
    report.metric(format!("core.{name}.bwd_ms"), median(&bwd), "ms");
    report.attempted += 2 * REPS as u64;
    Ok(())
}

/// Each `sthsl-core` component built standalone, in the order `StHsl::new`
/// registers them, so the store matches the model's parameter table; then
/// `Adam::step` and a checkpoint save over that store.
fn components(
    report: &mut Report,
    preset: &Preset,
    model: &StHsl,
    data: &CrimeDataset,
) -> Fallible<()> {
    let cfg = &preset.model;
    let (rows, cols, c) = (data.rows, data.cols, data.num_categories());
    let (r, tw, d) = (rows * cols, data.config.window, cfg.d);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = ParamStore::new();
    let emb = CrimeEmbedding::new(&mut store, c, d, &mut rng);
    let local = LocalEncoder::new(&mut store, cfg, rows, cols, c, &mut rng);
    let hyper = HypergraphEncoder::new(
        &mut store,
        cfg.num_hyperedges,
        r * c,
        tw,
        cfg.time_dependent_hypergraph,
        cfg.sparse_propagation,
        &mut rng,
    );
    let temporal = GlobalTemporal::new(&mut store, cfg, &mut rng);
    let infomax = InfomaxHead::new(&mut store, d, &mut rng);
    let head = PredictionHead::new(&mut store, d, &mut rng);
    let table: Vec<(String, Vec<usize>)> = store
        .ids()
        .map(|id| (store.name(id).to_string(), store.get(id).shape().to_vec()))
        .collect();
    report.check(table == model.param_table(), || {
        "standalone components do not match the model's parameter table".into()
    });

    let x = inputs(&emb, &store, data)?;
    let seed = cfg.seed;
    fwd_bwd(report, "embedding", &store, seed, &|g, pv| emb.forward(g, pv, &x.zscored))?;
    fwd_bwd(report, "local", &store, seed, &|g, pv| local.forward(g, pv, g.leaf(x.e.clone())))?;
    fwd_bwd(report, "hypergraph", &store, seed, &|g, pv| {
        hyper.forward(g, pv, g.leaf(x.e_flat.clone()))
    })?;
    fwd_bwd(report, "global_temporal", &store, seed, &|g, pv| {
        temporal.forward(g, pv, g.leaf(x.e_flat.clone()))
    })?;
    fwd_bwd(report, "predict", &store, seed, &|g, pv| {
        head.forward(g, pv, g.leaf(x.pooled.clone()))
    })?;
    fwd_bwd(report, "infomax", &store, seed, &|g, pv| {
        let (a, b) = (g.leaf(x.e_flat.clone()), g.leaf(x.e_flat_corrupt.clone()));
        infomax.loss(g, pv, a, b, r, c)
    })?;
    fwd_bwd(report, "contrastive", &store, seed, &|g, _| {
        let (l, gl) = (g.leaf(x.pooled.clone()), g.leaf(x.pooled.clone()));
        contrastive_loss(g, l, gl, cfg.tau)
    })?;

    // Adam as the trainer configures it, over gradients for every parameter.
    let g = Graph::new();
    let pv = store.inject(&g);
    let mut loss = g.constant(Tensor::scalar(0.0));
    for &v in pv.all() {
        let s = g.sum_all(v);
        loss = g.add(loss, s).map_err(err)?;
    }
    let grads = g.backward(loss).map_err(err)?;
    let mut opt = Adam::with_weight_decay(cfg.lr, 2.0 * cfg.lambda3);
    opt.max_grad_norm = Some(5.0);
    let mut ok = true;
    let adam = time_ms(3 * REPS, || ok &= opt.step(&mut store, &pv, &grads).is_ok());
    report.check(ok, || "Adam::step failed".into());
    report.metric("autograd.adam_step_ms", adam, "ms");

    // A trainer checkpoint: parameters, Adam moments and counters.
    let scratch = Scratch::new("trace-ckpt").map_err(err)?;
    let ck = Checkpoint {
        params: store.clone(),
        adam: opt.export_state(),
        trainer: TrainerState { seed, ..TrainerState::default() },
    };
    let mut step = 0;
    let write = time_ms(REPS, || {
        step += 1;
        ok &= ck.save(scratch.0.join(checkpoint_file_name(step))).is_ok();
    });
    report.check(ok, || "checkpoint save failed".into());
    report.metric("autograd.checkpoint_write_ms", write, "ms");
    report.attempted += 4 * REPS as u64;
    Ok(())
}

fn serving(
    report: &mut Report,
    preset: &Preset,
    model: &StHsl,
    data: &CrimeDataset,
) -> Fallible<()> {
    let scratch = Scratch::new("trace-serve").map_err(err)?;
    let dir = scratch.0.join("ckpt");
    std::fs::create_dir_all(&dir).map_err(err)?;
    model.export_checkpoint().save(dir.join(checkpoint_file_name(1))).map_err(err)?;
    let mut ok = true;
    let load = time_ms(REPS, || {
        ok &= matches!(
            load_latest_verified(&RealIo, &dir, RetryPolicy::default_read(), &ThreadSleeper),
            Ok(Some(_))
        );
    });
    report.check(ok, || "load_latest_verified found no checkpoint".into());
    report.metric("autograd.checkpoint_load_ms", load, "ms");

    let (engine, _) = serve::load_engine(preset, &dir)?;
    // Days spread over the valid range, newest first.
    let (first, last) = (data.config.window, engine.default_day());
    let days: Vec<usize> = (0..REPS).map(|i| last - i * (last - first) / REPS).collect();
    let mut i = 0;
    let h1 = time_ms(REPS, || {
        i += 1;
        ok &= engine.grid_forecast(days[i - 1], 1).is_ok();
    });
    let mut i = 0;
    let h4 = time_ms(3, || {
        i += 1;
        ok &= engine.grid_forecast(days[i - 1], 4).is_ok();
    });
    report.check(ok, || "grid_forecast failed".into());
    report.metric("serve.engine.forecast_ms.h1", h1, "ms");
    report.metric("serve.engine.forecast_ms.h4", h4, "ms");

    http_and_cache(report, data)?;

    // Short sessions through the real server for the `/metrics` figures.
    let miss = session(preset, &dir, Kind::Miss, MISS_REQUESTS)?;
    let hit = session(preset, &dir, Kind::Hit, HIT_REQUESTS)?;
    let (m, h) = (miss.server?, hit.server?);
    report.check(h.forwards == 0 && m.hits == 0, || {
        format!("sessions did not hit/miss as designed: hit {h:?}, miss {m:?}")
    });
    report.metric("serve.cache.hit_rate", h.hits as f64 / (h.hits + h.misses) as f64, "ratio");
    report.metric("serve.forwards_per_request", m.forwards as f64 / m.requests as f64, "ratio");
    report.metric("serve.batch_size_mean", h.requests as f64 / h.batches as f64, "ratio");
    report.metric("serve.server_latency_ms_p50", h.p50_ms, "ms");
    let client_p50 = crate::report::percentile(&hit.wall_latency_s, 0.5) * 1e3;
    report.metric("serve.accept_wait_ms_p50", client_p50 - h.p50_ms, "ms");
    report.attempted += 3 * REPS as u64 + 3;
    Ok(())
}

fn session(preset: &Preset, dir: &std::path::Path, kind: Kind, n: usize) -> Fallible<serve::Load> {
    let plan = kind.plan(preset);
    let (load, stopped) = serve::with_server(preset, dir, 1, |server| {
        serve::drive(server, &plan, &Until::Requests(n))
    })?;
    stopped?;
    if let Some(e) = load.errors.first() {
        return Err(format!("{kind:?} session: {e}"));
    }
    Ok(load)
}

/// `http::read_request`, `write_response`, `ForecastCache::get` and
/// `insert` on inputs shaped like the workloads'.
fn http_and_cache(report: &mut Report, data: &CrimeDataset) -> Fallible<()> {
    let request =
        b"GET /forecast?region=17&category=2&horizon=1&day=120 HTTP/1.1\r\nHost: 127.0.0.1:8356\r\nConnection: close\r\n\r\n";
    let mut ok = true;
    let read =
        time_us(30, 200, |_| ok &= black_box(read_request(&mut &request[..], 256 * 1024)).is_ok());
    let body = Json::Obj(vec![
        ("city".into(), Json::Str("nyc".into())),
        (
            "forecasts".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("region".into(), Json::Int(17)),
                ("category".into(), Json::Str(data.category_names[2].clone())),
                ("category_index".into(), Json::Int(2)),
                ("day".into(), Json::Int(120)),
                ("horizon".into(), Json::Int(1)),
                ("count".into(), Json::Float(f64::from(0.123_456_79_f32))),
            ])]),
        ),
    ]);
    let mut sink = Vec::with_capacity(1024);
    let write = time_us(30, 200, |_| {
        sink.clear();
        ok &= write_response(&mut sink, 200, &body).is_ok();
    });
    report.check(ok, || "http read/write failed".into());
    report.metric("serve.http.read_request_us", read, "us");
    report.metric("serve.http.write_response_us", write, "us");

    // A full 1024-tile cache, as `serve-miss` leaves it: gets hit; inserts
    // of new keys evict.
    let (regions, c) = (4, data.num_categories());
    let key = |i: usize| TileKey { city: "nyc".into(), day: i / 16, horizon: 1, tile: i % 16 };
    let entry = TileEntry { region_start: 0, regions, counts: vec![0.5; regions * c] };
    let mut cache = ForecastCache::new(1024);
    for i in 0..1024 {
        cache.insert(key(i), entry.clone());
    }
    let mut hits = 0usize;
    let get = time_us(30, 500, |i| hits += usize::from(cache.get(&key(i % 1024)).is_some()));
    report.check(hits == 30 * 500, || format!("cache hits {hits} of {}", 30 * 500));
    let insert = time_us(30, 50, |i| cache.insert(key(1024 + i), entry.clone()));
    report.metric("serve.cache.get_us", get, "us");
    report.metric("serve.cache.insert_us", insert, "us");
    report.attempted += 4 * 30;
    Ok(())
}
