//! Implementation of the `sthsl` command-line interface.
//!
//! Kept in the library so the subcommands are directly testable; the binary
//! in `main.rs` is a thin shim around [`run`].

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "R6: the CLI owns stdout and stderr; the library crates report through return values"
)]

use crate::prelude::*;
use std::fmt::Write as _;
use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use sthsl_data::loader::{dataset_from_csv_lenient, GridSpec};
use sthsl_serve::{ForecastEngine, Server, ServerConfig};

/// A CLI failure, split by who got it wrong.
///
/// * [`CliError::Usage`] — the *invocation* is wrong: unknown command or
///   flag, malformed value, a missing required flag. The message carries a
///   usage hint and the process exits with code **2** (the conventional
///   "bad usage" status), never a Rust backtrace.
/// * [`CliError::Runtime`] — the invocation was fine but the work failed
///   (I/O error, failed audit, training fault). Exit code **1**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad invocation: exit code 2, message includes a usage pointer.
    Usage(String),
    /// The command ran and failed: exit code 1.
    Runtime(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    /// The process exit code `main` should terminate with.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

// Command bodies accumulate errors as plain strings (via
// `.map_err(|e| e.to_string())?`); anything not explicitly classified as a
// usage error is a runtime failure.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Runtime(msg.to_string())
    }
}

/// Parsed common flags.
#[derive(Debug)]
struct Flags {
    city: String,
    rows: usize,
    cols: usize,
    days: usize,
    window: usize,
    data: Option<String>,
    model: Option<String>,
    out: Option<String>,
    seed: u64,
    epochs: usize,
    checkpoint_dir: Option<String>,
    checkpoint_every: usize,
    resume: bool,
    patience: Option<usize>,
    threads: Option<usize>,
    trace_out: Option<String>,
    fake_clock: bool,
    top: usize,
    ranges: bool,
    cost: bool,
    addr: Option<String>,
    cache_capacity: usize,
    max_horizon: usize,
    batch_window_ms: u64,
    max_requests: Option<u64>,
    help: bool,
}

fn parse_value<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.parse().map_err(|_| format!("invalid value '{val}' for {key}"))
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        city: "nyc".into(),
        rows: 8,
        cols: 8,
        days: 240,
        window: 14,
        data: None,
        model: None,
        out: None,
        seed: 7,
        epochs: 12,
        checkpoint_dir: None,
        checkpoint_every: 0,
        resume: false,
        patience: None,
        threads: None,
        trace_out: None,
        fake_clock: false,
        top: 10,
        ranges: false,
        cost: false,
        addr: None,
        cache_capacity: 1024,
        max_horizon: 7,
        batch_window_ms: 2,
        max_requests: None,
        help: false,
    };
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        // Boolean flags consume one token; valued flags consume two. Each arm
        // advances `i` itself so an error can never walk past the end of
        // `args`, and every error names the offending token.
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1).ok_or_else(|| format!("flag {key} requires a value"))
        };
        match key {
            "--help" | "-h" => {
                f.help = true;
                i += 1;
            }
            "--resume" => {
                f.resume = true;
                i += 1;
            }
            "--city" => {
                f.city = value(i)?.clone();
                i += 2;
            }
            "--rows" => {
                f.rows = parse_value(key, value(i)?)?;
                i += 2;
            }
            "--cols" => {
                f.cols = parse_value(key, value(i)?)?;
                i += 2;
            }
            "--days" => {
                f.days = parse_value(key, value(i)?)?;
                i += 2;
            }
            "--window" => {
                f.window = parse_value(key, value(i)?)?;
                i += 2;
            }
            "--data" => {
                f.data = Some(value(i)?.clone());
                i += 2;
            }
            "--model" => {
                f.model = Some(value(i)?.clone());
                i += 2;
            }
            "--out" => {
                f.out = Some(value(i)?.clone());
                i += 2;
            }
            "--seed" => {
                f.seed = parse_value(key, value(i)?)?;
                i += 2;
            }
            "--epochs" => {
                f.epochs = parse_value(key, value(i)?)?;
                i += 2;
            }
            "--checkpoint-dir" => {
                f.checkpoint_dir = Some(value(i)?.clone());
                i += 2;
            }
            "--checkpoint-every" => {
                f.checkpoint_every = parse_value(key, value(i)?)?;
                i += 2;
            }
            "--patience" => {
                f.patience = Some(parse_value(key, value(i)?)?);
                i += 2;
            }
            "--threads" => {
                f.threads = Some(parse_value(key, value(i)?)?);
                i += 2;
            }
            "--trace-out" => {
                f.trace_out = Some(value(i)?.clone());
                i += 2;
            }
            "--fake-clock" => {
                f.fake_clock = true;
                i += 1;
            }
            "--top" => {
                f.top = parse_value(key, value(i)?)?;
                i += 2;
            }
            "--ranges" => {
                f.ranges = true;
                i += 1;
            }
            "--cost" => {
                f.cost = true;
                i += 1;
            }
            "--addr" => {
                f.addr = Some(value(i)?.clone());
                i += 2;
            }
            "--cache-capacity" => {
                f.cache_capacity = parse_value(key, value(i)?)?;
                i += 2;
            }
            "--max-horizon" => {
                f.max_horizon = parse_value(key, value(i)?)?;
                i += 2;
            }
            "--batch-window-ms" => {
                f.batch_window_ms = parse_value(key, value(i)?)?;
                i += 2;
            }
            "--max-requests" => {
                f.max_requests = Some(parse_value(key, value(i)?)?);
                i += 2;
            }
            other => return Err(format!("unknown flag '{other}' (run with --help for usage)")),
        }
    }
    Ok(f)
}

/// The synthetic grid uses a unit-degree bounding box so exported records
/// survive the CSV → rasterise round trip exactly.
fn grid_spec(rows: usize, cols: usize) -> GridSpec {
    GridSpec { lat_min: 0.0, lat_max: rows as f64, lon_min: 0.0, lon_max: cols as f64, rows, cols }
}

fn city_config(flags: &Flags) -> Result<SynthConfig, CliError> {
    let base = match flags.city.as_str() {
        "nyc" => SynthConfig::nyc_like(),
        "chi" | "chicago" => SynthConfig::chicago_like(),
        other => {
            return Err(CliError::usage(format!("unknown --city {other} (expected nyc|chi)")));
        }
    };
    let mut cfg = base.scaled(flags.rows, flags.cols, flags.days);
    cfg.seed ^= flags.seed;
    Ok(cfg)
}

fn categories_of(cfg: &SynthConfig) -> Vec<String> {
    cfg.categories.iter().map(|c| c.name.clone()).collect()
}

/// `simulate`: generate a city and export it as `category,day,lon,lat` rows.
fn cmd_simulate(flags: &Flags) -> Result<String, CliError> {
    let cfg = city_config(flags)?;
    let city = SynthCity::generate(&cfg).map_err(|e| e.to_string())?;
    let (r, t, c) = (city.num_regions(), city.num_days(), city.num_categories());
    let csv = city.export_csv();
    let path = flags.out.clone().unwrap_or_else(|| "crimes.csv".into());
    fs::write(&path, &csv).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} records ({} regions × {} days × {} categories) to {path}",
        csv.lines().count() - 1,
        r,
        t,
        c
    ))
}

fn load_dataset(flags: &Flags) -> Result<CrimeDataset, CliError> {
    let path = flags.data.as_ref().ok_or_else(|| CliError::usage("--data is required"))?;
    let file = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let cfg = city_config(flags)?;
    let cats = categories_of(&cfg);
    let cat_refs: Vec<&str> = cats.iter().map(std::string::String::as_str).collect();
    let (data, stats, diagnostics) = dataset_from_csv_lenient(
        BufReader::new(file),
        &grid_spec(flags.rows, flags.cols),
        &cat_refs,
        flags.days,
        DatasetConfig {
            window: flags.window,
            val_days: (flags.days / 20).max(5),
            train_fraction: 7.0 / 8.0,
        },
    )
    .map_err(|e| e.to_string())?;
    if stats.accepted == 0 {
        return Err("no records accepted — check grid/span flags".into());
    }
    eprintln!(
        "loaded {} records ({} out of bounds, {} unknown category, {} out of span, {} malformed)",
        stats.accepted,
        stats.out_of_bounds,
        stats.unknown_category,
        stats.out_of_span,
        stats.malformed
    );
    for diag in &diagnostics {
        eprintln!("  skipped {diag}");
    }
    if stats.malformed > diagnostics.len() {
        eprintln!("  ... and {} more malformed lines", stats.malformed - diagnostics.len());
    }
    Ok(data)
}

/// Dataset for the static-analysis commands: the given CSV, or a synthetic
/// city of the requested dimensions. The recorded graphs depend only on the
/// dataset's shape, not its counts, so the synthetic stand-in certifies the
/// real thing.
fn dataset_or_synth(flags: &Flags) -> Result<CrimeDataset, CliError> {
    if flags.data.is_some() {
        return load_dataset(flags);
    }
    let cfg = city_config(flags)?;
    let city = SynthCity::generate(&cfg).map_err(|e| e.to_string())?;
    CrimeDataset::from_city(
        &city,
        DatasetConfig {
            window: flags.window,
            val_days: (flags.days / 20).max(5),
            train_fraction: 7.0 / 8.0,
        },
    )
    .map_err(|e| CliError::Runtime(e.to_string()))
}

fn model_config(flags: &Flags) -> StHslConfig {
    StHslConfig {
        d: 8,
        num_hyperedges: 32,
        epochs: flags.epochs,
        batch_size: 4,
        max_batches_per_epoch: Some(12),
        lambda1: 0.1,
        lambda2: 0.03,
        time_dependent_hypergraph: false,
        seed: flags.seed,
        ..StHslConfig::paper()
    }
}

/// `train`: fit ST-HSL on a CSV dataset and persist the parameters, with the
/// full fault-tolerant runtime (checkpointing, resume, early stopping) wired
/// to the corresponding flags.
fn cmd_train(flags: &Flags) -> Result<String, CliError> {
    let data = load_dataset(flags)?;
    let mut model = StHsl::new(model_config(flags), &data).map_err(|e| e.to_string())?;
    let mut opts = TrainOptions::resilient();
    opts.checkpoint_dir = flags.checkpoint_dir.clone().map(PathBuf::from);
    opts.checkpoint_every = flags.checkpoint_every;
    opts.patience = flags.patience;
    if flags.resume {
        let dir = opts
            .checkpoint_dir
            .as_ref()
            .ok_or_else(|| CliError::usage("--resume requires --checkpoint-dir"))?;
        match latest_checkpoint(dir).map_err(|e| e.to_string())? {
            Some(ckpt) => opts.resume_from = Some(ckpt),
            None => eprintln!("no checkpoint found in {}; starting fresh", dir.display()),
        }
    }
    let outcome = match &flags.trace_out {
        Some(trace) => {
            let emitter = TraceEmitter::to_file(&RealIo, trace.as_ref(), Rc::new(WallClock::new()))
                .map_err(|e| format!("{trace}: {e}"))?;
            emitter.emit(&TraceEvent::Manifest {
                run: "train".into(),
                seed: flags.seed,
                args: vec![
                    ("city".into(), flags.city.clone()),
                    ("epochs".into(), flags.epochs.to_string()),
                ],
            });
            let mut hooks = TraceHooks::new(&emitter);
            let outcome = model.fit_with(&data, opts, &mut hooks).map_err(|e| e.to_string())?;
            emitter.flush().map_err(|e| format!("{trace}: {e}"))?;
            outcome
        }
        None => model.fit_with(&data, opts, &mut NoHooks).map_err(|e| e.to_string())?,
    };
    let path = flags.model.clone().unwrap_or_else(|| "model.bin".into());
    model.export_checkpoint().save(&path).map_err(|e| e.to_string())?;
    let report = &outcome.report;
    let mut msg = format!(
        "trained {} epochs in {:.1}s (final loss {:.4}); saved to {path}",
        report.epochs, report.train_seconds, report.final_loss
    );
    if let Some((epoch, batch)) = outcome.resumed_at {
        let _ = write!(msg, "\nresumed from epoch {epoch}, batch {batch}");
    }
    if outcome.early_stopped {
        let _ = write!(
            msg,
            "\nearly-stopped (best validation loss {:.4})",
            outcome.best_val.unwrap_or(f64::NAN)
        );
    }
    if outcome.divergence_events > 0 {
        let _ = write!(msg, "\nrecovered from {} divergence event(s)", outcome.divergence_events);
    }
    Ok(msg)
}

fn restore_model(flags: &Flags, data: &CrimeDataset) -> Result<StHsl, CliError> {
    let path = flags.model.as_ref().ok_or_else(|| CliError::usage("--model is required"))?;
    let mut model = StHsl::new(model_config(flags), data).map_err(|e| e.to_string())?;
    let ck = Checkpoint::load(path).map_err(|e| e.to_string())?;
    model.install_params(&ck.params).map_err(|e| format!("{path}: {e}"))?;
    Ok(model)
}

/// `evaluate`: paper-style metrics over the test period.
fn cmd_evaluate(flags: &Flags) -> Result<String, CliError> {
    let data = load_dataset(flags)?;
    let model = restore_model(flags, &data)?;
    let report = model.evaluate(&data).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "{:<12} {:>8} {:>8}", "Category", "MAE", "MAPE");
    for (ci, name) in data.category_names.iter().enumerate() {
        let _ = writeln!(out, "{:<12} {:>8.4} {:>8.4}", name, report.mae(ci), report.mape(ci));
    }
    let _ = write!(
        out,
        "{:<12} {:>8.4} {:>8.4}",
        "overall",
        report.mae_overall(),
        report.mape_overall()
    );
    Ok(out)
}

/// `predict`: forecast the day after the last window in the data.
fn cmd_predict(flags: &Flags) -> Result<String, CliError> {
    let data = load_dataset(flags)?;
    let model = restore_model(flags, &data)?;
    let last = data.num_days() - 1;
    let sample = data.sample(last).map_err(|e| e.to_string())?;
    let pred = model.predict(&data, &sample.input).map_err(|e| e.to_string())?;
    let mut out = String::from("region,row,col");
    for name in &data.category_names {
        let _ = write!(out, ",{name}");
    }
    let _ = writeln!(out);
    for ri in 0..data.num_regions() {
        let _ = write!(out, "{ri},{},{}", ri / data.cols, ri % data.cols);
        for ci in 0..data.num_categories() {
            let _ = write!(out, ",{:.3}", pred.at(&[ri, ci]));
        }
        let _ = writeln!(out);
    }
    if let Some(path) = &flags.out {
        fs::write(path, &out).map_err(|e| e.to_string())?;
        Ok(format!("forecast written to {path}"))
    } else {
        Ok(out)
    }
}

/// `graph-audit`: statically certify the training graphs of ST-HSL and every
/// neural baseline — gradient flow to every parameter, dead compute, value
/// ranges (overflow and NaN poles) and static cost — without running a
/// single optimizer step.
fn cmd_graph_audit(flags: &Flags) -> Result<String, CliError> {
    let data = dataset_or_synth(flags)?;

    let mut reports = Vec::new();
    let model = StHsl::new(model_config(flags), &data).map_err(|e| e.to_string())?;
    reports.push(model.graph_audit(&data).map_err(|e| e.to_string())?);
    let bcfg = BaselineConfig { seed: flags.seed, ..BaselineConfig::quick() };
    for m in all_auditable(&bcfg, &data).map_err(|e| e.to_string())? {
        reports.push(m.graph_audit(&data).map_err(|e| e.to_string())?);
    }

    let failing: Vec<&str> =
        reports.iter().filter(|r| r.has_errors()).map(|r| r.model.as_str()).collect();

    let mut out = String::new();
    for r in &reports {
        let _ = writeln!(out, "{}", r.render());
        if flags.ranges {
            let _ = write!(out, "{}", render_range_detail(r, flags.top));
        }
        if flags.cost {
            let _ = write!(out, "{}", render_cost_detail(r));
        }
    }
    let verdict = if failing.is_empty() {
        format!("audited {} model graphs: all clean", reports.len())
    } else {
        format!(
            "audited {} model graphs: {} FAILED ({})",
            reports.len(),
            failing.len(),
            failing.join(", ")
        )
    };
    let _ = write!(out, "{verdict}");

    if let Some(path) = &flags.out {
        fs::write(path, &out).map_err(|e| e.to_string())?;
        out = format!("{verdict}; full report written to {path}");
    }
    if failing.is_empty() {
        Ok(out)
    } else {
        Err(out.into())
    }
}

/// `--ranges` detail: the widest proven intervals, widest first — the ops an
/// overflow would reach first if the declared input ranges ever loosen.
fn render_range_detail(r: &sthsl_graphcheck::AuditReport, top: usize) -> String {
    let mut out = String::new();
    let Some(ranges) = &r.ranges else {
        return "ranges detail: skipped (audit short-circuited)\n\n".into();
    };
    let _ =
        writeln!(out, "ranges detail ({}): widest {} of {} bounded", r.model, top, ranges.bounded);
    let mut widest: Vec<(usize, &sthsl_graphcheck::range::Interval)> = ranges
        .intervals
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.as_ref().map(|v| (i, v)))
        .collect();
    widest.sort_by(|a, b| b.1.abs_max().total_cmp(&a.1.abs_max()).then(a.0.cmp(&b.0)));
    for (i, v) in widest.into_iter().take(top) {
        let _ = writeln!(out, "  %{i:<5} [{:.3e}, {:.3e}]", v.lo, v.hi);
    }
    out.push('\n');
    out
}

/// `--cost` detail: the full static cost table, hottest family first.
fn render_cost_detail(r: &sthsl_graphcheck::AuditReport) -> String {
    use sthsl_graphcheck::report::{fmt_bytes, fmt_flops};
    let mut out = String::new();
    let Some(cost) = &r.cost else {
        return "cost detail: skipped (audit short-circuited)\n\n".into();
    };
    let _ = writeln!(out, "cost detail ({}):", r.model);
    let _ = writeln!(
        out,
        "  {:<20} {:>5}  {:>12}  {:>12}  {:>10}  {:>9}",
        "op", "nodes", "fwd", "bwd", "out bytes", "flop/B"
    );
    for (name, row) in cost.ranked() {
        let intensity = row
            .intensity_hundredths()
            .map_or_else(|| "-".to_string(), |h| format!("{}.{:02}", h / 100, h % 100));
        let _ = writeln!(
            out,
            "  {name:<20} {:>5}  {:>12}  {:>12}  {:>10}  {intensity:>9}",
            row.count,
            fmt_flops(row.fwd_flops),
            fmt_flops(row.bwd_flops),
            fmt_bytes(usize::try_from(row.out_bytes).unwrap_or(usize::MAX)),
        );
    }
    out.push('\n');
    out
}

/// `profile`: run one training-mode forward + backward pass with the tape
/// profiler attached and print the top-K hot-op report. `--fake-clock`
/// substitutes a deterministic clock (every op "takes" 100 ns) so the output
/// is reproducible — rankings then reflect op *counts*, not wall time.
fn cmd_profile(flags: &Flags) -> Result<String, CliError> {
    let data = dataset_or_synth(flags)?;
    let model = StHsl::new(model_config(flags), &data).map_err(|e| e.to_string())?;

    let clock: Rc<dyn Clock> =
        if flags.fake_clock { Rc::new(FakeClock::new(100)) } else { Rc::new(WallClock::new()) };
    let profiler = TapeProfiler::shared(Rc::clone(&clock));
    let g = Graph::training(flags.seed);
    g.set_observer(Rc::clone(&profiler) as Rc<dyn TapeObserver>);
    let (loss, _params) = model.record_training_graph(&g, &data).map_err(|e| e.to_string())?;
    g.backward(loss).map_err(|e| e.to_string())?;
    let report = profiler.report(flags.top);

    if let Some(trace) = &flags.trace_out {
        let emitter = TraceEmitter::to_file(&RealIo, trace.as_ref(), Rc::clone(&clock))
            .map_err(|e| format!("{trace}: {e}"))?;
        emitter.emit(&TraceEvent::Manifest {
            run: "profile".into(),
            seed: flags.seed,
            args: vec![
                ("city".into(), flags.city.clone()),
                ("grid".into(), format!("{}x{}", flags.rows, flags.cols)),
                ("fake_clock".into(), flags.fake_clock.to_string()),
            ],
        });
        for event in report.to_events() {
            emitter.emit(&event);
        }
        emitter.flush().map_err(|e| format!("{trace}: {e}"))?;
    }
    Ok(report.render())
}

/// `serve`: load a trained artifact and answer forecast requests over HTTP.
///
/// The model comes from `--checkpoint-dir` (newest *verified* checkpoint-v2
/// generation; corrupt files are quarantined and older good generations
/// win) or from a `--model` parameter file. Either way the parameters are
/// cross-checked against the model config and the serving tape passes a
/// graphcheck audit before the socket opens. Concurrent requests are
/// drained into micro-batches; each horizon step of a batch is one
/// `predict_batch` call, which shares one graph and one parameter injection
/// but still runs one forward pass per window. An LRU forecast cache in
/// front is explicitly invalidated by `POST /reload`.
fn cmd_serve(flags: &Flags) -> Result<String, CliError> {
    let data = dataset_or_synth(flags)?;
    let cfg = model_config(flags);
    let (engine, ckpt_path) = if let Some(dir) = &flags.checkpoint_dir {
        let (engine, path) = ForecastEngine::from_checkpoint_dir(
            &RealIo,
            Path::new(dir),
            cfg,
            data,
            flags.max_horizon,
            RetryPolicy::default_read(),
            &ThreadSleeper,
        )
        .map_err(|e| e.to_string())?;
        (engine, Some(path))
    } else if let Some(model) = &flags.model {
        let engine =
            ForecastEngine::from_model_file(Path::new(model), cfg, data, flags.max_horizon)
                .map_err(|e| e.to_string())?;
        (engine, None)
    } else {
        return Err(CliError::usage("serve requires --checkpoint-dir or --model"));
    };

    let server_cfg = ServerConfig {
        addr: flags.addr.clone().unwrap_or_else(|| "127.0.0.1:8356".into()),
        city: flags.city.clone(),
        batch_window_ms: flags.batch_window_ms,
        max_requests: flags.max_requests,
        cache_capacity: flags.cache_capacity,
        max_horizon: flags.max_horizon,
        checkpoint_dir: flags.checkpoint_dir.clone().map(PathBuf::from),
        ..ServerConfig::default()
    };
    let emitter = match &flags.trace_out {
        Some(trace) => {
            let emitter = TraceEmitter::to_file(&RealIo, trace.as_ref(), Rc::new(WallClock::new()))
                .map_err(|e| format!("{trace}: {e}"))?;
            emitter.emit(&TraceEvent::Manifest {
                run: "serve".into(),
                seed: flags.seed,
                args: vec![
                    ("city".into(), flags.city.clone()),
                    ("addr".into(), server_cfg.addr.clone()),
                ],
            });
            Some(emitter)
        }
        None => None,
    };
    let mut server =
        Server::bind(engine, server_cfg, ckpt_path, emitter).map_err(|e| e.to_string())?;
    // Announce the resolved address up front (port 0 binds ephemerally) so
    // clients and CI can find the server before `run` blocks.
    println!("serving on http://{}", server.local_addr());
    server.run().map_err(|e| e.to_string())?;
    let c = server.metrics().counters();
    Ok(format!(
        "served {} request(s): {} ok, {} client error(s), {} server error(s)",
        c.requests, c.ok, c.client_errors, c.server_errors
    ))
}

const USAGE: &str =
    "usage: sthsl <simulate|train|evaluate|predict|serve|graph-audit|profile> [flags]
  common flags:
    --city nyc|chi   synthetic city preset (default nyc)
    --rows N --cols N --days N --window N --seed N
    --threads N      kernel worker threads (default: $STHSL_THREADS or core count);
                     results are identical at any setting
    --trace-out PATH write a structured JSONL trace of the run to PATH
    --help, -h       print this message
  simulate: --out crimes.csv
  train:    --data crimes.csv --model model.bin --epochs N
            --checkpoint-dir DIR   write resumable checkpoints into DIR
            --checkpoint-every N   also checkpoint every N batches (default: epoch ends only)
            --resume               continue from the latest checkpoint in DIR
            --patience N           early-stop after N epochs without validation improvement
            (--trace-out traces every batch/epoch/divergence/checkpoint)
  evaluate: --data crimes.csv --model model.bin
  predict:  --data crimes.csv --model model.bin [--out forecast.csv]
  serve:    answer forecast requests over HTTP from a trained artifact;
            requests are micro-batched onto one shared graph (one forward
            per window) and cached
            --checkpoint-dir DIR   load the newest verified checkpoint in DIR
                                   (or --model model.bin for a parameter file)
            [--addr HOST:PORT]     bind address (default 127.0.0.1:8356; port 0
                                   picks an ephemeral port, printed at startup)
            [--max-horizon N]      deepest forecast horizon served (default 7)
            [--cache-capacity N]   LRU forecast-tile cache entries (default 1024)
            [--batch-window-ms N]  micro-batch collection window (default 2)
            [--max-requests N]     exit after N requests (for smoke tests)
            (--trace-out writes per-request spans + cache/latency metrics)
  graph-audit: statically verify every model's training graph (grad flow,
            dead compute, value ranges, cost);
            nonzero exit on any error-level finding
            [--data crimes.csv]    audit against a real dataset (default: synthetic)
            [--out report.txt]     write the full report to a file
            [--ranges]             also print the widest proven value intervals
            [--cost]               also print the full static cost table
            [--top N]              rows in the --ranges listing (default 10)
  profile:  time one training step per-op and print the hot-op report
            [--data crimes.csv]    profile a real dataset (default: synthetic)
            [--top N]              rows in the report (default 10)
            [--fake-clock]         deterministic clock: rank by op count
            (--trace-out also writes the stats as JSONL op_stat events)";

/// Entry point: `args` as produced by `std::env::args().collect()`.
///
/// Usage mistakes (unknown commands, malformed or missing flags) come back
/// as [`CliError::Usage`] — exit code 2, never a panic or backtrace —
/// while failures of an otherwise well-formed run are [`CliError::Runtime`]
/// (exit code 1).
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.get(1) else {
        return Err(CliError::usage(USAGE));
    };
    if cmd == "--help" || cmd == "-h" {
        println!("{USAGE}");
        return Ok(());
    }
    let flags = parse_flags(&args[2..]).map_err(CliError::usage)?;
    if flags.help {
        println!("{USAGE}");
        return Ok(());
    }
    if let Some(n) = flags.threads {
        if n == 0 {
            return Err(CliError::usage("--threads must be at least 1"));
        }
        sthsl_parallel::set_num_threads(n);
    }
    let output = match cmd.as_str() {
        "simulate" => cmd_simulate(&flags)?,
        "train" => cmd_train(&flags)?,
        "evaluate" => cmd_evaluate(&flags)?,
        "predict" => cmd_predict(&flags)?,
        "serve" => cmd_serve(&flags)?,
        "graph-audit" | "--graph-audit" => cmd_graph_audit(&flags)?,
        "profile" => cmd_profile(&flags)?,
        other => return Err(CliError::usage(format!("unknown command {other}\n{USAGE}"))),
    };
    println!("{output}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("sthsl_cli_{}_{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn str_args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn flag_parsing_rejects_unknown_and_missing_values() {
        assert!(parse_flags(&str_args(&["--nope", "1"])).is_err());
        assert!(parse_flags(&str_args(&["--rows"])).is_err());
        assert!(parse_flags(&str_args(&["--rows", "abc"])).is_err());
        let f = parse_flags(&str_args(&["--rows", "5", "--city", "chi"])).unwrap();
        assert_eq!(f.rows, 5);
        assert_eq!(f.city, "chi");
    }

    #[test]
    fn flag_errors_name_the_offending_token() {
        // Unknown flags are reported by name, even as the very last token.
        let err = parse_flags(&str_args(&["--rows", "5", "--bogus"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        // A valued flag at the end of args reports itself, not a panic or an
        // off-by-one read past the slice.
        let err = parse_flags(&str_args(&["--city", "nyc", "--epochs"])).unwrap_err();
        assert!(err.contains("--epochs"), "{err}");
        // Bad values report both the value and the flag.
        let err = parse_flags(&str_args(&["--seed", "not-a-number"])).unwrap_err();
        assert!(err.contains("not-a-number") && err.contains("--seed"), "{err}");
    }

    #[test]
    fn help_flag_parses_and_prints_usage() {
        assert!(parse_flags(&str_args(&["--help"])).unwrap().help);
        assert!(parse_flags(&str_args(&["-h"])).unwrap().help);
        // Boolean flags don't swallow the next token.
        let f = parse_flags(&str_args(&["--resume", "--rows", "3"])).unwrap();
        assert!(f.resume);
        assert_eq!(f.rows, 3);
        run(&str_args(&["sthsl", "--help"])).unwrap();
        run(&str_args(&["sthsl", "train", "-h"])).unwrap();
    }

    #[test]
    fn checkpoint_flags_parse() {
        let f = parse_flags(&str_args(&[
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "5",
            "--patience",
            "2",
            "--resume",
        ]))
        .unwrap();
        assert_eq!(f.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(f.checkpoint_every, 5);
        assert_eq!(f.patience, Some(2));
        assert!(f.resume);
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero() {
        let f = parse_flags(&str_args(&["--threads", "4"])).unwrap();
        assert_eq!(f.threads, Some(4));
        assert_eq!(
            parse_flags(&str_args(&["--threads"])).unwrap_err(),
            "flag --threads requires a value"
        );
        // Zero is rejected in run(), after parsing, so --help still works.
        let err = run(&str_args(&["sthsl", "simulate", "--threads", "0"])).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        assert_eq!(err.exit_code(), 2, "usage errors exit 2");
    }

    #[test]
    fn resume_requires_checkpoint_dir() {
        let csv = tmp("resume_nocd.csv");
        let common =
            ["--rows", "4", "--cols", "4", "--days", "80", "--window", "7", "--epochs", "1"];
        let mut sim = str_args(&["sthsl", "simulate", "--out", &csv]);
        sim.extend(str_args(&common));
        run(&sim).unwrap();
        let mut train = str_args(&["sthsl", "train", "--data", &csv, "--resume"]);
        train.extend(str_args(&common));
        let err = run(&train).unwrap_err();
        assert!(err.to_string().contains("--checkpoint-dir"), "{err}");
        assert_eq!(err.exit_code(), 2, "missing flag is a usage error");
        fs::remove_file(csv).ok();
    }

    #[test]
    fn train_writes_checkpoints_and_resumes() {
        let csv = tmp("ckpt.csv");
        let model = tmp("ckpt_model.bin");
        let ckdir = tmp("ckpt_dir");
        let common =
            ["--rows", "4", "--cols", "4", "--days", "80", "--window", "7", "--epochs", "2"];

        let mut sim = str_args(&["sthsl", "simulate", "--out", &csv]);
        sim.extend(str_args(&common));
        run(&sim).unwrap();

        let mut train = str_args(&[
            "sthsl",
            "train",
            "--data",
            &csv,
            "--model",
            &model,
            "--checkpoint-dir",
            &ckdir,
            "--patience",
            "2",
        ]);
        train.extend(str_args(&common));
        run(&train).unwrap();
        let latest = latest_checkpoint(&ckdir).unwrap();
        assert!(latest.is_some(), "training left no checkpoint in {ckdir}");
        // The `--model` file and `best.params` are checksummed checkpoints.
        for artifact in [PathBuf::from(&model), Path::new(&ckdir).join("best.params")] {
            Checkpoint::load(&artifact).unwrap_or_else(|e| panic!("{}: {e}", artifact.display()));
        }

        // Resuming from the final checkpoint is a no-op train that succeeds.
        let mut resume = str_args(&[
            "sthsl",
            "train",
            "--data",
            &csv,
            "--model",
            &model,
            "--checkpoint-dir",
            &ckdir,
            "--patience",
            "2",
            "--resume",
        ]);
        resume.extend(str_args(&common));
        run(&resume).unwrap();

        fs::remove_file(csv).ok();
        fs::remove_file(model).ok();
        fs::remove_dir_all(ckdir).ok();
    }

    #[test]
    fn run_without_command_prints_usage() {
        let err = run(&str_args(&["sthsl"])).unwrap_err();
        assert!(err.to_string().contains("usage"));
        assert_eq!(err.exit_code(), 2);
        let err2 = run(&str_args(&["sthsl", "frobnicate"])).unwrap_err();
        assert!(err2.to_string().contains("unknown command"));
        assert_eq!(err2.exit_code(), 2);
    }

    #[test]
    fn malformed_flags_are_usage_errors_not_panics() {
        // The exact failures the issue calls out: `--threads abc` and a
        // missing artifact path must come back as typed usage errors with
        // exit code 2 — never a panic (which would print a backtrace).
        let err = run(&str_args(&["sthsl", "simulate", "--threads", "abc"])).unwrap_err();
        assert!(err.to_string().contains("--threads"), "{err}");
        assert_eq!(err.exit_code(), 2);

        let err = run(&str_args(&["sthsl", "evaluate"])).unwrap_err();
        assert!(err.to_string().contains("--data is required"), "{err}");
        assert_eq!(err.exit_code(), 2);

        let err = run(&str_args(&["sthsl", "serve"])).unwrap_err();
        assert!(err.to_string().contains("--checkpoint-dir or --model"), "{err}");
        assert_eq!(err.exit_code(), 2);

        let err = run(&str_args(&["sthsl", "simulate", "--city", "atlantis"])).unwrap_err();
        assert!(err.to_string().contains("unknown --city"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn simulate_train_evaluate_predict_roundtrip() {
        // End-to-end through the CSV + persistence codepaths at tiny scale.
        let csv = tmp("roundtrip.csv");
        let model = tmp("roundtrip_model.bin");
        let forecast = tmp("roundtrip_forecast.csv");
        let common =
            ["--rows", "4", "--cols", "4", "--days", "80", "--window", "7", "--epochs", "2"];

        let mut sim = str_args(&["sthsl", "simulate", "--out", &csv]);
        sim.extend(str_args(&common));
        run(&sim).unwrap();
        assert!(fs::metadata(&csv).unwrap().len() > 100);

        let mut train = str_args(&["sthsl", "train", "--data", &csv, "--model", &model]);
        train.extend(str_args(&common));
        run(&train).unwrap();
        assert!(fs::metadata(&model).unwrap().len() > 100);

        let mut eval = str_args(&["sthsl", "evaluate", "--data", &csv, "--model", &model]);
        eval.extend(str_args(&common));
        run(&eval).unwrap();

        let mut pred =
            str_args(&["sthsl", "predict", "--data", &csv, "--model", &model, "--out", &forecast]);
        pred.extend(str_args(&common));
        run(&pred).unwrap();
        let out = fs::read_to_string(&forecast).unwrap();
        assert!(out.lines().count() > 16, "one row per region plus header");
        assert!(out.starts_with("region,row,col,"));

        for p in [csv, model, forecast] {
            fs::remove_file(p).ok();
        }
    }

    #[test]
    fn graph_audit_certifies_all_models() {
        // Small dims keep the 14 recorded graphs cheap; no CSV needed.
        let report = tmp("audit_report.txt");
        let args = str_args(&[
            "sthsl",
            "graph-audit",
            "--rows",
            "4",
            "--cols",
            "4",
            "--days",
            "60",
            "--window",
            "7",
            "--out",
            &report,
        ]);
        run(&args).unwrap();
        let text = fs::read_to_string(&report).unwrap();
        assert!(text.contains("== graph audit: ST-HSL =="));
        assert!(text.contains("== graph audit: STGCN =="));
        assert!(text.contains("audited 14 model graphs: all clean"), "{text}");
        assert!(!text.contains("[error/"), "{text}");
        fs::remove_file(report).ok();
    }

    #[test]
    fn graph_audit_alias_spelling_works() {
        // The `--graph-audit` spelling from the docs routes to the same
        // command.
        let args = str_args(&[
            "sthsl",
            "--graph-audit",
            "--rows",
            "4",
            "--cols",
            "4",
            "--days",
            "60",
            "--window",
            "7",
        ]);
        run(&args).unwrap();
    }

    #[test]
    fn graph_audit_text_report_is_byte_deterministic() {
        let flags = parse_flags(&str_args(&[
            "--rows", "4", "--cols", "4", "--days", "60", "--window", "7",
        ]))
        .unwrap();
        let doc = cmd_graph_audit(&flags).unwrap();
        let header = format!("report-version: {}\n", sthsl_graphcheck::REPORT_VERSION);
        assert_eq!(doc.matches(&header).count(), 14, "one report per audited model:\n{doc}");
        assert_eq!(doc.matches("   errors: 0   ").count(), 14, "{doc}");
        assert!(doc.ends_with("audited 14 model graphs: all clean"), "{doc}");
        // Byte-determinism: the text report is the one format CI diffs.
        assert_eq!(doc, cmd_graph_audit(&flags).unwrap());
    }

    #[test]
    fn profile_fake_clock_is_deterministic_and_traced() {
        let trace = tmp("profile_trace.jsonl");
        let flags = parse_flags(&str_args(&[
            "--rows",
            "4",
            "--cols",
            "4",
            "--days",
            "60",
            "--window",
            "7",
            "--fake-clock",
            "--top",
            "5",
            "--trace-out",
            &trace,
        ]))
        .unwrap();
        assert!(flags.fake_clock);
        assert_eq!(flags.top, 5);
        let out1 = cmd_profile(&flags).unwrap();
        let out2 = cmd_profile(&flags).unwrap();
        // The fake clock makes the whole report a pure function of the tape.
        assert_eq!(out1, out2);
        // Golden pin from a verified run. With every op costing 100 ns,
        // total_ns = 100 x (forward + backward notifications): the 4x4x60
        // training tape fires 372 of them across 52 distinct (op, phase)
        // pairs, dominated by reshapes. Re-pinned when the CSR propagation
        // path was deleted: the per-window CSR products and their
        // slice/reshape pairs became one batched pair for the whole window
        // (forecast bits unchanged). Re-pinned again when the model went
        // layout-native: the convs and the hypergraph's second hop read
        // their layouts in place, which deletes 6 reshapes and 8 permutes
        // per tape and adds 2 same-shape reshapes (400 → 376 notifications,
        // training and forecast bits unchanged). Re-pinned once more when
        // the conv weight gradient began summing each batch element's plane
        // on its own: the 2 same-shape reshapes existed only to keep the
        // old gradient-sum order and went with it (376 → 372 notifications,
        // training bits re-pinned, forecast bits unchanged). If an intentional tape
        // change shifts these numbers, rerun with --nocapture, validate the
        // new counts against the tape, and update the pin.
        let golden = "\
hot ops: top 5 of 52 (total 37200 ns)
rank op                   phase        count       total_ns        bytes   share
1    reshape              forward         41           4100       197376    11.0%
2    reshape              backward        41           4100       197376    11.0%
3    leaf                 forward         21           2100        10276     5.6%
4    add                  forward         18           1800       143644     4.8%
5    add                  backward        18           1800       143644     4.8%
";
        assert_eq!(out1, golden);

        // The JSONL trace mirrors the report: manifest header + one op_stat
        // per rendered row.
        let text = fs::read_to_string(&trace).unwrap();
        let events = crate::obs::parse_trace(&text).unwrap();
        assert!(matches!(
            &events[0],
            crate::obs::TraceEvent::Manifest { run, .. } if run == "profile"
        ));
        let ops =
            events.iter().filter(|e| matches!(e, crate::obs::TraceEvent::OpStat { .. })).count();
        assert_eq!(ops, 5, "{text}");
        fs::remove_file(trace).ok();
    }

    #[test]
    fn train_trace_out_writes_batch_and_epoch_events() {
        let csv = tmp("traced.csv");
        let model = tmp("traced_model.bin");
        let trace = tmp("traced_trace.jsonl");
        let common =
            ["--rows", "4", "--cols", "4", "--days", "80", "--window", "7", "--epochs", "2"];

        let mut sim = str_args(&["sthsl", "simulate", "--out", &csv]);
        sim.extend(str_args(&common));
        run(&sim).unwrap();

        let mut train =
            str_args(&["sthsl", "train", "--data", &csv, "--model", &model, "--trace-out", &trace]);
        train.extend(str_args(&common));
        run(&train).unwrap();

        let text = fs::read_to_string(&trace).unwrap();
        let events = crate::obs::parse_trace(&text).unwrap();
        assert!(matches!(
            &events[0],
            crate::obs::TraceEvent::Manifest { run, .. } if run == "train"
        ));
        let batches =
            events.iter().filter(|e| matches!(e, crate::obs::TraceEvent::Batch { .. })).count();
        let epochs =
            events.iter().filter(|e| matches!(e, crate::obs::TraceEvent::Epoch { .. })).count();
        assert!(batches > 0, "{text}");
        assert_eq!(epochs, 2, "{text}");

        for p in [csv, model, trace] {
            fs::remove_file(p).ok();
        }
    }

    #[test]
    fn simulate_roundtrip_preserves_counts() {
        // Records exported by simulate and re-rasterised must reproduce the
        // original tensor exactly (the grid uses region-centre coordinates).
        let flags =
            parse_flags(&str_args(&["--rows", "4", "--cols", "4", "--days", "40"])).unwrap();
        let cfg = city_config(&flags).unwrap();
        let city = SynthCity::generate(&cfg).unwrap();
        // Export through the same path simulate uses.
        let csv_path = tmp("counts.csv");
        let f2 = Flags { out: Some(csv_path.clone()), ..flags };
        cmd_simulate(&f2).unwrap();
        let file = fs::File::open(&csv_path).unwrap();
        let cats = categories_of(&cfg);
        let cat_refs: Vec<&str> = cats.iter().map(std::string::String::as_str).collect();
        let records = sthsl_data::loader::parse_csv(BufReader::new(file)).unwrap();
        let (tensor, stats) =
            sthsl_data::loader::rasterize(&records, &grid_spec(4, 4), &cat_refs, 40).unwrap();
        assert_eq!(stats.out_of_bounds, 0);
        assert_eq!(stats.unknown_category, 0);
        assert_eq!(tensor.data(), city.tensor.data());
        fs::remove_file(csv_path).ok();
    }
}
