//! Seeded chaos campaigns: prove the fault-tolerance claims end to end.
//!
//! `sthsl chaos --seed N` runs a deterministic matrix of fault-injection
//! scenarios — fault kind × rate × pipeline phase — against a tiny synthetic
//! training job and checks each one against its contract:
//!
//! - **Checkpoint-write faults** (torn write, transient EIO, ENOSPC, fsync
//!   failure, latency) must never perturb the training trajectory: the final
//!   parameter fingerprint must be *bit-identical* to the fault-free
//!   baseline. Retryable faults heal inside the bounded-backoff writer;
//!   persistent ones latch graceful degradation (checkpointing disabled,
//!   training continues).
//! - **Data-read faults** (bit flip, short read, transient EIO) either heal
//!   through checksum-verified re-reads — bit-identical again — or surface
//!   as a typed checksum error. Corrupt data is never trained on silently.
//! - **Corrupt resume targets** are quarantined as `*.corrupt` and training
//!   falls back to the newest older verified generation, replaying to a
//!   bit-identical final state.
//! - **Trace-sink faults** latch inside the emitter without touching
//!   training.
//! - **NaN storms** injected at batch level exercise divergence recovery:
//!   training must end with finite loss.
//!
//! Every injected fault and every recovery action is re-emitted as a
//! structured [`TraceEvent`] to a JSONL fault trace, which the campaign
//! re-parses to prove schema validity. The machine-readable verdict goes to
//! `results/chaos_report.json`.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use sthsl_autograd::latest_checkpoint_io;
use sthsl_chaos::{
    fnv1a, ChaosEvent, ChaosLog, FaultKind, FaultPlan, FaultRule, FaultyIo, Io, OpClass, RealIo,
    RecoveryAction, RetryPolicy, VirtualSleeper,
};
use sthsl_core::{
    BatchCtx, Fault, HookAction, NoHooks, StHsl, StHslConfig, TraceHooks, TrainHooks, TrainLoop,
    TrainOptions, TrainOutcome,
};
use sthsl_data::{
    dataset_from_csv_path_io, CrimeDataset, DatasetConfig, GridSpec, SynthCity, SynthConfig,
};
use sthsl_obs::{parse_trace, FakeClock, Json, TraceEmitter, TraceEvent};

/// Days of synthetic history per campaign; small enough that the full matrix
/// stays in CI budget, long enough for two epochs of four batches.
const DAYS: usize = 80;

/// Scenario contract: recover to a bit-identical final state.
const EXPECT_BIT_IDENTICAL: &str = "bit_identical";
/// Scenario contract: fail with a typed error (never a panic, never silent
/// acceptance of corrupt data).
const EXPECT_TYPED_ERROR: &str = "typed_error";
/// Scenario contract: training completes with finite loss after healing,
/// but on a legitimately different (recovered) trajectory.
const EXPECT_RECOVERED: &str = "recovered";

/// Machine-checkable verdict of one campaign, mirrored in the JSON report.
#[derive(Debug)]
pub struct ChaosReport {
    /// Every scenario met its contract and the fault trace parsed cleanly.
    pub passed: bool,
    /// Scenarios executed.
    pub scenarios: usize,
    /// Names of scenarios that missed their contract.
    pub failed: Vec<String>,
    /// Human-readable per-scenario table.
    pub summary: String,
}

struct ScenarioResult {
    name: &'static str,
    phase: &'static str,
    fault: &'static str,
    rate: f64,
    expected: &'static str,
    outcome: &'static str,
    ok: bool,
    faults_injected: usize,
    recoveries: usize,
    detail: String,
}

/// Hook that requests a stop (and therefore a stop-checkpoint) at a given
/// global step, simulating an interrupted run.
struct StopAt(u64);

impl TrainHooks for StopAt {
    fn on_batch_end(&mut self, ctx: &BatchCtx) -> HookAction {
        if ctx.global_step == self.0 {
            HookAction::Stop
        } else {
            HookAction::Continue
        }
    }
}

/// Hook that forces NaN losses at the given global steps, once each.
struct NanStorm {
    remaining: Vec<u64>,
}

impl TrainHooks for NanStorm {
    fn inject_fault(&mut self, ctx: &BatchCtx) -> Option<Fault> {
        let pos = self.remaining.iter().position(|s| *s == ctx.global_step)?;
        self.remaining.remove(pos);
        Some(Fault::NanLoss)
    }
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

fn int(v: usize) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn quick_cfg(seed: u64) -> StHslConfig {
    StHslConfig {
        d: 4,
        num_hyperedges: 6,
        epochs: 2,
        batch_size: 4,
        max_batches_per_epoch: Some(4),
        seed,
        ..StHslConfig::quick()
    }
}

fn load_data(
    io: &dyn Io,
    csv_path: &Path,
    csv_fnv: u64,
    grid: &GridSpec,
    cats: &[String],
) -> Result<CrimeDataset, String> {
    let cat_refs: Vec<&str> = cats.iter().map(String::as_str).collect();
    let sleeper = VirtualSleeper::new();
    let (data, _stats) = dataset_from_csv_path_io(
        io,
        csv_path,
        Some(csv_fnv),
        RetryPolicy::default_read(),
        &sleeper,
        grid,
        &cat_refs,
        DAYS,
        DatasetConfig { window: 7, val_days: 5, train_fraction: 7.0 / 8.0 },
    )
    .map_err(|e| e.to_string())?;
    Ok(data)
}

fn train_once(
    io: &Rc<dyn Io>,
    data: &CrimeDataset,
    seed: u64,
    checkpoint_dir: Option<PathBuf>,
    resume_from: Option<PathBuf>,
    hooks: &mut dyn TrainHooks,
) -> Result<(StHsl, TrainOutcome), String> {
    let mut model = StHsl::new(quick_cfg(seed), data).map_err(|e| e.to_string())?;
    let opts = TrainOptions { checkpoint_dir, resume_from, ..TrainOptions::resilient() };
    let outcome = TrainLoop::with_io(
        opts,
        Rc::clone(io),
        Rc::new(VirtualSleeper::new()),
        RetryPolicy::default_checkpoint(),
    )
    .run(&mut model, data, hooks)
    .map_err(|e| e.to_string())?;
    Ok((model, outcome))
}

/// Final-state fingerprint: FNV-1a over the parameter bits in memory,
/// salted with the bit pattern of the final loss. Nothing touches the disk,
/// so it sits outside any faulty seam.
fn fingerprint(model: &StHsl, outcome: &TrainOutcome) -> u64 {
    let params = model.export_checkpoint().params;
    let bytes: Vec<u8> = params
        .ids()
        .flat_map(|id| params.get(id).data().iter().flat_map(|v| v.to_le_bytes()))
        .collect();
    fnv1a(&bytes) ^ outcome.report.final_loss.to_bits()
}

/// Re-emit one scenario's chaos log into the fault trace; returns
/// `(faults, recoveries)` drained.
fn drain_log(emitter: &TraceEmitter, log: &ChaosLog) -> (usize, usize) {
    let mut faults = 0;
    let mut recoveries = 0;
    for ev in log.drain() {
        match &ev {
            ChaosEvent::Fault { .. } => faults += 1,
            ChaosEvent::Recovery { .. } => recoveries += 1,
        }
        emitter.emit(&TraceEvent::from_chaos(&ev));
    }
    (faults, recoveries)
}

fn scenario_manifest(emitter: &TraceEmitter, seed: u64, name: &str, phase: &str) {
    emitter.emit(&TraceEvent::Manifest {
        run: "chaos-scenario".into(),
        seed,
        args: vec![("name".into(), name.into()), ("phase".into(), phase.into())],
    });
}

/// One checkpoint-write fault scenario: every one of these must leave the
/// training trajectory untouched (checkpoint writes are a side channel), so
/// the contract is always [`EXPECT_BIT_IDENTICAL`].
struct CkptScenario {
    name: &'static str,
    kind: FaultKind,
    rate: f64,
    max_fires: Option<u32>,
    /// Whether the fault is persistent enough to latch graceful degradation.
    expect_disabled: bool,
}

fn run_ckpt_scenario(
    s: &CkptScenario,
    wd: &Path,
    data: &CrimeDataset,
    seed: u64,
    baseline_fp: u64,
    emitter: &TraceEmitter,
) -> Result<ScenarioResult, String> {
    let dir = wd.join(format!("ck-{}", s.name));
    let mut rule = FaultRule::always(s.kind, OpClass::Write).on_path("ckpt-").with_rate(s.rate);
    if let Some(m) = s.max_fires {
        rule = rule.with_max_fires(m);
    }
    let fio = Rc::new(FaultyIo::new(RealIo, FaultPlan::new(seed).rule(rule)));
    let log = fio.log_handle();
    let io: Rc<dyn Io> = fio;
    let res = train_once(&io, data, seed, Some(dir.clone()), None, &mut NoHooks);
    scenario_manifest(emitter, seed, s.name, "checkpoint-write");
    let (faults, recoveries) = drain_log(emitter, &log);

    let (outcome, ok, detail) = match res {
        Ok((model, out)) => {
            let fp = fingerprint(&model, &out);
            let mut ok = fp == baseline_fp && faults > 0;
            let mut detail = format!("fingerprint {}", hex(fp));
            if s.expect_disabled {
                ok &= out.checkpointing_disabled && out.checkpoint_failures >= 1;
                detail.push_str(&format!(
                    "; degraded after {} failed write(s)",
                    out.checkpoint_failures
                ));
            } else {
                ok &= !out.checkpointing_disabled;
                // The run must leave at least one verified-good checkpoint
                // behind — healed writes, not silently dropped ones.
                let survivor =
                    latest_checkpoint_io(&RealIo, &dir).map_err(|e| e.to_string())?.is_some();
                ok &= survivor;
                detail.push_str(if survivor {
                    "; verified checkpoint survives"
                } else {
                    "; NO checkpoint survived"
                });
            }
            let name = if fp == baseline_fp { EXPECT_BIT_IDENTICAL } else { EXPECT_RECOVERED };
            (name, ok, detail)
        }
        Err(e) => (EXPECT_TYPED_ERROR, false, e),
    };
    Ok(ScenarioResult {
        name: s.name,
        phase: "checkpoint-write",
        fault: s.kind.as_str(),
        rate: s.rate,
        expected: EXPECT_BIT_IDENTICAL,
        outcome,
        ok,
        faults_injected: faults,
        recoveries,
        detail,
    })
}

struct DataScenario {
    name: &'static str,
    kind: FaultKind,
    rate: f64,
    max_fires: Option<u32>,
    expected: &'static str,
}

#[allow(clippy::too_many_arguments)]
fn run_data_scenario(
    s: &DataScenario,
    csv_path: &Path,
    csv_fnv: u64,
    grid: &GridSpec,
    cats: &[String],
    seed: u64,
    baseline_fp: u64,
    emitter: &TraceEmitter,
) -> Result<ScenarioResult, String> {
    let mut rule = FaultRule::always(s.kind, OpClass::Read).on_path("crimes.csv").with_rate(s.rate);
    if let Some(m) = s.max_fires {
        rule = rule.with_max_fires(m);
    }
    let fio = Rc::new(FaultyIo::new(RealIo, FaultPlan::new(seed).rule(rule)));
    let log = fio.log_handle();
    let io: Rc<dyn Io> = fio;
    let res = load_data(io.as_ref(), csv_path, csv_fnv, grid, cats)
        .and_then(|d| train_once(&io, &d, seed, None, None, &mut NoHooks));
    scenario_manifest(emitter, seed, s.name, "data-read");
    let (faults, recoveries) = drain_log(emitter, &log);

    let (outcome, ok, detail) = match res {
        Ok((model, out)) => {
            let fp = fingerprint(&model, &out);
            let name = if fp == baseline_fp { EXPECT_BIT_IDENTICAL } else { EXPECT_RECOVERED };
            let ok = name == s.expected && faults > 0;
            (name, ok, format!("fingerprint {}", hex(fp)))
        }
        Err(e) => {
            // A typed error is only acceptable when expected, and must name
            // the checksum failure — never a panic, never a silent pass.
            let ok = s.expected == EXPECT_TYPED_ERROR && e.contains("checksum");
            (EXPECT_TYPED_ERROR, ok, e)
        }
    };
    Ok(ScenarioResult {
        name: s.name,
        phase: "data-read",
        fault: s.kind.as_str(),
        rate: s.rate,
        expected: s.expected,
        outcome,
        ok,
        faults_injected: faults,
        recoveries,
        detail,
    })
}

/// Corrupt the newest checkpoint of an interrupted run, then resume from it:
/// the trainer must quarantine it, fall back to the older verified
/// generation, and replay to a bit-identical final state.
fn run_resume_scenario(
    wd: &Path,
    data: &CrimeDataset,
    seed: u64,
    baseline_fp: u64,
    emitter: &TraceEmitter,
) -> Result<ScenarioResult, String> {
    let name = "ckpt-resume-corrupt";
    let dir = wd.join("ck-resume");
    let clean: Rc<dyn Io> = Rc::new(RealIo);
    train_once(&clean, data, seed, Some(dir.clone()), None, &mut StopAt(5))?;
    let newest = latest_checkpoint_io(&RealIo, &dir)
        .map_err(|e| e.to_string())?
        .ok_or("interrupted run left no checkpoint")?;
    let mut bytes = RealIo.read(&newest).map_err(|e| e.to_string())?;
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
    RealIo.write(&newest, &bytes).map_err(|e| e.to_string())?;

    let fio = Rc::new(FaultyIo::new(RealIo, FaultPlan::new(seed)));
    let log = fio.log_handle();
    // Record the out-of-band corruption in the same log so the fault trace
    // tells the whole story.
    log.fault(
        OpClass::Write,
        FaultKind::BitFlip,
        &newest.to_string_lossy(),
        format!("campaign flipped bit 4 of byte {at}"),
    );
    let io: Rc<dyn Io> = fio;
    let res = train_once(&io, data, seed, Some(dir.clone()), Some(newest.clone()), &mut NoHooks);
    scenario_manifest(emitter, seed, name, "resume");
    // The corrupt target must be quarantined, never silently accepted; the
    // fallback event only appears when the survivor isn't the newest file
    // left after quarantine, so it's the quarantine action we pin.
    let had_quarantine = log
        .snapshot()
        .iter()
        .any(|ev| matches!(ev, ChaosEvent::Recovery { action: RecoveryAction::Quarantine, .. }));
    let (faults, recoveries) = drain_log(emitter, &log);

    let (outcome, ok, detail) = match res {
        Ok((model, out)) => {
            let fp = fingerprint(&model, &out);
            let mut corrupt_name = newest.as_os_str().to_os_string();
            corrupt_name.push(".corrupt");
            let quarantined = RealIo.exists(Path::new(&corrupt_name)) && !RealIo.exists(&newest);
            let ok = fp == baseline_fp && out.resumed_at.is_some() && quarantined && had_quarantine;
            let name = if fp == baseline_fp { EXPECT_BIT_IDENTICAL } else { EXPECT_RECOVERED };
            let detail = format!(
                "fingerprint {}; resumed_at {:?}; quarantined: {quarantined}",
                hex(fp),
                out.resumed_at
            );
            (name, ok, detail)
        }
        Err(e) => (EXPECT_TYPED_ERROR, false, e),
    };
    Ok(ScenarioResult {
        name,
        phase: "resume",
        fault: FaultKind::BitFlip.as_str(),
        rate: 1.0,
        expected: EXPECT_BIT_IDENTICAL,
        outcome,
        ok,
        faults_injected: faults,
        recoveries,
        detail,
    })
}

/// Torn writes on the trace sink must latch inside the emitter without
/// perturbing training.
fn run_trace_scenario(
    wd: &Path,
    data: &CrimeDataset,
    seed: u64,
    baseline_fp: u64,
    emitter: &TraceEmitter,
) -> Result<ScenarioResult, String> {
    let name = "trace-torn-write";
    let victim_path = wd.join("victim_trace.jsonl");
    let rule =
        FaultRule::always(FaultKind::TornWrite, OpClass::StreamWrite).on_path("victim_trace");
    let fio = Rc::new(FaultyIo::new(RealIo, FaultPlan::new(seed).rule(rule)));
    let log = fio.log_handle();
    let victim = TraceEmitter::to_file_io(fio.as_ref(), &victim_path, Rc::new(FakeClock::new(1)))
        .map_err(|e| e.to_string())?;
    let clean: Rc<dyn Io> = Rc::new(RealIo);
    let res = {
        let mut hooks = TraceHooks::new(&victim);
        train_once(&clean, data, seed, None, None, &mut hooks)
    };
    scenario_manifest(emitter, seed, name, "trace-sink");
    let (faults, recoveries) = drain_log(emitter, &log);

    let (outcome, ok, detail) = match res {
        Ok((model, out)) => {
            let fp = fingerprint(&model, &out);
            let latched = victim.had_error();
            let ok = fp == baseline_fp && latched && faults > 0;
            let name = if fp == baseline_fp { EXPECT_BIT_IDENTICAL } else { EXPECT_RECOVERED };
            (name, ok, format!("fingerprint {}; emitter latched: {latched}", hex(fp)))
        }
        Err(e) => (EXPECT_TYPED_ERROR, false, e),
    };
    Ok(ScenarioResult {
        name,
        phase: "trace-sink",
        fault: FaultKind::TornWrite.as_str(),
        rate: 1.0,
        expected: EXPECT_BIT_IDENTICAL,
        outcome,
        ok,
        faults_injected: faults,
        recoveries,
        detail,
    })
}

/// Batch-level NaN storm: divergence recovery must heal it (restore the
/// epoch-start snapshot, halve the learning rate) and finish with finite
/// loss. The trajectory legitimately differs from the baseline.
fn run_nan_scenario(
    data: &CrimeDataset,
    seed: u64,
    baseline_fp: u64,
    emitter: &TraceEmitter,
) -> Result<ScenarioResult, String> {
    let name = "train-nan-storm";
    let clean: Rc<dyn Io> = Rc::new(RealIo);
    let mut storm = NanStorm { remaining: vec![2, 6] };
    let res = train_once(&clean, data, seed, None, None, &mut storm);
    scenario_manifest(emitter, seed, name, "train");

    let (outcome, ok, divergences, detail) = match res {
        Ok((model, out)) => {
            let fp = fingerprint(&model, &out);
            let finite = out.report.final_loss.is_finite();
            let ok = out.divergence_events >= 1 && finite;
            let name = if fp == baseline_fp { EXPECT_BIT_IDENTICAL } else { EXPECT_RECOVERED };
            let detail = format!(
                "fingerprint {}; {} divergence recovery(ies); final loss {:.6}",
                hex(fp),
                out.divergence_events,
                out.report.final_loss
            );
            (name, ok, out.divergence_events as usize, detail)
        }
        Err(e) => (EXPECT_TYPED_ERROR, false, 0, e),
    };
    Ok(ScenarioResult {
        name,
        phase: "train",
        fault: "nan_loss",
        rate: 1.0,
        expected: EXPECT_RECOVERED,
        outcome,
        ok,
        faults_injected: 2,
        recoveries: divergences,
        detail,
    })
}

#[allow(clippy::too_many_arguments)] // flat verdict context; a struct would just rename the fields
fn write_report(
    path: &Path,
    seed: u64,
    baseline_fp: u64,
    baseline_loss: f64,
    results: &[ScenarioResult],
    trace_path: &Path,
    trace_events: usize,
    passed: bool,
) -> Result<(), String> {
    let scenarios: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::Str(r.name.into())),
                ("phase".into(), Json::Str(r.phase.into())),
                ("fault".into(), Json::Str(r.fault.into())),
                ("rate".into(), Json::Float(r.rate)),
                ("expected".into(), Json::Str(r.expected.into())),
                ("outcome".into(), Json::Str(r.outcome.into())),
                ("ok".into(), Json::Bool(r.ok)),
                ("faults_injected".into(), int(r.faults_injected)),
                ("recoveries".into(), int(r.recoveries)),
                ("detail".into(), Json::Str(r.detail.clone())),
            ])
        })
        .collect();
    let report = Json::Obj(vec![
        ("schema".into(), Json::Str("sthsl-chaos-report-v1".into())),
        ("seed".into(), Json::Str(seed.to_string())),
        (
            "baseline".into(),
            Json::Obj(vec![
                ("fingerprint".into(), Json::Str(hex(baseline_fp))),
                ("final_loss".into(), Json::Float(baseline_loss)),
            ]),
        ),
        ("scenarios".into(), Json::Arr(scenarios)),
        ("trace_path".into(), Json::Str(trace_path.to_string_lossy().into_owned())),
        ("trace_events".into(), int(trace_events)),
        ("passed".into(), Json::Bool(passed)),
    ]);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            RealIo.create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    let mut text = report.render();
    text.push('\n');
    RealIo.write(path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run the full campaign. Returns `Ok` with `passed == false` when a
/// scenario misses its contract (the report is still written); `Err` only
/// for campaign-infrastructure failures.
pub fn run_campaign(
    seed: u64,
    report_path: &Path,
    trace_path: &Path,
) -> Result<ChaosReport, String> {
    let wd = std::env::temp_dir().join(format!("sthsl-chaos-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wd);
    RealIo.create_dir_all(&wd).map_err(|e| format!("{}: {e}", wd.display()))?;
    let result = campaign_in(&wd, seed, report_path, trace_path);
    let _ = std::fs::remove_dir_all(&wd);
    result
}

fn campaign_in(
    wd: &Path,
    seed: u64,
    report_path: &Path,
    trace_path: &Path,
) -> Result<ChaosReport, String> {
    // Deterministic fixture: a tiny synthetic city exported to CSV, loaded
    // back through the checksum-verified path exactly like production runs.
    let mut scfg = SynthConfig::nyc_like().scaled(4, 4, DAYS);
    scfg.seed ^= seed;
    let city = SynthCity::generate(&scfg).map_err(|e| e.to_string())?;
    let csv = city.export_csv();
    let csv_path = wd.join("crimes.csv");
    RealIo.write(&csv_path, csv.as_bytes()).map_err(|e| format!("{}: {e}", csv_path.display()))?;
    let csv_fnv = fnv1a(csv.as_bytes());
    let grid = city.export_grid_spec();
    let cats = city.category_names.clone();

    // Fault-free baseline: the reference trajectory every recovery claim is
    // measured against.
    let clean: Rc<dyn Io> = Rc::new(RealIo);
    let data = load_data(&RealIo, &csv_path, csv_fnv, &grid, &cats)?;
    let (bmodel, bout) = train_once(&clean, &data, seed, None, None, &mut NoHooks)?;
    let baseline_fp = fingerprint(&bmodel, &bout);
    let baseline_loss = bout.report.final_loss;

    if let Some(parent) = trace_path.parent() {
        if !parent.as_os_str().is_empty() {
            RealIo.create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    let emitter = TraceEmitter::to_file(trace_path, Rc::new(FakeClock::new(1)))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    emitter.emit(&TraceEvent::Manifest {
        run: "chaos".into(),
        seed,
        args: vec![("baseline_fingerprint".into(), hex(baseline_fp))],
    });

    let ckpt_matrix = [
        CkptScenario {
            name: "ckpt-torn-write",
            kind: FaultKind::TornWrite,
            rate: 1.0,
            max_fires: Some(2),
            expect_disabled: false,
        },
        CkptScenario {
            name: "ckpt-transient-eio",
            kind: FaultKind::TransientEio,
            rate: 1.0,
            max_fires: Some(3),
            expect_disabled: false,
        },
        CkptScenario {
            name: "ckpt-enospc",
            kind: FaultKind::Enospc,
            rate: 1.0,
            max_fires: None,
            expect_disabled: true,
        },
        CkptScenario {
            name: "ckpt-fsync-fail",
            kind: FaultKind::FsyncFail,
            rate: 1.0,
            max_fires: Some(1),
            expect_disabled: false,
        },
        CkptScenario {
            name: "ckpt-latency",
            kind: FaultKind::Latency,
            rate: 1.0,
            max_fires: None,
            expect_disabled: false,
        },
    ];
    let data_matrix = [
        DataScenario {
            name: "data-bit-flip-heals",
            kind: FaultKind::BitFlip,
            rate: 1.0,
            max_fires: Some(1),
            expected: EXPECT_BIT_IDENTICAL,
        },
        DataScenario {
            name: "data-short-read-persistent",
            kind: FaultKind::ShortRead,
            rate: 1.0,
            max_fires: None,
            expected: EXPECT_TYPED_ERROR,
        },
        DataScenario {
            name: "data-transient-eio",
            kind: FaultKind::TransientEio,
            rate: 1.0,
            max_fires: Some(2),
            expected: EXPECT_BIT_IDENTICAL,
        },
    ];

    let mut results = Vec::new();
    for s in &ckpt_matrix {
        results.push(run_ckpt_scenario(s, wd, &data, seed, baseline_fp, &emitter)?);
    }
    for s in &data_matrix {
        results.push(run_data_scenario(
            s,
            &csv_path,
            csv_fnv,
            &grid,
            &cats,
            seed,
            baseline_fp,
            &emitter,
        )?);
    }
    results.push(run_resume_scenario(wd, &data, seed, baseline_fp, &emitter)?);
    results.push(run_trace_scenario(wd, &data, seed, baseline_fp, &emitter)?);
    results.push(run_nan_scenario(&data, seed, baseline_fp, &emitter)?);

    emitter.flush().map_err(|e| format!("{}: {e}", trace_path.display()))?;
    if emitter.had_error() {
        return Err(format!("{}: fault trace sink failed", trace_path.display()));
    }

    // The fault trace must round-trip through the schema validator: every
    // injected fault and recovery is a well-formed event.
    let trace_text = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let trace_events =
        parse_trace(&trace_text).map_err(|e| format!("fault trace schema invalid: {e}"))?;
    let trace_ok = trace_events.iter().any(|e| matches!(e, TraceEvent::Fault { .. }))
        && trace_events.iter().any(|e| matches!(e, TraceEvent::Recovery { .. }));

    let failed: Vec<String> =
        results.iter().filter(|r| !r.ok).map(|r| r.name.to_string()).collect();
    let passed = failed.is_empty() && trace_ok;
    write_report(
        report_path,
        seed,
        baseline_fp,
        baseline_loss,
        &results,
        trace_path,
        trace_events.len(),
        passed,
    )?;

    let mut summary =
        format!("chaos campaign (seed {seed}): baseline fingerprint {}\n", hex(baseline_fp));
    for r in &results {
        let mark = if r.ok { "ok " } else { "FAIL" };
        summary.push_str(&format!(
            "  [{mark}] {:<28} {:<16} -> {:<13} (expected {}; {} fault(s), {} recovery(ies))\n",
            r.name, r.fault, r.outcome, r.expected, r.faults_injected, r.recoveries
        ));
    }
    summary.push_str(&format!(
        "{} scenarios, {} failed; fault trace: {} events ({})\n",
        results.len(),
        failed.len(),
        trace_events.len(),
        trace_path.display()
    ));
    summary.push_str(&format!(
        "report: {} — {}",
        report_path.display(),
        if passed { "PASSED" } else { "FAILED" }
    ));
    Ok(ChaosReport { passed, scenarios: results.len(), failed, summary })
}
