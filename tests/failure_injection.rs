//! Failure-injection tests: the public API must return typed errors (never
//! panic) on malformed inputs, training must survive pathological data, and
//! every seeded I/O fault must either heal to the fault-free run's exact
//! parameter bits or end in a typed error.

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::OnceLock;

use sthsl::data::{dataset_from_csv_path_io, GridSpec};
use sthsl::faults::{fnv1a, ChaosEvent, RecoveryAction};
use sthsl::prelude::*;

fn dataset() -> CrimeDataset {
    let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 100)).unwrap();
    CrimeDataset::from_city(
        &city,
        DatasetConfig { window: 8, val_days: 6, train_fraction: 7.0 / 8.0 },
    )
    .unwrap()
}

fn tiny_cfg() -> StHslConfig {
    StHslConfig {
        d: 4,
        num_hyperedges: 6,
        epochs: 2,
        batch_size: 2,
        max_batches_per_epoch: Some(3),
        ..StHslConfig::quick()
    }
}

#[test]
fn predict_with_wrong_window_shape_errors() {
    let data = dataset();
    let model = StHsl::new(tiny_cfg(), &data).unwrap();
    // Wrong region count.
    assert!(model.predict(&data, &Tensor::zeros(&[9, 8, 4])).is_err());
    // Wrong window length.
    assert!(model.predict(&data, &Tensor::zeros(&[16, 5, 4])).is_err());
    // Wrong category count.
    assert!(model.predict(&data, &Tensor::zeros(&[16, 8, 2])).is_err());
}

#[test]
fn dataset_rejects_degenerate_configs() {
    let t = Tensor::zeros(&[4, 50, 2]);
    // Window longer than the span.
    let bad = DatasetConfig { window: 100, val_days: 5, train_fraction: 7.0 / 8.0 };
    assert!(CrimeDataset::new(t.clone(), 2, 2, vec!["a".into(), "b".into()], bad).is_err());
    // Validation tail eats the whole training region.
    let bad2 = DatasetConfig { window: 5, val_days: 500, train_fraction: 7.0 / 8.0 };
    assert!(CrimeDataset::new(t, 2, 2, vec!["a".into(), "b".into()], bad2).is_err());
}

#[test]
fn training_survives_all_zero_data() {
    // A city with (almost) no crime: z-scoring guards against σ=0 and the
    // trainer must complete without NaN.
    let tensor = Tensor::zeros(&[16, 100, 4]);
    let data = CrimeDataset::new(
        tensor,
        4,
        4,
        vec!["a".into(), "b".into(), "c".into(), "d".into()],
        DatasetConfig { window: 8, val_days: 6, train_fraction: 7.0 / 8.0 },
    )
    .unwrap();
    let mut model = StHsl::new(tiny_cfg(), &data).unwrap();
    let report = model.fit(&data).unwrap();
    assert!(report.final_loss.is_finite());
    let sample = data.sample(20).unwrap();
    let pred = model.predict(&data, &sample.input).unwrap();
    assert!(pred.data().iter().all(|v| v.is_finite()));
}

#[test]
fn training_survives_extreme_outlier_day() {
    // Inject a day with an absurd spike; gradient clipping plus the NaN
    // snapshot guard must keep parameters finite.
    let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 100)).unwrap();
    let mut tensor = city.tensor.clone();
    for ci in 0..4 {
        *tensor.at_mut(&[3, 40, ci]) = 1.0e4;
    }
    let data = CrimeDataset::new(
        tensor,
        4,
        4,
        city.category_names.clone(),
        DatasetConfig { window: 8, val_days: 6, train_fraction: 7.0 / 8.0 },
    )
    .unwrap();
    let mut model = StHsl::new(tiny_cfg(), &data).unwrap();
    model.fit(&data).unwrap();
    let sample = data.sample(60).unwrap();
    let pred = model.predict(&data, &sample.input).unwrap();
    assert!(pred.data().iter().all(|v| v.is_finite()), "outlier day produced NaN model");
}

#[test]
fn metrics_reject_mismatched_shapes() {
    let a = Tensor::zeros(&[4, 2]);
    let b = Tensor::zeros(&[2, 4]);
    assert!(sthsl::data::mae(&a, &b).is_err());
    assert!(sthsl::data::mape(&a, &b).is_err());
    assert!(sthsl::data::rmse(&a, &b).is_err());
    let mut rep = EvalReport::new(2);
    assert!(rep.add_day(&Tensor::zeros(&[4, 3]), &Tensor::zeros(&[4, 3])).is_err());
}

#[test]
fn simulator_rejects_invalid_configs() {
    let mut cfg = SynthConfig::nyc_like();
    cfg.rows = 0;
    assert!(SynthCity::generate(&cfg).is_err());
    let mut cfg2 = SynthConfig::nyc_like();
    cfg2.num_functions = 99;
    assert!(SynthCity::generate(&cfg2).is_err());
}

// ---------------------------------------------------------------------------
// Fault-injection harness: kill training at arbitrary batch boundaries and
// assert the resumed run is bit-identical to an uninterrupted one.
// ---------------------------------------------------------------------------

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sthsl_fi_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Simulates a crash: checkpoints and stops at one exact optimizer step.
struct KillAt {
    step: u64,
}

impl TrainHooks for KillAt {
    fn on_batch_end(&mut self, ctx: &BatchCtx) -> HookAction {
        if ctx.global_step == self.step {
            HookAction::Stop
        } else {
            HookAction::Continue
        }
    }
}

/// A model's parameter bits, in registration order.
fn param_bits(model: &StHsl) -> Vec<u32> {
    let params = model.export_checkpoint().params;
    params.ids().flat_map(|id| params.get(id).data().iter().map(|v| v.to_bits())).collect()
}

#[test]
fn resume_after_kill_is_bit_identical_to_uninterrupted_run() {
    let data = dataset();
    let cfg = tiny_cfg();
    // 2 epochs × 3 batches/epoch = 6 optimizer steps total.
    let total_steps = 6u64;

    // Reference: one uninterrupted run.
    let mut reference = StHsl::new(cfg.clone(), &data).unwrap();
    reference.fit_with(&data, TrainOptions::resilient(), &mut NoHooks).unwrap();
    let want = param_bits(&reference);

    // Kill at several batch boundaries, spanning mid-epoch and epoch edges.
    for kill_step in [1u64, 3, 4] {
        let dir = tmp_dir(&format!("kill{kill_step}"));
        let opts = TrainOptions { checkpoint_dir: Some(dir.clone()), ..TrainOptions::resilient() };
        let mut victim = StHsl::new(cfg.clone(), &data).unwrap();
        let outcome =
            victim.fit_with(&data, opts.clone(), &mut KillAt { step: kill_step }).unwrap();
        assert!(outcome.interrupted, "kill at step {kill_step} did not interrupt");

        // A fresh process: new model, resume from the latest checkpoint.
        let ck = latest_checkpoint(&dir).unwrap().expect("no checkpoint written");
        let mut revived = StHsl::new(cfg.clone(), &data).unwrap();
        let opts = TrainOptions { resume_from: Some(ck), ..opts };
        let outcome = revived.fit_with(&data, opts, &mut NoHooks).unwrap();
        assert!(outcome.resumed_at.is_some(), "resume metadata missing");
        assert!(!outcome.interrupted);

        let got = param_bits(&revived);
        assert_eq!(
            got, want,
            "kill at step {kill_step}/{total_steps}: resumed parameters differ from uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn threaded_resume_after_kill_matches_single_threaded_run() {
    // End-to-end determinism across thread counts: an uninterrupted run at 1
    // thread and a killed-then-resumed run at 4 threads must produce
    // bit-identical final parameters (every kernel's partitioning is
    // independent of the worker count; see DESIGN.md "Threading model").
    let data = dataset();
    let cfg = tiny_cfg();

    sthsl::parallel::set_num_threads(1);
    let mut reference = StHsl::new(cfg.clone(), &data).unwrap();
    reference.fit_with(&data, TrainOptions::resilient(), &mut NoHooks).unwrap();
    let want = param_bits(&reference);

    sthsl::parallel::set_num_threads(4);
    let dir = tmp_dir("threaded_kill");
    let opts = TrainOptions { checkpoint_dir: Some(dir.clone()), ..TrainOptions::resilient() };
    let mut victim = StHsl::new(cfg.clone(), &data).unwrap();
    let outcome = victim.fit_with(&data, opts.clone(), &mut KillAt { step: 3 }).unwrap();
    assert!(outcome.interrupted);

    let ck = latest_checkpoint(&dir).unwrap().expect("no checkpoint written");
    let mut revived = StHsl::new(cfg, &data).unwrap();
    let opts = TrainOptions { resume_from: Some(ck), ..opts };
    let outcome = revived.fit_with(&data, opts, &mut NoHooks).unwrap();
    assert!(outcome.resumed_at.is_some());

    let got = param_bits(&revived);
    sthsl::parallel::set_num_threads(0);
    assert_eq!(
        got, want,
        "4-thread kill/resume parameters differ from the 1-thread uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_from_corrupted_checkpoint_errors_without_panicking() {
    let data = dataset();
    let cfg = tiny_cfg();
    let dir = tmp_dir("corrupt");
    let opts = TrainOptions { checkpoint_dir: Some(dir.clone()), ..TrainOptions::resilient() };
    let mut model = StHsl::new(cfg.clone(), &data).unwrap();
    model.fit_with(&data, opts.clone(), &mut KillAt { step: 2 }).unwrap();

    let ck = latest_checkpoint(&dir).unwrap().expect("no checkpoint written");
    // Flip one byte in the middle of the file: the checksum must catch it.
    let mut bytes = std::fs::read(&ck).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&ck, &bytes).unwrap();

    let mut revived = StHsl::new(cfg.clone(), &data).unwrap();
    let opts = TrainOptions { resume_from: Some(ck), ..opts };
    let err = revived.fit_with(&data, opts, &mut NoHooks).unwrap_err();
    assert!(err.to_string().contains("checkpoint"), "unexpected error: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_with_corrupt_best_params_is_a_typed_error_and_quarantines_it() {
    let data = dataset();
    let dir = tmp_dir("best");
    let opts = TrainOptions {
        checkpoint_dir: Some(dir.clone()),
        patience: Some(2),
        ..TrainOptions::resilient()
    };
    // Epoch 0 (steps 1-3) validates and writes best.params; stop in epoch 1.
    let mut model = StHsl::new(tiny_cfg(), &data).unwrap();
    let outcome = model.fit_with(&data, opts.clone(), &mut KillAt { step: 4 }).unwrap();
    assert!(outcome.interrupted);

    // Flip one payload bit: without a checksum this still parses, and the
    // resumed run would silently hand back the flipped weights.
    let best = dir.join("best.params");
    let mut bytes = std::fs::read(&best).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&best, &bytes).unwrap();

    let ck = latest_checkpoint(&dir).unwrap().expect("no checkpoint written");
    let mut revived = StHsl::new(tiny_cfg(), &data).unwrap();
    let opts = TrainOptions { resume_from: Some(ck), ..opts };
    let err = revived.fit_with(&data, opts, &mut NoHooks).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("best.params") && msg.contains("checksum"), "unexpected error: {msg}");
    assert!(!best.exists(), "corrupt best.params must be moved aside");
    assert!(dir.join("best.params.corrupt").exists(), "corrupt best.params must be kept");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_with_different_seed_is_rejected() {
    let data = dataset();
    let cfg = tiny_cfg();
    let dir = tmp_dir("seed");
    let opts = TrainOptions { checkpoint_dir: Some(dir.clone()), ..TrainOptions::resilient() };
    let mut model = StHsl::new(cfg.clone(), &data).unwrap();
    model.fit_with(&data, opts.clone(), &mut KillAt { step: 2 }).unwrap();

    let ck = latest_checkpoint(&dir).unwrap().unwrap();
    let mut other_cfg = cfg;
    other_cfg.seed ^= 0xDEAD;
    let mut revived = StHsl::new(other_cfg, &data).unwrap();
    let opts = TrainOptions { resume_from: Some(ck), ..opts };
    let err = revived.fit_with(&data, opts, &mut NoHooks).unwrap_err();
    assert!(err.to_string().contains("seed"), "unexpected error: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Injects a NaN loss at each listed optimizer step, once each.
struct NanAt(Vec<u64>);

impl TrainHooks for NanAt {
    fn inject_fault(&mut self, ctx: &BatchCtx) -> Option<Fault> {
        let at = self.0.iter().position(|s| *s == ctx.global_step)?;
        self.0.remove(at);
        Some(Fault::NanLoss)
    }
}

#[test]
fn injected_divergence_heals_and_finishes_with_finite_loss() {
    let data = dataset();
    // One NaN mid-training, then a storm of two, one in each epoch.
    for steps in [vec![4], vec![2, 6]] {
        let mut model = StHsl::new(tiny_cfg(), &data).unwrap();
        let outcome =
            model.fit_with(&data, TrainOptions::resilient(), &mut NanAt(steps.clone())).unwrap();
        assert_eq!(outcome.divergence_events as usize, steps.len(), "NaN at {steps:?}");
        assert!(outcome.report.final_loss.is_finite(), "NaN at {steps:?}");
        let sample = data.sample(30).unwrap();
        let pred = model.predict(&data, &sample.input).unwrap();
        assert!(pred.data().iter().all(|v| v.is_finite()), "NaN at {steps:?}");
    }
}

// ---------------------------------------------------------------------------
// Seeded I/O fault matrix. Each row injects one fault through `FaultyIo`
// into the checkpoint, data or trace path of a small training job and
// checks it against the same job run fault-free.
// ---------------------------------------------------------------------------

/// Seed of every fault plan.
const SEED: u64 = 7;
/// Days of history in the job's city.
const DAYS: usize = 80;

/// The job's city, exported to `crimes.csv` in a fresh directory.
struct Job {
    dir: PathBuf,
    csv: PathBuf,
    fnv: u64,
    grid: GridSpec,
    cats: Vec<String>,
}

impl Job {
    fn new(name: &str) -> Job {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, DAYS)).unwrap();
        let text = city.export_csv();
        let dir = tmp_dir(name);
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("crimes.csv");
        std::fs::write(&csv, &text).unwrap();
        Job {
            dir,
            csv,
            fnv: fnv1a(text.as_bytes()),
            grid: city.export_grid_spec(),
            cats: city.category_names,
        }
    }

    /// Load the CSV through `io` and the checksum-verified reader.
    fn load(&self, io: &dyn Io) -> sthsl::tensor::Result<CrimeDataset> {
        let cats: Vec<&str> = self.cats.iter().map(String::as_str).collect();
        let config = DatasetConfig { window: 7, val_days: 5, train_fraction: 7.0 / 8.0 };
        let sleeper = VirtualSleeper::new();
        let policy = RetryPolicy::default_read();
        dataset_from_csv_path_io(
            io,
            &self.csv,
            Some(self.fnv),
            policy,
            &sleeper,
            &self.grid,
            &cats,
            DAYS,
            config,
        )
        .map(|(data, _stats)| data)
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Train the job's model with every file touch going through `io` and
/// backoff served by a virtual clock.
fn train_io(
    io: Rc<dyn Io>,
    data: &CrimeDataset,
    opts: TrainOptions,
    hooks: &mut dyn TrainHooks,
) -> (StHsl, TrainOutcome) {
    let mut model = StHsl::new(tiny_cfg(), data).unwrap();
    let sleeper = Rc::new(VirtualSleeper::new());
    let outcome = TrainLoop::with_io(opts, io, sleeper, RetryPolicy::default_checkpoint())
        .run(&mut model, data, hooks)
        .unwrap();
    (model, outcome)
}

/// Parameter bits of the fault-free job, trained once per test binary.
fn reference_bits() -> &'static [u32] {
    static BITS: OnceLock<Vec<u32>> = OnceLock::new();
    BITS.get_or_init(|| {
        let data = Job::new("reference").load(&RealIo).unwrap();
        param_bits(&train_io(Rc::new(RealIo), &data, TrainOptions::resilient(), &mut NoHooks).0)
    })
}

/// Records the trainer's checkpoint outcomes.
#[derive(Default)]
struct CkptSpy {
    written: usize,
    degraded: Vec<String>,
}

impl TrainHooks for CkptSpy {
    fn on_checkpoint(&mut self, _path: &Path) {
        self.written += 1;
    }
    fn on_checkpoint_degraded(&mut self, path: &Path, error: &str) {
        self.degraded.push(format!("{}: {error}", path.display()));
    }
}

#[test]
fn checkpoint_write_faults_leave_training_bit_identical() {
    let job = Job::new("ckpt_faults");
    let data = job.load(&RealIo).unwrap();
    // (fault, fires; `None` fires on every checkpoint write)
    let rows = [
        (FaultKind::TornWrite, Some(2)),
        (FaultKind::TransientEio, Some(3)),
        (FaultKind::Enospc, None),
        (FaultKind::FsyncFail, Some(1)),
        (FaultKind::Latency, None),
    ];
    for (kind, fires) in rows {
        let name = kind.as_str();
        let dir = job.dir.join(name);
        let mut rule = FaultRule::always(kind, OpClass::Write).on_path("ckpt-");
        if let Some(n) = fires {
            rule = rule.with_max_fires(n);
        }
        let io = Rc::new(FaultyIo::new(RealIo, FaultPlan::new(SEED).rule(rule)));
        let log = io.log_handle();
        let opts = TrainOptions { checkpoint_dir: Some(dir.clone()), ..TrainOptions::resilient() };
        let mut spy = CkptSpy::default();
        let (model, outcome) = train_io(io, &data, opts, &mut spy);

        assert_eq!(param_bits(&model), reference_bits(), "{name}: parameters differ");
        assert!(log.fault_count() > 0, "{name}: no fault fired");
        // Faults land on the atomic writer's temp file, never on a final
        // name: a crash at that moment leaves the older generations whole.
        for ev in log.snapshot() {
            if let ChaosEvent::Fault { path, .. } = ev {
                let file = Path::new(&path).file_name().unwrap().to_string_lossy();
                assert!(file.starts_with('.'), "{name}: fault on a final checkpoint name {path}");
            }
        }
        assert_eq!(outcome.report.epochs, tiny_cfg().epochs, "{name}: training must continue");
        assert!(outcome.report.final_loss.is_finite(), "{name}");
        if kind == FaultKind::Enospc {
            // ENOSPC is not retryable: the first checkpoint write latches
            // checkpointing off and training goes on without it.
            assert!(outcome.checkpointing_disabled, "ENOSPC must latch checkpointing off");
            assert_eq!(outcome.checkpoint_failures, 1);
            assert_eq!(spy.degraded.len(), 1, "degradation hook fires exactly once");
            assert!(spy.degraded[0].contains("ckpt-"), "{:?}", spy.degraded);
            assert_eq!(spy.written, 0, "no checkpoint can succeed under this plan");
        } else {
            assert!(!outcome.checkpointing_disabled, "{name}: a healed fault must not degrade");
            assert!(spy.degraded.is_empty(), "{name}: {:?}", spy.degraded);
            // The newest generation loads whole, so nothing is quarantined.
            let newest = latest_checkpoint(&dir).unwrap().expect("no checkpoint written");
            let sleeper = VirtualSleeper::new();
            let (survivor, _) =
                load_latest_verified(&RealIo, &dir, RetryPolicy::default_read(), &sleeper)
                    .unwrap()
                    .unwrap_or_else(|| panic!("{name}: no verified checkpoint survives"));
            assert_eq!(survivor, newest, "{name}: the newest checkpoint is corrupt");
        }
    }
}

#[test]
fn data_read_faults_heal_bit_identically_or_fail_the_checksum() {
    let job = Job::new("data_faults");
    // (fault, fires; `None` fires on every read, which never heals)
    let rows = [
        (FaultKind::BitFlip, Some(1)),
        (FaultKind::TransientEio, Some(2)),
        (FaultKind::ShortRead, None),
    ];
    for (kind, fires) in rows {
        let name = kind.as_str();
        let mut rule = FaultRule::always(kind, OpClass::Read).on_path("crimes.csv");
        if let Some(n) = fires {
            rule = rule.with_max_fires(n);
        }
        let io = Rc::new(FaultyIo::new(RealIo, FaultPlan::new(SEED).rule(rule)));
        let log = io.log_handle();
        let loaded = job.load(io.as_ref());
        assert!(log.fault_count() > 0, "{name}: no fault fired");
        match (fires, loaded) {
            (Some(_), Ok(data)) => {
                assert!(log.recovery_count() > 0, "{name}: healed without a recorded recovery");
                let (model, _) = train_io(io, &data, TrainOptions::resilient(), &mut NoHooks);
                assert_eq!(param_bits(&model), reference_bits(), "{name}: parameters differ");
            }
            (None, Err(e)) => assert!(e.to_string().contains("checksum"), "{name}: {e}"),
            (Some(_), Err(e)) => panic!("{name}: a bounded fault must heal: {e}"),
            (None, Ok(_)) => panic!("{name}: corrupt data was accepted"),
        }
    }
}

#[test]
fn corrupt_resume_target_falls_back_to_older_generation_bit_identically() {
    // Rows: the resume target is the newest generation itself, or a copy of
    // it in a sibling dir under a non-`ckpt-*` name, which the scan of the
    // checkpoint dir never lists, so only the trainer's own quarantine can
    // preserve it. `resumed_at` is the `(epoch, batch)` of the fallback.
    for (row, outside, resumed_at) in [("in_dir", false, (1, 0)), ("sibling_dir", true, (1, 2))] {
        let job = Job::new(&format!("resume_corrupt_{row}"));
        let data = job.load(&RealIo).unwrap();
        let dir = job.dir.join("ckpt");

        // Kill at step 5: the run leaves ckpt-3 (epoch 0 end) and ckpt-5
        // (written on stop) — two generations.
        let opts = TrainOptions { checkpoint_dir: Some(dir.clone()), ..TrainOptions::resilient() };
        train_io(Rc::new(RealIo), &data, opts.clone(), &mut KillAt { step: 5 });

        // Corrupt the target; resume must quarantine it, fall back to the
        // newest verified generation in `dir` (ckpt-3 when the target was
        // ckpt-5, else the intact ckpt-5) and still reproduce the
        // uninterrupted run exactly.
        let newest = latest_checkpoint(&dir).unwrap().expect("no checkpoint written");
        let target = if outside {
            let elsewhere = job.dir.join("elsewhere");
            std::fs::create_dir_all(&elsewhere).unwrap();
            elsewhere.join("resume-me.sthsl")
        } else {
            newest.clone()
        };
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&target, &bytes).unwrap();

        let io = Rc::new(FaultyIo::new(RealIo, FaultPlan::new(SEED)));
        let log = io.log_handle();
        let opts = TrainOptions { resume_from: Some(target.clone()), ..opts };
        let (revived, outcome) = train_io(io, &data, opts, &mut NoHooks);
        assert_eq!(outcome.resumed_at, Some(resumed_at), "{row}: wrong fallback generation");
        assert_eq!(param_bits(&revived), reference_bits(), "{row}: fallback resume diverged");
        let corrupt = PathBuf::from(format!("{}.corrupt", target.display()));
        assert!(corrupt.exists(), "{row}: the corrupt target must be quarantined, not deleted");
        assert!(!target.exists(), "{row}: the corrupt target is still in place");
        let quarantined = log.snapshot().into_iter().any(|ev| {
            matches!(ev, ChaosEvent::Recovery { action: RecoveryAction::Quarantine, .. })
        });
        assert!(quarantined, "{row}: the quarantine is missing from the chaos log");
    }
}

#[test]
fn trace_sink_torn_write_latches_without_touching_training() {
    let job = Job::new("trace_torn");
    let data = job.load(&RealIo).unwrap();
    let rule = FaultRule::always(FaultKind::TornWrite, OpClass::StreamWrite).on_path("victim");
    let io = FaultyIo::new(RealIo, FaultPlan::new(SEED).rule(rule));
    let path = job.dir.join("victim.jsonl");
    let emitter = TraceEmitter::to_file(&io, &path, Rc::new(FakeClock::new(1))).unwrap();
    let mut hooks = TraceHooks::new(&emitter);
    let (model, _) = train_io(Rc::new(RealIo), &data, TrainOptions::resilient(), &mut hooks);
    assert!(emitter.had_error(), "a torn trace write must latch in the emitter");
    assert!(io.log_handle().fault_count() > 0, "no fault fired");
    assert_eq!(param_bits(&model), reference_bits(), "parameters differ");
}
