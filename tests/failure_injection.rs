//! Failure-injection tests: the public API must return typed errors (never
//! panic) on malformed inputs, and training must survive pathological data.

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

/// Injects a NaN loss exactly once, mid-training.
struct NanOnce {
    at_step: u64,
    fired: bool,
}

impl TrainHooks for NanOnce {
    fn inject_fault(&mut self, ctx: &BatchCtx) -> Option<Fault> {
        if !self.fired && ctx.global_step == self.at_step {
            self.fired = true;
            return Some(Fault::NanLoss);
        }
        None
    }
}

#[test]
fn injected_divergence_heals_and_finishes_with_finite_loss() {
    let data = dataset();
    let mut model = StHsl::new(tiny_cfg(), &data).unwrap();
    let outcome = model
        .fit_with(&data, TrainOptions::resilient(), &mut NanOnce { at_step: 4, fired: false })
        .unwrap();
    assert_eq!(outcome.divergence_events, 1);
    assert!(outcome.report.final_loss.is_finite());
    let sample = data.sample(30).unwrap();
    let pred = model.predict(&data, &sample.input).unwrap();
    assert!(pred.data().iter().all(|v| v.is_finite()));
}
