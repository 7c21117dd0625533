//! The `train` workload: quick-scale ST-HSL training through
//! `TrainLoop::run` with per-epoch validation and a per-epoch checkpoint.
//!
//! Timing comes from outside the loop, through its `TrainHooks`: an
//! optimizer step is the interval between two successive batch ends (the
//! first batch of an epoch starts when the previous epoch's checkpoint is
//! written), and an epoch runs from one checkpoint write to the next. Epoch 0
//! starts inside `TrainLoop::run` right after the pre-flight audit, which the
//! hooks cannot see, so it counts for steps but not for epochs. Every hook
//! reads a [`SpeedClock`], which calibrates there, so each step is scaled by
//! the host speed measured at its two ends.

use crate::calib::SpeedClock;
use crate::report::{median, peak_rss_mb, percentile, Report};
use crate::setup::{secs, Preset, Scratch, Size};
use std::path::Path;
use std::time::Instant;
use sthsl_core::{
    BatchCtx, DivergenceCtx, EpochCtx, HookAction, StHsl, TrainHooks, TrainLoop, TrainOptions,
};
use sthsl_data::CrimeDataset;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Whole epochs a run trains at least: epoch 0 plus three timed epochs.
const MIN_EPOCHS: usize = 4;
/// Percentile reported as `latency_ms_tail`: a run makes at least 47 steps,
/// and p75 keeps more than ten beyond it.
pub const TAIL_Q: f64 = 0.75;

/// A hook event at a [`SpeedClock`] reading (scaled seconds).
enum Event {
    BatchEnd(f64),
    EpochEnd(f64),
    Checkpoint(f64),
    Divergence,
}

struct Recorder {
    start: Instant,
    seconds: f64,
    clock: SpeedClock,
    events: Vec<Event>,
    epoch_losses: Vec<f64>,
}

impl TrainHooks for Recorder {
    fn on_batch_end(&mut self, _ctx: &BatchCtx) -> HookAction {
        self.events.push(Event::BatchEnd(self.clock.now()));
        HookAction::Continue
    }

    fn on_epoch_end(&mut self, ctx: &EpochCtx) -> HookAction {
        self.events.push(Event::EpochEnd(self.clock.now()));
        self.epoch_losses.push(ctx.train_loss);
        if self.epoch_losses.len() >= MIN_EPOCHS && secs(self.start) >= self.seconds {
            HookAction::Stop
        } else {
            HookAction::Continue
        }
    }

    fn on_divergence(&mut self, _ctx: &DivergenceCtx) {
        self.events.push(Event::Divergence);
    }

    fn on_checkpoint(&mut self, _path: &Path) {
        self.events.push(Event::Checkpoint(self.clock.now()));
    }
}

/// Step and epoch durations (scaled seconds) recovered from the hook
/// timeline.
fn durations(events: &[Event]) -> (Vec<f64>, Vec<f64>) {
    let mut steps = Vec::new();
    let mut boundaries: Vec<f64> = Vec::new();
    let mut prev: Option<f64> = None;
    for event in events {
        match *event {
            Event::BatchEnd(t) => {
                if let Some(p) = prev {
                    steps.push(t - p);
                }
                prev = Some(t);
            }
            Event::EpochEnd(t) => {
                boundaries.push(t);
                prev = Some(t);
            }
            // The checkpoint written after an epoch end closes that epoch.
            Event::Checkpoint(t) => {
                if let Some(last) = boundaries.last_mut() {
                    *last = t;
                }
                prev = Some(t);
            }
            // The retried step includes the snapshot restore: not a step.
            Event::Divergence => prev = None,
        }
    }
    let epochs = boundaries.windows(2).map(|w| w[1] - w[0]).collect();
    (steps, epochs)
}

/// Data generation, model construction and the pre-flight audit.
fn set_up(preset: &Preset) -> Result<(CrimeDataset, StHsl), String> {
    let data = preset.data().map_err(|e| e.to_string())?;
    let model = preset.model(&data).map_err(|e| e.to_string())?;
    let audit = model.graph_audit(&data).map_err(|e| e.to_string())?;
    if audit.has_errors() {
        return Err(format!("pre-flight audit failed:\n{}", audit.render()));
    }
    Ok((data, model))
}

pub fn run(size: Size, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    let mut preset = Preset::new(size, seed);
    preset.model.epochs = 10_000; // the recorder stops the run

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    let mut clock = SpeedClock::new();
    for _ in 0..SETUP_REPS {
        let t0 = clock.now();
        let result = set_up(&preset);
        setup_s.push(clock.now() - t0);
        built = Some(result);
    }
    let (data, mut model) = match built {
        Some(Ok(pair)) => pair,
        Some(Err(e)) => return report.fail(e),
        None => return report.fail("no set-up ran".into()),
    };

    let scratch = match Scratch::new("train") {
        Ok(s) => s,
        Err(e) => return report.fail(format!("scratch dir: {e}")),
    };
    let opts = TrainOptions {
        checkpoint_dir: Some(scratch.0.join("ckpt")),
        validate: true,
        ..TrainOptions::resilient()
    };
    let mut rec = Recorder {
        start: Instant::now(),
        seconds,
        clock,
        events: Vec::new(),
        epoch_losses: Vec::new(),
    };
    let outcome = TrainLoop::new(opts).run(&mut model, &data, &mut rec);
    let (steps, epochs) = durations(&rec.events);
    let divergences = rec.events.iter().filter(|e| matches!(e, Event::Divergence)).count() as u64;
    let measured_steps: usize =
        rec.events.iter().filter(|e| matches!(e, Event::BatchEnd(_))).count();

    report.attempted = measured_steps as u64 + divergences;
    report.failed = divergences;
    match &outcome {
        Ok(o) => {
            report.failed += u64::from(o.checkpoint_failures);
            report.check(o.report.final_loss.is_finite(), || {
                format!("final loss {} is not finite", o.report.final_loss)
            });
        }
        Err(e) => {
            report.attempted += 1;
            report.failed += 1;
            report.check(false, || format!("TrainLoop::run failed: {e}"));
        }
    }
    let losses = &rec.epoch_losses;
    report.check(losses.iter().all(|l| l.is_finite()), || {
        format!("non-finite epoch loss in {losses:?}")
    });
    report.check(
        matches!((losses.first(), losses.last()), (Some(a), Some(b)) if losses.len() >= 2 && b < a),
        || format!("final epoch loss is not below the first: {losses:?}"),
    );
    report.check(epochs.len() + 1 >= MIN_EPOCHS, || format!("only {} timed epochs", epochs.len()));

    let steps_in_timed_epochs =
        (epochs.len() * preset.model.max_batches_per_epoch.unwrap_or(0)) as f64;
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("latency_ms_p50", median(&steps) * 1e3, "ms");
    report.metric("latency_ms_tail", percentile(&steps, TAIL_Q) * 1e3, "ms");
    report.metric("ops_per_s", steps_in_timed_epochs / epochs.iter().sum::<f64>(), "1/s");
    report.note("op", "optimizer step (batch of 4: forward, backward, Adam)");
    report.note("latency_ms_tail", format!("p{}", (TAIL_Q * 100.0).round()));
    report.note("host_speed", format!("{:.3}", rec.clock.speed()));
    report.note("epoch_s", format!("{:.4}", median(&epochs)));
    report.note("step_ms_p50", format!("{:.3}", median(&steps) * 1e3));
    report.note("epochs", losses.len());
    report.note("steps_timed", steps.len());
    report.note("epoch_loss_first", losses.first().copied().unwrap_or(f64::NAN));
    report.note("epoch_loss_last", losses.last().copied().unwrap_or(f64::NAN));
    report.note("tape_nodes_train", tape_nodes(&model, &data));
    report
}

/// Forward tape size of one training sample of `model`, which the traced
/// run's count must match.
pub fn tape_nodes(model: &StHsl, data: &CrimeDataset) -> usize {
    model.audit_artifacts(data).map_or(0, |(g, _, _)| g.node_count())
}
