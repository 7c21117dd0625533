//! Resumable, self-healing training runtime (paper Alg. 1) for ST-HSL and
//! every neural baseline.
//!
//! [`TrainLoop`] drives Adam over a [`Trainable`] model's per-sample loss
//! (ST-HSL's joint objective, a baseline's squared error), mini-batched over
//! training days, and layers the fault-tolerance machinery on top:
//!
//! * **Checkpointing** — with a [`TrainOptions::checkpoint_dir`], the loop
//!   periodically writes [`Checkpoint`]s (format v2: parameters, Adam
//!   moments, trainer counters) atomically, pruning old ones down to
//!   [`TrainOptions::keep_last`].
//! * **Resume** — [`TrainOptions::resume_from`] restores a checkpoint and
//!   continues mid-epoch. Every random choice is derived from
//!   `(seed, epoch, global_step)` counters rather than a long-lived RNG, so
//!   a resumed run is **bit-identical** to an uninterrupted one. A corrupt
//!   resume target is quarantined as `*.corrupt` and the loop scans back to
//!   the newest verified-good generation in the checkpoint dir; because
//!   every generation replays identically, falling back still reproduces
//!   the uninterrupted run bit-for-bit.
//! * **Checkpoint degradation** — every checkpoint write goes through an
//!   injectable I/O seam ([`TrainLoop::with_io`]) with bounded-backoff
//!   retries; when the retry budget is exhausted the loop latches
//!   checkpointing *off* ([`TrainOutcome::checkpointing_disabled`]), fires
//!   [`TrainHooks::on_checkpoint_degraded`] and keeps training — a full
//!   disk must not kill a half-finished run.
//! * **Divergence self-healing** — on a non-finite loss the loop restores
//!   the last epoch-start snapshot, halves the learning-rate scale and
//!   retries, up to [`TrainOptions::max_divergence_retries`]; when the
//!   budget is exhausted it stops gracefully with the last good parameters.
//! * **Early stopping** — with [`TrainOptions::patience`], validation loss
//!   is tracked each epoch, the best parameters are kept (in memory and as
//!   `best.params`, a checksummed [`Checkpoint`], in the checkpoint dir) and
//!   restored when training ends. A resume reinstalls `best.params`; if it
//!   fails its checksum it is quarantined and the resume fails with a typed
//!   error, since no older generation can stand in for it.
//!
//! [`TrainHooks`] exposes the loop's seams (fault injection, batch/epoch
//! boundaries, divergence events, checkpoint writes) for tests and drivers;
//! the plain [`train`] entry point is a thin wrapper for callers that want
//! none of this.

#![expect(
    clippy::disallowed_types,
    reason = "R5: reports wall-clock training time (Table V); the clock never feeds the arithmetic"
)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;
use sthsl_autograd::checkpoint::{
    checkpoint_file_name, load_latest_verified, load_with_reread, prune_checkpoints_io, quarantine,
    sweep_stale_tmp, Checkpoint, TrainerState,
};
use sthsl_autograd::optim::{self, Adam, AdamState, Optimizer};
use sthsl_autograd::{Graph, ParamStore, ParamVars, Var};
use sthsl_chaos::{mix64, Io, RealIo, RecoveryAction, RetryPolicy, Sleeper, ThreadSleeper};
use sthsl_data::{CrimeDataset, FitReport, Predictor, Split};
use sthsl_graphcheck::AuditReport;
use sthsl_tensor::{Result, Tensor, TensorError};

/// Domain-mixing salts so each consumer of the seed gets an independent
/// stream. Every sub-seed is [`mix64`] of `(seed, salt, counter)`: making all
/// randomness a pure function of counters is what lets a checkpoint capture
/// "RNG state" as three integers.
const SHUFFLE_SALT: u64 = 0x5348_5546_464c_4531; // "SHUFFLE1"
const PERM_SALT: u64 = 0x434f_5252_5550_5431; // "CORRUPT1"
const DROPOUT_SALT: u64 = 0x4452_4f50_4f55_5431; // "DROPOUT1"

/// The optimisation settings a model's config hands [`TrainLoop::run`].
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Training epochs.
    pub epochs: usize,
    /// Samples per optimizer step.
    pub batch_size: usize,
    /// Optional cap on batches per epoch.
    pub max_batches_per_epoch: Option<usize>,
    /// Adam learning rate.
    pub lr: f32,
    /// Adam weight decay.
    pub weight_decay: f32,
    /// Seed every random choice of the run is derived from.
    pub seed: u64,
}

/// A model [`TrainLoop::run`] can train: ST-HSL and every neural baseline.
pub trait Trainable: Predictor {
    /// The parameters the optimizer updates.
    fn params(&self) -> &ParamStore;

    /// Mutable parameters, for optimizer steps, snapshot restores and resumes.
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Epochs, batching, optimizer settings and seed from the model's config.
    fn schedule(&self) -> Schedule;

    /// Training loss of one z-scored window against its target counts,
    /// recorded on `g`. `corrupt` is the step's corruption RNG in training
    /// and `None` in validation; models without a corruption branch ignore it.
    fn loss(
        &self,
        g: &Graph,
        pv: &ParamVars,
        zscored: &Tensor,
        target: &Tensor,
        corrupt: Option<&mut StdRng>,
    ) -> Result<Var>;

    /// Static audit of the training graph; the loop refuses to train a model
    /// whose report carries an error.
    fn graph_audit(&self, data: &CrimeDataset) -> Result<AuditReport>;
}

/// A fault a [`TrainHooks`] implementation can inject at a batch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Force this batch's loss to NaN, exercising the divergence-recovery
    /// path exactly as a real blow-up would.
    NanLoss,
}

/// What the loop should do after a hook observes a boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HookAction {
    /// Keep training.
    #[default]
    Continue,
    /// Write a checkpoint now (no-op without a checkpoint dir), then keep
    /// training.
    Checkpoint,
    /// Write a final checkpoint (if a dir is set) and stop training — the
    /// outcome reports `interrupted = true`.
    Stop,
}

/// Context passed to batch-level hooks.
#[derive(Debug, Clone)]
pub struct BatchCtx {
    /// Epoch in progress (0-based).
    pub epoch: usize,
    /// Index of this batch within the epoch (0-based).
    pub batch_in_epoch: u64,
    /// Optimizer steps completed including this batch.
    pub global_step: u64,
    /// This batch's mean loss.
    pub loss: f64,
    /// Global gradient norm for this batch. `None` before the backward pass
    /// has run (i.e. in [`TrainHooks::inject_fault`]), `Some` by the time
    /// [`TrainHooks::on_batch_end`] fires.
    pub grad_norm: Option<f64>,
}

/// Context passed to [`TrainHooks::on_epoch_end`].
#[derive(Debug, Clone)]
pub struct EpochCtx {
    /// The epoch that just completed (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Mean validation loss, when validation ran this epoch.
    pub val_loss: Option<f64>,
    /// Effective learning rate used this epoch: `cfg.lr` times the
    /// divergence back-off scale.
    pub lr: f32,
}

/// Context passed to [`TrainHooks::on_divergence`].
#[derive(Debug, Clone)]
pub struct DivergenceCtx {
    /// Epoch in which the non-finite loss appeared.
    pub epoch: usize,
    /// Global step of the offending batch.
    pub global_step: u64,
    /// The non-finite loss value observed.
    pub loss: f64,
    /// Recoveries consumed so far, including this one.
    pub retries_used: u32,
    /// Learning-rate scale after the backoff.
    pub lr_scale: f32,
}

/// Observation and intervention points exposed by [`TrainLoop`].
///
/// All methods have no-op defaults; implement only what you need.
pub trait TrainHooks {
    /// Called after each batch's loss is computed, before it is used.
    /// Returning a [`Fault`] injects it — the loop cannot distinguish an
    /// injected NaN from a real one, which is the point.
    fn inject_fault(&mut self, _ctx: &BatchCtx) -> Option<Fault> {
        None
    }

    /// Called after each successful optimizer step.
    fn on_batch_end(&mut self, _ctx: &BatchCtx) -> HookAction {
        HookAction::Continue
    }

    /// Called after each completed epoch (post-validation).
    fn on_epoch_end(&mut self, _ctx: &EpochCtx) -> HookAction {
        HookAction::Continue
    }

    /// Called when a non-finite loss triggered snapshot restore + backoff.
    fn on_divergence(&mut self, _ctx: &DivergenceCtx) {}

    /// Called after every checkpoint file is durably written.
    fn on_checkpoint(&mut self, _path: &Path) {}

    /// Called once when a checkpoint write exhausted its retry budget and
    /// the loop latched checkpointing off. Training continues; `error` is
    /// the final I/O failure.
    fn on_checkpoint_degraded(&mut self, _path: &Path, _error: &str) {}
}

/// The do-nothing hook set.
pub struct NoHooks;

impl TrainHooks for NoHooks {}

/// Fault-tolerance configuration for a [`TrainLoop`].
#[derive(Debug, Clone, Default)]
pub struct TrainOptions {
    /// Directory for checkpoints and `best.params`; `None` disables
    /// checkpointing entirely.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a checkpoint every N optimizer steps (0 = only at epoch ends
    /// and on [`HookAction::Checkpoint`]/[`HookAction::Stop`]).
    pub checkpoint_every: usize,
    /// How many most-recent checkpoints to retain (0 is treated as 1; the
    /// newest is never deleted). `best.params` is always kept.
    pub keep_last: usize,
    /// Resume from this checkpoint file instead of starting fresh.
    pub resume_from: Option<PathBuf>,
    /// Early-stopping patience in epochs; `None` disables early stopping.
    pub patience: Option<usize>,
    /// Divergence recoveries allowed before training stops gracefully.
    pub max_divergence_retries: u32,
    /// Compute validation loss each epoch even without `patience`.
    pub validate: bool,
}

impl TrainOptions {
    /// Defaults tuned for unattended runs: retain 3 checkpoints, allow 3
    /// divergence recoveries, no checkpoint dir until one is supplied.
    pub fn resilient() -> Self {
        TrainOptions { keep_last: 3, max_divergence_retries: 3, ..Default::default() }
    }
}

/// What a [`TrainLoop`] run produced, beyond the plain [`FitReport`].
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Epochs completed, final loss, wall-clock time (this process only).
    pub report: FitReport,
    /// True when a hook's [`HookAction::Stop`] ended training early.
    pub interrupted: bool,
    /// True when early stopping triggered.
    pub early_stopped: bool,
    /// Divergence recoveries that fired during this run.
    pub divergence_events: u32,
    /// Best validation loss seen, when validation ran.
    pub best_val: Option<f64>,
    /// `(epoch, batch_in_epoch)` this run resumed from, if it resumed.
    pub resumed_at: Option<(u64, u64)>,
    /// Checkpoint writes that failed even after retries.
    pub checkpoint_failures: u32,
    /// True when a failed write latched checkpointing off for the rest of
    /// the run (training itself continued).
    pub checkpointing_disabled: bool,
}

/// Latched health of the checkpoint write path.
#[derive(Default)]
struct CkptHealth {
    failures: u32,
    disabled: bool,
}

/// Epoch-start snapshot used for divergence recovery.
struct Snapshot {
    params: ParamStore,
    adam: AdamState,
    global_step: u64,
    batch_start: u64,
    epoch_loss_accum: f64,
}

/// The resumable training loop. See the module docs for the feature set.
pub struct TrainLoop {
    opts: TrainOptions,
    io: Rc<dyn Io>,
    sleeper: Rc<dyn Sleeper>,
    retry: RetryPolicy,
}

impl TrainLoop {
    /// A loop with the given fault-tolerance options, against the real
    /// filesystem with real (bounded-backoff) retry sleeps.
    pub fn new(opts: TrainOptions) -> Self {
        TrainLoop::with_io(
            opts,
            Rc::new(RealIo),
            Rc::new(ThreadSleeper),
            RetryPolicy::default_checkpoint(),
        )
    }

    /// A loop whose every filesystem touch (checkpoints, `best.params`,
    /// resume reads, pruning, tmp sweeps) goes through `io` — the seam
    /// `tests/failure_injection.rs` injects faults through — retried under
    /// `retry` with backoff delays served by `sleeper`.
    pub fn with_io(
        opts: TrainOptions,
        io: Rc<dyn Io>,
        sleeper: Rc<dyn Sleeper>,
        retry: RetryPolicy,
    ) -> Self {
        TrainLoop { opts, io, sleeper, retry }
    }

    /// Train `model` on `data`'s training split.
    pub fn run(
        &self,
        model: &mut dyn Trainable,
        data: &CrimeDataset,
        hooks: &mut dyn TrainHooks,
    ) -> Result<TrainOutcome> {
        let cfg = model.schedule();
        let mut opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
        opt.max_grad_norm = Some(5.0);

        let sorted_days = data.target_days(Split::Train);
        if sorted_days.is_empty() {
            return Err(TensorError::Invalid("train: no training days available".into()));
        }
        let val_days = data.target_days(Split::Val);
        let want_val = self.opts.patience.is_some() || self.opts.validate;

        let io = Rc::clone(&self.io);
        // A crashed atomic write leaves `.{name}.tmp-{pid}` litter; sweep it
        // before anything else so a stale partial file can never be confused
        // with a real artifact.
        if let Some(dir) = &self.opts.checkpoint_dir {
            let _ = sweep_stale_tmp(io.as_ref(), dir);
        }

        let mut state = TrainerState { seed: cfg.seed, ..TrainerState::default() };
        let mut resumed_at = None;
        let mut best: Option<Checkpoint> = None;
        if let Some(path) = &self.opts.resume_from {
            let ck = self.load_resume_checkpoint(io.as_ref(), path)?;
            if ck.trainer.seed != cfg.seed {
                return Err(TensorError::Invalid(format!(
                    "resume: checkpoint was trained with seed {} but config has seed {} — \
                     resuming would not reproduce the original run",
                    ck.trainer.seed, cfg.seed
                )));
            }
            model.params_mut().copy_values_from(&ck.params).map_err(TensorError::Invalid)?;
            opt.import_state(ck.adam);
            state = ck.trainer;
            resumed_at = Some((state.epoch, state.batch_in_epoch));
            if let Some(dir) = &self.opts.checkpoint_dir {
                let best_path = dir.join(BEST_PARAMS);
                if io.exists(&best_path) {
                    best = Some(self.load_best(io.as_ref(), &best_path)?);
                }
            }
        }

        // Mandatory pre-flight: statically audit the graph this configuration
        // actually builds — shape consistency, parameter reachability, dead
        // compute, value ranges — and refuse to spend a single optimizer step
        // on a miswired model.
        let audit = model.graph_audit(data)?;
        if audit.has_errors() {
            return Err(TensorError::Invalid(format!(
                "graph audit failed; refusing to train a miswired model\n{}",
                audit.render()
            )));
        }

        let start = Instant::now();
        let mut interrupted = false;
        let mut early_stopped = false;
        let mut divergence_events = 0u32;
        let mut ckpt_health = CkptHealth::default();

        'training: while state.epoch < cfg.epochs as u64 {
            let epoch = state.epoch as usize;

            // Per-epoch day order: a fresh shuffle of the sorted list, seeded
            // by (seed, epoch) — independent of any earlier history, so a
            // resume re-derives it exactly.
            let mut days = sorted_days.clone();
            days.shuffle(&mut StdRng::seed_from_u64(mix64(cfg.seed, SHUFFLE_SALT, state.epoch)));
            let mut chunks: Vec<&[usize]> = days.chunks(cfg.batch_size.max(1)).collect();
            if let Some(max) = cfg.max_batches_per_epoch {
                chunks.truncate(max);
            }

            'attempt: loop {
                let snap = Snapshot {
                    params: model.params().clone(),
                    adam: opt.export_state(),
                    global_step: state.global_step,
                    batch_start: state.batch_in_epoch,
                    epoch_loss_accum: state.epoch_loss_accum,
                };
                opt.lr = cfg.lr * state.lr_scale;

                for (bi, chunk) in chunks.iter().enumerate() {
                    if (bi as u64) < state.batch_in_epoch {
                        continue;
                    }
                    state.global_step += 1;
                    // Not `seed ^ step`, which gives the runs of seeds s and
                    // t the same dropout masks at steps k and k ^ s ^ t.
                    let g = Graph::training(mix64(cfg.seed, DROPOUT_SALT, state.global_step));
                    let pv = model.params().inject(&g);
                    // Corruption draws come from a per-batch RNG seeded by
                    // (seed, global_step): replayable from the counters.
                    let mut perm_rng =
                        StdRng::seed_from_u64(mix64(cfg.seed, PERM_SALT, state.global_step));
                    let mut loss = g.constant(Tensor::scalar(0.0));
                    for (slot, &day) in chunk.iter().enumerate() {
                        let sample = data.sample(day)?;
                        let z = data.zscore(&sample.input);
                        g.begin_sample(slot as u64);
                        let l = model.loss(&g, &pv, &z, &sample.target, Some(&mut perm_rng))?;
                        loss = g.add(loss, l)?;
                    }
                    let loss = g.scale(loss, 1.0 / chunk.len() as f32);
                    let mut lv = g.value(loss).item()?;

                    let mut ctx = BatchCtx {
                        epoch,
                        batch_in_epoch: bi as u64,
                        global_step: state.global_step,
                        loss: f64::from(lv),
                        grad_norm: None,
                    };
                    if hooks.inject_fault(&ctx) == Some(Fault::NanLoss) {
                        lv = f32::NAN;
                    }

                    if !lv.is_finite() {
                        // Restore the snapshot; either back off and retry or,
                        // with the budget spent, stop with the last good
                        // parameters.
                        model
                            .params_mut()
                            .copy_values_from(&snap.params)
                            .map_err(TensorError::Invalid)?;
                        opt.import_state(snap.adam.clone());
                        state.global_step = snap.global_step;
                        state.batch_in_epoch = snap.batch_start;
                        state.epoch_loss_accum = snap.epoch_loss_accum;
                        if state.divergence_retries >= self.opts.max_divergence_retries {
                            break 'training;
                        }
                        state.divergence_retries += 1;
                        state.lr_scale *= 0.5;
                        divergence_events += 1;
                        hooks.on_divergence(&DivergenceCtx {
                            epoch,
                            global_step: ctx.global_step,
                            loss: ctx.loss,
                            retries_used: state.divergence_retries,
                            lr_scale: state.lr_scale,
                        });
                        continue 'attempt;
                    }

                    let grads = g.backward(loss)?;
                    ctx.grad_norm = Some(optim::global_grad_norm(model.params(), &pv, &grads));
                    opt.step(model.params_mut(), &pv, &grads)?;
                    state.batch_in_epoch = bi as u64 + 1;
                    state.epoch_loss_accum += f64::from(lv);

                    let periodic = self.opts.checkpoint_every > 0
                        && state.global_step.is_multiple_of(self.opts.checkpoint_every as u64);
                    let action = hooks.on_batch_end(&ctx);
                    if periodic || action != HookAction::Continue {
                        self.write_checkpoint(
                            model.params(),
                            &opt,
                            &state,
                            hooks,
                            &mut ckpt_health,
                        )?;
                    }
                    if action == HookAction::Stop {
                        interrupted = true;
                        break 'training;
                    }
                }
                break 'attempt;
            }

            // Epoch completed.
            let batches = state.batch_in_epoch.max(1);
            state.last_train_loss = state.epoch_loss_accum / batches as f64;
            let mut val_loss = None;
            if want_val && !val_days.is_empty() {
                let v = self.validation_loss(model, data, &val_days)?;
                val_loss = Some(v);
                if state.best_val.is_nan() || v < state.best_val {
                    state.best_val = v;
                    state.epochs_since_improve = 0;
                    let best_ck =
                        best.insert(Checkpoint::of_params(model.params().clone(), cfg.seed));
                    if let Some(dir) = &self.opts.checkpoint_dir {
                        if !ckpt_health.disabled {
                            let best_path = dir.join(BEST_PARAMS);
                            let saved = io.create_dir_all(dir).and_then(|()| {
                                best_ck.save_with_retry(
                                    io.as_ref(),
                                    &best_path,
                                    self.retry,
                                    self.sleeper.as_ref(),
                                )
                            });
                            if let Err(e) = saved {
                                self.degrade(&mut ckpt_health, hooks, &best_path, &e);
                            }
                        }
                    }
                } else {
                    state.epochs_since_improve += 1;
                }
            }
            state.epoch += 1;
            state.batch_in_epoch = 0;
            state.epoch_loss_accum = 0.0;

            let action = hooks.on_epoch_end(&EpochCtx {
                epoch,
                train_loss: state.last_train_loss,
                val_loss,
                lr: cfg.lr * state.lr_scale,
            });
            if self.opts.checkpoint_dir.is_some() || action == HookAction::Checkpoint {
                self.write_checkpoint(model.params(), &opt, &state, hooks, &mut ckpt_health)?;
            }
            if action == HookAction::Stop {
                interrupted = true;
                break 'training;
            }
            if let Some(patience) = self.opts.patience {
                if state.epochs_since_improve as usize >= patience {
                    early_stopped = true;
                    break 'training;
                }
            }
        }

        // With early stopping active, hand back the best-validation model.
        if self.opts.patience.is_some() {
            if let Some(best) = &best {
                model.params_mut().copy_values_from(&best.params).map_err(TensorError::Invalid)?;
            }
        }

        let epochs_done = (state.epoch as usize).max(1);
        Ok(TrainOutcome {
            report: FitReport::new(
                epochs_done,
                state.last_train_loss,
                start.elapsed().as_secs_f64(),
            ),
            interrupted,
            early_stopped,
            divergence_events,
            best_val: if state.best_val.is_nan() { None } else { Some(state.best_val) },
            resumed_at,
            checkpoint_failures: ckpt_health.failures,
            checkpointing_disabled: ckpt_health.disabled,
        })
    }

    /// Mean loss over the validation split, computed deterministically (no
    /// dropout, no corruption branch).
    fn validation_loss(
        &self,
        model: &dyn Trainable,
        data: &CrimeDataset,
        val_days: &[usize],
    ) -> Result<f64> {
        let mut total = 0.0f64;
        for &day in val_days {
            let g = Graph::new();
            let pv = model.params().inject(&g);
            let sample = data.sample(day)?;
            let z = data.zscore(&sample.input);
            let l = model.loss(&g, &pv, &z, &sample.target, None)?;
            total += f64::from(g.value(l).item()?);
        }
        Ok(total / val_days.len() as f64)
    }

    /// Load the resume target through the seam. Transient read failures are
    /// retried; a *corrupt* file (checksum/parse failure) is quarantined as
    /// `*.corrupt` and the checkpoint dir is scanned back for the newest
    /// verified-good generation. Only when nothing survives does resume fail,
    /// with a typed error — never a silent fresh start over corrupt state.
    fn load_resume_checkpoint(&self, io: &dyn Io, path: &Path) -> Result<Checkpoint> {
        match load_with_reread(io, path, RetryPolicy::default_read(), self.sleeper.as_ref()) {
            Ok(ck) => Ok(ck),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let _ = quarantine(io, path);
                let dir = self.opts.checkpoint_dir.as_deref().or_else(|| path.parent());
                let survivor = match dir {
                    Some(d) => load_latest_verified(
                        io,
                        d,
                        RetryPolicy::default_read(),
                        self.sleeper.as_ref(),
                    )
                    .map_err(ckpt_err)?,
                    None => None,
                };
                match survivor {
                    Some((_, ck)) => Ok(ck),
                    None => Err(TensorError::Invalid(format!(
                        "resume: checkpoint {} is corrupt ({e}); quarantined as *.corrupt and no \
                         older verified generation survives",
                        path.display()
                    ))),
                }
            }
            Err(e) => Err(ckpt_err(e)),
        }
    }

    /// Load `best.params` for a resume. Unlike a checkpoint generation it has
    /// no older copy to fall back on, and resuming without it would hand back
    /// different parameters than the uninterrupted run, so a file that fails
    /// its checksum (persistently, after a healing re-read) is quarantined as
    /// `best.params.corrupt` and the resume fails with a typed error.
    fn load_best(&self, io: &dyn Io, path: &Path) -> Result<Checkpoint> {
        load_with_reread(io, path, RetryPolicy::default_read(), self.sleeper.as_ref()).map_err(
            |e| {
                if e.kind() != std::io::ErrorKind::InvalidData {
                    return ckpt_err(e);
                }
                let fate = match quarantine(io, path) {
                    Ok(dest) => format!("quarantined as {}", dest.display()),
                    Err(q) => format!("quarantine failed: {q}"),
                };
                TensorError::Invalid(format!(
                    "resume: best-validation parameters are corrupt ({e}); {fate}; resuming \
                     without them would not reproduce the uninterrupted run"
                ))
            },
        )
    }

    /// Latch checkpointing off after a write-path failure; training goes on.
    fn degrade(
        &self,
        health: &mut CkptHealth,
        hooks: &mut dyn TrainHooks,
        path: &Path,
        err: &std::io::Error,
    ) {
        health.failures += 1;
        health.disabled = true;
        if let Some(log) = self.io.chaos_log() {
            log.recovery(
                RecoveryAction::Degrade,
                &path.to_string_lossy(),
                format!("checkpointing disabled after exhausted retries: {err}"),
            );
        }
        hooks.on_checkpoint_degraded(path, &err.to_string());
    }

    fn write_checkpoint(
        &self,
        params: &ParamStore,
        opt: &Adam,
        state: &TrainerState,
        hooks: &mut dyn TrainHooks,
        health: &mut CkptHealth,
    ) -> Result<()> {
        let Some(dir) = &self.opts.checkpoint_dir else { return Ok(()) };
        if health.disabled {
            return Ok(());
        }
        let io = self.io.as_ref();
        let path = dir.join(checkpoint_file_name(state.global_step));
        let ck =
            Checkpoint { params: params.clone(), adam: opt.export_state(), trainer: state.clone() };
        let written = io
            .create_dir_all(dir)
            .and_then(|()| ck.save_with_retry(io, &path, self.retry, self.sleeper.as_ref()))
            .and_then(|()| prune_checkpoints_io(io, dir, self.opts.keep_last.max(1)).map(|_| ()));
        match written {
            Ok(()) => hooks.on_checkpoint(&path),
            Err(e) => self.degrade(health, hooks, &path, &e),
        }
        Ok(())
    }
}

/// File name of the best-validation parameters inside the checkpoint dir.
/// It does not match `ckpt-*.sthsl`, so retention pruning never deletes it.
const BEST_PARAMS: &str = "best.params";

fn ckpt_err(e: std::io::Error) -> TensorError {
    TensorError::Invalid(format!("checkpoint: {e}"))
}

/// Train `model` on `data`'s training split, returning the fit report.
///
/// Thin driver over [`TrainLoop`] with no checkpointing, no hooks and the
/// default divergence-recovery budget: what [`Predictor::fit`] runs for
/// ST-HSL and every neural baseline.
pub fn train(model: &mut dyn Trainable, data: &CrimeDataset) -> Result<FitReport> {
    TrainLoop::new(TrainOptions::resilient())
        .run(model, data, &mut NoHooks)
        .map(|outcome| outcome.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StHslConfig;
    use crate::model::StHsl;
    use sthsl_data::{DatasetConfig, SynthCity, SynthConfig};

    fn dataset() -> CrimeDataset {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 100)).unwrap();
        CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 7, val_days: 5, train_fraction: 7.0 / 8.0 },
        )
        .unwrap()
    }

    fn cfg() -> StHslConfig {
        StHslConfig {
            d: 4,
            num_hyperedges: 6,
            epochs: 3,
            batch_size: 4,
            max_batches_per_epoch: Some(4),
            ..StHslConfig::quick()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let data = dataset();
        let mut model = StHsl::new(cfg(), &data).unwrap();
        // Measure pre-training loss on a fixed batch.
        let probe = |model: &StHsl| -> f64 {
            let g = Graph::new();
            let pv = model.store.inject(&g);
            let mut total = 0.0f64;
            for day in [10usize, 20, 40] {
                let s = data.sample(day).unwrap();
                let z = data.zscore(&s.input);
                let l = model.sample_loss(&g, &pv, &z, &s.target, None).unwrap();
                total += f64::from(g.value(l).item().unwrap());
            }
            total
        };
        let before = probe(&model);
        let report = model.fit(&data).unwrap();
        let after = probe(&model);
        assert!(report.epochs >= 1);
        assert!(report.train_seconds > 0.0);
        assert!(after < before, "training did not reduce loss: {before} → {after}");
    }

    #[test]
    fn training_is_reproducible_for_fixed_seed() {
        let data = dataset();
        let mut m1 = StHsl::new(cfg(), &data).unwrap();
        let mut m2 = StHsl::new(cfg(), &data).unwrap();
        m1.fit(&data).unwrap();
        m2.fit(&data).unwrap();
        let s = data.sample(30).unwrap();
        let p1 = m1.predict(&data, &s.input).unwrap();
        let p2 = m2.predict(&data, &s.input).unwrap();
        assert_eq!(p1.data(), p2.data());
    }

    #[test]
    fn parameters_stay_finite_after_training() {
        let data = dataset();
        let mut model = StHsl::new(cfg(), &data).unwrap();
        model.fit(&data).unwrap();
        assert!(!model.store.any_non_finite());
    }

    #[test]
    fn hooks_observe_batches_and_epochs() {
        struct Counting {
            batches: usize,
            epochs: usize,
            val_seen: bool,
        }
        impl TrainHooks for Counting {
            fn on_batch_end(&mut self, _ctx: &BatchCtx) -> HookAction {
                self.batches += 1;
                HookAction::Continue
            }
            fn on_epoch_end(&mut self, ctx: &EpochCtx) -> HookAction {
                self.epochs += 1;
                self.val_seen |= ctx.val_loss.is_some();
                HookAction::Continue
            }
        }
        let data = dataset();
        let mut model = StHsl::new(cfg(), &data).unwrap();
        let mut hooks = Counting { batches: 0, epochs: 0, val_seen: false };
        let opts = TrainOptions { validate: true, ..TrainOptions::resilient() };
        let outcome = TrainLoop::new(opts).run(&mut model, &data, &mut hooks).unwrap();
        assert_eq!(hooks.epochs, 3);
        assert_eq!(hooks.batches, 12); // 3 epochs × 4 capped batches
        assert!(hooks.val_seen);
        assert!(outcome.best_val.is_some());
        assert!(!outcome.interrupted && !outcome.early_stopped);
    }

    #[test]
    fn stop_action_interrupts_training() {
        struct StopAfter(usize);
        impl TrainHooks for StopAfter {
            fn on_batch_end(&mut self, ctx: &BatchCtx) -> HookAction {
                if ctx.global_step as usize >= self.0 {
                    HookAction::Stop
                } else {
                    HookAction::Continue
                }
            }
        }
        let data = dataset();
        let mut model = StHsl::new(cfg(), &data).unwrap();
        let outcome = TrainLoop::new(TrainOptions::resilient())
            .run(&mut model, &data, &mut StopAfter(2))
            .unwrap();
        assert!(outcome.interrupted);
    }

    #[test]
    fn divergence_injection_heals_with_lr_backoff() {
        struct InjectOnce {
            fired: bool,
            divergences: Vec<DivergenceCtx>,
        }
        impl TrainHooks for InjectOnce {
            fn inject_fault(&mut self, ctx: &BatchCtx) -> Option<Fault> {
                if !self.fired && ctx.global_step == 3 {
                    self.fired = true;
                    return Some(Fault::NanLoss);
                }
                None
            }
            fn on_divergence(&mut self, ctx: &DivergenceCtx) {
                self.divergences.push(ctx.clone());
            }
        }
        let data = dataset();
        let mut model = StHsl::new(cfg(), &data).unwrap();
        let mut hooks = InjectOnce { fired: false, divergences: Vec::new() };
        let outcome =
            TrainLoop::new(TrainOptions::resilient()).run(&mut model, &data, &mut hooks).unwrap();
        assert_eq!(outcome.divergence_events, 1);
        assert_eq!(hooks.divergences.len(), 1);
        assert!((hooks.divergences[0].lr_scale - 0.5).abs() < 1e-6);
        assert!(outcome.report.final_loss.is_finite());
        assert!(!model.store.any_non_finite());
    }

    #[test]
    fn exhausted_divergence_budget_stops_with_last_good_params() {
        struct AlwaysNan;
        impl TrainHooks for AlwaysNan {
            fn inject_fault(&mut self, _ctx: &BatchCtx) -> Option<Fault> {
                Some(Fault::NanLoss)
            }
        }
        let data = dataset();
        let mut model = StHsl::new(cfg(), &data).unwrap();
        let opts = TrainOptions { max_divergence_retries: 2, ..TrainOptions::resilient() };
        let outcome = TrainLoop::new(opts).run(&mut model, &data, &mut AlwaysNan).unwrap();
        // Every batch NaNs, so no step ever completes; training gives up
        // after the budget and the (initial) parameters stay finite.
        assert_eq!(outcome.divergence_events, 2);
        assert!(!model.store.any_non_finite());
    }

    #[test]
    fn early_stopping_restores_best_model() {
        let data = dataset();
        let cfg = StHslConfig { epochs: 6, ..cfg() };
        let mut model = StHsl::new(cfg, &data).unwrap();
        let opts = TrainOptions { patience: Some(1), ..TrainOptions::resilient() };
        let outcome = TrainLoop::new(opts).run(&mut model, &data, &mut NoHooks).unwrap();
        let best = outcome.best_val.expect("validation must have run");
        assert!(best.is_finite());
        // The restored model's validation loss equals the reported best.
        let val_days = data.target_days(Split::Val);
        let loop_ = TrainLoop::new(TrainOptions::default());
        let v = loop_.validation_loss(&model, &data, &val_days).unwrap();
        assert!((v - best).abs() < 1e-9, "restored val {v} != best {best}");
    }
}
