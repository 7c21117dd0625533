//! Bridge from the training loop's [`TrainHooks`] seam to an `sthsl-obs`
//! trace: every batch, epoch, divergence-healing action and checkpoint
//! write becomes one structured JSONL event.
//!
//! ```no_run
//! use std::rc::Rc;
//! use sthsl_core::obs_hooks::TraceHooks;
//! use sthsl_core::{StHsl, StHslConfig, TrainLoop, TrainOptions};
//! use sthsl_data::{CrimeDataset, DatasetConfig, SynthCity, SynthConfig};
//! use sthsl_obs::{RealIo, TraceEmitter, WallClock};
//!
//! let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(8, 8, 200)).unwrap();
//! let data = CrimeDataset::from_city(&city, DatasetConfig::default()).unwrap();
//! let mut model = StHsl::new(StHslConfig::quick(), &data).unwrap();
//! let emitter =
//!     TraceEmitter::to_file(&RealIo, "trace.jsonl".as_ref(), Rc::new(WallClock::new()))
//!         .unwrap();
//! let mut hooks = TraceHooks::new(&emitter);
//! TrainLoop::new(TrainOptions::resilient()).run(&mut model, &data, &mut hooks).unwrap();
//! emitter.flush().unwrap();
//! ```

use std::path::Path;

use sthsl_obs::{TraceEmitter, TraceEvent};

use crate::trainer::{BatchCtx, DivergenceCtx, EpochCtx, HookAction, TrainHooks};

/// [`TrainHooks`] implementation that emits one trace event per seam.
///
/// Never intervenes in training: every action returned is
/// [`HookAction::Continue`]. Compose it around another hook set with
/// [`TraceHooks::wrapping`] when you need both tracing and intervention.
pub struct TraceHooks<'a> {
    emitter: &'a TraceEmitter,
    inner: Option<&'a mut dyn TrainHooks>,
}

impl<'a> TraceHooks<'a> {
    /// Trace-only hooks.
    pub fn new(emitter: &'a TraceEmitter) -> Self {
        TraceHooks { emitter, inner: None }
    }

    /// Trace every seam, then delegate to `inner` for decisions (fault
    /// injection and continue/checkpoint/stop actions).
    pub fn wrapping(emitter: &'a TraceEmitter, inner: &'a mut dyn TrainHooks) -> Self {
        TraceHooks { emitter, inner: Some(inner) }
    }
}

impl TrainHooks for TraceHooks<'_> {
    fn inject_fault(&mut self, ctx: &BatchCtx) -> Option<crate::trainer::Fault> {
        self.inner.as_mut().and_then(|h| h.inject_fault(ctx))
    }

    fn on_batch_end(&mut self, ctx: &BatchCtx) -> HookAction {
        self.emitter.emit(&TraceEvent::Batch {
            epoch: ctx.epoch as u64,
            batch: ctx.batch_in_epoch,
            global_step: ctx.global_step,
            loss: ctx.loss,
            grad_norm: ctx.grad_norm,
            lr: f64::NAN, // per-batch LR is not on the seam; see the epoch event
        });
        match self.inner.as_mut() {
            Some(h) => h.on_batch_end(ctx),
            None => HookAction::Continue,
        }
    }

    fn on_epoch_end(&mut self, ctx: &EpochCtx) -> HookAction {
        self.emitter.emit(&TraceEvent::Epoch {
            epoch: ctx.epoch as u64,
            train_loss: ctx.train_loss,
            val_loss: ctx.val_loss,
            lr: f64::from(ctx.lr),
        });
        match self.inner.as_mut() {
            Some(h) => h.on_epoch_end(ctx),
            None => HookAction::Continue,
        }
    }

    fn on_divergence(&mut self, ctx: &DivergenceCtx) {
        self.emitter.emit(&TraceEvent::Divergence {
            epoch: ctx.epoch as u64,
            global_step: ctx.global_step,
            loss: ctx.loss,
            retries_used: u64::from(ctx.retries_used),
            lr_scale: f64::from(ctx.lr_scale),
        });
        if let Some(h) = self.inner.as_mut() {
            h.on_divergence(ctx);
        }
    }

    fn on_checkpoint(&mut self, path: &Path) {
        self.emitter.emit(&TraceEvent::Checkpoint { path: path.to_string_lossy().into_owned() });
        if let Some(h) = self.inner.as_mut() {
            h.on_checkpoint(path);
        }
    }

    fn on_checkpoint_degraded(&mut self, path: &Path, error: &str) {
        self.emitter.emit(&TraceEvent::Recovery {
            action: "degrade".into(),
            path: path.to_string_lossy().into_owned(),
            detail: error.to_string(),
        });
        if let Some(h) = self.inner.as_mut() {
            h.on_checkpoint_degraded(path, error);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StHslConfig;
    use crate::model::StHsl;
    use crate::trainer::{Fault, TrainLoop, TrainOptions};
    use std::cell::RefCell;
    use std::io::Write;
    use std::rc::Rc;
    use sthsl_data::{CrimeDataset, DatasetConfig, SynthCity, SynthConfig};
    use sthsl_obs::{parse_trace, FakeClock};

    #[derive(Clone, Default)]
    struct SharedBuf(Rc<RefCell<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

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
            epochs: 2,
            batch_size: 4,
            max_batches_per_epoch: Some(3),
            ..StHslConfig::quick()
        }
    }

    #[test]
    fn train_loop_emits_batch_epoch_and_divergence_events() {
        struct NanOnce(bool);
        impl TrainHooks for NanOnce {
            fn inject_fault(&mut self, ctx: &BatchCtx) -> Option<Fault> {
                assert!(ctx.grad_norm.is_none(), "no grad norm before backward");
                if !self.0 && ctx.global_step == 2 {
                    self.0 = true;
                    return Some(Fault::NanLoss);
                }
                None
            }
        }

        let buf = SharedBuf::default();
        let emitter = TraceEmitter::new(Box::new(buf.clone()), Rc::new(FakeClock::new(1)));
        let mut inner = NanOnce(false);
        let mut hooks = TraceHooks::wrapping(&emitter, &mut inner);
        let data = dataset();
        let mut model = StHsl::new(cfg(), &data).unwrap();
        let opts = TrainOptions { validate: true, ..TrainOptions::resilient() };
        let outcome = TrainLoop::new(opts).run(&mut model, &data, &mut hooks).unwrap();
        assert_eq!(outcome.divergence_events, 1);

        let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
        let events = parse_trace(&text).unwrap();
        let batches: Vec<_> =
            events.iter().filter(|e| matches!(e, TraceEvent::Batch { .. })).collect();
        let epochs: Vec<_> =
            events.iter().filter(|e| matches!(e, TraceEvent::Epoch { .. })).collect();
        let divergences: Vec<_> =
            events.iter().filter(|e| matches!(e, TraceEvent::Divergence { .. })).collect();
        // 2 epochs x 3 batches, plus one replay: the NaN at global step 2
        // restores the epoch-start snapshot, so epoch 0's first batch runs
        // (and is traced) twice.
        assert_eq!(batches.len(), 7, "{text}");
        assert_eq!(epochs.len(), 2);
        assert_eq!(divergences.len(), 1);
        for b in &batches {
            let TraceEvent::Batch { loss, grad_norm, .. } = b else { unreachable!() };
            assert!(loss.is_finite());
            let g = grad_norm.expect("grad norm must be recorded at batch end");
            assert!(g.is_finite() && g > 0.0, "grad norm {g}");
        }
        let TraceEvent::Epoch { val_loss, .. } = epochs[0] else { unreachable!() };
        assert!(val_loss.is_some(), "validate=true must produce val losses");
        let TraceEvent::Divergence { global_step, retries_used, lr_scale, .. } = divergences[0]
        else {
            unreachable!()
        };
        assert_eq!(*global_step, 2);
        assert_eq!(*retries_used, 1);
        assert!((lr_scale - 0.5).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_writes_are_traced() {
        let dir = std::env::temp_dir().join(format!("sthsl-obs-hooks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let buf = SharedBuf::default();
        let emitter = TraceEmitter::new(Box::new(buf.clone()), Rc::new(FakeClock::new(1)));
        let mut hooks = TraceHooks::new(&emitter);
        let data = dataset();
        let mut model = StHsl::new(cfg(), &data).unwrap();
        let opts = TrainOptions { checkpoint_dir: Some(dir.clone()), ..TrainOptions::resilient() };
        TrainLoop::new(opts).run(&mut model, &data, &mut hooks).unwrap();
        let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
        let events = parse_trace(&text).unwrap();
        assert!(
            events.iter().any(|e| matches!(e, TraceEvent::Checkpoint { .. })),
            "epoch-end checkpoints must be traced: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
