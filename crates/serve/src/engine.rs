//! The forecast engine: model + dataset + the batched autoregressive
//! forecast computation the server drains micro-batches through.
//!
//! Startup is the trust boundary. Both constructors run the same gate:
//! parameter names/shapes are cross-checked against the requested model
//! config via [`StHsl::install_params`] *before* anything is mutated, and
//! the serving tape then passes a full graphcheck pre-flight
//! ([`StHsl::serving_artifacts`] → [`sthsl_graphcheck::audit`]). A
//! checkpoint trained under a different config is rejected with a typed
//! [`StartupError`] at startup — never discovered by the first request.
//!
//! Forecast semantics: `(day, horizon)` predicts the counts for day
//! `day + horizon - 1`, starting from the observed window that ends just
//! before `day`. Horizon 1 is exactly the offline `Predictor::predict`
//! path (bit-identical — same ops over the same values); deeper horizons
//! roll the window forward autoregressively, feeding each prediction back
//! in as the newest day.

use crate::error::{ServeError, StartupError};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use sthsl_autograd::{load_latest_verified, Checkpoint, ParamStore};
use sthsl_chaos::{Io, RetryPolicy, Sleeper};
use sthsl_core::{StHsl, StHslConfig};
use sthsl_data::CrimeDataset;
use sthsl_graphcheck::AuditOptions;
use sthsl_tensor::Tensor;

/// The serving engine: one city's model over one dataset.
pub struct ForecastEngine {
    model: StHsl,
    data: CrimeDataset,
    max_horizon: usize,
}

fn internal(e: impl std::fmt::Display) -> ServeError {
    ServeError::Internal(e.to_string())
}

impl ForecastEngine {
    /// Build from the newest verified checkpoint in `dir` (checkpoint-v2,
    /// scanned via [`load_latest_verified`] so corrupt generations are
    /// quarantined and older good ones win). Returns the engine and the
    /// checkpoint path it loaded.
    pub fn from_checkpoint_dir(
        io: &dyn Io,
        dir: &Path,
        cfg: StHslConfig,
        data: CrimeDataset,
        max_horizon: usize,
        policy: RetryPolicy,
        sleeper: &dyn Sleeper,
    ) -> Result<(Self, PathBuf), StartupError> {
        let loaded = load_latest_verified(io, dir, policy, sleeper)
            .map_err(|e| StartupError::Io(e.to_string()))?;
        let Some((path, ck)) = loaded else {
            return Err(StartupError::NoCheckpoint(dir.display().to_string()));
        };
        let engine = Self::from_params(&ck.params, cfg, data, max_horizon)?;
        Ok((engine, path))
    }

    /// Build from one checkpoint file — the `--model` artifact `sthsl train`
    /// writes. A corrupt file fails its checksum here, at startup.
    pub fn from_model_file(
        path: &Path,
        cfg: StHslConfig,
        data: CrimeDataset,
        max_horizon: usize,
    ) -> Result<Self, StartupError> {
        let ck = Checkpoint::load(path).map_err(|e| StartupError::Io(e.to_string()))?;
        Self::from_params(&ck.params, cfg, data, max_horizon)
    }

    /// The shared startup gate: install `params` into a fresh model under
    /// `cfg` (names and shapes checked first), then run the pre-flight.
    fn from_params(
        params: &ParamStore,
        cfg: StHslConfig,
        data: CrimeDataset,
        max_horizon: usize,
    ) -> Result<Self, StartupError> {
        let mut model = StHsl::new(cfg, &data).map_err(|e| StartupError::Dataset(e.to_string()))?;
        model
            .install_params(params)
            .map_err(|e| StartupError::CheckpointMismatch(e.to_string()))?;
        Self::from_parts(model, data, max_horizon)
    }

    /// Build from freshly initialised parameters (no checkpoint). Useful for
    /// load benchmarks and smoke tests where forecast *values* are
    /// irrelevant but the full serving path must run.
    pub fn from_fresh(
        cfg: StHslConfig,
        data: CrimeDataset,
        max_horizon: usize,
    ) -> Result<Self, StartupError> {
        let model = StHsl::new(cfg, &data).map_err(|e| StartupError::Dataset(e.to_string()))?;
        Self::from_parts(model, data, max_horizon)
    }

    fn from_parts(
        model: StHsl,
        data: CrimeDataset,
        max_horizon: usize,
    ) -> Result<Self, StartupError> {
        if data.num_days() <= data.config.window {
            return Err(StartupError::Dataset(format!(
                "dataset has {} days, need more than the window {}",
                data.num_days(),
                data.config.window
            )));
        }
        preflight(&model, &data)?;
        Ok(ForecastEngine { model, data, max_horizon: max_horizon.max(1) })
    }

    /// Swap in the newest verified checkpoint from `dir`. Validation happens
    /// before mutation, so a rejected checkpoint leaves the running model
    /// untouched (the server keeps answering with the old parameters).
    /// Returns the path installed.
    pub fn reload_from_dir(
        &mut self,
        io: &dyn Io,
        dir: &Path,
        policy: RetryPolicy,
        sleeper: &dyn Sleeper,
    ) -> Result<PathBuf, ServeError> {
        let loaded = load_latest_verified(io, dir, policy, sleeper)
            .map_err(|e| ServeError::Unavailable(format!("reload scan failed: {e}")))?;
        let Some((path, ck)) = loaded else {
            return Err(ServeError::Unavailable(format!(
                "no verified checkpoint in {}",
                dir.display()
            )));
        };
        self.model.install_params(&ck.params).map_err(|e| {
            ServeError::Unavailable(format!("reload rejected {}: {e}", path.display()))
        })?;
        Ok(path)
    }

    /// The underlying model (read-only).
    pub fn model(&self) -> &StHsl {
        &self.model
    }

    /// The dataset being served.
    pub fn data(&self) -> &CrimeDataset {
        &self.data
    }

    /// Horizon cap requests are validated against.
    pub fn max_horizon(&self) -> usize {
        self.max_horizon
    }

    /// The day a request without an explicit `day` forecasts from: the last
    /// day the dataset can build a window for.
    pub fn default_day(&self) -> usize {
        self.data.num_days() - 1
    }

    /// Validate a `(day, horizon)` request against the dataset and the
    /// horizon cap. Errors are 422s: the request parsed fine but asks for
    /// something this engine cannot compute.
    pub fn check_spec(&self, day: usize, horizon: usize) -> Result<(), ServeError> {
        let w = self.data.config.window;
        let days = self.data.num_days();
        if day < w || day >= days {
            return Err(ServeError::Unprocessable(format!(
                "day {day} out of range: need window {w} <= day < {days}"
            )));
        }
        if horizon == 0 || horizon > self.max_horizon {
            return Err(ServeError::Unprocessable(format!(
                "horizon {horizon} out of range: need 1 <= horizon <= {}",
                self.max_horizon
            )));
        }
        Ok(())
    }

    /// Resolve a category given either its index or its name (exact, then
    /// case-insensitive).
    pub fn category_index(&self, raw: &str) -> Result<usize, ServeError> {
        let names = &self.data.category_names;
        if let Ok(idx) = raw.parse::<usize>() {
            if idx < names.len() {
                return Ok(idx);
            }
            return Err(ServeError::Unprocessable(format!(
                "category index {idx} out of range (have {})",
                names.len()
            )));
        }
        if let Some(idx) = names
            .iter()
            .position(|n| n == raw)
            .or_else(|| names.iter().position(|n| n.eq_ignore_ascii_case(raw)))
        {
            return Ok(idx);
        }
        Err(ServeError::Unprocessable(format!(
            "unknown category '{raw}' (known: {})",
            names.join(", ")
        )))
    }

    /// Validate a region index.
    pub fn check_region(&self, region: usize) -> Result<(), ServeError> {
        let r = self.data.num_regions();
        if region >= r {
            return Err(ServeError::Unprocessable(format!(
                "region {region} out of range (have {r})"
            )));
        }
        Ok(())
    }

    /// Full-grid forecasts for a batch of `(day, horizon)` specs, one
    /// `[R, C]` tensor per spec in input order.
    ///
    /// Specs sharing a day share one autoregressive chain; at each horizon
    /// step every still-active chain goes through a single
    /// [`StHsl::predict_batch`] call (one graph, one parameter injection).
    /// Chain order is sorted by day, so results are deterministic regardless
    /// of arrival order — a prerequisite for cache hits being bit-equal to
    /// misses.
    pub fn grid_forecast_batch(&self, specs: &[(usize, usize)]) -> Result<Vec<Tensor>, ServeError> {
        for &(day, horizon) in specs {
            self.check_spec(day, horizon)?;
        }
        let (r, c) = (self.data.num_regions(), self.data.num_categories());
        let tw = self.data.config.window;

        // Deepest horizon needed per distinct day; BTreeMap fixes the order.
        let mut need: BTreeMap<usize, usize> = BTreeMap::new();
        for &(day, horizon) in specs {
            let deepest = need.entry(day).or_insert(0);
            *deepest = (*deepest).max(horizon);
        }
        let mut windows: BTreeMap<usize, Tensor> = BTreeMap::new();
        for &day in need.keys() {
            windows.insert(day, self.data.sample(day).map_err(internal)?.input);
        }

        let mut results: HashMap<(usize, usize), Tensor> = HashMap::new();
        let deepest_overall = need.values().copied().max().unwrap_or(0);
        for step in 1..=deepest_overall {
            let active: Vec<usize> =
                need.iter().filter(|&(_, &h)| h >= step).map(|(&d, _)| d).collect();
            let mut batch: Vec<&Tensor> = Vec::with_capacity(active.len());
            for day in &active {
                batch.push(windows.get(day).ok_or_else(|| {
                    ServeError::Internal(format!("missing window for day {day}"))
                })?);
            }
            let preds = self.model.predict_batch(&self.data, &batch).map_err(internal)?;
            for (&day, pred) in active.iter().zip(preds) {
                if need.get(&day).copied().unwrap_or(0) > step {
                    // Roll: drop the oldest day, append the prediction as
                    // the newest (back in raw count space, as observed days
                    // are — `predict_batch` z-scores internally).
                    let newest = pred.reshape(&[r, 1, c]).map_err(internal)?;
                    let next = match windows.get(&day) {
                        Some(w) if tw > 1 => {
                            let tail = w.slice_axis(1, 1, tw - 1).map_err(internal)?;
                            Tensor::concat(&[&tail, &newest], 1).map_err(internal)?
                        }
                        _ => newest,
                    };
                    windows.insert(day, next);
                }
                results.insert((day, step), pred);
            }
        }

        specs
            .iter()
            .map(|&(day, horizon)| {
                results.get(&(day, horizon)).cloned().ok_or_else(|| {
                    ServeError::Internal(format!(
                        "forecast for (day {day}, horizon {horizon}) was not computed"
                    ))
                })
            })
            .collect()
    }

    /// Convenience single-spec wrapper around [`Self::grid_forecast_batch`].
    pub fn grid_forecast(&self, day: usize, horizon: usize) -> Result<Tensor, ServeError> {
        let mut out = self.grid_forecast_batch(&[(day, horizon)])?;
        out.pop().ok_or_else(|| ServeError::Internal("empty forecast batch".into()))
    }
}

/// The graphcheck pre-flight over the serving tape: shapes, reachability,
/// NaN taint, determinism — the same audit `sthsl graph-audit` runs, scoped
/// to the inference graph. Parameters that only feed the self-supervised
/// losses are expected-inactive, not errors.
fn preflight(model: &StHsl, data: &CrimeDataset) -> Result<(), StartupError> {
    let (g, root, params) =
        model.serving_artifacts(data).map_err(|e| StartupError::Dataset(e.to_string()))?;
    let spec = g.export_tape();
    let indexed: Vec<(String, usize)> =
        params.iter().map(|(n, v)| (n.clone(), v.index())).collect();
    let opts = AuditOptions { allow_unreachable: model.expected_serving_inactive_prefixes() };
    let report = sthsl_graphcheck::audit("ST-HSL", &spec, root.index(), &indexed, &opts);
    if report.has_errors() {
        return Err(StartupError::AuditFailed(report.render()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sthsl_chaos::{RealIo, VirtualSleeper};
    use sthsl_data::{DatasetConfig, Predictor, SynthCity, SynthConfig};

    fn tiny_dataset() -> CrimeDataset {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 60)).unwrap();
        CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 7, val_days: 5, train_fraction: 0.8 },
        )
        .unwrap()
    }

    fn tiny_cfg() -> StHslConfig {
        StHslConfig { d: 4, num_hyperedges: 6, ..StHslConfig::quick() }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sthsl_serve_engine_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn horizon_one_is_bit_identical_to_predictor_path() {
        let data = tiny_dataset();
        let engine = ForecastEngine::from_fresh(tiny_cfg(), data, 4).unwrap();
        let day = engine.default_day();
        let grid = engine.grid_forecast(day, 1).unwrap();
        let sample = engine.data().sample(day).unwrap();
        let offline = engine.model().predict(engine.data(), &sample.input).unwrap();
        assert_eq!(grid.shape(), offline.shape());
        for (a, b) in grid.data().iter().zip(offline.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batched_chains_match_independent_chains_bitwise() {
        let data = tiny_dataset();
        let engine = ForecastEngine::from_fresh(tiny_cfg(), data, 4).unwrap();
        let day = engine.default_day();
        let specs = [(day, 2), (day - 3, 1), (day, 1), (day - 3, 3)];
        let batch = engine.grid_forecast_batch(&specs).unwrap();
        for (&(d, h), got) in specs.iter().zip(&batch) {
            let solo = engine.grid_forecast(d, h).unwrap();
            for (a, b) in got.data().iter().zip(solo.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "(day {d}, horizon {h}) diverged");
            }
        }
    }

    #[test]
    fn out_of_range_specs_are_unprocessable() {
        let data = tiny_dataset();
        let engine = ForecastEngine::from_fresh(tiny_cfg(), data, 3).unwrap();
        let day = engine.default_day();
        for (d, h) in [(2, 1), (9999, 1), (day, 0), (day, 4)] {
            let err = engine.grid_forecast(d, h).unwrap_err();
            assert_eq!(err.status(), 422, "({d},{h}): {err}");
        }
        assert!(engine.check_region(9999).is_err());
        assert!(engine.category_index("no-such-crime").is_err());
        assert!(engine.category_index("999").is_err());
        let idx = engine.category_index("0").unwrap();
        assert_eq!(idx, 0);
        let name = engine.data().category_names[1].clone();
        assert_eq!(engine.category_index(&name).unwrap(), 1);
    }

    #[test]
    fn checkpoint_roundtrip_and_mismatch_rejection() {
        let data = tiny_dataset();
        let dir = tmp_dir("roundtrip");
        let model = StHsl::new(tiny_cfg(), &data).unwrap();
        model.export_checkpoint().save(dir.join("ckpt-0000000001.sthsl")).unwrap();

        let sleeper = VirtualSleeper::new();
        let (engine, path) = ForecastEngine::from_checkpoint_dir(
            &RealIo,
            &dir,
            tiny_cfg(),
            tiny_dataset(),
            4,
            RetryPolicy::none(),
            &sleeper,
        )
        .unwrap();
        assert!(path.ends_with("ckpt-0000000001.sthsl"));
        let day = engine.default_day();
        let sample = engine.data().sample(day).unwrap();
        let want = model.predict(&data, &sample.input).unwrap();
        let got = engine.grid_forecast(day, 1).unwrap();
        assert_eq!(want.data(), got.data());

        // `--model` boots the same file through the same gate…
        let file = dir.join("ckpt-0000000001.sthsl");
        let single = ForecastEngine::from_model_file(&file, tiny_cfg(), tiny_dataset(), 4).unwrap();
        assert_eq!(single.grid_forecast(day, 1).unwrap().data(), want.data());
        // …and a one-bit flip fails the checksum at startup.
        let mut bytes = std::fs::read(&file).unwrap();
        let last = bytes.len() - 9;
        bytes[last] ^= 0x01;
        let flipped = dir.join("flipped.sthsl");
        std::fs::write(&flipped, &bytes).unwrap();
        let Err(err) = ForecastEngine::from_model_file(&flipped, tiny_cfg(), tiny_dataset(), 4)
        else {
            panic!("flipped model file accepted")
        };
        assert!(err.to_string().contains("checksum"), "{err}");

        // A config whose shapes disagree must be rejected at startup.
        let Err(err) = ForecastEngine::from_checkpoint_dir(
            &RealIo,
            &dir,
            StHslConfig { d: 8, ..tiny_cfg() },
            tiny_dataset(),
            4,
            RetryPolicy::none(),
            &sleeper,
        ) else {
            panic!("mismatched checkpoint accepted")
        };
        assert!(
            matches!(err, StartupError::CheckpointMismatch(_)),
            "wanted CheckpointMismatch, got: {err}"
        );

        // An empty directory is NoCheckpoint, not a panic.
        let empty = tmp_dir("empty");
        let Err(err) = ForecastEngine::from_checkpoint_dir(
            &RealIo,
            &empty,
            tiny_cfg(),
            tiny_dataset(),
            4,
            RetryPolicy::none(),
            &sleeper,
        ) else {
            panic!("empty checkpoint dir accepted")
        };
        assert!(matches!(err, StartupError::NoCheckpoint(_)));
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(empty).ok();
    }

    #[test]
    fn reload_swaps_parameters_and_rejects_bad_generations() {
        let data = tiny_dataset();
        let dir = tmp_dir("reload");
        let a = StHsl::new(tiny_cfg(), &data).unwrap();
        a.export_checkpoint().save(dir.join("ckpt-0000000001.sthsl")).unwrap();
        let sleeper = VirtualSleeper::new();
        let (mut engine, _) = ForecastEngine::from_checkpoint_dir(
            &RealIo,
            &dir,
            tiny_cfg(),
            tiny_dataset(),
            4,
            RetryPolicy::none(),
            &sleeper,
        )
        .unwrap();
        let day = engine.default_day();
        let before = engine.grid_forecast(day, 1).unwrap();

        // Publish a newer generation with different parameters.
        let b = StHsl::new(tiny_cfg().with_seed(99), &data).unwrap();
        b.export_checkpoint().save(dir.join("ckpt-0000000002.sthsl")).unwrap();
        let path = engine.reload_from_dir(&RealIo, &dir, RetryPolicy::none(), &sleeper).unwrap();
        assert!(path.ends_with("ckpt-0000000002.sthsl"));
        let after = engine.grid_forecast(day, 1).unwrap();
        assert_ne!(before.data(), after.data());

        // Reload from an empty dir is a typed 503 and keeps the old params.
        let empty = tmp_dir("reload_empty");
        let err =
            engine.reload_from_dir(&RealIo, &empty, RetryPolicy::none(), &sleeper).unwrap_err();
        assert_eq!(err.status(), 503);
        let still = engine.grid_forecast(day, 1).unwrap();
        assert_eq!(after.data(), still.data());
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(empty).ok();
    }
}
