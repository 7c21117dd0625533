//! The experiment driver behind `run_all`. It builds each selected city's
//! dataset once, fits each (city, model config) that a selected experiment
//! reads at most once, and renders every experiment's CSVs from those fits.

use std::error::Error;
use std::path::Path;

use sthsl_baselines::all_baselines;
use sthsl_core::{StHsl, StHslConfig};
use sthsl_data::{CrimeDataset, EvalReport, FitReport, Predictor, SynthCity};

use crate::experiments::EXPERIMENTS;
use crate::harness::{evaluate_with_regions, RegionErrors};
use crate::scale::{parse_args_from, City, Scale};

/// The driver's error type: argument, data, model and I/O errors alike.
pub type DriverResult<T> = Result<T, Box<dyn Error>>;

/// A model an experiment reads.
#[derive(Debug)]
pub enum Need {
    /// Every Table III baseline.
    Baselines,
    /// One Table III baseline, by display name.
    Baseline(&'static str),
    /// ST-HSL under one config.
    StHsl(StHslConfig),
}

/// One experiment: its id, the models it reads and its CSV writer.
pub struct Experiment {
    /// Command-line id.
    pub id: &'static str,
    /// The fits its CSVs read, in every selected city.
    pub needs: fn(&Context) -> Vec<Need>,
    /// Writes its CSVs into the output directory.
    pub render: fn(&Context, &Path) -> DriverResult<()>,
}

/// One fitted model and its single evaluation over the test period.
pub struct Run {
    /// Model display name.
    pub name: String,
    /// Training summary (Table V reads `fit.seconds_per_epoch`).
    pub fit: FitReport,
    /// Test-period metrics, as `Predictor::evaluate` reports them.
    pub eval: EvalReport,
    /// Per-region errors over the same days (Figs. 4 and 6).
    pub regions: RegionErrors,
}

impl Run {
    /// Fit `model` on `data`, evaluate it once and log the fit's wall time.
    fn new(city: City, model: &mut dyn Predictor, data: &CrimeDataset) -> DriverResult<Run> {
        let fit = model.fit(data)?;
        let (eval, regions) = evaluate_with_regions(model, data)?;
        let name = model.name();
        eprintln!(
            "  {name} ({}) fitted in {:.1}s, {:.3} s/epoch",
            city.name(),
            fit.train_seconds,
            fit.seconds_per_epoch
        );
        Ok(Run { name, fit, eval, regions })
    }
}

/// One city's data and the fits made on it so far.
pub struct CityRuns {
    /// The city preset.
    pub city: City,
    /// The simulated city (ground truth for Table II and Fig. 8).
    pub synth: SynthCity,
    /// Its windowed dataset.
    pub data: CrimeDataset,
    /// Every baseline in Table III order, with its run once fitted.
    baselines: Vec<(Box<dyn Predictor>, Option<Run>)>,
    /// Every fitted ST-HSL, keyed by its config; Fig. 8 reads the model.
    sthsl: Vec<(StHsl, Run)>,
}

impl CityRuns {
    fn new(city: City, scale: Scale, seed: u64) -> DriverResult<Self> {
        let (synth, data) = scale.build_dataset(city, seed)?;
        let baselines = all_baselines(&scale.baseline_config(seed), &data)?
            .into_iter()
            .map(|model| (model, None))
            .collect();
        Ok(CityRuns { city, synth, data, baselines, sthsl: Vec::new() })
    }

    /// Fit what `need` names unless an earlier experiment already did.
    fn ensure(&mut self, need: &Need) -> DriverResult<()> {
        match need {
            Need::StHsl(cfg) => {
                if !self.sthsl.iter().any(|(model, _)| model.config() == cfg) {
                    let mut model = StHsl::new(cfg.clone(), &self.data)?;
                    let run = Run::new(self.city, &mut model, &self.data)?;
                    self.sthsl.push((model, run));
                }
            }
            Need::Baselines | Need::Baseline(_) => {
                for (model, slot) in &mut self.baselines {
                    let wanted = match need {
                        Need::Baseline(name) => model.name() == *name,
                        _ => true,
                    };
                    if wanted && slot.is_none() {
                        *slot = Some(Run::new(self.city, model.as_mut(), &self.data)?);
                    }
                }
            }
        }
        Ok(())
    }

    /// Fits made on this city so far.
    fn fits(&self) -> usize {
        self.baselines().count() + self.sthsl.len()
    }

    /// The fitted baselines, in Table III order.
    pub fn baselines(&self) -> impl Iterator<Item = &Run> {
        self.baselines.iter().filter_map(|(_, run)| run.as_ref())
    }

    /// The fitted baseline called `name`.
    pub fn baseline(&self, name: &str) -> &Run {
        self.baselines().find(|run| run.name == name).expect("experiments list what they read")
    }

    /// The fitted ST-HSL under `cfg`, with its run.
    pub fn sthsl(&self, cfg: &StHslConfig) -> (&StHsl, &Run) {
        let (model, run) = self
            .sthsl
            .iter()
            .find(|(model, _)| model.config() == cfg)
            .expect("experiments list what they read");
        (model, run)
    }
}

/// What every experiment renders from.
pub struct Context {
    /// Experiment scale.
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
    /// Each selected city, in command-line order.
    pub cities: Vec<CityRuns>,
}

impl Context {
    /// The scale's default ST-HSL config: Table III's row.
    pub fn sthsl_config(&self) -> StHslConfig {
        self.scale.sthsl_config(self.seed)
    }
}

/// Run the experiments `argv` selects (index 0 is the program name) and
/// write their CSVs into `out`. A bad command line fails before any work;
/// `audit` runs first, so an error-level finding stops the run before any
/// fit.
pub fn run(argv: &[String], out: &Path) -> DriverResult<()> {
    let args = parse_args_from(argv)?;
    let mut cx = Context {
        scale: args.scale,
        seed: args.seed,
        cities: args
            .cities
            .iter()
            .map(|&city| CityRuns::new(city, args.scale, args.seed))
            .collect::<DriverResult<_>>()?,
    };
    println!("scale {:?}, seed {}", cx.scale, cx.seed);
    for exp in EXPERIMENTS.iter().filter(|e| args.experiments.contains(&e.id)) {
        println!("\n################ {} ################", exp.id);
        let needs = (exp.needs)(&cx);
        for city in &mut cx.cities {
            for need in &needs {
                city.ensure(need)?;
            }
        }
        (exp.render)(&cx, out)?;
    }
    for city in &cx.cities {
        println!("{}: {} fits", city.city.name(), city.fits());
    }
    println!("\nAll experiments complete; CSVs in {}.", out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        std::iter::once("run_all").chain(tokens.iter().copied()).map(String::from).collect()
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sthsl-driver-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fit_free_experiments_write_their_csvs() {
        let dir = scratch_dir("fit-free");
        run(&argv(&["--city", "nyc", "analysis", "datasets", "audit"]), &dir).unwrap();
        let mut written: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        written.sort();
        assert_eq!(
            written,
            [
                "analysis_eq12.csv",
                "fig1_density.csv",
                "fig2_skew.csv",
                "graph_audit.csv",
                "table2_datasets.csv"
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_experiment_fails_and_writes_nothing() {
        let dir = scratch_dir("unknown");
        let err = run(&argv(&["audit", "table9"]), &dir).unwrap_err();
        assert!(err.to_string().contains("'table9'"), "{err}");
        assert!(!dir.exists());
    }
}
