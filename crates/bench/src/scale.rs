//! Experiment scale presets and the driver's command-line parsing.
//!
//! The paper's configuration (256 regions, 730 days, 30 epochs, d=16,
//! H=128) is available as [`Scale::Paper`]; `quick` and `medium` shrink the
//! city, span and training budget so the full table suite runs on a
//! single-core machine while preserving every architectural setting.

use sthsl_baselines::BaselineConfig;
use sthsl_core::StHslConfig;
use sthsl_data::{CrimeDataset, DatasetConfig, Result, SynthCity, SynthConfig};

use crate::experiments::EXPERIMENTS;

/// Which city preset to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum City {
    /// NYC-like: 16×16 grid, Burglary/Larceny/Robbery/Assault.
    Nyc,
    /// Chicago-like: 12×14 grid, Theft/Battery/Assault/Damage.
    Chicago,
}

impl City {
    /// Display name used in table headers.
    pub fn name(&self) -> &'static str {
        match self {
            City::Nyc => "NYC",
            City::Chicago => "CHI",
        }
    }
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Single-core friendly: 8×8 regions, 240 days.
    Quick,
    /// Intermediate: 10×10 regions, 365 days.
    Medium,
    /// The paper's full configuration.
    Paper,
}

impl Scale {
    /// Simulator configuration for a city at this scale.
    pub fn synth_config(&self, city: City, seed: u64) -> SynthConfig {
        let base = match city {
            City::Nyc => SynthConfig::nyc_like(),
            City::Chicago => SynthConfig::chicago_like(),
        };
        let mut cfg = match self {
            Scale::Quick => base.scaled(8, 8, 240),
            Scale::Medium => base.scaled(10, 10, 365),
            Scale::Paper => base,
        };
        cfg.seed ^= seed;
        cfg
    }

    /// Dataset windowing for this scale.
    pub fn dataset_config(&self) -> DatasetConfig {
        match self {
            Scale::Quick => DatasetConfig { window: 14, val_days: 10, train_fraction: 7.0 / 8.0 },
            Scale::Medium => DatasetConfig { window: 21, val_days: 20, train_fraction: 7.0 / 8.0 },
            Scale::Paper => DatasetConfig::default(),
        }
    }

    /// ST-HSL hyperparameters for this scale.
    pub fn sthsl_config(&self, seed: u64) -> StHslConfig {
        let cfg = match self {
            Scale::Quick => StHslConfig::quick(),
            Scale::Medium => StHslConfig {
                d: 16,
                num_hyperedges: 64,
                epochs: 15,
                batch_size: 8,
                max_batches_per_epoch: Some(20),
                ..StHslConfig::paper()
            },
            Scale::Paper => StHslConfig::paper(),
        };
        cfg.with_seed(seed)
    }

    /// Baseline hyperparameters for this scale.
    pub fn baseline_config(&self, seed: u64) -> BaselineConfig {
        let cfg = match self {
            Scale::Quick => BaselineConfig {
                hidden: 8,
                epochs: 18,
                batch_size: 4,
                max_batches_per_epoch: Some(12),
                ..BaselineConfig::default()
            },
            Scale::Medium => BaselineConfig {
                hidden: 16,
                epochs: 15,
                batch_size: 8,
                max_batches_per_epoch: Some(20),
                ..BaselineConfig::default()
            },
            Scale::Paper => BaselineConfig {
                hidden: 16,
                epochs: 30,
                batch_size: 8,
                ..BaselineConfig::default()
            },
        };
        BaselineConfig { seed, ..cfg }
    }

    /// Generate the dataset for a city at this scale.
    pub fn build_dataset(&self, city: City, seed: u64) -> Result<(SynthCity, CrimeDataset)> {
        let city_data = SynthCity::generate(&self.synth_config(city, seed))?;
        let data = CrimeDataset::from_city(&city_data, self.dataset_config())?;
        Ok((city_data, data))
    }
}

/// The driver's command line: `--scale quick|medium|paper`,
/// `--city nyc|chi|both`, `--seed N` and experiment ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpArgs {
    /// Experiment scale (default quick).
    pub scale: Scale,
    /// Cities to run (default both).
    pub cities: Vec<City>,
    /// Base RNG seed (default 7).
    pub seed: u64,
    /// Selected experiment ids in the driver's order (default all).
    pub experiments: Vec<&'static str>,
}

/// A command line the driver refuses; each variant names the token at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag ended the line without its value.
    MissingValue(String),
    /// A flag's value is not one it accepts.
    BadValue {
        /// The flag.
        flag: String,
        /// The rejected value.
        value: String,
    },
    /// A `-`-prefixed token that is no driver flag.
    UnknownFlag(String),
    /// A token that names no experiment.
    UnknownExperiment(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue { flag, value } => {
                let expected = match flag.as_str() {
                    "--scale" => "quick, medium or paper",
                    "--city" => "nyc, chi or both",
                    _ => "a non-negative integer",
                };
                write!(f, "invalid value '{value}' for {flag}: expected {expected}")
            }
            ArgError::UnknownFlag(flag) => {
                write!(f, "unknown flag '{flag}': expected --scale, --city or --seed")
            }
            ArgError::UnknownExperiment(id) => {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
                write!(f, "unknown experiment '{id}': expected one of {}", ids.join(", "))
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Parse the driver's command line (index 0 is the program name, as in
/// `std::env::args`). Any malformed value, unknown flag or unknown
/// experiment id is an error.
pub fn parse_args_from(args: &[String]) -> std::result::Result<ExpArgs, ArgError> {
    let mut parsed = ExpArgs {
        scale: Scale::Quick,
        cities: vec![City::Nyc, City::Chicago],
        seed: 7,
        experiments: Vec::new(),
    };
    let mut chosen: Vec<&str> = Vec::new();
    let mut tokens = args.iter().skip(1);
    while let Some(token) = tokens.next() {
        if !token.starts_with('-') {
            if !EXPERIMENTS.iter().any(|e| e.id == token) {
                return Err(ArgError::UnknownExperiment(token.clone()));
            }
            chosen.push(token);
            continue;
        }
        let value = match token.as_str() {
            "--scale" | "--city" | "--seed" => {
                tokens.next().ok_or_else(|| ArgError::MissingValue(token.clone()))?
            }
            _ => return Err(ArgError::UnknownFlag(token.clone())),
        };
        let bad = || ArgError::BadValue { flag: token.clone(), value: value.clone() };
        match (token.as_str(), value.as_str()) {
            ("--scale", "quick") => parsed.scale = Scale::Quick,
            ("--scale", "medium") => parsed.scale = Scale::Medium,
            ("--scale", "paper") => parsed.scale = Scale::Paper,
            ("--city", "nyc") => parsed.cities = vec![City::Nyc],
            ("--city", "chi" | "chicago") => parsed.cities = vec![City::Chicago],
            ("--city", "both") => parsed.cities = vec![City::Nyc, City::Chicago],
            ("--seed", seed) => parsed.seed = seed.parse().map_err(|_| bad())?,
            _ => return Err(bad()),
        }
    }
    parsed.experiments = EXPERIMENTS
        .iter()
        .map(|e| e.id)
        .filter(|id| chosen.is_empty() || chosen.contains(id))
        .collect();
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_builds_dataset() {
        let (city, data) = Scale::Quick.build_dataset(City::Nyc, 1).unwrap();
        assert_eq!(city.num_regions(), 64);
        assert_eq!(data.num_days(), 240);
        assert_eq!(data.num_categories(), 4);
        assert_eq!(data.category_names[0], "Burglary");
    }

    #[test]
    fn paper_scale_matches_published_dims() {
        let cfg = Scale::Paper.synth_config(City::Nyc, 0);
        assert_eq!(cfg.num_regions(), 256);
        assert_eq!(cfg.days, 730);
        let chi = Scale::Paper.synth_config(City::Chicago, 0);
        assert_eq!(chi.num_regions(), 168);
        let ds = Scale::Paper.dataset_config();
        assert_eq!(ds.window, 30);
    }

    #[test]
    fn arg_parsing_defaults_and_overrides() {
        let parse = |s: &[&str]| {
            parse_args_from(&s.iter().map(std::string::ToString::to_string).collect::<Vec<_>>())
        };
        let d = parse(&["prog"]).unwrap();
        assert_eq!(d.scale, Scale::Quick);
        assert_eq!(d.cities.len(), 2);
        assert_eq!(d.seed, 7);
        assert_eq!(d.experiments.len(), EXPERIMENTS.len());
        let a =
            parse(&["prog", "fig8", "--scale", "paper", "--city", "nyc", "--seed", "42", "audit"])
                .unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.cities, vec![City::Nyc]);
        assert_eq!(a.seed, 42);
        // Selected ids run in the driver's order, audit first.
        assert_eq!(a.experiments, vec!["audit", "fig8"]);
        // Malformed values, unknown flags and unknown ids are rejected, each
        // naming the token at fault.
        let bad = |flag: &str, value: &str| ArgError::BadValue {
            flag: flag.to_string(),
            value: value.to_string(),
        };
        assert_eq!(parse(&["prog", "--scale", "papr"]), Err(bad("--scale", "papr")));
        assert_eq!(parse(&["prog", "--seed", "not-a-number"]), Err(bad("--seed", "not-a-number")));
        assert_eq!(parse(&["prog", "--city", "atlantis"]), Err(bad("--city", "atlantis")));
        assert_eq!(
            parse(&["prog", "--unknown", "--city", "chi"]),
            Err(ArgError::UnknownFlag("--unknown".to_string()))
        );
        assert_eq!(parse(&["prog", "--seed"]), Err(ArgError::MissingValue("--seed".to_string())));
        let unknown = parse(&["prog", "table9"]).unwrap_err();
        assert_eq!(unknown, ArgError::UnknownExperiment("table9".to_string()));
        assert!(unknown.to_string().contains("'table9'"), "{unknown}");
    }

    #[test]
    fn seeds_perturb_simulation() {
        let a = Scale::Quick.synth_config(City::Nyc, 1);
        let b = Scale::Quick.synth_config(City::Nyc, 2);
        assert_ne!(a.seed, b.seed);
    }
}
