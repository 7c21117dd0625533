//! Calibrated synthetic urban-crime simulator.
//!
//! The paper's NYC/Chicago extracts are municipal data not shipped with the
//! paper; all the model ever sees is the aggregated tensor `X ∈ R^{R×T×C}`.
//! This module generates such tensors with the statistical structure the
//! paper documents and exploits:
//!
//! 1. **Sparsity** (Fig. 1): most regions have crime-sequence density
//!    ≤ 0.25 — achieved by log-normal base intensities with low median.
//! 2. **Skew** (Fig. 2): a Pareto-boosted hotspot tail gives the power-law
//!    sorted-count curve.
//! 3. **Local spatial correlation**: base intensity is smoothed over the
//!    grid so neighbouring cells co-vary.
//! 4. **Global functional similarity**: each region is assigned an urban
//!    *function* (residential, commercial, nightlife, transit, park, mixed)
//!    drawn from spatially scattered prototype centres, so *distant* regions
//!    share dynamics — exactly the structure a hypergraph encoder should
//!    recover (Fig. 8's case-study ground truth).
//! 5. **Temporal structure**: per-category weekly profiles, a seasonal
//!    sinusoid, and AR(1) day-to-day noise shared within a region.
//! 6. **Cross-category correlation**: category intensities load on the same
//!    regional factors through a function→category affinity matrix.
//!
//! Case totals are calibrated to the paper's Table II (e.g. NYC Burglary
//! 31,799 cases over 730 days × 256 regions).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal, Poisson};
use sthsl_tensor::{Result, Tensor, TensorError};

/// One crime category and its calibration target.
#[derive(Debug, Clone)]
pub struct CategorySpec {
    /// Display name, e.g. "Burglary".
    pub name: String,
    /// Expected total number of cases over the whole simulated span.
    pub target_total: f64,
}

impl CategorySpec {
    /// Convenience constructor.
    pub fn new(name: &str, target_total: f64) -> Self {
        CategorySpec { name: name.into(), target_total }
    }
}

/// Names of the latent urban functions regions are assigned to.
pub const FUNCTION_NAMES: [&str; 6] =
    ["residential", "commercial", "nightlife", "transit", "park", "industrial"];

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Grid rows (I).
    pub rows: usize,
    /// Grid cols (J); `R = rows × cols`.
    pub cols: usize,
    /// Number of simulated days (T).
    pub days: usize,
    /// Crime categories with calibration targets.
    pub categories: Vec<CategorySpec>,
    /// Number of distinct urban functions (≤ 6).
    pub num_functions: usize,
    /// Number of prototype centres scattered over the grid (several centres
    /// share a function, creating distant-but-similar regions).
    pub num_centers: usize,
    /// Fraction of regions boosted into the heavy hotspot tail.
    pub hotspot_frac: f64,
    /// Pareto shape for hotspot boosts (smaller = heavier tail).
    pub hotspot_alpha: f64,
    /// σ of the log-normal base intensity (larger = sparser median).
    pub base_sigma: f64,
    /// Amplitude of the weekly profile (0 = flat week).
    pub weekly_strength: f64,
    /// Amplitude of the seasonal sinusoid.
    pub seasonal_strength: f64,
    /// AR(1) coefficient of the regional day-to-day noise.
    pub noise_ar: f64,
    /// Innovation std of the AR(1) noise (log scale).
    pub noise_std: f64,
    /// Box-blur passes applied to base intensities (local correlation).
    pub smoothing_passes: usize,
    /// RNG seed; the whole simulation is deterministic given the config.
    pub seed: u64,
}

impl SynthConfig {
    /// NYC-like preset: 16×16 = 256 regions, 730 days, Table II categories.
    pub fn nyc_like() -> Self {
        SynthConfig {
            rows: 16,
            cols: 16,
            days: 730,
            categories: vec![
                CategorySpec::new("Burglary", 31_799.0),
                CategorySpec::new("Larceny", 85_899.0),
                CategorySpec::new("Robbery", 33_453.0),
                CategorySpec::new("Assault", 40_429.0),
            ],
            num_functions: 6,
            num_centers: 24,
            hotspot_frac: 0.06,
            hotspot_alpha: 1.2,
            base_sigma: 1.1,
            weekly_strength: 0.25,
            seasonal_strength: 0.2,
            noise_ar: 0.6,
            noise_std: 0.25,
            smoothing_passes: 2,
            seed: 20140101,
        }
    }

    /// Chicago-like preset: 12×14 = 168 regions, 730 days.
    pub fn chicago_like() -> Self {
        SynthConfig {
            rows: 12,
            cols: 14,
            days: 730,
            categories: vec![
                CategorySpec::new("Theft", 124_630.0),
                CategorySpec::new("Battery", 99_389.0),
                CategorySpec::new("Assault", 37_972.0),
                CategorySpec::new("Damage", 59_886.0),
            ],
            num_functions: 6,
            num_centers: 18,
            hotspot_frac: 0.07,
            hotspot_alpha: 1.3,
            base_sigma: 1.0,
            weekly_strength: 0.2,
            seasonal_strength: 0.25,
            noise_ar: 0.6,
            noise_std: 0.25,
            smoothing_passes: 2,
            seed: 20160101,
        }
    }

    /// Shrink the grid and span for quick experiments, scaling category
    /// targets so per-region-day rates (and thus sparsity) are preserved.
    pub fn scaled(mut self, rows: usize, cols: usize, days: usize) -> Self {
        let area_ratio = (rows * cols) as f64 / (self.rows * self.cols) as f64;
        let day_ratio = days as f64 / self.days as f64;
        for c in &mut self.categories {
            c.target_total *= area_ratio * day_ratio;
        }
        self.rows = rows;
        self.cols = cols;
        self.days = days;
        self.num_centers = (self.num_centers as f64 * area_ratio).ceil().max(4.0) as usize;
        self
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.rows * self.cols
    }
}

/// A fully simulated city: the crime tensor plus the latent ground truth
/// (function labels, intensities) used by case-study experiments.
pub struct SynthCity {
    /// Crime counts, shape `[R, T, C]`.
    pub tensor: Tensor,
    /// Grid rows.
    pub rows: usize,
    /// Grid cols.
    pub cols: usize,
    /// Category names.
    pub category_names: Vec<String>,
    /// Latent function index per region (ground truth for Fig. 8 analysis).
    pub region_function: Vec<usize>,
    /// Expected intensity per region per category (before temporal effects).
    pub base_intensity: Vec<f32>,
}

impl SynthCity {
    /// Run the simulator.
    pub fn generate(cfg: &SynthConfig) -> Result<Self> {
        if cfg.rows == 0 || cfg.cols == 0 || cfg.days == 0 || cfg.categories.is_empty() {
            return Err(TensorError::Invalid(
                "synth: rows, cols, days and categories must be non-empty".into(),
            ));
        }
        if cfg.num_functions == 0 || cfg.num_functions > FUNCTION_NAMES.len() {
            return Err(TensorError::Invalid(format!(
                "synth: num_functions must be in 1..={}",
                FUNCTION_NAMES.len()
            )));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (r, t, c) = (cfg.num_regions(), cfg.days, cfg.categories.len());

        // --- 1. Urban functions from scattered prototype centres. --------
        let centers: Vec<(f64, f64, usize)> = (0..cfg.num_centers.max(cfg.num_functions))
            .map(|i| {
                (
                    rng.gen::<f64>() * cfg.rows as f64,
                    rng.gen::<f64>() * cfg.cols as f64,
                    i % cfg.num_functions, // each function appears at several centres
                )
            })
            .collect();
        let mut region_function = vec![0usize; r];
        for (ri, rf) in region_function.iter_mut().enumerate() {
            let (y, x) = ((ri / cfg.cols) as f64 + 0.5, (ri % cfg.cols) as f64 + 0.5);
            let nearest = centers
                .iter()
                .map(|&(cy, cx, f)| {
                    let jitter = rng.gen::<f64>() * 1.5; // soft boundaries
                    (((y - cy).powi(2) + (x - cx).powi(2)).sqrt() + jitter, f)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .map_or(0, |(_, f)| f);
            *rf = nearest;
        }

        // --- 2. Function → category affinity. -----------------------------
        // Each function has its own loading on each category so that regions
        // sharing a function share a crime *profile*.
        let affinity: Vec<Vec<f64>> = (0..cfg.num_functions)
            .map(|_| (0..c).map(|_| 0.3 + 1.4 * rng.gen::<f64>()).collect())
            .collect();

        // --- 3. Per-region base intensity: log-normal + hotspot tail. -----
        let lognorm = LogNormal::new(0.0, cfg.base_sigma)
            .map_err(|e| TensorError::Invalid(format!("synth: bad base_sigma: {e}")))?;
        let mut base: Vec<f64> = (0..r).map(|_| lognorm.sample(&mut rng)).collect();
        let num_hot = ((r as f64) * cfg.hotspot_frac).ceil() as usize;
        for _ in 0..num_hot {
            let idx = rng.gen_range(0..r);
            // Pareto(α) boost: u^(−1/α).
            let u: f64 = rng.gen::<f64>().max(1e-9);
            base[idx] *= u.powf(-1.0 / cfg.hotspot_alpha).min(40.0);
        }
        // Local spatial correlation via box blur over the grid.
        for _ in 0..cfg.smoothing_passes {
            base = box_blur(&base, cfg.rows, cfg.cols);
        }

        // --- 4. Per-(region, category) intensity shares. ------------------
        // λ_{r,c} ∝ base_r · affinity[fn(r)][c] · per-region idiosyncrasy.
        let mut lam_rc = vec![0.0f64; r * c];
        for ri in 0..r {
            for ci in 0..c {
                let idio = 0.7 + 0.6 * rng.gen::<f64>();
                lam_rc[ri * c + ci] = base[ri] * affinity[region_function[ri]][ci] * idio;
            }
        }

        // --- 5. Temporal profiles. ----------------------------------------
        // Weekly: each category has a (random) favoured day-of-week pattern.
        let weekly: Vec<Vec<f64>> = (0..c)
            .map(|_| {
                let phase = rng.gen::<f64>() * 7.0;
                (0..7)
                    .map(|d| {
                        1.0 + cfg.weekly_strength
                            * (2.0 * std::f64::consts::PI * (d as f64 - phase) / 7.0).sin()
                    })
                    .collect()
            })
            .collect();
        let season_phase: Vec<f64> = (0..c).map(|_| rng.gen::<f64>() * 365.0).collect();

        // AR(1) noise per region (shared across categories → cross-category
        // correlation beyond the affinity structure).
        let mut ar = vec![0.0f64; r];

        // --- 6. Calibration: scale so E[total] matches target. ------------
        // E[count_{r,t,c}] = s_c · lam_rc · weekly · season · E[e^{ar}].
        // We compute the expected multiplier sum numerically with ar ≈ 0
        // (its mean multiplier is e^{σ²/2} under stationarity; fold that in).
        let ar_var = cfg.noise_std * cfg.noise_std / (1.0 - cfg.noise_ar * cfg.noise_ar);
        let ar_mean_mult = (ar_var / 2.0).exp();
        let mut scale = vec![0.0f64; c];
        for ci in 0..c {
            let lam_sum: f64 = (0..r).map(|ri| lam_rc[ri * c + ci]).sum();
            let mut time_sum = 0.0f64;
            for ti in 0..t {
                let wk = weekly[ci][ti % 7];
                let se = 1.0
                    + cfg.seasonal_strength
                        * (2.0 * std::f64::consts::PI * (ti as f64 - season_phase[ci]) / 365.0)
                            .sin();
                time_sum += wk * se.max(0.05);
            }
            let expected = lam_sum * time_sum * ar_mean_mult;
            scale[ci] =
                if expected > 0.0 { cfg.categories[ci].target_total / expected } else { 0.0 };
        }

        // --- 7. Sample Poisson counts. -------------------------------------
        let mut data = vec![0.0f32; r * t * c];
        for ti in 0..t {
            // Advance AR(1) noise for every region.
            for a in &mut ar {
                let innov: f64 = {
                    // Box–Muller on the config RNG keeps one RNG stream.
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                };
                *a = cfg.noise_ar * *a + cfg.noise_std * innov;
            }
            for ci in 0..c {
                let wk = weekly[ci][ti % 7];
                let se = (1.0
                    + cfg.seasonal_strength
                        * (2.0 * std::f64::consts::PI * (ti as f64 - season_phase[ci]) / 365.0)
                            .sin())
                .max(0.05);
                for ri in 0..r {
                    let lam = scale[ci] * lam_rc[ri * c + ci] * wk * se * ar[ri].exp();
                    let count = if lam <= 0.0 {
                        0.0
                    } else if lam > 1e4 {
                        lam as f32 // avoid pathological Poisson sampling
                    } else {
                        Poisson::new(lam).map_or(0.0, |p| p.sample(&mut rng) as f32)
                    };
                    data[(ri * t + ti) * c + ci] = count;
                }
            }
        }

        let base_intensity: Vec<f32> = (0..r)
            .map(|ri| (0..c).map(|ci| (scale[ci] * lam_rc[ri * c + ci]) as f32).sum())
            .collect();

        Ok(SynthCity {
            tensor: Tensor::from_vec(data, &[r, t, c])?,
            rows: cfg.rows,
            cols: cfg.cols,
            category_names: cfg.categories.iter().map(|s| s.name.clone()).collect(),
            region_function,
            base_intensity,
        })
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.tensor.shape()[0]
    }

    /// Number of days.
    pub fn num_days(&self) -> usize {
        self.tensor.shape()[1]
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.tensor.shape()[2]
    }

    /// Total simulated cases for one category.
    pub fn total_cases(&self, category: usize) -> f64 {
        let (r, t, c) = (self.num_regions(), self.num_days(), self.num_categories());
        let mut sum = 0.0f64;
        for ri in 0..r {
            for ti in 0..t {
                sum += f64::from(self.tensor.data()[(ri * t + ti) * c + category]);
            }
        }
        sum
    }

    /// Export the city as the headerless-CSV record format the loader
    /// consumes (`category,day,lon,lat`, one row per simulated case, with
    /// region centres as coordinates). The single source of the export
    /// format: `sthsl simulate` and the fault-injection tests both write
    /// this.
    pub fn export_csv(&self) -> String {
        use std::fmt::Write as _;
        let (r, t, c) = (self.num_regions(), self.num_days(), self.num_categories());
        let mut csv = String::from("# synthetic export: category,day,lon,lat\n");
        for ri in 0..r {
            let (lat, lon) = ((ri / self.cols) as f64 + 0.5, (ri % self.cols) as f64 + 0.5);
            for ti in 0..t {
                for ci in 0..c {
                    let count = self.tensor.at(&[ri, ti, ci]) as usize;
                    for _ in 0..count {
                        let _ = writeln!(csv, "{},{ti},{lon},{lat}", self.category_names[ci]);
                    }
                }
            }
        }
        csv
    }

    /// The [`crate::GridSpec`] matching [`SynthCity::export_csv`]'s
    /// coordinate convention (unit cells, region centres at `+0.5`).
    pub fn export_grid_spec(&self) -> crate::GridSpec {
        crate::GridSpec {
            lat_min: 0.0,
            lat_max: self.rows as f64,
            lon_min: 0.0,
            lon_max: self.cols as f64,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Per-region total counts of one category (for Fig. 2-style skew plots).
    pub fn region_totals(&self, category: usize) -> Vec<f64> {
        let (r, t, c) = (self.num_regions(), self.num_days(), self.num_categories());
        (0..r)
            .map(|ri| {
                (0..t).map(|ti| f64::from(self.tensor.data()[(ri * t + ti) * c + category])).sum()
            })
            .collect()
    }
}

/// 3×3 box blur over the grid, edges clamped.
fn box_blur(values: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; values.len()];
    for y in 0..rows {
        for x in 0..cols {
            let mut sum = 0.0;
            let mut n = 0.0;
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let (ny, nx) = (y as i64 + dy, x as i64 + dx);
                    if ny >= 0 && ny < rows as i64 && nx >= 0 && nx < cols as i64 {
                        sum += values[ny as usize * cols + nx as usize];
                        n += 1.0;
                    }
                }
            }
            out[y * cols + x] = sum / n;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SynthConfig {
        SynthConfig::nyc_like().scaled(6, 6, 120)
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SynthCity::generate(&small_cfg()).unwrap();
        let b = SynthCity::generate(&small_cfg()).unwrap();
        assert_eq!(a.tensor.data(), b.tensor.data());
        assert_eq!(a.region_function, b.region_function);
    }

    #[test]
    fn different_seed_differs() {
        let mut cfg = small_cfg();
        cfg.seed += 1;
        let a = SynthCity::generate(&small_cfg()).unwrap();
        let b = SynthCity::generate(&cfg).unwrap();
        assert_ne!(a.tensor.data(), b.tensor.data());
    }

    #[test]
    fn counts_are_nonnegative_integers() {
        let city = SynthCity::generate(&small_cfg()).unwrap();
        for &v in city.tensor.data() {
            assert!(v >= 0.0);
            assert_eq!(v, v.round());
        }
    }

    #[test]
    fn totals_match_calibration_targets_within_tolerance() {
        let cfg = small_cfg();
        let city = SynthCity::generate(&cfg).unwrap();
        for (ci, spec) in cfg.categories.iter().enumerate() {
            let total = city.total_cases(ci);
            let rel = (total - spec.target_total).abs() / spec.target_total;
            assert!(
                rel < 0.35,
                "{}: total {total} vs target {} (rel err {rel:.2})",
                spec.name,
                spec.target_total
            );
        }
    }

    #[test]
    fn distribution_is_skewed_power_law_like() {
        // Top 10% of regions should hold a disproportionate share of cases
        // (Fig. 2's pattern).
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(10, 10, 200)).unwrap();
        let mut totals = city.region_totals(0);
        totals.sort_by(|a, b| b.total_cmp(a));
        let all: f64 = totals.iter().sum();
        let top10: f64 = totals.iter().take(totals.len() / 10).sum();
        assert!(
            top10 / all > 0.2,
            "top-10% share {:.3} too uniform for a skewed city",
            top10 / all
        );
    }

    #[test]
    fn functions_are_shared_by_distant_regions() {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(10, 10, 30)).unwrap();
        // At least one function must appear in two regions further apart than
        // half the grid diagonal — the global-similarity property.
        let cols = city.cols;
        let mut found = false;
        'outer: for f in 0..FUNCTION_NAMES.len() {
            let members: Vec<usize> = city
                .region_function
                .iter()
                .enumerate()
                .filter(|(_, &rf)| rf == f)
                .map(|(i, _)| i)
                .collect();
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    let (ay, ax) = ((a / cols) as f64, (a % cols) as f64);
                    let (by, bx) = ((b / cols) as f64, (b % cols) as f64);
                    if ((ay - by).powi(2) + (ax - bx).powi(2)).sqrt() > 6.0 {
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found, "no function shared by distant regions");
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut cfg = small_cfg();
        cfg.days = 0;
        assert!(SynthCity::generate(&cfg).is_err());
        let mut cfg = small_cfg();
        cfg.num_functions = 0;
        assert!(SynthCity::generate(&cfg).is_err());
        let mut cfg = small_cfg();
        cfg.categories.clear();
        assert!(SynthCity::generate(&cfg).is_err());
    }

    #[test]
    fn scaled_preserves_rate_density() {
        // Scaling down should keep the per-region-day rate roughly constant.
        let big = SynthConfig::nyc_like();
        let small = SynthConfig::nyc_like().scaled(8, 8, 180);
        let rate_big: f64 = big.categories[0].target_total / (big.num_regions() * big.days) as f64;
        let rate_small: f64 =
            small.categories[0].target_total / (small.num_regions() * small.days) as f64;
        assert!((rate_big - rate_small).abs() / rate_big < 1e-9);
    }
}
