//! Golden-metrics regression test.
//!
//! Pins the full fixed-seed pipeline — synthetic city → dataset → HA predictor
//! → masked MAE/MAPE — and the bits of an untrained ST-HSL forecast to
//! committed values. Two things protect these pins:
//!
//! - The simulator, dataset split, predictor and metrics are all seeded and
//!   deterministic.
//! - Every parallel kernel is bit-identical across thread counts (see
//!   `tests/parallel_equivalence.rs`), so the pins hold whether CI runs with
//!   `STHSL_THREADS=1` or `STHSL_THREADS=4`.
//!
//! If a change legitimately alters these numbers (e.g. a reduction is
//! re-blocked), re-run with `--nocapture`, inspect the printed values, and
//! update the pins in the same commit with a justification.

use sthsl::prelude::*;

/// Tolerance for comparing f64 metrics that were computed from f32 tensors
/// and transcribed here with 12 significant digits.
const TOL: f64 = 1e-9;

fn golden_dataset() -> CrimeDataset {
    let cfg = SynthConfig::nyc_like().scaled(6, 6, 120);
    let city = SynthCity::generate(&cfg).expect("synthetic city");
    CrimeDataset::from_city(&city, DatasetConfig { window: 7, val_days: 6, train_fraction: 0.8 })
        .expect("dataset")
}

#[test]
fn golden_ha_metrics_are_stable() {
    let data = golden_dataset();
    let mut ha = sthsl::baselines::ha::HistoricalAverage::new(BaselineConfig::tiny());
    ha.fit(&data).expect("fit");
    let report = ha.evaluate(&data).expect("evaluate");
    let (mae, mape) = (report.mae_overall(), report.mape_overall());
    println!("golden HA: mae_overall={mae:.12} mape_overall={mape:.12}");
    assert!(
        (mae - GOLDEN_HA_MAE).abs() < TOL,
        "HA masked MAE drifted: got {mae:.12}, pinned {GOLDEN_HA_MAE:.12}"
    );
    assert!(
        (mape - GOLDEN_HA_MAPE).abs() < TOL,
        "HA masked MAPE drifted: got {mape:.12}, pinned {GOLDEN_HA_MAPE:.12}"
    );
}

#[test]
fn golden_raw_metric_functions_are_stable() {
    // Pin `mae`/`mape`/`rmse` from `data::metrics` directly on the dataset's
    // own tensor slices, so metric changes are caught even if predictors move.
    let data = golden_dataset();
    let days: Vec<usize> = data.target_days(Split::Test);
    let a = data.sample(days[0]).expect("sample").target;
    let b = data.sample(days[1]).expect("sample").target;
    let mae = sthsl::data::mae(&a, &b).expect("mae");
    let mape = sthsl::data::mape(&a, &b).expect("mape");
    let rmse = sthsl::data::rmse(&a, &b).expect("rmse");
    println!("golden raw: mae={mae:.12} mape={mape:.12} rmse={rmse:.12}");
    assert!((mae - GOLDEN_RAW_MAE).abs() < TOL, "raw MAE drifted: {mae:.12}");
    assert!((mape - GOLDEN_RAW_MAPE).abs() < TOL, "raw MAPE drifted: {mape:.12}");
    assert!((rmse - GOLDEN_RAW_RMSE).abs() < TOL, "raw RMSE drifted: {rmse:.12}");
}

#[test]
fn golden_sthsl_untrained_forecast_bits_are_stable() {
    // Pins the exact bits of an untrained, fixed-seed ST-HSL forecast. The
    // model is never trained, so only the forward pass is pinned: the
    // embedding, local view, hypergraph propagation (Eq. 4), global temporal
    // layers and prediction head, plus `sanitize_counts`.
    let data = golden_dataset();
    let cfg = StHslConfig { d: 8, num_hyperedges: 16, ..StHslConfig::quick() };
    let model = StHsl::new(cfg, &data).expect("model");
    let mut hash = FNV_OFFSET;
    for &day in data.target_days(Split::Test).iter().take(3) {
        let window = data.sample(day).expect("sample").input;
        let pred = model.predict(&data, &window).expect("predict");
        assert_eq!(pred.shape(), [data.num_regions(), data.num_categories()]);
        for v in pred.data() {
            for byte in v.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        }
    }
    println!("golden ST-HSL forecast: fnv1a={hash:#018x}");
    assert_eq!(hash, GOLDEN_STHSL_FORECAST_FNV, "ST-HSL forecast bits drifted: {hash:#018x}");
}

// ---------------------------------------------------------------- the pins
// Computed once on the seed revision of this test (see module docs for the
// update protocol). Re-pinned when the metric accumulators were widened from
// f32 to f64 and the overall averages stopped diluting with unscored (all
// zero-truth) categories: the HA values shifted in the 9th decimal from the
// accumulator widening alone — same masked entries, higher-precision sums.
const GOLDEN_HA_MAE: f64 = 0.890168084556;
const GOLDEN_HA_MAPE: f64 = 0.752688706624;
const GOLDEN_RAW_MAE: f64 = 0.298611111111;
const GOLDEN_RAW_MAPE: f64 = 0.761904761905;
const GOLDEN_RAW_RMSE: f64 = 0.583333333333;

/// FNV-1a 64-bit over the little-endian `f32::to_bits` of the untrained
/// ST-HSL forecasts for the first three test days.
const GOLDEN_STHSL_FORECAST_FNV: u64 = 0x9a52_cfff_8073_a9cc;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
