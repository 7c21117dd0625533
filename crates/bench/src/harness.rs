//! Model-evaluation plumbing for the experiment driver.

use sthsl_data::{CrimeDataset, EvalReport, Predictor, Result, Split};

/// One region's running error totals. Regions are scored independently, so a
/// flat `Vec<RegionAcc>` can be band-partitioned across threads.
#[derive(Clone, Default)]
struct RegionAcc {
    abs_err: f64,
    count: usize,
    mape_sum: f64,
    mape_count: usize,
}

/// Per-region error accumulation for Figures 4 and 6.
pub struct RegionErrors {
    acc: Vec<RegionAcc>,
}

/// Minimum regions per band when scoring a day in parallel; below this the
/// loop runs inline on the caller.
const MIN_REGIONS_PER_BAND: usize = 16;

impl RegionErrors {
    fn new(r: usize) -> Self {
        RegionErrors { acc: vec![RegionAcc::default(); r] }
    }

    /// Fold one day's `[R, C]` prediction/target pair into the totals,
    /// parallel over region bands. Each region's accumulator is owned by
    /// exactly one thread and categories are visited in ascending order, so
    /// the totals are bit-identical to the serial loop at any thread count.
    fn add_day(&mut self, pred: &[f32], target: &[f32], c: usize) {
        let r = self.acc.len();
        sthsl_parallel::parallel_rows_mut(
            &mut self.acc,
            r,
            1,
            MIN_REGIONS_PER_BAND,
            |regions, band| {
                for (local, ri) in regions.enumerate() {
                    let acc = &mut band[local];
                    for ci in 0..c {
                        let p = f64::from(pred[ri * c + ci]);
                        let t = f64::from(target[ri * c + ci]);
                        // Masked protocol: only non-zero ground truth
                        // contributes, matching EvalReport's MAE/MAPE.
                        if t > 0.0 {
                            acc.abs_err += (p - t).abs();
                            acc.count += 1;
                            acc.mape_sum += (p - t).abs() / t;
                            acc.mape_count += 1;
                        }
                    }
                }
            },
        );
    }

    /// MAE of one region (over all categories and test days).
    pub fn mae(&self, region: usize) -> f64 {
        let a = &self.acc[region];
        if a.count == 0 {
            0.0
        } else {
            a.abs_err / a.count as f64
        }
    }

    /// Masked MAPE of one region.
    pub fn mape(&self, region: usize) -> f64 {
        let a = &self.acc[region];
        if a.mape_count == 0 {
            0.0
        } else {
            a.mape_sum / a.mape_count as f64
        }
    }

    /// Number of regions tracked.
    pub fn num_regions(&self) -> usize {
        self.acc.len()
    }

    /// Aggregate MAE over a subset of regions.
    pub fn mae_of(&self, regions: &[usize]) -> f64 {
        let (mut err, mut n) = (0.0f64, 0usize);
        for &r in regions {
            err += self.acc[r].abs_err;
            n += self.acc[r].count;
        }
        if n == 0 {
            0.0
        } else {
            err / n as f64
        }
    }

    /// Aggregate masked MAPE over a subset of regions.
    pub fn mape_of(&self, regions: &[usize]) -> f64 {
        let (mut s, mut n) = (0.0f64, 0usize);
        for &r in regions {
            s += self.acc[r].mape_sum;
            n += self.acc[r].mape_count;
        }
        if n == 0 {
            0.0
        } else {
            s / n as f64
        }
    }
}

/// Evaluate a *fitted* model over the test period, also collecting
/// per-region errors (Figs. 4 and 6 need them). The report is the one
/// `Predictor::evaluate` builds: the same test days in the same order.
pub fn evaluate_with_regions(
    model: &dyn Predictor,
    data: &CrimeDataset,
) -> Result<(EvalReport, RegionErrors)> {
    let (r, c) = (data.num_regions(), data.num_categories());
    let mut report = EvalReport::new(c);
    let mut regions = RegionErrors::new(r);
    // `Predictor` is not `Sync` (models hold `Rc`-based graphs), so days run
    // serially; the per-region scoring of each day fans out across threads.
    for day in data.target_days(Split::Test) {
        let sample = data.sample(day)?;
        let pred = model.predict(data, &sample.input)?;
        report.add_day(&pred, &sample.target)?;
        regions.add_day(pred.data(), sample.target.data(), c);
    }
    Ok((report, regions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::{City, Scale};
    use sthsl_baselines::ha::HistoricalAverage;
    use sthsl_baselines::BaselineConfig;

    #[test]
    fn region_errors_aggregate_consistently() {
        let (_, data) = Scale::Quick.build_dataset(City::Nyc, 3).unwrap();
        let ha = HistoricalAverage::new(BaselineConfig::tiny());
        let (report, regions) = evaluate_with_regions(&ha, &data).unwrap();
        // The same report `Predictor::evaluate` builds; Debug prints each f64
        // in its shortest round-trip form, so equal strings mean equal bits.
        assert_eq!(format!("{report:?}"), format!("{:?}", ha.evaluate(&data).unwrap()));
        assert_eq!(regions.num_regions(), 64);
        let all: Vec<usize> = (0..64).collect();
        // Micro-aggregated region MAE must sit in the convex hull of the
        // per-category masked MAEs (both use the same masked entries, only
        // the weighting differs).
        let region_mae = regions.mae_of(&all);
        let cat_maes: Vec<f64> = (0..4).map(|c| report.mae(c)).collect();
        let lo = cat_maes.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = cat_maes.iter().copied().fold(0.0f64, f64::max);
        assert!(
            region_mae >= lo - 1e-9 && region_mae <= hi + 1e-9,
            "region aggregate {region_mae} outside category range [{lo}, {hi}]"
        );
        assert!(regions.mape_of(&all) > 0.0);
    }
}
