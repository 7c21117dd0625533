//! Evaluation metrics: MAE, masked MAPE, RMSE, and density-degree tooling.
//!
//! Following the crime-prediction literature (and the paper's reference
//! implementation), MAPE is computed only over entries with non-zero ground
//! truth — with counts this sparse an unmasked MAPE is undefined on most
//! entries.
//!
//! All metric arithmetic widens each f32 operand to f64 *before* the
//! subtraction / division, so the free functions here, [`EvalReport`] and the
//! bench harness's per-region accumulators agree bit-for-bit on identical
//! inputs (see the cross-consistency tests).

use sthsl_tensor::{Result, Tensor, TensorError};

/// Mean absolute error over all entries.
pub fn mae(pred: &Tensor, truth: &Tensor) -> Result<f64> {
    check_same(pred, truth, "mae")?;
    if pred.is_empty() {
        return Ok(0.0);
    }
    let sum: f64 = pred
        .data()
        .iter()
        .zip(truth.data())
        .map(|(&p, &t)| (f64::from(p) - f64::from(t)).abs())
        .sum();
    Ok(sum / pred.len() as f64)
}

/// Masked mean absolute percentage error: `mean(|p − t| / t)` over entries
/// with `t > 0`. Returns 0 when no entry qualifies.
pub fn mape(pred: &Tensor, truth: &Tensor) -> Result<f64> {
    check_same(pred, truth, "mape")?;
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for (&p, &t) in pred.data().iter().zip(truth.data()) {
        if t > 0.0 {
            sum += (f64::from(p) - f64::from(t)).abs() / f64::from(t);
            n += 1;
        }
    }
    Ok(if n == 0 { 0.0 } else { sum / n as f64 })
}

/// Root mean squared error.
pub fn rmse(pred: &Tensor, truth: &Tensor) -> Result<f64> {
    check_same(pred, truth, "rmse")?;
    if pred.is_empty() {
        return Ok(0.0);
    }
    let sum: f64 = pred
        .data()
        .iter()
        .zip(truth.data())
        .map(|(&p, &t)| {
            let d = f64::from(p) - f64::from(t);
            d * d
        })
        .sum();
    Ok((sum / pred.len() as f64).sqrt())
}

fn check_same(a: &Tensor, b: &Tensor, op: &'static str) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    Ok(())
}

/// Density-degree buckets used by the robustness study (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DensityBucket {
    /// Density in (0, 0.25].
    VerySparse,
    /// Density in (0.25, 0.5].
    Sparse,
    /// Density in (0.5, 0.75].
    Dense,
    /// Density in (0.75, 1.0].
    VeryDense,
}

impl DensityBucket {
    /// Human-readable interval label matching the paper's axes.
    pub fn label(&self) -> &'static str {
        match self {
            DensityBucket::VerySparse => "(0.00, 0.25]",
            DensityBucket::Sparse => "(0.25, 0.50]",
            DensityBucket::Dense => "(0.50, 0.75]",
            DensityBucket::VeryDense => "(0.75, 1.00]",
        }
    }

    /// All buckets in order.
    pub fn all() -> [DensityBucket; 4] {
        [
            DensityBucket::VerySparse,
            DensityBucket::Sparse,
            DensityBucket::Dense,
            DensityBucket::VeryDense,
        ]
    }
}

/// Bucket for a density degree in `(0, 1]`, or `None` for an all-zero
/// region.
///
/// The paper's Fig. 6 buckets are half-open intervals `(0, 0.25]`,
/// `(0.25, 0.5]`, … — zero density belongs to none of them. A region whose
/// crime sequence is entirely zero has no masked metric either (every
/// entry is excluded by the non-zero ground-truth mask), so filing it into
/// the `(0, 0.25]` group would skew the robustness-study averages with
/// regions that contribute no error mass. Such regions are therefore
/// excluded from the grouping, which the `Option` return makes explicit.
pub fn density_bucket(density: f32) -> Option<DensityBucket> {
    if density <= 0.0 {
        None
    } else if density <= 0.25 {
        Some(DensityBucket::VerySparse)
    } else if density <= 0.5 {
        Some(DensityBucket::Sparse)
    } else if density <= 0.75 {
        Some(DensityBucket::Dense)
    } else {
        Some(DensityBucket::VeryDense)
    }
}

/// Per-region density degrees of a `[R, T, C]` tensor: the fraction of
/// non-zero elements in each region's `[T, C]` crime sequence (the paper's
/// Fig. 1 / Fig. 6 quantity).
pub fn density_degrees(tensor: &Tensor) -> Result<Vec<f32>> {
    if tensor.ndim() != 3 {
        return Err(TensorError::RankMismatch {
            op: "density_degrees",
            expected: 3,
            got: tensor.ndim(),
            shape: tensor.shape().to_vec(),
        });
    }
    let (r, t, c) = (tensor.shape()[0], tensor.shape()[1], tensor.shape()[2]);
    Ok((0..r)
        .map(|ri| {
            let nz = (0..t * c).filter(|&i| tensor.data()[ri * t * c + i] > 0.0).count();
            nz as f32 / (t * c).max(1) as f32
        })
        .collect())
}

/// Accumulates per-category predictions over many test days and reports
/// paper-style averaged metrics.
///
/// Following the sparse-crime evaluation protocol of the ST-SHN / ST-HSL
/// line of work, the primary MAE and MAPE are computed over entries with
/// **non-zero ground truth** (predicting zero on an all-zero day is trivial
/// and would swamp the average); unmasked variants are also exposed.
#[derive(Debug, Clone, Default)]
pub struct EvalReport {
    per_category: Vec<CategoryAccum>,
}

#[derive(Debug, Clone, Default)]
struct CategoryAccum {
    abs_err: f64,
    count: usize,
    abs_err_nz: f64,
    count_nz: usize,
    mape_sum: f64,
    mape_count: usize,
    sq_err: f64,
}

impl EvalReport {
    /// New report for `num_categories` categories.
    pub fn new(num_categories: usize) -> Self {
        EvalReport { per_category: vec![CategoryAccum::default(); num_categories] }
    }

    /// Add one day's predictions (`pred`, `truth`: `[R, C]`).
    pub fn add_day(&mut self, pred: &Tensor, truth: &Tensor) -> Result<()> {
        check_same(pred, truth, "EvalReport::add_day")?;
        if pred.ndim() != 2 || pred.shape()[1] != self.per_category.len() {
            return Err(TensorError::Invalid(format!(
                "EvalReport::add_day: expected [R, {}] matrices, got {:?}",
                self.per_category.len(),
                pred.shape()
            )));
        }
        let c = self.per_category.len();
        for (i, (&p, &t)) in pred.data().iter().zip(truth.data()).enumerate() {
            let acc = &mut self.per_category[i % c];
            // Widen before subtracting so this path agrees to the last bit
            // with the free `mae`/`mape` functions on identical inputs.
            let d = f64::from(p) - f64::from(t);
            acc.abs_err += d.abs();
            acc.sq_err += d * d;
            acc.count += 1;
            if t > 0.0 {
                acc.abs_err_nz += d.abs();
                acc.count_nz += 1;
                acc.mape_sum += d.abs() / f64::from(t);
                acc.mape_count += 1;
            }
        }
        Ok(())
    }

    /// MAE for one category over non-zero ground-truth entries (the paper's
    /// reporting protocol for sparse crime counts).
    pub fn mae(&self, category: usize) -> f64 {
        let a = &self.per_category[category];
        if a.count_nz == 0 {
            0.0
        } else {
            a.abs_err_nz / a.count_nz as f64
        }
    }

    /// Unmasked MAE over every entry.
    pub fn mae_unmasked(&self, category: usize) -> f64 {
        let a = &self.per_category[category];
        if a.count == 0 {
            0.0
        } else {
            a.abs_err / a.count as f64
        }
    }

    /// Masked MAPE for one category.
    pub fn mape(&self, category: usize) -> f64 {
        let a = &self.per_category[category];
        if a.mape_count == 0 {
            0.0
        } else {
            a.mape_sum / a.mape_count as f64
        }
    }

    /// RMSE for one category.
    pub fn rmse(&self, category: usize) -> f64 {
        let a = &self.per_category[category];
        if a.count == 0 {
            0.0
        } else {
            (a.sq_err / a.count as f64).sqrt()
        }
    }

    /// Number of categories with at least one masked (non-zero ground-truth)
    /// entry — the categories that participate in the paper-protocol
    /// overall averages.
    pub fn scored_categories(&self) -> usize {
        self.per_category.iter().filter(|a| a.count_nz > 0).count()
    }

    /// MAE averaged over categories with at least one masked entry.
    ///
    /// A category whose ground truth is all-zero over the test period has no
    /// masked MAE at all; including its placeholder 0.0 would silently dilute
    /// the paper-protocol overall, so such categories are excluded from the
    /// average. Returns 0 when no category has a masked entry.
    pub fn mae_overall(&self) -> f64 {
        self.masked_average(|c| self.mae(c))
    }

    /// MAPE averaged over categories with at least one masked entry (same
    /// exclusion rule as [`EvalReport::mae_overall`]).
    pub fn mape_overall(&self) -> f64 {
        self.masked_average(|c| self.mape(c))
    }

    fn masked_average(&self, metric: impl Fn(usize) -> f64) -> f64 {
        let scored: Vec<usize> =
            (0..self.per_category.len()).filter(|&c| self.per_category[c].count_nz > 0).collect();
        if scored.is_empty() {
            return 0.0;
        }
        scored.iter().map(|&c| metric(c)).sum::<f64>() / scored.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(v: Vec<f32>, r: usize, c: usize) -> Tensor {
        Tensor::from_vec(v, &[r, c]).unwrap()
    }

    #[test]
    fn mae_hand_example() {
        let p = t2(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let t = t2(vec![1.0, 0.0, 5.0, 4.0], 2, 2);
        assert!((mae(&p, &t).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mape_masks_zero_truth() {
        let p = t2(vec![1.0, 5.0], 1, 2);
        let t = t2(vec![0.0, 4.0], 1, 2);
        // Only the second entry counts: |5-4|/4 = 0.25.
        assert!((mape(&p, &t).unwrap() - 0.25).abs() < 1e-9);
        // All-zero truth → 0, not NaN.
        let tz = t2(vec![0.0, 0.0], 1, 2);
        assert_eq!(mape(&p, &tz).unwrap(), 0.0);
    }

    #[test]
    fn rmse_dominated_by_outliers() {
        let p = t2(vec![0.0, 0.0], 1, 2);
        let t = t2(vec![0.0, 10.0], 1, 2);
        assert!((rmse(&p, &t).unwrap() - (50.0f64).sqrt()).abs() < 1e-6);
        assert!(rmse(&p, &t).unwrap() > mae(&p, &t).unwrap());
    }

    #[test]
    fn metric_shape_mismatch_errors() {
        let p = t2(vec![0.0], 1, 1);
        let t = t2(vec![0.0, 0.0], 1, 2);
        assert!(mae(&p, &t).is_err());
        assert!(mape(&p, &t).is_err());
        assert!(rmse(&p, &t).is_err());
    }

    #[test]
    fn buckets_partition_unit_interval() {
        assert_eq!(density_bucket(0.1), Some(DensityBucket::VerySparse));
        assert_eq!(density_bucket(0.25), Some(DensityBucket::VerySparse));
        assert_eq!(density_bucket(0.3), Some(DensityBucket::Sparse));
        assert_eq!(density_bucket(0.6), Some(DensityBucket::Dense));
        assert_eq!(density_bucket(0.9), Some(DensityBucket::VeryDense));
        assert_eq!(DensityBucket::all().len(), 4);
    }

    #[test]
    fn zero_density_belongs_to_no_bucket() {
        // The "(0.00, 0.25]" interval excludes 0: an all-zero region has no
        // masked metric and must not be grouped with genuinely sparse ones.
        assert_eq!(density_bucket(0.0), None);
        assert_eq!(density_bucket(-0.5), None);
        // The smallest positive density is in-bucket — the boundary is
        // exactly at zero.
        assert_eq!(density_bucket(f32::MIN_POSITIVE), Some(DensityBucket::VerySparse));
        assert_eq!(density_bucket(1.0), Some(DensityBucket::VeryDense));
    }

    #[test]
    fn density_degrees_counts_nonzero_elements() {
        // R=1, T=4, C=2: 2 non-zero of 8 elements → density 0.25.
        let x = Tensor::from_vec(
            vec![1.0, 0.0, /*day1*/ 0.0, 0.0, /*day2*/ 0.0, 3.0, /*day3*/ 0.0, 0.0],
            &[1, 4, 2],
        )
        .unwrap();
        let d = density_degrees(&x).unwrap();
        assert_eq!(d, vec![0.25]);
    }

    #[test]
    fn all_zero_region_is_excluded_from_density_buckets() {
        // An all-zero region has no masked metric: `density_degrees` gives it
        // 0.0 and `density_bucket` must leave it unclassified.
        // R=3 regions, T=2 days, C=2 categories; region 1 entirely zero.
        let x = Tensor::from_vec(
            vec![
                1.0, 0.0, 0.0, 2.0, /*r1*/ 0.0, 0.0, 0.0, 0.0, /*r2*/ 3.0, 1.0, 1.0, 1.0,
            ],
            &[3, 2, 2],
        )
        .unwrap();
        let buckets: Vec<Option<DensityBucket>> =
            density_degrees(&x).unwrap().iter().map(|&d| density_bucket(d)).collect();
        assert_eq!(buckets[1], None, "all-zero region must be excluded from bucketing");
        assert_eq!(buckets[0], Some(DensityBucket::Sparse));
        assert_eq!(buckets[2], Some(DensityBucket::VeryDense));
        // Only the classified regions participate in bucketed reporting.
        let reported = buckets.iter().flatten().count();
        assert_eq!(reported, 2);
    }

    #[test]
    fn report_accumulates_per_category() {
        let mut rep = EvalReport::new(2);
        rep.add_day(&t2(vec![1.0, 0.0], 1, 2), &t2(vec![2.0, 0.0], 1, 2)).unwrap();
        rep.add_day(&t2(vec![3.0, 1.0], 1, 2), &t2(vec![3.0, 2.0], 1, 2)).unwrap();
        // Masked MAE, category 0: both days non-zero → (1 + 0)/2.
        assert!((rep.mae(0) - 0.5).abs() < 1e-9);
        // Masked MAE, category 1: only day 2 counts → |1−2| = 1.
        assert!((rep.mae(1) - 1.0).abs() < 1e-9);
        // Unmasked averages over everything.
        assert!((rep.mae_unmasked(1) - 0.5).abs() < 1e-9);
        // Category 0 MAPE: only day 1 counts (truth 2): 0.5. Day 2 err 0/3.
        assert!((rep.mape(0) - 0.25).abs() < 1e-9);
        // Category 1 MAPE: only day 2 (truth 2): 0.5.
        assert!((rep.mape(1) - 0.5).abs() < 1e-9);
        assert!(rep.mae_overall() > 0.0);
        assert!(rep.mape_overall() > 0.0);
    }

    #[test]
    fn mape_paths_agree_exactly() {
        // Regression: `metrics::mape` used to divide in f32 while
        // `EvalReport::add_day` divided in f64, so the two MAPE paths
        // disagreed on identical inputs. Both now widen every operand to
        // f64 first; on a shared fixture they must agree to 1e-12.
        // Fractional values exercise the old rounding difference directly:
        // e.g. |0.1 − 0.3| / 0.3 rounds differently in f32 and f64.
        let p = t2(vec![0.1, 2.7, 3.3, 0.0, 5.5, 1.2, 0.37, 8.25], 8, 1);
        let t = t2(vec![0.3, 3.0, 0.7, 1.9, 5.5, 0.0, 0.11, 7.75], 8, 1);
        // With a single category both paths visit identical entries in
        // identical order, so they must produce identical sums.
        let mut rep = EvalReport::new(1);
        rep.add_day(&p, &t).unwrap();
        let (free_mape, rep_mape) = (mape(&p, &t).unwrap(), rep.mape(0));
        assert!(
            (free_mape - rep_mape).abs() < 1e-12,
            "MAPE paths disagree: free {free_mape:.15} vs report {rep_mape:.15}"
        );
        // The unmasked MAE and RMSE paths must agree the same way.
        assert!((mae(&p, &t).unwrap() - rep.mae_unmasked(0)).abs() < 1e-12);
        assert!((rmse(&p, &t).unwrap() - rep.rmse(0)).abs() < 1e-12);
    }

    #[test]
    fn overall_averages_skip_unscored_categories() {
        // Regression: a category with zero non-zero ground-truth entries
        // used to contribute a placeholder 0.0 to the overall averages,
        // silently diluting them.
        let mut rep = EvalReport::new(3);
        // Category 0: error 1 on truth 2; category 1: error 2 on truth 4;
        // category 2: all-zero ground truth (never scored).
        rep.add_day(&t2(vec![3.0, 6.0, 9.0], 1, 3), &t2(vec![2.0, 4.0, 0.0], 1, 3)).unwrap();
        assert_eq!(rep.scored_categories(), 2);
        // Overall MAE averages only the two scored categories: (1 + 2) / 2.
        assert!((rep.mae_overall() - 1.5).abs() < 1e-12, "{}", rep.mae_overall());
        // Overall MAPE likewise: (0.5 + 0.5) / 2, not diluted to 1/3.
        assert!((rep.mape_overall() - 0.5).abs() < 1e-12, "{}", rep.mape_overall());
        // With every category unscored the overalls are 0, not NaN.
        let empty = EvalReport::new(2);
        assert_eq!(empty.scored_categories(), 0);
        assert_eq!(empty.mae_overall(), 0.0);
        assert_eq!(empty.mape_overall(), 0.0);
    }
}
