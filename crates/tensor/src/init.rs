//! Random tensor initialisers used by model parameter construction.

use crate::Tensor;
use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};

impl Tensor {
    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
        let dist = Uniform::new(lo, hi);
        let mut t = Tensor::zeros(shape);
        for v in t.data_mut() {
            *v = dist.sample(rng);
        }
        t
    }

    /// Inverted-dropout mask: one `rng.gen::<f32>()` draw per element in
    /// row-major order, `1 / keep` where the draw is below `keep` and `0.0`
    /// elsewhere.
    ///
    /// The draws are stored first and turned into mask values in a second
    /// pass, a select the compiler vectorizes; fused into the draw loop it
    /// compiles to one branch per element, mispredicted at every dropped
    /// one. A select, not `kept · (1 / keep)`: at `keep = 0` the scale is
    /// `∞` and `0 · ∞` would be NaN.
    pub fn dropout_mask(shape: &[usize], keep: f32, rng: &mut impl Rng) -> Tensor {
        let scale = 1.0 / keep;
        let mut mask = Tensor::zeros(shape);
        for m in mask.data_mut() {
            *m = rng.gen::<f32>();
        }
        for m in mask.data_mut() {
            *m = if *m < keep { scale } else { 0.0 };
        }
        mask
    }

    /// Gaussian samples with the given mean and standard deviation.
    ///
    /// A degenerate `std` (negative or non-finite) yields the distribution's
    /// limit: every sample equals `mean`. Initialisers reach this only
    /// through config values, where a constant tensor is a far more
    /// debuggable outcome than a panic mid-construction.
    pub fn rand_normal(shape: &[usize], mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
        let Ok(dist) = Normal::new(mean, std) else {
            return Tensor::full(shape, mean);
        };
        let mut t = Tensor::zeros(shape);
        for v in t.data_mut() {
            *v = dist.sample(rng);
        }
        t
    }

    /// Xavier/Glorot uniform initialisation: `U(-a, a)` with
    /// `a = sqrt(6 / (fan_in + fan_out))`.
    #[expect(
        clippy::cast_precision_loss,
        reason = "R7: fan sizes are layer widths, far below 2^24, where the f32 is exact"
    )]
    pub fn xavier_uniform(
        shape: &[usize],
        fan_in: usize,
        fan_out: usize,
        rng: &mut impl Rng,
    ) -> Tensor {
        let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Tensor::rand_uniform(shape, -a, a, rng)
    }

    /// He/Kaiming normal initialisation: `N(0, sqrt(2 / fan_in))`, the usual
    /// choice in front of (Leaky)ReLU nonlinearities.
    #[expect(
        clippy::cast_precision_loss,
        reason = "R7: fan sizes are layer widths, far below 2^24, where the f32 is exact"
    )]
    pub fn he_normal(shape: &[usize], fan_in: usize, rng: &mut impl Rng) -> Tensor {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Tensor::rand_normal(shape, 0.0, std, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::rand_uniform(&[1000], -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn normal_statistics_plausible() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Tensor::rand_normal(&[10000], 1.0, 2.0, &mut rng);
        let mean: f32 = t.data().iter().sum::<f32>() / 10000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn xavier_bound_scales_with_fans() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::xavier_uniform(&[100], 50, 50, &mut rng);
        let bound = (6.0f32 / 100.0).sqrt();
        assert!(t.data().iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = Tensor::he_normal(&[8], 4, &mut StdRng::seed_from_u64(7));
        let b = Tensor::he_normal(&[8], 4, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.data(), b.data());
    }
}
