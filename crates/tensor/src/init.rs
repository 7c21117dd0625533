//! Random tensor initialisers used by model parameter construction, and
//! dropout's counter-based mask.

use crate::simd::wide;
use crate::tensor::MIN_ELEMS_PER_BAND;
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

    /// Inverted dropout: element `i` of `self` (its row-major index, which is
    /// also its offset) becomes `x · (1 / keep)` where its `mask_bits`
    /// under `key` lie below `keep · 2^24`, else `x · 0.0`; `keep` lies in
    /// `(0, 1]`. The mask is a pure function of `(key, i)`, never stored:
    /// the backward pass applies the same call to the gradient, and the bits
    /// depend on neither thread count nor vector level. A dropped NaN or ±∞
    /// stays NaN, so divergence still reaches the training loop.
    pub fn dropout(&self, key: u64, keep: f32) -> Tensor {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "R7: keep · 2^24 lies in (0, 2^24]"
        )]
        let threshold = (keep * 16_777_216.0) as u32;
        let scale = 1.0 / keep;
        let src = self.data();
        let mut out = Tensor::zeros(self.shape());
        let n = src.len();
        sthsl_parallel::parallel_rows_mut(
            out.data_mut(),
            n,
            1,
            MIN_ELEMS_PER_BAND,
            move |rows, band| {
                #[expect(clippy::cast_possible_truncation, reason = "R7: i counts modulo 2^32")]
                let first = rows.start as u32;
                wide!(band, |band| {
                    // Read through the closure's captures, `scale` was loaded
                    // only for a kept element: a branch, and a scalar loop.
                    let (key, threshold, scale, mut i) = (key, threshold, scale, first);
                    for (o, &v) in band.iter_mut().zip(&src[rows]) {
                        *o = v * if mask_bits(key, i) < threshold { scale } else { 0.0 };
                        i = i.wrapping_add(1);
                    }
                });
            },
        );
        out
    }
}

/// Dropout's 24 mask bits for element `i` under `key`: two rounds of
/// MurmurHash3's 32-bit finalizer, the key's low half mixed in before the
/// first and its high half between them (a counter-based generator, after
/// Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011).
/// Keys that differ in the low half only give masks that are copies of one
/// another read at `i ^ c`, so a key should itself be a hash output (the
/// autograd graph's are `mix64`'s).
#[inline(always)]
#[expect(clippy::cast_possible_truncation, reason = "R7: the key's low half")]
pub(crate) fn mask_bits(key: u64, i: u32) -> u32 {
    fmix32(fmix32(i ^ key as u32) ^ (key >> 32) as u32) >> 8
}

/// MurmurHash3's 32-bit finalizer, a bijection with full avalanche.
#[inline(always)]
fn fmix32(mut h: u32) -> u32 {
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^ (h >> 16)
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

    /// Elements per statistics mask.
    const MASK_LEN: usize = 1 << 20;

    /// 1.0 where `Tensor::dropout` keeps an element of `n`, else 0.0.
    fn kept(key: u64, keep: f32, n: usize) -> Vec<f64> {
        let y = Tensor::ones(&[n]).dropout(key, keep);
        y.data().iter().map(|&v| f64::from(u8::from(v > 0.0))).collect()
    }

    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
        let cov = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum::<f64>();
        let var = |v: &[f64], m: f64| v.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
        cov / (var(a, ma) * var(b, mb)).sqrt()
    }

    /// Over 2^20 elements the kept count lies within 4σ of `keep · n`.
    #[test]
    fn dropout_keep_rate_is_within_four_sigma() {
        for keep in [0.5f32, 0.8, 0.9] {
            let count: f64 = kept(3, keep, MASK_LEN).iter().sum();
            let (n, p) = (MASK_LEN as f64, f64::from(keep));
            let sigma = (n * p * (1.0 - p)).sqrt();
            assert!((count - n * p).abs() < 4.0 * sigma, "keep {keep}: {count} kept, σ {sigma:.1}");
        }
    }

    /// No correlation above four standard errors of an estimate from 2^20
    /// pairs (`4 / √n` ≈ 0.0039) between an element and the one 1, 16 (`d`)
    /// or 256 (`R·C` at quick scale) places on, nor between adjacent keys.
    #[test]
    fn dropout_masks_are_uncorrelated_across_lags_and_keys() {
        let bound = 4.0 / (MASK_LEN as f64).sqrt();
        for keep in [0.5f32, 0.8] {
            let m = kept(0x2545_f491_4f6c_dd1d, keep, MASK_LEN + 256);
            for lag in [1usize, 16, 256] {
                let r = correlation(&m[..MASK_LEN], &m[lag..MASK_LEN + lag]);
                assert!(r.abs() < bound, "keep {keep} lag {lag}: correlation {r:.5}");
            }
            for (a, b) in [(7, 8), (1 << 32, 2 << 32)] {
                let r = correlation(&kept(a, keep, MASK_LEN), &kept(b, keep, MASK_LEN));
                assert!(r.abs() < bound, "keep {keep} keys {a:#x}, {b:#x}: correlation {r:.5}");
            }
        }
    }
}
