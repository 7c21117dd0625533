//! Matrix multiplication kernels: register-tiled and multi-threaded.
//!
//! # Kernel contract
//!
//! Every product runs through one kernel, [`matmul_band`]. For each output
//! row it keeps a tile of [`LANES`] accumulators in registers across the
//! whole inner dimension `k` and stores the tile once; the columns past the
//! last full tile form narrower tiles of 8, 4, 2 and 1 columns, each of a
//! width fixed at compile time. Each output element is `+0.0` plus
//! `a[i,p]·b[p,j]` for `p` ascending, and a zero lhs element is skipped by
//! one scalar test for the whole tile. Those are the operations, in the
//! order, of the row-axpy loop kept in `ops/oracle.rs`, so results are
//! bit-identical to it (the oracle test compares `to_bits()`).
//!
//! The lhs may also be read transposed (`selfᵀ·other`): the kernel copies
//! the lhs columns of up to [`PANEL`] output rows into a small row-major
//! panel, one contiguous read per stored lhs row, and then runs the same
//! tiles over it. Each output row reads the same values in the same order
//! as a product with an explicitly permuted copy, so autograd's `Aᵀ·G`
//! needs no transposed copy of `A`.
//!
//! Work is partitioned over output rows, so each output element is produced
//! by exactly one thread: results are bit-identical at every thread count.

use crate::simd::wide;
use crate::{Result, Tensor, TensorError};
use std::ops::Range;

/// Output columns one register tile accumulates.
const LANES: usize = 16;

/// Output rows whose transposed-lhs columns are gathered into one panel.
const PANEL: usize = 16;

/// Minimum flops a band must carry before it is worth a thread.
const MIN_FLOPS_PER_BAND: usize = 1 << 16;

/// `batch` products `[m, k] · [k, n]`. A transposed lhs is stored as
/// `[batch, k, m]`, a plain one as `[batch, m, k]`.
#[derive(Clone, Copy)]
struct Product {
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    lhs_transposed: bool,
}

impl Product {
    /// The `[batch·m, n]` output, parallel over bands of output rows.
    fn run(self, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.batch * self.m * self.n];
        let min_rows = (MIN_FLOPS_PER_BAND / (2 * self.k * self.n).max(1)).max(1);
        sthsl_parallel::parallel_rows_mut(
            &mut out,
            self.batch * self.m,
            self.n,
            min_rows,
            move |rows, band| {
                wide!(band, |band| matmul_band(a, b, self, rows, band));
            },
        );
        out
    }
}

/// Fill `band`, the output rows `rows` (row-major, stride `n`), in blocks
/// of at most [`PANEL`] rows of one batch. A transposed lhs has the block's
/// columns copied into a row-major panel first, one contiguous read per
/// lhs row, so every output row then reads its lhs contiguously. Always
/// inlined, so that its tiles are compiled into each [`wide!`] copy.
#[inline(always)]
fn matmul_band(a: &[f32], b: &[f32], p: Product, rows: Range<usize>, band: &mut [f32]) {
    let Product { m, k, n, lhs_transposed, .. } = p;
    if n == 0 {
        return;
    }
    let mut panel = vec![0.0f32; if lhs_transposed { PANEL * k } else { 0 }];
    let mut orows = band.chunks_exact_mut(n);
    let mut gi = rows.start;
    while gi < rows.end {
        let (bi, i0) = (gi / m, gi % m);
        let r = PANEL.min(m - i0).min(rows.end - gi);
        let lhs = &a[bi * m * k..(bi + 1) * m * k];
        let rhs = &b[bi * k * n..(bi + 1) * k * n];
        if lhs_transposed {
            for (pk, arow) in lhs.chunks_exact(m).enumerate() {
                for (j, &v) in arow[i0..i0 + r].iter().enumerate() {
                    panel[j * k + pk] = v;
                }
            }
        }
        for (j, orow) in orows.by_ref().take(r).enumerate() {
            let lrow =
                if lhs_transposed { &panel[j * k..][..k] } else { &lhs[(i0 + j) * k..][..k] };
            let mut tiles = orow.chunks_exact_mut(LANES);
            for (t, tile) in tiles.by_ref().enumerate() {
                accumulate_tile::<LANES>(lrow, rhs, n, t * LANES, tile);
            }
            // The last `n mod 16` columns, in pieces of 8, 4, 2 and 1: a
            // tile of runtime width compiles to masked loads and stores of
            // its accumulators, whose store-to-load stalls made the AVX2
            // copy 3× slower than SSE2 on a one-column product.
            let mut rest = tiles.into_remainder();
            while !rest.is_empty() {
                let (j0, w) = (n - rest.len(), 1usize << rest.len().ilog2());
                let (piece, later) = rest.split_at_mut(w);
                match w {
                    8 => accumulate_tile::<8>(lrow, rhs, n, j0, piece),
                    4 => accumulate_tile::<4>(lrow, rhs, n, j0, piece),
                    2 => accumulate_tile::<2>(lrow, rhs, n, j0, piece),
                    _ => accumulate_tile::<1>(lrow, rhs, n, j0, piece),
                }
                rest = later;
            }
        }
        gi += r;
    }
}

/// `out[j] = Σ_p lhs[p]·rhs[p·n + j0 + j]` for `j < W = out.len()`,
/// summed in ascending `p` in `W` accumulators that stay in registers, then
/// stored once.
#[inline(always)]
fn accumulate_tile<const W: usize>(lhs: &[f32], rhs: &[f32], n: usize, j0: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for (&av, brow) in lhs.iter().zip(rhs.chunks_exact(n)) {
        if av == 0.0 {
            continue; // sparse inputs (z-scored zero days) are common
        }
        for (s, &bv) in acc.iter_mut().zip(&brow[j0..j0 + W]) {
            *s += av * bv;
        }
    }
    out.copy_from_slice(&acc);
}

impl Tensor {
    /// 2-D matrix product: `[m, k] · [k, n] → [m, n]`.
    ///
    /// Register-tiled and parallelised over row bands; see the module docs
    /// for the kernel contract.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = as_2d(self, "matmul lhs")?;
        let (k2, n) = as_2d(other, "matmul rhs")?;
        if k != k2 {
            return Err(shape_mismatch("matmul", self, other));
        }
        let out =
            Product { batch: 1, m, k, n, lhs_transposed: false }.run(self.data(), other.data());
        Tensor::from_vec(out, &[m, n])
    }

    /// 2-D product with a transposed lhs: `[k, m]ᵀ · [k, n] → [m, n]`,
    /// without materialising the transpose. Bit-identical to
    /// `self.transpose2d()?.matmul(other)`.
    pub fn transpose_matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (k, m) = as_2d(self, "transpose_matmul lhs")?;
        let (k2, n) = as_2d(other, "transpose_matmul rhs")?;
        if k != k2 {
            return Err(shape_mismatch("transpose_matmul", self, other));
        }
        let out =
            Product { batch: 1, m, k, n, lhs_transposed: true }.run(self.data(), other.data());
        Tensor::from_vec(out, &[m, n])
    }

    /// Batched matrix product: `[b, m, k] · [b, k, n] → [b, m, n]`.
    ///
    /// Parallelised over the flattened `b·m` output rows, so a single large
    /// batch and many small batches both use every thread.
    pub fn batched_matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (ba, m, k) = as_3d(self, "batched_matmul lhs")?;
        let (bb, k2, n) = as_3d(other, "batched_matmul rhs")?;
        if ba != bb || k != k2 {
            return Err(shape_mismatch("batched_matmul", self, other));
        }
        let out =
            Product { batch: ba, m, k, n, lhs_transposed: false }.run(self.data(), other.data());
        Tensor::from_vec(out, &[ba, m, n])
    }

    /// Batched product with transposed lhs matrices:
    /// `[b, k, m]ᵀ · [b, k, n] → [b, m, n]`, without materialising the
    /// transpose. Bit-identical to
    /// `self.permute(&[0, 2, 1])?.batched_matmul(other)`.
    pub fn batched_transpose_matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (ba, k, m) = as_3d(self, "batched_transpose_matmul lhs")?;
        let (bb, k2, n) = as_3d(other, "batched_transpose_matmul rhs")?;
        if ba != bb || k != k2 {
            return Err(shape_mismatch("batched_transpose_matmul", self, other));
        }
        let out =
            Product { batch: ba, m, k, n, lhs_transposed: true }.run(self.data(), other.data());
        Tensor::from_vec(out, &[ba, m, n])
    }

    /// 2-D transpose: `[m, n] → [n, m]`, parallel over output rows.
    pub fn transpose2d(&self) -> Result<Tensor> {
        let (m, n) = as_2d(self, "transpose2d")?;
        let a = self.data();
        let mut out = vec![0.0f32; m * n];
        let min_rows = ((1 << 14) / m.max(1)).max(1);
        sthsl_parallel::parallel_rows_mut(&mut out, n, m, min_rows, move |rows, band| {
            for (local, j) in rows.enumerate() {
                let orow = &mut band[local * m..(local + 1) * m];
                for (i, o) in orow.iter_mut().enumerate() {
                    *o = a[i * n + j];
                }
            }
        });
        Tensor::from_vec(out, &[n, m])
    }

    /// Matrix–vector product: `[m, k] · [k] → [m]`, parallel over rows.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        let (m, k) = as_2d(self, "matvec lhs")?;
        if v.ndim() != 1 || v.shape()[0] != k {
            return Err(shape_mismatch("matvec", self, v));
        }
        let a = self.data();
        let x = v.data();
        let mut out = vec![0.0f32; m];
        let min_rows = (MIN_FLOPS_PER_BAND / (2 * k).max(1)).max(1);
        sthsl_parallel::parallel_rows_mut(&mut out, m, 1, min_rows, move |rows, band| {
            for (local, i) in rows.enumerate() {
                let row = &a[i * k..(i + 1) * k];
                band[local] = row.iter().zip(x).map(|(&av, &xv)| av * xv).sum();
            }
        });
        Tensor::from_vec(out, &[m])
    }
}

fn as_2d(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            got: t.ndim(),
            shape: t.shape().to_vec(),
        });
    }
    Ok((t.shape()[0], t.shape()[1]))
}

fn as_3d(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize)> {
    if t.ndim() != 3 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 3,
            got: t.ndim(),
            shape: t.shape().to_vec(),
        });
    }
    Ok((t.shape()[0], t.shape()[1], t.shape()[2]))
}

fn shape_mismatch(op: &'static str, lhs: &Tensor, rhs: &Tensor) -> TensorError {
    TensorError::ShapeMismatch { op, lhs: lhs.shape().to_vec(), rhs: rhs.shape().to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_hand_example() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![3., 1., 4., 1., 5., 9., 2., 6., 5.], &[3, 3]).unwrap();
        let c = a.matmul(&Tensor::eye(3)).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&Tensor::zeros(&[4, 2])).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn matmul_errors_report_full_dims() {
        let a = Tensor::zeros(&[2, 3]);
        // Inner-dimension mismatch names both operand shapes in full.
        let err = a.matmul(&Tensor::zeros(&[4, 2])).unwrap_err().to_string();
        assert!(err.contains("[2, 3]") && err.contains("[4, 2]"), "{err}");
        // Rank errors also carry the offending operand's full dims.
        let err = a.matmul(&Tensor::zeros(&[3, 2, 4])).unwrap_err().to_string();
        assert!(err.contains("[3, 2, 4]") && err.contains("rank 2"), "{err}");
        let err = Tensor::zeros(&[5]).matmul(&a).unwrap_err().to_string();
        assert!(err.contains("[5]") && err.contains("matmul lhs"), "{err}");
        let err = a.matvec(&Tensor::zeros(&[7])).unwrap_err().to_string();
        assert!(err.contains("[2, 3]") && err.contains("[7]"), "{err}");
        let err = Tensor::zeros(&[2, 3, 4])
            .batched_matmul(&Tensor::zeros(&[2, 5, 4]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("[2, 3, 4]") && err.contains("[2, 5, 4]"), "{err}");
        // The transposed-lhs entries: the lhs is `[k, m]` (`[b, k, m]`), so
        // its *leading* dim must match the rhs rows.
        let err = a.transpose_matmul(&Tensor::zeros(&[3, 2])).unwrap_err().to_string();
        assert!(
            err.contains("transpose_matmul") && err.contains("[2, 3]") && err.contains("[3, 2]"),
            "{err}"
        );
        let err = a.transpose_matmul(&Tensor::zeros(&[2, 2, 2])).unwrap_err().to_string();
        assert!(err.contains("transpose_matmul rhs") && err.contains("[2, 2, 2]"), "{err}");
        let err = Tensor::zeros(&[4, 2, 3])
            .batched_transpose_matmul(&Tensor::zeros(&[4, 3, 5]))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("batched_transpose_matmul")
                && err.contains("[4, 2, 3]")
                && err.contains("[4, 3, 5]"),
            "{err}"
        );
        let err = Tensor::zeros(&[4, 2, 3])
            .batched_transpose_matmul(&Tensor::zeros(&[3, 2, 5]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("[4, 2, 3]") && err.contains("[3, 2, 5]"), "{err}");
        let err = a.batched_transpose_matmul(&a).unwrap_err().to_string();
        assert!(
            err.contains("batched_transpose_matmul lhs")
                && err.contains("rank 3")
                && err.contains("[2, 3]"),
            "{err}"
        );
    }

    #[test]
    fn batched_matmul_matches_per_batch() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[2, 2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|i| (i as f32) * 0.5).collect(), &[2, 3, 2]).unwrap();
        let c = a.batched_matmul(&b).unwrap();
        // Check batch 1 against a straight 2-D matmul of the same slices.
        let a1 = Tensor::from_vec(a.data()[6..12].to_vec(), &[2, 3]).unwrap();
        let b1 = Tensor::from_vec(b.data()[6..12].to_vec(), &[3, 2]).unwrap();
        let c1 = a1.matmul(&b1).unwrap();
        assert_eq!(&c.data()[4..8], c1.data());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap();
        let t = a.transpose2d().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), 6.0);
        assert_eq!(t.transpose2d().unwrap().data(), a.data());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]).unwrap();
        let v = Tensor::from_vec(vec![5., 6.], &[2]).unwrap();
        let mv = a.matvec(&v).unwrap();
        assert_eq!(mv.data(), &[17., 39.]);
    }

    #[test]
    fn matmul_matches_naive_ikj_bitwise() {
        // The tiled kernel must preserve the naive per-element accumulation
        // order exactly, over a long inner dimension and a partial tile.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let (m, k, n) = (7, 259, 9);
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let got = a.matmul(&b).unwrap();
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a.data()[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    want[i * n + j] += av * b.data()[p * n + j];
                }
            }
        }
        assert_eq!(got.data(), &want[..]);
    }
}
