//! Matrix multiplication kernels: register-tiled and multi-threaded.
//!
//! # Kernel contract
//!
//! Every product runs through one kernel, [`matmul_band`]. It walks the
//! output in tiles of up to 4 rows × [`LANES`] columns, keeps each tile's
//! accumulators in registers across the whole inner dimension `k` and
//! stores the tile once: each rhs row it loads serves four output rows, and
//! the four rows' add chains overlap. The last 1–3 rows of a batch slice
//! form shorter tiles, and the columns past the last full tile narrower
//! ones of 8, 4, 2 and 1 columns, each of a size fixed at compile time.
//! Each output element is `+0.0` plus `a[i,p]·b[p,j]` for `p` ascending,
//! the operations, in the order, of the row-axpy loop kept in
//! `ops/oracle.rs`, so results are bit-identical to it (the oracle test
//! compares `to_bits()`).
//!
//! That loop skips a zero lhs element. Adding its term instead gives the
//! same bits whenever the rhs value is finite: `±0·b` is `±0`, a sum that
//! starts at `+0.0` never becomes `-0.0` under round-to-nearest, and adding
//! `±0` to any other sum leaves it unchanged. So a batch slice whose rhs is
//! all finite, checked by one scan of the slice in each band that reads
//! it, runs tiles without a branch; only a slice that holds a NaN or ±∞ runs one-row tiles that test
//! every lhs element, which keeps `0·∞ = NaN` out of the output.
//!
//! Either operand may be read transposed. A transposed lhs
//! (`selfᵀ·other`) is read in place: at step `p` the tile's rows read
//! adjacent values. A transposed rhs (`self·otherᵀ`) is copied, 16 columns
//! at a time, into a `k × 16` panel that the tiles read like a row-major
//! rhs. Each output element reads the same values in the same order as a
//! product with an explicitly permuted copy, so autograd's products with
//! `Aᵀ` or `Bᵀ` need no transposed copy.
//!
//! At the AVX2 level the tiles of 16 and 8 columns are written with
//! `std::arch` intrinsics, which keep the accumulators in registers; the
//! same tile written portably and compiled for AVX2 ran hop 1 of the
//! hypergraph 1.14× faster than the one-row tile it replaced, the
//! intrinsics 1.50× (DESIGN.md §6b). The baseline level runs the portable
//! tiles.
//!
//! Work is partitioned over output rows, so each output element is produced
//! by exactly one thread: results are bit-identical at every thread count.

#[cfg(target_arch = "x86_64")]
use crate::simd;
use crate::{Result, Tensor, TensorError};
use std::ops::Range;

/// Output columns one register tile accumulates.
const LANES: usize = 16;

/// Output rows one register tile accumulates.
const ROWS: usize = 4;

/// Minimum flops a band must carry before it is worth a thread.
const MIN_FLOPS_PER_BAND: usize = 1 << 16;

/// `batch` products `[m, k] · [k, n]`. A transposed lhs is stored as
/// `[batch, k, m]`, a plain one as `[batch, m, k]`; a transposed rhs as
/// `[batch, n, k]`, a plain one as `[batch, k, n]`.
#[derive(Clone, Copy)]
struct Product {
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    lhs_transposed: bool,
    rhs_transposed: bool,
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
                #[cfg(target_arch = "x86_64")]
                if let Some(isa) = simd::avx2() {
                    // SAFETY: `avx2_band` may only run on a CPU with AVX2,
                    // and `simd::avx2()` returned a token, which it builds
                    // only after detecting AVX2.
                    return unsafe { avx2_band(isa, a, b, self, rows, band) };
                }
                matmul_band(Portable, a, b, self, rows, band);
            },
        );
        out
    }
}

/// Whether every value of `s` is finite, in one branch-free pass.
#[inline(always)]
pub(crate) fn all_finite(s: &[f32]) -> bool {
    s.iter().fold(true, |ok, v| ok & v.is_finite())
}

/// [`matmul_band`] with the AVX2 tiles, compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2_band(
    isa: simd::Avx2,
    a: &[f32],
    b: &[f32],
    p: Product,
    rows: Range<usize>,
    band: &mut [f32],
) {
    matmul_band(isa, a, b, p, rows, band);
}

/// Fill `band`, the output rows `rows` (row-major, stride `n`), one batch
/// slice at a time and, within it, one block of columns at a time: 16
/// columns, then pieces of 8, 4, 2 and 1. A transposed rhs has the block's
/// columns copied into a `k × width` panel first. Always inlined, so that
/// the tiles are compiled into [`avx2_band`].
#[inline(always)]
fn matmul_band<T: Tiles>(
    isa: T,
    a: &[f32],
    b: &[f32],
    p: Product,
    rows: Range<usize>,
    band: &mut [f32],
) {
    let Product { m, k, n, lhs_transposed, rhs_transposed, .. } = p;
    if n == 0 || k == 0 {
        return; // the band already holds the empty sums, `+0.0`
    }
    let mut panel = vec![0.0f32; if rhs_transposed { LANES * k } else { 0 }];
    let mut gi = rows.start;
    while gi < rows.end {
        let (bi, i0) = (gi / m, gi % m);
        let count = (m - i0).min(rows.end - gi);
        let lhs = &a[bi * m * k..(bi + 1) * m * k];
        let lhs = if lhs_transposed {
            Lhs { data: &lhs[i0..], row: 1, step: m }
        } else {
            Lhs { data: &lhs[i0 * k..], row: k, step: 1 }
        };
        let rhs = &b[bi * k * n..(bi + 1) * k * n];
        let out = &mut band[(gi - rows.start) * n..][..count * n];
        let block = Block { lhs, rows: count, rhs, rhs_transposed, finite: all_finite(rhs), k, n };
        let mut j0 = 0;
        while j0 < n {
            let w = if n - j0 >= LANES { LANES } else { 1 << (n - j0).ilog2() };
            let (panel, out) = (&mut panel[..], &mut out[j0..]);
            match w {
                LANES => block.columns::<T, LANES>(isa, j0, panel, out),
                8 => block.columns::<T, 8>(isa, j0, panel, out),
                4 => block.columns::<T, 4>(isa, j0, panel, out),
                2 => block.columns::<T, 2>(isa, j0, panel, out),
                _ => block.columns::<T, 1>(isa, j0, panel, out),
            }
            j0 += w;
        }
        gi += count;
    }
}

/// An lhs read in place: row `r`, step `p` is `data[r·row + p·step]`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row: usize,
    step: usize,
}

impl Lhs<'_> {
    #[inline(always)]
    fn at(&self, r: usize, p: usize) -> f32 {
        self.data[r * self.row + p * self.step]
    }

    /// The view from row `r` on.
    #[inline(always)]
    fn skip_rows(self, r: usize) -> Self {
        Lhs { data: &self.data[r * self.row..], ..self }
    }
}

/// The output rows of one batch slice that a band holds.
#[derive(Clone, Copy)]
struct Block<'a> {
    lhs: Lhs<'a>,
    rows: usize,
    /// The slice's rhs, stored `[k, n]`, or `[n, k]` when transposed.
    rhs: &'a [f32],
    rhs_transposed: bool,
    /// The slice's rhs holds no NaN or ±∞, so zero lhs elements need no test.
    finite: bool,
    k: usize,
    n: usize,
}

impl Block<'_> {
    /// The block's `W` output columns from `j0` on, into `out` (row stride
    /// `n`): tiles of 4 rows, then one of 1–3. A transposed rhs has the
    /// columns copied into `panel` as `[k, W]` first.
    #[inline(always)]
    fn columns<T: Tiles, const W: usize>(
        self,
        isa: T,
        j0: usize,
        panel: &mut [f32],
        out: &mut [f32],
    ) {
        let Block { lhs, rows, k, n, .. } = self;
        let (rhs, step) = if self.rhs_transposed {
            // Column `j` of the rhs is row `j` of the stored `[n, k]`.
            let cols: [&[f32]; W] = std::array::from_fn(|c| &self.rhs[(j0 + c) * k..][..k]);
            for (p, prow) in panel.chunks_exact_mut(W).take(k).enumerate() {
                for (v, col) in prow.iter_mut().zip(&cols) {
                    *v = col[p];
                }
            }
            (&panel[..k * W], W)
        } else {
            (&self.rhs[j0..], n)
        };
        if !self.finite {
            for r in 0..rows {
                skipping_tile::<W>(lhs.skip_rows(r), rhs, step, k, &mut out[r * n..]);
            }
            return;
        }
        let mut r = 0;
        while r + ROWS <= rows {
            isa.tile::<ROWS, W>(lhs.skip_rows(r), rhs, step, k, &mut out[r * n..], n);
            r += ROWS;
        }
        if r == rows {
            return;
        }
        let (lhs, out) = (lhs.skip_rows(r), &mut out[r * n..]);
        match rows - r {
            3 => isa.tile::<3, W>(lhs, rhs, step, k, out, n),
            2 => isa.tile::<2, W>(lhs, rhs, step, k, out, n),
            _ => isa.tile::<1, W>(lhs, rhs, step, k, out, n),
        }
    }
}

/// A vector level's register tile.
trait Tiles: Copy {
    /// `out[r·n + j] = Σ_p lhs(r, p)·rhs[p·step + j]` for `r < R`,
    /// `j < W`: every term added, in ascending `p`, from `+0.0`.
    fn tile<const R: usize, const W: usize>(
        self,
        lhs: Lhs,
        rhs: &[f32],
        step: usize,
        k: usize,
        out: &mut [f32],
        n: usize,
    );
}

/// The baseline level's tiles: plain loops the compiler vectorizes.
#[derive(Clone, Copy)]
struct Portable;

impl Tiles for Portable {
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(
        self,
        lhs: Lhs,
        rhs: &[f32],
        step: usize,
        k: usize,
        out: &mut [f32],
        n: usize,
    ) {
        let mut acc = [[0.0f32; W]; R];
        for p in 0..k {
            let brow = &rhs[p * step..][..W];
            for (r, sums) in acc.iter_mut().enumerate() {
                let av = lhs.at(r, p);
                for (s, &bv) in sums.iter_mut().zip(brow) {
                    *s += av * bv;
                }
            }
        }
        for (r, sums) in acc.iter().enumerate() {
            out[r * n..][..W].copy_from_slice(sums);
        }
    }
}

/// The AVX2 level's tiles: 16 and 8 columns in `__m256` accumulators, the
/// narrower ones portable (compiled with AVX2 inside [`avx2_band`]).
#[cfg(target_arch = "x86_64")]
impl Tiles for simd::Avx2 {
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(
        self,
        lhs: Lhs,
        rhs: &[f32],
        step: usize,
        k: usize,
        out: &mut [f32],
        n: usize,
    ) {
        // `avx2_tile` may only run on a CPU with AVX2, and `self` is a
        // token that `simd::avx2()` builds only after detecting AVX2.
        match W {
            // SAFETY: the CPU has AVX2, as the token proves.
            16 => unsafe { avx2_tile::<R, 2>(lhs, rhs, step, k, out, n) },
            // SAFETY: the CPU has AVX2, as the token proves.
            8 => unsafe { avx2_tile::<R, 1>(lhs, rhs, step, k, out, n) },
            _ => Portable.tile::<R, W>(lhs, rhs, step, k, out, n),
        }
    }
}

/// [`Tiles::tile`] for `W = 8·V` columns in `R·V` `__m256` accumulators.
/// A multiply and an add, never a fused multiply-add: the sums must round
/// as the oracle's do. The operands are bounds-checked once, at their last
/// element read; the per-step reads go unchecked, which ran the hypergraph
/// products 15–20% faster than a check on every load.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_tile<const R: usize, const V: usize>(
    lhs: Lhs,
    rhs: &[f32],
    step: usize,
    k: usize,
    out: &mut [f32],
    n: usize,
) {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps};
    use std::arch::x86_64::{_mm256_setzero_ps, _mm256_storeu_ps};
    if k == 0 {
        return;
    }
    // Every index read below is at most the last one: `lhs.at(r, p)` grows
    // with `r < R` and `p < k`, rhs row `p` ends at `p·step + 8·V`.
    let a = &lhs.data[..=(R - 1) * lhs.row + (k - 1) * lhs.step];
    let b = &rhs[..(k - 1) * step + 8 * V];
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    for p in 0..k {
        let mut bv = [_mm256_setzero_ps(); V];
        for (v, bvec) in bv.iter_mut().enumerate() {
            // SAFETY: `p < k` and `v < V`, so the 8 floats from
            // `p·step + 8·v` end within `b`, whose length is
            // `(k-1)·step + 8·V`; `loadu` takes any alignment.
            *bvec = unsafe { _mm256_loadu_ps(b.as_ptr().add(p * step + 8 * v)) };
        }
        for (r, sums) in acc.iter_mut().enumerate() {
            // SAFETY: `r < R` and `p < k`, so the index is at most
            // `(R-1)·row + (k-1)·step`, the last element of `a`.
            let av = unsafe { *a.get_unchecked(r * lhs.row + p * lhs.step) };
            let av = _mm256_set1_ps(av);
            for (s, &bvec) in sums.iter_mut().zip(&bv) {
                *s = _mm256_add_ps(*s, _mm256_mul_ps(av, bvec));
            }
        }
    }
    for (r, sums) in acc.iter().enumerate() {
        let orow = &mut out[r * n..][..8 * V];
        for (v, &s) in sums.iter().enumerate() {
            // SAFETY: `orow` holds `8·V` floats, so the 8 from `8·v` on,
            // `v < V`, are in bounds; `storeu` takes any alignment.
            unsafe { _mm256_storeu_ps(orow.as_mut_ptr().add(8 * v), s) };
        }
    }
}

/// One output row over `W` columns for a slice whose rhs may hold NaN or
/// ±∞: a zero lhs element is skipped, as the oracle skips it, so `0·∞`
/// never reaches the sum.
#[inline(always)]
fn skipping_tile<const W: usize>(lhs: Lhs, rhs: &[f32], step: usize, k: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for p in 0..k {
        let av = lhs.at(0, p);
        if av == 0.0 {
            continue;
        }
        for (s, &bv) in acc.iter_mut().zip(&rhs[p * step..][..W]) {
            *s += av * bv;
        }
    }
    out[..W].copy_from_slice(&acc);
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
        let out = Product { batch: 1, m, k, n, lhs_transposed: false, rhs_transposed: false }
            .run(self.data(), other.data());
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
        let out = Product { batch: 1, m, k, n, lhs_transposed: true, rhs_transposed: false }
            .run(self.data(), other.data());
        Tensor::from_vec(out, &[m, n])
    }

    /// 2-D product with a transposed rhs: `[m, k] · [n, k]ᵀ → [m, n]`,
    /// without materialising the transpose. Bit-identical to
    /// `self.matmul(&other.transpose2d()?)`.
    pub fn matmul_transpose(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = as_2d(self, "matmul_transpose lhs")?;
        let (n, k2) = as_2d(other, "matmul_transpose rhs")?;
        if k != k2 {
            return Err(shape_mismatch("matmul_transpose", self, other));
        }
        let out = Product { batch: 1, m, k, n, lhs_transposed: false, rhs_transposed: true }
            .run(self.data(), other.data());
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
        let out = Product { batch: ba, m, k, n, lhs_transposed: false, rhs_transposed: false }
            .run(self.data(), other.data());
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
        let out = Product { batch: ba, m, k, n, lhs_transposed: true, rhs_transposed: false }
            .run(self.data(), other.data());
        Tensor::from_vec(out, &[ba, m, n])
    }

    /// Batched product with transposed rhs matrices:
    /// `[b, m, k] · [b, n, k]ᵀ → [b, m, n]`, without materialising the
    /// transpose. Bit-identical to
    /// `self.batched_matmul(&other.permute(&[0, 2, 1])?)`.
    pub fn batched_matmul_transpose(&self, other: &Tensor) -> Result<Tensor> {
        let (ba, m, k) = as_3d(self, "batched_matmul_transpose lhs")?;
        let (bb, n, k2) = as_3d(other, "batched_matmul_transpose rhs")?;
        if ba != bb || k != k2 {
            return Err(shape_mismatch("batched_matmul_transpose", self, other));
        }
        let out = Product { batch: ba, m, k, n, lhs_transposed: false, rhs_transposed: true }
            .run(self.data(), other.data());
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
        // The transposed-rhs entries: the rhs is `[n, k]` (`[b, n, k]`), so
        // its *trailing* dim must match the lhs columns.
        let err = a.matmul_transpose(&Tensor::zeros(&[3, 2])).unwrap_err().to_string();
        assert!(
            err.contains("matmul_transpose") && err.contains("[2, 3]") && err.contains("[3, 2]"),
            "{err}"
        );
        let err = Tensor::zeros(&[4, 2, 3])
            .batched_matmul_transpose(&Tensor::zeros(&[4, 3, 5]))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("batched_matmul_transpose")
                && err.contains("[4, 2, 3]")
                && err.contains("[4, 3, 5]"),
            "{err}"
        );
        let err = a.batched_matmul_transpose(&a).unwrap_err().to_string();
        assert!(err.contains("batched_matmul_transpose lhs") && err.contains("rank 3"), "{err}");
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
